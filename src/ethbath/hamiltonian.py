"""Dense spin-1/2 Hamiltonians: system qubit, mixed-field Ising bath, coupling.

Conventions (fixed here once, relied on everywhere else):
  * computational sigma^z product basis;
  * in a register of n spins, spin 0 is the most significant bit;
  * in the total system+bath register the system qubit is spin 0 and bath
    sites 1..L follow, so bath site j sits at register position j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MAX_BATH_SITES = 16

CHAOTIC_COUPLINGS = (1.0, 0.3, 1.1, 0.25, -0.25)
INTEGRABLE_COUPLINGS = (1.0, 0.0, 1.1, 0.0, 0.0)


class DimensionError(ValueError):
    """Operator dimensions incompatible or beyond the configured maximum."""


@dataclass(frozen=True)
class SpinChainParams:
    """Open-boundary mixed-field Ising chain couplings."""

    L: int
    J: float
    h_z: float
    h_x: float
    h_1: float
    h_L: float

    def __post_init__(self):
        if self.L < 2:
            raise ValueError(f"a chain needs at least one bond, got L={self.L}")
        if self.L > MAX_BATH_SITES:
            raise DimensionError(
                f"L={self.L} exceeds the configured maximum of {MAX_BATH_SITES}"
            )
        for name in ("J", "h_z", "h_x", "h_1", "h_L"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"coupling {name} must be finite")

    @classmethod
    def chaotic(cls, L: int) -> "SpinChainParams":
        return cls(L, *CHAOTIC_COUPLINGS)

    @classmethod
    def integrable(cls, L: int) -> "SpinChainParams":
        return cls(L, *INTEGRABLE_COUPLINGS)


@dataclass(frozen=True)
class SystemParams:
    """Two-level system with splitting omega0 > 0."""

    omega0: float

    def __post_init__(self):
        if not (self.omega0 > 0 and math.isfinite(self.omega0)):
            raise ValueError(f"omega0 must be positive and finite, got {self.omega0}")


@dataclass(frozen=True)
class CouplingSpec:
    """System-bath coupling kappa * sum_mu S^mu (x) B^mu.

    Each term is (system Pauli axis, bath site, bath Pauli axis). The default
    single term couples sigma^x of the system to sigma^x of bath site 1.
    """

    kappa: float
    terms: tuple[tuple[str, int, str], ...] = (("x", 1, "x"),)

    def __post_init__(self):
        if not self.terms:
            raise ValueError("coupling needs at least one term")
        for sys_axis, site, bath_axis in self.terms:
            if sys_axis not in ("x", "y", "z") or bath_axis not in ("x", "y", "z"):
                raise ValueError(f"bad axes in coupling term ({sys_axis}, {site}, {bath_axis})")
            if site < 1:
                raise ValueError(f"bath site must be >= 1, got {site}")

    def validate_sites(self, L: int) -> None:
        for _, site, _ in self.terms:
            if site > L:
                raise ValueError(f"coupling term references bath site {site} > L={L}")


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian matrix; real symmetric storage when possible."""

    matrix: np.ndarray = field(repr=False)
    dim: int

    def __post_init__(self):
        m = self.matrix
        if m.shape != (self.dim, self.dim):
            raise DimensionError(f"matrix shape {m.shape} != ({self.dim}, {self.dim})")
        m.setflags(write=False)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "HermitianOperator":
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"not square: {m.shape}")
        return cls(matrix=m, dim=m.shape[0])


def _check_register(n_spins: int) -> int:
    if n_spins < 1:
        raise DimensionError("empty spin register")
    if n_spins > MAX_BATH_SITES:
        raise DimensionError(
            f"{n_spins} spins exceeds the configured maximum of {MAX_BATH_SITES}"
        )
    return 2**n_spins


def _pauli_z_diagonal(n_spins: int, pos: int) -> np.ndarray:
    """Diagonal of sigma^z at register position pos (0 = most significant bit)."""
    dim = 2**n_spins
    idx = np.arange(dim)
    bits = (idx >> (n_spins - 1 - pos)) & 1
    return 1.0 - 2.0 * bits


@dataclass(frozen=True)
class SignedPermutation:
    """A single-spin Pauli in a register: sigma |i> = phase[i] |perm[i]>."""

    perm: np.ndarray = field(repr=False)
    phase: np.ndarray = field(repr=False)


def pauli_permutation(n_spins: int, pos: int, axis: str) -> SignedPermutation:
    """Pauli at position pos of an n_spins register as a signed permutation."""
    dim = _check_register(n_spins)
    if not 0 <= pos < n_spins:
        raise ValueError(f"position {pos} outside register of {n_spins} spins")
    idx = np.arange(dim)
    if axis == "z":
        return SignedPermutation(idx, _pauli_z_diagonal(n_spins, pos))
    flipped = idx ^ (1 << (n_spins - 1 - pos))
    if axis == "x":
        return SignedPermutation(flipped, np.ones(dim))
    if axis == "y":
        # sigma^y |0> = i |1>, sigma^y |1> = -i |0>
        return SignedPermutation(flipped, np.where(flipped > idx, 1j, -1j))
    raise ValueError(f"unknown Pauli axis {axis!r}")


def pauli_register_operator(n_spins: int, pos: int, axis: str) -> HermitianOperator:
    """Dense single-spin Pauli at position pos of an n_spins register."""
    p = pauli_permutation(n_spins, pos, axis)
    m = np.zeros((p.perm.size, p.perm.size), dtype=p.phase.dtype)
    m[p.perm, np.arange(p.perm.size)] = p.phase
    return HermitianOperator.from_matrix(m)


def pauli_site_operator(L: int, site: int, axis: str) -> SignedPermutation:
    """Pauli at bath site `site` (1-based) of a bare bath register; never dense."""
    if not 1 <= site <= L:
        raise ValueError(f"site {site} out of range 1..{L}")
    return pauli_permutation(L, site - 1, axis)


def build_bath_hamiltonian(params: SpinChainParams) -> HermitianOperator:
    """Mixed-field Ising chain with open boundaries and edge sigma^z fields."""
    L = params.L
    dim = _check_register(L)
    z = np.stack([_pauli_z_diagonal(L, p) for p in range(L)])  # (L, dim)

    diag = np.zeros(dim)
    for j in range(L - 1):
        diag += params.J * z[j] * z[j + 1]
    diag += params.h_z * z.sum(axis=0)
    diag += params.h_1 * z[0] + params.h_L * z[-1]

    h = np.diag(diag)
    idx = np.arange(dim)
    for p in range(L):
        h[idx, idx ^ (1 << (L - 1 - p))] += params.h_x
    return HermitianOperator.from_matrix(h)


def build_total_hamiltonian(
    sys: SystemParams, bath: SpinChainParams, coupling: CouplingSpec
) -> HermitianOperator:
    """H = H_S (x) I + I (x) H_B + kappa * sum_mu S^mu (x) B^mu."""
    coupling.validate_sites(bath.L)
    hb = build_bath_hamiltonian(bath).matrix
    d = hb.shape[0]
    dim = 2 * d

    needs_complex = any(
        sa == "y" or ba == "y" for sa, _, ba in coupling.terms
    )
    h = np.zeros((dim, dim), dtype=complex if needs_complex else float)
    half = sys.omega0 / 2.0
    h[:d, :d] = hb
    h[d:, d:] = hb
    ii = np.arange(d)
    h[ii, ii] += half
    h[ii + d, ii + d] -= half

    for sys_axis, site, bath_axis in coupling.terms:
        b = pauli_register_operator(bath.L, site - 1, bath_axis).matrix
        kb = coupling.kappa * b
        if sys_axis == "z":
            h[:d, :d] += kb
            h[d:, d:] -= kb
        elif sys_axis == "x":
            h[:d, d:] += kb
            h[d:, :d] += kb
        else:  # y
            h[:d, d:] += -1j * kb
            h[d:, :d] += 1j * kb
    return HermitianOperator.from_matrix(h)


def model_spec_key(sys: SystemParams, bath: SpinChainParams, coupling: CouplingSpec | None) -> str:
    """Canonical string identifying a model, used for cache content hashes."""
    parts = [
        f"omega0={sys.omega0!r}",
        f"L={bath.L}",
        f"J={bath.J!r}", f"hz={bath.h_z!r}", f"hx={bath.h_x!r}",
        f"h1={bath.h_1!r}", f"hL={bath.h_L!r}",
    ]
    if coupling is not None:
        parts.append(f"kappa={coupling.kappa!r}")
        parts.append("terms=" + ";".join(f"{a},{s},{b}" for a, s, b in coupling.terms))
    return "|".join(parts)
