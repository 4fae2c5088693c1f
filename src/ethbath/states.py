"""Pure-state preparations for bath and system.

The typical microcanonical sampler uses a counter-based 64-bit generator:
splitmix64 finalization applied to (seed XOR golden-ratio stream constants,
counter), with Gaussians from the Box-Muller transform on consecutive
uniforms. Output is a pure function of (seed, counter), so states are
bit-reproducible regardless of how sampling is parallelized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import SpinChainParams
from .spectra import EigenSystem

_NORM_TOL = 1e-12


class EmptyWindowError(ValueError):
    """No eigenstates inside the requested microcanonical window."""


class EnergyUnreachableError(ValueError):
    """Target energy outside the reachable interval of the product-state family."""

    def __init__(self, target: float, interval: tuple[float, float]):
        self.target = target
        self.interval = interval
        super().__init__(
            f"target energy {target} unreachable; the uniform product-state family "
            f"covers [{interval[0]:.6g}, {interval[1]:.6g}]"
        )


@dataclass(frozen=True)
class PureState:
    amplitudes: np.ndarray = field(repr=False)
    basis: str  # "computational" | "energy"

    def __post_init__(self):
        if self.basis not in ("computational", "energy"):
            raise ValueError(f"unknown basis {self.basis!r}")
        norm = float(np.linalg.norm(self.amplitudes))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {_NORM_TOL}")
        self.amplitudes.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def to_energy_basis(self, eig: EigenSystem) -> "PureState":
        if self.basis == "energy":
            return self
        return PureState(
            amplitudes=eig.eigenvectors.conj().T @ self.amplitudes, basis="energy"
        )

    def to_computational_basis(self, eig: EigenSystem) -> "PureState":
        if self.basis == "computational":
            return self
        return PureState(
            amplitudes=eig.eigenvectors @ self.amplitudes, basis="computational"
        )


@dataclass(frozen=True)
class MicrocanonicalWindow:
    e0: float
    delta_e: float
    members: np.ndarray

    @property
    def dim(self) -> int:
        return self.members.size


def microcanonical_window(eig: EigenSystem, e0: float, delta_e: float) -> MicrocanonicalWindow:
    e = eig.eigenvalues
    members = np.nonzero(np.abs(e - e0) <= delta_e / 2.0)[0]
    if members.size == 0:
        raise EmptyWindowError(f"no eigenstates in [{e0}±{delta_e / 2}]")
    return MicrocanonicalWindow(e0=e0, delta_e=delta_e, members=members)


def eigenstate_preparation(eig: EigenSystem, e_target: float) -> PureState:
    """The eigenstate nearest e_target (ties resolved to the lower index)."""
    idx = int(np.argmin(np.abs(eig.eigenvalues - e_target)))
    amps = np.zeros(eig.dim)
    amps[idx] = 1.0
    return PureState(amplitudes=amps, basis="energy")


# -- counter-based RNG -------------------------------------------------------

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def counter_uniform(seed: int, counter: int) -> float:
    """Uniform in (0, 1], a pure function of (seed, counter)."""
    h = _splitmix64((seed & _MASK) ^ _splitmix64(counter & _MASK))
    return (h + 1) / 2.0**64


def counter_gaussians(seed: int, n: int) -> np.ndarray:
    """n standard normals via Box-Muller over counter-indexed uniforms."""
    pairs = (n + 1) // 2
    out = np.empty(2 * pairs)
    for i in range(pairs):
        u1 = counter_uniform(seed, 2 * i)
        u2 = counter_uniform(seed, 2 * i + 1)
        r = math.sqrt(-2.0 * math.log(u1))
        out[2 * i] = r * math.cos(2.0 * math.pi * u2)
        out[2 * i + 1] = r * math.sin(2.0 * math.pi * u2)
    return out[:n]


def typical_microcanonical_state(
    eig: EigenSystem,
    e0: float,
    delta_e: float,
    seed: int,
) -> PureState:
    """Gaussian-random superposition of the eigenstates inside [e0 +/- delta_e/2].

    Amplitudes are real: the bath Hamiltonians here are real symmetric and
    time-reversal invariant.
    """
    window = microcanonical_window(eig, e0, delta_e)
    coeff = counter_gaussians(seed, window.dim)
    amps = np.zeros(eig.dim)
    amps[window.members] = coeff / np.linalg.norm(coeff)
    return PureState(amplitudes=amps, basis="energy")


# -- product states ----------------------------------------------------------


def product_state_energy(params: SpinChainParams, theta: float) -> float:
    """Closed-form <H_B> in the uniform product state with Bloch angle theta.

    Per site <sigma^z> = cos(theta), <sigma^x> = sin(theta); nearest-neighbor
    terms factorize on product states.
    """
    c, s = math.cos(theta), math.sin(theta)
    return (
        params.J * (params.L - 1) * c * c
        + params.L * (params.h_z * c + params.h_x * s)
        + (params.h_1 + params.h_L) * c
    )


def product_state_with_energy(
    params: SpinChainParams, e_target: float, tolerance: float = 1e-6
) -> PureState:
    """Uniform Bloch-angle product state |theta>^(x)L with <H_B> = e_target.

    The angle is located by a grid scan for a bracketing sign change followed
    by bisection; unreachable targets report the family's reachable interval.
    """
    thetas = np.linspace(0.0, 2.0 * math.pi, 4097)
    energies = np.array([product_state_energy(params, t) for t in thetas])
    reachable = (float(energies.min()), float(energies.max()))
    g = energies - e_target
    crossings = np.nonzero(g[:-1] * g[1:] <= 0)[0]
    if crossings.size == 0:
        raise EnergyUnreachableError(e_target, reachable)
    lo, hi = float(thetas[crossings[0]]), float(thetas[crossings[0] + 1])
    f = lambda t: product_state_energy(params, t) - e_target
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) < tolerance:
            lo = hi = mid
            break
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    theta = 0.5 * (lo + hi)
    site = np.array([math.cos(theta / 2.0), math.sin(theta / 2.0)])
    amps = np.array([1.0])
    for _ in range(params.L):
        amps = np.kron(amps, site)
    return PureState(amplitudes=amps / np.linalg.norm(amps), basis="computational")


def system_initial_state(kind: str) -> PureState:
    """|0> for "polarized"; (|0> + |1>)/sqrt(2) for "superposition"."""
    if kind == "polarized":
        return PureState(amplitudes=np.array([1.0, 0.0]), basis="computational")
    if kind == "superposition":
        inv = 1.0 / math.sqrt(2.0)
        return PureState(amplitudes=np.array([inv, inv]), basis="computational")
    raise ValueError(f"unknown system state kind {kind!r}")
