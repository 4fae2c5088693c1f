"""ETH statistics of eigenbasis matrix elements and the dissipation rates they imply.

Everything here consumes an operator in the energy eigenbasis: a
spectra.EigenbasisOperator, whose blocks are computed on request, or a dense
ndarray; only the entries each estimate reads are taken from it.
The binned off-diagonal variance estimate ("spectral function table") is defined
up to a constant which is fixed by the sum-rule normalization against the
variance of the bath operator in the prepared state; rates follow from the
normalized, symmetrized table.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .spectra import EigenbasisOperator, EigenSystem

_ROW_BLOCK = 128  # rows of B fetched per strip in _bin_pairs


class WindowError(ValueError):
    """Energy or frequency window too small / empty for a meaningful estimate."""


class SupportError(ValueError):
    """Requested frequency outside the table's interpolation support."""


@dataclass(frozen=True)
class DiagonalProfile:
    energies: np.ndarray
    values: np.ndarray
    fluctuation: float


def diagonal_profile(
    op_eig: EigenbasisOperator | np.ndarray, eig: EigenSystem, central_fraction: float = 0.1
) -> DiagonalProfile:
    """Diagonal matrix elements vs energy, plus eigenstate-to-eigenstate fluctuation.

    The fluctuation is mean |B_{n+1,n+1} - B_{nn}| over the central slice of the
    spectrum (at least 20 states, widened beyond central_fraction if needed).
    """
    if op_eig.shape != (eig.dim, eig.dim):
        raise ValueError(f"operator shape {op_eig.shape} != dim {eig.dim}")
    n = eig.dim
    if n < 20:
        raise WindowError(f"need at least 20 states for the fluctuation measure, have {n}")
    keep = min(n, max(int(round(n * central_fraction)), 20))
    lo = (n - keep) // 2
    diag = np.real(op_eig.diagonal())
    central = diag[lo : lo + keep]
    return DiagonalProfile(
        energies=eig.eigenvalues.copy(),
        values=diag.copy(),
        fluctuation=float(np.mean(np.abs(np.diff(central)))),
    )


@dataclass(frozen=True)
class SpectralFunctionTable:
    """Binned |f(E0, omega)|^2 estimates on a symmetric frequency grid.

    raw_values keep the direct per-bin estimate; values are the +/- omega
    symmetrized ones actually used for rates. Bins with zero count carry
    value 0 and are excluded from interpolation (counts flags them).
    """

    e0: float
    window: float
    freq_bin: float
    n_states: int
    omegas: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    raw_values: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    normalization: float | None = None
    beta: float | None = None

    @property
    def filled(self) -> np.ndarray:
        """Mask of bins usable after symmetrization (either +omega or -omega hit)."""
        return (self.counts + self.counts[::-1]) > 0

    def value_at(self, omega: float) -> float:
        """Symmetrized |f|^2, linearly interpolated between filled bin centers."""
        mask = self.filled
        if not mask.any():
            raise SupportError("empty table")
        x = self.omegas[mask]
        if not (x[0] <= omega <= x[-1]):
            raise SupportError(f"omega={omega} outside table support [{x[0]}, {x[-1]}]")
        return float(np.interp(omega, x, self.values[mask]))


def _bin_pairs(
    mats: list[EigenbasisOperator | np.ndarray],
    eig: EigenSystem, e0: float, window: float, freq_bin: float, min_states: int,
):
    """Accumulate products B^mu_nm conj(B^nu_nm) of off-diagonal pairs whose mean
    energy lies in [e0 +/- window/2], binned by omega = E_m - E_n.

    Rows are taken _ROW_BLOCK at a time: each operator gives the strip of a block's
    m-range once, and the pairs are binned row by row.

    Returns (n_states, omegas, counts, sums): the eigenstates in the window (at
    least min_states), and sums shaped (P, P, n_bins) on a bin grid symmetric about
    omega = 0, with the empty outer bins dropped.
    """
    e = eig.eigenvalues
    n_states = int(np.count_nonzero(np.abs(e - e0) <= window / 2.0))
    if n_states < min_states:
        raise WindowError(
            f"window [{e0}±{window / 2}] holds {n_states} eigenstates < floor {min_states}"
        )
    if freq_bin <= 0:
        raise ValueError("freq_bin must be positive")
    lo, hi = e0 - window / 2.0, e0 + window / 2.0
    k_max = int(math.ceil((e[-1] - e[0]) / freq_bin)) + 1
    n_bins = 2 * k_max + 1
    p = len(mats)
    sums = np.zeros((p, p, n_bins), dtype=complex)
    counts = np.zeros(n_bins, dtype=np.int64)

    m_lo = np.searchsorted(e, 2.0 * lo - e, side="left")
    m_hi = np.searchsorted(e, 2.0 * hi - e, side="right")
    for r0 in range(0, eig.dim, _ROW_BLOCK):
        r1 = min(r0 + _ROW_BLOCK, eig.dim)
        # E is sorted, so m_lo and m_hi fall with n: the block's m-range is one slice
        c0, c1 = int(m_lo[r1 - 1]), int(m_hi[r0])
        if c1 <= c0:
            continue
        blocks = [m[r0:r1, c0:c1] for m in mats]
        for n in range(r0, r1):
            a, b = int(m_lo[n]), int(m_hi[n])
            if b <= a:
                continue
            sl = slice(a, b)
            omega = e[sl] - e[n]
            k = np.rint(omega / freq_bin).astype(np.int64) + k_max
            rows = [blk[n - r0, a - c0 : b - c0] for blk in blocks]
            keep = np.ones(b - a, dtype=bool)
            if a <= n < b:
                keep[n - a] = False
            k = k[keep]
            counts += np.bincount(k, minlength=n_bins)
            for i in range(p):
                ri = rows[i][keep]
                for j in range(i, p):
                    prod = ri * np.conj(rows[j][keep])
                    sums[i, j] += np.bincount(k, weights=prod.real, minlength=n_bins)
                    if np.iscomplexobj(prod) and i != j:
                        sums[i, j] += 1j * np.bincount(k, weights=prod.imag, minlength=n_bins)
    for i in range(p):
        for j in range(i + 1, p):
            sums[j, i] = np.conj(sums[i, j])
    hit = np.nonzero(counts > 0)[0]
    if hit.size == 0:
        raise WindowError("all frequency bins are empty")
    reach = max(abs(int(hit[0]) - k_max), abs(int(hit[-1]) - k_max))
    sl = slice(k_max - reach, k_max + reach + 1)
    omegas = freq_bin * (np.arange(n_bins) - k_max)
    return n_states, omegas[sl], counts[sl], sums[..., sl]


def spectral_function(
    op_eig: EigenbasisOperator | np.ndarray,
    eig: EigenSystem,
    e0: float,
    window: float,
    freq_bin: float,
    min_states: int = 100,
) -> SpectralFunctionTable:
    """Estimate |f(E0, omega)|^2 from off-diagonal matrix elements.

    Per-bin estimate: (states-in-window density) * mean |B_nm|^2 over pairs in
    the bin; the overall constant is fixed later by normalize_spectral_function.
    """
    n_states, omegas, counts, sums = _bin_pairs([op_eig], eig, e0, window, freq_bin, min_states)
    density = n_states / window
    raw = np.zeros_like(omegas)
    filled = counts > 0
    raw[filled] = density * sums[0, 0, filled].real / counts[filled]
    sym = _symmetrize(raw, counts)
    return SpectralFunctionTable(
        e0=e0, window=window, freq_bin=freq_bin, n_states=n_states,
        omegas=omegas, counts=counts, raw_values=raw, values=sym,
    )


def _symmetrize(raw: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of the +/- omega bins; one-sided bins keep the filled side's value."""
    rev, crev = raw[::-1], counts[::-1]
    both = (counts > 0) & (crev > 0)
    one = (counts > 0) ^ (crev > 0)
    sym = np.zeros_like(raw)
    sym[both] = 0.5 * (raw[both] + rev[both])
    sym[one] = np.where(counts[one] > 0, raw[one], rev[one])
    return sym


def normalize_spectral_function(
    table: SpectralFunctionTable, var_b: float, beta: float
) -> SpectralFunctionTable:
    """Rescale so the trapezoid of e^{beta omega / 2} |f|^2 equals var_b."""
    if var_b < 0:
        raise ValueError(f"variance must be nonnegative, got {var_b}")
    mask = table.filled
    if var_b == 0.0:
        zero = np.zeros_like(table.values)
        return dataclasses.replace(
            table, raw_values=zero, values=zero, normalization=0.0, beta=beta
        )
    x = table.omegas[mask]
    integral = float(np.trapezoid(np.exp(beta * x / 2.0) * table.values[mask], x))
    if integral <= 0:
        raise ValueError("zero spectral-function integral with nonzero target variance")
    c = var_b / integral
    return dataclasses.replace(
        table,
        raw_values=table.raw_values * c,
        values=table.values * c,
        normalization=c if table.normalization is None else table.normalization * c,
        beta=beta,
    )


def transition_rate(
    table: SpectralFunctionTable, kappa: float, beta: float, omega: float
) -> float:
    """gamma(omega) = 2 pi kappa^2 e^{beta omega / 2} |f|^2 on the symmetrized table.

    Detailed balance gamma(omega) = e^{beta omega} gamma(-omega) holds as an
    algebraic identity because the symmetrized table is even in omega.
    """
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    f2 = table.value_at(abs(omega))
    return 2.0 * math.pi * kappa**2 * math.exp(beta * omega / 2.0) * f2


@dataclass(frozen=True)
class SpectralDerivative:
    """Energy derivative of the normalized |f|^2 on the table's grid."""

    omegas: np.ndarray
    values: np.ndarray
    delta_e: float

    def value_at(self, omega: float) -> float:
        x = self.omegas
        if not (x[0] <= omega <= x[-1]):
            raise SupportError(f"omega={omega} outside derivative support")
        return float(np.interp(omega, x, self.values))


def spectral_function_energy_derivative(
    op_eig: EigenbasisOperator | np.ndarray,
    eig: EigenSystem,
    table: SpectralFunctionTable,
    delta_e: float,
    min_states: int = 100,
) -> SpectralDerivative:
    """Central difference of |f|^2 between windows at E0 +/- delta_e.

    Both shifted tables inherit the central table's normalization constant so
    the difference is a derivative of the same normalized function.
    """
    if table.normalization is None:
        raise ValueError("normalize the central table before differentiating")
    lo, hi = (
        spectral_function(op_eig, eig, table.e0 + sign * delta_e, table.window,
                          table.freq_bin, min_states=min_states)
        for sign in (-1.0, 1.0)
    )
    # the shifted tables live on their own trimmed grids; evaluate everything
    # on the central bins covered by both shifted supports
    lo_x = lo.omegas[lo.filled]
    hi_x = hi.omegas[hi.filled]
    support_lo = max(lo_x[0], hi_x[0])
    support_hi = min(lo_x[-1], hi_x[-1])
    mask = table.filled & (table.omegas >= support_lo) & (table.omegas <= support_hi)
    if not mask.any():
        raise WindowError("shifted windows share no filled bins with the central table")
    c = table.normalization
    omegas = table.omegas[mask]
    diff = np.array([hi.value_at(w) - lo.value_at(w) for w in omegas])
    deriv = c * diff / (2.0 * delta_e)
    return SpectralDerivative(omegas=omegas, values=deriv, delta_e=delta_e)


def finite_size_transition_rate(
    table: SpectralFunctionTable,
    dtable: SpectralDerivative,
    kappa: float,
    beta: float,
    capacity: float,
    omega: float,
) -> float:
    """Rate with subleading corrections: Gaussian entropy curvature factor and
    the energy derivative of the spectral function. A negative bracket (noisy
    derivative) is clipped to zero with a warning."""
    if capacity <= 0:
        raise ValueError("heat capacity must be positive")
    f2 = table.value_at(abs(omega))
    bracket = f2 + (omega / 2.0) * dtable.value_at(omega)
    if bracket < 0:
        warnings.warn(
            f"negative finite-size bracket {bracket:.3g} at omega={omega}; clipped to 0",
            RuntimeWarning,
            stacklevel=2,
        )
        bracket = 0.0
    exponent = beta * omega / 2.0 - 3.0 * beta**2 * omega**2 / (8.0 * capacity)
    return 2.0 * math.pi * kappa**2 * math.exp(exponent) * bracket


@dataclass(frozen=True)
class RateMatrix:
    """Hermitized cross-operator rate matrix at one frequency bin."""

    omega: float
    matrix: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray
    min_eigenvalue: float
    clipped_eigenvalues: np.ndarray
    hermiticity_residual: float
    count: int


def rate_matrix_multi(
    op_eigs: list[EigenbasisOperator | np.ndarray],
    eig: EigenSystem,
    e0: float,
    window: float,
    freq_bin: float,
    kappa: float,
    beta: float,
    min_states: int = 100,
) -> list[RateMatrix]:
    """Per-frequency-bin rate matrices gamma_{mu nu} for multiple bath operators.

    Eigenvalues are reported with the min-eigenvalue diagnostic and clipped at
    zero for downstream Lindblad use; non-Hermitian residual above 1e-6 before
    Hermitization is flagged via a warning.
    """
    if len(op_eigs) < 2:
        raise ValueError("need at least two operators; use spectral_function for one")
    n_states, omegas, counts, sums = _bin_pairs(op_eigs, eig, e0, window, freq_bin, min_states)
    density = n_states / window
    prefactor = 2.0 * math.pi * kappa**2
    out = []
    for b in np.nonzero(counts > 0)[0]:
        f_matrix = density * sums[:, :, b] / counts[b]
        gamma = prefactor * math.exp(beta * omegas[b] / 2.0) * f_matrix
        residual = float(np.max(np.abs(gamma - gamma.conj().T)))
        scale = float(np.max(np.abs(gamma)))
        if scale > 0 and residual > 1e-6 * max(scale, 1.0):
            warnings.warn(
                f"rate matrix at omega={omegas[b]:.3g} has pre-Hermitization "
                f"residual {residual:.3g}",
                RuntimeWarning,
                stacklevel=2,
            )
        herm = 0.5 * (gamma + gamma.conj().T)
        evals, _ = np.linalg.eigh(herm)
        out.append(
            RateMatrix(
                omega=float(omegas[b]),
                matrix=herm,
                eigenvalues=evals,
                min_eigenvalue=float(evals.min()),
                clipped_eigenvalues=np.clip(evals, 0.0, None),
                hermiticity_residual=residual,
                count=int(counts[b]),
            )
        )
    return out
