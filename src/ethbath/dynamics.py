"""Exact system+bath evolution, bath correlation functions, Lindblad dynamics,
and the diagnostics comparing the two (trace distances, rate fits, typicality).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eth import SpectralFunctionTable
from .hamiltonian import DimensionError, SystemParams
from .spectra import EigenbasisOperator, EigenSystem
from .states import MicrocanonicalWindow, PureState, typical_microcanonical_state

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

_TIME_CHUNK = 64


class NumericalInvariantError(RuntimeError):
    """A trajectory violated trace/Hermiticity/positivity beyond tolerance."""


class GridError(ValueError):
    """A malformed time grid, or a trajectory grid that differs from another or ends
    too early."""


@dataclass(frozen=True)
class TimeGrid:
    t_max: float
    dt: float

    def __post_init__(self):
        if self.dt <= 0 or self.t_max < 0:
            raise GridError(f"bad grid t_max={self.t_max}, dt={self.dt}")

    @property
    def count(self) -> int:
        return int(round(self.t_max / self.dt)) + 1

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.count)


@dataclass(frozen=True)
class ReducedTrajectory:
    times: np.ndarray = field(repr=False)
    rhos: np.ndarray = field(repr=False)  # (n, 2, 2)
    provenance: str
    max_trace_dev: float
    max_herm_dev: float
    min_eigenvalue: float

    @property
    def populations(self) -> np.ndarray:
        return np.real(self.rhos[:, 0, 0])


def _make_trajectory(times: np.ndarray, rhos: np.ndarray, provenance: str,
                     hard_tol: float = 1e-6) -> ReducedTrajectory:
    trace_dev = float(np.max(np.abs(np.einsum("tii->t", rhos) - 1.0)))
    herm_dev = float(np.max(np.abs(rhos - np.conj(np.transpose(rhos, (0, 2, 1))))))
    herm = 0.5 * (rhos + np.conj(np.transpose(rhos, (0, 2, 1))))
    min_eig = float(np.min(np.linalg.eigvalsh(herm)))
    if trace_dev > hard_tol or herm_dev > hard_tol or min_eig < -hard_tol:
        raise NumericalInvariantError(
            f"{provenance} trajectory breached invariants: trace dev {trace_dev:.3g}, "
            f"hermiticity dev {herm_dev:.3g}, min eigenvalue {min_eig:.3g}"
        )
    return ReducedTrajectory(
        times=times, rhos=rhos, provenance=provenance,
        max_trace_dev=trace_dev, max_herm_dev=herm_dev, min_eigenvalue=min_eig,
    )


# -- effective system and jump operators --------------------------------------


@dataclass(frozen=True)
class EffectiveSystem:
    """Mean-field-shifted system Hamiltonian and its Bohr frequency."""

    hamiltonian: np.ndarray
    omega_prime: float


def mean_field_shift(
    sys: SystemParams, kappa: float, b_expect: float, coupling_op: np.ndarray = SIGMA_X
) -> EffectiveSystem:
    h = (sys.omega0 / 2.0) * SIGMA_Z + kappa * b_expect * coupling_op
    evals = np.linalg.eigvalsh(h)
    return EffectiveSystem(hamiltonian=h, omega_prime=float(evals[-1] - evals[0]))


def lowering_operators(
    h_sys: np.ndarray, s_op: np.ndarray = SIGMA_X, degeneracy_tol: float = 1e-10
) -> list[tuple[float, np.ndarray]]:
    """Decompose s_op into eigenoperators S(omega) of h_sys.

    Returns (omega, S(omega)) pairs with [h_sys, S(omega)] = -omega S(omega),
    omega > 0 lowering; the components sum back to s_op.
    """
    evals, v = np.linalg.eigh(h_sys)
    if abs(evals[1] - evals[0]) < degeneracy_tol:
        raise ValueError("degenerate system Hamiltonian: Bohr decomposition ill-defined")
    s_eig = v.conj().T @ s_op @ v
    comps: dict[float, np.ndarray] = {}
    for k in range(2):
        for l in range(2):
            amp = s_eig[k, l]
            if abs(amp) < 1e-14:
                continue
            omega = float(evals[l] - evals[k])
            block = np.outer(v[:, k], v[:, l].conj()) * amp
            comps[omega] = comps.get(omega, 0.0) + block
    return sorted(comps.items(), key=lambda kv: kv[0])


@dataclass(frozen=True)
class LindbladModel:
    """Effective 2x2 Hamiltonian plus rate-weighted jump operators."""

    hamiltonian: np.ndarray = field(repr=False)
    jumps: tuple[tuple[float, np.ndarray, float], ...]  # (omega, op, gamma)

    def __post_init__(self):
        for omega, op, gamma in self.jumps:
            if gamma < 0:
                raise ValueError(f"negative rate {gamma} at omega={omega}")
            comm = self.hamiltonian @ op - op @ self.hamiltonian
            if np.max(np.abs(comm + omega * op)) > 1e-10 * max(1.0, abs(omega)):
                raise ValueError(f"jump at omega={omega} is not an eigenoperator")

    @property
    def gamma_pop(self) -> float:
        """Population relaxation rate: sum of rates on the +/- Bohr transitions."""
        return sum(g for w, _, g in self.jumps if w != 0.0)

    def rate_at(self, omega: float) -> float:
        for w, _, g in self.jumps:
            if math.isclose(w, omega, rel_tol=1e-9, abs_tol=1e-12):
                return g
        raise KeyError(f"no jump at omega={omega}")


def build_lindblad(
    effective: EffectiveSystem,
    lowering: list[tuple[float, np.ndarray]],
    rate_function,
) -> LindbladModel:
    """Attach rates to the Bohr components. rate_function maps omega -> gamma.

    The omega = 0 component, the part of the coupling operator diagonal in the
    system eigenbasis, is kept: its rate 2 pi kappa^2 |f(E0, 0)|^2 dephases the
    system (the whole effect of a sigma^z coupling).
    """
    jumps = []
    for omega, op in lowering:
        gamma = float(rate_function(omega))
        if gamma < 0:
            raise ValueError(f"rate function returned negative rate at omega={omega}")
        jumps.append((omega, op, gamma))
    return LindbladModel(hamiltonian=effective.hamiltonian, jumps=tuple(jumps))


# -- Lindblad integration ------------------------------------------------------


def _liouvillian(model: LindbladModel) -> np.ndarray:
    """4x4 superoperator on row-major vec(rho)."""
    eye = np.eye(2)
    h = model.hamiltonian
    lio = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for _, op, gamma in model.jumps:
        opd_op = op.conj().T @ op
        lio = lio + gamma * (
            np.kron(op, op.conj())
            - 0.5 * np.kron(opd_op, eye)
            - 0.5 * np.kron(eye, opd_op.T)
        )
    return lio


def lindblad_evolve(model: LindbladModel, rho0: np.ndarray, grid: TimeGrid) -> ReducedTrajectory:
    """Exact Lindblad dynamics rho(t) = e^{Lt} rho(0) at the grid times.

    Every jump is an eigenoperator of H, so L splits into a 2x2 population block
    and two decoupled coherences and is diagonalizable: with L = V diag(w) V^-1 and
    c = V^-1 vec(rho0), vec(rho(t)) = V (e^{wt} * c). There is no time step and no
    step bound; no trace renormalization is performed, deviations are reported on
    the trajectory.
    """
    _check_density_matrix(rho0)
    w, v = np.linalg.eig(_liouvillian(model))
    c = np.linalg.solve(v, rho0.astype(complex).reshape(4))
    out = (np.exp(np.outer(grid.times, w)) * c) @ v.T
    return _make_trajectory(grid.times, out.reshape(-1, 2, 2), "lindblad")


def _check_density_matrix(rho: np.ndarray, tol: float = 1e-8) -> None:
    if rho.shape != (2, 2):
        raise DimensionError(f"expected a 2x2 density matrix, got {rho.shape}")
    if abs(np.trace(rho) - 1.0) > tol or np.max(np.abs(rho - rho.conj().T)) > tol:
        raise ValueError("not a valid density matrix")
    if np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) < -tol:
        raise ValueError("density matrix has a negative eigenvalue")


# -- exact dynamics ------------------------------------------------------------


def partial_trace_bath(state: np.ndarray) -> np.ndarray:
    """Reduced 2x2 system density matrix from a total pure state or density matrix."""
    if state.ndim == 1:
        dim = state.size
        if dim % 2 != 0:
            raise DimensionError(f"total dimension {dim} is not 2 * bath dim")
        psi = state.reshape(2, dim // 2)
        return psi @ psi.conj().T
    if state.ndim == 2 and state.shape[0] == state.shape[1]:
        dim = state.shape[0]
        if dim % 2 != 0:
            raise DimensionError(f"total dimension {dim} is not 2 * bath dim")
        d = dim // 2
        return np.einsum("aibi->ab", state.reshape(2, d, 2, d))
    raise DimensionError(f"cannot partial-trace shape {state.shape}")


def exact_evolve(total_eig: EigenSystem, psi0: PureState, grid: TimeGrid) -> ReducedTrajectory:
    """Spectral evolution |psi(t)> = V e^{-i Lambda t} V^dag |psi0>, reduced to 2x2."""
    if psi0.basis != "computational":
        raise ValueError("psi0 must be given in the total computational basis")
    if psi0.dim != total_eig.dim:
        raise DimensionError(f"state dim {psi0.dim} != eigensystem dim {total_eig.dim}")
    v = total_eig.eigenvectors
    e = total_eig.eigenvalues
    c = v.conj().T @ psi0.amplitudes
    times = grid.times
    rhos = np.empty((times.size, 2, 2), dtype=complex)
    v_real = not np.iscomplexobj(v)
    for start in range(0, times.size, _TIME_CHUNK):
        t_chunk = times[start : start + _TIME_CHUNK]
        w = c[:, None] * np.exp(-1j * np.outer(e, t_chunk))
        if v_real:
            psi_t = v @ w.real + 1j * (v @ w.imag)
        else:
            psi_t = v @ w
        for j in range(t_chunk.size):
            rhos[start + j] = partial_trace_bath(psi_t[:, j])
    return _make_trajectory(times, rhos, "exact")


def mean_force_state(total_eig: EigenSystem, beta: float) -> np.ndarray:
    """rho_MF proportional to tr_B exp(-beta H), from the total eigendecomposition."""
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    e = total_eig.eigenvalues
    w = np.exp(-beta * (e - (e.min() if beta >= 0 else e.max())))
    v = total_eig.eigenvectors
    d = total_eig.dim // 2
    vr = v.reshape(2, d, total_eig.dim)
    rho = np.einsum("ajk,bjk,k->ab", vr, vr.conj(), w)
    return rho / np.trace(rho).real


# -- bath correlation functions -------------------------------------------------


@dataclass(frozen=True)
class BathCorrelation:
    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    variance_at_zero: float
    preparation: str

    def __post_init__(self):
        c0 = self.values[0]
        if abs(c0.imag) > 1e-10 * max(1.0, abs(c0.real)) or c0.real < -1e-10:
            raise ValueError(f"C(0) = {c0} must be real and nonnegative")


def _dot(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """b @ a; real b times complex a as two real GEMMs, not b cast to complex."""
    if np.iscomplexobj(b) or not np.iscomplexobj(a):
        return b @ a
    return b @ a.real + 1j * (b @ a.imag)


def _support_correlation(e: np.ndarray, rows: np.ndarray, support: np.ndarray,
                         psi_s: np.ndarray, times: np.ndarray) -> np.ndarray:
    """C(t) of the state with eigenbasis amplitudes psi_s on `support`, from the rows
    B[support, :]: B psi = (rows^T psi_s^*)^*, as B is Hermitian."""
    v = _dot(rows.T, psi_s.conj()).conj()
    b_mean = float(np.real(np.vdot(psi_s, v[support])))
    values = np.empty(times.size, dtype=complex)
    for start in range(0, times.size, _TIME_CHUNK):
        t_chunk = times[start : start + _TIME_CHUNK]
        a = v[:, None] * np.exp(-1j * np.outer(e, t_chunk))
        u = psi_s.conj()[:, None] * np.exp(1j * np.outer(e[support], t_chunk))
        values[start : start + _TIME_CHUNK] = np.sum(u * _dot(rows, a), axis=0)
    return values - b_mean**2


def bath_correlation_function(
    eig: EigenSystem, b_eig: EigenbasisOperator | np.ndarray, psi: PureState,
    grid: TimeGrid, preparation: str = "",
) -> BathCorrelation:
    """C(t, 0) = <psi| B(t) B(0) |psi> - <psi|B|psi>^2 as a sum over the support of psi,
    sum_{i in supp} psi_i^* e^{i E_i t} sum_m B_im e^{-i E_m t} (B psi)_m - <B>^2, at
    |supp| * D work per time (an eigenstate is a support of size one). Only the rows
    B[supp, :] are taken from b_eig."""
    psi_e = psi.to_energy_basis(eig).amplitudes
    support = np.flatnonzero(psi_e)
    values = _support_correlation(
        eig.eigenvalues, b_eig[support, :], support, psi_e[support], grid.times
    )
    return BathCorrelation(
        times=grid.times,
        values=values,
        variance_at_zero=float(values[0].real),
        preparation=preparation,
    )


def bcf_from_spectral_function(
    table: SpectralFunctionTable, beta: float, grid: TimeGrid
) -> BathCorrelation:
    """C(tau) = integral d omega e^{-i omega tau} e^{beta omega / 2} |f|^2."""
    if table.normalization is None:
        raise ValueError("table must be normalized first")
    mask = table.filled
    x = table.omegas[mask]
    weight = np.exp(beta * x / 2.0) * table.values[mask]
    times = grid.times
    phases = np.exp(-1j * np.outer(times, x))
    values = np.trapezoid(phases * weight, x, axis=1)
    return BathCorrelation(
        times=times,
        values=values,
        variance_at_zero=float(values[0].real),
        preparation=f"spectral-function table at E0={table.e0}",
    )


# -- distances and fits ----------------------------------------------------------


def trace_distance_series(traj_a: ReducedTrajectory, traj_b: ReducedTrajectory) -> np.ndarray:
    if traj_a.times.size != traj_b.times.size or not np.allclose(
        traj_a.times, traj_b.times
    ):
        raise GridError("trajectories are on different time grids")
    diff = traj_a.rhos - traj_b.rhos
    diff = 0.5 * (diff + np.conj(np.transpose(diff, (0, 2, 1))))
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=1)


def time_averaged_trace_distance(
    traj_a: ReducedTrajectory, traj_b: ReducedTrajectory, t_final: float
) -> float:
    series = trace_distance_series(traj_a, traj_b)
    times = traj_a.times
    if times[-1] < t_final:
        raise GridError(f"grid ends at {times[-1]} before t_final={t_final}")
    mask = times <= t_final + 1e-12
    t = times[mask]
    return float(np.trapezoid(series[mask], t) / t[-1])


def fit_exponential_rate(
    times: np.ndarray, values: np.ndarray, asymptote: float, floor: float = 0.05
) -> tuple[float, float]:
    """Least-squares slope of log |y - asymptote| where the deviation is above
    `floor` times its initial value (roughly the first three e-foldings).

    Returns (rate, rms residual in log units); non-monotone data is reported
    through the residual rather than failing, but a rate <= 0 (a deviation that
    does not decay) is a ValueError.
    """
    dev = np.abs(np.asarray(values, float) - asymptote)
    if dev[0] <= 0:
        raise ValueError("series starts at the asymptote; nothing to fit")
    above = dev > floor * dev[0]
    cutoff = int(np.argmin(above)) if not above.all() else above.size
    if cutoff < 20:
        raise ValueError(f"only {cutoff} points before the fit floor; need >= 20")
    t = np.asarray(times, float)[:cutoff]
    logs = np.log(dev[:cutoff])
    slope, intercept = np.polyfit(t, logs, 1)
    if slope >= 0:
        raise ValueError(f"fitted rate {-slope:.3g} <= 0: the deviation from "
                         f"{asymptote:.6g} does not decay")
    residual = float(np.sqrt(np.mean((slope * t + intercept - logs) ** 2)))
    return -float(slope), residual


# -- typicality -------------------------------------------------------------------


def levy_bound_observable(epsilon: float, window_dim: int, op_norm: float = 1.0) -> float:
    return 2.0 * math.exp(-window_dim * epsilon**2 / (18.0 * math.pi**3 * op_norm**2))


@dataclass(frozen=True)
class TypicalitySpread:
    window_dim: int
    mc_average: float
    deviations_b: np.ndarray = field(repr=False)  # (n_samples, n_times)
    deviations_c: np.ndarray = field(repr=False)
    max_dev_b: np.ndarray = field(repr=False)
    max_dev_c: np.ndarray = field(repr=False)

    @property
    def median_spread_b(self) -> float:
        return float(np.median(self.max_dev_b))

    def exceedance_fraction(self, epsilon: float) -> float:
        """Fraction of pooled per-(sample, time) deviations above epsilon."""
        return float(np.mean(self.deviations_b > epsilon))


def typicality_spread(
    eig: EigenSystem,
    b_eig: EigenbasisOperator | np.ndarray,
    window: MicrocanonicalWindow,
    n_samples: int,
    seed: int,
    grid: TimeGrid,
) -> TypicalitySpread:
    """Sample typical microcanonical states and measure their deviations from
    microcanonical averages of <B(t)> and of the BCF.

    Everything comes from the window's rows B[window, :], fetched once: a typical
    state's support is the window."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    members = window.members
    d_w = members.size
    e_w = eig.eigenvalues[members]
    rows = b_eig[members, :]
    b_win = rows[:, members]
    times = grid.times

    mc_average = float(np.mean(np.real(np.diagonal(b_win))))

    # microcanonical-averaged BCF: mean over window eigenstates of the
    # eigenstate BCF sum_{m != n} |B_nm|^2 e^{i (E_n - E_m) t}
    p = np.abs(rows) ** 2
    p[np.arange(d_w), members] = 0.0
    phase_w = np.exp(1j * np.outer(e_w, times))
    mc_bcf = np.mean(phase_w * (p @ np.exp(-1j * np.outer(eig.eigenvalues, times))), axis=0)

    devs_b = np.empty((n_samples, times.size))
    devs_c = np.empty((n_samples, times.size))
    for s in range(n_samples):
        psi = typical_microcanonical_state(eig, window.e0, window.delta_e, seed + s)
        phases = np.exp(-1j * np.outer(e_w, times)) * psi.amplitudes[members, None]
        b_t = np.real(np.einsum("it,ij,jt->t", phases.conj(), b_win, phases))
        devs_b[s] = np.abs(b_t - mc_average)
        c_t = _support_correlation(
            eig.eigenvalues, rows, members, psi.amplitudes[members], times
        )
        devs_c[s] = np.abs(c_t - mc_bcf)
    return TypicalitySpread(
        window_dim=d_w,
        mc_average=mc_average,
        deviations_b=devs_b,
        deviations_c=devs_c,
        max_dev_b=devs_b.max(axis=1),
        max_dev_c=devs_c.max(axis=1),
    )
