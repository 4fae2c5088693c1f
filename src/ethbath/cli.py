"""Experiment runner: `ethbath <kind> --config file.json [--out DIR] ...`.

Each invocation executes one experiment kind end to end, writes its CSV/JSON
outputs into the output directory, and emits a run manifest listing every
produced file with its content hash. Reruns with the same config and seed
produce byte-identical CSV bodies.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from . import __version__, dynamics, eth, spectra, states, thermo
from .hamiltonian import (
    CouplingSpec,
    SpinChainParams,
    SystemParams,
    build_bath_hamiltonian,
    build_total_hamiltonian,
    model_spec_key,
    pauli_register_operator,
    pauli_site_operator,
)

KINDS = (
    "eth-stats", "thermo", "rates", "bcf", "dynamics",
    "scaling", "levelstats", "typicality", "multi-op-rates", "validate",
)

STATE_KINDS = ("eigenstate", "typical_mc", "product")
DEFAULT_FREQ_BIN = {"chaotic": 0.05, "integrable": 0.4}
DEFAULT_WINDOW = 0.3


class ConfigError(ValueError):
    pass


class StageError(RuntimeError):
    """Wraps a module failure with the name of the pipeline stage."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        super().__init__(f"stage {stage!r} failed: {cause}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _option(raw: dict, name: str, default, parse):
    """parse(value) of the option `name` ("key" or "section.key") of a raw config, or
    of `default` where it is absent; a value parse rejects is a config error."""
    *section, key = name.split(".")
    try:
        return parse((raw.get(section[0], {}) if section else raw).get(key, default))
    except (AttributeError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


@dataclass(frozen=True)
class BathModel:
    """One model's pipeline, memoized on the instance.

    The stages that do not depend on the bath state are cached properties: the
    bath eigensystem, the total one, the coupling term's bath operator B in the
    bath eigenbasis and the S(E) fit. The cheap stages that do depend on it
    (E0 and beta, the bath preparation, the normalized |f(E0, omega)|^2 table
    and the Lindblad generator) are methods. A model for another bath is
    `dataclasses.replace(model, bath=...)`.
    """

    system: SystemParams
    bath: SpinChainParams
    coupling: CouplingSpec
    cache_dir: str | None = None

    @cached_property
    def eig(self) -> spectra.EigenSystem:
        key = model_spec_key(self.system, self.bath, None) + "#bath"
        return spectra.cached_diagonalize(
            lambda: build_bath_hamiltonian(self.bath), self.cache_dir, key
        )

    @cached_property
    def total_eig(self) -> spectra.EigenSystem:
        key = model_spec_key(self.system, self.bath, self.coupling) + "#total"
        return spectra.cached_diagonalize(
            lambda: build_total_hamiltonian(self.system, self.bath, self.coupling),
            self.cache_dir, key,
        )

    @property
    def term(self) -> tuple[str, int, str]:
        """The coupling term (system axis, bath site, bath axis) the bath side models."""
        _require(
            len(self.coupling.terms) == 1,
            "coupling: the bath and Lindblad sides model exactly one term, "
            f"got {len(self.coupling.terms)}",
        )
        return self.coupling.terms[0]

    @cached_property
    def b_eig(self) -> np.ndarray:
        _, site, axis = self.term
        return spectra.to_eigenbasis(pauli_site_operator(self.bath.L, site, axis), self.eig)

    @cached_property
    def fit(self) -> thermo.EntropyFit:
        return thermo.entropy_fit(thermo.density_of_states(self.eig), degree=2)

    def e0(self, state: dict) -> float:
        """Energy of the bath preparation: the explicit E, else the E where S'(E) = beta."""
        fit = self.fit  # fitted for an explicit E too: a spectrum too small to fit fails here
        if "E" in state:
            return float(state["E"])
        return thermo.energy_at_beta(fit, float(state.get("beta", 0.0)))

    def beta(self, state: dict, e0: float) -> float:
        if "E" in state:
            return thermo.inverse_temperature(self.fit, e0)
        return float(state.get("beta", 0.0))

    def prepare(self, state: dict, e0: float, seed: int) -> states.PureState:
        kind = state["kind"]
        if kind == "eigenstate":
            return states.eigenstate_preparation(self.eig, e0)
        if kind == "typical_mc":
            return states.typical_microcanonical_state(
                self.eig, e0, float(state["deltaE"]), int(state.get("seed", seed))
            )
        return states.product_state_with_energy(self.bath, e0)

    def table(self, e0: float, beta: float, eth_opts: dict) -> eth.SpectralFunctionTable:
        """|f(E0, omega)|^2 normalized to the variance of B in the eigenstate nearest E0."""
        table = eth.spectral_function(
            self.b_eig, self.eig, e0,
            window=float(eth_opts["window"]),
            freq_bin=float(eth_opts["freq_bin"]),
            min_states=int(eth_opts["min_states"]),
        )
        psi = states.eigenstate_preparation(self.eig, e0).amplitudes
        row = psi @ self.b_eig  # row n of B, for that eigenstate n
        var_b = float(np.sum(np.abs(row) ** 2) - np.real(row @ psi) ** 2)
        return eth.normalize_spectral_function(table, var_b, beta)

    def lindblad(
        self, table: eth.SpectralFunctionTable, beta: float, psi_bath: states.PureState
    ) -> tuple[dynamics.LindbladModel, dynamics.EffectiveSystem]:
        """Lindblad generator of the mean-field-shifted system, coupled through the
        term's system Pauli, with rates from `table`."""
        s_op = pauli_register_operator(1, 0, self.term[0]).matrix
        psi_e = psi_bath.to_energy_basis(self.eig).amplitudes
        b_expect = float(np.real(np.vdot(psi_e, self.b_eig @ psi_e)))
        kappa = self.coupling.kappa
        effective = dynamics.mean_field_shift(self.system, kappa, b_expect, s_op)
        lowering = dynamics.lowering_operators(effective.hamiltonian, s_op)
        rate = partial(eth.transition_rate, table, kappa, beta)
        return dynamics.build_lindblad(effective, lowering, rate), effective

    def exact_evolve(
        self, psi_sys: states.PureState, psi_bath: states.PureState, grid: dynamics.TimeGrid
    ) -> dynamics.ReducedTrajectory:
        """Exact reduced dynamics of the product state psi_sys (x) psi_bath."""
        psi0 = states.PureState(
            amplitudes=np.kron(
                psi_sys.amplitudes, psi_bath.to_computational_basis(self.eig).amplitudes
            ),
            basis="computational",
        )
        return dynamics.exact_evolve(self.total_eig, psi0, grid)


@dataclass
class ExperimentConfig:
    kind: str
    model: BathModel
    preset: str | None
    state: dict
    grid: dynamics.TimeGrid
    eth_opts: dict
    seed: int
    out_dir: str
    raw: dict = field(repr=False, default_factory=dict)


def parse_config(kind: str, raw: dict, out_dir: str, cache_dir: str | None, seed: int | None) -> ExperimentConfig:
    _require(kind in KINDS, f"unknown experiment kind {kind!r}")
    _require(isinstance(raw, dict), "config root must be a JSON object")

    sys_cfg = raw.get("system", {})
    try:
        system = SystemParams(omega0=float(sys_cfg.get("omega0", 1.525)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"system: {exc}") from exc

    bath_cfg = raw.get("bath", {})
    _require("L" in bath_cfg, "bath.L is required")
    preset = bath_cfg.get("preset")
    try:
        L = int(bath_cfg["L"])
        if preset is not None:
            _require(preset in ("chaotic", "integrable"), f"unknown bath preset {preset!r}")
            bath = (SpinChainParams.chaotic if preset == "chaotic" else SpinChainParams.integrable)(L)
        else:
            bath = SpinChainParams(
                L=L, J=float(bath_cfg["J"]), h_z=float(bath_cfg["hz"]),
                h_x=float(bath_cfg["hx"]), h_1=float(bath_cfg["h1"]),
                h_L=float(bath_cfg["hL"]),
            )
    except KeyError as exc:
        raise ConfigError(f"bath: missing coupling {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bath: {exc}") from exc

    c_cfg = raw.get("coupling", {})
    try:
        terms = tuple(
            (str(t[0]), int(t[1]), str(t[2])) for t in c_cfg.get("terms", [["x", 1, "x"]])
        )
        coupling = CouplingSpec(kappa=float(c_cfg.get("kappa", 0.15)), terms=terms)
        coupling.validate_sites(bath.L)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"coupling: {exc}") from exc

    state = dict(raw.get("state", {}))
    state.setdefault("kind", "eigenstate")
    _require(state["kind"] in STATE_KINDS, f"unknown state kind {state['kind']!r}")
    state.setdefault("deltaE", 0.3)

    g_cfg = raw.get("grid", {})
    try:
        grid = dynamics.TimeGrid(
            t_max=float(g_cfg.get("t_max", 100.0)), dt=float(g_cfg.get("dt", 0.25))
        )
    except (TypeError, ValueError, dynamics.GridError) as exc:
        raise ConfigError(f"grid: {exc}") from exc

    eth_opts = dict(raw.get("eth", {}))
    eth_opts.setdefault("window", DEFAULT_WINDOW)
    eth_opts.setdefault(
        "freq_bin", DEFAULT_FREQ_BIN["integrable" if preset == "integrable" else "chaotic"]
    )
    eth_opts.setdefault("min_states", 100)

    if seed is None:
        seed = int(raw.get("seed", 0))
    if cache_dir is None:
        cache_dir = raw.get("cache_dir") or os.environ.get("ETHBATH_CACHE")

    return ExperimentConfig(
        kind=kind, model=BathModel(system, bath, coupling, cache_dir), preset=preset,
        state=state, grid=grid, eth_opts=eth_opts, seed=seed, out_dir=out_dir, raw=raw,
    )


# -- output helpers ------------------------------------------------------------


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# -- experiment kinds ------------------------------------------------------------


def _run_eth_stats(cfg: ExperimentConfig, out: str) -> list[str]:
    model = cfg.model
    profile = eth.diagonal_profile(model.b_eig, model.eig)
    e0 = model.e0(cfg.state)
    beta = model.beta(cfg.state, e0)
    table = model.table(e0, beta, cfg.eth_opts)

    diag_path = os.path.join(out, "diagonals.csv")
    _write_csv(diag_path, "E,Bnn", zip(profile.energies, profile.values))
    spec_path = os.path.join(out, "specfun.csv")
    mask = table.filled
    _write_csv(
        spec_path, "omega,f2,count",
        zip(table.omegas[mask], table.values[mask], table.counts[mask]),
    )
    summary_path = os.path.join(out, "summary.json")
    _write_json(summary_path, {
        "fluctuation": profile.fluctuation,
        "n_window_states": table.n_states,
        "normalization": table.normalization,
        "e0": e0,
        "beta": beta,
    })
    return [diag_path, spec_path, summary_path]


def _run_thermo(cfg: ExperimentConfig, out: str) -> list[str]:
    eig = cfg.model.eig
    dos = thermo.density_of_states(eig)
    degree = _option(cfg.raw, "thermo.degree", 2, int)
    _require(degree >= 2, f"thermo.degree must be >= 2, got {degree}")
    fit = thermo.entropy_fit(dos, degree=degree)
    rows = []
    for center, count in zip(dos.centers, dos.counts):
        if count == 0 or not (fit.e_lo <= center <= fit.e_hi):
            continue
        beta = thermo.inverse_temperature(fit, center)
        try:
            capacity = thermo.heat_capacity(fit, center)
        except ValueError:
            capacity = math.nan
        try:
            beta_can = thermo.canonical_inverse_temperature(eig, center)
        except ValueError:
            beta_can = math.nan
        rows.append((center, fit.entropy(center), beta, capacity, beta_can))
    path = os.path.join(out, "thermo.csv")
    _write_csv(path, "E,S,beta,C,beta_canonical", rows)
    return [path]


def _run_rates(cfg: ExperimentConfig, out: str) -> list[str]:
    model = cfg.model
    e0 = model.e0(cfg.state)
    beta = model.beta(cfg.state, e0)
    table = model.table(e0, beta, cfg.eth_opts)
    kappa = model.coupling.kappa

    capacity = None
    deriv = None
    try:
        capacity = thermo.heat_capacity(model.fit, e0)
        if math.isfinite(capacity) and capacity > 0:
            deriv = eth.spectral_function_energy_derivative(
                model.b_eig, model.eig, table, delta_e=table.window,
                min_states=int(cfg.eth_opts["min_states"]),
            )
    except (ValueError, eth.WindowError):
        capacity = None

    rows = []
    mask = table.filled
    for omega in table.omegas[mask]:
        gamma = eth.transition_rate(table, kappa, beta, float(omega))
        if deriv is not None and capacity is not None and deriv.omegas[0] <= omega <= deriv.omegas[-1]:
            gamma_fs = eth.finite_size_transition_rate(
                table, deriv, kappa, beta, capacity, float(omega)
            )
        else:
            gamma_fs = math.nan
        rows.append((float(omega), gamma, gamma_fs))
    path = os.path.join(out, "rates.csv")
    _write_csv(path, "omega,gamma,gamma_fs", rows)
    return [path]


def _run_bcf(cfg: ExperimentConfig, out: str) -> list[str]:
    model = cfg.model
    e0 = model.e0(cfg.state)
    psi = model.prepare(cfg.state, e0, cfg.seed)
    bcf = dynamics.bath_correlation_function(
        model.eig, model.b_eig, psi, cfg.grid, preparation=cfg.state["kind"]
    )
    path = os.path.join(out, "bcf.csv")
    _write_csv(
        path, "tau,re_C,im_C",
        zip(bcf.times, bcf.values.real, bcf.values.imag),
    )
    summary = {"variance_at_zero": bcf.variance_at_zero, "preparation": bcf.preparation}
    try:
        beta = model.beta(cfg.state, e0)
        table = model.table(e0, beta, cfg.eth_opts)
        recon = dynamics.bcf_from_spectral_function(table, beta, cfg.grid)
        summary["max_reconstruction_error"] = float(
            np.max(np.abs(recon.values - bcf.values))
        )
    except (eth.WindowError, ValueError):
        summary["max_reconstruction_error"] = None
    spath = os.path.join(out, "summary.json")
    _write_json(spath, summary)
    return [path, spath]


def _run_dynamics(cfg: ExperimentConfig, out: str) -> list[str]:
    model = cfg.model
    e0 = model.e0(cfg.state)
    beta = model.beta(cfg.state, e0)
    psi_bath = model.prepare(cfg.state, e0, cfg.seed)
    psi_sys = states.system_initial_state(cfg.state.get("system", "polarized"))
    rho0 = np.outer(psi_sys.amplitudes, psi_sys.amplitudes.conj())

    lindblad, effective = model.lindblad(model.table(e0, beta, cfg.eth_opts), beta, psi_bath)
    lind = dynamics.lindblad_evolve_sampled(lindblad, rho0, cfg.grid)
    exact = model.exact_evolve(psi_sys, psi_bath, cfg.grid)

    tdist = dynamics.trace_distance_series(exact, lind)
    path = os.path.join(out, "trajectory.csv")
    _write_csv(
        path, "t,p0,p1,re_rho01,im_rho01,trace_dist_vs_lindblad",
        zip(
            exact.times,
            exact.populations,
            1.0 - exact.populations,
            exact.rhos[:, 0, 1].real,
            exact.rhos[:, 0, 1].imag,
            tdist,
        ),
    )

    omega_p = effective.omega_prime
    gamma_pop = lindblad.gamma_pop
    summary = {
        "omega_prime": omega_p,
        "beta": beta,
        "e0": e0,
        "gamma_pop_prediction": gamma_pop,
        "avg_trace_distance": dynamics.time_averaged_trace_distance(
            exact, lind, cfg.grid.t_max
        ),
    }
    p_inf = lindblad.rate_at(omega_p) / gamma_pop if gamma_pop > 0 else 0.5
    try:
        rate_exact, res_exact = dynamics.fit_exponential_rate(
            exact.times, exact.populations, p_inf
        )
        summary["fitted_rate_exact"] = rate_exact
        summary["fit_residual_exact"] = res_exact
    except ValueError as exc:
        summary["fitted_rate_exact"] = None
        summary["fit_note"] = str(exc)
    tail = exact.times >= 0.5 * cfg.grid.t_max
    rho_mf = dynamics.mean_force_state(model.total_eig, beta)
    summary["long_time_p0_exact"] = float(np.mean(exact.populations[tail]))
    summary["mean_force_p0"] = float(np.real(rho_mf[0, 0]))
    spath = os.path.join(out, "summary.json")
    _write_json(spath, summary)
    return [path, spath]


def _run_scaling(cfg: ExperimentConfig, out: str) -> list[str]:
    make_bath = (
        SpinChainParams.chaotic if cfg.preset != "integrable" else SpinChainParams.integrable
    )
    baths = _option(
        cfg.raw, "scaling.L_values", [6, 8, 10, 12], lambda xs: [make_bath(int(x)) for x in xs]
    )
    _require(len(baths) > 0, "scaling.L_values is empty")
    state_kinds = _option(cfg.raw, "scaling.state_kinds", ["eigenstate", "typical_mc"], list)
    unknown = [kind for kind in state_kinds if kind not in STATE_KINDS]
    _require(not unknown, f"scaling.state_kinds: unknown state kinds {unknown}")
    t_final = _option(cfg.raw, "scaling.t_final", cfg.grid.t_max, float)
    _require(t_final <= cfg.grid.t_max, "scaling.t_final exceeds grid.t_max")

    # Lindblad reference from the largest bath in the sweep
    ref = replace(cfg.model, bath=max(baths, key=lambda b: b.L))
    e0_ref = ref.e0(cfg.state)
    beta = ref.beta(cfg.state, e0_ref)
    psi_sys = states.system_initial_state(cfg.state.get("system", "polarized"))
    rho0 = np.outer(psi_sys.amplitudes, psi_sys.amplitudes.conj())

    rows = []
    for state_kind in state_kinds:
        state = dict(cfg.state, kind=state_kind)
        psi_ref = ref.prepare(state, e0_ref, cfg.seed)
        lindblad, _ = ref.lindblad(ref.table(e0_ref, beta, cfg.eth_opts), beta, psi_ref)
        lind = dynamics.lindblad_evolve_sampled(lindblad, rho0, cfg.grid)
        for bath in baths:
            model = replace(cfg.model, bath=bath)
            psi_bath = model.prepare(state, model.e0(state), cfg.seed)
            exact = model.exact_evolve(psi_sys, psi_bath, cfg.grid)
            avg = dynamics.time_averaged_trace_distance(exact, lind, t_final)
            rows.append((bath.L, avg, state_kind))
    path = os.path.join(out, "scaling.csv")
    _write_csv(path, "L,avg_trace_distance,state_kind", rows)
    return [path]


def _run_levelstats(cfg: ExperimentConfig, out: str) -> list[str]:
    stats = spectra.gap_ratios(cfg.model.total_eig.eigenvalues)
    path = os.path.join(out, "summary.json")
    _write_json(path, {
        "mean_gap_ratio": stats.mean_ratio,
        "n_degenerate": stats.n_degenerate,
        "n_ratios": int(stats.ratios.size),
        "histogram": {
            "edges": stats.hist_edges,
            "counts": stats.hist_counts,
        },
    })
    return [path]


def _run_typicality(cfg: ExperimentConfig, out: str) -> list[str]:
    n_samples = _option(cfg.raw, "typicality.n_samples", 50, int)
    _require(n_samples >= 2, f"typicality.n_samples must be >= 2, got {n_samples}")
    model = cfg.model
    window = states.microcanonical_window(
        model.eig, model.e0(cfg.state), float(cfg.state["deltaE"])
    )
    report = dynamics.typicality_spread(
        model.eig, model.b_eig, window, n_samples, cfg.seed, cfg.grid
    )
    path = os.path.join(out, "typicality.csv")
    _write_csv(
        path, "sample,max_dev_B,max_dev_C",
        zip(range(n_samples), report.max_dev_b, report.max_dev_c),
    )
    pooled = report.deviations_b.ravel()
    eps_grid = np.linspace(pooled.max() * 0.05, pooled.max() * 1.5, 30)
    levy = [
        {
            "epsilon": float(e),
            "empirical": report.exceedance_fraction(float(e)),
            "bound": dynamics.levy_bound_observable(float(e), report.window_dim),
        }
        for e in eps_grid
    ]
    spath = os.path.join(out, "summary.json")
    _write_json(spath, {
        "window_dim": report.window_dim,
        "mc_average": report.mc_average,
        "median_spread_B": report.median_spread_b,
        "levy_check": levy,
        "levy_satisfied": all(p["empirical"] <= p["bound"] for p in levy),
    })
    return [path, spath]


def _run_multi_op_rates(cfg: ExperimentConfig, out: str) -> list[str]:
    # the operators list replaces the coupling term, so model.b_eig stays unbuilt
    model = cfg.model
    paulis = _option(
        cfg.raw, "operators", [[1, "x"], [1, "z"]],
        lambda ops: [pauli_site_operator(model.bath.L, int(site), str(axis)) for site, axis in ops],
    )
    _require(len(paulis) >= 2, f"operators: need at least two, got {len(paulis)}")
    ops = [spectra.to_eigenbasis(pauli, model.eig) for pauli in paulis]
    e0 = model.e0(cfg.state)
    beta = model.beta(cfg.state, e0)
    matrices = eth.rate_matrix_multi(
        ops, model.eig, e0,
        window=float(cfg.eth_opts["window"]),
        freq_bin=float(cfg.eth_opts["freq_bin"]),
        kappa=model.coupling.kappa, beta=beta,
        min_states=int(cfg.eth_opts["min_states"]),
    )
    p = len(ops)
    header = "omega,count,min_eigenvalue," + ",".join(f"eig_{i}" for i in range(p))
    rows = [
        (m.omega, m.count, m.min_eigenvalue, *[float(x) for x in m.eigenvalues])
        for m in matrices
    ]
    path = os.path.join(out, "rate_matrix.csv")
    _write_csv(path, header, rows)
    worst = min((m.min_eigenvalue for m in matrices), default=0.0)
    spath = os.path.join(out, "summary.json")
    _write_json(spath, {
        "n_bins": len(matrices),
        "worst_min_eigenvalue": worst,
        "max_hermiticity_residual": max(
            (m.hermiticity_residual for m in matrices), default=0.0
        ),
    })
    return [path, spath]


def validate(cfg: ExperimentConfig) -> list[str]:
    """Physics lint: returns a list of warning strings (schema errors raise)."""
    model = cfg.model
    kappa, bath = model.coupling.kappa, model.bath
    warnings_out: list[str] = []
    if kappa == 0:
        warnings_out.append("kappa = 0: dynamics is trivial (no system-bath coupling)")
    dim_total = 2 ** (bath.L + 1)
    mem = 16 * dim_total**2
    if mem > 8 * 2**30:
        warnings_out.append(
            f"total dimension {dim_total} needs ~{mem / 2**30:.0f} GiB for a complex "
            "eigendecomposition; expect memory pressure"
        )
    # mean level spacing estimate from a Gaussian DOS of width ~ sqrt(L) * ||couplings||
    scale = math.sqrt(bath.L) * max(abs(bath.J), abs(bath.h_x), abs(bath.h_z), 1e-12)
    spacing = 2.0 * 4.0 * scale / 2**bath.L
    if 0 < kappa < spacing:
        warnings_out.append(
            f"kappa = {kappa} below the estimated mean level spacing "
            f"{spacing:.3g}; coupling too weak to induce nontrivial dynamics"
        )
    if bath.L <= 12:
        try:
            try:
                e0 = model.e0(cfg.state)
                beta = model.beta(cfg.state, e0)
            except thermo.FitDomainError:
                target = "E" if "E" in cfg.state else "beta"
                value = float(cfg.state.get(target, 0.0))
                warnings_out.append(
                    f"target {target} = {value} lies outside the entropy-fit domain"
                )
                return warnings_out
            model.b_eig  # outside the Markov try: a failure skips the lint, >1 term exits 2
            try:
                table = model.table(e0, beta, cfg.eth_opts)
                rate = partial(eth.transition_rate, table, kappa, beta)
                omega_p = model.system.omega0
                gamma_max = max(rate(omega_p), rate(-omega_p))
                mask = table.filled
                x, y = table.omegas[mask], table.values[mask]
                half = 0.5 * float(np.max(y))
                width = float(x[y >= half][-1] - x[y >= half][0]) if (y >= half).any() else 0.0
                tau_b = 1.0 / width if width > 0 else math.inf
                if gamma_max * tau_b > 0.1:
                    warnings_out.append(
                        f"Markov criterion violated: gamma_max * tau_B = "
                        f"{gamma_max * tau_b:.3g} > 0.1"
                    )
            except (eth.WindowError, eth.SupportError, ValueError) as exc:
                warnings_out.append(f"could not evaluate the Markov criterion: {exc}")
        except ConfigError:
            raise
        except Exception as exc:  # lint must not crash validation
            warnings_out.append(f"physics lint skipped: {exc}")
    return warnings_out


def _run_validate(cfg: ExperimentConfig, out: str) -> list[str]:
    diagnostics = validate(cfg)
    path = os.path.join(out, "validate.json")
    _write_json(path, {"warnings": diagnostics})
    for w in diagnostics:
        print(f"warning: {w}", file=sys.stderr)
    return [path]


_RUNNERS = {
    "eth-stats": _run_eth_stats,
    "thermo": _run_thermo,
    "rates": _run_rates,
    "bcf": _run_bcf,
    "dynamics": _run_dynamics,
    "scaling": _run_scaling,
    "levelstats": _run_levelstats,
    "typicality": _run_typicality,
    "multi-op-rates": _run_multi_op_rates,
    "validate": _run_validate,
}


def run(cfg: ExperimentConfig) -> dict:
    """Execute the configured pipeline; returns the run manifest.

    Outputs are written into a staging directory inside the output directory
    and moved into place only when the run succeeds, so a failing run leaves
    the output directory as it found it.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    start = time.time()
    staging = tempfile.mkdtemp(prefix=".staging-", dir=cfg.out_dir)
    try:
        try:
            produced = _RUNNERS[cfg.kind](cfg, staging)
        except ConfigError:
            raise
        except Exception as exc:
            raise StageError(cfg.kind, exc) from exc
        files = {}
        for path in produced:
            name = os.path.basename(path)
            files[name] = _sha256(path)
            os.replace(path, os.path.join(cfg.out_dir, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    manifest = {
        "kind": cfg.kind,
        "config_hash": hashlib.sha256(
            json.dumps(cfg.raw, sort_keys=True).encode()
        ).hexdigest(),
        "seed": cfg.seed,
        "versions": {"ethbath": __version__, "numpy": np.__version__},
        "wall_seconds": time.time() - start,
        "files": files,
    }
    _write_json(os.path.join(cfg.out_dir, "run_manifest.json"), manifest)
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ethbath",
        description="Pure-state chaotic-bath master-equation experiments",
    )
    parser.add_argument("kind", choices=KINDS)
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--cache-dir", default=None, help="eigensystem cache directory")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(args.kind, raw, args.out, args.cache_dir, args.seed)
        manifest = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"out": cfg.out_dir, "files": sorted(manifest["files"])}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
