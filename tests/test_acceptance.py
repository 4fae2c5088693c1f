"""Acceptance gate: one test per build criterion, desk scale (bath L <= 12).

These tests reuse the session eigensystem cache; with ETHBATH_TEST_CACHE unset
or cold, the two 8192-dimensional diagonalizations add about three minutes up
front (criterion 06 took 171 s cold on 2 cores with OpenBLAS). Criterion 1
checks the ETH collapse rate e^{-S/2} of the diagonal fluctuations, scaled by
the central density of states; see its assertion messages for the measured
values.
"""

import math

import numpy as np
import pytest

from ethbath import dynamics, eth, states, thermo
from ethbath.hamiltonian import SystemParams, pauli_site_operator
from ethbath.spectra import EigenbasisOperator, EigenSystem, gap_ratios

OMEGA0 = 1.525
KAPPA = 0.15
WINDOW = 0.4
FREQ_BIN = {"chaotic": 0.05, "integrable": 0.4}
SIZES = (6, 8, 10, 12)

EXCITED = np.array([1.0, 0.0])  # qubit basis ordering: index 0 carries +omega0/2
INFINITE_T = {"kind": "eigenstate", "beta": 0.0}


class _Workspace:
    """Per-module memo of the L=12 artifacts several criteria share: normalized
    spectral-function tables per beta and the trace-distance scaling sweep.
    Everything else comes memoized from the bath models."""

    def __init__(self, model):
        self.model = model
        self._memo = {}

    def _get(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def table(self, preset, beta):
        """Normalized L=12 spectral-function table at the beta-matched energy."""

        def build():
            m = self.model(12, preset)
            opts = {"window": WINDOW, "freq_bin": FREQ_BIN[preset], "min_states": 100}
            return m.table(m.e0({"beta": beta}), beta, opts)

        return self._get(("table", preset, beta), build)

    def scaling(self, preset):
        """<T> over t'=100 per bath size against the infinite-temperature
        Lindblad model from the L=12 bath, plus the L=12 trajectories."""

        def build():
            ref = self.model(12, preset)
            psi_ref = ref.prepare(INFINITE_T, ref.e0(INFINITE_T), seed=0)
            lindblad, _ = ref.lindblad(self.table(preset, 0.0), 0.0, psi_ref)
            grid = dynamics.TimeGrid(t_max=100.0, dt=0.5)
            lind = dynamics.lindblad_evolve(lindblad, np.outer(EXCITED, EXCITED), grid)
            excited = states.PureState(amplitudes=EXCITED.copy(), basis="computational")
            tbars, traj = [], None
            for L in SIZES:
                m = self.model(L, preset)
                psi = m.prepare(INFINITE_T, m.e0(INFINITE_T), seed=0)
                traj = m.exact_evolve(excited, psi, grid)
                tbars.append(dynamics.time_averaged_trace_distance(traj, lind, 100.0))
            return tbars, traj, lind, lindblad

        return self._get(("scaling", preset), build)


@pytest.fixture(scope="module")
def ws(model):
    return _Workspace(model)


def _central_density(eig: EigenSystem) -> float:
    """Density of states over the central slice that eth.diagonal_profile uses.

    rho = (keep - 1) / (E_last - E_first) is e^{S(E)} up to a constant, with no
    bin width that would change with the bath size.
    """
    n = eig.dim
    keep = min(n, max(int(round(n * 0.1)), 20))
    lo = (n - keep) // 2
    central = eig.eigenvalues[lo : lo + keep]
    return (keep - 1) / float(central[-1] - central[0])


def test_criterion_01_eth_diagonal_collapse(model):
    """ETH: B_nn = B(E_n) + e^{-S/2} f(E, 0) R_nn, so fluctuation * sqrt(rho) is flat.

    SIZES step L by 2, so the Hilbert space grows 4x per step and e^{-S/2} can
    fall by less than 2x per step; the chaotic bath must follow that rate, the
    integrable one (whose diagonal does not collapse) must not.
    """
    flucts, scaled, root_rho = {}, {}, {}
    for preset in ("chaotic", "integrable"):
        flucts[preset], scaled[preset], root_rho[preset] = [], [], []
        for L in SIZES:
            m = model(L, preset)
            eig = m.eig
            f = eth.diagonal_profile(m.b_eig, eig).fluctuation
            r = math.sqrt(_central_density(eig))
            flucts[preset].append(f)
            root_rho[preset].append(r)
            scaled[preset].append(f * r)

    def report(preset):
        steps = [b / a for a, b in zip(root_rho[preset], root_rho[preset][1:])]
        return (
            f"{preset} central slice (>= 20 states) fluctuations "
            f"{[round(f, 4) for f in flucts[preset]]}, sqrt(rho) ratios per L step "
            f"{[round(s, 2) for s in steps]}, fluctuation * sqrt(rho) "
            f"{[round(s, 3) for s in scaled[preset]]}"
        )

    fi, si, sc = flucts["integrable"], scaled["integrable"], scaled["chaotic"]
    assert max(fi) / min(fi) < 2.0, (
        f"integrable fluctuations moved by >= 2x: {report('integrable')}"
    )
    assert max(si) / min(si) >= 2.0, (
        "integrable fluctuation * sqrt(rho) moved by < 2x, as if it collapsed at the "
        f"ETH rate: {report('integrable')}"
    )
    assert max(sc) / min(sc) < 2.0, (
        "chaotic fluctuation * sqrt(rho) moved by >= 2x, away from the ETH "
        f"e^{{-S/2}} collapse: {report('chaotic')}"
    )


def test_criterion_02_local_detailed_balance(ws):
    beta = 0.1
    table = ws.table("chaotic", beta)
    for omega in (0.3, OMEGA0, 1.7):
        g_plus = eth.transition_rate(table, KAPPA, beta, omega)
        g_minus = eth.transition_rate(table, KAPPA, beta, -omega)
        assert abs(g_plus - math.exp(beta * omega) * g_minus) <= 1e-12 * g_plus
    # pre-symmetrization residual at omega0 from the raw binned table
    k = int(np.argmin(np.abs(table.omegas - OMEGA0)))
    k_neg = table.omegas.size - 1 - k
    assert table.counts[k] > 0 and table.counts[k_neg] > 0
    omega_bin = float(table.omegas[k])
    log_ratio = math.log(
        (math.exp(beta * omega_bin / 2.0) * table.raw_values[k])
        / (math.exp(-beta * omega_bin / 2.0) * table.raw_values[k_neg])
    )
    assert abs(log_ratio - beta * omega_bin) <= 0.3


def test_criterion_03_two_level_lindblad_oracle(ws):
    beta = 0.1
    table = ws.table("chaotic", beta)
    eff = dynamics.mean_field_shift(SystemParams(OMEGA0), KAPPA, b_expect=0.0)
    model = dynamics.build_lindblad(
        eff,
        dynamics.lowering_operators(eff.hamiltonian),
        lambda w: eth.transition_rate(table, KAPPA, beta, w),
    )
    wp = eff.omega_prime
    gamma_pop = model.gamma_pop
    p_inf = model.rate_at(-wp) / gamma_pop

    traj = dynamics.lindblad_evolve(
        model, np.diag([1.0, 0.0]).astype(complex), dynamics.TimeGrid(t_max=120.0, dt=0.05)
    )
    p = traj.rhos[:, 0, 0].real
    analytic = p_inf + (1.0 - p_inf) * np.exp(-gamma_pop * traj.times)
    assert np.max(np.abs(p - analytic)) <= 1e-6

    late = dynamics.lindblad_evolve(
        model, np.diag([1.0, 0.0]).astype(complex), dynamics.TimeGrid(t_max=2000.0, dt=50.0)
    ).rhos[-1]
    ratio = late[0, 0].real / late[1, 1].real
    assert ratio == pytest.approx(math.exp(-beta * wp), abs=1e-12)

    coh = dynamics.lindblad_evolve(
        model, np.full((2, 2), 0.5, dtype=complex), dynamics.TimeGrid(t_max=120.0, dt=0.05)
    )
    rate, _ = dynamics.fit_exponential_rate(
        coh.times, np.abs(coh.rhos[:, 0, 1]), asymptote=0.0
    )
    assert rate / gamma_pop == pytest.approx(0.5, rel=0.01)


def test_criterion_04_bcf_structure(model):
    m = model(12, "chaotic")
    eig = m.eig
    psi = states.eigenstate_preparation(eig, m.e0(INFINITE_T))
    short = dynamics.TimeGrid(t_max=2.0, dt=0.02)
    bcf = dynamics.bath_correlation_function(eig, m.b_eig, psi, short)
    mag = np.abs(bcf.values)
    hwhm = float(short.times[np.argmax(mag <= 0.5 * mag[0])])
    assert 0.3 <= hwhm <= 0.7

    long = dynamics.TimeGrid(t_max=25.0, dt=0.05)
    bcf_long = dynamics.bath_correlation_function(eig, m.b_eig, psi, long)
    mag_long = np.abs(bcf_long.values)
    assert np.max(mag_long[long.times > 2.0]) < 0.3 * mag_long[0]

    im = model(12, "integrable")
    ipsi = states.typical_microcanonical_state(im.eig, im.e0(INFINITE_T), 0.4, seed=0)
    ibcf = dynamics.bath_correlation_function(im.eig, im.b_eig, ipsi, long)
    imag = np.abs(ibcf.values)
    revival = (long.times >= 8.0) & (long.times <= 25.0)
    assert np.max(imag[revival]) >= 0.3 * imag[0]


def test_criterion_05_spectral_function_closure(ws, model):
    m = model(12, "chaotic")
    psi = states.eigenstate_preparation(m.eig, m.e0(INFINITE_T))
    grid = dynamics.TimeGrid(t_max=2.0, dt=0.02)
    exact = dynamics.bath_correlation_function(m.eig, m.b_eig, psi, grid)
    from_table = dynamics.bcf_from_spectral_function(ws.table("chaotic", 0.0), 0.0, grid)
    c0 = exact.variance_at_zero
    assert np.max(np.abs(exact.values - from_table.values)) <= 0.15 * c0


def test_criterion_06_trace_distance_scaling(ws):
    tbars_c, _, _, _ = ws.scaling("chaotic")
    assert tbars_c[-1] <= 0.08, f"chaotic L=12 <T> = {tbars_c[-1]:.4f}"
    assert all(a > b for a, b in zip(tbars_c, tbars_c[1:])), f"not monotone: {tbars_c}"
    tbars_i, _, _, _ = ws.scaling("integrable")
    assert not all(a > b for a, b in zip(tbars_i, tbars_i[1:])), (
        f"integrable <T> unexpectedly decreased monotonically: {tbars_i}"
    )


def test_criterion_07_rate_prediction(ws):
    _, exact_traj, lind_traj, lindblad = ws.scaling("chaotic")
    wp = max(w for w, _, _ in lindblad.jumps)
    gamma_pop = lindblad.gamma_pop
    p_inf = lindblad.rate_at(-wp) / gamma_pop
    rate_exact, _ = dynamics.fit_exponential_rate(
        exact_traj.times, exact_traj.rhos[:, 0, 0].real, asymptote=p_inf
    )
    rate_lind, _ = dynamics.fit_exponential_rate(
        lind_traj.times, lind_traj.rhos[:, 0, 0].real, asymptote=p_inf
    )
    assert rate_exact == pytest.approx(gamma_pop, rel=0.25)
    assert rate_lind == pytest.approx(gamma_pop, rel=0.02)


def test_criterion_08_mean_force_correction(model):
    # 10-spin total (bath L=9); tail populations averaged over typical
    # preparations so eigenstate-to-eigenstate fluctuations drop out
    beta = 0.25
    m = model(9, "chaotic")
    beig, teig = m.eig, m.total_eig
    e_b = m.e0({"beta": beta})
    fit_total = thermo.entropy_fit(thermo.density_of_states(teig.eigenvalues))

    grid = dynamics.TimeGrid(t_max=1000.0, dt=1.0)
    tails, betas_full = [], []
    for seed in range(8):
        bath = states.typical_microcanonical_state(
            beig, e_b, 0.4, seed=seed
        ).to_computational_basis(beig)
        psi0 = states.PureState(
            amplitudes=np.kron(EXCITED, bath.amplitudes), basis="computational"
        )
        c = teig.eigenvectors.conj().T @ psi0.amplitudes
        e_tot = float(np.real(np.sum(np.abs(c) ** 2 * teig.eigenvalues)))
        betas_full.append(thermo.inverse_temperature(fit_total, e_tot))
        traj = dynamics.exact_evolve(teig, psi0, grid)
        p = traj.rhos[:, 0, 0].real
        tails.append(float(np.mean(p[traj.times >= 100.0])))

    p_exact = float(np.mean(tails))
    # the mean-force state is evaluated at the temperature of the full state
    p_mf = dynamics.mean_force_state(teig, float(np.mean(betas_full)))[0, 0].real
    p_gibbs = 1.0 / (1.0 + math.exp(beta * OMEGA0))
    assert abs(p_exact - p_mf) < abs(p_exact - p_gibbs), (
        f"p_exact={p_exact:.4f}, p_mf={p_mf:.4f}, p_gibbs={p_gibbs:.4f}"
    )


def test_criterion_09_level_statistics(model):
    chaotic = gap_ratios(model(10, "chaotic").total_eig.eigenvalues)
    integrable = gap_ratios(model(10, "integrable").total_eig.eigenvalues)
    assert 0.50 <= chaotic.mean_ratio <= 0.56, chaotic.mean_ratio
    assert 0.35 <= integrable.mean_ratio <= 0.45, integrable.mean_ratio


def test_criterion_10_typicality(model):
    grid = dynamics.TimeGrid(t_max=50.0, dt=0.5)
    spreads = {}
    for L in (8, 12):
        m = model(L, "chaotic")
        window = states.microcanonical_window(m.eig, m.e0(INFINITE_T), 1.5)
        spread = dynamics.typicality_spread(
            m.eig, m.b_eig, window, n_samples=50, seed=0, grid=grid
        )
        for eps in np.linspace(0.01, 2.5, 250):
            assert spread.exceedance_fraction(eps) <= dynamics.levy_bound_observable(
                eps, window.dim
            )
        spreads[L] = spread.median_spread_b
    assert spreads[8] / spreads[12] >= 3.0, spreads


def test_criterion_11_rate_matrix(model):
    # synthetic: per-bin DFT phases make the bin averages of B^mu B^nu* equal
    # (A A^dag)_{mu nu} exactly, so the recovered eigenvalues are known
    rng = np.random.default_rng(11)
    n = 200
    evals = -1.99 + 0.02 * np.arange(n)
    eig = EigenSystem(eigenvalues=evals, eigenvectors=np.eye(n), dim=n)
    e0, window, freq_bin, beta = 0.0, 1.0, 0.1, 0.3
    n_ops, n_modes = 2, 3
    a = rng.normal(size=(n_ops, n_modes)) + 1j * rng.normal(size=(n_ops, n_modes))
    f_mat = a @ a.conj().T

    groups = {}
    for i in range(n):
        for m in range(i + 1, n):
            if abs((evals[i] + evals[m]) / 2.0 - e0) <= window / 2.0:
                k = int(np.rint((evals[m] - evals[i]) / freq_bin))
                groups.setdefault(k, []).append((i, m))
    mats = [np.zeros((n, n), dtype=complex) for _ in range(n_ops)]
    for pairs in groups.values():
        for j, (i, m) in enumerate(pairs):
            vals = a @ np.exp(2j * np.pi * np.arange(n_modes) * j / len(pairs))
            for mu in range(n_ops):
                mats[mu][i, m] = vals[mu]
                mats[mu][m, i] = np.conj(vals[mu])

    tables = eth.rate_matrix_multi(mats, eig, e0, window, freq_bin, KAPPA, beta, min_states=10)
    density = np.count_nonzero(np.abs(evals - e0) <= window / 2.0) / window
    for t in tables:
        if t.omega == 0.0:
            continue
        f_dir = f_mat if t.omega > 0 else f_mat.T
        expected = (
            2.0 * math.pi * KAPPA**2 * math.exp(beta * t.omega / 2.0) * density * f_dir
        )
        ev = np.sort(np.linalg.eigvalsh(0.5 * (expected + expected.conj().T)))
        assert np.max(np.abs(ev - np.sort(t.eigenvalues))) <= 1e-6 * np.max(np.abs(ev))

    # chaotic L=12, two coupling operators: near-positive rate matrices
    m = model(12, "chaotic")
    bz = EigenbasisOperator(pauli_site_operator(12, 1, "z"), m.eig)
    real_tables = eth.rate_matrix_multi(
        [m.b_eig, bz], m.eig, m.e0({"beta": 0.1}), WINDOW, FREQ_BIN["chaotic"], KAPPA, 0.1
    )
    central = [t for t in real_tables if abs(t.omega) <= 2.0 and t.count > 0]
    g_max = max(float(np.max(t.eigenvalues)) for t in central)
    g_min = min(float(np.min(t.eigenvalues)) for t in central)
    assert g_min >= -0.02 * g_max, f"min {g_min:.3e} vs max {g_max:.3e}"
