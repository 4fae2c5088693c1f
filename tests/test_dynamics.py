import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ethbath import dynamics, spectra, states
from ethbath.hamiltonian import (
    CouplingSpec,
    SpinChainParams,
    SystemParams,
    build_bath_hamiltonian,
    build_total_hamiltonian,
)

SZ = np.diag([1.0, -1.0])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def two_level_model(omega0=1.525, gamma_down=0.05, gamma_up=0.02):
    h = (omega0 / 2.0) * SZ
    s_down = np.array([[0.0, 0.0], [1.0, 0.0]])  # |g><e|, removes energy omega0
    jumps = ((omega0, s_down, gamma_down), (-omega0, s_down.conj().T, gamma_up))
    return dynamics.LindbladModel(hamiltonian=h, jumps=jumps)


def test_lowering_operators_reconstruct_sigma_x():
    eff = dynamics.mean_field_shift(SystemParams(1.525), 0.15, b_expect=0.3)
    comps = dynamics.lowering_operators(eff.hamiltonian)
    total = sum(op for _, op in comps)
    np.testing.assert_allclose(total, SX, atol=1e-12)
    for omega, op in comps:
        comm = eff.hamiltonian @ op - op @ eff.hamiltonian
        np.testing.assert_allclose(comm, -omega * op, atol=1e-12)


def test_mean_field_shift_gap():
    eff = dynamics.mean_field_shift(SystemParams(1.0), kappa=0.2, b_expect=0.5)
    assert eff.omega_prime == pytest.approx(np.sqrt(1.0 + 4 * 0.01), rel=1e-12)


def test_lindblad_rejects_negative_rate():
    with pytest.raises(ValueError):
        two_level_model(gamma_down=-0.1)


def test_lindblad_rejects_non_eigenoperator():
    h = (1.0 / 2.0) * SZ
    with pytest.raises(ValueError):
        dynamics.LindbladModel(hamiltonian=h, jumps=((0.5, SX, 0.1),))


def test_analytic_two_level_relaxation():
    # populations follow p(t) = p_inf + (p0 - p_inf) exp(-gamma_pop t) exactly
    gd, gu = 0.05, 0.02
    model = two_level_model(gamma_down=gd, gamma_up=gu)
    grid = dynamics.TimeGrid(t_max=120.0, dt=0.05)
    rho0 = np.diag([1.0, 0.0])
    traj = dynamics.lindblad_evolve_sampled(model, rho0, grid)
    gamma_pop = gd + gu
    p_inf = gu / gamma_pop
    expected = p_inf + (1.0 - p_inf) * np.exp(-gamma_pop * grid.times)
    assert np.max(np.abs(traj.populations - expected)) < 1e-6


def test_stationary_state_detailed_balance():
    gd, gu = 0.05, 0.02
    model = two_level_model(gamma_down=gd, gamma_up=gu)
    grid = dynamics.TimeGrid(t_max=2000.0, dt=50.0)
    traj = dynamics.lindblad_evolve_sampled(model, np.diag([1.0, 0.0]), grid)
    pe, pg = traj.populations[-1], 1.0 - traj.populations[-1]
    assert pe / pg == pytest.approx(gu / gd, abs=1e-12)


def test_coherence_decays_at_half_population_rate():
    gd, gu = 0.05, 0.02
    model = two_level_model(gamma_down=gd, gamma_up=gu)
    grid = dynamics.TimeGrid(t_max=100.0, dt=0.05)
    plus = np.full((2, 2), 0.5)
    traj = dynamics.lindblad_evolve_sampled(model, plus, grid)
    rate, residual = dynamics.fit_exponential_rate(traj.times, traj.coherences, 0.0)
    assert rate == pytest.approx((gd + gu) / 2.0, rel=1e-3)
    assert residual < 1e-3


def test_rk4_preserves_invariants():
    model = two_level_model()
    grid = dynamics.TimeGrid(t_max=50.0, dt=0.005)
    traj = dynamics.lindblad_evolve(model, np.diag([0.7, 0.3]), grid)
    assert traj.max_trace_dev < 1e-10
    assert traj.max_herm_dev < 1e-10
    assert traj.min_eigenvalue > -1e-10


def test_dt_stability_guard():
    model = two_level_model()
    with pytest.raises(dynamics.GridError):
        dynamics.lindblad_evolve(model, np.diag([1.0, 0.0]), dynamics.TimeGrid(100.0, 5.0))


@settings(max_examples=20, deadline=None)
@given(
    gd=st.floats(min_value=1e-4, max_value=0.2),
    gu=st.floats(min_value=1e-4, max_value=0.2),
)
def test_trace_preservation_property(gd, gu):
    model = two_level_model(gamma_down=gd, gamma_up=gu)
    grid = dynamics.TimeGrid(t_max=5.0, dt=0.005)
    traj = dynamics.lindblad_evolve(model, np.diag([0.5, 0.5]), grid)
    assert traj.max_trace_dev < 1e-9


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a /= np.linalg.norm(a)
    b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    b /= np.linalg.norm(b)
    rho = dynamics.partial_trace_bath(np.kron(a, b))
    np.testing.assert_allclose(rho, np.outer(a, a.conj()), atol=1e-12)


def test_partial_trace_matches_dense_reference():
    rng = np.random.default_rng(4)
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi /= np.linalg.norm(psi)
    full = np.outer(psi, psi.conj())
    ref = np.trace(full.reshape(2, 8, 2, 8), axis1=1, axis2=3)
    np.testing.assert_allclose(dynamics.partial_trace_bath(psi), ref, atol=1e-12)
    np.testing.assert_allclose(dynamics.partial_trace_bath(full), ref, atol=1e-12)


def test_exact_evolve_free_qubit():
    # decoupled qubit precesses at omega0; populations are constant
    sys, bath = SystemParams(1.0), SpinChainParams.chaotic(3)
    h = build_total_hamiltonian(sys, bath, CouplingSpec(kappa=0.0))
    eig = spectra.diagonalize(h)
    bath_ground = np.zeros(8)
    bath_ground[0] = 1.0
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    psi0 = states.PureState(amplitudes=np.kron(plus, bath_ground), basis="computational")
    grid = dynamics.TimeGrid(t_max=10.0, dt=0.05)
    traj = dynamics.exact_evolve(eig, psi0, grid)
    np.testing.assert_allclose(traj.populations, 0.5, atol=1e-10)
    # coherence rotates as e^{-i omega0 t} up to the bath's phase (which factors out)
    np.testing.assert_allclose(traj.coherences, 0.5, atol=1e-10)
    phase = traj.rhos[:, 0, 1] / traj.rhos[0, 0, 1]
    np.testing.assert_allclose(phase, np.exp(-1j * 1.0 * grid.times), atol=1e-9)


def test_mean_force_state_infinite_temperature():
    h = build_total_hamiltonian(
        SystemParams(1.525), SpinChainParams.chaotic(4), CouplingSpec(kappa=0.15)
    )
    eig = spectra.diagonalize(h)
    rho = dynamics.mean_force_state(eig, beta=0.0)
    np.testing.assert_allclose(rho, np.eye(2) / 2.0, atol=1e-12)


def test_mean_force_state_reduces_to_gibbs_at_zero_coupling():
    omega0, beta = 1.525, 0.4
    h = build_total_hamiltonian(
        SystemParams(omega0), SpinChainParams.chaotic(4), CouplingSpec(kappa=0.0)
    )
    eig = spectra.diagonalize(h)
    rho = dynamics.mean_force_state(eig, beta=beta)
    z = np.exp(-beta * omega0 / 2.0) + np.exp(beta * omega0 / 2.0)
    np.testing.assert_allclose(
        np.diag(rho), [np.exp(-beta * omega0 / 2.0) / z, np.exp(beta * omega0 / 2.0) / z],
        atol=1e-10,
    )


@pytest.mark.parametrize("preparation", ["eigenstate", "typical_mc", "product"])
def test_bcf_eigenstate_preparation_matches_dense_reference(preparation):
    # an eigenstate has a support of one eigenstate, a typical state that of its
    # window and a product state all of them
    bath = SpinChainParams.chaotic(6)
    eig = spectra.diagonalize(build_bath_hamiltonian(bath))
    from ethbath.hamiltonian import pauli_register_operator

    b = pauli_register_operator(bath.L, 0, "x").matrix
    b_eig = spectra.to_eigenbasis(b, eig)
    e0 = float(np.median(eig.eigenvalues))
    psi = {
        "eigenstate": lambda: states.eigenstate_preparation(eig, e0),
        "typical_mc": lambda: states.typical_microcanonical_state(eig, e0, 1.0, 3),
        "product": lambda: states.product_state_with_energy(bath, e0),
    }[preparation]()
    grid = dynamics.TimeGrid(t_max=5.0, dt=0.25)
    bcf = dynamics.bath_correlation_function(eig, b_eig, psi, grid)

    # dense reference: <psi| B(t) B |psi> - <B>^2 via explicit matrix exponentials
    v = psi.to_computational_basis(eig).amplitudes
    ref = []
    for t in grid.times:
        u = eig.eigenvectors @ np.diag(np.exp(1j * eig.eigenvalues * t)) @ eig.eigenvectors.conj().T
        bt = u @ b @ u.conj().T
        ref.append(v.conj() @ bt @ b @ v - (v.conj() @ b @ v) ** 2)
    np.testing.assert_allclose(bcf.values, ref, atol=1e-10)
    assert bcf.variance_at_zero == pytest.approx(float(np.real(ref[0])), abs=1e-10)


def test_bcf_from_spectral_function_flat_table():
    # |f|^2 = 1 on [-W, W] at beta = 0 gives C(tau) = 2 sin(W tau)/tau
    from ethbath import eth

    omegas = np.linspace(-2.0, 2.0, 81)
    table = eth.SpectralFunctionTable(
        e0=0.0, window=1.0, freq_bin=0.05, n_states=100,
        omegas=omegas, counts=np.ones(81, dtype=np.int64),
        raw_values=np.ones(81), values=np.ones(81),
        normalization=1.0, beta=0.0,
    )
    grid = dynamics.TimeGrid(t_max=3.0, dt=0.1)
    bcf = dynamics.bcf_from_spectral_function(table, 0.0, grid)
    t = grid.times[1:]
    expected = 2.0 * np.sin(2.0 * t) / t
    np.testing.assert_allclose(bcf.values[1:].real, expected, atol=0.01)
    np.testing.assert_allclose(bcf.values.imag, 0.0, atol=1e-10)


def test_trace_distance_known_values():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert dynamics.trace_distance(a, b) == pytest.approx(1.0)
    assert dynamics.trace_distance(a, a) == pytest.approx(0.0, abs=1e-15)
    c = np.diag([0.75, 0.25])
    assert dynamics.trace_distance(a, c) == pytest.approx(0.25)


def test_fit_exponential_rate_recovers_synthetic_decay():
    t = np.linspace(0.0, 50.0, 400)
    y = 0.3 + 0.7 * np.exp(-0.12 * t)
    rate, residual = dynamics.fit_exponential_rate(t, y, 0.3)
    assert rate == pytest.approx(0.12, rel=1e-6)
    assert residual < 1e-9


def test_fit_exponential_rate_needs_enough_points():
    t = np.linspace(0.0, 1.0, 30)
    y = np.exp(-100.0 * t)
    with pytest.raises(ValueError):
        dynamics.fit_exponential_rate(t, y, 0.0)


def test_levy_bounds_monotone():
    eps = np.linspace(0.01, 1.0, 20)
    ob = [dynamics.levy_bound_observable(e, 200) for e in eps]
    bc = [dynamics.levy_bound_bcf(e, 200) for e in eps]
    assert all(x > y for x, y in zip(ob, ob[1:]))
    assert all(x > y for x, y in zip(bc, bc[1:]))
    assert dynamics.levy_bound_observable(0.0, 200) == 2.0
    assert dynamics.levy_bound_bcf(0.0, 200) == 4.0


def test_typicality_spread_basics():
    bath = SpinChainParams.chaotic(8)
    eig = spectra.diagonalize(build_bath_hamiltonian(bath))
    from ethbath.hamiltonian import pauli_site_operator

    b_eig = spectra.to_eigenbasis(pauli_site_operator(bath.L, 1, "x"), eig)
    e0 = float(np.median(eig.eigenvalues))
    grid = dynamics.TimeGrid(t_max=4.0, dt=0.5)
    window = states.microcanonical_window(eig, e0, 2.0)
    rep = dynamics.typicality_spread(eig, b_eig, window, 20, 0, grid)
    again = dynamics.typicality_spread(eig, b_eig, window, 20, 0, grid)
    np.testing.assert_array_equal(rep.deviations_b, again.deviations_b)
    assert rep.deviations_b.shape == (20, grid.count)
    assert np.all(rep.deviations_b >= 0) and np.all(rep.deviations_c >= 0)
    assert rep.exceedance_fraction(0.0) == 1.0
    assert rep.exceedance_fraction(1e9) == 0.0
    # exceedance is non-increasing in epsilon
    eps = np.linspace(0.0, rep.deviations_b.max(), 10)
    fr = [rep.exceedance_fraction(e) for e in eps]
    assert all(a >= b for a, b in zip(fr, fr[1:]))


def test_typicality_samples_are_the_typical_states():
    # sample s is the bath's typical state for seed + s, and its C(t) is that
    # state's bath correlation function, bit for bit
    bath = SpinChainParams.chaotic(8)
    eig = spectra.diagonalize(build_bath_hamiltonian(bath))
    from ethbath.hamiltonian import pauli_site_operator

    b_eig = spectra.to_eigenbasis(pauli_site_operator(bath.L, 1, "x"), eig)
    e0, delta_e, seed = float(np.median(eig.eigenvalues)), 2.0, 5
    grid = dynamics.TimeGrid(t_max=4.0, dt=0.5)
    window = states.microcanonical_window(eig, e0, delta_e)
    rep = dynamics.typicality_spread(eig, b_eig, window, 4, seed, grid)

    # the microcanonical average of the eigenstate BCFs, as typicality_spread forms it
    members = window.members
    p = np.abs(b_eig[members, :]) ** 2
    p[np.arange(members.size), members] = 0.0
    phase_w = np.exp(1j * np.outer(eig.eigenvalues[members], grid.times))
    mc_bcf = np.mean(
        phase_w * (p @ np.exp(-1j * np.outer(eig.eigenvalues, grid.times))), axis=0
    )
    for s in range(4):
        psi = states.typical_microcanonical_state(eig, e0, delta_e, seed + s)
        c_t = dynamics.bath_correlation_function(eig, b_eig, psi, grid).values
        assert np.array_equal(rep.deviations_c[s], np.abs(c_t - mc_bcf)), s
