import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ethbath import eth, spectra


def synthetic_eigensystem(n=400, spacing=0.02):
    e = spacing * (np.arange(n) - (n - 1) / 2.0)
    return spectra.EigenSystem(eigenvalues=e, eigenvectors=np.eye(n), dim=n)


def synthetic_operator(eig, envelope, diag=None, rng=None):
    """Hermitian matrix whose off-diagonal magnitudes follow |B_nm| = envelope(omega)
    exactly (random phases), in the basis where eig.eigenvectors = identity."""
    n = eig.dim
    e = eig.eigenvalues
    omega = e[None, :] - e[:, None]
    mag = envelope(np.abs(omega))
    if rng is None:
        rng = np.random.default_rng(0)
    phase = np.exp(2j * np.pi * rng.uniform(size=(n, n)))
    upper = np.triu(mag * phase, k=1)
    m = upper + upper.conj().T
    if diag is not None:
        m[np.arange(n), np.arange(n)] = diag(e)
    return m


def test_diagonal_profile_linear_diagonal_has_constant_fluctuation():
    eig = synthetic_eigensystem()
    b = synthetic_operator(eig, lambda w: 0.0 * w, diag=lambda e: 0.5 * e)
    prof = eth.diagonal_profile(b, eig)
    # consecutive diagonal differences are exactly 0.5 * spacing
    assert prof.fluctuation == pytest.approx(0.5 * 0.02, rel=1e-12)
    np.testing.assert_allclose(prof.values, 0.5 * eig.eigenvalues)


def test_diagonal_profile_needs_twenty_states():
    eig = synthetic_eigensystem(n=10)
    with pytest.raises(eth.WindowError):
        eth.diagonal_profile(np.eye(10), eig)


def test_spectral_function_recovers_flat_envelope():
    # envelope |B_nm|^2 = c exactly => raw estimate = density * c in every bin
    eig = synthetic_eigensystem()
    c = 0.03
    b = synthetic_operator(eig, lambda w: np.sqrt(c))
    table = eth.spectral_function(b, eig, e0=0.0, window=2.0, freq_bin=0.1, min_states=50)
    density = table.n_states / table.window
    filled = table.counts > 0
    np.testing.assert_allclose(table.raw_values[filled], density * c, rtol=1e-10)
    np.testing.assert_allclose(table.values[table.filled], density * c, rtol=1e-10)


def test_spectral_function_recovers_binwise_envelope():
    # piecewise-constant Gaussian envelope sampled at bin centers is recovered
    # exactly at those centers (no binning bias by construction)
    eig = synthetic_eigensystem()
    freq_bin = 0.1

    def env(w):
        wbin = freq_bin * np.rint(w / freq_bin)
        return np.exp(-(wbin**2) / 2.0)

    b = synthetic_operator(eig, env)
    table = eth.spectral_function(b, eig, e0=0.0, window=2.0, freq_bin=freq_bin, min_states=50)
    density = table.n_states / table.window
    mask = table.filled
    expected = density * np.exp(-(table.omegas[mask] ** 2))
    np.testing.assert_allclose(table.values[mask], expected, rtol=1e-9)


def test_spectral_function_window_floor():
    eig = synthetic_eigensystem()
    with pytest.raises(eth.WindowError):
        eth.spectral_function(np.eye(400), eig, e0=0.0, window=0.1, freq_bin=0.1, min_states=50)


def test_value_at_outside_support_raises():
    eig = synthetic_eigensystem()
    b = synthetic_operator(eig, lambda w: np.exp(-w))
    table = eth.spectral_function(b, eig, e0=0.0, window=2.0, freq_bin=0.1, min_states=50)
    with pytest.raises(eth.SupportError):
        table.value_at(1e6)


def test_normalization_sum_rule():
    eig = synthetic_eigensystem()
    b = synthetic_operator(eig, lambda w: np.exp(-w), diag=lambda e: 0.1 * e)
    table = eth.spectral_function(b, eig, e0=0.0, window=2.0, freq_bin=0.1, min_states=50)
    beta = 0.2
    var_b = 0.7
    norm = eth.normalize_spectral_function(table, var_b, beta)
    mask = norm.filled
    integral = np.trapezoid(
        np.exp(beta * norm.omegas[mask] / 2.0) * norm.values[mask], norm.omegas[mask]
    )
    assert integral == pytest.approx(var_b, rel=1e-9)
    # renormalizing is a no-op
    again = eth.normalize_spectral_function(norm, var_b, beta)
    np.testing.assert_allclose(again.values, norm.values, rtol=1e-12)


def _unit_table(beta=None):
    omegas = np.linspace(-2.0, 2.0, 41)
    return eth.SpectralFunctionTable(
        e0=0.0, window=2.0, freq_bin=0.1, n_states=100,
        omegas=omegas, counts=np.ones(41, dtype=np.int64),
        raw_values=np.ones(41), values=np.ones(41),
        normalization=1.0, beta=beta,
    )


def test_transition_rate_pinned_value():
    # gamma(omega0) for |f|^2 = 1, kappa = 0.15, beta = 0.1, omega0 = 1.525;
    # independently computed reference: 2*pi*0.0225*exp(0.07625)
    table = _unit_table(beta=0.1)
    got = eth.transition_rate(table, kappa=0.15, beta=0.1, omega=1.525)
    assert got == pytest.approx(0.1525728787933817, rel=1e-10)


@settings(max_examples=50, deadline=None)
@given(
    beta=st.floats(min_value=-0.5, max_value=0.5),
    omega=st.floats(min_value=0.01, max_value=1.9),
)
def test_local_detailed_balance_is_algebraic(beta, omega):
    table = _unit_table(beta=beta)
    fwd = eth.transition_rate(table, 0.15, beta, omega)
    bwd = eth.transition_rate(table, 0.15, beta, -omega)
    assert fwd == pytest.approx(math.exp(beta * omega) * bwd, rel=1e-12)


def test_finite_size_rate_reduces_to_leading_order():
    table = _unit_table(beta=0.1)
    deriv = eth.SpectralDerivative(omegas=table.omegas, values=np.zeros(41), delta_e=1.0)
    lead = eth.transition_rate(table, 0.15, 0.1, 1.0)
    fs = eth.finite_size_transition_rate(table, deriv, 0.15, 0.1, np.inf, 1.0)
    assert fs == pytest.approx(lead, rel=1e-12)


def test_finite_size_rate_clips_negative_bracket():
    table = _unit_table(beta=0.1)
    deriv = eth.SpectralDerivative(omegas=table.omegas, values=-10.0 * np.ones(41), delta_e=1.0)
    with pytest.warns(RuntimeWarning):
        fs = eth.finite_size_transition_rate(table, deriv, 0.15, 0.1, 1.0, 1.0)
    assert fs == 0.0


def test_energy_derivative_vanishes_for_energy_independent_f():
    eig = synthetic_eigensystem(n=800)
    b = synthetic_operator(eig, lambda w: np.exp(-w / 2.0))
    table = eth.spectral_function(b, eig, e0=0.0, window=1.5, freq_bin=0.1, min_states=50)
    table = eth.normalize_spectral_function(table, 1.0, 0.0)
    deriv = eth.spectral_function_energy_derivative(b, eig, table, delta_e=1.5, min_states=50)
    scale = float(np.max(table.values))
    assert np.max(np.abs(deriv.values)) < 0.05 * scale / 1.5


def test_rate_matrix_duplicate_operator_is_rank_one():
    eig = synthetic_eigensystem()
    b = synthetic_operator(eig, lambda w: np.exp(-w))
    mats = eth.rate_matrix_multi(
        [b, b], eig, e0=0.0, window=2.0, freq_bin=0.2, kappa=0.15, beta=0.1,
        min_states=50,
    )
    assert mats
    for m in mats:
        # gamma * [[1,1],[1,1]]: eigenvalues {0, 2 gamma}
        assert m.eigenvalues[0] == pytest.approx(0.0, abs=1e-12 * max(1.0, m.eigenvalues[1]))
        assert m.min_eigenvalue >= -1e-12 * max(1.0, m.eigenvalues[1])
        np.testing.assert_allclose(m.clipped_eigenvalues, np.clip(m.eigenvalues, 0, None))


def bin_pairs_per_row(mats, eig, e0, window, freq_bin):
    """Reference: _bin_pairs as one loop over rows n, each slicing row n of every
    operator to the m-range of its pairs."""
    e = eig.eigenvalues
    lo, hi = e0 - window / 2.0, e0 + window / 2.0
    k_max = int(math.ceil((e[-1] - e[0]) / freq_bin)) + 1
    n_bins = 2 * k_max + 1
    p = len(mats)
    sums = np.zeros((p, p, n_bins), dtype=complex)
    counts = np.zeros(n_bins, dtype=np.int64)
    m_lo = np.searchsorted(e, 2.0 * lo - e, side="left")
    m_hi = np.searchsorted(e, 2.0 * hi - e, side="right")
    for n in range(eig.dim):
        a, b = int(m_lo[n]), int(m_hi[n])
        if b <= a:
            continue
        sl = slice(a, b)
        k = np.rint((e[sl] - e[n]) / freq_bin).astype(np.int64) + k_max
        rows = [m[n, sl] for m in mats]
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
    return freq_bin * (np.arange(n_bins) - k_max), counts, sums


@pytest.mark.parametrize("e0, window", [(0.0, 2.0), (-3.6, 1.0), (3.9, 0.3), (0.7, 8.0)])
def test_bin_pairs_by_strips_equals_per_row_loop(e0, window):
    # 400 states: three full 128-row strips and a short one, windows at the edges too
    eig = synthetic_eigensystem()
    rng = np.random.default_rng(5)
    complex_op = synthetic_operator(eig, lambda w: np.exp(-w), rng=rng)
    real_op = rng.standard_normal((eig.dim, eig.dim))
    real_op = real_op + real_op.T
    mats = [complex_op, real_op]
    _, omegas, counts, sums = eth._bin_pairs(mats, eig, e0, window, 0.1, min_states=1)
    all_omegas, all_counts, all_sums = bin_pairs_per_row(mats, eig, e0, window, 0.1)
    kept = np.isin(all_omegas, omegas)  # the symmetric grid without its empty outer bins
    assert np.array_equal(all_omegas[kept], omegas) and not all_counts[~kept].any()
    assert np.array_equal(all_counts[kept], counts)
    assert np.array_equal(all_sums[..., kept], sums)
