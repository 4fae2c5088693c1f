import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ethbath.hamiltonian import (
    CouplingSpec,
    DimensionError,
    SpinChainParams,
    SystemParams,
    build_bath_hamiltonian,
    build_total_hamiltonian,
    model_spec_key,
    pauli_permutation,
    pauli_register_operator,
    pauli_site_operator,
)

SX = np.array([[0, 1], [1, 0]], dtype=float)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0])
PAULI = {"x": SX, "y": SY, "z": SZ}


def kron_chain(n_spins, pos, axis):
    out = np.array([[1.0]])
    for i in range(n_spins):
        out = np.kron(out, PAULI[axis] if i == pos else np.eye(2))
    return out


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("pos", [0, 1, 2])
def test_pauli_register_matches_kron(axis, pos):
    for n_spins in range(pos + 1, 6):
        got = pauli_register_operator(n_spins, pos, axis).matrix
        assert got.dtype == (complex if axis == "y" else float)
        np.testing.assert_array_equal(got, kron_chain(n_spins, pos, axis))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    axis=st.sampled_from("xyz"),
    data=st.data(),
)
def test_pauli_involution_and_hermiticity(n, axis, data):
    pos = data.draw(st.integers(min_value=0, max_value=n - 1))
    m = pauli_register_operator(n, pos, axis).matrix
    np.testing.assert_allclose(m @ m, np.eye(2**n), atol=1e-14)
    np.testing.assert_allclose(m, m.conj().T, atol=1e-14)


def test_pauli_site_operator_is_one_based():
    # bath site s sits at register position s-1 of the bare bath register
    for site, pos, axis in [(1, 0, "z"), (3, 2, "x"), (2, 1, "y")]:
        got, want = pauli_site_operator(3, site, axis), pauli_permutation(3, pos, axis)
        np.testing.assert_array_equal(got.perm, want.perm)
        np.testing.assert_array_equal(got.phase, want.phase)
    with pytest.raises(ValueError):
        pauli_site_operator(3, 0, "z")
    with pytest.raises(ValueError):
        pauli_site_operator(3, 4, "z")


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_pauli_permutation_acts_on_basis_states(axis):
    # column i of the Kronecker-product Pauli is phase[i] times basis state perm[i]
    p = pauli_permutation(3, 1, axis)
    dense = kron_chain(3, 1, axis)
    for i in range(8):
        expected = np.zeros(8, dtype=complex)
        expected[p.perm[i]] = p.phase[i]
        np.testing.assert_array_equal(dense[:, i], expected)


def reference_bath_hamiltonian(p: SpinChainParams) -> np.ndarray:
    h = np.zeros((2**p.L, 2**p.L))
    for j in range(p.L - 1):
        h += p.J * kron_chain(p.L, j, "z") @ kron_chain(p.L, j + 1, "z")
    for j in range(p.L):
        h += p.h_z * kron_chain(p.L, j, "z") + p.h_x * kron_chain(p.L, j, "x")
    h += p.h_1 * kron_chain(p.L, 0, "z") + p.h_L * kron_chain(p.L, p.L - 1, "z")
    return h


@pytest.mark.parametrize("preset", ["chaotic", "integrable"])
def test_bath_hamiltonian_matches_kron_reference(preset):
    p = getattr(SpinChainParams, preset)(4)
    np.testing.assert_allclose(
        build_bath_hamiltonian(p).matrix, reference_bath_hamiltonian(p), atol=1e-13
    )


def test_total_hamiltonian_block_structure():
    sys = SystemParams(omega0=1.525)
    bath = SpinChainParams.chaotic(3)
    coupling = CouplingSpec(kappa=0.15)
    h = build_total_hamiltonian(sys, bath, coupling).matrix
    d = 2**bath.L
    hb = build_bath_hamiltonian(bath).matrix
    v = 0.15 * kron_chain(3, 0, "x")
    np.testing.assert_allclose(h[:d, :d], hb + (1.525 / 2) * np.eye(d), atol=1e-13)
    np.testing.assert_allclose(h[d:, d:], hb - (1.525 / 2) * np.eye(d), atol=1e-13)
    np.testing.assert_allclose(h[:d, d:], v, atol=1e-13)

    # same thing built from explicit tensor products
    ref = (
        np.kron((1.525 / 2) * SZ, np.eye(d))
        + np.kron(np.eye(2), hb)
        + 0.15 * np.kron(SX, kron_chain(3, 0, "x"))
    )
    np.testing.assert_allclose(h, ref, atol=1e-13)


def test_total_hamiltonian_multi_term_coupling():
    sys = SystemParams(omega0=1.0)
    bath = SpinChainParams.chaotic(3)
    coupling = CouplingSpec(kappa=0.2, terms=(("x", 1, "x"), ("z", 2, "z")))
    h = build_total_hamiltonian(sys, bath, coupling).matrix
    d = 2**bath.L
    hb = build_bath_hamiltonian(bath).matrix
    ref = (
        np.kron(0.5 * SZ, np.eye(d))
        + np.kron(np.eye(2), hb)
        + 0.2 * np.kron(SX, kron_chain(3, 0, "x"))
        + 0.2 * np.kron(SZ, kron_chain(3, 1, "z"))
    )
    np.testing.assert_allclose(h, ref, atol=1e-13)


def test_y_coupling_gives_complex_matrix():
    h = build_total_hamiltonian(
        SystemParams(1.0), SpinChainParams.chaotic(2),
        CouplingSpec(kappa=0.1, terms=(("y", 1, "x"),)),
    )
    assert np.iscomplexobj(h.matrix)
    np.testing.assert_allclose(h.matrix, h.matrix.conj().T, atol=1e-14)


def test_parameter_validation():
    with pytest.raises(ValueError):
        SystemParams(omega0=-1.0)
    with pytest.raises(ValueError):
        SpinChainParams.chaotic(1)
    with pytest.raises(DimensionError):
        SpinChainParams.chaotic(17)
    with pytest.raises(ValueError):
        CouplingSpec(kappa=0.1, terms=(("q", 1, "x"),))
    with pytest.raises(ValueError):
        CouplingSpec(kappa=0.1, terms=(("x", 9, "x"),)).validate_sites(4)


def test_model_spec_key_distinguishes_models():
    s = SystemParams(1.525)
    b1, b2 = SpinChainParams.chaotic(4), SpinChainParams.integrable(4)
    c = CouplingSpec(kappa=0.15)
    keys = {model_spec_key(s, b1, c), model_spec_key(s, b2, c), model_spec_key(s, b1, None)}
    assert len(keys) == 3
    assert model_spec_key(s, b1, c) == model_spec_key(s, b1, c)
