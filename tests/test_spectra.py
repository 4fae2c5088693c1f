import functools

import numpy as np
import pytest

from ethbath import spectra
from ethbath.hamiltonian import (
    DimensionError,
    HermitianOperator,
    SpinChainParams,
    build_bath_hamiltonian,
    pauli_permutation,
    pauli_register_operator,
)

GOE_MEAN_RATIO = 0.5307
POISSON_MEAN_RATIO = 2.0 * np.log(2.0) - 1.0  # 0.38629...


def test_diagonalize_two_level():
    h = HermitianOperator.from_matrix(np.array([[1.0, 0.5], [0.5, -1.0]]))
    eig = spectra.diagonalize(h)
    gap = np.sqrt(4.0 + 1.0)  # 2*sqrt(1 + 0.25)
    np.testing.assert_allclose(eig.eigenvalues[1] - eig.eigenvalues[0], gap, atol=1e-14)
    np.testing.assert_allclose(
        eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.conj().T,
        h.matrix, atol=1e-13,
    )


def test_sign_convention_is_deterministic():
    h = HermitianOperator.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    eig = spectra.diagonalize(h)
    # largest-magnitude component of each eigenvector is positive
    for k in range(2):
        v = eig.eigenvectors[:, k]
        assert v[np.argmax(np.abs(v))] > 0


def test_to_eigenbasis_diagonalizes_hamiltonian():
    h = build_bath_hamiltonian(SpinChainParams.chaotic(4))
    eig = spectra.diagonalize(h)
    h_eig = spectra.to_eigenbasis(h.matrix, eig)
    np.testing.assert_allclose(h_eig, np.diag(eig.eigenvalues), atol=1e-11)


@functools.lru_cache(maxsize=None)
def chain_eig(L: int) -> spectra.EigenSystem:
    return spectra.diagonalize(build_bath_hamiltonian(SpinChainParams.chaotic(L)))


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("L", [4, 5, 6, 7, 8])
def test_signed_permutation_transform_equals_dense(L, where, axis):
    pos = {"first": 0, "middle": L // 2, "last": L - 1}[where]
    eig = chain_eig(L)
    v = eig.eigenvectors
    dense = v.conj().T @ pauli_register_operator(L, pos, axis).matrix @ v
    assert np.array_equal(spectra.to_eigenbasis(pauli_permutation(L, pos, axis), eig), dense)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_signed_permutation_transform_complex_eigenvectors(axis, rng):
    a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    eig = spectra.diagonalize(HermitianOperator.from_matrix(a + a.conj().T))
    v = eig.eigenvectors
    dense = v.conj().T @ pauli_register_operator(5, 2, axis).matrix @ v
    assert np.array_equal(spectra.to_eigenbasis(pauli_permutation(5, 2, axis), eig), dense)


def test_signed_permutation_dimension_mismatch():
    with pytest.raises(DimensionError):
        spectra.to_eigenbasis(pauli_permutation(3, 0, "x"), chain_eig(4))


def test_gap_ratios_goe_oracle(rng):
    # dense GOE sample; mean central gap ratio is 0.5307 in the large-N limit
    n = 2000
    a = rng.standard_normal((n, n))
    evals = np.linalg.eigvalsh((a + a.T) / 2.0)
    stats = spectra.gap_ratios(evals)
    assert abs(stats.mean_ratio - GOE_MEAN_RATIO) < 0.02


def test_gap_ratios_poisson_oracle(rng):
    evals = np.sort(rng.uniform(size=20000))
    stats = spectra.gap_ratios(evals)
    assert abs(stats.mean_ratio - POISSON_MEAN_RATIO) < 0.02


def test_gap_ratios_degeneracies_counted():
    evals = np.array([0.0, 1.0, 1.0, 2.0, 3.5, 4.0])
    stats = spectra.gap_ratios(evals, central_fraction=1.0)
    assert stats.n_degenerate >= 1
    assert np.all(stats.ratios >= 0) and np.all(stats.ratios <= 1)


def test_gap_ratio_histogram_normalised():
    rng = np.random.default_rng(7)
    stats = spectra.gap_ratios(np.sort(rng.uniform(size=500)))
    assert stats.hist_counts.sum() == stats.ratios.size


def test_cache_roundtrip(tmp_path):
    h = build_bath_hamiltonian(SpinChainParams.chaotic(3))
    eig = spectra.diagonalize(h)
    path = tmp_path / "eig.bin"
    spectra.save_eigensystem(path, eig, key="model-a")
    back = spectra.load_eigensystem(path, key="model-a")
    np.testing.assert_array_equal(back.eigenvalues, eig.eigenvalues)
    np.testing.assert_array_equal(back.eigenvectors, eig.eigenvectors)


def test_cache_rejects_wrong_key(tmp_path):
    h = build_bath_hamiltonian(SpinChainParams.chaotic(3))
    path = tmp_path / "eig.bin"
    spectra.save_eigensystem(path, spectra.diagonalize(h), key="model-a")
    with pytest.raises(spectra.CacheError):
        spectra.load_eigensystem(path, key="model-b")


def test_cache_rejects_truncation(tmp_path):
    h = build_bath_hamiltonian(SpinChainParams.chaotic(3))
    path = tmp_path / "eig.bin"
    spectra.save_eigensystem(path, spectra.diagonalize(h), key="k")
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(spectra.CacheError):
        spectra.load_eigensystem(path, key="k")


def test_cached_diagonalize_hits_cache(tmp_path):
    h = build_bath_hamiltonian(SpinChainParams.chaotic(4))
    a = spectra.cached_diagonalize(lambda: h, str(tmp_path), key="m")
    files = list(tmp_path.iterdir())
    assert len(files) == 1

    def must_not_build():
        raise AssertionError("a cache hit built the operator")

    b = spectra.cached_diagonalize(must_not_build, str(tmp_path), key="m")
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)


def test_cached_diagonalize_without_dir_computes():
    h = build_bath_hamiltonian(SpinChainParams.chaotic(3))
    eig = spectra.cached_diagonalize(lambda: h, None, key="m")
    assert eig.dim == 8
