import functools
import hashlib

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


def assert_mirrored_upper_triangle(b, dense):
    """The upper triangle of b, diagonal included, has the bits of dense (signs of
    zero too); its strict lower triangle is the exact conjugate mirror."""
    assert b.dtype == dense.dtype
    assert np.array_equal(np.triu(b).view(np.uint64), np.triu(dense).view(np.uint64))
    lower = np.tril_indices(b.shape[0], -1)
    assert np.array_equal(b[lower].view(np.uint64), b.T[lower].conj().view(np.uint64))


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("L", [4, 5, 6, 7, 8, 10, 11])
def test_signed_permutation_transform_equals_dense(L, where, axis):
    # L = 10 and 11 span two and four row blocks of to_eigenbasis
    pos = {"first": 0, "middle": L // 2, "last": L - 1}[where]
    eig = chain_eig(L)
    v = eig.eigenvectors
    dense = v.conj().T @ pauli_register_operator(L, pos, axis).matrix @ v
    b = spectra.to_eigenbasis(pauli_permutation(L, pos, axis), eig)
    assert_mirrored_upper_triangle(b, dense)


def random_complex_eig(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return spectra.diagonalize(HermitianOperator.from_matrix(a + a.conj().T))


def check_complex_eigenvector_transform(rng, n_spins, pos, axis):
    eig = random_complex_eig(rng, 2**n_spins)
    v = eig.eigenvectors
    dense = v.conj().T @ pauli_register_operator(n_spins, pos, axis).matrix @ v
    b = spectra.to_eigenbasis(pauli_permutation(n_spins, pos, axis), eig)
    assert_mirrored_upper_triangle(b, dense)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_signed_permutation_transform_complex_eigenvectors(axis, rng):
    check_complex_eigenvector_transform(rng, 5, 2, axis)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_signed_permutation_transform_complex_eigenvectors_across_blocks(axis, rng):
    check_complex_eigenvector_transform(rng, 10, 7, axis)


def test_dense_transform_equals_dense_product(rng):
    # the dense branch goes through the same row blocks as a signed permutation
    eig = random_complex_eig(rng, 1024)
    v = eig.eigenvectors
    a = rng.standard_normal((1024, 1024)) + 1j * rng.standard_normal((1024, 1024))
    m = a + a.conj().T
    assert_mirrored_upper_triangle(spectra.to_eigenbasis(m, eig), v.conj().T @ m @ v)


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


def test_cache_roundtrip_complex_eigenvectors(tmp_path, rng):
    eig = random_complex_eig(rng, 16)
    path = tmp_path / "eig.bin"
    spectra.save_eigensystem(path, eig, key="model-c")
    back = spectra.load_eigensystem(path, key="model-c")
    assert back.eigenvectors.dtype == np.complex128 and back.dim == 16
    np.testing.assert_array_equal(back.eigenvalues, eig.eigenvalues)
    np.testing.assert_array_equal(back.eigenvectors, eig.eigenvectors)


@pytest.mark.parametrize("complex_vectors", [False, True])
def test_cache_file_is_header_then_little_endian_arrays(tmp_path, rng, complex_vectors):
    eig = random_complex_eig(rng, 8) if complex_vectors else chain_eig(3)
    path = tmp_path / "eig.bin"
    spectra.save_eigensystem(path, eig, key="k")
    expected = (
        b"ETHEIG1"
        + (8).to_bytes(8, "little")
        + bytes([int(complex_vectors)])
        + hashlib.sha256(b"k").digest()
        + eig.eigenvalues.astype("<f8").tobytes()
        + eig.eigenvectors.astype("<c16" if complex_vectors else "<f8").tobytes()
    )
    assert path.read_bytes() == expected


def test_cache_rejects_bad_magic_and_short_header(tmp_path):
    path = tmp_path / "eig.bin"
    spectra.save_eigensystem(path, chain_eig(3), key="k")
    data = path.read_bytes()
    for corrupt in (b"NOTEIG1" + data[7:], data[:12], b""):
        path.write_bytes(corrupt)
        with pytest.raises(spectra.CacheError):
            spectra.load_eigensystem(path, key="k")


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
