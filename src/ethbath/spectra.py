"""Dense eigendecomposition, eigenbasis transforms, caching, gap-ratio statistics."""

from __future__ import annotations

import hashlib
import os
import tempfile
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import DimensionError, HermitianOperator, SignedPermutation

_CACHE_MAGIC = b"ETHEIG1"
_HEADER_BYTES = 48
_BLOCK = 512  # rows of B per GEMM in to_eigenbasis


class EigensolverError(RuntimeError):
    """The dense eigensolver failed to converge; no partial spectrum is returned."""


class CacheError(RuntimeError):
    """Eigensystem cache file is malformed or does not match the request."""


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    dim: int

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @property
    def bandwidth(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude component positive real."""
    lead = np.argmax(np.abs(vectors), axis=0)
    pivots = vectors[lead, np.arange(vectors.shape[1])]
    if np.iscomplexobj(vectors):
        phases = pivots / np.abs(pivots)
        return vectors * phases.conj()
    return vectors * np.sign(pivots)


def diagonalize(H: HermitianOperator) -> EigenSystem:
    try:
        evals, evecs = np.linalg.eigh(H.matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigh failed on dim-{H.dim} operator: {exc}") from exc
    return EigenSystem(eigenvalues=evals, eigenvectors=_fix_signs(evecs), dim=H.dim)


def to_eigenbasis(
    op: HermitianOperator | SignedPermutation | np.ndarray, eig: EigenSystem
) -> np.ndarray:
    """V^dagger op V for a Hermitian op, computed on its upper block-triangle.

    Rows I of the result, from column I0 = I[0] on, are (op V[:, I])^dagger
    V[:, I0:]: one GEMM per block of _BLOCK rows, about half the flops of the
    full product. The strict lower triangle is the exact conjugate mirror of the
    upper one. The left factor is that of the full product v.conj().T @ op @ v
    (for a signed permutation, a gather of V's rows; no dense op is built), so
    the upper triangle has that product's bits.
    """
    v = eig.eigenvectors
    if isinstance(op, SignedPermutation):
        if op.perm.shape != (eig.dim,):
            raise DimensionError(f"operator dim {op.perm.size} != eigensystem dim {eig.dim}")
        left = lambda rows: (v[op.perm, rows].conj() * op.phase[:, None]).T
        dtype = np.result_type(v, op.phase)
    else:
        m = op.matrix if isinstance(op, HermitianOperator) else op
        if m.shape != (eig.dim, eig.dim):
            raise DimensionError(f"operator shape {m.shape} != eigensystem dim {eig.dim}")
        left = lambda rows: v[:, rows].conj().T @ m
        dtype = np.result_type(v, m)
    out = np.empty((eig.dim, eig.dim), dtype)
    for i0 in range(0, eig.dim, _BLOCK):
        i1 = min(i0 + _BLOCK, eig.dim)
        band = out[i0:i1, i0:]
        np.matmul(left(slice(i0, i1)), v[:, i0:], out=band)
        np.conjugate(band[:, i1 - i0 :].T, out=out[i1:, i0:i1])
        diag = band[:, : i1 - i0]
        lower = np.tril_indices(i1 - i0, -1)
        diag[lower] = diag.T[lower].conj()
    return out


@dataclass(frozen=True)
class GapStatistics:
    ratios: np.ndarray
    mean_ratio: float
    hist_edges: np.ndarray
    hist_counts: np.ndarray
    n_degenerate: int


def gap_ratios(
    eigenvalues: np.ndarray, central_fraction: float = 0.5, n_bins: int = 25
) -> GapStatistics:
    """Consecutive-gap ratio statistic r_n = min(s_n, s_n+1)/max(s_n, s_n+1).

    Restricted to the central fraction of the spectrum; degenerate gaps give
    r = 0 and are counted instead of raising.
    """
    e = np.sort(np.asarray(eigenvalues, dtype=float))
    n = e.size
    keep = max(int(round(n * central_fraction)), 0)
    lo = (n - keep) // 2
    e = e[lo : lo + keep]
    if np.unique(e).size < 3:
        raise ValueError("need at least 3 distinct central eigenvalues")
    s = np.diff(e)
    a, b = s[:-1], s[1:]
    hi = np.maximum(a, b)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(hi > 0, np.minimum(a, b) / np.where(hi > 0, hi, 1.0), 0.0)
    n_degenerate = int(np.count_nonzero(s == 0))
    counts, edges = np.histogram(r, bins=n_bins, range=(0.0, 1.0))
    return GapStatistics(
        ratios=r,
        mean_ratio=float(np.mean(r)),
        hist_edges=edges,
        hist_counts=counts,
        n_degenerate=n_degenerate,
    )


def _content_hash(key: str) -> bytes:
    return hashlib.sha256(key.encode()).digest()


def save_eigensystem(path: str | os.PathLike, eig: EigenSystem, key: str) -> None:
    """Binary cache: magic, u64 dim, flags byte, sha256 of key, then LE float64 data.

    Complex eigenvectors are stored as interleaved (re, im) float64 pairs.
    Written to a temp file and atomically renamed into place.
    """
    complex_flag = np.iscomplexobj(eig.eigenvectors)
    header = (
        _CACHE_MAGIC
        + int(eig.dim).to_bytes(8, "little")
        + bytes([1 if complex_flag else 0])
        + _content_hash(key)
    )
    directory = os.path.dirname(os.fspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            np.asarray(eig.eigenvalues, "<f8").tofile(fh)
            np.asarray(eig.eigenvectors, "<c16" if complex_flag else "<f8").tofile(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_eigensystem(path: str | os.PathLike, key: str | None = None) -> EigenSystem:
    """Check the header, size and key before any payload is read, then read the
    eigenvalues and eigenvectors straight into their arrays."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_BYTES)
        if len(header) != _HEADER_BYTES or header[:7] != _CACHE_MAGIC:
            raise CacheError(f"{path}: bad magic or truncated header")
        dim = int.from_bytes(header[7:15], "little")
        vec_dtype = "<c16" if header[15] != 0 else "<f8"
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER_BYTES + 8 * dim + np.dtype(vec_dtype).itemsize * dim * dim
        if size != expected:
            raise CacheError(f"{path}: size {size} != expected {expected} (truncated?)")
        if key is not None and header[16:] != _content_hash(key):
            raise CacheError(f"{path}: content hash mismatch for the requested model")
        evals = np.fromfile(fh, dtype="<f8", count=dim)
        evecs = np.fromfile(fh, dtype=vec_dtype, count=dim * dim)
    if evecs.size != dim * dim:
        raise CacheError(f"{path}: truncated eigenvector block")
    return EigenSystem(eigenvalues=evals, eigenvectors=evecs.reshape(dim, dim), dim=dim)


def cached_diagonalize(
    build: Callable[[], HermitianOperator], cache_dir: str | os.PathLike | None, key: str
) -> EigenSystem:
    """Diagonalize build() with an on-disk cache keyed by the model-spec string.

    The operator is built only on a cache miss.
    """
    if cache_dir is None:
        return diagonalize(build())
    name = hashlib.sha256(key.encode()).hexdigest()[:24] + ".etheig"
    path = os.path.join(os.fspath(cache_dir), name)
    if os.path.exists(path):
        return load_eigensystem(path, key=key)
    eig = diagonalize(build())
    save_eigensystem(path, eig, key)
    return eig
