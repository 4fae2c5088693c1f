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
    """V^dagger op V. A signed permutation takes one GEMM on the permuted rows of
    V, with the permuted factor on the left: that order gives the same bits as
    the dense two-GEMM product, and no dense op is built."""
    v = eig.eigenvectors
    if isinstance(op, SignedPermutation):
        if op.perm.shape != (eig.dim,):
            raise DimensionError(f"operator dim {op.perm.size} != eigensystem dim {eig.dim}")
        return (v[op.perm].conj() * op.phase[:, None]).T @ v
    m = op.matrix if isinstance(op, HermitianOperator) else op
    if m.shape != (eig.dim, eig.dim):
        raise DimensionError(f"operator shape {m.shape} != eigensystem dim {eig.dim}")
    return v.conj().T @ m @ v


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
    vecs = eig.eigenvectors.astype(complex if complex_flag else float)
    payload = (
        np.ascontiguousarray(eig.eigenvalues, dtype="<f8").tobytes()
        + np.ascontiguousarray(vecs).astype("<c16" if complex_flag else "<f8").tobytes()
    )
    directory = os.path.dirname(os.fspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_eigensystem(path: str | os.PathLike, key: str | None = None) -> EigenSystem:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:7] != _CACHE_MAGIC:
        raise CacheError(f"{path}: bad magic")
    dim = int.from_bytes(raw[7:15], "little")
    complex_flag = raw[15] != 0
    itemsize = 16 if complex_flag else 8
    expected = 48 + 8 * dim + itemsize * dim * dim
    if len(raw) != expected:
        raise CacheError(f"{path}: size {len(raw)} != expected {expected} (truncated?)")
    stored_hash = raw[16:48]
    if key is not None and stored_hash != _content_hash(key):
        raise CacheError(f"{path}: content hash mismatch for the requested model")
    offset = 48
    evals = np.frombuffer(raw, dtype="<f8", count=dim, offset=offset).copy()
    offset += 8 * dim
    if complex_flag:
        evecs = np.frombuffer(raw, dtype="<c16", count=dim * dim, offset=offset)
    else:
        evecs = np.frombuffer(raw, dtype="<f8", count=dim * dim, offset=offset)
    if evecs.size != dim * dim:
        raise CacheError(f"{path}: truncated eigenvector block")
    return EigenSystem(
        eigenvalues=evals, eigenvectors=evecs.reshape(dim, dim).copy(), dim=dim
    )


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
