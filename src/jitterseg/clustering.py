"""Affinity construction and spectral clustering of pre-shapes.

The affinity between two trajectories is the exponentiated negative
Procrustes distance between their pre-shapes: trajectories that move
together sit close in shape space and get affinity near 1. Clustering
is a two-way cut (the moving object and its background): the
eigenvectors of the two smallest eigenvalues of the normalized symmetric
Laplacian, row normalization, and a deterministic seeded 2-means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ClusterCollapse, InvalidAffinity, InvalidAssignment, InvalidParameter
from .shapes import PreShape, procrustes_residuals, stack_preshapes, unit_phase

DEFAULT_OMEGA = 0.02

# Complex elements per temporary of one strip of pair residuals in
# ``build_affinity`` (128 KiB). Strips are sized by this, not by a row
# count, so the per-thread working set stays flat as K and N grow. With
# 2**14 (past glibc's default 128 KiB mmap threshold) clip scenes ran
# about 1 ms slower end to end and peak RSS was about 0.4 MB higher.
AFFINITY_STRIP_ELEMENTS = 2**13

KMEANS_MAX_ITERS = 100
KMEANS_RESTARTS = 5


@dataclass(frozen=True)
class AffinityMatrix:
    """K x K symmetric matrix of exponentiated negative Procrustes distances."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        v.flags.writeable = False
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InvalidAffinity("values must be a square matrix")
        if not np.all((v > 0.0) & (v <= 1.0)):
            raise InvalidAffinity("affinities must lie in (0, 1]")
        if np.max(np.abs(v - v.T)) > 1e-12:
            raise InvalidAffinity("affinity matrix is not symmetric")
        if not np.all(np.diag(v) == 1.0):
            raise InvalidAffinity("affinity diagonal must be 1")
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class ClusterAssignment:
    """Cluster index per input shape; both 0 and 1 occur, nothing else."""

    labels: tuple[int, ...]

    def __post_init__(self):
        labels = tuple(int(x) for x in self.labels)
        if set(labels) != {0, 1}:
            raise InvalidAssignment("labels must be 0 or 1, with both present")
        object.__setattr__(self, "labels", labels)

    def members(self, cluster: int) -> list[int]:
        return [i for i, lab in enumerate(self.labels) if lab == cluster]


def build_affinity(
    shapes: Sequence[PreShape] | np.ndarray, omega: float = DEFAULT_OMEGA
) -> AffinityMatrix:
    """Pairwise affinity exp(-d_proc(i, j) / omega) between pre-shapes.

    In Kendall's complex form every pair's optimal rotation is the unit
    phase ``u`` of one entry of the K x K Gram matrix ``G = Z Z^H``
    (``G[i, j] = <z_j, z_i>``, which rotates shape j onto shape i). The
    distance is then taken as the literal residual ``||z_i - u z_j||``
    rather than ``sqrt(2 - 2|G_ij|)``: that closed form cancels near
    d = 0 and would give identical shapes an affinity visibly below 1.
    ``procrustes_residuals`` computes them for a strip of rows against
    every later column at once, strips sized so that one temporary holds
    about ``AFFINITY_STRIP_ELEMENTS`` complex numbers, with that strip's
    slice of the one Gram phase; only the upper triangle is kept. The
    matrix is exactly symmetric (each pair computed once) with unit
    diagonal.

    ``shapes`` is a (K, N) complex pre-shape stack or a sequence of
    ``PreShape``. Raises ``InvalidParameter`` when ``omega`` is so small
    that some affinity underflows to 0.
    """
    if len(shapes) < 2:
        raise InvalidParameter("need at least 2 shapes")
    if not omega > 0:
        raise InvalidParameter("omega must be > 0")
    z = stack_preshapes(shapes)
    phase = unit_phase(z @ z.conj().T)
    k, n = z.shape
    dist = np.zeros((k, k))
    lo = 0
    while lo < k - 1:
        cols = k - lo - 1
        hi = min(lo + max(1, AFFINITY_STRIP_ELEMENTS // (cols * n)), k - 1)
        dist[lo:hi, lo + 1 :] = procrustes_residuals(z[lo:hi], z[lo + 1 :], phase[lo:hi, lo + 1 :])
        lo = hi
    # Each pair i < j was computed once, in the strip holding row i; the
    # strips' entries on and below the diagonal are dropped.
    dist = np.triu(dist, 1)
    dist = dist + dist.T
    values = np.exp(-dist / omega)
    if np.any(values == 0.0):
        d_min = float(dist[values == 0.0].min())
        raise InvalidParameter(
            f"omega={omega:g} is too small: exp(-d/omega) underflows to 0 "
            f"for Procrustes distances from {d_min:.6g} up"
        )
    np.fill_diagonal(values, 1.0)
    return AffinityMatrix(values)


def _spectral_embedding(values: np.ndarray) -> np.ndarray:
    """Row-normalized eigenvectors of the two smallest Laplacian eigenvalues.

    Eigenvector signs are left as ``eigh`` returns them. Negating a column
    negates every k-means center exactly and leaves every distance
    bitwise the same, so no label depends on the sign.
    """
    degrees = values.sum(axis=1)
    d_isqrt = 1.0 / np.sqrt(degrees)
    lap = np.eye(len(values)) - d_isqrt[:, None] * values * d_isqrt[None, :]
    lap = (lap + lap.T) / 2.0  # scrub rounding asymmetry before eigh
    _, vecs = np.linalg.eigh(lap)
    emb = vecs[:, :2].copy()
    norms = np.linalg.norm(emb, axis=1)
    nonzero = norms > 0.0
    emb[nonzero] /= norms[nonzero, None]
    return emb


def _farthest_first_centers(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Seeded first center, then the point farthest from it."""
    first = int(rng.integers(len(points)))
    dist = np.linalg.norm(points - points[first], axis=1)
    return points[[first, int(np.argmax(dist))]]  # ties resolve to the lowest index


def _kmeans_once(points: np.ndarray, seed: int) -> np.ndarray | None:
    """One Lloyd run; None when a cluster empties out."""
    rng = np.random.default_rng(seed)
    centers = _farthest_first_centers(points, rng)
    labels = np.full(len(points), -1, dtype=int)
    for _ in range(KMEANS_MAX_ITERS):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        if np.all(new_labels == new_labels[0]):
            return None
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in (0, 1):
            centers[c] = points[labels == c].mean(axis=0)
    return labels


def spectral_cluster(afy: AffinityMatrix, seed: int) -> ClusterAssignment:
    """Cut the affinity graph into two non-empty clusters.

    Deterministic for a fixed (afy, seed). On an empty-cluster collapse
    the k-means stage is restarted with incremented seeds up to
    ``KMEANS_RESTARTS`` times before giving up.
    """
    if afy.size < 2:
        raise InvalidParameter(f"need at least 2 shapes, got {afy.size}")
    emb = _spectral_embedding(afy.values)
    for attempt in range(1 + KMEANS_RESTARTS):
        labels = _kmeans_once(emb, seed + attempt)
        if labels is not None:
            return ClusterAssignment(tuple(labels.tolist()))
    raise ClusterCollapse(
        f"empty cluster persisted through {KMEANS_RESTARTS} re-seeded restarts"
    )
