"""Affinity construction and spectral clustering of pre-shapes.

The affinity between two trajectories is the exponentiated negative
Procrustes distance between their pre-shapes: trajectories that move
together sit close in shape space and get affinity near 1. Clustering
uses the normalized symmetric Laplacian, the eigenvectors of its m
smallest eigenvalues, row normalization, and a deterministic seeded
k-means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ClusterCollapse, InvalidAffinity, InvalidParameter
from .shapes import PreShape, stack_preshapes, unit_phase

DEFAULT_OMEGA = 0.02

KMEANS_MAX_ITERS = 100
KMEANS_RESTARTS = 5


@dataclass(frozen=True)
class AffinityMatrix:
    """K x K symmetric matrix of exponentiated negative Procrustes distances."""

    values: np.ndarray
    omega: float

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        v.flags.writeable = False
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InvalidAffinity("values must be a square matrix")
        if not self.omega > 0:
            raise InvalidParameter("omega must be > 0")
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
    """Cluster index per input shape; every index in {0..m-1} occurs."""

    labels: tuple[int, ...]
    m: int

    def __post_init__(self):
        labels = tuple(int(x) for x in self.labels)
        present = set(labels)
        if not present <= set(range(self.m)):
            raise ValueError("labels outside {0..m-1}")
        if present != set(range(self.m)):
            raise ValueError("some cluster is empty")
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
    distance is then taken as the literal residual ``||z_i - u z_j||``,
    one vectorized row per shape, rather than ``sqrt(2 - 2|G_ij|)``: that
    closed form cancels near d = 0 and would give identical shapes an
    affinity visibly below 1. The matrix is exactly symmetric (each pair
    computed once) with unit diagonal.

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
    k = len(z)
    dist = np.zeros((k, k))
    for i in range(k - 1):
        resid = z[i] - phase[i, i + 1 :, None] * z[i + 1 :]
        dist[i, i + 1 :] = np.sqrt(np.sum(resid.real**2 + resid.imag**2, axis=1))
    dist = dist + dist.T
    values = np.exp(-dist / omega)
    if np.any(values == 0.0):
        d_min = float(dist[values == 0.0].min())
        raise InvalidParameter(
            f"omega={omega:g} is too small: exp(-d/omega) underflows to 0 "
            f"for Procrustes distances from {d_min:.6g} up"
        )
    np.fill_diagonal(values, 1.0)
    return AffinityMatrix(values, omega)


def _spectral_embedding(values: np.ndarray, m: int) -> np.ndarray:
    """Row-normalized eigenvectors of the m smallest Laplacian eigenvalues."""
    degrees = values.sum(axis=1)
    d_isqrt = 1.0 / np.sqrt(degrees)
    lap = np.eye(len(values)) - d_isqrt[:, None] * values * d_isqrt[None, :]
    lap = (lap + lap.T) / 2.0  # scrub rounding asymmetry before eigh
    _, vecs = np.linalg.eigh(lap)
    emb = vecs[:, :m].copy()
    # Eigenvector signs are arbitrary; canonicalize so the first nonzero
    # component of each column is positive.
    for col in range(m):
        for x in emb[:, col]:
            if x != 0.0:
                if x < 0.0:
                    emb[:, col] = -emb[:, col]
                break
    norms = np.linalg.norm(emb, axis=1)
    nonzero = norms > 0.0
    emb[nonzero] /= norms[nonzero, None]
    return emb


def _farthest_first_centers(points: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded first center, then repeatedly the point farthest from the set."""
    chosen = [int(rng.integers(len(points)))]
    dist = np.linalg.norm(points - points[chosen[0]], axis=1)
    while len(chosen) < m:
        nxt = int(np.argmax(dist))  # ties resolve to the lowest index
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(points - points[nxt], axis=1))
    return points[chosen].copy()


def _kmeans_once(points: np.ndarray, m: int, seed: int) -> np.ndarray | None:
    """One Lloyd run; None when some cluster empties out."""
    rng = np.random.default_rng(seed)
    centers = _farthest_first_centers(points, m, rng)
    labels = np.full(len(points), -1, dtype=int)
    for _ in range(KMEANS_MAX_ITERS):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        counts = np.bincount(new_labels, minlength=m)
        if np.any(counts == 0):
            return None
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(m):
            centers[c] = points[labels == c].mean(axis=0)
    return labels


def spectral_cluster(afy: AffinityMatrix, m: int, seed: int) -> ClusterAssignment:
    """Partition the affinity graph into m non-empty clusters.

    Deterministic for a fixed (afy, m, seed). On an empty-cluster collapse
    the k-means stage is restarted with incremented seeds up to
    ``KMEANS_RESTARTS`` times before giving up.
    """
    k = afy.size
    if m < 2:
        raise InvalidParameter("m must be >= 2")
    if m > k:
        raise InvalidParameter(f"m={m} exceeds the number of shapes ({k})")
    emb = _spectral_embedding(afy.values, m)
    for attempt in range(1 + KMEANS_RESTARTS):
        labels = _kmeans_once(emb, m, seed + attempt)
        if labels is not None:
            return ClusterAssignment(tuple(int(x) for x in labels), m)
    raise ClusterCollapse(
        f"empty cluster persisted through {KMEANS_RESTARTS} re-seeded restarts"
    )
