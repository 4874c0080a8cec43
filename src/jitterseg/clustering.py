"""Affinity construction and spectral clustering of pre-shapes.

The affinity between two trajectories is the exponentiated negative
Procrustes distance between their pre-shapes: trajectories that move
together sit close in shape space and get affinity near 1. Clustering
is a two-way cut (the moving object and its background): the normalized
cut of Shi & Malik, swept over the thresholds of the second generalized
eigenvector of the graph. It has no seed and no iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidAffinity, InvalidAssignment, InvalidParameter
from .shapes import PreShape, procrustes_residuals, stack_preshapes, unit_phase

DEFAULT_OMEGA = 0.02

# Complex elements per temporary of one strip of pair residuals in
# ``build_affinity`` (128 KiB). Strips are sized by this, not by a row
# count, so the per-thread working set stays flat as K and N grow. With
# 2**14 (past glibc's default 128 KiB mmap threshold) clip scenes ran
# about 1 ms slower end to end and peak RSS was about 0.4 MB higher.
AFFINITY_STRIP_ELEMENTS = 2**13


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
    """The second generalized eigenvector ``y = D^{-1/2} v2`` of the graph.

    ``v2`` is the eigenvector of the second smallest eigenvalue of the
    normalized symmetric Laplacian, with its sign as ``eigh`` returns it.
    """
    d_isqrt = 1.0 / np.sqrt(values.sum(axis=1))
    lap = np.eye(len(values)) - d_isqrt[:, None] * values * d_isqrt[None, :]
    lap = (lap + lap.T) / 2.0  # scrub rounding asymmetry before eigh
    return np.linalg.eigh(lap)[1][:, 1] * d_isqrt


def spectral_cluster(afy: AffinityMatrix) -> ClusterAssignment:
    """Cut the affinity graph in two by a normalized-cut sweep (Shi & Malik).

    The representatives are sorted by ``y`` (``_spectral_embedding``) and
    every threshold between two distinct values of ``y`` is scored by
    ``Ncut = cut/vol + cut/(total - vol)``, with ``vol`` the degree sum of
    the prefix and ``cut`` its weight to the rest; the smallest score
    wins. Both sides are non-empty by construction. ``y`` is first given
    one sign (its first nonzero entry negative), so the sweep is the same
    bit for bit whichever sign ``eigh`` returns and an Ncut tie goes to
    the same threshold; label 0 is the side holding representative 0.
    """
    if afy.size < 2:
        raise InvalidParameter(f"need at least 2 shapes, got {afy.size}")
    y = _spectral_embedding(afy.values)
    if y[np.flatnonzero(y)[0]] > 0.0:
        y = -y
    order = np.argsort(y, kind="stable")
    w = afy.values[np.ix_(order, order)]
    vol = np.cumsum(w.sum(axis=1))
    cut = (vol - np.diagonal(np.cumsum(np.cumsum(w, axis=0), axis=1)))[:-1]
    total, vol = vol[-1], vol[:-1]
    ncut = np.where(np.diff(y[order]) > 0.0, cut / vol + cut / (total - vol), np.inf)
    labels = np.empty(afy.size, dtype=int)
    labels[order] = np.arange(afy.size) > np.argmin(ncut)
    return ClusterAssignment(tuple((labels ^ labels[0]).tolist()))
