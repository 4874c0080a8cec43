"""Affinity construction and spectral clustering of pre-shapes.

The affinity between two trajectories is the exponentiated negative
Procrustes distance between their pre-shapes: trajectories that move
together sit close in shape space and get affinity near 1. The
distances come from one Gram matrix in closed form, with the literal
residual kept for the few pairs near d = 0. Clustering
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

# Pairs whose closed-form Procrustes distance falls below this take the
# literal residual instead (see ``build_affinity``).
LITERAL_BELOW = 1e-4


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

    In Kendall's complex form the Procrustes distance of two pre-shapes
    is ``d = sqrt(2 - 2|G_ij|)`` (Dryden & Mardia, *Statistical Shape
    Analysis*, ch. 4), with ``G = Z Z^H`` the K x K Gram matrix
    (``G[i, j] = <z_j, z_i>``). That form is taken for every pair of the
    upper triangle, clipped at 0, and mirrored, so the matrix is exactly
    symmetric with unit diagonal.

    Its error: for N-frame pre-shapes, ``G_ij`` and the squared norms
    (taken as 1) are each rounded by at most about ``(N + 2) 2**-53``, so
    ``2 - 2|G_ij|`` is within ``eps = 8 (N + 2) 2**-53`` of ``d**2`` and
    the computed ``d`` is within ``eps / d`` of the true distance, a
    relative error of ``eps / d**2``. Near ``d = 0`` that blows up: the
    form cancels and would give identical shapes an affinity visibly
    below 1. ``LITERAL_BELOW`` = 1e-4 is where the relative error reaches
    about 1e-5 for the default 60-frame blocks (``eps`` about 5.5e-14).
    Every pair whose closed-form ``d`` lies below it takes the literal
    residual ``||z_i - u z_j||`` from ``procrustes_residuals`` instead
    (``u`` the unit phase of ``G_ij``), rounded only to about
    ``(N + 2) 2**-53``; duplicates then get affinity exactly 1.

    ``shapes`` is a (K, N) complex pre-shape stack or a sequence of
    ``PreShape``. Raises ``InvalidParameter`` when ``omega`` is so small
    that some affinity underflows to 0.
    """
    if len(shapes) < 2:
        raise InvalidParameter("need at least 2 shapes")
    if not omega > 0:
        raise InvalidParameter("omega must be > 0")
    z = stack_preshapes(shapes)
    gram = z @ z.conj().T
    dist = np.triu(np.sqrt(np.maximum(2.0 - 2.0 * np.abs(gram), 0.0)), 1)
    i, j = np.nonzero(np.triu(dist < LITERAL_BELOW, 1))
    dist[i, j] = procrustes_residuals(z[i], z[j], unit_phase(gram[i, j]))
    dist = dist + dist.T
    with np.errstate(over="ignore"):  # d / omega past the float range gives exp(-inf) = 0
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
