"""Per-cluster alignment of pre-shapes, and mean smoothing.

Given a cluster of pre-shapes, alternating Procrustes alignment rotates
each member so the cluster collapses as tightly as possible around its
average configuration (the cluster's mean trajectory in shape space).
``stabilize_mean`` smooths a mean by Jacobi sweeps that trade fidelity
against row variance, and ``back_transform`` undoes each member's
rotation on it. The segmenter uses neither: on a centered GPA mean the
sweeps only rescale it, and every later step re-projects the scale away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyCluster, InvalidParameter
from .shapes import (
    PreShape,
    Rotation2D,
    _readonly,
    rotation_from_phase,
    stack_preshapes,
    unit_phase,
)

GPA_TOL = 1e-10
GPA_MAX_SWEEPS = 50

DEFAULT_JACOBI_ITERS = 5


@dataclass(frozen=True)
class GpaResult:
    """Aligned cluster: per-member rotations, mean configuration, objective.

    ``phases`` holds each member's rotation as a unit complex number (the
    complex form of ``rotations``); ``mean`` is the average of the rotated
    members; ``objective`` is the mean squared residual of the rotated
    members about it. ``sweep_objectives`` records the objective before
    any sweep and after each one (diagnostic; non-increasing by
    construction).
    """

    phases: np.ndarray
    mean: np.ndarray
    objective: float
    sweep_objectives: tuple[float, ...] = ()

    def __post_init__(self):
        phases = np.array(self.phases, dtype=complex)
        phases.flags.writeable = False
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "mean", _readonly(self.mean))
        if self.objective < 0:
            raise ValueError("objective must be >= 0")

    @property
    def rotations(self) -> tuple[Rotation2D, ...]:
        return tuple(rotation_from_phase(w) for w in self.phases)


@dataclass(frozen=True)
class StabilizedMean:
    """A mean configuration after a fixed number of smoothing sweeps."""

    config: np.ndarray
    lam: float
    jacobi_iters: int

    def __post_init__(self):
        object.__setattr__(self, "config", _readonly(self.config))


def _objective(rotated: np.ndarray) -> tuple[float, np.ndarray]:
    mean = rotated.mean(axis=0)
    resid = rotated - mean
    obj = float(np.sum(resid.real**2 + resid.imag**2)) / len(rotated)
    return obj, mean


def gpa_align(shapes: Sequence[PreShape] | np.ndarray, members: Sequence[int]) -> GpaResult:
    """Jointly rotate the given cluster members to minimize their spread.

    Classical alternating scheme on Kendall's complex form, where member
    k is the complex N-vector z_k and its rotation a unit phase w_k:
    start from identity rotations (w = 1), then repeat {recompute the
    mean of the rotated members; re-solve every member's rotation against
    that mean at once, ``w = h / |h|`` with ``h = conj(Z) @ mean``} until
    the objective decrease falls below ``GPA_TOL`` or ``GPA_MAX_SWEEPS``
    sweeps. Each half-step can only lower the objective, so the sweep
    sequence is non-increasing. Because the objective is already an upper
    bound on any further decrease, a cluster that starts below tolerance
    returns immediately with its identity rotations untouched. A member
    orthogonal to the mean (h = 0) keeps the identity.

    The solution is only defined up to a common rotation; the gauge is
    fixed by rotating everything so the first member's rotation is the
    identity.

    ``shapes`` is a (K, N) complex pre-shape stack or a sequence of
    ``PreShape``; only the rows in ``members`` are read.
    """
    members = list(members)
    if not members:
        raise EmptyCluster("member set is empty")
    if isinstance(shapes, np.ndarray):
        z = shapes[members]
    else:
        z = stack_preshapes([shapes[i] for i in members])

    z_conj = z.conj()
    phases = np.ones(len(members), dtype=complex)
    obj, mean = _objective(z)
    history = [obj]
    for _ in range(GPA_MAX_SWEEPS):
        if obj < GPA_TOL:
            break
        phases = unit_phase(z_conj @ mean)
        new_obj, mean = _objective(phases[:, None] * z)
        history.append(new_obj)
        decrease = obj - new_obj
        obj = new_obj
        if decrease < GPA_TOL:
            break

    if phases[0] != 1.0:
        phases = phases * phases[0].conjugate()
        phases[0] = 1.0
        obj, mean = _objective(phases[:, None] * z)
    return GpaResult(
        phases,
        np.column_stack((mean.real, mean.imag)),
        obj,
        tuple(history),
    )


def _jacobi_coefficients(lam: float, n: int) -> tuple[float, float]:
    alpha = 1.0 / (1.0 + lam - lam / n)
    beta = (lam / n) * alpha
    return alpha, beta


def stabilize_mean(
    mean: np.ndarray, lam: float, iters: int = DEFAULT_JACOBI_ITERS
) -> StabilizedMean:
    """Smooth a mean configuration with ``iters`` simultaneous Jacobi sweeps.

    Each sweep replaces every row r with
    ``alpha * mean[r] + beta * sum(previous rows except r)`` where
    ``alpha = 1 / (1 + lam - lam/N)`` and ``beta = (lam / N) * alpha``,
    starting from the input mean. ``lam = 0`` gives alpha = 1, beta = 0:
    the identity.
    """
    if lam < 0:
        raise InvalidParameter("lam must be >= 0")
    if iters < 1:
        raise InvalidParameter("iters must be >= 1")
    mean = np.asarray(mean, dtype=float)
    if mean.ndim != 2 or mean.shape[1] != 2 or mean.shape[0] < 2:
        raise InvalidParameter("mean must be an (N, 2) matrix with N >= 2")
    n = mean.shape[0]
    alpha, beta = _jacobi_coefficients(lam, n)

    current = mean
    for _ in range(iters):
        current = alpha * mean + beta * (current.sum(axis=0) - current)
    return StabilizedMean(current, lam, iters)


def back_transform(stab: StabilizedMean, rotations: Sequence[Rotation2D]) -> list[np.ndarray]:
    """Rebuild each member's configuration from the stabilized mean.

    Member k receives ``stab.config @ rotations[k].T``, undoing the
    rotation that aligned it during GPA. Rotations are isometries, so
    every output has the Frobenius norm of the stabilized mean.
    """
    return [stab.config @ rot.matrix.T for rot in rotations]
