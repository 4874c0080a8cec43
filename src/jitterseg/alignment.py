"""Per-cluster alignment and smoothing of mean trajectories.

Given a cluster of pre-shapes, alternating Procrustes alignment rotates
each member so the cluster collapses as tightly as possible around its
average configuration (the cluster's mean trajectory in shape space).
That mean is then smoothed by a fixed number of Jacobi sweeps of a
closed-form update that trades fidelity to the raw mean against the
variance of its rows, and each member is reconstructed from the smoothed
mean by undoing its rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyCluster, InvalidParameter, ShapeMismatch
from .shapes import (
    PreShape,
    Rotation2D,
    _readonly,
    as_complex,
    rotation_from_phase,
    unit_phase,
)

GPA_TOL = 1e-10
GPA_MAX_SWEEPS = 50

DEFAULT_JACOBI_ITERS = 5
JACOBI_CONVERGENCE_TOL = 1e-10
_JACOBI_ITER_CAP = 10_000_000


@dataclass(frozen=True)
class GpaResult:
    """Aligned cluster: per-member rotations, mean configuration, objective.

    ``mean`` is the average of the rotated members; ``objective`` is the
    mean squared residual of the rotated members about it.
    ``sweep_objectives`` records the objective before any sweep and after
    each one (diagnostic; non-increasing by construction).
    """

    rotations: tuple[Rotation2D, ...]
    mean: np.ndarray
    objective: float
    sweep_objectives: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "mean", _readonly(self.mean))
        if self.objective < 0:
            raise ValueError("objective must be >= 0")


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


def gpa_align(shapes: Sequence[PreShape], members: Sequence[int]) -> GpaResult:
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
    """
    members = list(members)
    if not members:
        raise EmptyCluster("member set is empty")
    n = shapes[members[0]].n_frames
    for i in members:
        if shapes[i].n_frames != n:
            raise ShapeMismatch(f"frame counts differ: {shapes[i].n_frames} vs {n}")
    z = as_complex(np.array([shapes[i].config for i in members]))

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
        tuple(rotation_from_phase(w) for w in phases),
        np.column_stack((mean.real, mean.imag)),
        obj,
        tuple(history),
    )


def _jacobi_coefficients(lam: float, n: int) -> tuple[float, float]:
    alpha = 1.0 / (1.0 + lam - lam / n)
    beta = (lam / n) * alpha
    return alpha, beta


def stabilize_mean(
    mean: np.ndarray,
    lam: float,
    iters: int = DEFAULT_JACOBI_ITERS,
    *,
    run_to_convergence: bool = False,
) -> StabilizedMean:
    """Smooth a mean configuration with simultaneous Jacobi sweeps.

    Each sweep replaces every row r with
    ``alpha * mean[r] + beta * sum(previous rows except r)`` where
    ``alpha = 1 / (1 + lam - lam/N)`` and ``beta = (lam / N) * alpha``,
    starting from the input mean. ``lam = 0`` gives alpha = 1, beta = 0:
    the identity. With ``run_to_convergence`` the sweeps continue until
    successive iterates differ by at most ``JACOBI_CONVERGENCE_TOL``
    (testing aid; the pipeline always runs exactly ``iters`` sweeps).
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

    current = mean.copy()
    sweeps = 0
    limit = _JACOBI_ITER_CAP if run_to_convergence else iters
    while sweeps < limit:
        row_sum = current.sum(axis=0)
        nxt = alpha * mean + beta * (row_sum - current)
        sweeps += 1
        if run_to_convergence and np.max(np.abs(nxt - current)) <= JACOBI_CONVERGENCE_TOL:
            current = nxt
            break
        current = nxt
    return StabilizedMean(current, lam, sweeps)


def back_transform(stab: StabilizedMean, rotations: Sequence[Rotation2D]) -> list[np.ndarray]:
    """Rebuild each member's configuration from the stabilized mean.

    Member k receives ``stab.config @ rotations[k].T``, undoing the
    rotation that aligned it during GPA. Rotations are isometries, so
    every output has the Frobenius norm of the stabilized mean.
    """
    return [stab.config @ rot.matrix.T for rot in rotations]
