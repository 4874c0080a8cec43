"""Planar pre-shape geometry for point trajectories.

A trajectory of N frames is treated as an N x 2 landmark configuration.
Centering it and scaling it to unit Frobenius norm removes location and
size, leaving a point on the pre-shape hypersphere; quotienting out planar
rotation on top of that gives the shape. Two trajectories that differ only
by a similarity transform (translation, positive scaling, rotation) are
therefore the same shape, and the Procrustes distance between pre-shapes
measures how differently they move.

Rotations are solved in Kendall's complex form: a configuration's rows
(x, y) become the complex N-vector x + iy, a planar rotation becomes a
unit complex phase, and the best rotation of b onto a is the phase of
the inner product sum(conj(b) * a). No SVD is needed.

Each shape operation has one implementation, on (K, N) complex stacks,
and the single-shape API is a thin layer over it. ``preshape_rows`` is
the one projection: ``project_to_preshape`` runs it on a one-row stack.
``procrustes_residuals`` is the one literal residual: the straggler
labels and ``procrustes_distance`` take their Procrustes distances from
it, and so does the affinity for the few pairs near d = 0, where the
closed form ``sqrt(2 - 2|<b, a>|)`` that it uses for all other pairs
cancels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundsError,
    DegenerateTrajectory,
    InvalidPreShape,
    InvalidRotation,
    InvalidTrajectory,
    ShapeMismatch,
)

# Below this centered Frobenius norm a configuration has no usable shape;
# far smaller than any realistic pixel-scale trajectory.
DEGENERACY_EPS = 1e-12

_INVARIANT_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only float array; copied unless it already is one."""
    if isinstance(a, np.ndarray) and a.dtype == float and not a.flags.writeable:
        return a
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Trajectory:
    """An (x, y) point track over a contiguous frame range.

    Point ``i`` is the position at frame ``start_frame + i``. At least two
    points are required: a single point has no shape (``InvalidTrajectory``
    otherwise, as for a negative start frame). Every coordinate must be
    finite (``BoundsError`` otherwise). The points are kept read-only; a
    read-only float array is kept as it is, anything else is copied.
    """

    id: int
    start_frame: int
    points: np.ndarray

    def __post_init__(self):
        pts = _readonly(self.points)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidTrajectory(f"points must be an (N, 2) array, got {pts.shape}")
        if pts.shape[0] < 2:
            raise InvalidTrajectory("a trajectory needs at least 2 points")
        if self.start_frame < 0:
            raise InvalidTrajectory("start_frame must be >= 0")
        if not np.all(np.isfinite(pts)):
            raise BoundsError(f"trajectory {self.id} has a non-finite coordinate")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_rows(cls, ids, starts, rows: np.ndarray, bounds) -> tuple[Trajectory, ...]:
        """Trajectory ``i`` over ``rows[bounds[i]:bounds[i + 1]]``, for every ``i``.

        Builds a whole file's tracks from one (M, 2) buffer: the
        constructor's checks run once over all rows instead of once per
        track, and each track's points are a read-only view of the
        buffer, not a copy.
        """
        rows = _readonly(rows)
        if rows.ndim != 2 or rows.shape[1] != 2:
            raise InvalidTrajectory(f"rows must be an (M, 2) array, got {rows.shape}")
        bounds = np.asarray(bounds, dtype=np.int64)
        if bounds.size != len(ids) + 1 or bounds[0] != 0 or bounds[-1] != len(rows):
            raise InvalidTrajectory("bounds must run from 0 to the row count, one per track")
        if np.any(np.diff(bounds) < 2):
            raise InvalidTrajectory("a trajectory needs at least 2 points")
        if min(starts, default=0) < 0:
            raise InvalidTrajectory("start_frame must be >= 0")
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            track = np.searchsorted(bounds, np.argmin(finite), side="right") - 1
            raise BoundsError(f"trajectory {ids[track]} has a non-finite coordinate")
        out = []
        for tid, start, lo, hi in zip(ids, starts, bounds[:-1].tolist(), bounds[1:].tolist()):
            t = object.__new__(cls)
            vars(t).update(id=tid, start_frame=start, points=rows[lo:hi])
            out.append(t)
        return tuple(out)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def end_frame(self) -> int:
        """One past the last covered frame."""
        return self.start_frame + self.n_points


@dataclass(frozen=True)
class PreShape:
    """A centered, unit-Frobenius-norm N x 2 configuration."""

    config: np.ndarray

    def __post_init__(self):
        cfg = _readonly(self.config)
        if cfg.ndim != 2 or cfg.shape[1] != 2 or cfg.shape[0] < 2:
            raise InvalidPreShape(f"config must be an (N, 2) array with N >= 2, got {cfg.shape}")
        _check_preshapes(as_complex(cfg)[None])
        object.__setattr__(self, "config", cfg)

    @property
    def n_frames(self) -> int:
        return self.config.shape[0]


@dataclass(frozen=True)
class Rotation2D:
    """A member of SO(2)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _readonly(self.matrix)
        if m.shape != (2, 2):
            raise InvalidRotation("rotation matrix must be 2x2")
        (a, b), (c, d) = m.tolist()
        # The entries of m @ m.T - I, then the determinant; NaN fails both.
        gram_off = (a * a + b * b - 1.0, a * c + b * d, c * c + d * d - 1.0)
        if not all(abs(v) <= _INVARIANT_TOL for v in gram_off):
            raise InvalidRotation("matrix is not orthogonal")
        if not abs(a * d - b * c - 1.0) <= _INVARIANT_TOL:
            raise InvalidRotation("matrix is not a proper rotation (det != +1)")
        object.__setattr__(self, "matrix", m)

    @property
    def angle(self) -> float:
        """Rotation angle in radians, in (-pi, pi]."""
        return float(np.arctan2(self.matrix[1, 0], self.matrix[0, 0]))


def project_to_preshape(config: np.ndarray) -> PreShape:
    """Re-center the rows of ``config`` and rescale to unit Frobenius norm.

    This is ``project_rows`` on a one-row stack, so its bits are those
    of the pipeline's own projection. Idempotent on valid pre-shapes (up
    to floating-point identity: a valid pre-shape's centering and norm
    are already exact to ~1e-16).

    Raises DegenerateTrajectory when the centered norm falls below
    ``DEGENERACY_EPS`` (all points coincide), and InvalidPreShape for a
    NaN or infinite coordinate.
    """
    cfg = np.asarray(config, dtype=float)
    if cfg.ndim != 2 or cfg.shape[1] != 2 or cfg.shape[0] < 2:
        raise InvalidPreShape(f"config must be an (N, 2) array with N >= 2, got {cfg.shape}")
    if not np.isfinite(cfg).all():
        raise InvalidPreShape("config has a non-finite coordinate")
    return PreShape(project_rows(as_complex(cfg)[None])[0].view(float).reshape(-1, 2))


def to_preshape(traj: Trajectory) -> PreShape:
    """Project a trajectory onto the pre-shape sphere.

    Invariant to translation and positive scaling of the input track.
    """
    return project_to_preshape(traj.points)


def as_complex(configs: np.ndarray) -> np.ndarray:
    """Kendall's complex form: rows (x, y) of ``configs`` become x + iy.

    Works on one (N, 2) configuration or a (K, N, 2) stack of them.
    Right-multiplying a configuration by the rotation matrix of
    ``rotation_from_phase(u)`` is multiplying its complex form by ``u``.
    The (x, y) pairs already lie in memory as complex numbers do, so a
    C-contiguous float input is reinterpreted, not copied: the result is
    a view of it.
    """
    return np.ascontiguousarray(configs, dtype=float).view(complex)[..., 0]


def stack_preshapes(shapes) -> np.ndarray:
    """The (K, N) complex stack of K pre-shapes.

    ``shapes`` is either such a stack already, returned as it is, or a
    sequence of ``PreShape`` of one frame count (``ShapeMismatch``
    otherwise).
    """
    if isinstance(shapes, np.ndarray):
        return shapes
    n = shapes[0].n_frames
    for s in shapes:
        if s.n_frames != n:
            raise ShapeMismatch(f"frame counts differ: {s.n_frames} vs {n}")
    return as_complex(np.array([s.config for s in shapes]))


def preshape_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row of a (K, N) complex stack re-centered and scaled to unit norm.

    Returns the pre-shapes and the centered norms. A row whose centered
    norm is below ``DEGENERACY_EPS`` has no shape: it comes back as zeros
    and the caller decides whether to skip it or raise. The other rows
    are checked for centering and unit norm by ``PreShape``'s own check.
    """
    if z.ndim != 2 or z.shape[1] < 2:
        raise InvalidPreShape(f"need a (K, N) stack with N >= 2, got {z.shape}")
    # Work on the rows' interleaved (x0, y0, x1, y1, ...) float view: the
    # norm is a plain dot product and the division a real one, as in the
    # (N, 2) form (a complex division would multiply by 1/norm instead).
    centered = z - z.mean(axis=1, keepdims=True)
    # A second pass removes what the rounded mean leaves behind, which the
    # division would blow up for a (nearly) motionless track.
    flat = (centered - centered.mean(axis=1, keepdims=True)).view(float)
    norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    ok = norms >= DEGENERACY_EPS
    pre = (flat / np.where(ok, norms, np.inf)[:, None]).view(complex)
    _check_preshapes(pre[ok])
    return pre, norms


def _check_preshapes(z: np.ndarray) -> None:
    """Raise InvalidPreShape unless every row of a (K, N) complex stack is a pre-shape.

    A row must be centered and of unit norm, both to ``_INVARIANT_TOL``.
    """
    # The x and y sums of every row, as the parts of one complex sum. Both
    # tests are written so that NaN fails them.
    if not np.abs(z.sum(axis=1).view(float)).max(initial=0.0) <= _INVARIANT_TOL:
        raise InvalidPreShape("config is not centered")
    unit = np.sqrt(np.einsum("ij,ij->i", z.view(float), z.view(float)))
    if not np.abs(unit - 1.0).max(initial=0.0) <= _INVARIANT_TOL:
        raise InvalidPreShape("config does not have unit Frobenius norm")


def project_rows(z: np.ndarray) -> np.ndarray:
    """Pre-shapes of the rows of a (K, N) complex stack.

    Raises DegenerateTrajectory when some row's centered norm falls below
    ``DEGENERACY_EPS`` (all its points coincide).
    """
    pre, norms = preshape_rows(z)
    if norms.min() < DEGENERACY_EPS:
        raise DegenerateTrajectory(
            f"centered norm {norms.min():.3e} below {DEGENERACY_EPS:.0e}"
        )
    return pre


def unit_phase(h):
    """``h / |h|`` elementwise, with 1 wherever ``h == 0``.

    ``h`` is the inner product <b, a> = sum(conj(b) * a) of two pre-shapes;
    ``unit_phase(h)`` is then the rotation of ``b`` that brings it closest
    to ``a``. When ``h == 0`` every rotation leaves the same residual, and
    the identity is returned instead of NaN.
    """
    h = np.asarray(h, dtype=complex)
    mag = np.abs(h)
    safe = np.where(mag > 0.0, mag, 1.0)
    return np.where(mag > 0.0, h / safe, 1.0 + 0.0j)


def rotation_from_phase(u: complex) -> Rotation2D:
    """The rotation matrix that acts on (N, 2) rows as ``u`` acts on x + iy."""
    c, s = float(u.real), float(u.imag)
    return Rotation2D(np.array([[c, s], [-s, c]]))


def _aligned_pair(a: PreShape, b: PreShape) -> tuple[np.ndarray, np.ndarray, complex]:
    if a.n_frames != b.n_frames:
        raise ShapeMismatch(f"frame counts differ: {a.n_frames} vs {b.n_frames}")
    za, zb = as_complex(a.config), as_complex(b.config)
    return za, zb, complex(unit_phase(np.vdot(zb, za)))


def optimal_rotation(a: PreShape, b: PreShape) -> Rotation2D:
    """The rotation G in SO(2) minimizing ||a - b @ G||_F.

    In complex form G is the unit phase of <b, a> = sum(conj(b) * a)
    (complex Procrustes; Dryden & Mardia, *Statistical Shape Analysis*);
    when <b, a> = 0 every rotation is optimal and the identity is returned.
    """
    return rotation_from_phase(_aligned_pair(a, b)[2])


def procrustes_distance(a: PreShape, b: PreShape) -> float:
    """Residual norm between two pre-shapes after optimal rotational alignment.

    The literal residual ``||a - u b||`` with the closed-form phase ``u``
    of ``optimal_rotation``. It equals ``sqrt(2 - 2|<b, a>|)`` for
    unit-norm inputs, but that form loses half the digits near d = 0.
    Symmetric in its arguments; ranges over [0, 2] for unit-norm inputs.
    """
    za, zb, u = _aligned_pair(a, b)
    return float(procrustes_residuals(za, zb, np.array(u)))


def procrustes_residuals(a: np.ndarray, b: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """The literal residuals ``||a - phase * b||`` over the last axis.

    ``a`` and ``b`` are complex pre-shape stacks (..., N) and ``phase``
    holds the unit phases (...) that rotate each ``b`` onto its ``a``;
    the leading axes broadcast, so pairs, a row against a stack or every
    row against every column all go through this one kernel. The
    residual is taken literally rather than as ``sqrt(2 - 2|<b, a>|)``:
    that closed form cancels near d = 0 and would put identical shapes
    visibly apart.
    """
    resid = a - phase[..., None] * b
    squares = np.square(resid.real)
    squares += np.square(resid.imag)
    return np.sqrt(squares.sum(axis=-1))
