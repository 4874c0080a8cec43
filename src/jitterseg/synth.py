"""Synthetic jittery scenes with ground truth, and label metrics.

A scene is a planar static background imaged under a smooth
translation-only camera path, plus a compact foreground blob that
additionally drifts on its own. Camera shake is a per-frame random
similarity (rotation and scale about the frame center plus translation)
whose Gaussian magnitudes scale with a single jitter level ``sigma``.
Everything is a deterministic function of the scene seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateScene, InvalidParameter, UnknownId
from .segmenter import TrajectoryStore, check_at_most

# Jitter magnitudes per unit sigma: radians of roll, translation as a
# fraction of the short frame side, and log-scale. Chosen so sigma = 0.25
# is a severe handheld shake at 640x360.
JITTER_ANGLE_SCALE = 0.05
JITTER_TRANSLATION_SCALE = 0.02
JITTER_LOG_SCALE = 0.02

# Frame margin (fraction of the short side) kept free for jitter so
# clipping at the frame border stays rare.
_JITTER_CUSHION = 0.05

# Above this share of points clipped to the frame border, fuse_jitter
# warns that the jitter has flattened the scene onto the border.
MAX_CLIPPED_SHARE = 0.5

# Buffer rows shaken per pass of fuse_jitter: its (rows, 2, 2) temporaries
# stay small, and a whole-store temporary would raise the peak RSS.
_JITTER_ROWS = 4096

# Foreground blob radius as a fraction of the short frame side.
_FG_RADIUS = 0.09

# RNG stream tags: scene layout vs per-frame jitter.
_LAYOUT_STREAM = 0
_JITTER_STREAM = 1


@dataclass(frozen=True)
class SceneParams:
    """Recipe for one synthetic scene.

    Every float must be finite, every count and size at most
    ``MAX_INT_PARAM`` and the seed non-negative (``InvalidParameter``
    otherwise).
    """

    n_bg: int
    n_fg: int
    n_frames: int
    sigma: float
    frame_size: tuple[int, int] = (640, 360)
    camera_speed: float = 1.0
    object_speed: float = 2.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "frame_size", tuple(self.frame_size))
        if self.n_bg < 1 or self.n_fg < 1:
            raise InvalidParameter("n_bg and n_fg must be >= 1")
        if self.n_frames < 2:
            raise InvalidParameter("n_frames must be >= 2")
        if self.sigma < 0:
            raise InvalidParameter("sigma must be >= 0")
        if self.frame_size[0] <= 0 or self.frame_size[1] <= 0:
            raise InvalidParameter("frame_size must be positive")
        if self.camera_speed < 0 or self.object_speed < 0:
            raise InvalidParameter("speeds must be >= 0")
        sizes = (self.n_bg, self.n_fg, self.n_frames, *self.frame_size)
        for name, value in zip(("n_bg", "n_fg", "n_frames", "width", "height"), sizes):
            check_at_most(name, value)
        if self.seed < 0:
            raise InvalidParameter("seed must be >= 0")
        for name in ("sigma", "camera_speed", "object_speed"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameter(f"{name} must be finite")


@dataclass(frozen=True)
class LabeledScene:
    """A trajectory store plus its ground truth (0 background, 1 foreground)."""

    store: TrajectoryStore
    ground_truth: dict[int, int]

    def __post_init__(self):
        if set(self.ground_truth) != set(self.store.ids.tolist()):
            raise ValueError("ground truth must label exactly the store's ids")


@dataclass(frozen=True)
class Metrics:
    """Permutation-maximized sparse label accuracy and its confusion counts."""

    accuracy: float
    confusion: tuple[tuple[int, int], tuple[int, int]]
    n_labeled: int
    n_unlabeled: int


def _camera_path(params: SceneParams, theta: float) -> np.ndarray:
    """Per-frame translation of the smooth camera, shape (n_frames, 2).

    Translation-only by design: a shared per-frame shift leaves every
    background pre-shape identical, so the jitter-free scene has exact
    zero background spread. The path is a low-order polynomial, linear
    along the heading ``theta`` with a gentle quadratic drift sideways.
    """
    u = np.array([np.cos(theta), np.sin(theta)])
    v = np.array([-np.sin(theta), np.cos(theta)])
    f = np.arange(params.n_frames, dtype=float)
    quad = 0.5 * params.camera_speed * (f**2) / max(params.n_frames - 1, 1)
    return params.camera_speed * f[:, None] * u[None, :] + quad[:, None] * v[None, :]


def _object_path(params: SceneParams, theta_cam: float, rng: np.random.Generator) -> np.ndarray:
    """Per-frame displacement of the foreground object, shape (n_frames, 2).

    Constant-velocity drift at an angle well away from the camera heading
    (45-135 degrees to either side) plus a small sinusoidal sway. Keeping
    the headings apart avoids the known degenerate case of two parallel
    uniform translations, which are indistinguishable in shape space.
    """
    side = 1.0 if rng.integers(2) else -1.0
    theta = theta_cam + side * rng.uniform(np.pi / 4, 3 * np.pi / 4)
    w = np.array([np.cos(theta), np.sin(theta)])
    w_perp = np.array([-np.sin(theta), np.cos(theta)])
    f = np.arange(params.n_frames, dtype=float)
    sway = 2.0 * params.object_speed * np.sin(4.0 * np.pi * f / params.n_frames)
    return params.object_speed * f[:, None] * w[None, :] + sway[:, None] * w_perp[None, :]


def _sample_interval(lo: float, hi: float, n: int, rng: np.random.Generator) -> np.ndarray:
    if not lo < hi:  # also when a path overflowed to inf or NaN
        raise InvalidParameter("camera/object drift too large for the frame size")
    return rng.uniform(lo, hi, size=n)


def generate_scene(params: SceneParams) -> LabeledScene:
    """Build a labeled synthetic scene, deterministic per seed.

    Background trajectories are static world points under the camera path;
    foreground points add the object path; both are then shaken by
    ``fuse_jitter`` and clipped to the frame. Start positions are sampled
    so the jitter-free paths never leave the frame (so clipping cannot
    distort the exact sigma = 0 anchors).
    """
    if params.sigma == 0.0 and params.camera_speed == 0.0:
        detail = (
            "every trajectory is a single repeated point"
            if params.object_speed == 0.0
            else "background trajectories are single repeated points"
        )
        warnings.warn(DegenerateScene(f"static camera without jitter: {detail}"))

    rng = np.random.default_rng([params.seed, _LAYOUT_STREAM])
    width, height = params.frame_size
    cushion = _JITTER_CUSHION * min(width, height) if params.sigma > 0 else 1.0

    theta_cam = rng.uniform(0.0, 2.0 * np.pi)
    # A huge finite speed overflows its path; _sample_interval refuses it.
    with np.errstate(over="ignore", invalid="ignore"):
        cam = _camera_path(params, theta_cam)
        obj = _object_path(params, theta_cam, rng)
        fg_off = cam + obj

    xs = _sample_interval(
        cushion - cam[:, 0].min(), width - cushion - cam[:, 0].max(), params.n_bg, rng
    )
    ys = _sample_interval(
        cushion - cam[:, 1].min(), height - cushion - cam[:, 1].max(), params.n_bg, rng
    )
    r_fg = _FG_RADIUS * min(width, height)
    pad = cushion + r_fg
    cx = _sample_interval(
        pad - fg_off[:, 0].min(), width - pad - fg_off[:, 0].max(), 1, rng
    )[0]
    cy = _sample_interval(
        pad - fg_off[:, 1].min(), height - pad - fg_off[:, 1].max(), 1, rng
    )[0]
    radii = r_fg * np.sqrt(rng.uniform(0.0, 1.0, params.n_fg))
    angles = rng.uniform(0.0, 2.0 * np.pi, params.n_fg)

    # Every track covers all frames: a start point plus the camera path,
    # and for the foreground the object path too. Ids 0..n_bg-1 are the
    # background, the rest the foreground.
    n, frames = params.n_bg + params.n_fg, params.n_frames
    x0 = np.concatenate((xs, cx + radii * np.cos(angles)))
    y0 = np.concatenate((ys, cy + radii * np.sin(angles)))
    points = np.empty((n, frames, 2))
    points[: params.n_bg], points[params.n_bg :] = cam, fg_off
    points += np.stack((x0, y0), axis=-1)[:, None]
    ids, starts, bounds = np.arange(n), np.zeros(n, dtype=np.int64), np.arange(n + 1) * frames
    columns = (ids, starts, bounds, points.reshape(-1, 2))
    store = TrajectoryStore._of_columns(*columns, frames, params.frame_size)
    ground_truth = dict.fromkeys(range(params.n_bg), 0) | dict.fromkeys(range(params.n_bg, n), 1)
    return LabeledScene(fuse_jitter(store, params.sigma, params.seed), ground_truth)


def _frame_similarity(
    seed: int, frame: int, sigma: float, frame_size: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The (2x2 linear part, translation) of one frame's jitter.

    Depends only on (seed, frame, sigma, frame size): the same seed
    shakes any two stores identically at corresponding frames. Draw
    order per frame is fixed: angle, tx, ty, log-scale.
    """
    rng = np.random.default_rng([seed, _JITTER_STREAM, frame])
    angle = rng.normal(0.0, JITTER_ANGLE_SCALE * sigma)
    t_scale = JITTER_TRANSLATION_SCALE * sigma * min(frame_size)
    shift = np.array([rng.normal(0.0, t_scale), rng.normal(0.0, t_scale)])
    scale = np.exp(rng.normal(0.0, JITTER_LOG_SCALE * sigma))
    c, s = np.cos(angle), np.sin(angle)
    return scale * np.array([[c, -s], [s, c]]), shift


def fuse_jitter(store: TrajectoryStore, sigma: float, seed: int) -> TrajectoryStore:
    """Shake every frame of a store with an independent random similarity.

    Each frame's rotation and scale act about the frame center, followed
    by a translation; all points of the frame receive the same transform.
    Results are clipped to the frame bounds; when the clip moves more
    than ``MAX_CLIPPED_SHARE`` of the points, the scene is mostly frame
    border and a ``DegenerateScene`` warning gives the count. ``sigma =
    0`` returns the input store unchanged. A sigma so large that some
    shaken point overflows raises ``InvalidParameter``.
    """
    if sigma < 0:
        raise InvalidParameter("sigma must be >= 0")
    if sigma == 0.0:
        return store
    width, height = store.frame_size
    center = np.array([width / 2.0, height / 2.0])
    linear = np.empty((store.n_frames_total, 2, 2))
    shift = np.empty((store.n_frames_total, 2))
    # The frame of every buffer row.
    counts = np.diff(store.bounds)
    frame = np.arange(len(store.points)) - np.repeat(store.bounds[:-1] - store.starts, counts)
    shaken = np.empty_like(store.points)
    clipped = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for f in range(store.n_frames_total):
            linear[f], shift[f] = _frame_similarity(seed, f, sigma, store.frame_size)
        for lo in range(0, len(shaken), _JITTER_ROWS):
            rows = slice(lo, lo + _JITTER_ROWS)
            k, p = frame[rows], store.points[rows] - center
            moved = np.einsum("fij,fj->fi", linear[k], p) + center + shift[k]
            if not np.isfinite(moved).all():
                raise InvalidParameter(f"sigma={sigma:g} is too large: the jitter overflows")
            np.clip(moved, 0.0, [width, height], out=shaken[rows])
            clipped += np.count_nonzero((shaken[rows] != moved).any(axis=1))
    if clipped > MAX_CLIPPED_SHARE * len(shaken):
        message = f"sigma={sigma:g} clips {clipped} of {len(shaken)} points to the frame border"
        warnings.warn(DegenerateScene(message))
    columns = (store.ids, store.starts, store.bounds, shaken)
    return TrajectoryStore._of_columns(*columns, store.n_frames_total, store.frame_size)


def metrics_from_labels(predicted: dict[int, int], truth: dict[int, int]) -> Metrics:
    """Permutation-maximized accuracy of a partial binary labeling.

    Unlabeled ids count into ``n_unlabeled`` and are excluded from the
    accuracy; with nothing labeled the accuracy is reported as 0. The
    confusion matrix is ``[truth][prediction]`` under the permutation
    that maximizes accuracy (identity on ties).
    """
    for tid, lab in predicted.items():
        if tid not in truth:
            raise UnknownId(f"predicted label for unknown trajectory id {tid}")
        if lab not in (0, 1):
            raise InvalidParameter(f"label for id {tid} must be 0 or 1, got {lab}")
    labeled = [tid for tid in truth if tid in predicted]
    n_unlabeled = len(truth) - len(labeled)
    if not labeled:
        return Metrics(0.0, ((0, 0), (0, 0)), 0, n_unlabeled)
    agree = sum(predicted[tid] == truth[tid] for tid in labeled)
    swap = agree * 2 < len(labeled)
    counts = [[0, 0], [0, 0]]
    for tid in labeled:
        pred = 1 - predicted[tid] if swap else predicted[tid]
        counts[truth[tid]][pred] += 1
    accuracy = max(agree, len(labeled) - agree) / len(labeled)
    confusion = ((counts[0][0], counts[0][1]), (counts[1][0], counts[1][1]))
    return Metrics(accuracy, confusion, len(labeled), n_unlabeled)


def evaluate(predicted: dict[int, int], scene: LabeledScene) -> Metrics:
    """Score predicted labels against a scene's ground truth."""
    return metrics_from_labels(predicted, scene.ground_truth)
