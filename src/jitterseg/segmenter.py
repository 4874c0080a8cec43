"""Sparse segmentation pipeline over a trajectory store.

The frame range is tiled into blocks sized so that enough trajectories
span each block entirely. Within a block, one spanning trajectory per
occupied grid cell is chosen as a representative; representatives are
repeatedly clustered, aligned, stabilized, and rebuilt for a fixed number
of iterations, after which trajectories that cover enough of the block
are labeled by their nearest stabilized cluster mean. Per-block labels
are finally reconciled into one foreground/background labeling.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .alignment import (
    DEFAULT_JACOBI_ITERS,
    StabilizedMean,
    back_transform,
    gpa_align,
    stabilize_mean,
)
from .clustering import DEFAULT_OMEGA, build_affinity, spectral_cluster
from .errors import (
    BoundsError,
    DegenerateTrajectory,
    DuplicateId,
    InvalidParameter,
    NoSharedTrajectories,
    NoValidBlock,
    TooFewRepresentatives,
)
from .shapes import (
    Rotation2D,
    Trajectory,
    procrustes_distance,
    project_to_preshape,
)

# Slack for fraction thresholds so exact ratios (e.g. 10 of 100 at 0.1)
# are not lost to floating-point representation of the fraction.
_FRACTION_EPS = 1e-9

# Distance ties this close are resolved to the lower cluster index.
_TIE_EPS = 1e-12


@dataclass(frozen=True)
class TrajectoryStore:
    """All trajectories of a sequence plus its frame count and pixel size."""

    trajectories: tuple[Trajectory, ...]
    n_frames_total: int
    frame_size: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "trajectories", tuple(self.trajectories))
        object.__setattr__(self, "frame_size", tuple(self.frame_size))
        width, height = self.frame_size
        if width <= 0 or height <= 0:
            raise InvalidParameter("frame_size must be positive")
        if self.n_frames_total < 2:
            raise InvalidParameter("n_frames_total must be >= 2")
        seen = set()
        for t in self.trajectories:
            if t.id in seen:
                raise DuplicateId(f"trajectory id {t.id} appears twice")
            seen.add(t.id)
            if t.end_frame > self.n_frames_total:
                raise BoundsError(
                    f"trajectory {t.id} extends past frame {self.n_frames_total - 1}"
                )
            x, y = t.points[:, 0], t.points[:, 1]
            if x.min() < 0 or x.max() > width or y.min() < 0 or y.max() > height:
                raise BoundsError(f"trajectory {t.id} leaves the frame bounds")

    @cached_property
    def by_id(self) -> Mapping[int, Trajectory]:
        return {t.id: t for t in self.trajectories}

    def __len__(self) -> int:
        return len(self.trajectories)


@dataclass(frozen=True)
class Block:
    """A contiguous frame interval [start, end) processed as one unit."""

    start: int
    end: int
    spanning_ids: tuple[int, ...]
    partial_ids: tuple[int, ...]

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("block frame range is empty")
        if set(self.spanning_ids) & set(self.partial_ids):
            raise ValueError("spanning_ids and partial_ids overlap")

    @property
    def length(self) -> int:
        return self.end - self.start

    @property
    def frame_range(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass(frozen=True)
class SegmenterParams:
    """Tuning constants of the sparse segmentation pipeline.

    Defaults: affinity bandwidth 0.02, smoothing weight 0.2 (use 0.6 for
    heavily shaken footage), 3 outer iterations, 5 smoothing sweeps,
    2 clusters, 70% coverage threshold for late labeling, 10% minimum
    spanning fraction per block, a 16x16 representative grid.
    """

    omega: float = DEFAULT_OMEGA
    lam: float = 0.2
    outer_iters: int = 3
    jacobi_iters: int = DEFAULT_JACOBI_ITERS
    m: int = 2
    span_threshold: float = 0.7
    min_span_fraction: float = 0.1
    grid_cells: int = 16
    seed: int = 0
    max_block_len: int = 60
    min_block_len: int = 10

    def __post_init__(self):
        if not self.omega > 0:
            raise InvalidParameter("omega must be > 0")
        if not self.lam >= 0:
            raise InvalidParameter("lam must be >= 0")
        for name in ("outer_iters", "jacobi_iters", "grid_cells", "min_block_len"):
            if getattr(self, name) < 1:
                raise InvalidParameter(f"{name} must be >= 1")
        if self.m < 2:
            raise InvalidParameter("m must be >= 2")
        for name in ("span_threshold", "min_span_fraction"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise InvalidParameter(f"{name} must be in (0, 1]")
        if self.max_block_len < self.min_block_len:
            raise InvalidParameter("max_block_len must be >= min_block_len")


@dataclass(frozen=True)
class BlockResult:
    """Labels, stabilized cluster means, and rotations for one block."""

    block: Block
    labels: dict[int, int]
    means: tuple[StabilizedMean, ...]
    rotations: dict[int, Rotation2D] = field(default_factory=dict)


def _overlap(traj: Trajectory, start: int, end: int) -> int:
    return max(0, min(end, traj.end_frame) - max(start, traj.start_frame))


def _spans(traj: Trajectory, start: int, end: int) -> bool:
    return traj.start_frame <= start and traj.end_frame >= end


def _spanning_count(store: TrajectoryStore, start: int, end: int) -> int:
    return sum(1 for t in store.trajectories if _spans(t, start, end))


def _make_block(store: TrajectoryStore, start: int, end: int, params: SegmenterParams) -> Block:
    spanning = []
    partial = []
    length = end - start
    for t in store.trajectories:
        if _spans(t, start, end):
            spanning.append(t.id)
        elif _overlap(t, start, end) / length >= params.span_threshold - _FRACTION_EPS:
            partial.append(t.id)
    return Block(start, end, tuple(sorted(spanning)), tuple(sorted(partial)))


def partition_blocks(store: TrajectoryStore, params: SegmenterParams) -> list[Block]:
    """Tile [0, n_frames_total) greedily into maximal valid blocks.

    Starting at the first uncovered frame, a block is extended one frame
    at a time while the number of trajectories spanning it stays at or
    above ``min_span_fraction`` of the store and its length stays within
    ``max_block_len``. A trailing remainder shorter than ``min_block_len``
    becomes its own block; every block must satisfy the spanning rule.
    """
    total = len(store)
    if total == 0:
        raise InvalidParameter("store has no trajectories")
    need = params.min_span_fraction * total - _FRACTION_EPS
    blocks = []
    s = 0
    while s < store.n_frames_total:
        e_min = min(s + params.min_block_len, store.n_frames_total)
        e_max = min(s + params.max_block_len, store.n_frames_total)
        if _spanning_count(store, s, e_min) < need:
            raise NoValidBlock(
                f"fewer than {params.min_span_fraction:.0%} of trajectories span "
                f"the minimum-length block at frame {s}"
            )
        e = e_min
        while e < e_max and _spanning_count(store, s, e + 1) >= need:
            e += 1
        blocks.append(_make_block(store, s, e, params))
        s = e
    return blocks


def select_representatives(
    store: TrajectoryStore, block: Block, params: SegmenterParams
) -> list[int]:
    """One spanning trajectory per occupied grid cell of the block's first frame.

    Within a cell the trajectory whose first-frame position lies nearest
    the cell center wins; distance ties go to the lowest id. Ids are
    returned in ascending order.
    """
    width, height = store.frame_size
    g = params.grid_cells
    cell_w = width / g
    cell_h = height / g
    best: dict[tuple[int, int], tuple[float, int]] = {}
    for tid in block.spanning_ids:
        t = store.by_id[tid]
        x, y = t.points[block.start - t.start_frame]
        cx = min(int(x // cell_w), g - 1)
        cy = min(int(y // cell_h), g - 1)
        d2 = (x - (cx + 0.5) * cell_w) ** 2 + (y - (cy + 0.5) * cell_h) ** 2
        key = (cy, cx)
        cand = (d2, tid)
        if key not in best or cand < best[key]:
            best[key] = cand
    reps = sorted(tid for _, tid in best.values())
    if len(reps) < params.m + 1:
        raise TooFewRepresentatives(
            f"{len(reps)} representatives in block {block.frame_range}, "
            f"need at least {params.m + 1}"
        )
    return reps


def _block_window(traj: Trajectory, block: Block) -> np.ndarray:
    lo = max(block.start, traj.start_frame)
    hi = min(block.end, traj.end_frame)
    return traj.points[lo - traj.start_frame : hi - traj.start_frame]


def segment_block(store: TrajectoryStore, block: Block, params: SegmenterParams) -> BlockResult:
    """Cluster, align, and stabilize one block's representatives, then label.

    Runs exactly ``outer_iters`` rounds of affinity construction,
    spectral clustering, per-cluster alignment, mean stabilization, and
    member reconstruction; afterwards labels every qualifying
    non-representative by its nearest stabilized mean.
    """
    reps = select_representatives(store, block, params)
    shapes = [project_to_preshape(_block_window(store.by_id[r], block)) for r in reps]

    assignment = None
    means: list[StabilizedMean] = []
    rotations: dict[int, Rotation2D] = {}
    for _ in range(params.outer_iters):
        afy = build_affinity(shapes, params.omega)
        assignment = spectral_cluster(afy, params.m, params.seed)
        new_shapes = list(shapes)
        means = []
        rotations = {}
        for c in range(params.m):
            idx = assignment.members(c)
            gpa = gpa_align(shapes, idx)
            smean = stabilize_mean(gpa.mean, params.lam, params.jacobi_iters)
            means.append(smean)
            for i, cfg, rot in zip(idx, back_transform(smean, gpa.rotations), gpa.rotations):
                new_shapes[i] = project_to_preshape(cfg)
                rotations[reps[i]] = rot
        shapes = new_shapes

    labels = {reps[i]: assignment.labels[i] for i in range(len(reps))}
    partial = BlockResult(block, labels, tuple(means), rotations)
    labels = assign_stragglers(partial, store, block, params)
    return BlockResult(block, labels, tuple(means), rotations)


def assign_stragglers(
    result: BlockResult,
    store: TrajectoryStore,
    block: Block,
    params: SegmenterParams,
) -> dict[int, int]:
    """Label unassigned trajectories that cover enough of the block.

    A trajectory covering at least ``span_threshold`` of the block joins
    the cluster whose stabilized mean is nearest in Procrustes distance,
    with both the trajectory and the mean rows cropped to the overlap
    window and re-projected to the pre-shape sphere first. Near-exact
    ties go to the lower cluster index. Trajectories below the coverage
    threshold (or with a motionless window) stay unlabeled.
    """
    labels = dict(result.labels)
    for t in sorted(store.trajectories, key=lambda tr: tr.id):
        if t.id in labels:
            continue
        lo = max(block.start, t.start_frame)
        hi = min(block.end, t.end_frame)
        if hi - lo < 2:
            continue
        if (hi - lo) / block.length < params.span_threshold - _FRACTION_EPS:
            continue
        try:
            t_pre = project_to_preshape(t.points[lo - t.start_frame : hi - t.start_frame])
        except DegenerateTrajectory:
            continue
        dists = []
        for sm in result.means:
            window = sm.config[lo - block.start : hi - block.start]
            try:
                m_pre = project_to_preshape(window)
            except DegenerateTrajectory:
                dists.append(np.inf)
                continue
            dists.append(procrustes_distance(t_pre, m_pre))
        d_min = min(dists)
        if not np.isfinite(d_min):
            continue
        labels[t.id] = next(i for i, d in enumerate(dists) if d < d_min + _TIE_EPS)
    return labels


def _oriented(labels: Mapping[int, int], flip: bool) -> dict[int, int]:
    return {k: (1 - v if flip else v) for k, v in labels.items()}


def _bbox_area(points: list[np.ndarray]) -> float:
    if not points:
        return np.inf
    arr = np.array(points)
    extents = arr.max(axis=0) - arr.min(axis=0)
    return float(extents[0] * extents[1])


def _foreground_flip(result: BlockResult, store: TrajectoryStore, flip: bool) -> bool:
    """True when cluster 0 (after ``flip``) has the smaller bounding box.

    The box is taken over the first-frame positions of the block's
    labeled trajectories; the smaller cluster is the foreground and is
    reported as cluster 1.
    """
    frame = result.block.start
    pts: dict[int, list[np.ndarray]] = {0: [], 1: []}
    for tid, raw in result.labels.items():
        t = store.by_id[tid]
        if not t.start_frame <= frame < t.end_frame:
            continue
        pts[1 - raw if flip else raw].append(t.points[frame - t.start_frame])
    return _bbox_area(pts[0]) < _bbox_area(pts[1])


def fuse_blocks(results: Sequence[BlockResult], store: TrajectoryStore) -> dict[int, int]:
    """Reconcile per-block labels into one global labeling, foreground = 1.

    Consecutive blocks vote on cluster correspondence through their
    shared labeled trajectories: if fewer than half agree, the later
    block's labels are flipped. Runs of blocks with no shared
    trajectories are oriented independently (with a warning), each run
    normalized so the cluster with the smaller first-frame bounding box
    in its first block is reported as foreground (label 1). A trajectory
    labeled in several blocks gets its majority label, ties resolved to
    the earliest block.
    """
    if not results:
        raise InvalidParameter("need at least one block result")
    for r in results:
        if any(v not in (0, 1) for v in r.labels.values()):
            raise InvalidParameter("fuse_blocks requires binary labels")

    flips = [False]
    segments = [[0]]
    for b in range(1, len(results)):
        prev = _oriented(results[b - 1].labels, flips[b - 1])
        cur = results[b].labels
        shared = prev.keys() & cur.keys()
        if not shared:
            warnings.warn(
                NoSharedTrajectories(
                    f"blocks {results[b - 1].block.frame_range} and "
                    f"{results[b].block.frame_range} share no labeled trajectory; "
                    "orienting the later run by bounding box"
                )
            )
            flips.append(False)
            segments.append([b])
        else:
            agree = sum(prev[tid] == cur[tid] for tid in shared)
            flips.append(2 * agree < len(shared))
            segments[-1].append(b)

    for seg in segments:
        head = seg[0]
        if _foreground_flip(results[head], store, flips[head]):
            for b in seg:
                flips[b] = not flips[b]

    votes: dict[int, list[tuple[int, int]]] = {}
    for b, result in enumerate(results):
        for tid, lab in _oriented(result.labels, flips[b]).items():
            votes.setdefault(tid, []).append((b, lab))
    fused = {}
    for tid in sorted(votes):
        entries = votes[tid]
        ones = sum(lab for _, lab in entries)
        if 2 * ones > len(entries):
            fused[tid] = 1
        elif 2 * ones < len(entries):
            fused[tid] = 0
        else:
            fused[tid] = min(entries)[1]
    return fused


def segment_store(
    store: TrajectoryStore, params: SegmenterParams, jobs: int = 1
) -> tuple[list[BlockResult], dict[int, int]]:
    """Run the full sparse pipeline: partition, segment each block, fuse.

    Blocks are independent, so ``jobs > 1`` processes them concurrently;
    results are collected in block order either way, so parallel and
    serial runs produce identical output.
    """
    blocks = partition_blocks(store, params)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda blk: segment_block(store, blk, params), blocks))
    else:
        results = [segment_block(store, b, params) for b in blocks]
    return results, fuse_blocks(results, store)
