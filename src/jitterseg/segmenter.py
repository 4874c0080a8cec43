"""Sparse segmentation pipeline over a trajectory store.

The frame range is tiled into blocks sized so that enough trajectories
span each block entirely. Within a block, one spanning trajectory per
occupied grid cell is chosen as a representative; the representatives
are clustered once by their pairwise Procrustes affinity and each
cluster is aligned to its GPA mean, after which trajectories that cover
enough of the block are labeled by their nearest cluster mean. Per-block
labels are finally reconciled into one foreground/background labeling.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .alignment import (
    DEFAULT_JACOBI_ITERS,
    back_transform,  # noqa: F401  (bench/tracing.py wraps it here)
    gpa_align,
    stabilize_mean,  # noqa: F401  (bench/tracing.py wraps it here)
)
from .clustering import DEFAULT_OMEGA, build_affinity, spectral_cluster
from .errors import (
    BlockSkipped,
    BoundsError,
    DuplicateId,
    InvalidBlock,
    InvalidParameter,
    NoSharedTrajectories,
    NoValidBlock,
    TooFewRepresentatives,
)
from .shapes import (
    DEGENERACY_EPS,
    Rotation2D,
    Trajectory,
    as_complex,
    preshape_rows,
    procrustes_distance,  # noqa: F401  (bench/tracing.py wraps it here)
    project_rows,
    project_to_preshape,  # noqa: F401  (bench/tracing.py wraps it here)
    rotation_from_phase,
    unit_phase,
)

# Slack for fraction thresholds so exact ratios (e.g. 10 of 100 at 0.1)
# are not lost to floating-point representation of the fraction.
_FRACTION_EPS = 1e-9

# Distance ties this close are resolved to the lower cluster index.
_TIE_EPS = 1e-12

# Points per group in TrajectoryStore's bounds check (64 KiB of float pairs).
_CHECK_ROWS = 4096

# Upper bound of every count and size parameter and of ``jobs``. Larger
# values overflow numpy's integer and array-size arithmetic (a grid cell
# index is cy * g + cx) before they could mean anything. Seeds are only
# bounded below: numpy takes non-negative seeds of any size.
MAX_INT_PARAM = 2**31 - 1


def check_at_most(name: str, value: int) -> None:
    """Raise InvalidParameter when ``value`` exceeds ``MAX_INT_PARAM``."""
    if value > MAX_INT_PARAM:
        raise InvalidParameter(f"{name} must be <= {MAX_INT_PARAM}")


@dataclass(frozen=True)
class TrajectoryStore:
    """All trajectories of a sequence plus its frame count and pixel size.

    Ids must be distinct, every track must end by ``n_frames_total`` and
    every point must lie in ``[0, width] x [0, height]``. These checks are
    vectorized over all tracks, with no numpy call per track, and the
    first offending track in order is reported (``DuplicateId`` or
    ``BoundsError``).
    """

    trajectories: tuple[Trajectory, ...]
    n_frames_total: int
    frame_size: tuple[int, int]
    # Ids, start frames and end frames in store order.
    _spans: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        trajs = tuple(self.trajectories)
        object.__setattr__(self, "trajectories", trajs)
        object.__setattr__(self, "frame_size", tuple(self.frame_size))
        width, height = self.frame_size
        if width <= 0 or height <= 0:
            raise InvalidParameter("frame_size must be positive")
        if self.n_frames_total < 2:
            raise InvalidParameter("n_frames_total must be >= 2")
        try:
            spans = np.array(
                [(t.id, t.start_frame, t.end_frame) for t in trajs], dtype=np.int64
            ).reshape(-1, 3)
        except OverflowError:
            raise BoundsError("trajectory ids and frames must fit in 64-bit integers") from None
        ids, _, ends = spans.T
        object.__setattr__(self, "_spans", tuple(spans.T))
        if not trajs:
            return
        order = np.argsort(ids, kind="stable")
        repeat = np.zeros(len(trajs), dtype=bool)
        repeat[order[1:]] = ids[order[1:]] == ids[order[:-1]]
        past_end = ends > self.n_frames_total
        bad = repeat | past_end | self._leaving_frame()
        if bad.any():
            i = int(np.argmax(bad))
            tid = trajs[i].id
            if repeat[i]:
                raise DuplicateId(f"trajectory id {tid} appears twice")
            if past_end[i]:
                raise BoundsError(f"trajectory {tid} extends past frame {self.n_frames_total - 1}")
            raise BoundsError(f"trajectory {tid} leaves the frame bounds")

    def _leaving_frame(self) -> np.ndarray:
        """Per track, whether some point lies outside [0, width] x [0, height].

        Tracks are checked in consecutive groups of about ``_CHECK_ROWS``
        points, each group concatenated into one small array: one
        whole-store copy would be a large temporary, and freeing it makes
        glibc keep about twice its size of heap resident afterwards.
        """
        width, height = self.frame_size
        trajs = self.trajectories
        counts = np.array([t.n_points for t in trajs])
        firsts = np.cumsum(counts) - counts  # each track's first row in the store
        leaving = np.empty(len(trajs), dtype=bool)
        lo = 0
        while lo < len(trajs):
            hi = max(lo + 1, int(np.searchsorted(firsts, firsts[lo] + _CHECK_ROWS)))
            points = np.concatenate([t.points for t in trajs[lo:hi]])
            x, y = points[:, 0], points[:, 1]
            outside = ~((x >= 0) & (x <= width) & (y >= 0) & (y <= height))
            leaving[lo:hi] = np.logical_or.reduceat(outside, firsts[lo:hi] - firsts[lo])
            lo = hi
        return leaving

    @cached_property
    def by_id(self) -> Mapping[int, Trajectory]:
        return {t.id: t for t in self.trajectories}

    @cached_property
    def frame_spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ids, start frames and end frames (one past the last), in id order."""
        order = np.argsort(self._spans[0])
        return tuple(column[order] for column in self._spans)

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
            raise InvalidBlock("block frame range is empty")
        if set(self.spanning_ids) & set(self.partial_ids):
            raise InvalidBlock("spanning_ids and partial_ids overlap")

    @property
    def length(self) -> int:
        return self.end - self.start

    @property
    def frame_range(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass(frozen=True)
class SegmenterParams:
    """Tuning constants of the sparse segmentation pipeline.

    Defaults: affinity bandwidth 0.02, 70% coverage threshold for late
    labeling, 10% minimum spanning fraction per block, a 16x16
    representative grid. ``lam``, ``outer_iters`` and ``jacobi_iters``
    are checked and recorded but do not affect labels. The pipeline
    segments one moving object, so there are always ``m = 2`` clusters.
    Every float must be finite, every int at most ``MAX_INT_PARAM`` and
    the seed non-negative (``InvalidParameter`` otherwise).
    """

    omega: float = DEFAULT_OMEGA
    lam: float = 0.2
    outer_iters: int = 3
    jacobi_iters: int = DEFAULT_JACOBI_ITERS
    m: int = field(default=2, init=False)
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
        for name in ("outer_iters", "jacobi_iters", "grid_cells", "max_block_len", "min_block_len"):
            check_at_most(name, getattr(self, name))
        if self.seed < 0:
            raise InvalidParameter("seed must be >= 0")
        for name in ("span_threshold", "min_span_fraction"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise InvalidParameter(f"{name} must be in (0, 1]")
        if self.max_block_len < self.min_block_len:
            raise InvalidParameter("max_block_len must be >= min_block_len")
        for name in ("omega", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameter(f"{name} must be finite")


@dataclass(frozen=True)
class BlockResult:
    """Labels, cluster means, and rotations for one block.

    ``means`` holds each cluster's GPA mean, an (N, 2) array over the
    block's frames (read-only, as ``gpa_align`` returns it).
    """

    block: Block
    labels: dict[int, int]
    means: tuple[np.ndarray, ...]
    rotations: dict[int, Rotation2D] = field(default_factory=dict)


def _make_block(store: TrajectoryStore, start: int, end: int, params: SegmenterParams) -> Block:
    ids, starts, ends = store.frame_spans
    spanning = (starts <= start) & (ends >= end)
    overlap = np.maximum(np.minimum(end, ends) - np.maximum(start, starts), 0)
    partial = ~spanning & (overlap / (end - start) >= params.span_threshold - _FRACTION_EPS)
    return Block(start, end, tuple(ids[spanning].tolist()), tuple(ids[partial].tolist()))


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
    _, starts, ends = store.frame_spans
    blocks = []
    s = 0
    while s < store.n_frames_total:
        e_min = min(s + params.min_block_len, store.n_frames_total)
        e_max = min(s + params.max_block_len, store.n_frames_total)
        # Spanning counts of [s, e) for every candidate end e: the tracks
        # alive at s whose end is at least e.
        alive_ends = np.sort(ends[starts <= s])
        spanning = alive_ends.size - np.searchsorted(alive_ends, np.arange(e_min, e_max + 1))
        valid = spanning >= need
        if not valid[0]:
            raise NoValidBlock(
                f"fewer than {params.min_span_fraction:.0%} of trajectories span "
                f"the minimum-length block at frame {s}"
            )
        # The count never grows with e, so the valid ends are a prefix.
        e = e_min + int(np.count_nonzero(valid)) - 1
        blocks.append(_make_block(store, s, e, params))
        s = e
    return blocks


def _windows(store: TrajectoryStore, ids, lo: int, hi: int) -> np.ndarray:
    """(len(ids), N) complex stack of the trajectories' points over [lo, hi)."""
    by_id = store.by_id
    rows = [by_id[tid] for tid in ids]
    return as_complex(np.array([t.points[lo - t.start_frame : hi - t.start_frame] for t in rows]))


def select_representatives(
    store: TrajectoryStore, block: Block, params: SegmenterParams
) -> list[int]:
    """One spanning trajectory per occupied grid cell of the block's first frame.

    Within a cell the trajectory whose first-frame position lies nearest
    the cell center wins; distance ties go to the lowest id. A trajectory
    that does not move over the block (centered norm below
    ``DEGENERACY_EPS``) has no shape and is never chosen; its cell goes to
    the next-nearest one. A block of one or two frames has no
    representatives: any two points have the same shape, so rounding
    would decide the split. Ids are returned in ascending order.
    """
    ids = np.array(block.spanning_ids, dtype=np.int64)
    reps: list[int] = []
    if ids.size and block.length >= 3:
        width, height = store.frame_size
        g = params.grid_cells
        cell_w = width / g
        cell_h = height / g
        z = _windows(store, block.spanning_ids, block.start, block.end)
        moving = preshape_rows(z)[1] >= DEGENERACY_EPS
        x, y = z[moving, 0].real, z[moving, 0].imag
        cx = np.minimum((x // cell_w).astype(np.int64), g - 1)
        cy = np.minimum((y // cell_h).astype(np.int64), g - 1)
        d2 = (x - (cx + 0.5) * cell_w) ** 2 + (y - (cy + 0.5) * cell_h) ** 2
        cell = cy * g + cx
        order = np.lexsort((ids[moving], d2, cell))
        first = np.ones(order.size, dtype=bool)
        first[1:] = cell[order][1:] != cell[order][:-1]
        reps = sorted(ids[moving][order[first]].tolist())
    if len(reps) < params.m + 1:
        raise TooFewRepresentatives(
            f"{len(reps)} representatives in block {block.frame_range}, "
            f"need at least {params.m + 1}"
        )
    return reps


def segment_block(store: TrajectoryStore, block: Block, params: SegmenterParams) -> BlockResult:
    """Cluster and align one block's representatives, then label.

    One pass: the representatives' pairwise Procrustes affinity is
    spectrally clustered, each cluster is aligned to its GPA mean, and
    every qualifying non-representative is labeled by its nearest mean.
    The representatives are one (K, N) complex pre-shape stack.
    """
    reps = select_representatives(store, block, params)
    z = project_rows(_windows(store, reps, block.start, block.end))
    assignment = spectral_cluster(build_affinity(z, params.omega), params.m, params.seed)
    phases = np.empty(len(reps), dtype=complex)
    means = []
    for c in range(params.m):
        idx = assignment.members(c)
        gpa = gpa_align(z, idx)
        means.append(gpa.mean)
        phases[idx] = gpa.phases

    labels = dict(zip(reps, assignment.labels))
    rotations = {rid: rotation_from_phase(w) for rid, w in zip(reps, phases)}
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
    the cluster whose mean is nearest in Procrustes distance,
    with both the trajectory and the mean rows cropped to the overlap
    window and re-projected to the pre-shape sphere first. Near-exact
    ties go to the lower cluster index. Trajectories below the coverage
    threshold (or with a motionless window) stay unlabeled, and so do
    all of them when every cropped mean is motionless.

    Candidates sharing an overlap window ``[lo, hi)`` are labeled
    together: one matmul gives every <mean, track> inner product, whose
    unit phase ``u`` rotates the mean onto the track, and the distance is
    the literal residual ``||t - u m||``.
    """
    labels = dict(result.labels)
    if not result.means:
        return labels
    ids, starts, ends = store.frame_spans
    lo = np.maximum(block.start, starts)
    hi = np.minimum(block.end, ends)
    width = hi - lo
    candidate = (
        (width >= 2)
        & (width / block.length >= params.span_threshold - _FRACTION_EPS)
        & ~np.isin(ids, np.fromiter(labels, dtype=np.int64, count=len(labels)))
    )
    ids, lo, hi = ids[candidate], lo[candidate], hi[candidate]
    means = as_complex(np.array(result.means))
    n_means = len(means)
    found = np.full(ids.size, -1)
    for a, b in sorted(set(zip(lo.tolist(), hi.tolist()))):
        group = np.flatnonzero((lo == a) & (hi == b))
        rows = np.concatenate(
            (
                means[:, a - block.start : b - block.start],
                _windows(store, ids[group].tolist(), a, b),
            )
        )
        pre, norms = preshape_rows(rows)
        cropped, tracks = pre[:n_means], pre[n_means:]
        u = unit_phase(tracks @ cropped.conj().T)
        # (track, mean, frame) residuals, summed over their (x, y) parts.
        resid = (tracks[:, None, :] - u[:, :, None] * cropped[None, :, :]).view(float)
        dist = np.sqrt(np.einsum("gcn,gcn->gc", resid, resid))
        dist[:, norms[:n_means] < DEGENERACY_EPS] = np.inf
        d_min = dist.min(axis=1)
        nearest = np.argmax(dist < d_min[:, None] + _TIE_EPS, axis=1)
        usable = (norms[n_means:] >= DEGENERACY_EPS) & np.isfinite(d_min)
        found[group] = np.where(usable, nearest, -1)
    for tid, lab in zip(ids.tolist(), found.tolist()):
        if lab >= 0:
            labels[tid] = lab
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


def check_jobs(jobs: int) -> None:
    """Raise InvalidParameter unless ``jobs`` is a usable worker count."""
    if jobs < 1:
        raise InvalidParameter(f"jobs must be >= 1, got {jobs}")
    check_at_most("jobs", jobs)


def segment_store(
    store: TrajectoryStore, params: SegmenterParams, jobs: int = 1
) -> tuple[list[BlockResult], dict[int, int]]:
    """Run the full sparse pipeline: partition, segment each block, fuse.

    Blocks are independent, so ``jobs > 1`` processes them concurrently;
    results are collected in block order either way, so parallel and
    serial runs produce identical output. ``jobs < 1`` raises
    InvalidParameter.

    A block with too few representatives is left unlabeled (an empty
    ``BlockResult``) with a ``BlockSkipped`` warning naming its frame
    range; when every block fails, the first block's
    ``TooFewRepresentatives`` is raised.
    """
    check_jobs(jobs)
    blocks = partition_blocks(store, params)

    def run(block: Block) -> BlockResult | TooFewRepresentatives:
        try:
            return segment_block(store, block, params)
        except TooFewRepresentatives as exc:
            return exc

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run, blocks))
    else:
        outcomes = [run(b) for b in blocks]
    if all(isinstance(o, TooFewRepresentatives) for o in outcomes):
        raise outcomes[0]
    results = []
    for block, outcome in zip(blocks, outcomes):
        if isinstance(outcome, TooFewRepresentatives):
            warnings.warn(BlockSkipped(f"block {block.frame_range} left unlabeled: {outcome}"))
            outcome = BlockResult(block, {}, ())
        results.append(outcome)
    return results, fuse_blocks(results, store)
