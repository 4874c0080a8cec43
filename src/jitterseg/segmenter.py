"""Sparse segmentation pipeline over a trajectory store.

The frame range is tiled into blocks sized so that enough trajectories
span each block entirely. Within a block, one spanning trajectory per
occupied grid cell is chosen as a representative; the representatives
are clustered once by their pairwise Procrustes affinity and each
cluster is aligned to its GPA mean, after which trajectories that cover
enough of the block are labeled by their nearest cluster mean. A block
yields only these labels and the two means. Per-block labels are
finally reconciled into one foreground/background labeling, passing
over blocks that were skipped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
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
    Trajectory,
    _check_preshapes,
    as_complex,
    preshape_rows,
    procrustes_distance,  # noqa: F401  (bench/tracing.py wraps it here)
    procrustes_residuals,
    project_rows,
    project_to_preshape,  # noqa: F401  (bench/tracing.py wraps it here)
    unit_phase,
)

# Slack for fraction thresholds so exact ratios (e.g. 10 of 100 at 0.1)
# are not lost to floating-point representation of the fraction.
_FRACTION_EPS = 1e-9

# Distance ties this close are resolved to the lower cluster index.
_TIE_EPS = 1e-12

# Points per group in TrajectoryStore's bounds check (64 KiB of float pairs).
_CHECK_ROWS = 4096

# Candidate-frame cells per pass of straggler labeling: bounds the size of
# its (3, rows, frames) complex temporaries on huge blocks.
_STRAGGLER_CELLS = 2**14

# Upper bound of every count and size parameter and of ``--jobs``. Larger
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
    # Ids, start frames and end frames (one past the last), in id order.
    frame_spans: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

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
        ids, starts, ends = spans.T
        order = np.argsort(ids, kind="stable")
        object.__setattr__(self, "frame_spans", tuple(spans[order].T.copy()))
        if not trajs:
            return
        repeat = np.zeros(len(trajs), dtype=bool)
        repeat[order[1:]] = ids[order[1:]] == ids[order[:-1]]
        past_end = ends > self.n_frames_total
        bad = repeat | past_end | self._leaving_frame(ends - starts)
        if bad.any():
            i = int(np.argmax(bad))
            tid = trajs[i].id
            if repeat[i]:
                raise DuplicateId(f"trajectory id {tid} appears twice")
            if past_end[i]:
                raise BoundsError(f"trajectory {tid} extends past frame {self.n_frames_total - 1}")
            raise BoundsError(f"trajectory {tid} leaves the frame bounds")

    def _leaving_frame(self, counts: np.ndarray) -> np.ndarray:
        """Per track, whether some point lies outside [0, width] x [0, height].

        ``counts`` holds each track's number of points, in store order.

        Tracks are checked in consecutive groups of about ``_CHECK_ROWS``
        points, each group concatenated into one small array: one
        whole-store copy would be a large temporary, and freeing it makes
        glibc keep about twice its size of heap resident afterwards.
        """
        width, height = self.frame_size
        trajs = self.trajectories
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
    def point_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """All points as one complex vector, tracks in id order, and each track's first index.

        The k-th track of ``frame_spans`` has its point at frame ``f`` at
        ``rows[first[k] + f - starts[k]]``, so the windows of many tracks
        are gathered by index arithmetic, with no Python step per track.
        """
        ids, starts, ends = self.frame_spans
        by_id = self.by_id
        points = [by_id[tid].points for tid in ids.tolist()]
        rows = as_complex(np.concatenate(points)) if points else np.empty(0, complex)
        counts = ends - starts
        return rows, np.cumsum(counts) - counts

    def __len__(self) -> int:
        return len(self.trajectories)


@dataclass(frozen=True)
class Block:
    """A contiguous frame interval [start, end) processed as one unit.

    ``spanning_ids`` are the trajectories that cover every frame of it,
    in ascending order. Which other trajectories cover enough of it to be
    labeled is decided by ``assign_stragglers``.
    """

    start: int
    end: int
    spanning_ids: tuple[int, ...]

    def __post_init__(self):
        if self.end <= self.start:
            raise InvalidBlock("block frame range is empty")

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
    representative grid. ``lam``, ``outer_iters``, ``jacobi_iters`` and
    ``seed`` are checked and recorded but do not affect labels: the
    normalized-cut sweep that clusters a block has no seed. The pipeline
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
    """Labels and cluster means for one block.

    ``labels`` maps trajectory id to cluster index (0 or 1) for the
    representatives and the stragglers. ``means`` holds each cluster's
    GPA mean, an (N, 2) array over the block's frames (read-only, as
    ``gpa_align`` returns it). A skipped block has neither.
    """

    block: Block
    labels: dict[int, int]
    means: tuple[np.ndarray, ...]


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
    ids, starts, ends = store.frame_spans
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
        spanning_ids = ids[(starts <= s) & (ends >= e)]
        blocks.append(Block(s, e, tuple(spanning_ids.tolist())))
        s = e
    return blocks


def _windows(store: TrajectoryStore, ids, lo: int, hi: int) -> np.ndarray:
    """(len(ids), N) complex stack of the trajectories' points over [lo, hi).

    Every one of the trajectories must cover [lo, hi).
    """
    rows, first = store.point_rows
    span_ids, starts, _ = store.frame_spans
    k = np.searchsorted(span_ids, ids)
    return rows[(first[k] - starts[k] + lo)[:, None] + np.arange(hi - lo)]


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
    assignment = spectral_cluster(build_affinity(z, params.omega))
    means = tuple(gpa_align(z, assignment.members(c)).mean for c in (0, 1))
    result = BlockResult(block, dict(zip(reps, assignment.labels)), means)
    return replace(result, labels=assign_stragglers(result, store, block, params))


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

    All candidates are labeled together (``_nearest_means``), in passes
    of at most ``_STRAGGLER_CELLS`` candidate frames: each is a row over
    the block's frames, zero outside its overlap window, gathered from
    the store's one point vector by index arithmetic.
    """
    labels = dict(result.labels)
    if not result.means:
        return labels
    ids, starts, ends = store.frame_spans
    lo = np.maximum(block.start, starts)
    hi = np.minimum(block.end, ends)
    width = hi - lo
    candidate = np.flatnonzero(
        (width >= 2)
        & (width / block.length >= params.span_threshold - _FRACTION_EPS)
        & ~np.isin(ids, np.fromiter(labels, dtype=np.int64, count=len(labels)))
    )
    means = as_complex(np.array(result.means))
    rows, first = store.point_rows
    frames = np.arange(block.start, block.end)
    step = max(1, _STRAGGLER_CELLS // block.length)
    for c0 in range(0, candidate.size, step):
        k = candidate[c0 : c0 + step]
        window = (frames >= lo[k, None]) & (frames < hi[k, None])
        index = np.where(window, first[k, None] - starts[k, None] + frames, 0)
        tracks = np.where(window, rows[index], 0)
        for tid, lab in zip(ids[k].tolist(), _nearest_means(tracks, window, means).tolist()):
            if lab >= 0:
                labels[tid] = lab
    return labels


def _nearest_means(tracks: np.ndarray, window: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Per track, the index of the nearest mean over the track's window, or -1.

    ``tracks`` is a (C, L) complex stack, zero outside the (C, L) mask
    ``window``; ``means`` is (M, L). Each mean is cropped to each track's
    window, giving an (M, C, L) stack beside the tracks. Every row is
    centered twice and scaled to unit norm with sums over its window, as
    ``preshape_rows`` does, and a row whose centered norm is below
    ``DEGENERACY_EPS`` has no shape. The distance is the literal
    residual ``||t - u m||`` of ``procrustes_residuals``, ``u`` the unit
    phase of ``<m, t>`` that rotates the mean onto the track. A mean
    within ``_TIE_EPS`` of the nearest counts as a tie, which the lower
    index wins. A motionless track, or one whose cropped means are all
    motionless, gets -1.
    """
    n = np.count_nonzero(window, axis=1)[:, None]
    z = np.concatenate((tracks[None], np.where(window, means[:, None, :], 0)))
    # A second pass removes what the rounded mean leaves behind.
    for _ in range(2):
        z = np.where(window, z - z.sum(axis=-1, keepdims=True) / n, 0)
    flat = z.view(float)
    norms = np.sqrt(np.einsum("...i,...i->...", flat, flat))
    ok = norms >= DEGENERACY_EPS
    pre = (flat / np.where(ok, norms, np.inf)[..., None]).view(complex)
    _check_preshapes(pre[ok])
    t, m = pre[0], pre[1:]
    dist = procrustes_residuals(t, m, unit_phase(np.einsum("cl,kcl->kc", t, m.conj())))
    dist[~ok[1:]] = np.inf
    d_min = dist.min(axis=0)
    nearest = np.argmax(dist < d_min + _TIE_EPS, axis=0)
    return np.where(ok[0] & np.isfinite(d_min), nearest, -1)


def _foreground_flip(result: BlockResult, store: TrajectoryStore) -> bool:
    """True when cluster 0 has the smaller bounding box.

    The box is taken over the first-frame positions of the block's
    labeled trajectories; the smaller cluster is the foreground and is
    reported as cluster 1. A cluster with no such position has an
    infinite box.
    """
    frame = result.block.start
    pts: dict[int, list[np.ndarray]] = {0: [], 1: []}
    for tid, lab in result.labels.items():
        t = store.by_id[tid]
        if t.start_frame <= frame < t.end_frame:
            pts[lab].append(t.points[frame - t.start_frame])
    area = [np.prod(np.ptp(pts[c], axis=0)) if pts[c] else np.inf for c in (0, 1)]
    return bool(area[0] < area[1])


def fuse_blocks(results: Sequence[BlockResult], store: TrajectoryStore) -> dict[int, int]:
    """Reconcile per-block labels into one global labeling, foreground = 1.

    Only labeled blocks take part: a skipped block (no labels) is passed
    over, so the labeled blocks on either side of it vote directly.
    Consecutive labeled blocks vote on cluster correspondence through
    their shared labeled trajectories: if fewer than half agree, the
    later block's labels are flipped. Runs of blocks with no shared
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

    # One pass. ``rel`` is a block's flip relative to the head of its run
    # and ``run_flip`` the head's bounding-box flip; a block's labels are
    # flipped by their XOR. Agreement is counted against the previous
    # block's relative orientation, so an exact tie keeps it whatever the
    # bounding box says.
    votes: dict[int, list[int]] = {}  # per track: ones, count, earliest label
    prev = None
    for result in (r for r in results if r.labels):
        cur = result.labels
        shared = prev.labels.keys() & cur.keys() if prev is not None else ()
        if shared:
            agree = sum(prev.labels[tid] ^ rel == cur[tid] for tid in shared)
            rel = 2 * agree < len(shared)
        else:
            if prev is not None:
                warnings.warn(
                    NoSharedTrajectories(
                        f"blocks {prev.block.frame_range} and "
                        f"{result.block.frame_range} share no labeled trajectory; "
                        "orienting the later run by bounding box"
                    )
                )
            rel, run_flip = False, _foreground_flip(result, store)
        for tid, raw in cur.items():
            lab = raw ^ (rel != run_flip)
            vote = votes.setdefault(tid, [0, 0, lab])
            vote[0] += lab
            vote[1] += 1
        prev = result
    return {
        tid: first if 2 * ones == n else int(2 * ones > n)
        for tid, (ones, n, first) in sorted(votes.items())
    }


def segment_store(
    store: TrajectoryStore, params: SegmenterParams
) -> tuple[list[BlockResult], dict[int, int]]:
    """Run the full sparse pipeline: partition, segment each block, fuse.

    Blocks are segmented one after another on the calling thread. Their
    work is short numpy calls that hold the interpreter lock, so worker
    threads only contend for it and for the BLAS threads.

    A block with too few representatives is left unlabeled (an empty
    ``BlockResult``) with a ``BlockSkipped`` warning naming its frame
    range; when every block fails, the first block's
    ``TooFewRepresentatives`` is raised.
    """
    blocks = partition_blocks(store, params)
    results = []
    skipped = []  # (block, error) per block left unlabeled
    for block in blocks:
        try:
            results.append(segment_block(store, block, params))
        except TooFewRepresentatives as exc:
            results.append(BlockResult(block, {}, ()))
            skipped.append((block, exc))
    if len(skipped) == len(blocks):
        raise skipped[0][1]
    for block, exc in skipped:
        warnings.warn(BlockSkipped(f"block {block.frame_range} left unlabeled: {exc}"))
    return results, fuse_blocks(results, store)
