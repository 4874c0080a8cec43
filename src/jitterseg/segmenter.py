"""Sparse segmentation pipeline over a trajectory store.

The frame range is tiled into blocks sized so that enough trajectories
span each block entirely; a remainder too short to have a shape joins
the block before it when enough trajectories span that far. Within a
block, one spanning trajectory per occupied grid cell is chosen as a
representative; the representatives are clustered once by their
pairwise Procrustes affinity and each cluster is aligned to its GPA
mean, after which trajectories that cover enough of the block are
labeled by their nearest cluster mean. A block yields only these
labels and the two means. Per-block labels are finally reconciled into
one foreground/background labeling, passing over blocks that were
skipped.

A ``TrajectoryStore`` keeps every point once, in one read-only (M, 2)
buffer beside per-track id, first-frame and row-bound columns, and one
vectorized check (``TrajectoryStore._check``) validates them as the
store is built, so no store breaks its rules. Every stage reads these
columns through one gather, ``TrajectoryStore.windows``: the
representatives, the stragglers and the first-frame boxes that orient
the fusion are all rows of it, zero where a track does not cover a
frame, beside their coverage mask, and ``shapes.preshape_rows``
projects them over that mask. No ``Trajectory`` is built between a
parsed file and its labels.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .alignment import (
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
    ParseError,
    TooFewRepresentatives,
    UnknownId,
)
from .shapes import (
    DEGENERACY_EPS,
    Trajectory,
    as_complex,
    preshape_rows,
    procrustes_distance,  # noqa: F401  (bench/tracing.py wraps it here)
    procrustes_residuals,
    project_to_preshape,  # noqa: F401  (bench/tracing.py wraps it here)
    unit_phase,
)

# Slack for fraction thresholds so exact ratios (e.g. 10 of 100 at 0.1)
# are not lost to floating-point representation of the fraction.
_FRACTION_EPS = 1e-9

# Distance ties this close are resolved to the lower cluster index.
_TIE_EPS = 1e-12

# Candidate-frame cells per pass of straggler labeling: bounds the size of
# its (2, rows, frames) complex temporaries on huge blocks.
_STRAGGLER_CELLS = 2**14

# A block needs more representatives than its two clusters: two would be
# cut one apiece, whatever their shapes.
MIN_REPRESENTATIVES = 3

# Any two points have the same shape, so a block needs this many frames
# before its representatives' shapes, not rounding, decide its split.
MIN_SHAPE_FRAMES = 3

# Shortest block ``partition_blocks`` cuts, except a remainder at the end.
MIN_BLOCK_LEN = 10

# Upper bound of every count and size parameter and of ``--jobs``. Larger
# values overflow numpy's integer and array-size arithmetic (a grid cell
# index is cy * g + cx) before they could mean anything. Seeds are only
# bounded below: numpy takes non-negative seeds of any size.
MAX_INT_PARAM = 2**31 - 1


def check_at_most(name: str, value: int) -> None:
    """Raise InvalidParameter when ``value`` exceeds ``MAX_INT_PARAM``."""
    if value > MAX_INT_PARAM:
        raise InvalidParameter(f"{name} must be <= {MAX_INT_PARAM}")


@dataclass(frozen=True, init=False, eq=False)
class TrajectoryStore:
    """All trajectories of a sequence plus its frame count and pixel size.

    The points are kept once, as columns: ``points`` is one read-only
    (M, 2) float buffer, and ``ids``, ``starts`` and ``bounds`` give each
    track, in store order, its id, its first frame and its rows (track
    ``i`` owns ``points[bounds[i]:bounds[i + 1]]``). ``frame_spans`` and
    ``point_rows`` read them in id order without copying a point, and
    ``windows`` is the one gather of many tracks' points over a frame
    range; ``trajectories`` and ``by_id`` are read-only ``Trajectory``
    views of the buffer, built when first used.

    ``TrajectoryStore(trajectories, n_frames_total, frame_size)`` copies
    the tracks' points into a new buffer; ``parse_trajectories`` and the
    synthetic scenes hand over their columns as they are (``_of_columns``).
    Either way the one store check, ``_check``, runs as the store is
    built: ids are distinct, every track ends by ``n_frames_total`` and
    every point is finite and lies in ``[0, width] x [0, height]``. The
    first offending track in store order raises ``DuplicateId`` or
    ``BoundsError``, and no store is made; when the columns were read
    from a file, the error names the track's line. ``n_frames_total`` is
    at least 2 and at most ``MAX_INT_PARAM``, and each side of
    ``frame_size`` is positive and at most ``MAX_INT_PARAM``
    (``InvalidParameter``).
    """

    n_frames_total: int
    frame_size: tuple[int, int]
    ids: np.ndarray = field(repr=False)
    starts: np.ndarray = field(repr=False)
    bounds: np.ndarray = field(repr=False)
    points: np.ndarray = field(repr=False)

    def __init__(self, trajectories, n_frames_total: int, frame_size: tuple[int, int]):
        trajs = tuple(trajectories)
        try:
            ids = np.array([t.id for t in trajs], dtype=np.int64)
            starts = np.array([t.start_frame for t in trajs], dtype=np.int64)
        except OverflowError:
            raise BoundsError("trajectory ids and frames must fit in 64-bit integers") from None
        bounds = np.cumsum([0, *(t.n_points for t in trajs)])
        points = np.concatenate([t.points for t in trajs]) if trajs else np.empty((0, 2))
        self._adopt(ids, starts, bounds, points, n_frames_total, frame_size)

    @classmethod
    def _of_columns(cls, ids, starts, bounds, points, n_frames_total, frame_size, lines=None):
        """A store over int64 columns and an (M, 2) float buffer, not copied.

        The arrays are made read-only. Each track needs at least 2 rows
        and ``bounds`` runs from 0 to M. The store is checked as every
        store is (``_check``); ``lines``, each track's line in the file it
        was read from, makes the error name the offending track's line.
        """
        store = cls.__new__(cls)
        store._adopt(ids, starts, bounds, points, n_frames_total, frame_size, lines)
        return store

    def _adopt(self, ids, starts, bounds, points, n_frames_total, frame_size, lines=None) -> None:
        width, height = frame_size
        if width <= 0 or height <= 0:
            raise InvalidParameter("frame_size must be positive")
        if n_frames_total < 2:
            raise InvalidParameter("n_frames_total must be >= 2")
        check_at_most("n_frames_total", n_frames_total)
        check_at_most("frame_size", max(width, height))
        for column in (ids, starts, bounds, points):
            column.flags.writeable = False
        vars(self).update(n_frames_total=n_frames_total, frame_size=(width, height))
        vars(self).update(ids=ids, starts=starts, bounds=bounds, points=points)
        self._check(lines)

    def _check(self, lines) -> None:
        """Raise the error of the first track in store order that breaks a store rule.

        The rules, in the order one track's faults are reported: its id is
        not an earlier track's (``DuplicateId``), it starts at frame 0 or
        later and ends by ``n_frames_total``, and each point is finite and
        lies in ``[0, frame_size]`` on both axes (``BoundsError``).
        With ``lines`` the message starts with the track's line, a frame
        fault names the range ``[0, n_frames_total)`` and a non-finite
        coordinate is a ``ParseError``. One pass over the columns, with no
        numpy call per track.
        """
        ids, starts, bounds, order = self.ids, self.starts, self.bounds, self._id_order
        repeat = np.zeros(ids.size, dtype=bool)
        repeat[order[1:]] = ids[order[1:]] == ids[order[:-1]]
        frames = (starts < 0) | (starts > self.n_frames_total - np.diff(bounds))
        size = np.array(self.frame_size, dtype=float)
        inside = (self.points >= 0) & (self.points <= size)  # False for NaN too
        bad = repeat | frames
        if not inside.all():  # flat index // 2 is the first offending point's row
            bad[np.searchsorted(bounds, np.argmin(inside) // 2, side="right") - 1] = True
        if not bad.any():
            return
        i = int(np.argmax(bad))
        tid, n = int(ids[i]), self.n_frames_total
        at = "" if lines is None else f"line {lines[i]}: "
        if repeat[i]:
            raise DuplicateId(f"{at}trajectory id {tid} appears twice")
        if frames[i]:
            past = f"covers frames outside [0, {n})" if at else f"extends past frame {n - 1}"
            raise BoundsError(f"{at}trajectory {tid} {past}")
        if not np.isfinite(self.points[bounds[i] : bounds[i + 1]]).all():
            message = f"trajectory {tid} has a non-finite coordinate"
            raise BoundsError(message) if lines is None else ParseError(message, lines[i])
        raise BoundsError(f"{at}trajectory {tid} leaves the frame bounds")

    @cached_property
    def _id_order(self) -> np.ndarray:
        return np.argsort(self.ids, kind="stable")

    @cached_property
    def frame_spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ids, start frames and end frames (one past the last), in id order."""
        order = self._id_order
        return self.ids[order], self.starts[order], (self.starts + np.diff(self.bounds))[order]

    @cached_property
    def point_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """All points as one complex vector, and each id-ordered track's first index.

        The vector is the buffer's complex view, tracks in store order.
        """
        return as_complex(self.points), self.bounds[:-1][self._id_order]

    def windows(self, k, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The id-ordered tracks ``k`` over frames [lo, hi), and where they cover them.

        Returns a (len(k), hi - lo) complex stack, zero where a track does
        not cover a frame, and its boolean coverage mask. ``k`` indexes
        ``frame_spans``; the k-th track has its point at frame ``f`` at
        ``rows[first[k] + f - starts[k]]`` of ``point_rows``, so the rows
        are gathered by index arithmetic, with no Python step per track.
        """
        rows, first = self.point_rows
        _, starts, ends = self.frame_spans
        frames = np.arange(lo, hi)
        mask = (frames >= starts[k, None]) & (frames < ends[k, None])
        # An uncovered frame's index may fall outside the buffer; clipped,
        # it reads some point that the mask then zeroes.
        index = (first[k] - starts[k])[:, None] + frames
        return np.where(mask, rows.take(index, mode="clip"), 0), mask

    @cached_property
    def trajectories(self) -> tuple[Trajectory, ...]:
        """The tracks in store order, each a read-only view of the buffer."""
        pieces = np.split(self.points, self.bounds[1:-1])
        return tuple(map(Trajectory, self.ids.tolist(), self.starts.tolist(), pieces))

    @cached_property
    def by_id(self) -> Mapping[int, Trajectory]:
        return {t.id: t for t in self.trajectories}

    def __len__(self) -> int:
        return self.ids.size


@dataclass(frozen=True)
class Block:
    """A contiguous frame interval [start, end) processed as one unit.

    A block is its frame range and nothing else. Which trajectories span
    it is read from the store by ``select_representatives``, and which
    others cover enough of it to be labeled by ``assign_stragglers``.
    """

    start: int
    end: int

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
    representative grid, blocks of at most 60 frames. The shortest block
    is the constant ``MIN_BLOCK_LEN``, so ``max_block_len`` must be at
    least that. ``lam`` and ``seed`` are checked and recorded
    but do not affect labels: a block's GPA means are never smoothed,
    and the normalized-cut sweep that clusters it has no seed. The
    pipeline segments one moving object, so there are always two
    clusters.
    Every float must be finite, every int at most ``MAX_INT_PARAM`` and
    the seed non-negative (``InvalidParameter`` otherwise).
    """

    omega: float = DEFAULT_OMEGA
    lam: float = 0.2
    span_threshold: float = 0.7
    min_span_fraction: float = 0.1
    grid_cells: int = 16
    seed: int = 0
    max_block_len: int = 60

    def __post_init__(self):
        if not self.omega > 0:
            raise InvalidParameter("omega must be > 0")
        if not self.lam >= 0:
            raise InvalidParameter("lam must be >= 0")
        if self.grid_cells < 1:
            raise InvalidParameter("grid_cells must be >= 1")
        for name in ("grid_cells", "max_block_len"):
            check_at_most(name, getattr(self, name))
        if self.seed < 0:
            raise InvalidParameter("seed must be >= 0")
        for name in ("span_threshold", "min_span_fraction"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise InvalidParameter(f"{name} must be in (0, 1]")
        if self.max_block_len < MIN_BLOCK_LEN:
            raise InvalidParameter(f"max_block_len must be >= {MIN_BLOCK_LEN}")
        # Refuses NaN, inf and an int too large for a float, on which math.isfinite raises.
        for name in ("omega", "lam"):
            if not abs(getattr(self, name)) <= sys.float_info.max:
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
    ``max_block_len``. A trailing remainder shorter than ``MIN_BLOCK_LEN``
    becomes its own block; every block must satisfy the spanning rule.
    A remainder shorter than ``MIN_SHAPE_FRAMES`` could never be
    labeled, so the block before it runs on to the last frame instead
    (up to two frames past ``max_block_len``) when the spanning rule
    holds there; otherwise the remainder stays a block of its own.
    A track spans [s, e) when it starts by frame s and ends no earlier
    than e; a block keeps only its frame range, and
    ``select_representatives`` applies the same rule to the store.
    """
    total = len(store)
    if total == 0:
        raise InvalidParameter("store has no trajectories")
    need = params.min_span_fraction * total - _FRACTION_EPS
    _, starts, ends = store.frame_spans
    blocks = []
    s = 0
    while s < store.n_frames_total:
        e_min = min(s + MIN_BLOCK_LEN, store.n_frames_total)
        e_max = min(s + params.max_block_len, store.n_frames_total)
        candidates = np.arange(e_min, e_max + 1)
        if 0 < store.n_frames_total - e_max < MIN_SHAPE_FRAMES:
            candidates = np.append(candidates, store.n_frames_total)
        # Spanning counts of [s, e) for every candidate end e: the tracks
        # alive at s whose end is at least e.
        alive_ends = np.sort(ends[starts <= s])
        spanning = alive_ends.size - np.searchsorted(alive_ends, candidates)
        valid = spanning >= need
        if not valid[0]:
            raise NoValidBlock(
                f"fewer than {params.min_span_fraction:.0%} of trajectories span "
                f"the minimum-length block at frame {s}"
            )
        # The count never grows with e, so the valid ends are a prefix.
        e = int(candidates[np.count_nonzero(valid) - 1])
        blocks.append(Block(s, e))
        s = e
    return blocks


def select_representatives(
    store: TrajectoryStore, block: Block, params: SegmenterParams
) -> np.ndarray:
    """One spanning trajectory per occupied grid cell of the block's first frame.

    The spanning trajectories are the store's tracks that start by the
    block's first frame and end no earlier than its end, the rule
    ``partition_blocks`` counts. Within a cell the trajectory whose
    first-frame position lies nearest the cell center wins; distance ties
    go to the lowest id. A trajectory that does not move over the block
    (centered norm below ``DEGENERACY_EPS``) has no shape and is never
    chosen; its cell goes to the next-nearest one. A block shorter than
    ``MIN_SHAPE_FRAMES`` has no representatives: any two points have the
    same shape, so rounding would decide the split. Returns the chosen
    rows of ``store.frame_spans`` as an ascending int64 array, so they run
    in id order; fewer than ``MIN_REPRESENTATIVES`` raise
    ``TooFewRepresentatives``.
    """
    _, starts, ends = store.frame_spans
    k = np.flatnonzero((starts <= block.start) & (ends >= block.end))
    reps = k[:0]
    if k.size and block.length >= MIN_SHAPE_FRAMES:
        g = params.grid_cells
        cell_size = np.array(store.frame_size, dtype=float)[:, None] / g
        z = store.windows(k, block.start, block.end)[0]
        moving = preshape_rows(z)[1] >= DEGENERACY_EPS
        # First-frame positions as a (2, K) array: one row per axis.
        k, xy = k[moving], np.stack((z[moving, 0].real, z[moving, 0].imag))
        ij = np.minimum((xy // cell_size).astype(np.int64), g - 1)
        d2 = ((xy - (ij + 0.5) * cell_size) ** 2).sum(axis=0)  # dx² + dy²
        cell = ij[1] * g + ij[0]
        order = np.lexsort((k, d2, cell))  # k runs in id order
        first = np.ones(order.size, dtype=bool)
        first[1:] = cell[order][1:] != cell[order][:-1]
        reps = np.sort(k[order[first]])
    if len(reps) < MIN_REPRESENTATIVES:
        raise TooFewRepresentatives(
            f"{len(reps)} representatives in block {block.frame_range}, "
            f"need at least {MIN_REPRESENTATIVES}"
        )
    return reps


def segment_block(store: TrajectoryStore, block: Block, params: SegmenterParams) -> BlockResult:
    """Cluster and align one block's representatives, then label.

    One pass: the representatives' pairwise Procrustes affinity is
    spectrally clustered, each cluster is aligned to its GPA mean, and
    every qualifying non-representative is labeled by its nearest mean.
    The representatives are one (K, N) complex pre-shape stack, gathered
    by their store rows and projected by ``preshape_rows``; none is
    motionless, since ``select_representatives`` keeps only moving
    tracks. Their ids are taken once, for the labels.
    """
    reps = select_representatives(store, block, params)
    z = preshape_rows(store.windows(reps, block.start, block.end)[0])[0]
    assignment = spectral_cluster(build_affinity(z, params.omega))
    means = tuple(gpa_align(z, assignment.members(c)).mean for c in (0, 1))
    labels = dict(zip(store.frame_spans[0][reps].tolist(), assignment.labels))
    result = BlockResult(block, labels, means)
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
    all of them when every cropped mean is motionless. So does a window
    of fewer than ``MIN_SHAPE_FRAMES`` frames, the rule blocks follow:
    any two points have the same shape, so both cropped means would sit
    at distance ~0 from it and the tie rule, not the track, would pick
    cluster 0.

    All candidates are labeled together (``_nearest_means``), in passes
    of at most ``_STRAGGLER_CELLS`` candidate frames: each is its
    ``TrajectoryStore.windows`` row over the block's frames, zero outside
    its overlap window, beside that window as a mask.
    """
    labels = dict(result.labels)
    if not result.means:
        return labels
    ids, starts, ends = store.frame_spans
    width = np.minimum(block.end, ends) - np.maximum(block.start, starts)
    candidate = np.flatnonzero(
        (width >= MIN_SHAPE_FRAMES)
        & (width / block.length >= params.span_threshold - _FRACTION_EPS)
        & ~np.isin(ids, np.fromiter(labels, dtype=np.int64, count=len(labels)))
    )
    means = as_complex(np.array(result.means))
    step = max(1, _STRAGGLER_CELLS // block.length)
    for c0 in range(0, candidate.size, step):
        k = candidate[c0 : c0 + step]
        tracks, window = store.windows(k, block.start, block.end)
        for tid, lab in zip(ids[k].tolist(), _nearest_means(tracks, window, means).tolist()):
            if lab >= 0:
                labels[tid] = lab
    return labels


def _nearest_means(tracks: np.ndarray, window: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Per track, the index of the nearest mean over the track's window, or -1.

    ``tracks`` is a (C, L) complex stack over the (C, L) mask ``window``;
    ``means`` is (M, L). ``preshape_rows`` projects the tracks over their
    windows, and the means broadcast over the same windows, which crops
    every mean to every track's window as an (M, C, L) stack. The
    distance is the literal residual ``||t - u m||`` of
    ``procrustes_residuals``, ``u`` the unit phase of ``<m, t>`` that
    rotates the mean onto the track. A mean within ``_TIE_EPS`` of the
    nearest counts as a tie, which the lower index wins. A motionless
    track, or one whose cropped means are all motionless, gets -1.
    """
    t, t_norms = preshape_rows(tracks, window)
    m, m_norms = preshape_rows(means[:, None, :], window)
    dist = procrustes_residuals(t, m, unit_phase(np.einsum("cl,kcl->kc", t, m.conj())))
    dist[m_norms < DEGENERACY_EPS] = np.inf
    d_min = dist.min(axis=0)
    nearest = np.argmax(dist < d_min + _TIE_EPS, axis=0)
    return np.where((t_norms >= DEGENERACY_EPS) & np.isfinite(d_min), nearest, -1)


def _foreground_flip(result: BlockResult, store: TrajectoryStore) -> bool:
    """True when cluster 0 has the smaller bounding box.

    The box is taken over the first-frame positions of the block's
    labeled trajectories; the smaller cluster is the foreground and is
    reported as cluster 1. A cluster with no such position has an
    infinite box.
    """
    frame, n = result.block.start, len(result.labels)
    # ``fuse_blocks`` has checked that the store holds every id.
    k = np.searchsorted(store.frame_spans[0], np.fromiter(result.labels, dtype=np.int64, count=n))
    labels = np.fromiter(result.labels.values(), dtype=np.int64, count=n)
    z, alive = store.windows(k, frame, frame + 1)
    pts = [z[alive[:, 0] & (labels == c), 0] for c in (0, 1)]
    area = [np.ptp(p.real) * np.ptp(p.imag) if p.size else np.inf for p in pts]
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
    the earliest block. A label for an id the store lacks is
    ``UnknownId``, raised for the first such id in block order.
    """
    if not results:
        raise InvalidParameter("need at least one block result")
    known = set(store.frame_spans[0].tolist())
    for r in results:
        if any(v not in (0, 1) for v in r.labels.values()):
            raise InvalidParameter("fuse_blocks requires binary labels")
        unknown = next((tid for tid in r.labels if tid not in known), None)
        if unknown is not None:
            raise UnknownId(f"block {r.block.frame_range} labels unknown trajectory id {unknown}")

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
