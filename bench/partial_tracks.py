"""Cut a full-span synthetic scene into partial tracks.

Real point trackers (Brox & Malik, ECCV 2010) give tracks that are born,
die and break at occlusions; ``jitterseg.synth`` only makes tracks that
span the whole sequence. This module turns a full-span scene into one
with births, deaths and occlusion gaps, so block partitioning, straggler
windows cropped to a partial overlap and fusion across block boundaries
all do real work.

Every choice is a deterministic function of the seed. A share of the
tracks is left full-span so that at least ``MIN_SPAN_FRACTION`` of all
output tracks span every ``MIN_BLOCK_LEN``-frame window, which is what
``partition_blocks`` needs at its default parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from jitterseg.segmenter import TrajectoryStore
from jitterseg.shapes import Trajectory
from jitterseg.synth import LabeledScene

# Share of input tracks kept full-span. Occlusion splits add at most one
# id per cut track, so at least 0.25 / 1.75 > 14% of output ids span
# every window.
FULL_SPAN_SHARE = 0.25
# Lifetime of a cut track, as a share of the sequence.
MIN_LIFE_SHARE = 0.15
# Chance that a cut track is broken by one occlusion gap, and the gap
# length range in frames.
GAP_CHANCE = 0.4
GAP_FRAMES = (3, 15)
# Shortest piece kept on either side of a gap.
MIN_PIECE = 5

# partition_blocks defaults (SegmenterParams.min_block_len and
# min_span_fraction) that the coverage guarantee is checked against.
MIN_BLOCK_LEN = 10
MIN_SPAN_FRACTION = 0.1


@dataclass(frozen=True)
class PartialScene:
    """A scene with partial tracks, plus what the cut did to it."""

    scene: LabeledScene
    partial_frac: float
    split_count: int


def cut_tracks(scene: LabeledScene, seed: int) -> PartialScene:
    """Give most tracks a birth, a death and possibly one occlusion gap.

    The piece after a gap gets a fresh id above every input id and keeps
    the ground-truth label of the track it came from.
    """
    store = scene.store
    n_frames = store.n_frames_total
    rng = np.random.default_rng(seed)
    tracks = sorted(store.trajectories, key=lambda t: t.id)
    next_id = max(t.id for t in tracks) + 1
    min_life = max(2 * MIN_PIECE + GAP_FRAMES[1], int(MIN_LIFE_SHARE * n_frames))

    out: list[Trajectory] = []
    truth: dict[int, int] = {}
    splits = 0
    for t in tracks:
        label = scene.ground_truth[t.id]
        if rng.random() < FULL_SPAN_SHARE or n_frames <= min_life:
            out.append(t)
            truth[t.id] = label
            continue
        life = int(rng.integers(min_life, n_frames + 1))
        birth = int(rng.integers(0, n_frames - life + 1))
        death = birth + life
        pieces = [(birth, death)]
        if rng.random() < GAP_CHANCE:
            gap = int(rng.integers(GAP_FRAMES[0], GAP_FRAMES[1] + 1))
            cut = int(rng.integers(birth + MIN_PIECE, death - MIN_PIECE - gap + 1))
            pieces = [(birth, cut), (cut + gap, death)]
        for k, (lo, hi) in enumerate(pieces):
            tid = t.id if k == 0 else next_id
            if k:
                next_id += 1
                splits += 1
            out.append(Trajectory(tid, lo, t.points[lo - t.start_frame : hi - t.start_frame]))
            truth[tid] = label

    cut_store = TrajectoryStore(tuple(out), n_frames, store.frame_size)
    _check_coverage(cut_store)
    partial = sum(1 for t in out if t.start_frame > 0 or t.end_frame < n_frames)
    return PartialScene(LabeledScene(cut_store, truth), partial / len(out), splits)


def _check_coverage(store: TrajectoryStore) -> None:
    """Raise unless enough tracks span every minimum-length window."""
    starts = np.array([t.start_frame for t in store.trajectories])
    ends = np.array([t.end_frame for t in store.trajectories])
    need = MIN_SPAN_FRACTION * len(starts)
    for s in range(store.n_frames_total):
        e = min(s + MIN_BLOCK_LEN, store.n_frames_total)
        spanning = int(np.count_nonzero((starts <= s) & (ends >= e)))
        if spanning < need:
            raise ValueError(
                f"only {spanning} of {len(starts)} tracks span frames [{s}, {e})"
            )
