"""Block partitioning, representative selection, the one-pass block,
straggler assignment, and cross-block fusion."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from conftest import oracle_fuse_blocks, oracle_representatives
from hypothesis import given, settings
from hypothesis import strategies as st

from jitterseg import (
    Block,
    BlockResult,
    SceneParams,
    SegmenterParams,
    Trajectory,
    TrajectoryStore,
    assign_stragglers,
    evaluate,
    fuse_blocks,
    generate_scene,
    partition_blocks,
    segment_block,
    segment_store,
    select_representatives,
)
from jitterseg.segmenter import MIN_BLOCK_LEN
from jitterseg.errors import (
    BlockSkipped,
    BoundsError,
    DuplicateId,
    InvalidBlock,
    InvalidParameter,
    JittersegError,
    NoSharedTrajectories,
    NoValidBlock,
    TooFewRepresentatives,
)

FRAME = (640, 360)


def _track(tid, start, length, x0=100.0, y0=100.0, vx=1.0, vy=0.5):
    f = np.arange(length, dtype=float)[:, None]
    pts = np.array([x0, y0]) + f * np.array([vx, vy])
    return Trajectory(tid, start, pts)


def _staggered_store(rng, n=50, n_frames=80):
    trajs = []
    for i in range(n):
        start = int(rng.integers(0, n_frames // 2))
        length = int(rng.integers(10, n_frames - start + 1))
        x0 = rng.uniform(150, 450)
        y0 = rng.uniform(60, 250)
        trajs.append(_track(i, start, length, x0, y0, vx=rng.uniform(-1, 1)))
    # Guarantee some full-span coverage so every block can be valid.
    for i in range(n, n + max(6, n // 8)):
        trajs.append(_track(i, 0, n_frames, rng.uniform(150, 450), rng.uniform(60, 250)))
    return TrajectoryStore(tuple(trajs), n_frames, FRAME)


def _oracle_partition(store, params):
    """Exhaustive re-derivation of the greedy maximal valid blocks.

    A block that would leave a remainder of one or two frames runs on to
    the last frame instead, whenever enough tracks span that far.
    """
    total = len(store.trajectories)
    n_frames = store.n_frames_total
    need = params.min_span_fraction * total - 1e-9

    def spans(s, e):
        return sum(1 for t in store.trajectories if t.start_frame <= s and t.end_frame >= e)

    bounds = []
    s = 0
    while s < n_frames:
        e_min = min(s + MIN_BLOCK_LEN, n_frames)
        e_max = min(s + params.max_block_len, n_frames)
        valid = [e for e in range(e_min, e_max + 1) if spans(s, e) >= need]
        assert valid, "oracle found no valid block where the implementation must fail"
        e = max(valid)
        if 0 < n_frames - e < 3 and spans(s, n_frames) >= need:
            e = n_frames
        bounds.append((s, e))
        s = e
    return bounds


class TestPartitionBlocks:
    def test_single_block_when_everything_spans(self):
        trajs = tuple(_track(i, 0, 40, 50 + 10 * i) for i in range(10))
        store = TrajectoryStore(trajs, 40, FRAME)
        blocks = partition_blocks(store, SegmenterParams(max_block_len=40))
        assert [(b.start, b.end) for b in blocks] == [(0, 40)]
        # 10-px cells give each of the ten tracks a cell of its own, so all
        # of them span the block and represent it.
        fine = SegmenterParams(grid_cells=64)
        assert select_representatives(store, blocks[0], fine) == list(range(10))

    def test_boundary_forced_by_spanning_rule(self):
        # Of the 100 trajectories alive at frame 0, only 5 continue past
        # frame 20 (5% of the 195 total < 10%); a second wave starting at
        # frame 18 keeps the remainder tileable.
        trajs = [_track(i, 0, 20, 30 + 3 * i) for i in range(95)]
        trajs += [_track(100 + i, 18, 22, 30 + 3 * i, y0=200.0) for i in range(95)]
        trajs += [_track(300 + j, 0, 40, 400 + 5 * j) for j in range(5)]
        store = TrajectoryStore(tuple(trajs), 40, FRAME)
        blocks = partition_blocks(store, SegmenterParams())
        assert blocks[0].end <= 20

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            store = _staggered_store(rng)
            params = SegmenterParams(max_block_len=int(rng.integers(15, 60)))
            try:
                blocks = partition_blocks(store, params)
            except NoValidBlock:
                continue
            assert [(b.start, b.end) for b in blocks] == _oracle_partition(store, params)

    @pytest.mark.parametrize(
        "frames, ranges",
        [(60, [(0, 60)]), (61, [(0, 61)]), (62, [(0, 62)]), (63, [(0, 60), (60, 63)])],
    )
    def test_short_tail_joins_the_block_before(self, frames, ranges):
        trajs = tuple(_track(i, 0, frames, 50 + 10 * i, vx=0.5) for i in range(10))
        store = TrajectoryStore(trajs, frames, FRAME)
        blocks = partition_blocks(store, SegmenterParams())
        assert [b.frame_range for b in blocks] == ranges
        fine = SegmenterParams(grid_cells=64)  # 10-px cells: every track represents
        for b in blocks:
            assert select_representatives(store, b, fine) == list(range(10))

    def test_short_tail_stays_when_too_few_span_it(self):
        # Only 1 of 20 tracks reaches frame 62, below the 10% rule, so the
        # last two frames stay a block of their own.
        trajs = [_track(i, 0, 60, 50 + 10 * i) for i in range(18)]
        trajs += [_track(18, 0, 62, 300.0), _track(19, 58, 4, 320.0)]
        store = TrajectoryStore(tuple(trajs), 62, FRAME)
        blocks = partition_blocks(store, SegmenterParams())
        assert [b.frame_range for b in blocks] == [(0, 60), (60, 62)]

    def test_tiling_invariant(self):
        rng = np.random.default_rng(1)
        store = _staggered_store(rng)
        blocks = partition_blocks(store, SegmenterParams(max_block_len=25))
        assert blocks[0].start == 0
        assert blocks[-1].end == store.n_frames_total
        for prev, nxt in zip(blocks, blocks[1:]):
            assert prev.end == nxt.start

    def test_no_valid_block(self):
        # Nothing spans even the 10-frame minimum at frame 0.
        trajs = tuple(_track(i, 0 if i % 2 else 6, 6, 50 + i) for i in range(20))
        store = TrajectoryStore(trajs, 12, FRAME)
        with pytest.raises(NoValidBlock):
            partition_blocks(store, SegmenterParams())


class TestPartitionProperty:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(5, 80),
        st.integers(20, 120),
        st.sampled_from([0.05, 0.1, 0.2, 0.4]),
        st.integers(0, 50),
    )
    def test_matches_exhaustive_oracle(self, seed, n, n_frames, min_span, extra_len):
        store = _staggered_store(np.random.default_rng(seed), n=n, n_frames=n_frames)
        params = SegmenterParams(
            min_span_fraction=min_span, max_block_len=MIN_BLOCK_LEN + extra_len
        )
        try:
            expected = _oracle_partition(store, params)
        except AssertionError:
            with pytest.raises(NoValidBlock):
                partition_blocks(store, params)
            return
        blocks = partition_blocks(store, params)
        assert [b.frame_range for b in blocks] == expected


@st.composite
def _partial_store_and_block(draw):
    """A store of partial tracks in shuffled id order, a block and a grid.

    Ids run from below zero to beyond 2**32. Tracks start on a coarse
    9 x 9 lattice, so they share cells and tie on distance, and some never
    move.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_frames = draw(st.integers(3, 40))
    ids = draw(st.lists(st.integers(-(2**40), 2**40), min_size=8, max_size=40, unique=True))
    trajs = []
    for tid in rng.permutation(ids).tolist():
        start = 0 if rng.random() < 0.5 else int(rng.integers(0, n_frames - 1))
        length = n_frames - start if start == 0 else int(rng.integers(2, n_frames - start + 1))
        step = np.zeros(2) if rng.random() < 0.15 else rng.uniform(-1.0, 1.0, 2)
        x0, y0 = 80.0 * rng.integers(0, 9), 45.0 * rng.integers(0, 9)
        points = np.array([x0, y0]) + np.arange(length)[:, None] * step
        trajs.append(Trajectory(tid, start, np.clip(points, 0.0, FRAME)))
    start = int(rng.integers(0, n_frames))
    block = Block(start, int(rng.integers(start + 1, n_frames + 1)))
    params = SegmenterParams(grid_cells=draw(st.sampled_from([2, 4, 16])))
    return TrajectoryStore(tuple(trajs), n_frames, FRAME), block, params


class TestSelectRepresentatives:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_partial_store_and_block())
    def test_matches_brute_force_oracle(self, case):
        store, block, params = case
        expected = oracle_representatives(store, block, params)
        if len(expected) < 3:
            with pytest.raises(TooFewRepresentatives, match=f"^{len(expected)} representatives"):
                select_representatives(store, block, params)
        else:
            assert select_representatives(store, block, params) == expected

    def test_spanning_tracks_come_from_the_store(self):
        # Track 999 covers only frames [10, 20). A block that listed it
        # once made it a representative, with zeros in its uncovered
        # frames; an id absent from the store was read as its neighbour.
        scene = generate_scene(SceneParams(30, 10, 30, 0.1, seed=5))
        extra = _track(999, 10, 10, x0=300.0, y0=200.0)
        store = TrajectoryStore(scene.store.trajectories + (extra,), 30, scene.store.frame_size)
        block, params = Block(0, 30), SegmenterParams()
        assert set(segment_block(store, block, params).labels) <= set(store.by_id)
        reps = select_representatives(store, block, params)
        assert all(store.by_id[r].start_frame <= 0 and store.by_id[r].end_frame >= 30 for r in reps)
        assert reps == oracle_representatives(store, block, params)

    def test_one_per_cell_keeps_all(self):
        # Cell size is 40 x 22.5 at 640x360 with a 16-grid.
        trajs = tuple(
            _track(i, 0, 20, x0=40.0 * i + 5.0, y0=100.0) for i in range(8)
        )
        store = TrajectoryStore(trajs, 20, FRAME)
        params = SegmenterParams()
        block = partition_blocks(store, params)[0]
        assert select_representatives(store, block, params) == list(range(8))

    def test_nearest_center_wins(self):
        center = _track(0, 0, 20, x0=20.0, y0=11.25)  # exact center of cell (0, 0)
        off = _track(1, 0, 20, x0=25.0, y0=15.0)
        others = tuple(_track(2 + i, 0, 20, x0=100.0 + 40.0 * i) for i in range(3))
        store = TrajectoryStore((center, off) + others, 20, FRAME)
        params = SegmenterParams()
        block = partition_blocks(store, params)[0]
        reps = select_representatives(store, block, params)
        assert 0 in reps and 1 not in reps

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(3)
        store = _staggered_store(rng, n=80)
        params = SegmenterParams(grid_cells=12)
        block = partition_blocks(store, params)[0]
        reps = select_representatives(store, block, params)

        w, h = store.frame_size
        cw, ch = w / 12, h / 12
        expected = []
        for cy in range(12):
            for cx in range(12):
                cands = []
                for t in store.trajectories:
                    if not t.start_frame <= block.start < block.end <= t.end_frame:
                        continue
                    tid = t.id
                    x, y = t.points[block.start - t.start_frame]
                    if min(int(x // cw), 11) == cx and min(int(y // ch), 11) == cy:
                        d = (x - (cx + 0.5) * cw) ** 2 + (y - (cy + 0.5) * ch) ** 2
                        cands.append((d, tid))
                if cands:
                    expected.append(min(cands)[1])
        assert reps == sorted(expected)

    def test_motionless_track_is_never_chosen(self):
        # Track 0 sits still at the exact center of cell (0, 0); the cell
        # goes to the next-nearest track, 1.
        still = Trajectory(0, 0, np.tile([20.0, 11.25], (20, 1)))
        near = _track(1, 0, 20, x0=25.0, y0=15.0)
        others = tuple(_track(2 + i, 0, 20, x0=100.0 + 40.0 * i) for i in range(3))
        store = TrajectoryStore((still, near) + others, 20, FRAME)
        params = SegmenterParams()
        block = partition_blocks(store, params)[0]
        assert select_representatives(store, block, params) == [1, 2, 3, 4]

    @pytest.mark.parametrize("jitter", [0.0, 1e-3])
    def test_motionless_track_does_not_stop_the_run(self, jitter):
        # A track that sits still, exactly or up to 1e-3 px of noise, far
        # from the origin. What the rounded mean left behind once failed
        # the pre-shape centering check and stopped the run.
        scene = generate_scene(SceneParams(n_bg=40, n_fg=10, n_frames=38, sigma=0.15, seed=0))
        points = np.tile([497.0771931790707, 220.68118837909458], (38, 1))
        points += np.random.default_rng(0).normal(0.0, jitter, points.shape)
        still = Trajectory(9999, 0, points)
        store = TrajectoryStore(scene.store.trajectories + (still,), 38, scene.store.frame_size)
        _, fused = segment_store(store, SegmenterParams(seed=7))
        assert set(fused) >= {t.id for t in scene.store.trajectories}
        assert (9999 in fused) == (jitter > 0)

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_blocks_under_three_frames_have_none(self, length):
        # Any two points have the same shape, so a 2-frame block has
        # nothing to split but rounding.
        store = TrajectoryStore(tuple(_track(i, 0, 20, x0=40.0 * i + 5.0) for i in range(8)), 20, FRAME)
        block = Block(17, 17 + length)
        if length == 3:
            assert select_representatives(store, block, SegmenterParams()) == list(range(8))
        else:
            with pytest.raises(TooFewRepresentatives, match="^0 representatives"):
                select_representatives(store, block, SegmenterParams())

    def test_too_few_representatives(self):
        # Two spanning trajectories in the same cell collapse to one rep.
        trajs = (
            _track(0, 0, 20, x0=10.0, y0=10.0),
            _track(1, 0, 20, x0=12.0, y0=10.0),
        )
        store = TrajectoryStore(trajs, 20, FRAME)
        params = SegmenterParams(min_span_fraction=0.5)
        block = partition_blocks(store, params)[0]
        with pytest.raises(TooFewRepresentatives):
            select_representatives(store, block, params)


class TestSegmentBlock:
    def test_zero_jitter_perfect(self):
        scene = generate_scene(SceneParams(n_bg=25, n_fg=10, n_frames=30, sigma=0.0, seed=2))
        params = SegmenterParams(seed=2)
        block = partition_blocks(scene.store, params)[0]
        result = segment_block(scene.store, block, params)
        assert evaluate(result.labels, scene).accuracy == 1.0

    def test_medium_jitter_accuracy(self):
        scene = generate_scene(SceneParams(n_bg=60, n_fg=20, n_frames=30, sigma=0.15, seed=7))
        params = SegmenterParams(seed=7)
        block = partition_blocks(scene.store, params)[0]
        result = segment_block(scene.store, block, params)
        assert evaluate(result.labels, scene).accuracy >= 0.9

    def test_every_spanning_rep_labeled_and_partials_qualify(self):
        rng = np.random.default_rng(4)
        store = _staggered_store(rng, n=60)
        params = SegmenterParams(max_block_len=40)
        block = partition_blocks(store, params)[0]
        result = segment_block(store, block, params)
        reps = select_representatives(store, block, params)
        assert set(reps) <= set(result.labels)
        for tid in result.labels:
            t = store.by_id[tid]
            overlap = min(block.end, t.end_frame) - max(block.start, t.start_frame)
            assert overlap / block.length >= params.span_threshold - 1e-9


class TestAssignStragglers:
    def _store_with_partials(self):
        scene = generate_scene(SceneParams(n_bg=20, n_fg=8, n_frames=30, sigma=0.0, seed=5))
        trajs = list(scene.store.trajectories)
        # A translated crop (75% coverage) of background trajectory 0.
        src = trajs[0]
        crop = src.points[4:27] + np.array([9.0, -4.0])
        trajs.append(Trajectory(100, 4, crop))
        # Too-short crop: 69% of a 30-frame block is 20 frames.
        trajs.append(Trajectory(101, 5, src.points[5:25] + np.array([2.0, 2.0])))
        store = TrajectoryStore(tuple(trajs), 30, FRAME)
        return scene, store

    def test_crop_of_member_joins_its_cluster(self):
        scene, store = self._store_with_partials()
        params = SegmenterParams(seed=5)
        block = partition_blocks(store, params)[0]
        result = segment_block(store, block, params)
        assert result.labels[100] == result.labels[scene.store.trajectories[0].id]

    def test_below_threshold_stays_unlabeled(self):
        _, store = self._store_with_partials()
        params = SegmenterParams(seed=5)
        block = partition_blocks(store, params)[0]
        result = segment_block(store, block, params)
        assert 101 not in result.labels

    def test_direct_call_extends_without_mutating(self):
        _, store = self._store_with_partials()
        params = SegmenterParams(seed=5)
        block = partition_blocks(store, params)[0]
        result = segment_block(store, block, params)
        before = dict(result.labels)
        updated = assign_stragglers(result, store, block, params)
        assert result.labels == before
        assert updated == result.labels  # segment_block already assigned them
        # Removing a straggler's label and re-running restores it.
        trimmed = dict(result.labels)
        del trimmed[100]
        partial = BlockResult(block, trimmed, result.means)
        assert assign_stragglers(partial, store, block, params)[100] == result.labels[100]

    def test_seeded_partials_labeled_correctly(self):
        scene = generate_scene(SceneParams(n_bg=60, n_fg=20, n_frames=30, sigma=0.15, seed=9))
        trajs = list(scene.store.trajectories)
        origins = {}
        for k in range(20):
            src = trajs[k * 3]
            tid = 1000 + k
            trajs.append(Trajectory(tid, 4, src.points[4:27].copy()))
            origins[tid] = scene.ground_truth[src.id]
        store = TrajectoryStore(tuple(trajs), 30, FRAME)
        params = SegmenterParams(seed=9)
        block = partition_blocks(store, params)[0]
        result = segment_block(store, block, params)
        # Compare partials against the fused orientation via their origins.
        base = {tid: result.labels[tid] for tid in scene.ground_truth if tid in result.labels}
        agree = np.mean(
            [base[t.id] == scene.ground_truth[t.id] for t in scene.store.trajectories]
        )
        flip = agree < 0.5
        correct = sum(
            (1 - result.labels[tid] if flip else result.labels[tid]) == origins[tid]
            for tid in origins
            if tid in result.labels
        )
        labeled = sum(tid in result.labels for tid in origins)
        assert labeled == 20
        assert correct / labeled >= 0.85


@st.composite
def _fusion_cases(draw):
    """Up to five binary block results, each labeling at most four of at most eight tracks.

    With so few ids, boundaries often share no track or tie exactly,
    votes often split evenly, and an empty label map is a skipped block.
    Some tracks start late, so a head block can have a cluster with no
    first-frame position.
    """
    n_ids = draw(st.integers(2, 8))
    trajs = []
    for tid in range(n_ids):
        start = draw(st.sampled_from([0, 0, 5, 12]))
        x0, y0 = draw(st.integers(60, 560)), draw(st.integers(60, 300))
        vx, vy = draw(st.integers(-1, 1)), draw(st.integers(-1, 1))
        trajs.append(_track(tid, start, 40 - start, float(x0), float(y0), vx, vy))
    store = TrajectoryStore(tuple(trajs), 40, FRAME)
    labels = st.dictionaries(st.integers(0, n_ids - 1), st.integers(0, 1), max_size=4)
    maps = draw(st.lists(labels, min_size=1, max_size=5))
    results = [BlockResult(Block(8 * b, 8 * b + 8), m, ()) for b, m in enumerate(maps)]
    return results, store


def _fuse_with_warnings(fuse, results, store):
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        fused = fuse(results, store)
    return fused, [(w.category, str(w.message)) for w in record]


class TestFuseBlocks:
    def test_single_block_foreground_is_smaller_bbox(self):
        scene = generate_scene(SceneParams(n_bg=25, n_fg=10, n_frames=30, sigma=0.0, seed=6))
        params = SegmenterParams(seed=6)
        results, fused = segment_store(scene.store, params)
        assert len(results) == 1
        # Foreground cluster (label 1) must be the compact blob.
        assert fused == scene.ground_truth

    def test_flip_applied_when_majority_disagrees(self):
        block_a = BlockResult(
            partition_blocks(
                TrajectoryStore(tuple(_track(i, 0, 20, 40.0 * i + 5.0) for i in range(6)), 20, FRAME),
                SegmenterParams(),
            )[0],
            {0: 0, 1: 0, 2: 1, 3: 1, 4: 0, 5: 1},
            (),
        )
        block_b = BlockResult(block_a.block, {k: 1 - v for k, v in block_a.labels.items()}, ())
        store = TrajectoryStore(tuple(_track(i, 0, 20, 40.0 * i + 5.0) for i in range(6)), 20, FRAME)
        fused = fuse_blocks([block_a, block_b], store)
        # After the flip both blocks agree, so fused matches one orientation.
        values = {tuple(sorted(k for k, v in fused.items() if v == c)) for c in (0, 1)}
        assert values == {(0, 1, 4), (2, 3, 5)}

    def test_three_block_scene_accuracy(self):
        scene = generate_scene(SceneParams(n_bg=60, n_fg=20, n_frames=90, sigma=0.15, seed=3))
        params = SegmenterParams(max_block_len=30, seed=3)
        results, fused = segment_store(scene.store, params)
        assert len(results) == 3
        assert evaluate(fused, scene).accuracy >= 0.9

    def test_label_flip_robustness(self):
        scene = generate_scene(SceneParams(n_bg=30, n_fg=10, n_frames=60, sigma=0.1, seed=8))
        params = SegmenterParams(max_block_len=30, seed=8)
        results, fused = segment_store(scene.store, params)
        flipped = [
            BlockResult(r.block, {k: 1 - v for k, v in r.labels.items()}, r.means)
            for r in results
        ]
        assert fuse_blocks(flipped, scene.store) == fused

    def test_no_shared_trajectories_warns(self):
        store = TrajectoryStore(
            tuple(_track(i, 0, 20, 40.0 * i + 5.0, vy=0.2 * i) for i in range(8)),
            20,
            FRAME,
        )
        block = partition_blocks(store, SegmenterParams())[0]
        first = BlockResult(block, {0: 0, 1: 0, 2: 1, 3: 1}, ())
        second = BlockResult(block, {4: 0, 5: 0, 6: 1, 7: 1}, ())
        with pytest.warns(NoSharedTrajectories):
            fused = fuse_blocks([first, second], store)
        assert set(fused) == set(range(8))

    def test_skipped_trailing_block_breaks_no_chain(self):
        # Blocks [0, 20), [20, 40) and [40, 50). Every track stands still
        # over the last one, so it has no representative and is skipped.
        scene = generate_scene(SceneParams(60, 20, 50, 0.15, seed=1))
        trajs = []
        for t in scene.store.trajectories:
            pts = t.points.copy()
            pts[40 - t.start_frame :] = pts[39 - t.start_frame]
            trajs.append(Trajectory(t.id, t.start_frame, pts))
        store = TrajectoryStore(tuple(trajs), 50, FRAME)
        with pytest.warns(BlockSkipped, match=r"0 representatives in block \(40, 50\)") as record:
            results, _ = segment_store(store, SegmenterParams(max_block_len=20))
        assert [w.category for w in record] == [BlockSkipped]
        assert [bool(r.labels) for r in results] == [True, True, False]

    def test_votes_pass_over_a_skipped_middle_block(self):
        # Every track stands still over frames [20, 40), so that block has
        # no representative and is skipped. Tracks born at frame 40 spread
        # the foreground over the whole frame: a bounding box would call
        # the background foreground in [40, 60), the tracks shared with
        # [0, 20) must not.
        def tracks(first_id, start, offsets, vx, wave):
            t = np.arange(start, 60)
            tau = np.where(t < 20, t, np.where(t < 40, 20, t - 20)).astype(float)
            step = np.stack([vx * tau, wave(tau)], axis=1)
            return [Trajectory(first_id + i, start, np.add(o, step)) for i, o in enumerate(offsets)]

        def bg_wave(tau):
            return 8.0 * np.sin(tau / 3)

        def fg_wave(tau):
            return 6.0 * np.cos(tau / 4)

        bg = [(100.0 + 33 * i, 100.0 + 15 * i) for i in range(10)]
        fg = [(480.0 + 16 * (i % 3), 290.0 + 16 * (i // 3)) for i in range(6)]
        born_late = [(60.0 + 60 * i, 30.0 + 33 * i) for i in range(10)]
        trajs = tracks(0, 0, bg, 2.0, bg_wave)
        trajs += tracks(10, 0, fg, -1.5, fg_wave)
        trajs += tracks(20, 40, born_late, -1.5, fg_wave)
        store = TrajectoryStore(tuple(trajs), 60, FRAME)
        with pytest.warns(BlockSkipped, match=r"block \(20, 40\)") as record:
            results, fused = segment_store(store, SegmenterParams(max_block_len=20))
        assert [w.category for w in record] == [BlockSkipped]
        assert [bool(r.labels) for r in results] == [True, False, True]
        assert fused == {t.id: int(t.id >= 10) for t in trajs}


    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_fusion_cases())
    def test_matches_the_former_four_passes(self, case):
        results, store = case
        got = _fuse_with_warnings(fuse_blocks, results, store)
        assert got == _fuse_with_warnings(oracle_fuse_blocks, results, store)
        assert {type(v) for v in got[0].values()} <= {int}

    def test_agreement_tie_after_a_flipped_run_head(self):
        # Tracks 0 and 1 sit close together at frame 0 and 2 and 3 far
        # apart, so the bounding box flips the head block. The blocks share
        # tracks 2 and 3 and only track 2 agrees: an exact tie, which keeps
        # the later block's orientation relative to the head, so it is
        # flipped with the head. Track 3's split vote goes to the head.
        store = TrajectoryStore(
            (
                _track(0, 0, 20, 100.0, 100.0),
                _track(1, 0, 20, 110.0, 105.0),
                _track(2, 0, 20, 50.0, 50.0),
                _track(3, 0, 20, 500.0, 300.0),
                _track(4, 0, 20, 300.0, 200.0),
                _track(5, 0, 20, 320.0, 60.0),
            ),
            20,
            FRAME,
        )
        head = BlockResult(Block(0, 10), {0: 0, 1: 0, 2: 1, 3: 1}, ())
        tail = BlockResult(Block(10, 20), {2: 1, 3: 0, 4: 1, 5: 0}, ())
        want = {0: 1, 1: 1, 2: 0, 3: 0, 4: 0, 5: 1}
        assert fuse_blocks([head, tail], store) == want
        assert oracle_fuse_blocks([head, tail], store) == want


class TestDeterminismAndStore:
    def test_pipeline_bit_deterministic(self):
        scene = generate_scene(SceneParams(n_bg=40, n_fg=15, n_frames=30, sigma=0.15, seed=10))
        params = SegmenterParams(seed=10)
        r1, f1 = segment_store(scene.store, params)
        r2, f2 = segment_store(scene.store, params)
        assert f1 == f2
        for a, b in zip(r1, r2):
            assert a.labels == b.labels
            for ma, mb in zip(a.means, b.means):
                assert np.array_equal(ma, mb)

    def test_parallel_matches_serial(self):
        scene = generate_scene(SceneParams(n_bg=40, n_fg=15, n_frames=60, sigma=0.15, seed=11))
        params = SegmenterParams(max_block_len=20, seed=11)
        r_serial, f_serial = segment_store(scene.store, params)
        r_par, f_par = segment_store(scene.store, params)
        assert f_serial == f_par
        for a, b in zip(r_serial, r_par):
            assert a.labels == b.labels
            for ma, mb in zip(a.means, b.means):
                assert np.array_equal(ma, mb)

    def test_store_rejects_duplicate_ids(self):
        with pytest.raises(DuplicateId):
            TrajectoryStore((_track(0, 0, 10), _track(0, 0, 10)), 10, FRAME)

    def test_store_rejects_out_of_range_frames(self):
        with pytest.raises(BoundsError):
            TrajectoryStore((_track(0, 5, 10),), 12, FRAME)

    def test_store_rejects_out_of_frame_points(self):
        bad = Trajectory(0, 0, np.array([[650.0, 10.0], [651.0, 10.0]]))
        with pytest.raises(BoundsError):
            TrajectoryStore((bad,), 10, FRAME)

    def test_params_validation(self):
        with pytest.raises(InvalidParameter):
            SegmenterParams(omega=0.0)
        with pytest.raises(InvalidParameter):
            SegmenterParams(lam=-1.0)
        with pytest.raises(InvalidParameter):
            SegmenterParams(span_threshold=1.5)
        with pytest.raises(InvalidParameter):
            SegmenterParams(grid_cells=0)
        with pytest.raises(InvalidParameter, match=r"^max_block_len must be >= 10$"):
            SegmenterParams(max_block_len=MIN_BLOCK_LEN - 1)
        assert SegmenterParams(max_block_len=MIN_BLOCK_LEN).max_block_len == 10


class TestBlockType:
    @pytest.mark.parametrize("args", [(5, 5), (6, 2)])
    def test_typed_value_error(self, args):
        with pytest.raises(InvalidBlock) as info:
            Block(*args)
        assert isinstance(info.value, JittersegError)
        assert isinstance(info.value, ValueError)
