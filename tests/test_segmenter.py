"""Block partitioning, representative selection, the iterative loop,
straggler assignment, and cross-block fusion."""

from __future__ import annotations

import numpy as np
import pytest
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
from jitterseg.errors import (
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
    """Exhaustive re-derivation of the greedy maximal valid blocks."""
    total = len(store.trajectories)
    need = params.min_span_fraction * total - 1e-9
    bounds = []
    s = 0
    while s < store.n_frames_total:
        e_min = min(s + params.min_block_len, store.n_frames_total)
        e_max = min(s + params.max_block_len, store.n_frames_total)
        valid = [
            e
            for e in range(e_min, e_max + 1)
            if sum(1 for t in store.trajectories if t.start_frame <= s and t.end_frame >= e)
            >= need
        ]
        assert valid, "oracle found no valid block where the implementation must fail"
        e = max(valid)
        bounds.append((s, e))
        s = e
    return bounds


class TestPartitionBlocks:
    def test_single_block_when_everything_spans(self):
        trajs = tuple(_track(i, 0, 40, 50 + 10 * i) for i in range(10))
        store = TrajectoryStore(trajs, 40, FRAME)
        blocks = partition_blocks(store, SegmenterParams(max_block_len=40))
        assert [(b.start, b.end) for b in blocks] == [(0, 40)]
        assert len(blocks[0].spanning_ids) == 10

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

    def test_spanning_and_partial_disjoint(self):
        rng = np.random.default_rng(2)
        store = _staggered_store(rng)
        for block in partition_blocks(store, SegmenterParams(max_block_len=30)):
            assert not set(block.spanning_ids) & set(block.partial_ids)


class TestPartitionProperty:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(5, 80),
        st.integers(20, 120),
        st.sampled_from([0.05, 0.1, 0.2, 0.4]),
        st.integers(2, 15),
        st.integers(0, 50),
        st.sampled_from([0.3, 0.7, 1.0]),
    )
    def test_matches_exhaustive_oracle(
        self, seed, n, n_frames, min_span, min_len, extra_len, span_threshold
    ):
        store = _staggered_store(np.random.default_rng(seed), n=n, n_frames=n_frames)
        params = SegmenterParams(
            min_span_fraction=min_span,
            min_block_len=min_len,
            max_block_len=min_len + extra_len,
            span_threshold=span_threshold,
        )
        try:
            expected = _oracle_partition(store, params)
        except AssertionError:
            with pytest.raises(NoValidBlock):
                partition_blocks(store, params)
            return
        blocks = partition_blocks(store, params)
        assert [b.frame_range for b in blocks] == expected
        trajs = sorted(store.trajectories, key=lambda t: t.id)
        for b in blocks:
            spanning = [t.id for t in trajs if t.start_frame <= b.start and t.end_frame >= b.end]
            partial = [
                t.id
                for t in trajs
                if t.id not in spanning
                and max(0, min(b.end, t.end_frame) - max(b.start, t.start_frame)) / b.length
                >= span_threshold - 1e-9
            ]
            assert b.spanning_ids == tuple(spanning)
            assert b.partial_ids == tuple(partial)


class TestSelectRepresentatives:
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
                for tid in block.spanning_ids:
                    t = store.by_id[tid]
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
    def test_zero_jitter_perfect_at_first_iteration(self):
        scene = generate_scene(SceneParams(n_bg=25, n_fg=10, n_frames=30, sigma=0.0, seed=2))
        results = {}
        for iters in (1, 3):
            params = SegmenterParams(outer_iters=iters, seed=2)
            block = partition_blocks(scene.store, params)[0]
            result = segment_block(scene.store, block, params)
            assert evaluate(result.labels, scene).accuracy == 1.0
            results[iters] = result.labels
        # Stable thereafter: more iterations leave the partition unchanged.
        groups = lambda labs: {
            frozenset(k for k, v in labs.items() if v == c) for c in set(labs.values())
        }
        assert groups(results[1]) == groups(results[3])

    def test_medium_jitter_accuracy(self):
        scene = generate_scene(SceneParams(n_bg=60, n_fg=20, n_frames=30, sigma=0.15, seed=7))
        params = SegmenterParams(seed=7)
        block = partition_blocks(scene.store, params)[0]
        result = segment_block(scene.store, block, params)
        assert evaluate(result.labels, scene).accuracy >= 0.9

    def test_iteration_does_not_hurt(self):
        # Paired-seed comparison at the highest jitter level.
        acc = {1: [], 3: []}
        for seed in range(20):
            scene = generate_scene(
                SceneParams(n_bg=60, n_fg=20, n_frames=30, sigma=0.25, seed=seed)
            )
            for iters in (1, 3):
                params = SegmenterParams(outer_iters=iters, lam=0.6, seed=seed)
                _, fused = segment_store(scene.store, params)
                acc[iters].append(evaluate(fused, scene).accuracy)
        assert np.mean(acc[3]) >= np.mean(acc[1]) - 0.02

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
        partial = BlockResult(block, trimmed, result.means, result.rotations)
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
            BlockResult(r.block, {k: 1 - v for k, v in r.labels.items()}, r.means, r.rotations)
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
                assert np.array_equal(ma.config, mb.config)

    def test_parallel_matches_serial(self):
        scene = generate_scene(SceneParams(n_bg=40, n_fg=15, n_frames=60, sigma=0.15, seed=11))
        params = SegmenterParams(max_block_len=20, seed=11)
        r_serial, f_serial = segment_store(scene.store, params)
        r_par, f_par = segment_store(scene.store, params, jobs=4)
        assert f_serial == f_par
        for a, b in zip(r_serial, r_par):
            assert a.labels == b.labels
            for ma, mb in zip(a.means, b.means):
                assert np.array_equal(ma.config, mb.config)

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
            SegmenterParams(outer_iters=0)


class TestBlockType:
    @pytest.mark.parametrize(
        "args", [(5, 5, (), ()), (6, 2, (1,), ()), (0, 10, (1, 2), (2, 3))]
    )
    def test_typed_value_error(self, args):
        with pytest.raises(InvalidBlock) as info:
            Block(*args)
        assert isinstance(info.value, JittersegError)
        assert isinstance(info.value, ValueError)
