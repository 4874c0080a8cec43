"""The array-native block loop and straggler labeling against their loops.

``segment_block`` keeps the representatives as one complex pre-shape stack
and ``assign_stragglers`` labels every candidate sharing an overlap window
with one matmul; ``conftest`` keeps the former per-member and per-track
loops as oracles. Property tests draw seeded stores with partial tracks,
motionless tracks, motionless stretches of a cluster mean and exactly
tied means.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitterseg import (
    Block,
    BlockResult,
    SceneParams,
    SegmenterParams,
    StabilizedMean,
    Trajectory,
    TrajectoryStore,
    assign_stragglers,
    generate_scene,
    partition_blocks,
    segment_block,
    segmenter,
)
from jitterseg.errors import JittersegError

from conftest import oracle_assign_stragglers, oracle_segment_block

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

FRAME = (640, 360)
MEAN_KINDS = ("random", "tie", "rotated", "flat_part", "flat")
TRACK_KINDS = ("moving", "moving", "moving", "still", "still_in_block")


def _walk(rng, n: int) -> np.ndarray:
    start = rng.uniform([100.0, 80.0], [540.0, 280.0])
    return np.clip(start + np.cumsum(rng.normal(0.0, 3.0, size=(n, 2)), axis=0), 0.0, 360.0)


def _mean_configs(kind: str, length: int, rng) -> list[np.ndarray]:
    base = rng.standard_normal((length, 2))
    other = rng.standard_normal((length, 2))
    if kind == "tie":
        other = base.copy()
    elif kind == "rotated":
        c, s = np.cos(0.7), np.sin(0.7)
        other = (base - base.mean(axis=0)) @ np.array([[c, s], [-s, c]]) + 3.0
    elif kind == "flat_part":
        lo = int(rng.integers(0, length - 1))
        hi = int(rng.integers(lo + 2, length + 1))
        other[lo:hi] = other[lo]
    elif kind == "flat":
        other[:] = 1.5
    return [base, other]


@st.composite
def straggler_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_frames = draw(st.integers(4, 40))
    start = draw(st.integers(0, n_frames - 2))
    end = draw(st.integers(start + 2, n_frames))
    block = Block(start, end, (), ())
    trajs = []
    for tid in range(draw(st.integers(1, 40))):
        t_start = int(rng.integers(0, n_frames - 1))
        t_len = int(rng.integers(2, n_frames - t_start + 1))
        points = _walk(rng, t_len)
        kind = TRACK_KINDS[int(rng.integers(len(TRACK_KINDS)))]
        if kind == "still":
            points[:] = points[0]
        elif kind == "still_in_block":
            lo = max(start, t_start) - t_start
            hi = min(end, t_start + t_len) - t_start
            if hi > lo:
                points[lo:hi] = points[lo]
        trajs.append(Trajectory(tid, t_start, points))
    store = TrajectoryStore(tuple(trajs), n_frames, FRAME)
    kind = draw(st.sampled_from(MEAN_KINDS))
    means = tuple(StabilizedMean(m, 0.2, 5) for m in _mean_configs(kind, block.length, rng))
    labeled = {t.id: int(rng.integers(2)) for t in trajs if rng.random() < 0.3}
    params = SegmenterParams(span_threshold=draw(st.sampled_from([0.3, 0.5, 0.7, 1.0])))
    return BlockResult(block, labeled, means), store, block, params


class TestStragglersOracle:
    @PROPERTY
    @given(straggler_cases())
    def test_matches_per_track_loop(self, case):
        result, store, block, params = case
        assert assign_stragglers(result, store, block, params) == oracle_assign_stragglers(
            result, store, block, params
        )

    def _case(self, kind: str):
        rng = np.random.default_rng(1)
        trajs = [Trajectory(i, 0, _walk(rng, 20)) for i in range(6)]
        trajs.append(Trajectory(6, 0, np.full((20, 2), 50.0)))
        trajs.append(Trajectory(7, 3, _walk(rng, 15)))
        store = TrajectoryStore(tuple(trajs), 20, FRAME)
        block = Block(0, 20, (), ())
        means = tuple(StabilizedMean(m, 0.2, 5) for m in _mean_configs(kind, 20, rng))
        return BlockResult(block, {0: 0}, means), store, block, SegmenterParams()

    def test_exact_tie_goes_to_lower_index(self):
        result, store, block, params = self._case("tie")
        labels = assign_stragglers(result, store, block, params)
        assert labels == oracle_assign_stragglers(result, store, block, params)
        assert {tid: lab for tid, lab in labels.items() if tid != 0} == {
            1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 7: 0
        }

    def test_motionless_window_and_flat_mean(self):
        result, store, block, params = self._case("flat")
        labels = assign_stragglers(result, store, block, params)
        assert labels == oracle_assign_stragglers(result, store, block, params)
        # Track 6 never moves; mean 1 is flat, so every label is 0.
        assert 6 not in labels
        assert set(labels.values()) == {0}

    def test_partial_window_crops_the_means(self):
        result, store, block, params = self._case("random")
        labels = assign_stragglers(result, store, block, params)
        assert 7 in labels
        assert labels == oracle_assign_stragglers(result, store, block, params)


@st.composite
def block_cases(draw):
    seed = draw(st.integers(0, 2**16))
    n_frames = draw(st.integers(8, 36))
    scene = generate_scene(
        SceneParams(
            n_bg=draw(st.integers(6, 30)),
            n_fg=draw(st.integers(3, 10)),
            n_frames=n_frames,
            sigma=draw(st.sampled_from([0.15, 0.05, 0.25, 0.0])),
            seed=seed,
        )
    )
    rng = np.random.default_rng(seed)
    trajs = []
    for t in scene.store.trajectories:
        if rng.random() < 0.3:
            lo = int(rng.integers(0, n_frames // 3))
            hi = int(rng.integers(max(lo + 2, 2 * n_frames // 3), n_frames + 1))
            t = Trajectory(t.id, lo, t.points[lo:hi])
        trajs.append(t)
    if draw(st.booleans()):
        still = np.tile(trajs[0].points[0], (n_frames - trajs[0].start_frame, 1))
        trajs.append(Trajectory(10_000, trajs[0].start_frame, still))
    store = TrajectoryStore(tuple(trajs), n_frames, FRAME)
    params = SegmenterParams(
        outer_iters=draw(st.sampled_from([2, 3, 1])),
        lam=draw(st.sampled_from([0.0, 0.2, 0.6])),
        grid_cells=draw(st.sampled_from([4, 8, 16])),
        span_threshold=draw(st.sampled_from([0.5, 0.7])),
        seed=seed % 97,
    )
    return store, params


def _assert_same_block(store, params):
    try:
        block = partition_blocks(store, params)[0]
        want = oracle_segment_block(store, block, params)
    except JittersegError as exc:
        with pytest.raises(type(exc)):
            segment_block(store, partition_blocks(store, params)[0], params)
        return
    got = segment_block(store, block, params)
    assert got.labels == want.labels
    assert len(got.means) == len(want.means)
    for g, w in zip(got.means, want.means):
        np.testing.assert_allclose(g.config, w.config, rtol=0, atol=1e-12)
    assert got.rotations.keys() == want.rotations.keys()
    for rid, rot in got.rotations.items():
        np.testing.assert_allclose(rot.matrix, want.rotations[rid].matrix, rtol=0, atol=1e-9)


class TestSegmentBlockOracle:
    @PROPERTY
    @given(block_cases())
    def test_matches_per_member_loop(self, case):
        _assert_same_block(*case)

    @pytest.mark.parametrize("outer_iters", [1, 2, 3])
    @pytest.mark.parametrize("sigma", [0.05, 0.25])
    def test_every_round_count(self, outer_iters, sigma):
        # The rebuilt members carry the GPA rotations into the next round,
        # so an even round count shows a rebuild that turns the wrong way.
        scene = generate_scene(SceneParams(n_bg=20, n_fg=8, n_frames=20, sigma=sigma, seed=4))
        _assert_same_block(scene.store, SegmenterParams(outer_iters=outer_iters, seed=4))


def test_traced_names_are_called(monkeypatch):
    """``segment_block`` calls its stages by their ``jitterseg.segmenter``
    names, where ``bench/tracing.py`` installs its per-layer spans."""
    calls = Counter()
    straggler_args = []
    names = (
        "select_representatives",
        "build_affinity",
        "spectral_cluster",
        "gpa_align",
        "stabilize_mean",
        "assign_stragglers",
    )
    for name in names:
        original = getattr(segmenter, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            if _name == "assign_stragglers":
                straggler_args.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(segmenter, name, counted)
    scene = generate_scene(SceneParams(n_bg=20, n_fg=8, n_frames=20, sigma=0.05, seed=1))
    params = SegmenterParams(outer_iters=2)
    block = partition_blocks(scene.store, params)[0]
    segment_block(scene.store, block, params)
    assert set(calls) == set(names)
    assert calls["build_affinity"] == calls["spectral_cluster"] == 2
    assert calls["gpa_align"] == calls["stabilize_mean"] == 4
    # The tracer reads the block result, store and block positionally.
    (args,) = straggler_args
    assert isinstance(args[0], BlockResult)
    assert args[1] is scene.store and args[2] is block
