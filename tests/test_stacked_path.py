"""The one-pass block and straggler labeling against their former loops.

``segment_block`` clusters the representatives once, as one complex
pre-shape stack, and ``assign_stragglers`` labels all of a block's
candidates in one pass, each masked to its overlap window. ``conftest`` keeps the former
multi-round, per-member block loop (cluster, align, smooth, rebuild) and
the per-track straggler loop as oracles. Property tests draw seeded
stores with partial tracks, motionless tracks, motionless stretches of a
cluster mean and exactly tied means.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from unittest import mock

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
    fuse_blocks,
    generate_scene,
    partition_blocks,
    segment_block,
    segment_store,
    segmenter,
)
from jitterseg.alignment import GPA_TOL
from jitterseg.errors import BlockSkipped, JittersegError, TooFewRepresentatives
from jitterseg.shapes import as_complex, preshape_rows

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
    block = Block(start, end)
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
    means = tuple(_mean_configs(kind, block.length, rng))
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

    @PROPERTY
    @given(straggler_cases(), st.sampled_from([1, 7, 64]))
    def test_passes_of_any_size(self, case, cells):
        # Small budgets split the candidates over many passes, down to one
        # candidate per pass.
        result, store, block, params = case
        with mock.patch.object(segmenter, "_STRAGGLER_CELLS", cells):
            labels = assign_stragglers(result, store, block, params)
        assert labels == oracle_assign_stragglers(result, store, block, params)

    @pytest.mark.parametrize("motion", [1e-9, 1e-11])
    def test_nearly_motionless_window(self, motion):
        # Far from the origin and barely moving: one centering pass would
        # leave a rounded mean that the division by the tiny norm blows up.
        result, store, block, params = self._case("random")
        rng = np.random.default_rng(5)
        still = [303.1 + motion * rng.standard_normal((20, 2)) for _ in range(8)]
        trajs = store.trajectories + tuple(Trajectory(10 + i, 0, p) for i, p in enumerate(still))
        store = TrajectoryStore(trajs, 20, FRAME)
        labels = assign_stragglers(result, store, block, params)
        assert labels == oracle_assign_stragglers(result, store, block, params)
        assert set(range(10, 18)) <= set(labels)

    def _case(self, kind: str):
        rng = np.random.default_rng(1)
        trajs = [Trajectory(i, 0, _walk(rng, 20)) for i in range(6)]
        trajs.append(Trajectory(6, 0, np.full((20, 2), 50.0)))
        trajs.append(Trajectory(7, 3, _walk(rng, 15)))
        store = TrajectoryStore(tuple(trajs), 20, FRAME)
        block = Block(0, 20)
        means = tuple(_mean_configs(kind, 20, rng))
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
def block_cases(draw, frames=(8, 36), block_lens=(60,)):
    """A seeded store, its params, and the oracle's round and sweep counts.

    The ids may be relabeled by a sparse, strictly increasing map that
    takes about half of them below zero, so that store rows and ids
    differ while the id order, and with it every label, stays the same.
    """
    seed = draw(st.integers(0, 2**16))
    n_frames = draw(st.integers(*frames))
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
    if draw(st.booleans()):
        new = np.cumsum(rng.integers(1, 10**9, size=len(trajs)))
        to_new = dict(zip(sorted(t.id for t in trajs), (new - new[len(new) // 2]).tolist()))
        trajs = [Trajectory(to_new[t.id], t.start_frame, t.points) for t in trajs]
    store = TrajectoryStore(tuple(trajs), n_frames, FRAME)
    rounds = draw(st.sampled_from([2, 3, 1]))
    lam = draw(st.sampled_from([0.0, 0.2, 0.6, 5.0]))
    jacobi_iters = draw(st.sampled_from([5, 1]))
    params = SegmenterParams(
        lam=lam,
        grid_cells=draw(st.sampled_from([4, 8, 16])),
        span_threshold=draw(st.sampled_from([0.5, 0.7])),
        max_block_len=draw(st.sampled_from(block_lens)),
        seed=seed % 97,
    )
    return store, params, rounds, jacobi_iters


# How far a later round of the oracle may move the means: it aligns
# rebuilt copies of one mean, and a cluster whose copies already spread
# less than ``GPA_TOL`` keeps their identity rotations, which leaves each
# member off by up to about ``sqrt(GPA_TOL)``.
LATER_ROUND_ATOL = 10 * math.sqrt(GPA_TOL)


def _assert_same_means(got, want, atol):
    # The oracle smooths each centered mean, which only rescales it, so
    # means are compared on the pre-shape sphere.
    assert len(got.means) == len(want.means)
    for g, w in zip(got.means, want.means):
        g_pre, w_pre = (preshape_rows(as_complex(m)[None])[0] for m in (g, w))
        np.testing.assert_allclose(g_pre, w_pre, rtol=0, atol=atol)


def _assert_same_block(store, params, rounds, jacobi_iters):
    """Labels equal the oracle's at ``rounds`` rounds of ``jacobi_iters``
    sweeps. Means equal its first round's to rounding and its last
    round's to ``LATER_ROUND_ATOL``."""
    try:
        block = partition_blocks(store, params)[0]
        want = oracle_segment_block(store, block, params, rounds=rounds, jacobi_iters=jacobi_iters)
    except JittersegError as exc:
        with pytest.raises(type(exc)):
            segment_block(store, partition_blocks(store, params)[0], params)
        return
    got = segment_block(store, block, params)
    assert got.labels == want.labels
    first = oracle_segment_block(store, block, params, rounds=1, jacobi_iters=jacobi_iters)
    _assert_same_means(got, first, 1e-12)
    _assert_same_means(got, want, LATER_ROUND_ATOL)


def _oracle_fused(store, params, rounds, jacobi_iters) -> dict[int, int]:
    """``fuse_blocks`` over the oracle's block results, skipping blocks
    with too few representatives as ``segment_store`` does."""
    results = []
    for block in partition_blocks(store, params):
        try:
            results.append(
                oracle_segment_block(store, block, params, rounds=rounds, jacobi_iters=jacobi_iters)
            )
        except TooFewRepresentatives:
            results.append(BlockResult(block, {}, ()))
    if not any(r.labels for r in results):
        raise TooFewRepresentatives("every block skipped")
    return fuse_blocks(results, store)


def _assert_same_fused(store, params, rounds, jacobi_iters):
    """Fused labels equal ``fuse_blocks`` over the oracle's blocks."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            want = _oracle_fused(store, params, rounds, jacobi_iters)
        except JittersegError as exc:
            with pytest.raises(type(exc)):
                segment_store(store, params)
            return
        _, fused = segment_store(store, params)
    assert fused == want


class TestSegmentBlockOracle:
    @PROPERTY
    @given(block_cases())
    def test_matches_per_member_loop(self, case):
        _assert_same_block(*case)

    @pytest.mark.parametrize("rounds", [1, 2, 3])
    @pytest.mark.parametrize("sigma", [0.05, 0.25])
    def test_every_round_count(self, rounds, sigma):
        # The oracle's later rounds cluster members rebuilt from the
        # smoothed means; one pass must give what any round count gives.
        scene = generate_scene(SceneParams(n_bg=20, n_fg=8, n_frames=20, sigma=sigma, seed=4))
        _assert_same_block(scene.store, SegmenterParams(seed=4), rounds, 5)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(block_cases(frames=(40, 80), block_lens=(15, 20, 30)))
    def test_fused_labels_match_the_oracle_blocks(self, case):
        _assert_same_fused(*case)

    @pytest.mark.parametrize("rounds", [1, 3])
    def test_two_frame_trailing_block(self, rounds):
        # Blocks [0, 20), [20, 40) and [40, 42): all but two of the 28
        # tracks end at frame 40, too few span [20, 42) for that block to
        # take in the last two frames, and four tracks born at frame 40
        # make [40, 42) a block. Any two points have one shape, so it is
        # skipped rather than split by rounding; fusion passes over it,
        # so no block boundary lacks shared tracks.
        scene = generate_scene(SceneParams(n_bg=20, n_fg=8, n_frames=42, sigma=0.15, seed=2))
        trajs = [
            t if t.id < 2 else Trajectory(t.id, 0, t.points[:40]) for t in scene.store.trajectories
        ]
        born = [
            Trajectory(100 + i, 40, [[200.0 + 40 * i, 100.0], [201.0 + 40 * i, 100.5]])
            for i in range(4)
        ]
        store = TrajectoryStore((*trajs, *born), 42, FRAME)
        params = SegmenterParams(max_block_len=20, seed=2)
        blocks = partition_blocks(store, params)
        assert [b.frame_range for b in blocks] == [(0, 20), (20, 40), (40, 42)]
        with pytest.warns(BlockSkipped, match=r"0 representatives in block \(40, 42\)") as record:
            results, _ = segment_store(store, params)
        assert [w.category for w in record] == [BlockSkipped]
        assert [bool(r.labels) for r in results] == [True, True, False]
        with pytest.raises(TooFewRepresentatives):
            oracle_segment_block(store, blocks[2], params, rounds=rounds, jacobi_iters=5)
        _assert_same_fused(store, params, rounds, 5)


def test_traced_names_are_called(monkeypatch):
    """``segment_block`` calls its stages by their ``jitterseg.segmenter``
    names, where ``bench/tracing.py`` installs its per-layer spans: one
    affinity and clustering and one GPA per cluster, and no smoothing."""
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
    params = SegmenterParams()
    block = partition_blocks(scene.store, params)[0]
    segment_block(scene.store, block, params)
    assert set(calls) == set(names) - {"stabilize_mean"}
    assert calls["build_affinity"] == calls["spectral_cluster"] == 1
    assert calls["gpa_align"] == 2
    # The tracer reads the block result, store and block positionally.
    (args,) = straggler_args
    assert isinstance(args[0], BlockResult)
    assert args[1] is scene.store and args[2] is block


@pytest.mark.parametrize(
    "name", ["stabilize_mean", "back_transform", "project_to_preshape", "procrustes_distance"]
)
def test_traced_library_names_resolve(name):
    """``bench/tracing.py`` also wraps these at ``jitterseg.segmenter``."""
    assert callable(getattr(segmenter, name))
