"""Strip-tiled affinity against its row loop, and blocks run in any order.

``build_affinity`` computes the literal residuals for a strip of rows
against every later column at once and keeps the upper triangle;
``conftest.oracle_affinity_rows`` is the former one-row-at-a-time loop.
Both use the same elementwise operations and the same last-axis sum, so
the matrices must agree bit for bit, at strip boundaries too.
"""

from __future__ import annotations

import math
import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jitterseg import (
    BlockResult,
    SceneParams,
    SegmenterParams,
    Trajectory,
    TrajectoryStore,
    build_affinity,
    clustering,
    fuse_blocks,
    generate_scene,
    partition_blocks,
    segment_block,
    segment_store,
)
from jitterseg.errors import TooFewRepresentatives
from jitterseg.shapes import project_rows

from conftest import oracle_affinity_rows

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def one_strip_k(n: int) -> int:
    """The largest K whose K - 1 strip rows against K - 1 columns fit the budget."""
    return math.isqrt(clustering.AFFINITY_STRIP_ELEMENTS // n) + 1


def _stack(rng, k: int, n: int, duplicates: int) -> np.ndarray:
    z = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    for _ in range(duplicates):
        z[rng.integers(k)] = z[rng.integers(k)]
    return project_rows(z)


@st.composite
def stacks(draw):
    n = draw(st.sampled_from([2, 30, 60]))
    edge = one_strip_k(n)
    k = draw(st.sampled_from([2, 3, edge - 1, edge, edge + 1, 3 * edge + 2]))
    seed = draw(st.integers(0, 2**32 - 1))
    duplicates = draw(st.integers(0, 3))
    return _stack(np.random.default_rng(seed), k, n, duplicates)


class TestStripAffinity:
    def test_one_strip_edge(self):
        for n in (2, 30, 60):
            edge = one_strip_k(n)
            assert (edge - 1) ** 2 * n <= clustering.AFFINITY_STRIP_ELEMENTS
            assert edge**2 * n > clustering.AFFINITY_STRIP_ELEMENTS

    @PROPERTY
    @given(stacks(), st.sampled_from([0.02, 0.5]))
    def test_bitwise_equal_to_row_loop(self, z, omega):
        got = build_affinity(z, omega).values
        assert np.array_equal(got, oracle_affinity_rows(z, omega))

    @PROPERTY
    @given(
        st.integers(2, 40),
        st.integers(2, 12),
        st.integers(1, 400),
        st.integers(0, 2**32 - 1),
        st.integers(0, 3),
    )
    def test_any_strip_budget(self, k, n, budget, seed, duplicates):
        # Budgets below one row give one-row strips; others mix strip heights.
        z = _stack(np.random.default_rng(seed), k, n, duplicates)
        with mock.patch.object(clustering, "AFFINITY_STRIP_ELEMENTS", budget):
            got = build_affinity(z, 0.1).values
        assert np.array_equal(got, oracle_affinity_rows(z, 0.1))

    def test_duplicates_have_affinity_one(self):
        z = _stack(np.random.default_rng(4), 50, 30, 0)
        z[7] = z[41]
        values = build_affinity(z, 0.02).values
        assert values[7, 41] == values[41, 7] == 1.0


def _multi_block_store(seed: int, n_frames: int, sigma: float, cut_frac: float):
    scene = generate_scene(
        SceneParams(n_bg=24, n_fg=10, n_frames=n_frames, sigma=sigma, seed=seed)
    )
    rng = np.random.default_rng(seed)
    trajs = []
    for t in scene.store.trajectories:
        if rng.random() < cut_frac:
            lo = int(rng.integers(0, n_frames - 2))
            hi = int(rng.integers(lo + 2, n_frames + 1))
            t = Trajectory(t.id, lo, t.points[lo:hi])
        trajs.append(t)
    return TrajectoryStore(tuple(trajs), n_frames, scene.store.frame_size)


def _segment_alone(store, block, params):
    try:
        return segment_block(store, block, params)
    except TooFewRepresentatives:
        return BlockResult(block, {}, ())


class TestSerialEqualsParallel:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(40, 90),
        st.sampled_from([0.0, 0.15, 0.25]),
        st.sampled_from([0.0, 0.3]),
        st.integers(15, 30),
    )
    def test_jobs_do_not_change_the_result(self, seed, n_frames, sigma, cut_frac, block_len):
        store = _multi_block_store(seed, n_frames, sigma, cut_frac)
        params = SegmenterParams(seed=seed % 100, max_block_len=block_len)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            serial, fused_serial = segment_store(store, params)
            # Each block alone, the last one first: no block's result
            # depends on the blocks segmented before it.
            blocks = partition_blocks(store, params)
            alone = [_segment_alone(store, b, params) for b in reversed(blocks)][::-1]
            fused_alone = fuse_blocks(alone, store)
        assert len(serial) >= 2
        assert fused_serial == fused_alone
        for a, b in zip(serial, alone, strict=True):
            assert a.block == b.block
            assert a.labels == b.labels
            assert len(a.means) == len(b.means)
            for ma, mb in zip(a.means, b.means):
                assert ma.tobytes() == mb.tobytes()
