"""Gram-matrix affinity against the literal residuals, and blocks run in any order.

``build_affinity`` takes every Procrustes distance in closed form from
the Gram matrix, ``sqrt(2 - 2|G_ij|)``, except for pairs below
``clustering.LITERAL_BELOW``, which take the literal residual.
``conftest.oracle_affinity_rows`` takes the literal residual for every
pair, one row at a time. Below the threshold the two must agree bit for
bit; above it within the error bound ``build_affinity`` states,
``8 (N + 2) u / d``; and the cut made from either must be the same.
"""

from __future__ import annotations

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jitterseg import (
    AffinityMatrix,
    BlockResult,
    SceneParams,
    SegmenterParams,
    Trajectory,
    TrajectoryStore,
    build_affinity,
    fuse_blocks,
    generate_scene,
    partition_blocks,
    segment_block,
    segment_store,
    spectral_cluster,
)
from jitterseg.clustering import LITERAL_BELOW
from jitterseg.errors import TooFewRepresentatives
from jitterseg.shapes import project_rows

from conftest import oracle_affinity_rows

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

UNIT_ROUNDOFF = 2.0**-53


def _stack(rng, k: int, n: int, duplicates: int, near: int = 0) -> np.ndarray:
    """K random shapes; some rows copied, and ``near`` rows made rotated,
    rescaled copies of another plus noise from 1e-12 to 1e-2, so pairs
    fall on both sides of ``LITERAL_BELOW``."""
    z = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    for _ in range(duplicates):
        z[rng.integers(k)] = z[rng.integers(k)]
    for _ in range(near):
        a, b = rng.integers(k, size=2)
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z[a] = z[b] * np.exp(1j * rng.uniform(0.0, 6.0)) * rng.uniform(0.5, 2.0)
        z[a] += 10.0 ** rng.uniform(-12.0, -2.0) * noise
    return project_rows(z)


@st.composite
def stacks(draw):
    n = draw(st.sampled_from([2, 3, 30, 60]))
    k = draw(st.integers(2, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    duplicates = draw(st.integers(0, 3))
    near = draw(st.integers(0, 6))
    return _stack(np.random.default_rng(seed), k, n, duplicates, near)


def _closed_form(z: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(2.0 - 2.0 * np.abs(z @ z.conj().T), 0.0))


def _distances(values: np.ndarray, omega: float) -> np.ndarray:
    return -omega * np.log(values)


class TestStripAffinity:
    @PROPERTY
    @given(stacks(), st.sampled_from([0.02, 0.5]))
    def test_within_the_stated_bound_of_the_residuals(self, z, omega):
        got = _distances(build_affinity(z, omega).values, omega)
        want = _distances(oracle_affinity_rows(z, omega), omega)
        eps = 8 * (z.shape[1] + 2) * UNIT_ROUNDOFF
        # The bound, plus the rounding of exp and log that turn distances
        # into affinities and back.
        tol = eps / np.maximum(want, LITERAL_BELOW) + 4 * UNIT_ROUNDOFF * (1.0 + want + omega)
        assert np.all(np.abs(got - want) <= tol)

    @PROPERTY
    @given(stacks(), st.sampled_from([0.02, 0.5]))
    def test_bitwise_equal_below_the_threshold(self, z, omega):
        got = build_affinity(z, omega).values
        want = oracle_affinity_rows(z, omega)
        below = _closed_form(z) < LITERAL_BELOW
        assert np.array_equal(got[below], want[below])

    def test_near_pairs_take_the_residual(self):
        # Copies at 1e-9 are closer than the closed form can resolve; the
        # residual still tells them from exact duplicates.
        rng = np.random.default_rng(3)
        z = _stack(rng, 12, 30, 0)
        z[5] = z[2]
        z[7] = z[2] + 1e-9 * (rng.standard_normal(30) + 1j * rng.standard_normal(30))
        z = project_rows(z)
        got = build_affinity(z, 0.02).values
        want = oracle_affinity_rows(z, 0.02)
        assert _closed_form(z)[2, 7] < LITERAL_BELOW
        assert got[2, 7] == want[2, 7] < 1.0
        assert got[2, 5] == 1.0

    @PROPERTY
    @given(stacks(), st.sampled_from([0.02, 0.5]))
    def test_exactly_symmetric(self, z, omega):
        values = build_affinity(z, omega).values
        assert np.array_equal(values, values.T)
        assert np.all(np.diag(values) == 1.0)

    @PROPERTY
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 25),
        st.integers(2, 25),
        st.sampled_from([5, 30, 60]),
        st.sampled_from([0.01, 0.05, 0.2]),
    )
    def test_same_partition_as_the_residuals_on_two_groups(self, seed, k0, k1, n, noise):
        # Two groups: rotated, rescaled, noisy copies of two base shapes.
        rng = np.random.default_rng(seed)
        bases = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        group = rng.permutation(np.repeat([0, 1], [k0, k1]))
        z = bases[group] * np.exp(1j * rng.uniform(0.0, 6.0, (k0 + k1, 1)))
        z += noise * (rng.standard_normal(z.shape) + 1j * rng.standard_normal(z.shape))
        z = project_rows(z)
        got = spectral_cluster(build_affinity(z, 0.02))
        want = spectral_cluster(AffinityMatrix(oracle_affinity_rows(z, 0.02)))
        assert got == want

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
