"""The complex (Kendall) shape core against its per-pair SVD oracles.

``build_affinity`` and ``gpa_align`` solve every rotation in closed form
on complex N-vectors; ``conftest`` keeps the former real-matrix loops
(one 2x2 SVD per pair or member) as oracles. Property tests draw seeded
shape sets of several kinds: unrelated shapes, coherent clusters (a
common shape under per-member rotation and noise), rotated copies of
one shape, and sets with exact duplicates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitterseg import (
    PreShape,
    build_affinity,
    gpa_align,
    optimal_rotation,
    procrustes_distance,
    project_to_preshape,
)

from conftest import oracle_affinity, oracle_gpa, rotation_matrix

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

KINDS = ("random", "coherent", "rotated_copies", "duplicates")


def _shape_set(kind: str, k: int, n: int, seed: int) -> list[PreShape]:
    rng = np.random.default_rng(seed)
    if kind == "random":
        return [project_to_preshape(rng.standard_normal((n, 2))) for _ in range(k)]
    base = rng.standard_normal((n, 2))
    if kind == "duplicates":
        distinct = [project_to_preshape(rng.standard_normal((n, 2))) for _ in range(max(1, k // 2))]
        return [distinct[int(i)] for i in rng.integers(len(distinct), size=k)]
    noise = 0.05 if kind == "coherent" else 0.0
    return [
        project_to_preshape(
            base @ rotation_matrix(rng.uniform(0.0, 2.0 * np.pi))
            + noise * rng.standard_normal((n, 2))
        )
        for _ in range(k)
    ]


@st.composite
def shape_sets(draw, min_k: int = 2, max_k: int = 12):
    kind = draw(st.sampled_from(KINDS))
    k = draw(st.integers(min_k, max_k))
    n = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    return _shape_set(kind, k, n, seed)


def _orthogonal_pair(n: int, seed: int) -> tuple[PreShape, PreShape]:
    """Two pre-shapes with <a, b> = 0 as complex vectors: no best rotation."""
    rng = np.random.default_rng(seed)
    a = project_to_preshape(rng.standard_normal((n, 2)))
    za = a.config[:, 0] + 1j * a.config[:, 1]
    zb = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    zb -= zb.mean()
    zb -= np.vdot(za, zb) * za
    return a, project_to_preshape(np.column_stack((zb.real, zb.imag)))


class TestAffinityOracle:
    @PROPERTY
    @given(shape_sets(), st.sampled_from([0.02, 0.1, 1.0]))
    def test_matches_per_pair_svd(self, shapes, omega):
        got = build_affinity(shapes, omega).values
        np.testing.assert_allclose(got, oracle_affinity(shapes, omega), rtol=0, atol=1e-12)

    @PROPERTY
    @given(st.sampled_from(KINDS), st.integers(2, 40), st.integers(0, 2**32 - 1))
    def test_two_shapes(self, kind, n, seed):
        shapes = _shape_set(kind, 2, n, seed)
        got = build_affinity(shapes).values
        np.testing.assert_allclose(got, oracle_affinity(shapes, 0.02), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_orthogonal_pair(self, seed):
        a, b = _orthogonal_pair(20, seed)
        got = build_affinity([a, b, a], 0.5).values
        np.testing.assert_allclose(got, oracle_affinity([a, b, a], 0.5), rtol=0, atol=1e-12)
        assert got[0, 1] == pytest.approx(np.exp(-np.sqrt(2.0) / 0.5), abs=1e-12)


class TestZeroInnerProduct:
    """<a, b> = 0 exactly: every rotation is optimal, none may give NaN."""

    def _pair(self):
        # Disjoint supports, so the inner product is exactly zero.
        a = PreShape(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]) / np.sqrt(2.0))
        b = PreShape(np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, -1.0]]) / np.sqrt(2.0))
        return a, b

    def test_distance_and_rotation(self):
        a, b = self._pair()
        assert procrustes_distance(a, b) == pytest.approx(np.sqrt(2.0), abs=1e-15)
        assert np.array_equal(optimal_rotation(a, b).matrix, np.eye(2))

    def test_affinity(self):
        a, b = self._pair()
        values = build_affinity([a, b], 1.0).values
        assert np.all(np.isfinite(values))
        assert values[0, 1] == pytest.approx(np.exp(-np.sqrt(2.0)), abs=1e-15)

    def test_gpa(self):
        a, b = self._pair()
        result = gpa_align([a, b], [0, 1])
        assert np.all(np.isfinite(result.mean))
        assert all(np.all(np.isfinite(r.matrix)) for r in result.rotations)


class TestGpaOracle:
    @PROPERTY
    @given(shape_sets(min_k=1))
    def test_matches_per_member_svd(self, shapes):
        result = gpa_align(shapes, range(len(shapes)))
        rotations, mean, obj, history = oracle_gpa(shapes, range(len(shapes)))
        assert len(result.sweep_objectives) == len(history)
        np.testing.assert_allclose(result.sweep_objectives, history, rtol=0, atol=1e-10)
        for got, want in zip(result.rotations, rotations):
            np.testing.assert_allclose(got.matrix, want, rtol=0, atol=1e-10)
        np.testing.assert_allclose(result.mean, mean, rtol=0, atol=1e-10)
        assert result.objective == pytest.approx(obj, abs=1e-10)

    @PROPERTY
    @given(shape_sets(min_k=2), st.randoms(use_true_random=False))
    def test_member_order_does_not_matter(self, shapes, rnd):
        k = len(shapes)
        order = list(range(k))
        rnd.shuffle(order)
        base = gpa_align(shapes, range(k))
        permuted = gpa_align(shapes, order)
        assert len(permuted.sweep_objectives) == len(base.sweep_objectives)
        assert permuted.objective == pytest.approx(base.objective, abs=1e-10)
        # Same solution in the other gauge: member order[0] is the identity.
        head = base.rotations[order[0]].matrix
        for pos, member in enumerate(order):
            np.testing.assert_allclose(
                permuted.rotations[pos].matrix,
                base.rotations[member].matrix @ head.T,
                rtol=0,
                atol=1e-9,
            )
        np.testing.assert_allclose(permuted.mean, base.mean @ head.T, rtol=0, atol=1e-9)
