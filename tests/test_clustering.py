"""Affinity matrix construction and spectral clustering."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitterseg import (
    AffinityMatrix,
    ClusterAssignment,
    SceneParams,
    Trajectory,
    build_affinity,
    generate_scene,
    procrustes_distance,
    spectral_cluster,
    to_preshape,
)
from jitterseg.clustering import DEFAULT_OMEGA, _kmeans_once, _spectral_embedding
from jitterseg.errors import (
    ClusterCollapse,
    InvalidAffinity,
    InvalidAssignment,
    InvalidParameter,
    JittersegError,
    ShapeMismatch,
)

from conftest import (
    oracle_spectral_cluster,
    random_preshape,
    random_trajectory_points,
    rotation_matrix,
)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


def _partition_sets(labels):
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, set()).add(i)
    return set(frozenset(g) for g in groups.values())


class TestBuildAffinity:
    def test_identical_shapes_have_affinity_one(self):
        rng = np.random.default_rng(0)
        pre = random_preshape(rng)
        afy = build_affinity([pre, pre], omega=0.02)
        assert afy.values[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_distance_equal_to_omega_gives_inv_e(self):
        rng = np.random.default_rng(1)
        a, b = random_preshape(rng), random_preshape(rng)
        omega = procrustes_distance(a, b)
        afy = build_affinity([a, b], omega=omega)
        assert afy.values[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_default_omega(self):
        assert DEFAULT_OMEGA == 0.02

    def test_exact_symmetry_and_unit_diagonal(self):
        rng = np.random.default_rng(2)
        shapes = [random_preshape(rng) for _ in range(8)]
        afy = build_affinity(shapes)
        assert np.array_equal(afy.values, afy.values.T)
        assert np.all(np.diag(afy.values) == 1.0)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(3)
        tracks = [random_trajectory_points(rng) for _ in range(6)]
        shapes = [to_preshape(Trajectory(i, 0, p)) for i, p in enumerate(tracks)]
        warped = []
        for i, p in enumerate(tracks):
            s = rng.uniform(0.5, 3.0)
            shift = rng.uniform(-50, 50, size=2)
            warped.append(
                to_preshape(Trajectory(i, 0, s * p @ rotation_matrix(rng.uniform(0, 6)).T + shift))
            )
        a0 = build_affinity(shapes).values
        a1 = build_affinity(warped).values
        np.testing.assert_allclose(a0, a1, atol=1e-8)

    def test_monotone_in_distance(self):
        rng = np.random.default_rng(4)
        shapes = [random_preshape(rng) for _ in range(10)]
        afy = build_affinity(shapes)
        for i in range(10):
            for j in range(10):
                for k in range(10):
                    dij = procrustes_distance(shapes[i], shapes[j])
                    dik = procrustes_distance(shapes[i], shapes[k])
                    if dij < dik:
                        assert afy.values[i, j] > afy.values[i, k]

    def test_rejects_bad_omega(self):
        rng = np.random.default_rng(5)
        shapes = [random_preshape(rng) for _ in range(2)]
        with pytest.raises(InvalidParameter):
            build_affinity(shapes, omega=0.0)

    def test_underflow_is_invalid_parameter(self):
        rng = np.random.default_rng(7)
        shapes = [random_preshape(rng) for _ in range(4)]
        d_min = min(
            procrustes_distance(shapes[i], shapes[j]) for i in range(4) for j in range(i + 1, 4)
        )
        omega = d_min / 800.0  # exp(-800) underflows to 0
        with pytest.raises(InvalidParameter, match=f"omega={omega:g}"):
            build_affinity(shapes, omega=omega)

    def test_rejects_nan_omega(self):
        rng = np.random.default_rng(8)
        with pytest.raises(InvalidParameter):
            build_affinity([random_preshape(rng) for _ in range(2)], omega=float("nan"))

    def test_rejects_mixed_lengths(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ShapeMismatch):
            build_affinity([random_preshape(rng, 30), random_preshape(rng, 10)])


def _random_affinity(rng: np.random.Generator, k: int) -> np.ndarray:
    values = np.triu(rng.uniform(1e-3, 1.0, size=(k, k)), 1)
    values = values + values.T
    np.fill_diagonal(values, 1.0)
    return values


class TestSpectralCluster:
    def _block_affinity(self, sizes, within=1.0, across=1e-6):
        k = sum(sizes)
        values = np.full((k, k), across)
        start = 0
        for size in sizes:
            values[start : start + size, start : start + size] = within
            start += size
        np.fill_diagonal(values, 1.0)
        return AffinityMatrix(values)

    def test_separates_exact_blocks(self):
        afy = self._block_affinity([7, 5])
        assign = spectral_cluster(afy, seed=0)
        assert _partition_sets(assign.labels) == {
            frozenset(range(7)),
            frozenset(range(7, 12)),
        }

    def test_two_points_two_clusters(self):
        # Forced one-per-cluster, whatever the affinity says.
        afy = AffinityMatrix(np.array([[1.0, 0.9], [0.9, 1.0]]))
        assign = spectral_cluster(afy, seed=3)
        assert sorted(assign.labels) == [0, 1]

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        shapes = [random_preshape(rng) for _ in range(12)]
        afy = build_affinity(shapes)
        first = spectral_cluster(afy, seed=42)
        for _ in range(3):
            assert spectral_cluster(afy, seed=42).labels == first.labels

    def test_label_permutation_is_partition_equal(self):
        afy = self._block_affinity([6, 6])
        a = spectral_cluster(afy, seed=0)
        b = spectral_cluster(afy, seed=11)
        assert _partition_sets(a.labels) == _partition_sets(b.labels)

    def test_synthetic_scene_accuracy(self):
        scene = generate_scene(SceneParams(n_bg=60, n_fg=20, n_frames=30, sigma=0.05, seed=7))
        shapes = [to_preshape(t) for t in scene.store.trajectories]
        afy = build_affinity(shapes)
        labels = np.array(spectral_cluster(afy, seed=7).labels)
        truth = np.array([scene.ground_truth[t.id] for t in scene.store.trajectories])
        agree = np.mean(labels == truth)
        assert max(agree, 1.0 - agree) >= 0.9

    def test_fewer_than_two_shapes(self):
        with pytest.raises(InvalidParameter):
            spectral_cluster(AffinityMatrix(np.ones((1, 1))), seed=0)

    def test_every_cluster_nonempty(self):
        rng = np.random.default_rng(8)
        shapes = [random_preshape(rng) for _ in range(9)]
        afy = build_affinity(shapes)
        assign = spectral_cluster(afy, seed=1)
        assert set(assign.labels) == {0, 1}

    def test_collapse_raises(self, monkeypatch):
        # The spectral embedding itself always separates duplicates, so a
        # genuine collapse is forced by stubbing it with identical rows:
        # every restart must empty one of the two clusters.
        import jitterseg.clustering as mod

        degenerate = np.array([[1.0, 0.0]] * 8)
        monkeypatch.setattr(mod, "_spectral_embedding", lambda values: degenerate)
        afy = AffinityMatrix(np.ones((8, 8)))
        with pytest.raises(ClusterCollapse):
            spectral_cluster(afy, seed=0)

    def test_kmeans_reports_empty_cluster(self):
        points = np.array([[0.6, 0.8]] * 5)
        assert _kmeans_once(points, seed=0) is None

    def test_eigensolver_residual(self):
        rng = np.random.default_rng(9)
        shapes = [random_preshape(rng) for _ in range(15)]
        values = build_affinity(shapes).values
        deg = values.sum(axis=1)
        d_isqrt = 1.0 / np.sqrt(deg)
        lap = np.eye(15) - d_isqrt[:, None] * values * d_isqrt[None, :]
        lap = (lap + lap.T) / 2.0
        vals, vecs = np.linalg.eigh(lap)
        for i in range(15):
            assert np.linalg.norm(lap @ vecs[:, i] - vals[i] * vecs[:, i]) <= 1e-8

    @PROPERTY
    @given(st.integers(2, 40), st.sampled_from(["embedding", "normal", "grid"]), st.data())
    def test_labels_do_not_depend_on_embedding_signs(self, k, kind, data):
        # Negating a column negates every center exactly and leaves every
        # distance bitwise the same, whatever sign eigh returns.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if kind == "embedding":
            points = _spectral_embedding(_random_affinity(rng, k))
        elif kind == "normal":
            points = rng.standard_normal((k, 2))
        else:  # duplicates and exact distance ties
            points = rng.integers(-2, 3, size=(k, 2)).astype(float)
        seed = data.draw(st.integers(0, 1000))
        base = _kmeans_once(points, seed)
        for signs in ([-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]):
            flipped = _kmeans_once(points * np.array(signs), seed)
            if base is None:
                assert flipped is None
            else:
                assert np.array_equal(flipped, base)

    @PROPERTY
    @given(st.integers(2, 40), st.sampled_from(["random", "two_groups", "disconnected"]), st.data())
    def test_matches_former_m_way_clustering(self, k, kind, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if kind == "random":
            values = _random_affinity(rng, k)
        else:
            # Two groups, or three or more numerically disconnected ones,
            # in shuffled order.
            n_groups = 2 if kind == "two_groups" else int(rng.integers(3, 6))
            group = rng.integers(0, n_groups, size=k)
            across = rng.uniform(1e-6, 0.1) if kind == "two_groups" else 1e-300
            values = np.where(group[:, None] == group[None, :], rng.uniform(0.5, 1.0), across)
            np.fill_diagonal(values, 1.0)
        seed = data.draw(st.integers(0, 1000))
        try:
            expected = oracle_spectral_cluster(values, 2, seed)
        except ClusterCollapse as exc:
            with pytest.raises(ClusterCollapse, match=re.escape(str(exc))):
                spectral_cluster(AffinityMatrix(values), seed)
        else:
            assert spectral_cluster(AffinityMatrix(values), seed).labels == expected


class TestAffinityType:
    # InvalidAffinity is both a JittersegError and a ValueError.
    def test_rejects_asymmetric(self):
        v = np.array([[1.0, 0.5], [0.6, 1.0]])
        with pytest.raises(InvalidAffinity):
            AffinityMatrix(v)

    def test_rejects_bad_diagonal(self):
        v = np.array([[0.9, 0.5], [0.5, 1.0]])
        with pytest.raises(InvalidAffinity):
            AffinityMatrix(v)

    def test_rejects_out_of_range(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidAffinity):
            AffinityMatrix(v)

    def test_rejects_nan(self):
        v = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(InvalidAffinity):
            AffinityMatrix(v)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidAffinity):
            AffinityMatrix(np.ones((2, 3)))

    def test_errors_are_value_errors(self):
        assert issubclass(InvalidAffinity, JittersegError)
        assert issubclass(InvalidAffinity, ValueError)


class TestClusterAssignmentType:
    @pytest.mark.parametrize("labels", [(0, 2, 1), (0, 0, 0), (1, 1)])
    def test_typed_value_error(self, labels):
        with pytest.raises(InvalidAssignment) as info:
            ClusterAssignment(labels)
        assert isinstance(info.value, JittersegError)
        assert isinstance(info.value, ValueError)
