"""Affinity matrix construction and spectral clustering."""

from __future__ import annotations

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
import jitterseg.clustering as clustering
from jitterseg.clustering import DEFAULT_OMEGA, _spectral_embedding
from jitterseg.errors import (
    InvalidAffinity,
    InvalidAssignment,
    InvalidParameter,
    JittersegError,
    ShapeMismatch,
)

from conftest import (
    oracle_ncut,
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


AFFINITY_KINDS = ["random", "duplicates", "two_groups", "disconnected", "all_ones"]


def _affinity(rng: np.random.Generator, k: int, kind: str, n_first: int | None = None) -> np.ndarray:
    """A K x K affinity of one kind, rows in shuffled order.

    ``random``: independent entries. ``duplicates``: rows repeated from
    a smaller random affinity (identical shapes). ``two_groups``: two
    groups (the first of ``n_first`` members) with weak affinity across.
    ``disconnected``: three to five groups with 1e-300 across.
    ``all_ones``: every shape identical.
    """
    if kind in ("random", "duplicates"):
        n = k if kind == "random" else int(rng.integers(1, k + 1))
        values = np.triu(rng.uniform(1e-3, 1.0, size=(n, n)), 1)
        values = values + values.T
        np.fill_diagonal(values, 1.0)
        idx = np.arange(k) if kind == "random" else rng.integers(0, n, size=k)
        return values[idx][:, idx]
    if kind == "all_ones":
        return np.ones((k, k))
    if kind == "two_groups":
        first = int(rng.integers(1, k)) if n_first is None else n_first
        group = rng.permutation(np.arange(k) >= first)
        across = rng.uniform(1e-6, 0.1)
    else:
        group = rng.integers(0, int(rng.integers(3, 6)), size=k)
        across = 1e-300
    values = np.where(group[:, None] == group[None, :], rng.uniform(0.5, 1.0), across)
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
        assign = spectral_cluster(afy)
        assert _partition_sets(assign.labels) == {
            frozenset(range(7)),
            frozenset(range(7, 12)),
        }

    def test_two_points_two_clusters(self):
        # Forced one-per-cluster, whatever the affinity says.
        afy = AffinityMatrix(np.array([[1.0, 0.9], [0.9, 1.0]]))
        assign = spectral_cluster(afy)
        assert sorted(assign.labels) == [0, 1]

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        shapes = [random_preshape(rng) for _ in range(12)]
        afy = build_affinity(shapes)
        first = spectral_cluster(afy)
        for _ in range(3):
            assert spectral_cluster(afy).labels == first.labels

    def test_label_permutation_is_partition_equal(self):
        # Reordering the representatives reorders the partition; label 0
        # goes to the side holding representative 0.
        afy = self._block_affinity([5, 7])
        assert spectral_cluster(afy).labels == (0,) * 5 + (1,) * 7
        order = [11, 0, 3, 8, 6, 1, 9, 2, 10, 4, 7, 5]
        permuted = AffinityMatrix(afy.values[order][:, order])
        assert spectral_cluster(permuted).labels == tuple(int(i < 5) for i in order)

    def test_synthetic_scene_accuracy(self):
        scene = generate_scene(SceneParams(n_bg=60, n_fg=20, n_frames=30, sigma=0.05, seed=7))
        shapes = [to_preshape(t) for t in scene.store.trajectories]
        afy = build_affinity(shapes)
        labels = np.array(spectral_cluster(afy).labels)
        truth = np.array([scene.ground_truth[t.id] for t in scene.store.trajectories])
        agree = np.mean(labels == truth)
        assert max(agree, 1.0 - agree) >= 0.9

    def test_fewer_than_two_shapes(self):
        with pytest.raises(InvalidParameter):
            spectral_cluster(AffinityMatrix(np.ones((1, 1))))

    def test_every_cluster_nonempty(self):
        rng = np.random.default_rng(8)
        shapes = [random_preshape(rng) for _ in range(9)]
        afy = build_affinity(shapes)
        assign = spectral_cluster(afy)
        assert set(assign.labels) == {0, 1}

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

    @pytest.mark.parametrize("y", [[-1.0, -1.0, 1.0, 1.0], [1.0, 1.0, -1.0, -1.0]])
    def test_equal_values_of_y_stay_on_one_side(self, monkeypatch, y):
        # Cutting off representative 0 alone would cut far less, but the
        # only threshold between distinct values of y is the middle one.
        values = np.full((4, 4), 1e-3)
        values[1:, 1:] = 1.0
        np.fill_diagonal(values, 1.0)
        monkeypatch.setattr(clustering, "_spectral_embedding", lambda v: np.array(y))
        assert spectral_cluster(AffinityMatrix(values)).labels == (0, 0, 1, 1)

    @PROPERTY
    @given(st.integers(2, 40), st.sampled_from(AFFINITY_KINDS), st.data())
    def test_matches_brute_force_ncut(self, k, kind, data):
        # The sweep's cumulative sums and the oracle's direct sums round
        # differently, so a threshold whose Ncut is within 1e-10 of the
        # smallest may win instead of it.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = _affinity(rng, k, kind)
        cuts = oracle_ncut(values, _spectral_embedding(values))
        labels = spectral_cluster(AffinityMatrix(values)).labels
        assert labels in cuts
        assert cuts[labels] <= min(cuts.values()) + 1e-10

    @PROPERTY
    @given(st.integers(2, 40), st.sampled_from(AFFINITY_KINDS), st.data())
    def test_labels_do_not_depend_on_embedding_signs(self, k, kind, data):
        # Negating v2 (and so y) gives the same labels, Ncut ties included.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        afy = AffinityMatrix(_affinity(rng, k, kind))
        base = spectral_cluster(afy).labels
        embed = clustering._spectral_embedding
        with pytest.MonkeyPatch.context() as m:
            m.setattr(clustering, "_spectral_embedding", lambda values: -embed(values))
            assert spectral_cluster(afy).labels == base

    @PROPERTY
    @given(st.integers(2, 40), st.data())
    def test_matches_former_m_way_clustering(self, k, data):
        # On two groups the cut and the former seeded k-means agree up to
        # which group is called 0.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = _affinity(rng, k, "two_groups", data.draw(st.integers(1, k - 1)))
        expected = oracle_spectral_cluster(values, 2, data.draw(st.integers(0, 1000)))
        got = spectral_cluster(AffinityMatrix(values)).labels
        assert _partition_sets(got) == _partition_sets(expected)


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
