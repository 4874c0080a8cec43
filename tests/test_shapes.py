"""Pre-shape projection, optimal rotation, and Procrustes distance."""

from __future__ import annotations

import numpy as np
import pytest

from jitterseg import (
    PreShape,
    Rotation2D,
    Trajectory,
    optimal_rotation,
    procrustes_distance,
    project_to_preshape,
    to_preshape,
)
from jitterseg.errors import (
    BoundsError,
    DegenerateTrajectory,
    InvalidPreShape,
    InvalidRotation,
    InvalidTrajectory,
    JittersegError,
    ShapeMismatch,
)
from jitterseg.shapes import as_complex, preshape_rows

from conftest import grid_search_rotation, random_preshape, random_trajectory_points, rotation_matrix


class TestToPreshape:
    def test_two_point_track(self):
        pre = to_preshape(Trajectory(0, 0, np.array([[0.0, 0.0], [1.0, 0.0]])))
        expected = np.array([[-1.0, 0.0], [1.0, 0.0]]) / np.sqrt(2.0)
        np.testing.assert_allclose(pre.config, expected, atol=1e-15)

    def test_identical_points_are_degenerate(self):
        traj = Trajectory(0, 0, np.array([[5.0, 5.0]] * 3))
        with pytest.raises(DegenerateTrajectory):
            to_preshape(traj)

    def test_translation_and_scale_invariance(self):
        rng = np.random.default_rng(1)
        pts = random_trajectory_points(rng)
        base = to_preshape(Trajectory(0, 0, pts))
        moved = to_preshape(Trajectory(1, 0, 4.2 * pts + np.array([37.0, -12.0])))
        np.testing.assert_allclose(moved.config, base.config, atol=1e-10)

    def test_unit_norm_and_centering(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pre = to_preshape(Trajectory(0, 0, random_trajectory_points(rng)))
            assert abs(np.linalg.norm(pre.config) - 1.0) <= 1e-10
            assert np.max(np.abs(pre.config.sum(axis=0))) <= 1e-10

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            Trajectory(0, 0, np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(BoundsError):
            Trajectory(0, 0, np.array([[1.0, 2.0], [bad, 3.0]]))


class TestProjectToPreshape:
    def test_idempotent(self):
        rng = np.random.default_rng(3)
        pre = random_preshape(rng)
        again = project_to_preshape(pre.config)
        np.testing.assert_allclose(again.config, pre.config, atol=1e-12)

    def test_scale_removed(self):
        rng = np.random.default_rng(4)
        pre = random_preshape(rng)
        np.testing.assert_allclose(
            project_to_preshape(2.0 * pre.config).config, pre.config, atol=1e-12
        )

    def test_offset_removed(self):
        rng = np.random.default_rng(5)
        pre = random_preshape(rng)
        shifted = pre.config + np.array([3.0, -1.0])
        np.testing.assert_allclose(
            project_to_preshape(shifted).config, pre.config, atol=1e-12
        )

    def test_degenerate_config(self):
        with pytest.raises(DegenerateTrajectory):
            project_to_preshape(np.zeros((4, 2)))

    def test_coinciding_points_away_from_the_origin(self):
        # One centering pass leaves these 38 equal points a residue above
        # DEGENERACY_EPS, which once failed the centering check.
        still = np.tile([497.0771931790707, 220.68118837909458], (38, 1))
        with pytest.raises(DegenerateTrajectory):
            project_to_preshape(still)
        pre, norms = preshape_rows(as_complex(still)[None])
        assert norms.tolist() == [0.0] and not pre.any()


class TestOptimalRotation:
    def test_self_alignment_is_identity(self):
        rng = np.random.default_rng(6)
        pre = random_preshape(rng)
        rot = optimal_rotation(pre, pre)
        np.testing.assert_allclose(rot.matrix, np.eye(2), atol=1e-12)

    def test_recovers_known_rotation(self):
        rng = np.random.default_rng(7)
        a = random_preshape(rng)
        r = rotation_matrix(0.3)
        b = PreShape(a.config @ r.T)
        rot = optimal_rotation(a, b)
        np.testing.assert_allclose(rot.matrix, r, atol=1e-9)

    def test_matches_grid_search_angle(self):
        rng = np.random.default_rng(8)
        a, b = random_preshape(rng), random_preshape(rng)
        rot = optimal_rotation(a, b)
        _, theta = grid_search_rotation(a, b)
        diff = (rot.angle - theta + np.pi) % (2.0 * np.pi) - np.pi
        assert abs(diff) <= 1e-5

    def test_proper_rotation_even_for_reflection_optimum(self):
        # Mirrored configuration: the unconstrained orthogonal optimum is a
        # reflection, but the result must stay in SO(2).
        rng = np.random.default_rng(9)
        a = random_preshape(rng)
        b = PreShape(a.config * np.array([1.0, -1.0]))
        rot = optimal_rotation(a, b)
        assert abs(np.linalg.det(rot.matrix) - 1.0) <= 1e-10

    def test_mismatched_lengths(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ShapeMismatch):
            optimal_rotation(random_preshape(rng, 30), random_preshape(rng, 20))


class TestProcrustesDistance:
    def test_zero_on_self(self):
        rng = np.random.default_rng(11)
        pre = random_preshape(rng)
        assert procrustes_distance(pre, pre) <= 1e-12

    def test_zero_under_similarity_transform(self):
        rng = np.random.default_rng(12)
        pts = random_trajectory_points(rng)
        moved = 2.5 * pts @ rotation_matrix(1.1).T + np.array([100.0, 40.0])
        d = procrustes_distance(
            to_preshape(Trajectory(0, 0, pts)), to_preshape(Trajectory(1, 0, moved))
        )
        assert d <= 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a, b = random_preshape(rng), random_preshape(rng)
            assert abs(procrustes_distance(a, b) - procrustes_distance(b, a)) <= 1e-10

    def test_range(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            d = procrustes_distance(random_preshape(rng), random_preshape(rng))
            assert 0.0 <= d <= 2.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            a, b, c = (random_preshape(rng, 12) for _ in range(3))
            assert procrustes_distance(a, c) <= (
                procrustes_distance(a, b) + procrustes_distance(b, c) + 1e-9
            )

    def test_beats_sampled_rotations(self):
        rng = np.random.default_rng(16)
        thetas = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
        for _ in range(100):
            a, b = random_preshape(rng, 15), random_preshape(rng, 15)
            d = procrustes_distance(a, b)
            sampled = [
                np.linalg.norm(a.config - b.config @ rotation_matrix(t)) for t in thetas
            ]
            assert d <= min(sampled) + 1e-9


class TestRotationType:
    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            Rotation2D(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            Rotation2D(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_angle(self):
        assert Rotation2D(rotation_matrix(0.7)).angle == pytest.approx(0.7, abs=1e-12)


class TestPreShapeType:
    def test_rejects_uncentered(self):
        cfg = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            PreShape(cfg / np.linalg.norm(cfg))

    def test_rejects_wrong_norm(self):
        with pytest.raises(ValueError):
            PreShape(np.array([[-1.0, 0.0], [1.0, 0.0]]))

    def test_config_is_immutable(self):
        rng = np.random.default_rng(17)
        pre = random_preshape(rng)
        with pytest.raises(ValueError):
            pre.config[0, 0] = 5.0


class TestTypedValidationErrors:
    """Constructor checks raise JittersegError subclasses that are still ValueErrors."""

    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: Trajectory(0, 0, np.zeros(4)), InvalidTrajectory),
            (lambda: Trajectory(0, 0, np.zeros((1, 2))), InvalidTrajectory),
            (lambda: Trajectory(0, -1, np.zeros((2, 2))), InvalidTrajectory),
            (lambda: PreShape(np.zeros((1, 2))), InvalidPreShape),
            (lambda: PreShape(np.array([[1.0, 0.0], [0.0, 0.0]])), InvalidPreShape),
            (lambda: PreShape(np.array([[-1.0, 0.0], [1.0, 0.0]])), InvalidPreShape),
            (lambda: Rotation2D(np.eye(3)), InvalidRotation),
            (lambda: Rotation2D(np.array([[1.0, 0.0], [0.0, -1.0]])), InvalidRotation),
            (lambda: Rotation2D(np.array([[1.0, 0.5], [0.0, 1.0]])), InvalidRotation),
        ],
    )
    def test_typed(self, build, error):
        with pytest.raises(error) as info:
            build()
        assert isinstance(info.value, JittersegError)
        assert isinstance(info.value, ValueError)
