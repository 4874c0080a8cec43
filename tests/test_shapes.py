"""Pre-shape projection, optimal rotation, and Procrustes distance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from jitterseg.shapes import DEGENERACY_EPS, as_complex, preshape_rows, procrustes_residuals

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coordinates(self, bad):
        with pytest.raises(InvalidPreShape, match="non-finite"):
            project_to_preshape(np.array([[0.0, 0.0], [1.0, bad], [2.0, 1.0]]))

    def test_coinciding_points_away_from_the_origin(self):
        # One centering pass leaves these 38 equal points a residue above
        # DEGENERACY_EPS, which once failed the centering check.
        still = np.tile([497.0771931790707, 220.68118837909458], (38, 1))
        with pytest.raises(DegenerateTrajectory):
            project_to_preshape(still)
        pre, norms = preshape_rows(as_complex(still)[None])
        assert norms.tolist() == [0.0] and not pre.any()


@st.composite
def configurations(draw, n=None):
    """(N, 2) point sets near the origin or far from it, moving or nearly still.

    A spread of 0 is a track that sits still, as in
    ``test_motionless_track_does_not_stop_the_run``; 1e-3 is one that
    jitters in place.
    """
    n = n or draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    center = draw(st.sampled_from([0.0, 1.0, 500.0, 1e4])) * rng.uniform(0.0, 1.0, 2)
    spread = draw(st.sampled_from([0.0, 1e-9, 1e-3, 1.0, 100.0]))
    return center + spread * rng.standard_normal((n, 2))


def _moves(cfg) -> bool:
    return preshape_rows(as_complex(cfg)[None])[1][0] >= DEGENERACY_EPS


class TestOneShapeCore:
    """The single-shape API returns the stacked kernels' bits."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(configurations())
    def test_projection_is_the_row_projection(self, cfg):
        pre, norms = preshape_rows(as_complex(cfg)[None])
        if norms[0] < DEGENERACY_EPS:
            with pytest.raises(DegenerateTrajectory):
                project_to_preshape(cfg)
        else:
            row = pre[0].view(float).reshape(-1, 2)
            assert project_to_preshape(cfg).config.tobytes() == row.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data(), st.integers(2, 60), st.sampled_from(["random", "close", "same"]))
    def test_distance_is_the_residual_kernel(self, data, n, kind):
        a = project_to_preshape(data.draw(configurations(n).filter(_moves)))
        if kind == "random":
            b = project_to_preshape(data.draw(configurations(n).filter(_moves)))
        else:
            noise = 1e-7 * np.random.default_rng(n).standard_normal((n, 2))
            b = project_to_preshape(a.config @ rotation_matrix(0.4) + (kind == "close") * noise)
        rot = optimal_rotation(a, b).matrix
        phase = np.array([[complex(rot[0, 0], rot[0, 1])]])
        want = procrustes_residuals(as_complex(a.config)[None], as_complex(b.config)[None], phase)
        assert procrustes_distance(a, b) == want[0, 0]


class TestMaskedProjection:
    """``preshape_rows(z, mask)`` projects each row over its covered frames."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(2, 60), st.integers(1, 6), st.data())
    def test_all_true_mask_is_the_default(self, n, k, data):
        z = as_complex(np.array([data.draw(configurations(n)) for _ in range(k)]))
        pre, norms = preshape_rows(z)
        for mask in (np.ones(z.shape, dtype=bool), np.ones(n, dtype=bool)):
            masked, masked_norms = preshape_rows(z, mask)
            assert masked.tobytes() == pre.tobytes()
            assert masked_norms.tobytes() == norms.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(configurations(), st.data())
    def test_masked_row_is_its_compacted_frames(self, cfg, data):
        n = cfg.shape[0]
        masks = st.lists(st.booleans(), min_size=n, max_size=n).filter(lambda m: sum(m) >= 2)
        covered = data.draw(masks)
        mask = np.array(covered)
        # Points outside the mask must not count: fill them with other values.
        z = as_complex(cfg).copy()
        z[~mask] = 1e4 * (1 + 1j)
        masked, masked_norms = preshape_rows(z[None], mask[None])
        compact, compact_norms = preshape_rows(as_complex(cfg[mask])[None])
        assert not masked[0, ~mask].any()
        assert (masked_norms[0] < DEGENERACY_EPS) == (compact_norms[0] < DEGENERACY_EPS)
        np.testing.assert_allclose(masked_norms, compact_norms, rtol=1e-14, atol=0)
        np.testing.assert_allclose(masked[0, mask], compact[0], rtol=0, atol=1e-15)

    def test_rows_of_one_or_no_covered_frame_have_no_shape(self):
        z = as_complex(np.array([[[3.0, 4.0], [5.0, 6.0], [7.0, 9.0]]] * 3))
        mask = np.array([[True, False, False], [False, False, False], [True, False, True]])
        pre, norms = preshape_rows(z, mask)
        assert norms[:2].tolist() == [0.0, 0.0] and not pre[:2].any()
        assert norms[2] > 0 and pre[2, 1] == 0


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
            (lambda: PreShape(np.full((3, 2), np.nan)), InvalidPreShape),
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
