"""Cluster alignment (GPA), mean stabilization, and back-transformation."""

from __future__ import annotations

import numpy as np
import pytest

from jitterseg import (
    back_transform,
    gpa_align,
    optimal_rotation,
    stabilize_mean,
)
from jitterseg.alignment import _jacobi_coefficients
from jitterseg.errors import EmptyCluster, InvalidParameter, ShapeMismatch

from conftest import random_preshape, rotation_matrix, svd_rotation_matrix


def _centroid_objective(configs, rotations):
    rotated = [c @ r for c, r in zip(configs, rotations)]
    mean = np.mean(rotated, axis=0)
    return sum(float(np.sum((r - mean) ** 2)) for r in rotated) / len(rotated), mean


def _grid_gpa_objective(shapes, n_angles=200):
    """Exhaustive minimum of the cluster objective over a 3-angle grid.

    For unit-norm members the residual about the centroid satisfies
    sum_i ||X_i - F||^2 = sum_i ||X_i||^2 - K ||F||^2, so the grid only
    needs the pairwise inner products; the identity itself is verified
    against direct evaluation on a few sample triples.
    """
    z1, z2, z3 = (s.config for s in shapes)
    thetas = 2.0 * np.pi * np.arange(n_angles) / n_angles
    rots = np.array([rotation_matrix(t) for t in thetas])
    b_stack = np.einsum("md,tde->tme", z2, rots)
    c_stack = np.einsum("md,tde->tme", z3, rots)
    bc = np.einsum("imd,jmd->ij", b_stack, c_stack)
    best = np.inf
    for t1 in range(n_angles):
        a = z1 @ rots[t1]
        ab = np.einsum("md,imd->i", a, b_stack)
        ac = np.einsum("md,imd->i", a, c_stack)
        norm2 = (3.0 + 2.0 * (ab[:, None] + ac[None, :] + bc)) / 9.0
        obj = 1.0 - norm2
        best = min(best, float(obj.min()))

    # Self-check of the parallel-axis shortcut on a few grid triples.
    rng = np.random.default_rng(0)
    for _ in range(5):
        i, j, k = rng.integers(n_angles, size=3)
        direct, _ = _centroid_objective(
            [z1, z2, z3], [rots[i], rots[j], rots[k]]
        )
        a = z1 @ rots[i]
        via_identity = 1.0 - (
            3.0
            + 2.0
            * (
                np.sum(a * b_stack[j])
                + np.sum(a * c_stack[k])
                + np.sum(b_stack[j] * c_stack[k])
            )
        ) / 9.0
        assert abs(direct - via_identity) <= 1e-12
    return best


def _direct_fixed_point(mean: np.ndarray, lam: float) -> np.ndarray:
    """Solve the stabilized-mean fixed-point system with a dense solver."""
    n = mean.shape[0]
    alpha, beta = _jacobi_coefficients(lam, n)
    system = (1.0 + beta) * np.eye(n) - beta * np.ones((n, n))
    return np.linalg.solve(system, alpha * mean)


class TestGpaAlign:
    def test_identical_members(self):
        rng = np.random.default_rng(1)
        pre = random_preshape(rng)
        result = gpa_align([pre] * 5, range(5))
        for rot in result.rotations:
            assert np.array_equal(rot.matrix, np.eye(2))
        np.testing.assert_allclose(result.mean, pre.config, atol=1e-14)
        assert result.objective <= 1e-25

    def test_identical_members_power_of_two_is_exact(self):
        rng = np.random.default_rng(2)
        pre = random_preshape(rng)
        result = gpa_align([pre] * 4, range(4))
        assert result.objective == 0.0
        for rot in result.rotations:
            assert np.array_equal(rot.matrix, np.eye(2))
        assert np.array_equal(result.mean, pre.config)

    def test_singleton_cluster(self):
        rng = np.random.default_rng(3)
        pre = random_preshape(rng)
        result = gpa_align([pre], [0])
        assert np.array_equal(result.rotations[0].matrix, np.eye(2))
        np.testing.assert_allclose(result.mean, pre.config, atol=1e-15)

    def test_three_member_grid_oracle(self):
        rng = np.random.default_rng(4)
        shapes = [random_preshape(rng) for _ in range(3)]
        result = gpa_align(shapes, range(3))
        grid_best = _grid_gpa_objective(shapes)
        assert abs(result.objective - grid_best) <= 1e-3 * abs(grid_best)

    def test_objective_monotone_over_sweeps(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            shapes = [random_preshape(rng, 12) for _ in range(k)]
            result = gpa_align(shapes, range(k))
            diffs = np.diff(result.sweep_objectives)
            assert np.all(diffs <= 1e-12)

    def test_mean_is_fixed_point(self):
        # Coherent clusters (a common shape, per-member rotation and noise),
        # the case the pipeline feeds GPA; these converge well inside the
        # sweep cap, unlike clusters of unrelated random shapes.
        from jitterseg import project_to_preshape

        rng = np.random.default_rng(6)
        for _ in range(20):
            base = random_preshape(rng, 15)
            shapes = [
                project_to_preshape(
                    base.config @ rotation_matrix(rng.uniform(0, 2 * np.pi))
                    + 0.05 * rng.standard_normal((15, 2))
                )
                for _ in range(5)
            ]
            result = gpa_align(shapes, range(5))
            configs = [s.config for s in shapes]
            rots = [svd_rotation_matrix(result.mean, c) for c in configs]
            obj, _ = _centroid_objective(configs, rots)
            assert abs(obj - result.objective) < 1e-9

    def test_gauge_first_member_identity(self):
        rng = np.random.default_rng(7)
        shapes = [random_preshape(rng) for _ in range(4)]
        result = gpa_align(shapes, range(4))
        assert np.array_equal(result.rotations[0].matrix, np.eye(2))

    def test_mean_recomputable_from_rotations(self):
        rng = np.random.default_rng(8)
        shapes = [random_preshape(rng) for _ in range(6)]
        result = gpa_align(shapes, range(6))
        rebuilt = np.mean(
            [shapes[i].config @ result.rotations[i].matrix for i in range(6)], axis=0
        )
        np.testing.assert_allclose(rebuilt, result.mean, atol=1e-10)

    def test_member_subset(self):
        rng = np.random.default_rng(9)
        shapes = [random_preshape(rng) for _ in range(6)]
        result = gpa_align(shapes, [1, 3, 5])
        assert len(result.rotations) == 3

    def test_empty_members(self):
        rng = np.random.default_rng(10)
        with pytest.raises(EmptyCluster):
            gpa_align([random_preshape(rng)], [])

    def test_mixed_lengths(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ShapeMismatch):
            gpa_align([random_preshape(rng, 30), random_preshape(rng, 10)], [0, 1])


class TestStabilizeMean:
    def test_lambda_zero_is_identity(self):
        rng = np.random.default_rng(12)
        mean = rng.standard_normal((30, 2))
        out = stabilize_mean(mean, 0.0, 5)
        assert np.max(np.abs(out.config - mean)) <= 1e-12

    def test_constant_rows_fixed_point(self):
        row = np.array([3.5, -2.0])
        mean = np.tile(row, (12, 1))
        for lam in (0.2, 0.6, 5.0):
            out = stabilize_mean(mean, lam, 7)
            np.testing.assert_allclose(out.config, mean, rtol=0, atol=1e-12)

    def test_converged_matches_direct_solve(self):
        rng = np.random.default_rng(13)
        mean = rng.standard_normal((30, 2)) * 10.0
        out = stabilize_mean(mean, 0.6, 10_000)
        expected = _direct_fixed_point(mean, 0.6)
        assert np.max(np.abs(out.config - expected)) <= 1e-8

    def test_row_variance_shrinks(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            n = int(rng.integers(5, 40))
            mean = rng.standard_normal((n, 2)) * rng.uniform(0.5, 20.0)
            lam = rng.uniform(0.05, 2.0)
            t = int(rng.integers(1, 8))
            out = stabilize_mean(mean, lam, t)
            var_in = float(np.sum((mean - mean.mean(axis=0)) ** 2))
            var_out = float(np.sum((out.config - out.config.mean(axis=0)) ** 2))
            assert var_out < var_in + 1e-12

    def test_huge_lambda_flattens_rows(self):
        rng = np.random.default_rng(16)
        mean = rng.standard_normal((30, 2)) * 5.0
        scale = np.max(np.abs(mean))
        # Row spread contracts geometrically; 50 sweeps is far past its
        # convergence even though the common offset settles much slower.
        out = stabilize_mean(mean, 1e6, 50)
        spread = np.max(out.config.max(axis=0) - out.config.min(axis=0))
        assert spread <= 1e-4 * scale
        exact = _direct_fixed_point(mean, 1e6)
        exact_spread = np.max(exact.max(axis=0) - exact.min(axis=0))
        assert exact_spread <= 1e-4 * scale

    def test_default_iters_is_five(self):
        rng = np.random.default_rng(17)
        out = stabilize_mean(rng.standard_normal((10, 2)), 0.2)
        assert out.jacobi_iters == 5

    def test_rejects_bad_parameters(self):
        mean = np.zeros((5, 2))
        with pytest.raises(InvalidParameter):
            stabilize_mean(mean, -0.1, 5)
        with pytest.raises(InvalidParameter):
            stabilize_mean(mean, 0.2, 0)


class TestBackTransform:
    def test_identity_rotation_passthrough(self):
        rng = np.random.default_rng(18)
        stab = stabilize_mean(rng.standard_normal((20, 2)), 0.3, 5)
        from jitterseg import Rotation2D

        out = back_transform(stab, [Rotation2D(np.eye(2))])
        assert np.array_equal(out[0], stab.config)

    def test_rotation_roundtrip(self):
        rng = np.random.default_rng(19)
        pre = random_preshape(rng)
        stab = stabilize_mean(pre.config, 0.0, 1)
        from jitterseg import Rotation2D, project_to_preshape

        theta = 0.8
        rot = Rotation2D(rotation_matrix(theta))
        (member,) = back_transform(stab, [rot])
        recovered = optimal_rotation(
            project_to_preshape(stab.config), project_to_preshape(member)
        )
        assert abs(recovered.angle - theta) <= 1e-9

    def test_norm_preserved(self):
        rng = np.random.default_rng(20)
        stab = stabilize_mean(rng.standard_normal((15, 2)), 0.4, 5)
        from jitterseg import Rotation2D

        rots = [Rotation2D(rotation_matrix(t)) for t in (0.1, 1.2, -2.0)]
        for out in back_transform(stab, rots):
            assert abs(np.linalg.norm(out) - np.linalg.norm(stab.config)) <= 1e-12

    def test_identity_pipeline_on_identical_cluster(self):
        # lam = 0 end to end: align, stabilize, rebuild returns the members.
        rng = np.random.default_rng(21)
        pre = random_preshape(rng)
        cluster = [pre] * 4
        gpa = gpa_align(cluster, range(4))
        stab = stabilize_mean(gpa.mean, 0.0, 5)
        outs = back_transform(stab, gpa.rotations)
        for out in outs:
            assert np.max(np.abs(out - pre.config)) <= 1e-10
