"""Shared helpers: seeded shape factories and brute-force oracles."""

from __future__ import annotations

import numpy as np

from jitterseg import PreShape, project_to_preshape


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_preshape(rng: np.random.Generator, n: int = 30) -> PreShape:
    return project_to_preshape(rng.standard_normal((n, 2)))


def random_trajectory_points(rng: np.random.Generator, n: int = 30) -> np.ndarray:
    """A plausible pixel-scale track: smooth drift plus noise."""
    start = rng.uniform(50, 500, size=2)
    velocity = rng.uniform(-3, 3, size=2)
    f = np.arange(n, dtype=float)[:, None]
    return start + f * velocity + rng.normal(0, 2.0, size=(n, 2))


_ANGLE_GRID_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _angle_grid(n_angles: int):
    if n_angles not in _ANGLE_GRID_CACHE:
        theta = (2.0 * np.pi / n_angles) * np.arange(n_angles)
        _ANGLE_GRID_CACHE[n_angles] = (theta, np.cos(theta), np.sin(theta))
    return _ANGLE_GRID_CACHE[n_angles]


def residual_at_angle(a: PreShape, b: PreShape, theta: float) -> float:
    """||a - b R(theta)||_F evaluated literally from its definition."""
    return float(np.linalg.norm(a.config - b.config @ rotation_matrix(theta)))


def grid_search_rotation(
    a: PreShape, b: PreShape, n_angles: int = 1_000_000
) -> tuple[float, float]:
    """Brute-force (min distance, argmin angle) of ||a - b R(theta)||_F.

    Expanding the squared residual row by row, the theta-dependent part of
    ||a - b R(theta)||^2 is exactly -2 (P cos + Q sin) with
    P = sum(ax bx + ay by) and Q = sum(ax by - ay bx); the rotation leaves
    ||b R(theta)|| unchanged. The grid search evaluates that closed
    expansion on an even grid over [0, 2pi) -- no SVD anywhere. Use
    ``residual_at_angle`` to spot-check the expansion against the raw
    definition.
    """
    theta, c, s = _angle_grid(n_angles)
    ax, ay = a.config[:, 0], a.config[:, 1]
    bx, by = b.config[:, 0], b.config[:, 1]
    p = float(np.sum(ax * bx + ay * by))
    q = float(np.sum(ax * by - ay * bx))
    norms = float(np.sum(a.config**2) + np.sum(b.config**2))
    d2 = norms - 2.0 * (p * c + q * s)
    i = int(np.argmin(d2))
    return float(np.sqrt(max(d2[i], 0.0))), float(theta[i])


def svd_rotation_matrix(target: np.ndarray, source: np.ndarray) -> np.ndarray:
    """SO(2) matrix G minimizing ||target - source @ G||_F, via a 2x2 SVD.

    The real-matrix solution the package used before its complex closed
    form: the orthogonal minimizer of SVD(source.T @ target) = U S Vt is
    U @ Vt; forcing det +1 flips the sign of the smaller singular direction
    when the unconstrained solution is a reflection.
    """
    u, _, vt = np.linalg.svd(source.T @ target)
    sign = 1.0 if np.linalg.det(u @ vt) >= 0.0 else -1.0
    return u @ np.diag([1.0, sign]) @ vt


def oracle_affinity(shapes, omega: float) -> np.ndarray:
    """exp(-d/omega) with one SVD rotation per pair, pair by pair."""
    k = len(shapes)
    values = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            a, b = shapes[i].config, shapes[j].config
            d = np.linalg.norm(a - b @ svd_rotation_matrix(a, b))
            values[i, j] = values[j, i] = np.exp(-d / omega)
    return values


def _oracle_objective(rotated):
    mean = np.mean(rotated, axis=0)
    obj = sum(float(np.sum((r - mean) ** 2)) for r in rotated) / len(rotated)
    return obj, mean


def oracle_gpa(shapes, members, tol: float = 1e-10, max_sweeps: int = 50):
    """Alternating Procrustes with one SVD rotation per member and sweep.

    Same start (identity), stop rules and gauge (first member's rotation
    is the identity) as ``gpa_align``. Returns (rotation matrices, mean,
    objective, sweep objectives).
    """
    configs = [shapes[i].config for i in members]
    rotations = [np.eye(2) for _ in configs]
    obj, mean = _oracle_objective(configs)
    history = [obj]
    for _ in range(max_sweeps):
        if obj < tol:
            break
        rotations = [svd_rotation_matrix(mean, c) for c in configs]
        new_obj, mean = _oracle_objective([c @ r for c, r in zip(configs, rotations)])
        history.append(new_obj)
        decrease = obj - new_obj
        obj = new_obj
        if decrease < tol:
            break
    first = rotations[0]
    if not np.array_equal(first, np.eye(2)):
        rotations = [r @ first.T for r in rotations]
        rotations[0] = np.eye(2)
        obj, mean = _oracle_objective([c @ r for c, r in zip(configs, rotations)])
    return rotations, mean, obj, tuple(history)
