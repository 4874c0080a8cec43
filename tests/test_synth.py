"""Synthetic scene generation, jitter fusion, and metrics."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitterseg import (
    SceneParams,
    Trajectory,
    TrajectoryStore,
    evaluate,
    fuse_jitter,
    generate_scene,
    metrics_from_labels,
    procrustes_distance,
    to_preshape,
)
from jitterseg.errors import DegenerateScene, InvalidParameter, UnknownId

from conftest import oracle_scene_points


def _scene(sigma=0.15, seed=0, **kw):
    return generate_scene(
        SceneParams(n_bg=12, n_fg=6, n_frames=20, sigma=sigma, seed=seed, **kw)
    )


_SPEEDS = st.one_of(st.sampled_from([0.0, 1e308]), st.floats(0.0, 4.0))
_SCENE_PARAMS = st.builds(
    SceneParams,
    n_bg=st.integers(1, 30),
    n_fg=st.integers(1, 10),
    n_frames=st.integers(2, 80),
    sigma=st.sampled_from([0.0, 0.05, 0.4, 3.0]),
    frame_size=st.tuples(st.integers(1, 2000), st.integers(1, 2000)),
    camera_speed=_SPEEDS,
    object_speed=_SPEEDS,
    seed=st.integers(0, 2**40),
)


def _points_or_error(make, params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateScene)
        try:
            return make(params), None
        except InvalidParameter as exc:
            return None, str(exc)


class TestGenerateScene:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_SCENE_PARAMS)
    def test_points_match_former_per_axis_layout(self, params):
        points, error = _points_or_error(lambda p: generate_scene(p).store.points, params)
        expected, expected_error = _points_or_error(oracle_scene_points, params)
        assert error == expected_error
        if error is None:
            assert points.tobytes() == expected.tobytes()

    def test_zero_jitter_background_is_shape_identical(self):
        scene = _scene(sigma=0.0, seed=3)
        shapes = {t.id: to_preshape(t) for t in scene.store.trajectories}
        bg = [tid for tid, lab in scene.ground_truth.items() if lab == 0]
        fg = [tid for tid, lab in scene.ground_truth.items() if lab == 1]
        for i in bg[1:]:
            assert procrustes_distance(shapes[bg[0]], shapes[i]) <= 1e-12
        for i in fg:
            for j in bg:
                assert procrustes_distance(shapes[i], shapes[j]) > 1e-6

    def test_zero_jitter_foreground_is_shape_identical(self):
        scene = _scene(sigma=0.0, seed=4)
        fg = [t for t in scene.store.trajectories if scene.ground_truth[t.id] == 1]
        base = to_preshape(fg[0])
        for t in fg[1:]:
            assert procrustes_distance(base, to_preshape(t)) <= 1e-12

    def test_deterministic_regeneration(self):
        a = _scene(sigma=0.15, seed=11)
        b = _scene(sigma=0.15, seed=11)
        assert a.ground_truth == b.ground_truth
        for ta, tb in zip(a.store.trajectories, b.store.trajectories):
            assert ta.id == tb.id
            assert np.array_equal(ta.points, tb.points)

    def test_all_static_configuration_warns(self):
        params = SceneParams(
            n_bg=4, n_fg=2, n_frames=10, sigma=0.0, camera_speed=0.0, object_speed=0.0
        )
        with pytest.warns(DegenerateScene):
            scene = generate_scene(params)
        for t in scene.store.trajectories:
            assert np.all(t.points == t.points[0])

    def test_labels_cover_all_ids(self):
        scene = _scene(seed=5)
        assert set(scene.ground_truth) == {t.id for t in scene.store.trajectories}
        assert sorted(set(scene.ground_truth.values())) == [0, 1]

    def test_stays_in_frame(self):
        scene = _scene(sigma=0.25, seed=6)
        w, h = scene.store.frame_size
        for t in scene.store.trajectories:
            assert t.points[:, 0].min() >= 0 and t.points[:, 0].max() <= w
            assert t.points[:, 1].min() >= 0 and t.points[:, 1].max() <= h

    def test_invalid_params(self):
        with pytest.raises(InvalidParameter):
            SceneParams(n_bg=0, n_fg=2, n_frames=10, sigma=0.1)
        with pytest.raises(InvalidParameter):
            SceneParams(n_bg=2, n_fg=2, n_frames=1, sigma=0.1)
        with pytest.raises(InvalidParameter):
            SceneParams(n_bg=2, n_fg=2, n_frames=10, sigma=-0.5)


class TestFuseJitter:
    def test_sigma_zero_is_identity(self):
        scene = _scene(sigma=0.0, seed=7)
        out = fuse_jitter(scene.store, 0.0, seed=99)
        for a, b in zip(scene.store.trajectories, out.trajectories):
            assert np.array_equal(a.points, b.points)

    def test_same_seed_same_perturbation_across_stores(self):
        # The per-frame transform depends only on (seed, frame): a shared
        # trajectory is shaken identically inside two different stores.
        rng = np.random.default_rng(8)
        pts = rng.uniform(100, 200, size=(15, 2))
        t_shared = Trajectory(0, 0, pts)
        extra_a = Trajectory(1, 0, rng.uniform(100, 200, size=(20, 2)))
        extra_b = Trajectory(7, 5, rng.uniform(100, 200, size=(10, 2)))
        store_a = TrajectoryStore((t_shared, extra_a), 20, (640, 360))
        store_b = TrajectoryStore((t_shared, extra_b), 40, (640, 360))
        out_a = fuse_jitter(store_a, 0.15, seed=5)
        out_b = fuse_jitter(store_b, 0.15, seed=5)
        assert np.array_equal(out_a.by_id[0].points, out_b.by_id[0].points)

    def test_displacement_monotone_in_sigma(self):
        deltas = {0.05: [], 0.25: []}
        for seed in range(20):
            scene = _scene(sigma=0.0, seed=seed)
            for sigma in deltas:
                shaken = fuse_jitter(scene.store, sigma, seed=seed)
                moved = [
                    np.linalg.norm(a.points - b.points, axis=1).mean()
                    for a, b in zip(scene.store.trajectories, shaken.trajectories)
                ]
                deltas[sigma].append(np.mean(moved))
        for lo, hi in zip(deltas[0.05], deltas[0.25]):
            assert hi > lo

    def test_negative_sigma_rejected(self):
        scene = _scene(sigma=0.0, seed=9)
        with pytest.raises(InvalidParameter):
            fuse_jitter(scene.store, -0.1, seed=0)

    def test_deterministic(self):
        scene = _scene(sigma=0.0, seed=10)
        a = fuse_jitter(scene.store, 0.2, seed=4)
        b = fuse_jitter(scene.store, 0.2, seed=4)
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert np.array_equal(ta.points, tb.points)

    @pytest.mark.parametrize("sigma, clipped", [(50.0, "290 of 336"), (5e3, "336 of 336")])
    def test_clipping_most_points_warns(self, sigma, clipped):
        params = SceneParams(n_bg=20, n_fg=8, n_frames=12, sigma=sigma)
        with pytest.warns(DegenerateScene, match=f"clips {clipped} points"):
            generate_scene(params)

    @pytest.mark.parametrize(
        "sigma, seeds",
        [(10.0, [0]), (0.25, range(1000, 1020)), (1.0, range(5200, 5220))],
        ids=["sigma-10", "clips-0.25", "heavy-1.0"],
    )
    def test_usual_jitter_does_not_warn(self, sigma, seeds):
        # Sigma 10 clips 82 of 336 points. The clips recipe at its largest
        # sigma and the heavy sigma 1.0 recipe clip almost none.
        n_bg, n_fg, frames = (20, 8, 12) if sigma == 10.0 else (60, 20, 30)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateScene)
            for seed in seeds:
                generate_scene(SceneParams(n_bg, n_fg, frames, sigma, seed=seed))


class TestEvaluate:
    def test_exact_prediction(self):
        scene = _scene(seed=12)
        metrics = evaluate(dict(scene.ground_truth), scene)
        assert metrics.accuracy == 1.0
        assert metrics.n_unlabeled == 0

    def test_complement_prediction(self):
        scene = _scene(seed=13)
        flipped = {tid: 1 - lab for tid, lab in scene.ground_truth.items()}
        assert evaluate(flipped, scene).accuracy == 1.0

    def test_half_correct_balanced(self):
        truth = {i: i % 2 for i in range(8)}
        pred = dict(truth)
        # Break half of each class so both permutations score 0.5.
        pred[0], pred[2] = 1, 1
        pred[1], pred[3] = 0, 0
        assert metrics_from_labels(pred, truth).accuracy == 0.5

    def test_unlabeled_excluded(self):
        truth = {i: i % 2 for i in range(10)}
        pred = {i: truth[i] for i in range(4)}
        m = metrics_from_labels(pred, truth)
        assert m.accuracy == 1.0
        assert m.n_labeled == 4
        assert m.n_unlabeled == 6

    def test_accuracy_at_least_half(self):
        rng = np.random.default_rng(14)
        truth = {i: int(rng.integers(2)) for i in range(30)}
        pred = {i: int(rng.integers(2)) for i in range(30)}
        assert metrics_from_labels(pred, truth).accuracy >= 0.5

    def test_unknown_id(self):
        scene = _scene(seed=15)
        with pytest.raises(UnknownId):
            evaluate({10_000: 1}, scene)

    def test_confusion_counts(self):
        truth = {0: 0, 1: 0, 2: 1, 3: 1}
        pred = {0: 0, 1: 1, 2: 1, 3: 1}
        m = metrics_from_labels(pred, truth)
        assert m.confusion == ((1, 1), (0, 2))
        assert m.accuracy == 0.75
