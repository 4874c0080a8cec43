"""File formats and the command-line surface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from jitterseg import (
    SceneParams,
    SegmenterParams,
    generate_scene,
    parse_labels,
    parse_trajectories,
    segment_store,
    serialize_labels,
    serialize_trajectories,
)
from jitterseg.cli import run_cli
from jitterseg.errors import BoundsError, DuplicateId, ParseError


class TestTrajectoryFile:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"frames":3,"width":100,"height":100}\n'
            '{"id":0,"start":0,"points":[[1,1],[2,1],[3,1]]}\n'
        )
        store = parse_trajectories(path)
        assert len(store) == 1
        assert store.n_frames_total == 3
        assert store.frame_size == (100, 100)
        np.testing.assert_array_equal(
            store.by_id[0].points, [[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]]
        )

    def test_frame_overrun_is_bounds_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"frames":3,"width":100,"height":100}\n'
            '{"id":0,"start":2,"points":[[1,1],[2,1],[3,1]]}\n'
        )
        with pytest.raises(BoundsError):
            parse_trajectories(path)

    def test_out_of_frame_point(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"frames":3,"width":100,"height":100}\n'
            '{"id":0,"start":0,"points":[[1,1],[2,101],[3,1]]}\n'
        )
        with pytest.raises(BoundsError):
            parse_trajectories(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"frames":3,"width":100,"height":100}\n'
            '{"id":0,"start":0,"points":[[1,1],[2,1]]}\n'
            '{"id":0,"start":0,"points":[[5,5],[6,5]]}\n'
        )
        with pytest.raises(DuplicateId):
            parse_trajectories(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"frames":3,"width":100,"height":100}\n'
            "this is not json\n"
        )
        with pytest.raises(ParseError) as info:
            parse_trajectories(path)
        assert info.value.line == 2

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_coordinate_is_parse_error(self, tmp_path, value):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"frames":3,"width":100,"height":100}\n'
            '{"id":0,"start":0,"points":[[1,1],[2,1],[3,1]]}\n'
            '{"id":1,"start":0,"points":[[1,1],[%s,1],[3,1]]}\n' % value
        )
        with pytest.raises(ParseError) as info:
            parse_trajectories(path)
        assert info.value.line == 3

    def test_missing_header(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        with pytest.raises(ParseError):
            parse_trajectories(path)

    def test_roundtrip_bit_identical(self, tmp_path):
        scene = generate_scene(SceneParams(n_bg=15, n_fg=5, n_frames=25, sigma=0.15, seed=3))
        path = tmp_path / "scene.jsonl"
        serialize_trajectories(scene.store, path)
        store = parse_trajectories(path)
        assert store.n_frames_total == scene.store.n_frames_total
        assert store.frame_size == scene.store.frame_size
        for t in scene.store.trajectories:
            back = store.by_id[t.id]
            assert back.start_frame == t.start_frame
            assert np.array_equal(back.points, t.points)

    def test_serialized_file_is_stable(self, tmp_path):
        scene = generate_scene(SceneParams(n_bg=10, n_fg=4, n_frames=12, sigma=0.1, seed=4))
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        serialize_trajectories(scene.store, p1)
        serialize_trajectories(parse_trajectories(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestLabelFile:
    def test_roundtrip(self, tmp_path):
        scene = generate_scene(SceneParams(n_bg=20, n_fg=8, n_frames=30, sigma=0.1, seed=5))
        results, fused = segment_store(scene.store, SegmenterParams(seed=5))
        path = tmp_path / "labels.jsonl"
        serialize_labels(path, fused, results, params={"seed": 5})
        data = parse_labels(path)
        assert data.fused == fused
        assert data.params == {"seed": 5}
        assert len(data.blocks) == len(results)
        (rng_0, labels_0) = data.blocks[0]
        assert rng_0 == results[0].block.frame_range
        assert labels_0 == results[0].labels
        assert data.foreground_cluster == 1

    def test_missing_fused_record(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"type":"block","range":[0,10],"labels":{"0":1}}\n')
        with pytest.raises(ParseError):
            parse_labels(path)

    def test_bad_label_value(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"type":"fused","labels":{"0":2},"foreground_cluster":1}\n')
        with pytest.raises(ParseError):
            parse_labels(path)


class TestCli:
    def _synth(self, tmp_path, sigma, seed=7, extra=()):
        traj = tmp_path / f"scene_{sigma}_{seed}.jsonl"
        gt = tmp_path / f"gt_{sigma}_{seed}.jsonl"
        code = run_cli(
            [
                "synth",
                "--sigma",
                str(sigma),
                "--n-bg",
                "60",
                "--n-fg",
                "20",
                "--frames",
                "30",
                "--seed",
                str(seed),
                "--out",
                str(traj),
                "--gt",
                str(gt),
                *extra,
            ]
        )
        assert code == 0
        return traj, gt

    def test_full_pipeline_zero_jitter(self, tmp_path, capsys):
        traj, gt = self._synth(tmp_path, 0.0)
        labels = tmp_path / "labels.jsonl"
        assert run_cli(["segment", "--input", str(traj), "--output", str(labels)]) == 0
        assert run_cli(["eval", "--pred", str(labels), "--gt", str(gt)]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["accuracy"] == 1.0

    def test_full_pipeline_medium_jitter(self, tmp_path, capsys):
        traj, gt = self._synth(tmp_path, 0.15, seed=7)
        labels = tmp_path / "labels.jsonl"
        assert run_cli(
            ["segment", "--input", str(traj), "--output", str(labels), "--seed", "7"]
        ) == 0
        assert run_cli(["eval", "--pred", str(labels), "--gt", str(gt)]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["accuracy"] >= 0.9

    def test_omega_zero_is_usage_error(self, tmp_path):
        traj, _ = self._synth(tmp_path, 0.0)
        code = run_cli(
            ["segment", "--input", str(traj), "--output", str(tmp_path / "x"), "--omega", "0"]
        )
        assert code == 2

    def test_omega_nan_is_usage_error(self, tmp_path):
        traj, _ = self._synth(tmp_path, 0.0)
        code = run_cli(
            ["segment", "--input", str(traj), "--output", str(tmp_path / "x"), "--omega", "nan"]
        )
        assert code == 2

    def test_omega_underflow_is_pipeline_error(self, tmp_path, capsys):
        traj, _ = self._synth(tmp_path, 0.15)
        out = tmp_path / "x"
        code = run_cli(["segment", "--input", str(traj), "--output", str(out), "--omega", "1e-4"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "segment stage failed" in err and "omega=0.0001" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_input_is_pipeline_error(self, tmp_path, capsys, value):
        traj = tmp_path / "t.jsonl"
        traj.write_text(
            '{"frames":3,"width":100,"height":100}\n'
            '{"id":0,"start":0,"points":[[1,1],[%s,1],[3,1]]}\n' % value
        )
        code = run_cli(["segment", "--input", str(traj), "--output", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "jitterseg segment: parse stage failed: line 2: trajectory 0 has a non-finite coordinate\n"

    def test_unknown_flag_is_usage_error(self):
        assert run_cli(["segment", "--nope"]) == 2

    def test_missing_input_is_usage_error(self):
        assert run_cli(["segment", "--output", "x.jsonl"]) == 2

    def test_unreadable_input_is_pipeline_error(self, tmp_path, capsys):
        code = run_cli(
            ["segment", "--input", str(tmp_path / "absent.jsonl"), "--output", str(tmp_path / "x")]
        )
        assert code == 1
        assert "parse" in capsys.readouterr().err

    def test_label_output_embeds_params(self, tmp_path):
        traj, _ = self._synth(tmp_path, 0.0)
        labels = tmp_path / "labels.jsonl"
        run_cli(["segment", "--input", str(traj), "--output", str(labels), "--seed", "9"])
        data = parse_labels(labels)
        assert data.params["seed"] == 9
        assert data.params["omega"] == 0.02
        assert data.params["lambda"] == 0.2
        assert data.params["outer_iters"] == 3
        assert data.params["jacobi_iters"] == 5

    def test_defaults_match_published_constants(self, tmp_path):
        # Bandwidth 0.02, weight 0.2, 3 rounds, 5 sweeps, 2 clusters,
        # 70% coverage, 10% spanning fraction.
        traj, _ = self._synth(tmp_path, 0.0)
        labels = tmp_path / "labels.jsonl"
        run_cli(["segment", "--input", str(traj), "--output", str(labels)])
        p = parse_labels(labels).params
        assert (p["omega"], p["lambda"]) == (0.02, 0.2)
        assert (p["outer_iters"], p["jacobi_iters"], p["m"]) == (3, 5, 2)
        assert (p["span_threshold"], p["min_span_fraction"]) == (0.7, 0.1)
        params = SegmenterParams()
        assert (params.omega, params.lam, params.outer_iters) == (0.02, 0.2, 3)
        assert (params.jacobi_iters, params.m) == (5, 2)
        assert (params.span_threshold, params.min_span_fraction) == (0.7, 0.1)

    def test_byte_identical_reruns(self, tmp_path):
        traj, _ = self._synth(tmp_path, 0.15)
        out1, out2 = tmp_path / "l1.jsonl", tmp_path / "l2.jsonl"
        for out in (out1, out2):
            assert run_cli(["segment", "--input", str(traj), "--output", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_parallel_blocks_byte_identical(self, tmp_path):
        traj = tmp_path / "long.jsonl"
        gt = tmp_path / "long_gt.jsonl"
        run_cli(
            [
                "synth", "--sigma", "0.15", "--n-bg", "40", "--n-fg", "15",
                "--frames", "80", "--seed", "3", "--out", str(traj), "--gt", str(gt),
            ]
        )
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        base = ["segment", "--input", str(traj), "--max-block-len", "20"]
        assert run_cli(base + ["--output", str(serial)]) == 0
        assert run_cli(base + ["--output", str(parallel), "--jobs", "4"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_config_file_supplies_parameters(self, tmp_path):
        traj, gt = self._synth(tmp_path, 0.0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": str(traj), "lambda": 0.6, "seed": 4}))
        labels = tmp_path / "labels.jsonl"
        code = run_cli(
            ["segment", "--config", str(cfg), "--output", str(labels), "--seed", "11"]
        )
        assert code == 0
        data = parse_labels(labels)
        assert data.params["lambda"] == 0.6  # from config
        assert data.params["seed"] == 11  # flag wins over config

    def test_config_unknown_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": 1}')
        assert run_cli(["segment", "--config", str(cfg), "--input", "x", "--output", "y"]) == 2

    def test_config_bad_type_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": "seven"}')
        assert run_cli(["segment", "--config", str(cfg), "--input", "x", "--output", "y"]) == 2

    def test_config_dash_keys_accepted(self, tmp_path):
        traj, _ = self._synth(tmp_path, 0.0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"outer-iters": 2, "max-block-len": 40}))
        labels = tmp_path / "labels.jsonl"
        code = run_cli(
            ["segment", "--config", str(cfg), "--input", str(traj), "--output", str(labels)]
        )
        assert code == 0
        assert parse_labels(labels).params["outer_iters"] == 2

    def test_eval_unknown_id_is_pipeline_error(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        gt.write_text('{"type":"fused","labels":{"0":0,"1":1},"foreground_cluster":1}\n')
        pred = tmp_path / "pred.jsonl"
        pred.write_text('{"type":"fused","labels":{"5":1},"foreground_cluster":1}\n')
        assert run_cli(["eval", "--pred", str(pred), "--gt", str(gt)]) == 1
        assert "eval" in capsys.readouterr().err
