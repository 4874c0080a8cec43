"""File formats and the command-line surface."""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jitterseg import (
    SceneParams,
    SegmenterParams,
    Trajectory,
    TrajectoryStore,
    cli,
    generate_scene,
    parse_labels,
    parse_trajectories,
    segment_store,
    segmenter,
    serialize_labels,
    serialize_trajectories,
)
from jitterseg.cli import _SEGMENT, _SYNTH, _params, run_cli
from jitterseg.errors import (
    BlockSkipped,
    BoundsError,
    DegenerateScene,
    DuplicateId,
    ParseError,
)
from jitterseg.io import _valid_points
from jitterseg.segmenter import MAX_INT_PARAM

from conftest import oracle_valid_points

# A coordinate that passes the type check but overflows a float.
HUGE_INT = 10**400

# The label file that ``synth --sigma 0.05 --n-bg 5 --n-fg 3 --frames 12
# --seed 1`` then ``segment --grid 4`` wrote before ``--outer-iters`` and
# ``--jacobi-iters`` were retired: its params record still holds them, the
# constant ``m`` and ``min_block_len``, which had no flag.
RETIRED_KEYS_LABELS = (
    '{"type":"params","params":{"command":"segment","omega":0.02,"lambda":0.2,'
    '"outer_iters":3,"jacobi_iters":5,"m":2,"span_threshold":0.7,"min_span_fraction":0.1,'
    '"grid":4,"max_block_len":60,"min_block_len":10,"seed":0}}\n'
    '{"type":"block","range":[0,12],"labels":{"0":0,"1":0,"2":0,"3":0,"4":0,"5":1,"6":1,"7":1}}\n'
    '{"type":"fused","labels":{"0":0,"1":0,"2":0,"3":0,"4":0,"5":1,"6":1,"7":1},'
    '"foreground_cluster":1}\n'
)

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.sampled_from([HUGE_INT, -HUGE_INT, 2**1023, 0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
)
_json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=8,
)
_numbers = st.one_of(st.integers(-(10**6), 10**6), st.floats(allow_nan=False), st.just(HUGE_INT))
# Mostly well-formed pairs, with 1- and 3-element lists and arbitrary
# JSON values mixed in so both verdicts occur often.
_pairs = st.one_of(
    st.lists(_numbers, min_size=2, max_size=2),
    st.lists(_numbers, min_size=2, max_size=2),
    st.lists(_numbers, min_size=1, max_size=3),
    st.lists(_scalars, min_size=2, max_size=2),
    _json_values,
)
_points_values = st.one_of(st.lists(_pairs, max_size=6), _json_values)


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

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_a_lone_carriage_return_is_whitespace(self, tmp_path, end):
        # Lines end at "\n" only; inside a record, "\r" is JSON whitespace.
        path = tmp_path / "t.jsonl"
        header = '{"frames":3,"width":10,"height":10}'
        record = '{"id":0,"start":0,\r"points":[[1.5,2.5],[3.5,4.5]]}'
        path.write_bytes((header + end + record + end).encode())
        assert parse_trajectories(path).points.tolist() == [[1.5, 2.5], [3.5, 4.5]]

    def test_a_lone_carriage_return_starts_no_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(
            b'{"frames":3,\r"width":10,"height":10}\n{"id":0,"start":0,"points":[[1.5,2.5]]}\n'
        )
        with pytest.raises(ParseError, match="'points'") as info:
            parse_trajectories(path)
        assert info.value.line == 2

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

    def test_non_utf8_line_is_parse_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(
            b'{"frames":3,"width":100,"height":100}\n'
            b'{"id":0,"start":0,"points":[[1,1],[2,1],[3,1]]}\n'
            b'{"id":1,"start":0,"points":[[1,1],[\xff,1],[3,1]]}\n'
        )
        with pytest.raises(ParseError) as info:
            parse_trajectories(path)
        assert info.value.line == 3

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

    def test_huge_integer_coordinate_is_parse_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"frames":3,"width":100,"height":100}\n'
            '{"id":0,"start":0,"points":[[1,1],[2,1],[3,1]]}\n'
            '{"id":1,"start":0,"points":[[1,1],[%d,1],[3,1]]}\n' % HUGE_INT
        )
        with pytest.raises(ParseError) as info:
            parse_trajectories(path)
        assert info.value.line == 3
        assert "too large" in str(info.value)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_points_values)
    def test_point_check_matches_per_value_check(self, pts):
        pts = json.loads(json.dumps(pts))  # exactly the types the parser sees
        assert _valid_points(pts) == oracle_valid_points(pts)

    @pytest.mark.parametrize(
        "pts",
        [
            [[1, 2], [3, 4]],
            [[1.5, 2], [3, 4.25], [0, 0]],
            [[HUGE_INT, 1], [2, 3]],
            [[1, 2]],
            [[1, 2], [3]],
            [[1, 2], [3, 4, 5]],
            [[1, 2], [True, 4]],
            [[1, 2], [None, 4]],
            [[1, 2], ["3", 4]],
            [[1, 2], [[3], 4]],
            [[1, 2], "ab"],
            [[1, 2], {"x": 1, "y": 2}],
            {"a": [1, 2], "b": [3, 4]},
            "points",
            [],
        ],
    )
    def test_point_check_examples(self, pts):
        assert _valid_points(pts) == oracle_valid_points(pts)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        with pytest.raises(ParseError):
            parse_trajectories(path)

    def test_header_needs_two_frames(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"frames":1,"width":10,"height":10}\n')
        with pytest.raises(ParseError, match="'frames' must be >= 2") as info:
            parse_trajectories(path)
        assert info.value.line == 1
        out = tmp_path / "labels.jsonl"
        assert run_cli(["segment", "--input", str(path), "--output", str(out)]) == 1

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
        assert path.read_text().splitlines()[-1].endswith(',"foreground_cluster":1}')

    def test_a_lone_carriage_return_is_whitespace(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_bytes(
            b'{"type":"block",\r"range":[0,3],"labels":{"0":1}}\r\n'
            b'{"type":"fused",\r"labels":{"0":1}}\r\n'
        )
        data = parse_labels(path)
        assert (data.blocks, data.fused) == ((((0, 3), {0: 1}),), {0: 1})

    @pytest.mark.parametrize("rng", [[5, 2], [4, 4], [-3, 4]])
    def test_bad_block_range(self, tmp_path, rng):
        path = tmp_path / "labels.jsonl"
        path.write_text(
            f'{{"type":"params","params":{{}}}}\n{{"type":"block","range":{rng},"labels":{{}}}}\n'
            '{"type":"fused","labels":{}}\n'
        )
        with pytest.raises(ParseError, match="0 <= start < end") as info:
            parse_labels(path)
        assert info.value.line == 2
        assert run_cli(["eval", "--pred", str(path), "--gt", str(path)]) == 1

    @pytest.mark.parametrize(
        "records, line, message",
        [
            (['{"type":"params","params":5}'], 1, "'params' must be an object"),
            (['{"type":"params","params":{}}', '{"type":"params","params":{}}'], 2, "second"),
            (['{"type":"fused","labels":{}}'], 2, "second 'fused'"),
            (['{"type":"block","range":[3,10],"labels":{}}'], 1, "tile from 0"),
            (
                [
                    '{"type":"block","range":[0,10],"labels":{}}',
                    '{"type":"block","range":[5,20],"labels":{}}',
                ],
                2,
                "expected start 10",
            ),
            (
                [
                    '{"type":"block","range":[0,10],"labels":{}}',
                    '{"type":"block","range":[12,20],"labels":{}}',
                ],
                2,
                "expected start 10",
            ),
            # Keys that int() reads as the id another key spells canonically.
            (['{"type":"block","range":[0,10],"labels":{"7":0,"07":1}}'], 1, "'07' is not"),
            (['{"type":"block","range":[0,10],"labels":{" 8":1,"8":0}}'], 1, "' 8' is not"),
            (['{"type":"block","range":[0,10],"labels":{"1_0":1}}'], 1, "'1_0' is not"),
            (['{"type":"block","range":[0,10],"labels":{"\\u0663":1}}'], 1, "not a canonical"),
            (['{"type":"block","range":[0,10],"labels":{"-0":1}}'], 1, "'-0' is not"),
            # A repeated key in any object; json.loads alone keeps the last.
            (['{"type":"fused","labels":{"7":0,"7":1}}'], 1, "duplicate key '7'"),
            (['{"type":"block","range":[0,10],"labels":{"3":0,"3":0}}'], 1, "duplicate key '3'"),
            (['{"type":"block","type":"fused","labels":{}}'], 1, "duplicate key 'type'"),
            (['{"type":"params","params":{"seed":1,"seed":2}}'], 1, "duplicate key 'seed'"),
        ],
        ids=[
            "params-not-object",
            "two-params",
            "two-fused",
            "first-start",
            "overlap",
            "gap",
            "key-leading-zero",
            "key-space",
            "key-underscore",
            "key-arabic-indic-digit",
            "key-negative-zero",
            "duplicate-fused-key",
            "duplicate-block-key",
            "duplicate-type",
            "duplicate-params-key",
        ],
    )
    def test_contradictory_records(self, tmp_path, records, line, message):
        path = tmp_path / "labels.jsonl"
        path.write_text("\n".join([*records, '{"type":"fused","labels":{"0":1}}']) + "\n")
        with pytest.raises(ParseError, match=message) as info:
            parse_labels(path)
        assert info.value.line == line
        assert run_cli(["eval", "--pred", str(path), "--gt", str(path)]) == 1

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

    def test_non_utf8_line_is_parse_error(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_bytes(b'{"type":"params","params":{}}\n{"type":"fused","labels":{"\xe9":1}}\n')
        with pytest.raises(ParseError) as info:
            parse_labels(path)
        assert info.value.line == 2


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

    def test_seed_and_lambda_change_no_label_line(self, tmp_path):
        # The README scene: both values are recorded, and neither changes a label.
        traj, _ = self._synth(tmp_path, 0.15, seed=7)
        runs = (["--seed", "0"], ["--seed", "7"], ["--seed", "7", "--lambda", "0.6"])
        records, lines = [], []
        for i, extra in enumerate(runs):
            out = tmp_path / f"labels_{i}.jsonl"
            assert run_cli(["segment", "--input", str(traj), "--output", str(out), *extra]) == 0
            head, *rest = out.read_text().splitlines()
            records.append(json.loads(head)["params"])
            lines.append(rest)
        assert lines[0] == lines[1] == lines[2]
        assert json.loads(lines[0][-1])["type"] == "fused"
        assert [(r["seed"], r["lambda"]) for r in records] == [(0, 0.2), (7, 0.2), (7, 0.6)]
        others = [{k: v for k, v in r.items() if k not in ("seed", "lambda")} for r in records]
        assert others[0] == others[1] == others[2]

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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--omega", "inf", "omega must be finite"),
            ("--lambda", "inf", "lam must be finite"),
        ],
    )
    def test_non_finite_segment_parameter_is_usage_error(
        self, tmp_path, capsys, flag, value, message
    ):
        traj, _ = self._synth(tmp_path, 0.0)
        out = tmp_path / "x"
        code = run_cli(["segment", "--input", str(traj), "--output", str(out), flag, value])
        assert code == 2
        assert capsys.readouterr().err == f"jitterseg segment: invalid parameters: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--camera-speed", "nan"),
            ("--camera-speed", "inf"),
            ("--object-speed", "inf"),
            ("--sigma", "nan"),
            ("--sigma", "inf"),
        ],
    )
    def test_non_finite_synth_parameter_is_usage_error(self, tmp_path, capsys, flag, value):
        capsys.readouterr()
        out, gt = tmp_path / "t.jsonl", tmp_path / "gt.jsonl"
        base = ["synth", "--sigma", "0.1", "--n-bg", "6", "--n-fg", "3", "--frames", "10"]
        code = run_cli([*base, "--out", str(out), "--gt", str(gt), flag, value])
        assert code == 2
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == (
            f"jitterseg synth: invalid parameters: {name} must be finite\n"
        )
        assert not out.exists() and not gt.exists()

    def test_jitter_that_clips_every_point_warns(self, tmp_path):
        # Every point is shaken off the frame and clipped to its border;
        # the scene is still written, with the count in the warning.
        out, gt = tmp_path / "t.jsonl", tmp_path / "gt.jsonl"
        base = ["synth", "--sigma", "5e3", "--n-bg", "20", "--n-fg", "8", "--frames", "12"]
        with pytest.warns(DegenerateScene, match="clips 336 of 336 points"):
            assert run_cli([*base, "--out", str(out), "--gt", str(gt)]) == 0
        assert out.exists() and gt.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["synth", "--camera-speed", "1e307"],
                "generate stage failed: camera/object drift too large for the frame size",
            ),
            (
                ["synth", "--object-speed", "1.7e308"],
                "generate stage failed: camera/object drift too large for the frame size",
            ),
            (
                ["synth", "--sigma", "1e6"],
                "generate stage failed: sigma=1e+06 is too large: the jitter overflows",
            ),
            (["segment", "--omega", "5e-324"], "segment stage failed: omega=4.94066e-324 is too small"),
        ],
        ids=["camera-speed", "object-speed", "sigma", "omega"],
    )
    def test_extreme_finite_parameter_is_one_line_error(self, tmp_path, capsys, argv, message):
        # As each neighbouring error (a drift too large for the frame, an
        # omega too small): exit 1, one stderr line, and no numpy overflow
        # warning on the way.
        command, *flags = argv
        out, gt = tmp_path / "t.jsonl", tmp_path / "gt.jsonl"
        if command == "synth":
            base = ["synth", "--sigma", "0.1", "--n-bg", "6", "--n-fg", "3", "--frames", "10"]
            argv = [*base, "--out", str(out), "--gt", str(gt), *flags]
        else:
            traj, _ = self._synth(tmp_path, 0.15)
            argv = ["segment", "--input", str(traj), "--output", str(out), *flags]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"jitterseg {command}: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists() and not gt.exists()

    @pytest.mark.parametrize(
        "key, text, message",
        [
            *[("grid", text, "an integer") for text in ("NaN", "Infinity", "-Infinity", "2.5")],
            ("omega", "Infinity", "a finite number"),
            ("omega", str(-HUGE_INT), "a finite number"),
        ],
    )
    def test_bad_config_number_is_usage_error(self, tmp_path, capsys, key, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"%s": %s}' % (key, text))
        assert run_cli(["segment", "--config", str(cfg), "--input", "x", "--output", "y"]) == 2
        assert f"config key '{key}' must be {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, name",
        [
            ("--grid", "grid_cells"),
            ("--max-block-len", "max_block_len"),
            ("--jobs", "jobs"),
        ],
    )
    def test_huge_segment_integer_is_usage_error(self, tmp_path, capsys, flag, name):
        traj, _ = self._synth(tmp_path, 0.0)
        out = tmp_path / "x"
        for value in (str(10**20), str(MAX_INT_PARAM + 1)):
            capsys.readouterr()
            code = run_cli(["segment", "--input", str(traj), "--output", str(out), flag, value])
            assert code == 2
            assert capsys.readouterr().err == (
                f"jitterseg segment: invalid parameters: {name} must be <= {MAX_INT_PARAM}\n"
            )
        assert not out.exists()

    def test_largest_integers_are_accepted(self):
        SegmenterParams(grid_cells=MAX_INT_PARAM, max_block_len=MAX_INT_PARAM)
        SceneParams(MAX_INT_PARAM, MAX_INT_PARAM, MAX_INT_PARAM, 0.1, (MAX_INT_PARAM,) * 2)

    def test_huge_config_integer_is_usage_error(self, tmp_path, capsys):
        traj, _ = self._synth(tmp_path, 0.0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"grid": %d}' % 10**20)
        out = tmp_path / "x"
        argv = ["segment", "--config", str(cfg), "--input", str(traj), "--output", str(out)]
        code = run_cli(argv)
        assert code == 2
        assert "grid_cells must be <= " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, name",
        [
            ("--n-bg", "n_bg"),
            ("--n-fg", "n_fg"),
            ("--frames", "n_frames"),
            ("--width", "width"),
            ("--height", "height"),
        ],
    )
    def test_huge_synth_integer_is_usage_error(self, tmp_path, capsys, flag, name):
        capsys.readouterr()
        out, gt = tmp_path / "t.jsonl", tmp_path / "gt.jsonl"
        base = ["synth", "--sigma", "0.1", "--n-bg", "6", "--n-fg", "3", "--frames", "10"]
        code = run_cli([*base, "--out", str(out), "--gt", str(gt), flag, str(10**20)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"jitterseg synth: invalid parameters: {name} must be <= {MAX_INT_PARAM}\n"
        )
        assert not out.exists() and not gt.exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        traj, _ = self._synth(tmp_path, 0.0)
        capsys.readouterr()
        out = tmp_path / "x"
        code = run_cli(["segment", "--input", str(traj), "--output", str(out), "--seed", "-1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "jitterseg segment: invalid parameters: seed must be >= 0\n"
        )
        out, gt = tmp_path / "t.jsonl", tmp_path / "gt.jsonl"
        base = ["synth", "--sigma", "0.1", "--n-bg", "6", "--n-fg", "3", "--frames", "10"]
        assert run_cli([*base, "--out", str(out), "--gt", str(gt), "--seed", "-2"]) == 2
        assert capsys.readouterr().err == "jitterseg synth: invalid parameters: seed must be >= 0\n"

    def test_block_cap_below_the_shortest_block_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        argv = ["segment", "--input", "x", "--output", str(out), "--max-block-len", "9"]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == (
            "jitterseg segment: invalid parameters: max_block_len must be >= 10\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "Unable to allocate 16.0 GiB for an array"])
    @pytest.mark.parametrize(
        "command, name, stage",
        [
            ("synth", "generate_scene", "generate"),
            ("segment", "parse_trajectories", "parse"),
            ("segment", "segment_store", "segment"),
        ],
    )
    def test_out_of_memory_is_one_line_error(
        self, tmp_path, capsys, monkeypatch, command, name, stage, text
    ):
        # A size that does not fit in memory, with the stage patched to
        # raise instead of allocating: exit 1 and one stderr line.
        traj, _ = self._synth(tmp_path, 0.0)

        def no_memory(*args):
            raise MemoryError(text) if text else MemoryError

        monkeypatch.setattr(cli, name, no_memory)
        out, gt = tmp_path / "out.jsonl", tmp_path / "gt.jsonl"
        synth = ["--sigma", "0.1", "--n-bg", "2", "--n-fg", "1", "--frames", "12"]
        argv = {
            "synth": ["synth", *synth, "--out", str(out), "--gt", str(gt)],
            "segment": ["segment", "--input", str(traj), "--output", str(out)],
        }[command]
        capsys.readouterr()
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err == f"jitterseg {command}: {stage} stage failed: {text or 'not enough memory'}\n"
        assert not out.exists() and not gt.exists()

    def test_huge_seed_is_accepted(self, tmp_path):
        traj, _ = self._synth(tmp_path, 0.15, seed=10**20)
        out = tmp_path / "labels.jsonl"
        argv = ["segment", "--input", str(traj), "--output", str(out), "--seed", str(10**20)]
        assert run_cli(argv) == 0

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

    def test_huge_integer_input_is_pipeline_error(self, tmp_path, capsys):
        traj = tmp_path / "t.jsonl"
        traj.write_text(
            '{"frames":3,"width":100,"height":100}\n'
            '{"id":0,"start":0,"points":[[1,1],[%d,1],[3,1]]}\n' % HUGE_INT
        )
        code = run_cli(["segment", "--input", str(traj), "--output", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            "jitterseg segment: parse stage failed: line 2: "
            "trajectory 0 has an integer coordinate too large for a float\n"
        )

    @pytest.mark.parametrize(
        "command, text, line",
        [
            (
                "segment",
                '{"frames":3,"width":100,"height":100}\n'
                '{"id":%s,"start":0,"points":[[1,1],[2,1]]}\n' % ("7" * 5000),
                2,
            ),
            ("eval", '{"type":"fused","labels":{"7":%s}}\n' % ("1" * 5000), 1),
        ],
        ids=["segment", "eval"],
    )
    def test_overlong_integer_is_one_line_pipeline_error(
        self, tmp_path, capsys, command, text, line
    ):
        # 5000 digits: more than int() converts by default (4300).
        path = tmp_path / "in.jsonl"
        path.write_text(text)
        if command == "segment":
            argv = ["segment", "--input", str(path), "--output", str(tmp_path / "x")]
        else:
            argv = ["eval", "--pred", str(path), "--gt", str(path)]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == (
            f"jitterseg {command}: parse stage failed: "
            f"line {line}: invalid JSON (integer too long)\n"
        )

    @pytest.mark.parametrize(
        "labels, message",
        [
            ('{"%s":1}' % ("7" * 5000), "label key '77777777777777777777...' is not a canonical"),
            ('{"0%s":1}' % ("7" * 4000), "label key '07777777777777777777...' is not a canonical"),
            ('{"%s":2}' % ("7" * 4000), "label for id 77777777777777777777... must be 0 or 1"),
        ],
        ids=["5000-digit-key", "4000-digit-leading-zero", "4000-digit-bad-label"],
    )
    def test_long_label_key_is_clipped_in_error(self, tmp_path, capsys, labels, message):
        path = tmp_path / "k.jsonl"
        path.write_text('{"type":"fused","labels":%s}\n' % labels)
        assert run_cli(["eval", "--pred", str(path), "--gt", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"jitterseg eval: parse stage failed: line 1: {message}")
        assert err.count("\n") == 1 and len(err) < 120

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        traj, _ = self._synth(tmp_path, 0.0)
        out = tmp_path / "x"
        code = run_cli(["segment", "--input", str(traj), "--output", str(out), "--jobs", jobs])
        assert code == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_below_one_from_config_is_usage_error(self, tmp_path, capsys):
        traj, _ = self._synth(tmp_path, 0.0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": str(traj), "jobs": 0}))
        out = tmp_path / "x"
        assert run_cli(["segment", "--config", str(cfg), "--output", str(out)]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_motionless_track_stays_unlabeled(self, tmp_path):
        # The README scene plus one spanning track that never moves, put
        # at the center of an occupied grid cell so that it would win it.
        scene = generate_scene(SceneParams(n_bg=60, n_fg=20, n_frames=30, sigma=0.15, seed=7))
        cell_w, cell_h = 640 / 16, 360 / 16
        x, y = scene.store.trajectories[0].points[0]
        center = ((x // cell_w + 0.5) * cell_w, (y // cell_h + 0.5) * cell_h)
        still = Trajectory(999, 0, np.tile(center, (30, 1)))
        store = TrajectoryStore(scene.store.trajectories + (still,), 30, (640, 360))
        traj = tmp_path / "scene.jsonl"
        serialize_trajectories(store, traj)
        labels = tmp_path / "labels.jsonl"
        argv = ["segment", "--input", str(traj), "--output", str(labels), "--seed", "7"]
        assert run_cli(argv) == 0
        fused = parse_labels(labels).fused
        assert 999 not in fused
        assert set(fused) == set(scene.ground_truth)

    def test_unknown_flag_is_usage_error(self):
        assert run_cli(["segment", "--nope"]) == 2

    @pytest.mark.parametrize("flag, value", [("--outer-iters", "3"), ("--jacobi-iters", "5")])
    def test_retired_flag_is_usage_error(self, tmp_path, capsys, flag, value):
        traj, _ = self._synth(tmp_path, 0.0)
        out = tmp_path / "x"
        assert run_cli(["segment", "--input", str(traj), "--output", str(out), flag, value]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_retired_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"outer_iters": 3}')
        assert run_cli(["segment", "--config", str(cfg), "--input", "x", "--output", "y"]) == 2
        assert "unknown config keys: ['outer_iters']" in capsys.readouterr().err

    def test_label_file_with_retired_params_keys_still_reads(self, tmp_path, capsys):
        old = tmp_path / "old.jsonl"
        old.write_text(RETIRED_KEYS_LABELS)
        params = parse_labels(old).params
        assert (params["outer_iters"], params["jacobi_iters"], params["m"]) == (3, 5, 2)
        assert params["min_block_len"] == 10
        # The same run today writes the same lines after a shorter params record.
        scene, gt, new = tmp_path / "scene.jsonl", tmp_path / "gt.jsonl", tmp_path / "new.jsonl"
        synth = ["--sigma", "0.05", "--n-bg", "5", "--n-fg", "3", "--frames", "12", "--seed", "1"]
        assert run_cli(["synth", *synth, "--out", str(scene), "--gt", str(gt)]) == 0
        assert run_cli(["segment", "--input", str(scene), "--output", str(new), "--grid", "4"]) == 0
        old_params, *old_rest = RETIRED_KEYS_LABELS.splitlines()
        new_params, *new_rest = new.read_text().splitlines()
        assert new_rest == old_rest
        dropped = {"outer_iters": 3, "jacobi_iters": 5, "m": 2, "min_block_len": 10}
        assert {**json.loads(new_params)["params"], **dropped} == params
        capsys.readouterr()
        assert run_cli(["eval", "--pred", str(old), "--gt", str(gt)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "accuracy": 1.0,
            "confusion": [[5, 0], [0, 3]],
            "n_labeled": 8,
            "n_unlabeled": 0,
        }

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

    def test_defaults_match_published_constants(self, tmp_path):
        # Bandwidth 0.02, weight 0.2, 70% coverage, 10% spanning fraction.
        traj, _ = self._synth(tmp_path, 0.0)
        labels = tmp_path / "labels.jsonl"
        run_cli(["segment", "--input", str(traj), "--output", str(labels)])
        p = parse_labels(labels).params
        assert (p["omega"], p["lambda"]) == (0.02, 0.2)
        assert (p["span_threshold"], p["min_span_fraction"]) == (0.7, 0.1)
        params = SegmenterParams()
        assert (params.omega, params.lam) == (0.02, 0.2)
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

    def test_blocks_run_on_the_calling_thread(self, tmp_path):
        traj = tmp_path / "long.jsonl"
        gt = tmp_path / "long_gt.jsonl"
        synth = ["synth", "--sigma", "0.15", "--n-bg", "40", "--n-fg", "15", "--frames", "80"]
        assert run_cli([*synth, "--seed", "3", "--out", str(traj), "--gt", str(gt)]) == 0
        threads = []
        segment_block = segmenter.segment_block

        def record(*args):
            threads.append(threading.get_ident())
            return segment_block(*args)

        argv = ["segment", "--input", str(traj), "--output", str(tmp_path / "labels.jsonl")]
        with mock.patch("jitterseg.segmenter.segment_block", record):
            assert run_cli([*argv, "--max-block-len", "20", "--jobs", "2"]) == 0
        assert len(threads) == 4
        assert set(threads) == {threading.get_ident()}

    def test_non_utf8_input_is_one_line_pipeline_error(self, tmp_path, capsys):
        traj = tmp_path / "t.jsonl"
        traj.write_bytes(
            b'{"frames":3,"width":100,"height":100}\n{"id":0,"start":0,"points":[[1,\xff]]}\n'
        )
        code = run_cli(["segment", "--input", str(traj), "--output", str(tmp_path / "o.jsonl")])
        assert code == 1
        assert capsys.readouterr().err == (
            "jitterseg segment: parse stage failed: line 2: not UTF-8 text\n"
        )

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        traj, _ = self._synth(tmp_path, 0.0)
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"omega": \xff}')
        argv = ["segment", "--config", str(cfg), "--input", str(traj)]
        argv += ["--output", str(tmp_path / "o.jsonl")]
        assert run_cli(argv) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_empty_config_path_is_usage_error(self, tmp_path, capsys):
        # An empty path names no file; it is not the same as no --config.
        out = tmp_path / "s.jsonl"
        argv = ["synth", "--config", "", "--sigma", "0.1", "--n-bg", "20", "--n-fg", "8"]
        argv += ["--frames", "12", "--out", str(out), "--gt", str(tmp_path / "gt.jsonl")]
        assert run_cli(argv) == 2
        assert "jitterseg: error: cannot read config: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["segment", "eval", "config"])
    def test_byte_order_mark_is_one_plain_error(self, tmp_path, capsys, command):
        traj, gt = self._synth(tmp_path, 0.0)
        out = tmp_path / "o.jsonl"
        bom = tmp_path / "bom.json"
        if command == "segment":
            bom.write_bytes(b"\xef\xbb\xbf" + traj.read_bytes())
            argv, code = ["segment", "--input", str(bom), "--output", str(out)], 1
        elif command == "eval":
            bom.write_bytes(b"\xef\xbb\xbf" + gt.read_bytes())
            argv, code = ["eval", "--pred", str(bom), "--gt", str(gt)], 1
        else:
            bom.write_bytes(b"\xef\xbb\xbf" + json.dumps({"seed": 4}).encode())
            argv = ["segment", "--config", str(bom), "--input", str(traj), "--output", str(out)]
            code = 2
        capsys.readouterr()
        assert run_cli(argv) == code
        err = capsys.readouterr().err
        if command == "config":
            assert err.endswith(
                "\njitterseg: error: cannot read config: unexpected UTF-8 byte-order mark\n"
            )
        else:
            assert err == (
                f"jitterseg {command}: parse stage failed: "
                "line 1: unexpected UTF-8 byte-order mark\n"
            )

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

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("segment", '{"seed": 1, "seed": 2}', "duplicate key 'seed'"),
            ("synth", '{"n-bg": 5, "n_bg": 60}', "names option 'n_bg' twice"),
        ],
    )
    def test_config_repeated_option_is_usage_error(self, tmp_path, capsys, command, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run_cli([command, "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    def test_config_bad_type_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": "seven"}')
        assert run_cli(["segment", "--config", str(cfg), "--input", "x", "--output", "y"]) == 2

    def test_config_dash_keys_accepted(self, tmp_path):
        traj, _ = self._synth(tmp_path, 0.0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"span-threshold": 0.8, "max-block-len": 40}))
        labels = tmp_path / "labels.jsonl"
        code = run_cli(
            ["segment", "--config", str(cfg), "--input", str(traj), "--output", str(labels)]
        )
        assert code == 0
        params = parse_labels(labels).params
        assert (params["span_threshold"], params["max_block_len"]) == (0.8, 40)

    def test_eval_unknown_id_is_pipeline_error(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        gt.write_text('{"type":"fused","labels":{"0":0,"1":1},"foreground_cluster":1}\n')
        pred = tmp_path / "pred.jsonl"
        pred.write_text('{"type":"fused","labels":{"5":1},"foreground_cluster":1}\n')
        assert run_cli(["eval", "--pred", str(pred), "--gt", str(gt)]) == 1
        assert "eval" in capsys.readouterr().err


class TestSkippedBlock:
    """A block with too few representatives loses only its own labels."""

    def _store(self):
        # Block [0, 30) is an ordinary scene; the five tracks spanning block
        # [30, 60) start in two neighbouring grid cells, so that block has
        # 2 representatives.
        scene = generate_scene(SceneParams(n_bg=30, n_fg=10, n_frames=30, sigma=0.0, seed=2))
        f = np.arange(30, dtype=float)[:, None]
        huddle = tuple(
            Trajectory(100 + i, 30, [300.0 + i, 200.0 + i] + f * [1.0 + 0.3 * i, 0.2 * i - 0.5])
            for i in range(5)
        )
        return TrajectoryStore(scene.store.trajectories + huddle, 60, (640, 360)), scene

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_block_is_left_unlabeled(self, tmp_path, jobs):
        store, scene = self._store()
        traj, labels = tmp_path / "t.jsonl", tmp_path / "labels.jsonl"
        serialize_trajectories(store, traj)
        argv = ["segment", "--input", str(traj), "--output", str(labels), "--jobs", jobs]
        skipped = r"block \(30, 60\) left unlabeled: 2 representatives"
        with pytest.warns(BlockSkipped, match=skipped):
            assert run_cli(argv) == 0
        data = parse_labels(labels)
        assert [rng for rng, _ in data.blocks] == [(0, 30), (30, 60)]
        assert data.blocks[1][1] == {}
        assert set(data.blocks[0][1]) == set(data.fused) == set(scene.ground_truth)

    def test_one_frame_trailing_block_is_left_unlabeled(self, tmp_path):
        # All but three of the 80 tracks end at frame 29, too few span
        # [0, 30) for the first block to take in the last frame, and six
        # tracks over frames 28 and 29 make [29, 30) a block of its own.
        traj, labels = tmp_path / "t.jsonl", tmp_path / "labels.jsonl"
        scene = generate_scene(SceneParams(n_bg=60, n_fg=20, n_frames=30, sigma=0.15, seed=7))
        cut = [
            t if t.id < 3 else Trajectory(t.id, 0, t.points[:29]) for t in scene.store.trajectories
        ]
        late = [
            Trajectory(200 + i, 28, [[100.0 + 50 * i, 50.0], [101.0 + 50 * i, 51.0]])
            for i in range(6)
        ]
        serialize_trajectories(TrajectoryStore((*cut, *late), 30, scene.store.frame_size), traj)
        argv = ["segment", "--input", str(traj), "--output", str(labels)]
        skipped = r"block \(29, 30\) left unlabeled: 0 representatives"
        with pytest.warns(BlockSkipped, match=skipped):
            assert run_cli(argv) == 0
        data = parse_labels(labels)
        assert data.blocks[1] == ((29, 30), {})
        assert set(data.fused) == set(scene.ground_truth)

    def test_every_block_failing_is_pipeline_error(self, tmp_path, capsys):
        scene = generate_scene(SceneParams(n_bg=60, n_fg=20, n_frames=30, sigma=0.15, seed=7))
        traj, out = tmp_path / "t.jsonl", tmp_path / "x"
        serialize_trajectories(scene.store, traj)
        assert run_cli(["segment", "--input", str(traj), "--output", str(out), "--grid", "1"]) == 1
        assert capsys.readouterr().err == (
            "jitterseg segment: segment stage failed: "
            "1 representatives in block (0, 30), need at least 3\n"
        )
        assert not out.exists()


class TestShortTail:
    """A remainder of one or two frames joins the block before it."""

    @staticmethod
    def _segment(tmp_path, frames, *flags):
        traj, labels = tmp_path / "t.jsonl", tmp_path / "labels.jsonl"
        synth = ["synth", "--sigma", "0.1", "--n-bg", "30", "--n-fg", "10", "--frames", str(frames)]
        synth += ["--seed", "5", "--out", str(traj), "--gt", str(tmp_path / "gt.jsonl")]
        assert run_cli(synth) == 0
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert run_cli(["segment", "--input", str(traj), "--output", str(labels), *flags]) == 0
        assert [str(w.message) for w in record] == []
        return parse_labels(labels)

    @pytest.mark.parametrize("cap", ["29", "28"])
    def test_cap_short_of_the_scene_gives_one_block(self, tmp_path, cap):
        data = self._segment(tmp_path, 30, "--max-block-len", cap)
        assert [rng for rng, _ in data.blocks] == [(0, 30)]
        assert set(data.blocks[0][1]) == set(data.fused) and len(data.fused) == 40

    @pytest.mark.parametrize("frames", [61, 62])
    def test_default_cap_leaves_no_short_tail(self, tmp_path, frames):
        data = self._segment(tmp_path, frames)
        ranges = [rng for rng, _ in data.blocks]
        assert ranges == [(0, frames)]
        assert len(data.fused) == 40


# Flag (dashes) -> params field, for every flag that sets a params field.
_SEGMENT_FIELDS = {
    "omega": "omega",
    "lambda": "lam",
    "span-threshold": "span_threshold",
    "min-span-fraction": "min_span_fraction",
    "grid": "grid_cells",
    "max-block-len": "max_block_len",
    "seed": "seed",
}
_SYNTH_FIELDS = {
    "sigma": "sigma",
    "n-bg": "n_bg",
    "n-fg": "n_fg",
    "frames": "n_frames",
    "camera-speed": "camera_speed",
    "object-speed": "object_speed",
    "seed": "seed",
}

_segment_values = st.fixed_dictionaries(
    {
        "omega": st.floats(0.01, 0.1),
        "lambda": st.floats(0.0, 1.0),
        "span-threshold": st.floats(0.3, 1.0),
        "min-span-fraction": st.floats(0.05, 0.5),
        "grid": st.integers(4, 16),
        "max-block-len": st.integers(10, 60),
        "seed": st.integers(0, 1000),
    }
)
_synth_values = st.fixed_dictionaries(
    {
        "sigma": st.floats(0.0, 0.25),
        "n-bg": st.integers(3, 30),
        "n-fg": st.integers(3, 10),
        "frames": st.integers(20, 30),
        "width": st.integers(400, 800),
        "height": st.integers(300, 500),
        "camera-speed": st.floats(0.0, 1.0),
        "object-speed": st.floats(0.5, 2.0),
        "seed": st.integers(0, 1000),
    }
)


def _flags(values: dict) -> list[str]:
    return [arg for key, value in values.items() for arg in (f"--{key}", str(value))]


@pytest.fixture(scope="module")
def scene_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scene") / "scene.jsonl"
    scene = generate_scene(SceneParams(n_bg=30, n_fg=10, n_frames=30, sigma=0.1, seed=5))
    serialize_trajectories(scene.store, path)
    return path


class TestParamsAgree:
    """Flags, config files, the params record and --help all agree."""

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(values=_segment_values)
    def test_segment_flags_config_and_record(self, scene_file, tmp_path_factory, values):
        tmp = tmp_path_factory.mktemp("segment")
        by_flags, by_config, cfg = tmp / "flags.jsonl", tmp / "config.jsonl", tmp / "cfg.json"
        cfg.write_text(json.dumps(values))
        base = ["segment", "--input", str(scene_file)]
        assert run_cli([*base, "--output", str(by_flags), *_flags(values)]) == 0
        assert run_cli([*base, "--output", str(by_config), "--config", str(cfg)]) == 0
        assert by_flags.read_bytes() == by_config.read_bytes()
        record = parse_labels(by_flags).params
        expected = SegmenterParams(**{_SEGMENT_FIELDS[k]: v for k, v in values.items()})
        assert _params(SegmenterParams, _SEGMENT, record) == expected
        assert len(record) == 1 + len(dataclasses.fields(SegmenterParams))
        assert "min_block_len" not in record

    def test_every_params_field_has_a_flag(self):
        for options, cls in ((_SEGMENT, SegmenterParams), (_SYNTH, SceneParams)):
            assert all(opt.help for opt in options)
            fields = {f.name for f in dataclasses.fields(cls)}
            assert {opt.field for opt in options} - {None} == fields

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(values=_synth_values)
    @example(
        values={
            "sigma": 0.0,
            "n-bg": 3,
            "n-fg": 3,
            "frames": 20,
            "width": 400,
            "height": 300,
            "camera-speed": 0.0,
            "object-speed": 0.5,
            "seed": 0,
        }
    )
    def test_synth_flags_config_and_record(self, tmp_path_factory, values):
        tmp = tmp_path_factory.mktemp("synth")
        outputs = {}
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps(values))
        # A static camera without jitter is the one degenerate draw.
        static = values["sigma"] == 0 and values["camera-speed"] == 0
        for how, extra in (("flags", _flags(values)), ("config", ["--config", str(cfg)])):
            out, gt = tmp / f"{how}.jsonl", tmp / f"{how}_gt.jsonl"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run_cli(["synth", "--out", str(out), "--gt", str(gt), *extra]) == 0
            assert [type(w.message) for w in caught] == [DegenerateScene] * static
            outputs[how] = (out.read_bytes(), gt.read_bytes())
        assert outputs["flags"] == outputs["config"]
        record = parse_labels(tmp / "flags_gt.jsonl").params
        expected = SceneParams(
            frame_size=(values["width"], values["height"]),
            **{_SYNTH_FIELDS[k]: v for k, v in values.items() if k in _SYNTH_FIELDS},
        )
        assert _params(SceneParams, _SYNTH, record) == expected
        assert len(record) == 1 + len(values)

    @pytest.mark.parametrize(
        "command, cls, flags",
        [
            ("segment", SegmenterParams, _SEGMENT_FIELDS),
            ("synth", SceneParams, {"width": None, "height": None, **_SYNTH_FIELDS}),
        ],
    )
    def test_help_shows_dataclass_defaults(self, capsys, command, cls, flags):
        assert run_cli([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        defaults["width"], defaults["height"] = defaults.get("frame_size", (None, None))
        for flag, name in flags.items():
            default = defaults[name or flag]
            # The flag's own help text: no other flag and no parenthesis
            # before "(default".
            shown = re.search(rf"--{flag} [A-Z_]+ (?:(?!--)[^()])*\(default ([^)]*)\)", text)
            if default is dataclasses.MISSING:
                assert shown is None, flag
            else:
                assert shown is not None and shown.group(1) == str(default), flag


class TestReadOnceInput:
    """``segment --input`` reads a pipe or a FIFO, which can be read only
    once, to the labels of the same scene in a regular file. The CLI runs
    in a child process with the input on its stdin or in a FIFO that a
    thread feeds; a reader that opened the input twice would find it empty
    or wait for a writer that has gone, which the timeout turns into a
    failure."""

    ARGS = ["segment", "--seed", "7", "--jobs", "1"]

    def _segment_in_child(self, source: str, output: Path, **stdin) -> None:
        src = Path(cli.__file__).parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "jitterseg.cli", *self.ARGS]
            + ["--input", source, "--output", str(output)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
            **stdin,
        )
        assert (done.returncode, done.stderr) == (0, b"")

    def _labels_of_regular_file(self, scene_file, tmp_path) -> bytes:
        out = tmp_path / "regular.jsonl"
        assert run_cli([*self.ARGS, "--input", str(scene_file), "--output", str(out)]) == 0
        return out.read_bytes()

    def test_stdin_pipe(self, scene_file, tmp_path):
        out = tmp_path / "pipe.jsonl"
        self._segment_in_child("/dev/stdin", out, input=scene_file.read_bytes())
        assert out.read_bytes() == self._labels_of_regular_file(scene_file, tmp_path)

    def test_named_pipe(self, scene_file, tmp_path):
        fifo, out = tmp_path / "scene.fifo", tmp_path / "fifo.jsonl"
        os.mkfifo(fifo)
        data = scene_file.read_bytes()

        def feed():
            with open(fifo, "wb") as f:
                f.write(data)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            self._segment_in_child(str(fifo), out, stdin=subprocess.DEVNULL)
        finally:
            if writer.is_alive():  # the child never opened the FIFO: give the writer a reader
                reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
                writer.join()
                os.close(reader)
        assert out.read_bytes() == self._labels_of_regular_file(scene_file, tmp_path)


def _edits(base: bytes):
    """``base`` with up to four edits, each deleting up to four bytes at a
    position and inserting up to six arbitrary bytes there."""
    edit = st.tuples(st.integers(0, len(base)), st.integers(0, 4), st.binary(max_size=6))

    def apply(edits):
        out = base
        for pos, n_del, ins in edits:
            pos = min(pos, len(out))
            out = out[:pos] + ins + out[pos + n_del :]
        return out

    return st.lists(edit, min_size=1, max_size=4).map(apply)


@functools.cache
def _valid_files() -> tuple[bytes, bytes]:
    """A small scene's trajectory file and its segment output, built on
    first use so that a failing ``segment`` fails the tests using them."""
    with tempfile.TemporaryDirectory() as tmp:
        traj, labels = Path(tmp, "t.jsonl"), Path(tmp, "l.jsonl")
        scene = generate_scene(SceneParams(n_bg=12, n_fg=6, n_frames=12, sigma=0.1, seed=2))
        serialize_trajectories(scene.store, traj)
        assert run_cli(["segment", "--input", str(traj), "--output", str(labels)]) == 0
        return traj.read_bytes(), labels.read_bytes()


class TestAnyInputFile:
    """No file content makes ``segment`` or ``eval --pred`` raise: every
    run returns exit code 0, 1 or 2. Inputs are arbitrary bytes or a valid
    file with a few arbitrary byte edits, which reach past the first line."""

    @staticmethod
    def _run(data: bytes, *argv: str) -> int:
        """Run ``argv`` in a fresh directory holding ``data`` as in.jsonl
        and the valid label file as gt.jsonl."""
        with tempfile.TemporaryDirectory() as tmp:
            Path(tmp, "in.jsonl").write_bytes(data)
            Path(tmp, "gt.jsonl").write_bytes(_valid_files()[1])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return run_cli([str(Path(tmp, a)) if a.endswith(".jsonl") else a for a in argv])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(st.binary(max_size=200), st.deferred(lambda: _edits(_valid_files()[0]))))
    def test_segment(self, data):
        code = self._run(data, "segment", "--input", "in.jsonl", "--output", "out.jsonl")
        assert code in (0, 1, 2)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(st.binary(max_size=200), st.deferred(lambda: _edits(_valid_files()[1]))))
    def test_eval_pred(self, data):
        assert self._run(data, "eval", "--pred", "in.jsonl", "--gt", "gt.jsonl") in (0, 1, 2)
