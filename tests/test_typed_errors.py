"""Typed errors that no other test raises, one table per layer.

Each case names the error's type and its whole message: through
``run_cli`` the exit code and the one stderr line, in the library the
exception type and ``str`` of the exception.
"""

from __future__ import annotations

import numpy as np
import pytest

from jitterseg import (
    Block,
    BlockResult,
    LabeledScene,
    Metrics,
    SceneParams,
    SegmenterParams,
    Trajectory,
    TrajectoryStore,
    assign_stragglers,
    build_affinity,
    fuse_blocks,
    metrics_from_labels,
    parse_trajectories,
    project_to_preshape,
    stabilize_mean,
)
from jitterseg.alignment import GpaResult
from jitterseg.cli import run_cli
from jitterseg.errors import (
    DegenerateTrajectory,
    InvalidParameter,
    InvalidPreShape,
    ParseError,
)
from jitterseg.shapes import preshape_rows

HEADER = '{"frames":4,"width":100,"height":100}\n'
TRACK = '{"id":1,"start":0,"points":[[1.5,2.25],[3.0,4.0]]}\n'
FUSED = '{"type":"fused","labels":{"1":0},"foreground_cluster":1}\n'
SEGMENT = ["segment", "--input", "t.jsonl", "--output", "out.jsonl"]
EVAL = ["eval", "--pred", "pred.jsonl", "--gt", "gt.jsonl"]


def _store() -> TrajectoryStore:
    return TrajectoryStore((Trajectory(1, 0, [[1.0, 2.0], [3.0, 5.0]]),), 4, (100, 100))


@pytest.mark.parametrize(
    "argv, files, code, err",
    [
        pytest.param(
            SEGMENT,
            {"t.jsonl": HEADER.replace('"frames":4', '"frames":0') + TRACK},
            1,
            "jitterseg segment: parse stage failed: "
            "line 1: header 'frames' must be a positive integer",
            id="header-frames-zero",
        ),
        pytest.param(
            SEGMENT,
            {"t.jsonl": HEADER + TRACK.replace('"id":1', '"id":1.5')},
            1,
            "jitterseg segment: parse stage failed: line 2: 'id' and 'start' must be integers",
            id="fractional-id",
        ),
        pytest.param(
            SEGMENT,
            {"t.jsonl": HEADER},
            1,
            "jitterseg segment: segment stage failed: store has no trajectories",
            id="header-only",
        ),
        pytest.param(
            EVAL,
            {"pred.jsonl": FUSED.replace('{"1":0}', "5"), "gt.jsonl": FUSED},
            1,
            "jitterseg eval: parse stage failed: line 1: 'labels' must be an object",
            id="labels-not-an-object",
        ),
        pytest.param(
            EVAL,
            {"pred.jsonl": '{"type":"block","range":[0],"labels":{}}\n' + FUSED, "gt.jsonl": FUSED},
            1,
            "jitterseg eval: parse stage failed: line 1: 'range' must be [start, end]",
            id="one-element-range",
        ),
        pytest.param(
            ["segment", "--config", "cfg.json", "--output", "out.jsonl"],
            {"cfg.json": '{"input": 5}'},
            2,
            "jitterseg: error: config key 'input' must be a string",
            id="config-input-not-a-string",
        ),
        pytest.param(
            ["segment", "--config", "cfg.json", "--output", "out.jsonl"],
            {"cfg.json": "[1, 2]"},
            2,
            "jitterseg: error: config must be a JSON object",
            id="config-not-an-object",
        ),
        pytest.param(
            ["segment", "--config", "cfg.json", "--output", "out.jsonl"],
            {"cfg.json": "[" * 100_000 + "]" * 100_000},
            2,
            "jitterseg: error: cannot read config: invalid JSON (nested too deeply)",
            id="config-nested-too-deeply",
        ),
    ],
)
def test_cli(tmp_path, capsys, argv, files, code, err):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a.endswith((".jsonl", ".json")) else a for a in argv]
    assert run_cli(argv) == code
    # A usage error prints argparse's usage lines first; the error is the last.
    assert capsys.readouterr().err.splitlines()[-1] == err
    assert not (tmp_path / "out.jsonl").exists()


def _not_an_object(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("[1]\n" + TRACK)
    # The bulk decoder declines the file, so the line reader names the fault.
    return parse_trajectories(path)


def _scene_params(**changes) -> SceneParams:
    return SceneParams(**{"n_bg": 2, "n_fg": 1, "n_frames": 4, "sigma": 0.0, **changes})


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda _: build_affinity([project_to_preshape([[0.0, 0.0], [1.0, 2.0]])], 0.02),
            InvalidParameter,
            "need at least 2 shapes",
            id="affinity-of-one-shape",
        ),
        pytest.param(
            lambda _: TrajectoryStore((), 4, (0, 100)),
            InvalidParameter,
            "frame_size must be positive",
            id="store-frame-size-zero",
        ),
        pytest.param(
            lambda _: TrajectoryStore((), 1, (100, 100)),
            InvalidParameter,
            "n_frames_total must be >= 2",
            id="store-of-one-frame",
        ),
        pytest.param(
            lambda _: TrajectoryStore(_store().trajectories, 4, (2**60, 5)),
            InvalidParameter,
            "frame_size must be <= 2147483647",
            id="store-frame-side-past-int32",
        ),
        pytest.param(
            lambda _: TrajectoryStore(_store().trajectories, 4, (10**400, 5)),
            InvalidParameter,
            "frame_size must be <= 2147483647",
            id="store-frame-side-past-float",
        ),
        pytest.param(
            lambda _: fuse_blocks([], _store()),
            InvalidParameter,
            "need at least one block result",
            id="fuse-nothing",
        ),
        pytest.param(
            lambda _: fuse_blocks([BlockResult(Block(0, 4), {1: 2}, ())], _store()),
            InvalidParameter,
            "fuse_blocks requires binary labels",
            id="fuse-label-two",
        ),
        pytest.param(
            lambda _: project_to_preshape(np.zeros(3)),
            InvalidPreShape,
            "config must be an (N, 2) array with N >= 2, got (3,)",
            id="project-flat-array",
        ),
        pytest.param(
            lambda _: project_to_preshape(np.ones((3, 2))),
            DegenerateTrajectory,
            "centered norm 0.000e+00 below 1e-12",
            id="project-motionless",
        ),
        pytest.param(
            lambda _: preshape_rows(np.zeros((2, 1), dtype=complex)),
            InvalidPreShape,
            "need a (K, N) stack with N >= 2, got (2, 1)",
            id="rows-of-one-frame",
        ),
        pytest.param(
            lambda _: _scene_params(frame_size=(0, 100)),
            InvalidParameter,
            "frame_size must be positive",
            id="scene-frame-size-zero",
        ),
        pytest.param(
            lambda _: _scene_params(camera_speed=-1.0),
            InvalidParameter,
            "speeds must be >= 0",
            id="scene-negative-speed",
        ),
        pytest.param(
            lambda _: LabeledScene(_store(), {}),
            ValueError,
            "ground truth must label exactly the store's ids",
            id="truth-misses-an-id",
        ),
        pytest.param(
            lambda _: metrics_from_labels({1: 2}, {1: 0}),
            InvalidParameter,
            "label for id 1 must be 0 or 1, got 2",
            id="metrics-label-two",
        ),
        pytest.param(
            lambda _: stabilize_mean(np.zeros((4, 3)), 0.2),
            InvalidParameter,
            "mean must be an (N, 2) matrix with N >= 2",
            id="stabilize-three-columns",
        ),
        pytest.param(
            lambda _: GpaResult(np.ones(1), np.zeros((2, 2)), -1.0),
            ValueError,
            "objective must be >= 0",
            id="gpa-negative-objective",
        ),
        pytest.param(
            _not_an_object,
            ParseError,
            "line 1: record is not an object",
            id="first-line-not-an-object",
        ),
        pytest.param(
            lambda _: SegmenterParams(omega=10**400),
            InvalidParameter,
            "omega must be finite",
            id="segmenter-omega-past-float",
        ),
        pytest.param(
            lambda _: SegmenterParams(lam=10**400),
            InvalidParameter,
            "lam must be finite",
            id="segmenter-lam-past-float",
        ),
        pytest.param(
            lambda _: _scene_params(sigma=10**400),
            InvalidParameter,
            "sigma must be finite",
            id="scene-sigma-past-float",
        ),
        pytest.param(
            lambda _: _scene_params(camera_speed=10**400),
            InvalidParameter,
            "camera_speed must be finite",
            id="scene-camera-speed-past-float",
        ),
        pytest.param(
            lambda _: _scene_params(object_speed=10**400),
            InvalidParameter,
            "object_speed must be finite",
            id="scene-object-speed-past-float",
        ),
        pytest.param(
            lambda _: stabilize_mean(np.ones((4, 2)), 10**400),
            InvalidParameter,
            "lam must be finite",
            id="stabilize-lam-past-float",
        ),
    ],
)
def test_library(tmp_path, call, error, message):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error and str(info.value) == message


def test_stragglers_of_a_skipped_block_keep_its_labels():
    block = Block(0, 4)
    skipped = BlockResult(block, {}, ())
    assert assign_stragglers(skipped, _store(), block, SegmenterParams()) == {}


def test_metrics_with_nothing_labeled():
    assert metrics_from_labels({}, {1: 0, 2: 1}) == Metrics(0.0, ((0, 0), (0, 0)), 0, 2)
