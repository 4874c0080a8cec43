"""Self-test of the benchmark on tiny scenes.

Run from the repository root: ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.load_program()

from jitterseg import cli  # noqa: E402
from jitterseg.io import serialize_trajectories  # noqa: E402
from jitterseg.synth import SceneParams, generate_scene  # noqa: E402

from partial_tracks import cut_tracks  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402
from workloads import SceneSpec, Workload  # noqa: E402

TINY = Workload(
    "tiny",
    (
        SceneSpec(SceneParams(24, 8, 20, 0.05, seed=3)),
        SceneSpec(SceneParams(24, 8, 20, 0.25, seed=4), flags=("--lambda", "0.6")),
        SceneSpec(
            SceneParams(60, 20, 80, 0.05, frame_size=(1280, 720), seed=5), partial=True
        ),
    ),
    jobs=2,
)


def _run(capsys, trace: bool) -> tuple[dict, str]:
    result = run.run_workload(TINY, 1, 0, trace, import_s=0.0)
    out = capsys.readouterr().out
    assert json.loads(out.strip().splitlines()[-1]) == result
    return result, out


def _printed(out: str, name: str) -> str:
    lines = [ln for ln in out.splitlines() if ln.split()[:1] == [name]]
    assert len(lines) == 1, f"{name} printed {len(lines)} times"
    return lines[0]


def test_end_to_end_metrics_printed_with_units(capsys):
    result, out = _run(capsys, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(TINY.scenes)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.E2E_UNITS
    for name, unit in {**run.E2E_UNITS, **run.E2E_EXTRA_UNITS}.items():
        line = _printed(out, name)
        assert unit in line.split() or "omitted" in line
    assert _printed(out, "failed_frac").split()[1] == "0"
    assert "label_digest sha256:" in out


def test_traced_run_prints_layers_and_matches_untraced_labels(capsys):
    plain, plain_out = _run(capsys, trace=False)
    traced, out = _run(capsys, trace=True)
    assert traced["correct"] and traced["failed"] == 0
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == run.LAYER_UNITS
    for name, unit in run.LAYER_UNITS.items():
        assert _printed(out, name).split()[2] == unit
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    assert m["segmenter.blocks"] > 1  # the partial scene has two blocks
    assert m["clustering.spectral_calls"] == 3 * m["segmenter.blocks"]
    assert m["segmenter.straggler_candidates"] >= m["segmenter.stragglers_labeled"] > 0
    digest = [ln for ln in out.splitlines() if "label_digest" in ln]
    assert digest == [ln for ln in plain_out.splitlines() if "label_digest" in ln]
    again, _ = _run(capsys, trace=True)
    counts = {k for k, unit in run.LAYER_UNITS.items() if unit == "count"}
    assert {k: again["metrics"][k] for k in counts} == {k: traced["metrics"][k] for k in counts}


def test_tracer_restores_every_wrapped_name():
    originals = {
        (m, n): getattr(importlib.import_module(m), n) for m, n in TARGETS
    }
    tracer = Tracer()
    with tracer.installed():
        assert all(
            getattr(importlib.import_module(m), n) is not f for (m, n), f in originals.items()
        )
    assert all(getattr(importlib.import_module(m), n) is f for (m, n), f in originals.items())


def test_spans_follow_the_pipeline_hierarchy(tmp_path):
    scene = generate_scene(SceneParams(60, 20, 20, 0.05, seed=3))
    path = tmp_path / "scene.jsonl"
    serialize_trajectories(scene.store, path)
    argv = ["segment", "--input", str(path), "--output", str(tmp_path / "labels.jsonl")]
    tracer = Tracer()
    with tracer.installed():
        # Two jobs: segment_block runs on a pool thread yet still hangs
        # under segment_store.
        assert tracer.call("run_cli", cli.run_cli, argv + ["--jobs", "2"]) == 0
    edges = {(s.name, s.parent) for s in tracer.take()}
    children = {
        "run_cli": ("parse_trajectories", "segment_store", "serialize_labels"),
        "segment_store": ("partition_blocks", "segment_block", "fuse_blocks"),
        "segment_block": (
            "select_representatives",
            "project_to_preshape",
            "build_affinity",
            "spectral_cluster",
            "gpa_align",
            "stabilize_mean",
            "back_transform",
            "assign_stragglers",
        ),
        "assign_stragglers": ("project_to_preshape", "procrustes_distance"),
    }
    expected = {("run_cli", None)} | {(c, p) for p, cs in children.items() for c in cs}
    assert edges == expected


def _mangle_output(monkeypatch, mangle):
    real = cli.run_cli

    def mangled(argv):
        rc = real(argv)
        mangle(Path(argv[argv.index("--output") + 1]))
        return rc

    monkeypatch.setattr(cli, "run_cli", mangled)


def _truncate(path: Path):
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])


def _edit_fused(path: Path, old: str, new: str):
    lines = path.read_text().splitlines(keepends=True)
    assert old in lines[-1]
    path.write_text("".join(lines[:-1]) + lines[-1].replace(old, new, 1))


def _relabel(path: Path):
    _edit_fused(path, '":1,', '":2,')


def _drop_block(path: Path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(ln for ln in lines if '"type":"block"' not in ln))


def _foreign_id(path: Path):
    _edit_fused(path, '},"foreground_cluster"', ',"999999":0},"foreground_cluster"')


@pytest.mark.parametrize("mangle", [_truncate, _relabel, _drop_block, _foreign_id])
def test_bad_label_file_counts_as_failed(monkeypatch, capsys, mangle):
    _mangle_output(monkeypatch, mangle)
    result, out = _run(capsys, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == len(TINY.scenes)
    assert _printed(out, "failed_frac").split()[1] == "1"


def test_nonzero_exit_and_exception_count_as_failed(monkeypatch, capsys):
    calls = []

    def flaky(argv):
        calls.append(argv)
        if len(calls) == 1:
            return 1
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_cli", flaky)
    result, _ = _run(capsys, trace=False)
    assert result["failed"] == result["attempted"] == len(TINY.scenes)


def test_partial_tracks_keep_labels_and_coverage():
    scene = generate_scene(SceneParams(90, 30, 120, 0.15, frame_size=(1280, 720), seed=9))
    cut = cut_tracks(scene, seed=9)
    again = cut_tracks(scene, seed=9)
    store = cut.scene.store
    assert [t.id for t in store.trajectories] == [t.id for t in again.scene.store.trajectories]
    assert cut.split_count > 0 and 0 < cut.partial_frac < 1
    originals = scene.store.by_id
    for t in store.trajectories:
        # Every piece is a window of exactly one input track with its label.
        source = [
            o
            for o in originals.values()
            if np.array_equal(o.points[t.start_frame : t.end_frame], t.points)
        ]
        assert len(source) == 1
        assert cut.scene.ground_truth[t.id] == scene.ground_truth[source[0].id]


def test_tail_percentile():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(11))) == (0, 9)
    assert run.tail([float(x) for x in range(100)]) == (89.0, 90)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "clips", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
