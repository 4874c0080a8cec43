"""Label files of fixed CLI runs, pinned by SHA-256.

A change that moves any byte of these files changes labels (or the
params record) and must update the constants on purpose.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

from jitterseg import SceneParams, generate_scene, serialize_trajectories
from jitterseg.cli import run_cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from partial_tracks import cut_tracks  # noqa: E402  (read-only use of the benchmark's cutter)

GOLDEN = {
    # The README example.
    "readme": (
        ["--sigma", "0.15", "--n-bg", "60", "--n-fg", "20", "--frames", "30", "--seed", "7"],
        ["--seed", "7"],
        "31f5cc329c9342f7b5cfe668b0bf79dc4e815e2c8e63c2aa91ddae702f9bd424",
    ),
    # Acceptance criterion 7's scene: four blocks.
    "four_blocks": (
        ["--sigma", "0.15", "--n-bg", "40", "--n-fg", "15", "--frames", "80", "--seed", "5"],
        ["--max-block-len", "25", "--seed", "5"],
        "e3ffbf11f6a87f5a0afb4daa17a3967738ce34ff6ae8a9567d91d27b1f47b051",
    ),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_label_file_digest(tmp_path, name, jobs):
    synth_args, segment_args, digest = GOLDEN[name]
    scene, gt, labels = tmp_path / "scene.jsonl", tmp_path / "gt.jsonl", tmp_path / "labels.jsonl"
    assert run_cli(["synth", *synth_args, "--out", str(scene), "--gt", str(gt)]) == 0
    argv = ["segment", "--input", str(scene), "--output", str(labels), *segment_args]
    assert run_cli([*argv, "--jobs", jobs]) == 0
    assert hashlib.sha256(labels.read_bytes()).hexdigest() == digest


# A long_partial-recipe scene (the benchmark's), cut into partial tracks:
# four blocks, stragglers labeled over cropped overlap windows, fusion.
PARTIAL_SCENE = SceneParams(
    270,
    30,
    240,
    0.15,
    frame_size=(1280, 720),
    camera_speed=0.3,
    object_speed=0.6,
    seed=3001,
)
PARTIAL_DIGEST = "c292fd0846fb775e5882a22f2d4879505c5f71d892a13be613bc84b871f0b6ad"


def test_partial_tracks_digest(tmp_path):
    scene = cut_tracks(generate_scene(PARTIAL_SCENE), PARTIAL_SCENE.seed).scene
    path, labels = tmp_path / "scene.jsonl", tmp_path / "labels.jsonl"
    serialize_trajectories(scene.store, path)
    assert run_cli(["segment", "--input", str(path), "--output", str(labels)]) == 0
    assert hashlib.sha256(labels.read_bytes()).hexdigest() == PARTIAL_DIGEST
