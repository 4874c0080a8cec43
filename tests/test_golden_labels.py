"""Label files of fixed CLI runs, and the trajectory files they read, pinned by SHA-256.

A change that moves any byte of a label file changes labels (or the
params record) and must update the constants on purpose. The trajectory
files pin what ``generate_scene``, ``fuse_jitter``, the benchmark's
``cut_tracks`` and ``serialize_trajectories`` write, so a change to the
store they go through cannot move the inputs unseen.
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
        "e38cb930d44a84aac162280603585034bcfeea10a6c31b3a2aba673a441f706d",
    ),
    # Acceptance criterion 7's scene: four blocks.
    "four_blocks": (
        ["--sigma", "0.15", "--n-bg", "40", "--n-fg", "15", "--frames", "80", "--seed", "5"],
        ["--max-block-len", "25", "--seed", "5"],
        "24fb2f35854bcd543ee10b03bfa1ed70f6d1978ba24d0dcc7b773a53cc836a17",
    ),
}

# The trajectory file that ``synth`` writes for each GOLDEN scene.
SCENE_DIGESTS = {
    "readme": "6cd77211ca0ac97ee7d7cd4a5385be3858d7919d3140808e695fc5986414e84a",
    "four_blocks": "6fca811998857c95076138b0b8832ad491fd746e75df520a7b6b432ca5a88eb8",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_label_file_digest(tmp_path, name, jobs):
    synth_args, segment_args, digest = GOLDEN[name]
    scene, gt, labels = tmp_path / "scene.jsonl", tmp_path / "gt.jsonl", tmp_path / "labels.jsonl"
    assert run_cli(["synth", *synth_args, "--out", str(scene), "--gt", str(gt)]) == 0
    assert hashlib.sha256(scene.read_bytes()).hexdigest() == SCENE_DIGESTS[name]
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
PARTIAL_DIGEST = "ab8528caa5f27eb9811ea14065436b1e55b63961de77a4a5c82e51d60e92aa49"
PARTIAL_SCENE_DIGEST = "030189b3fe7f776ac89cc9454a8e69a519003b375c95d19d5f7e63c036c4b96e"


def test_partial_tracks_digest(tmp_path):
    scene = cut_tracks(generate_scene(PARTIAL_SCENE), PARTIAL_SCENE.seed).scene
    path, labels = tmp_path / "scene.jsonl", tmp_path / "labels.jsonl"
    serialize_trajectories(scene.store, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PARTIAL_SCENE_DIGEST
    assert run_cli(["segment", "--input", str(path), "--output", str(labels)]) == 0
    assert hashlib.sha256(labels.read_bytes()).hexdigest() == PARTIAL_DIGEST
