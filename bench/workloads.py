"""Benchmark workloads: seeded scene recipes and their input files.

Each workload is a fixed list of scenes derived from the workload seed.
The program under test only ever sees the trajectory files written here;
ground truth stays in the benchmark process.

- ``clips``: many small clips. Small-K affinity and the fixed cost of one
  ``segment`` call (parse, dataclass validation, first BLAS calls)
  dominate; partition, fusion and the thread pool are bypassed.
- ``long_partial``: a long sequence cut into partial tracks, run on two
  threads. The only workload with several blocks, straggler windows
  cropped to a partial overlap, fusion across block boundaries and a
  thread pool.

There is no workload of thousands of full-span tracks in one block: on a
shared 2-core host its figures did not repeat within their bounds (each
4,000-track scene takes seconds, its cost swings with the representative
count and with OpenBLAS thread wake-ups, and about one such scene in four
is mis-split), and dropping it lets the other two run twice as long.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from jitterseg.io import serialize_trajectories
from jitterseg.synth import SceneParams, generate_scene

from partial_tracks import cut_tracks

CLIP_SIGMAS = (0.05, 0.15, 0.25)
# The README's advice for heavy shake.
HEAVY_JITTER_LAMBDA = "0.6"


@dataclass(frozen=True)
class SceneSpec:
    """One scene of a workload: its recipe and the extra segment flags."""

    params: SceneParams
    partial: bool = False
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    scenes: tuple[SceneSpec, ...]
    jobs: int = 1


@dataclass(frozen=True)
class SceneInput:
    """A written trajectory file and what the benchmark knows about it."""

    spec: SceneSpec
    path: Path
    ground_truth: dict[int, int]
    n_frames: int
    n_points: int
    n_bytes: int
    partial_frac: float


def _scene_seeds(seed: int, tag: int, count: int) -> list[int]:
    state = np.random.SeedSequence([seed, tag]).generate_state(count)
    return [int(s) for s in state]


def clips(seed: int) -> Workload:
    specs = []
    for i, s in enumerate(_scene_seeds(seed, 1, 36)):
        sigma = CLIP_SIGMAS[i % len(CLIP_SIGMAS)]
        flags = ("--lambda", HEAVY_JITTER_LAMBDA) if sigma == 0.25 else ()
        specs.append(SceneSpec(SceneParams(60, 20, 30, sigma, seed=s), flags=flags))
    return Workload("clips", tuple(specs))


def long_partial(seed: int) -> Workload:
    # 300 tracks over 240 frames (four blocks) keep a scene near 3 s, so a
    # run holds each of ten distinct scenes once or twice.
    specs = [
        SceneSpec(
            SceneParams(
                270,
                30,
                240,
                0.15,
                frame_size=(1280, 720),
                camera_speed=0.3,
                object_speed=0.6,
                seed=s,
            ),
            partial=True,
        )
        for s in _scene_seeds(seed, 3, 10)
    ]
    # Two threads, as on a 2-core machine; the runner caps this at nproc.
    return Workload("long_partial", tuple(specs), jobs=2)


WORKLOADS = {"clips": clips, "long_partial": long_partial}


def write_inputs(workload: Workload, workdir: Path) -> tuple[list[SceneInput], float, float]:
    """Generate and write every scene; returns the inputs and the seconds
    spent generating and writing."""
    inputs = []
    generate_s = write_s = 0.0
    for k, spec in enumerate(workload.scenes):
        t0 = time.perf_counter()
        scene = generate_scene(spec.params)
        partial_frac = 0.0
        if spec.partial:
            cut = cut_tracks(scene, spec.params.seed)
            scene, partial_frac = cut.scene, cut.partial_frac
        t1 = time.perf_counter()
        path = workdir / f"scene-{k}.jsonl"
        serialize_trajectories(scene.store, path)
        t2 = time.perf_counter()
        generate_s += t1 - t0
        write_s += t2 - t1
        inputs.append(
            SceneInput(
                spec,
                path,
                dict(scene.ground_truth),
                scene.store.n_frames_total,
                sum(t.n_points for t in scene.store.trajectories),
                path.stat().st_size,
                partial_frac,
            )
        )
    return inputs, generate_s, write_s
