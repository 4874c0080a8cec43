"""Benchmark of ``jitterseg segment``, end to end and per layer.

Run from the repository root; the program is imported from ``src/``:

    python3 bench/run.py --workload clips --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 1

Each workload (see ``workloads.py``) generates its scenes from ``--seed``,
writes them as trajectory files and then calls the public CLI entry point
``jitterseg.cli.run_cli(["segment", ...])`` in-process, cycling over the
scenes until ``--seconds`` have passed and every scene has run once.
Every label file is checked (``checks.py``); a run that fails a check
counts in ``failed_frac``.

``--trace 0`` times whole scenes with nothing installed and reports the
end-to-end metrics. ``--trace 1`` alternates untraced and traced runs of
each scene; the traced ones go through wrappers installed from outside
(``tracing.py``) and give the per-layer metrics and the tracing
overhead. Both modes print a SHA-256 over one pass of label files, so
later changes can show their labels are unchanged.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. BLAS thread
variables are recorded, never set: users run with the defaults.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("clips", "long_partial")
# Input generation is repeated this many times; setup_s uses the median.
SETUP_REPEATS = 3
# Untimed scene runs before measuring; the first seconds of a process run
# slower.
WARMUP_SECONDS = 2.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {
    "scene_s_p50": "s",
    "track_frames_per_s": "points/s",
    "accuracy": "fraction",
    "labeled_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed with the end-to-end metrics but left out of the JSON result:
# failed_frac is 0 on a sound run (failures travel in "failed"), and
# scene_s_tail is a tail only with far more than 11 samples; long_partial
# fits about 15 in a run.
E2E_EXTRA_UNITS = {"scene_s_tail": "s", "failed_frac": "fraction"}
LAYER_UNITS = {
    "io.parse_s": "s",
    "io.parse_mb_per_s": "MB/s",
    "io.write_s": "s",
    "cli.overhead_s": "s",
    "segmenter.partition_s": "s",
    "segmenter.blocks": "count",
    "segmenter.representatives_s": "s",
    "segmenter.reps_per_block": "count",
    "segmenter.block_s_p50": "s",
    "segmenter.block_s_max": "s",
    "segmenter.parallel_eff": "fraction",
    "segmenter.stragglers_s": "s",
    "segmenter.straggler_candidates": "count",
    "segmenter.stragglers_labeled": "count",
    "segmenter.straggler_yield": "fraction",
    "segmenter.fuse_s": "s",
    "segmenter.fuse_boundaries": "count",
    "segmenter.fuse_no_shared": "count",
    "clustering.affinity_s": "s",
    "clustering.affinity_pairs": "count",
    "clustering.affinity_us_per_pair": "us",
    "clustering.spectral_s": "s",
    "clustering.spectral_calls": "count",
    "clustering.spectral_ms_per_call": "ms",
    "alignment.gpa_s": "s",
    "alignment.gpa_sweeps": "count",
    "alignment.smooth_s": "s",
    "shapes.project_s": "s",
    "shapes.project_calls": "count",
    "shapes.procrustes_s": "s",
    "shapes.procrustes_calls": "count",
    "synth.generate_s": "s",
    "synth.write_s": "s",
    "trace.overhead_frac": "fraction",
}


def load_program() -> None:
    """Put this checkout's ``src/`` first on the import path."""
    src = ROOT / "src"
    if not (src / "jitterseg" / "__init__.py").is_file():
        raise SystemExit(f"bench: no jitterseg package under {src}")
    sys.path.insert(0, str(src))


def environment() -> dict:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas_build = (
            f"{blas.get('name')} {blas.get('version')} "
            f"({blas.get('openblas configuration', '')})"
        )
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": " ".join(blas_build.split()),
        **{name: os.environ.get(name) for name in BLAS_ENV},
    }


@dataclass
class SceneState:
    """What the benchmark learned from the runs of one scene."""

    first_raw: bytes | None = None
    accuracy: float = 0.0
    n_labeled: int = 0
    blocks: int = 0


@dataclass
class RunLog:
    walls: list[float] = field(default_factory=list)
    points: int = 0
    attempted: int = 0
    failed: int = 0


class Runner:
    """Runs the scenes of one workload and checks every output."""

    def __init__(self, inputs, workdir: Path, jobs: int):
        from jitterseg import cli

        self.cli = cli
        self.inputs = inputs
        self.workdir = workdir
        self.jobs = jobs
        self.scenes = [SceneState() for _ in inputs]

    def argv(self, k: int) -> list[str]:
        inp = self.inputs[k]
        argv = ["segment", "--input", str(inp.path), "--output", str(self.label_path(k))]
        argv += list(inp.spec.flags)
        if self.jobs > 1:
            argv += ["--jobs", str(self.jobs)]
        return argv

    def label_path(self, k: int) -> Path:
        return self.workdir / f"labels-{k}.jsonl"

    def run(self, k: int, log: RunLog, tracer=None) -> None:
        """Run scene ``k`` once, time it and check its output."""
        from checks import OutputError, check_output
        from jitterseg.synth import metrics_from_labels

        inp = self.inputs[k]
        out = self.label_path(k)
        out.unlink(missing_ok=True)
        argv = self.argv(k)
        gc.collect()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = self.cli.run_cli(argv)
            else:
                rc = tracer.call("run_cli", self.cli.run_cli, argv)
        except Exception:  # a raising scene is a failed scene, not a crashed benchmark
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - t0
        log.attempted += 1
        log.walls.append(wall)
        log.points += inp.n_points
        state = self.scenes[k]
        try:
            if rc is None:
                raise OutputError("segment raised")
            checked = check_output(
                rc, out, inp.ground_truth.keys(), inp.n_frames, self.workdir / "reserialized.jsonl"
            )
            if state.first_raw is None:
                m = metrics_from_labels(checked.labels.fused, inp.ground_truth)
                state.first_raw = checked.raw
                state.accuracy = m.accuracy
                state.n_labeled = m.n_labeled
                state.blocks = len(checked.labels.blocks)
            elif checked.raw != state.first_raw:
                raise OutputError("labels differ from the first run of this scene")
        except OutputError as exc:
            log.failed += 1
            print(f"bench: scene {k} failed: {exc}", file=sys.stderr)

    def digest(self) -> str:
        from checks import label_digest

        return label_digest([s.first_raw or b"" for s in self.scenes])


def tail(walls: list[float]) -> tuple[float, int] | None:
    """The highest percentile with at least ten samples above it, and that
    percentile; None for fewer than 11 samples."""
    n = len(walls)
    if n < 11:
        return None
    return sorted(walls)[n - 11], 100 * (n - 10) // n


def warm_up(runner: Runner, seconds: float) -> None:
    """Run scenes untimed for ``WARMUP_SECONDS`` (no longer than the
    measured run, and at least one scene), so that lazy set-up (first-call
    imports, the BLAS thread pool, allocator and page cache) is paid before
    timing. Every scene runs again, timed and checked, in the measured
    loop."""
    log = RunLog()
    t0 = time.perf_counter()
    while not log.attempted or time.perf_counter() - t0 < min(WARMUP_SECONDS, seconds):
        runner.run(log.attempted % len(runner.inputs), log)


def run_e2e(runner: Runner, seconds: float) -> RunLog:
    log = RunLog()
    n = len(runner.inputs)
    t0 = time.perf_counter()
    i = 0
    while i < n or time.perf_counter() - t0 < seconds:
        runner.run(i % n, log)
        i += 1
    return log


def run_traced(runner: Runner, seconds: float):
    """Alternate untraced and traced runs of each scene."""
    from tracing import Tracer, scene_totals

    tracer = Tracer()
    plain, traced = RunLog(), RunLog()
    first_pass: dict[int, dict] = {}
    totals: list[dict] = []
    block_walls: list[float] = []
    n = len(runner.inputs)
    t0 = time.perf_counter()
    i = 0
    while i < n or time.perf_counter() - t0 < seconds:
        k = i % n
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                runner.run(k, plain)
                continue
            with tracer.installed():
                runner.run(k, traced, tracer)
            spans = tracer.take()
            scene = scene_totals(spans)
            scene["input.bytes"] = runner.inputs[k].n_bytes
            totals.append(scene)
            first_pass.setdefault(k, scene)
            block_walls += [s.wall for s in spans if s.name == "segment_block"]
        i += 1
    counts = [first_pass[k] for k in range(n)]
    return plain, traced, totals, counts, block_walls


def _mean(rows: list[dict], key: str) -> float:
    return sum(r.get(key, 0.0) for r in rows) / len(rows)


def _ratio(rows: list[dict], num: str, den: str, scale: float = 1.0) -> float:
    d = sum(r.get(den, 0.0) for r in rows)
    return scale * sum(r.get(num, 0.0) for r in rows) / d if d else 0.0


def layer_metrics(totals, counts, block_walls, jobs, plain, traced, synth) -> dict:
    t = totals
    return {
        "io.parse_s": _mean(t, "parse_trajectories.s"),
        "io.parse_mb_per_s": _ratio(t, "input.bytes", "parse_trajectories.s", 1e-6),
        "io.write_s": _mean(t, "serialize_labels.s"),
        "cli.overhead_s": _mean(t, "run_cli.s")
        - _mean(t, "parse_trajectories.s")
        - _mean(t, "segment_store.s")
        - _mean(t, "serialize_labels.s"),
        "segmenter.partition_s": _mean(t, "partition_blocks.s"),
        "segmenter.blocks": _mean(counts, "segment_block.calls"),
        "segmenter.representatives_s": _mean(t, "select_representatives.s"),
        "segmenter.reps_per_block": _ratio(
            counts, "select_representatives.reps", "select_representatives.calls"
        ),
        "segmenter.block_s_p50": statistics.median(block_walls) if block_walls else 0.0,
        "segmenter.block_s_max": max(block_walls, default=0.0),
        "segmenter.parallel_eff": _ratio(t, "segment_block.s", "segment_store.s") / jobs,
        "segmenter.stragglers_s": _mean(t, "assign_stragglers.self_s"),
        "segmenter.straggler_candidates": _mean(counts, "assign_stragglers.candidates"),
        "segmenter.stragglers_labeled": _mean(counts, "assign_stragglers.labeled"),
        "segmenter.straggler_yield": _ratio(
            counts, "assign_stragglers.labeled", "assign_stragglers.candidates"
        ),
        "segmenter.fuse_s": _mean(t, "fuse_blocks.s"),
        "segmenter.fuse_boundaries": _mean(counts, "fuse_blocks.boundaries"),
        "segmenter.fuse_no_shared": _mean(counts, "fuse_blocks.no_shared"),
        "clustering.affinity_s": _mean(t, "build_affinity.s"),
        "clustering.affinity_pairs": _mean(counts, "build_affinity.pairs"),
        "clustering.affinity_us_per_pair": _ratio(
            t, "build_affinity.s", "build_affinity.pairs", 1e6
        ),
        "clustering.spectral_s": _mean(t, "spectral_cluster.s"),
        "clustering.spectral_calls": _mean(counts, "spectral_cluster.calls"),
        "clustering.spectral_ms_per_call": _ratio(
            t, "spectral_cluster.s", "spectral_cluster.calls", 1e3
        ),
        "alignment.gpa_s": _mean(t, "gpa_align.s"),
        "alignment.gpa_sweeps": _mean(counts, "gpa_align.sweeps"),
        "alignment.smooth_s": _mean(t, "stabilize_mean.s") + _mean(t, "back_transform.s"),
        "shapes.project_s": _mean(t, "project_to_preshape.s"),
        "shapes.project_calls": _mean(counts, "project_to_preshape.calls"),
        "shapes.procrustes_s": _mean(t, "procrustes_distance.s"),
        "shapes.procrustes_calls": _mean(counts, "procrustes_distance.calls"),
        **synth,
        "trace.overhead_frac": sum(traced.walls) / sum(plain.walls) - 1.0,
    }


def setup_inputs(workload, workdir: Path):
    """Generate and write the inputs ``SETUP_REPEATS`` times; the repeats
    must write identical files."""
    from workloads import write_inputs

    runs = []
    for _ in range(SETUP_REPEATS):
        inputs, generate_s, write_s = write_inputs(workload, workdir)
        hashes = [hashlib.sha256(i.path.read_bytes()).hexdigest() for i in inputs]
        runs.append((generate_s + write_s, generate_s, write_s, hashes))
    if any(r[3] != runs[0][3] for r in runs):
        raise SystemExit("bench: the same seed wrote different inputs")
    total, generate_s, write_s, _ = sorted(runs)[len(runs) // 2]
    return inputs, total, generate_s, write_s


def _print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")


def run_workload(workload, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    """Set up, run and report one workload; returns the printed result."""
    env = environment()
    name = workload.name
    jobs = min(workload.jobs, env["nproc"])
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs, gen_write_s, generate_s, write_s = setup_inputs(workload, workdir)
        setup_s = import_s + gen_write_s
        runner = Runner(inputs, workdir, jobs)
        print(f"env {json.dumps(env)}")
        print(
            f"workload {name}: seed {seed}, {len(inputs)} scenes, jobs {jobs}, "
            f"trace {int(trace)}"
        )
        warm_up(runner, seconds)
        if trace:
            plain, traced, totals, counts, block_walls = run_traced(runner, seconds)
            logs = (plain, traced)
        else:
            logs = (run_e2e(runner, seconds),)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()

    for k, (inp, st) in enumerate(zip(inputs, runner.scenes)):
        print(
            f"  scene {k}: seed {inp.spec.params.seed}, sigma {inp.spec.params.sigma}, "
            f"tracks {len(inp.ground_truth)}, frames {inp.n_frames}, "
            f"partial {inp.partial_frac:.3f}, blocks {st.blocks}, "
            f"accuracy {st.accuracy:.4f}, labeled {st.n_labeled}"
        )
    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    n_tracks = sum(len(i.ground_truth) for i in inputs)
    if trace:
        synth = {
            "synth.generate_s": generate_s / len(inputs),
            "synth.write_s": write_s / len(inputs),
        }
        metrics = layer_metrics(totals, counts, block_walls, jobs, plain, traced, synth)
        units = LAYER_UNITS
        print(
            f"per-layer metrics ({traced.attempted} traced and "
            f"{plain.attempted} untraced runs):"
        )
    else:
        log = logs[0]
        metrics = {
            "scene_s_p50": statistics.median(log.walls),
            "track_frames_per_s": log.points / sum(log.walls),
            "accuracy": sum(s.accuracy for s in runner.scenes) / len(inputs),
            "labeled_frac": sum(s.n_labeled for s in runner.scenes) / n_tracks,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E_UNITS
        print(f"end-to-end metrics ({log.attempted} scene runs):")
    _print_metrics(metrics, units)
    if not trace:
        q = statistics.quantiles(log.walls, n=4) if len(log.walls) > 1 else log.walls * 3
        print(
            f"  scene wall s: min {min(log.walls):.4g}, quartiles {q[0]:.4g} {q[1]:.4g} "
            f"{q[2]:.4g}, max {max(log.walls):.4g}"
        )
        high = tail(log.walls)
        if high is None:
            print(f"  {'scene_s_tail':34s} omitted: {len(log.walls)} samples, need 11")
        else:
            unit = E2E_EXTRA_UNITS["scene_s_tail"]
            print(
                f"  {'scene_s_tail':34s} {high[0]:.6g} {unit} "
                f"(p{high[1]} of {len(log.walls)} samples)"
            )
    unit = E2E_EXTRA_UNITS["failed_frac"]
    print(f"  {'failed_frac':34s} {failed / attempted:.6g} {unit} ({failed} of {attempted})")
    print(f"  label_digest sha256:{runner.digest()}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return result


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload, each in its own process, one after another."""
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", str(int(trace))]
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    load_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    import_s = time.perf_counter() - _PROCESS_START
    run_workload(workload, args.seed, args.seconds, bool(args.trace), import_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
