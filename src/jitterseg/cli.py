"""Command-line surface: segment, synth, and eval subcommands."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import JittersegError
from .io import parse_labels, parse_trajectories, serialize_labels, serialize_trajectories
from .segmenter import SegmenterParams, check_jobs, segment_store
from .synth import SceneParams, generate_scene, metrics_from_labels

_SEGMENT_DEFAULTS = {
    "omega": 0.02,
    "lambda": 0.2,
    "outer_iters": 3,
    "jacobi_iters": 5,
    "span_threshold": 0.7,
    "min_span_fraction": 0.1,
    "grid": 16,
    "max_block_len": 60,
    "seed": 0,
    "jobs": 1,
    "input": None,
    "output": None,
}

_SYNTH_DEFAULTS = {
    "sigma": None,
    "n_bg": None,
    "n_fg": None,
    "frames": None,
    "seed": 0,
    "out": None,
    "gt": None,
    "width": 640,
    "height": 360,
    "camera_speed": 1.0,
    "object_speed": 2.0,
}

_EVAL_DEFAULTS = {"pred": None, "gt": None}

_KEY_TYPES = {
    "omega": float,
    "lambda": float,
    "span_threshold": float,
    "min_span_fraction": float,
    "sigma": float,
    "camera_speed": float,
    "object_speed": float,
    "outer_iters": int,
    "jacobi_iters": int,
    "grid": int,
    "max_block_len": int,
    "seed": int,
    "jobs": int,
    "n_bg": int,
    "n_fg": int,
    "frames": int,
    "width": int,
    "height": int,
    "input": str,
    "output": str,
    "out": str,
    "gt": str,
    "pred": str,
}


def _coerce(key: str, value, parser: argparse.ArgumentParser):
    """Bring a config-file value to the type its flag would have."""
    target = _KEY_TYPES[key]
    if target is str:
        if not isinstance(value, str):
            parser.error(f"config key '{key}' must be a string")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        parser.error(f"config key '{key}' must be a number")
    if target is int:
        if float(value) != int(value):
            parser.error(f"config key '{key}' must be an integer")
        return int(value)
    return float(value)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jitterseg",
        description="Sparse moving-object segmentation of jittery-video trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seg = sub.add_parser("segment", help="run the sparse segmentation pipeline")
    seg.add_argument("--input", help="trajectory file to segment")
    seg.add_argument("--output", help="label file to write")
    seg.add_argument("--config", help="JSON config with the same keys as the flags")
    seg.add_argument("--omega", type=float, help="affinity bandwidth (default 0.02)")
    seg.add_argument(
        "--lambda",
        type=float,
        dest="lambda",
        help="stabilization weight; 0.2 for low jitter, 0.6 for high (default 0.2)",
    )
    seg.add_argument("--outer-iters", type=int, help="stabilize-and-cluster rounds (default 3)")
    seg.add_argument("--jacobi-iters", type=int, help="smoothing sweeps per round (default 5)")
    seg.add_argument("--span-threshold", type=float, help="late-label coverage (default 0.7)")
    seg.add_argument(
        "--min-span-fraction", type=float, help="spanning fraction per block (default 0.1)"
    )
    seg.add_argument("--grid", type=int, help="representative grid resolution (default 16)")
    seg.add_argument("--max-block-len", type=int, help="frame cap per block (default 60)")
    seg.add_argument("--seed", type=int, help="clustering seed (default 0)")
    seg.add_argument("--jobs", type=int, help="parallel block workers (default 1)")

    syn = sub.add_parser("synth", help="generate a labeled synthetic jittery scene")
    syn.add_argument("--config", help="JSON config with the same keys as the flags")
    syn.add_argument("--sigma", type=float, help="jitter level (0.05/0.15/0.25)")
    syn.add_argument("--n-bg", type=int, help="background trajectory count")
    syn.add_argument("--n-fg", type=int, help="foreground trajectory count")
    syn.add_argument("--frames", type=int, help="frame count")
    syn.add_argument("--seed", type=int, help="scene seed (default 0)")
    syn.add_argument("--out", help="trajectory file to write")
    syn.add_argument("--gt", help="ground-truth label file to write")
    syn.add_argument("--width", type=int, help="frame width (default 640)")
    syn.add_argument("--height", type=int, help="frame height (default 360)")
    syn.add_argument("--camera-speed", type=float, help="px/frame camera drift (default 1)")
    syn.add_argument("--object-speed", type=float, help="px/frame object motion (default 2)")

    ev = sub.add_parser("eval", help="score predicted labels against ground truth")
    ev.add_argument("--config", help="JSON config with the same keys as the flags")
    ev.add_argument("--pred", help="predicted label file")
    ev.add_argument("--gt", help="ground-truth label file")
    return parser


def _merge(args: dict, defaults: dict, parser: argparse.ArgumentParser) -> dict:
    """Apply config-file values under the flags, then the defaults."""
    config = {}
    if args.get("config"):
        try:
            with open(args["config"], "r", encoding="utf-8") as f:
                loaded = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config: {exc}")
        if not isinstance(loaded, dict):
            parser.error("config must be a JSON object")
        config = {str(k).replace("-", "_"): v for k, v in loaded.items()}
        unknown = set(config) - set(defaults)
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
    merged = {}
    for key, default in defaults.items():
        if args.get(key) is not None:
            merged[key] = args[key]
        elif key in config:
            merged[key] = _coerce(key, config[key], parser)
        else:
            if default is None:
                parser.error(f"--{key.replace('_', '-')} is required")
            merged[key] = default
    return merged


def _cmd_segment(opts: dict) -> int:
    try:
        params = SegmenterParams(
            omega=opts["omega"],
            lam=opts["lambda"],
            outer_iters=opts["outer_iters"],
            jacobi_iters=opts["jacobi_iters"],
            span_threshold=opts["span_threshold"],
            min_span_fraction=opts["min_span_fraction"],
            grid_cells=opts["grid"],
            seed=opts["seed"],
            max_block_len=opts["max_block_len"],
        )
        check_jobs(opts["jobs"])
    except JittersegError as exc:
        print(f"jitterseg segment: invalid parameters: {exc}", file=sys.stderr)
        return 2
    stage = "parse"
    try:
        store = parse_trajectories(opts["input"])
        stage = "segment"
        results, fused = segment_store(store, params, jobs=opts["jobs"])
        stage = "write"
        # The embedded record holds every parameter that shapes the output;
        # file paths and worker counts do not, so reruns (serial or
        # parallel) stay byte-identical.
        effective = {
            "command": "segment",
            "omega": params.omega,
            "lambda": params.lam,
            "outer_iters": params.outer_iters,
            "jacobi_iters": params.jacobi_iters,
            "m": params.m,
            "span_threshold": params.span_threshold,
            "min_span_fraction": params.min_span_fraction,
            "grid": params.grid_cells,
            "max_block_len": params.max_block_len,
            "min_block_len": params.min_block_len,
            "seed": params.seed,
        }
        serialize_labels(opts["output"], fused, results, effective)
    except (JittersegError, OSError) as exc:
        print(f"jitterseg segment: {stage} stage failed: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_synth(opts: dict) -> int:
    try:
        params = SceneParams(
            n_bg=opts["n_bg"],
            n_fg=opts["n_fg"],
            n_frames=opts["frames"],
            sigma=opts["sigma"],
            frame_size=(opts["width"], opts["height"]),
            camera_speed=opts["camera_speed"],
            object_speed=opts["object_speed"],
            seed=opts["seed"],
        )
    except JittersegError as exc:
        print(f"jitterseg synth: invalid parameters: {exc}", file=sys.stderr)
        return 2
    stage = "generate"
    try:
        scene = generate_scene(params)
        stage = "write"
        serialize_trajectories(scene.store, opts["out"])
        effective = {
            "command": "synth",
            "sigma": params.sigma,
            "n_bg": params.n_bg,
            "n_fg": params.n_fg,
            "frames": params.n_frames,
            "width": params.frame_size[0],
            "height": params.frame_size[1],
            "camera_speed": params.camera_speed,
            "object_speed": params.object_speed,
            "seed": params.seed,
        }
        serialize_labels(opts["gt"], scene.ground_truth, params=effective)
    except (JittersegError, OSError) as exc:
        print(f"jitterseg synth: {stage} stage failed: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_eval(opts: dict) -> int:
    stage = "parse"
    try:
        pred = parse_labels(opts["pred"])
        truth = parse_labels(opts["gt"])
        stage = "eval"
        metrics = metrics_from_labels(pred.fused, truth.fused)
    except (JittersegError, OSError) as exc:
        print(f"jitterseg eval: {stage} stage failed: {exc}", file=sys.stderr)
        return 1
    record = {
        "accuracy": metrics.accuracy,
        "confusion": [list(row) for row in metrics.confusion],
        "n_labeled": metrics.n_labeled,
        "n_unlabeled": metrics.n_unlabeled,
    }
    print(json.dumps(record))
    return 0


def run_cli(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    command = args["command"]
    try:
        if command == "segment":
            return _cmd_segment(_merge(args, _SEGMENT_DEFAULTS, parser))
        if command == "synth":
            return _cmd_synth(_merge(args, _SYNTH_DEFAULTS, parser))
        return _cmd_eval(_merge(args, _EVAL_DEFAULTS, parser))
    except SystemExit as exc:  # parser.error during config merge
        return exc.code if isinstance(exc.code, int) else 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
