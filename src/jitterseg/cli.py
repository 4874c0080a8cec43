"""Command-line surface: segment, synth, and eval subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing

from .errors import InvalidParameter, JittersegError
from .io import parse_labels, parse_trajectories, serialize_labels, serialize_trajectories
from .io import decode_json
from .segmenter import SegmenterParams, check_at_most, segment_store
from .synth import SceneParams, generate_scene, metrics_from_labels


class _Option(typing.NamedTuple):
    """One option of a subcommand: flag ``--key`` (dashes) and config key ``key``.

    Every option is both, and ``help`` is its flag's help text.
    """

    key: str
    help: str
    type: type = str
    default: object = None  # None: the option is required
    field: str | None = None  # the params field it sets, when not ``key`` itself
    element: int | None = None  # the element it sets of a tuple-valued field


def _from_params(cls, *options: _Option) -> tuple[_Option, ...]:
    """Give every option that sets a field of ``cls`` that field's type and default."""
    hints = typing.get_type_hints(cls)
    defaults = {
        f.name: None if f.default is dataclasses.MISSING else f.default
        for f in dataclasses.fields(cls)
    }
    resolved = []
    for opt in options:
        name = opt.field or opt.key
        if name in defaults:
            kind, default = hints[name], defaults[name]
            if opt.element is not None:
                kind = typing.get_args(kind)[opt.element]
                default = None if default is None else default[opt.element]
            opt = opt._replace(field=name, type=kind, default=default)
        resolved.append(opt)
    return tuple(resolved)


# One table per subcommand, in flag order. The params record embedded in
# the output lists the options that set a params field in the same order.
# Every params field has an option, and every option a flag: a setting
# that no flag or config key reaches is a constant of its module.
_SEGMENT = _from_params(
    SegmenterParams,
    _Option("input", "trajectory file to segment"),
    _Option("output", "label file to write"),
    _Option("omega", "affinity bandwidth"),
    _Option("lambda", "mean-smoothing weight; recorded, no block smooths", field="lam"),
    _Option("span_threshold", "late-label coverage"),
    _Option("min_span_fraction", "spanning fraction per block"),
    _Option("grid", "representative grid resolution", field="grid_cells"),
    _Option("max_block_len", "frame cap per block; up to 2 more to take in a 1- or 2-frame tail"),
    _Option("seed", "recorded; the cut has no seed, so labels ignore it"),
    _Option("jobs", "worker count; checked, but blocks always run on one thread", int, 1),
)
_SYNTH = _from_params(
    SceneParams,
    _Option("sigma", "jitter level (0.05/0.15/0.25)"),
    _Option("n_bg", "background trajectory count"),
    _Option("n_fg", "foreground trajectory count"),
    _Option("frames", "frame count", field="n_frames"),
    _Option("width", "frame width", field="frame_size", element=0),
    _Option("height", "frame height", field="frame_size", element=1),
    _Option("camera_speed", "px/frame camera drift"),
    _Option("object_speed", "px/frame object motion"),
    _Option("seed", "scene seed"),
    _Option("out", "trajectory file to write"),
    _Option("gt", "ground-truth label file to write"),
)
_EVAL = (_Option("pred", "predicted label file"), _Option("gt", "ground-truth label file"))


def _coerce(opt: _Option, value):
    """Bring a config-file value to the type its flag would have."""
    if opt.type is str:
        if not isinstance(value, str):
            _PARSER.error(f"config key '{opt.key}' must be a string")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _PARSER.error(f"config key '{opt.key}' must be a number")
    if opt.type is int:
        if isinstance(value, float) and not value.is_integer():
            _PARSER.error(f"config key '{opt.key}' must be an integer")
        return int(value)
    if abs(value) > sys.float_info.max:
        _PARSER.error(f"config key '{opt.key}' must be a finite number")
    return float(value)


def _merge(args: dict, options: tuple[_Option, ...]) -> dict:
    """Apply config-file values under the flags, then the defaults."""
    config = {}
    if args.get("config") is not None:
        try:
            with open(args["config"], "rb") as f:
                loaded = decode_json(f.read())
        except (OSError, ValueError) as exc:  # a JSON fault is worded as in a record
            _PARSER.error(f"cannot read config: {exc}")
        if not isinstance(loaded, dict):
            _PARSER.error("config must be a JSON object")
        for key, value in loaded.items():
            option = key.replace("-", "_")
            if option in config:
                _PARSER.error(f"config names option '{option}' twice")
            config[option] = value
        if unknown := set(config) - {opt.key for opt in options}:
            _PARSER.error(f"unknown config keys: {sorted(unknown)}")
    merged = {}
    for opt in options:
        if args.get(opt.key) is not None:
            merged[opt.key] = args[opt.key]
        elif opt.key in config:
            merged[opt.key] = _coerce(opt, config[opt.key])
        elif opt.default is None:
            _PARSER.error(f"--{opt.key.replace('_', '-')} is required")
        else:
            merged[opt.key] = opt.default
    return merged


def _params(cls, options: tuple[_Option, ...], values: dict):
    """Build ``cls`` from merged options or a params record, keyed by option key."""
    kwargs: dict = {}
    for opt in options:
        if opt.field is not None:
            value = values[opt.key]
            if opt.element is not None:  # tuple elements come in order
                value = (*kwargs.get(opt.field, ()), value)
            kwargs[opt.field] = value
    return cls(**kwargs)


def _record(command: str, params, options: tuple[_Option, ...]) -> dict:
    """Every params field under its option key, in table order.

    Paths and worker counts do not shape the output, so they stay out.
    """
    record = {"command": command}
    for opt in options:
        if opt.field is not None:
            value = getattr(params, opt.field)
            record[opt.key] = value if opt.element is None else value[opt.element]
    return record


# Each command is a generator that yields the name of every stage it
# enters. An error before the first stage is a usage error (exit 2); one
# inside a stage is a pipeline failure named after that stage (exit 1).
def _segment(opts: dict):
    params = _params(SegmenterParams, _SEGMENT, opts)
    if opts["jobs"] < 1:
        raise InvalidParameter(f"jobs must be >= 1, got {opts['jobs']}")
    check_at_most("jobs", opts["jobs"])
    yield "parse"
    store = parse_trajectories(opts["input"])
    yield "segment"
    results, fused = segment_store(store, params)
    yield "write"
    serialize_labels(opts["output"], fused, results, _record("segment", params, _SEGMENT))


def _synth(opts: dict):
    params = _params(SceneParams, _SYNTH, opts)
    yield "generate"
    scene = generate_scene(params)
    yield "write"
    serialize_trajectories(scene.store, opts["out"])
    serialize_labels(opts["gt"], scene.ground_truth, params=_record("synth", params, _SYNTH))


def _eval(opts: dict):
    yield "parse"
    pred = parse_labels(opts["pred"])
    truth = parse_labels(opts["gt"])
    yield "eval"
    metrics = metrics_from_labels(pred.fused, truth.fused)
    record = {
        "accuracy": metrics.accuracy,
        "confusion": [list(row) for row in metrics.confusion],
        "n_labeled": metrics.n_labeled,
        "n_unlabeled": metrics.n_unlabeled,
    }
    print(json.dumps(record))


_COMMANDS = {
    "segment": ("run the sparse segmentation pipeline", _SEGMENT, _segment),
    "synth": ("generate a labeled synthetic jittery scene", _SYNTH, _synth),
    "eval": ("score predicted labels against ground truth", _EVAL, _eval),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jitterseg",
        description="Sparse moving-object segmentation of jittery-video trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options, _) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=summary)
        cmd.add_argument("--config", help="JSON config with the same keys as the flags")
        for opt in options:
            text = opt.help if opt.default is None else f"{opt.help} (default {opt.default})"
            cmd.add_argument("--" + opt.key.replace("_", "-"), type=opt.type, help=text)
    return parser


_PARSER = _build_parser()


def run_cli(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    try:
        args = vars(_PARSER.parse_args(argv))
        command = args["command"]
        _, options, run = _COMMANDS[command]
        opts = _merge(args, options)
    except SystemExit as exc:  # usage errors, --help
        return exc.code if isinstance(exc.code, int) else 2
    stage = None
    try:
        for stage in run(opts):
            pass
    except (JittersegError, OSError) as exc:
        error = str(exc)
    except MemoryError as exc:  # numpy's names the allocation; Python's own has no text
        error = str(exc) or "not enough memory"
    else:
        return 0
    if stage is None:
        print(f"jitterseg {command}: invalid parameters: {error}", file=sys.stderr)
        return 2
    print(f"jitterseg {command}: {stage} stage failed: {error}", file=sys.stderr)
    return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
