"""Line-delimited JSON file formats for trajectories and labels.

A trajectory file starts with a header record
``{"frames": T, "width": W, "height": H}`` followed by one record per
trajectory ``{"id": i, "start": s, "points": [[x, y], ...]}``.
Coordinates survive a round trip bit-for-bit (shortest-repr floats).

A label file holds an optional ``params`` record (the complete effective
parameter set of the run), one ``block`` record per processed block, and
a final ``fused`` record with the global labels (foreground = 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .errors import BoundsError, DuplicateId, ParseError
from .segmenter import BlockResult, TrajectoryStore
from .shapes import Trajectory


def _dump(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


_NUMBER_TYPES = {int, float}


def _valid_points(pts) -> bool:
    """True when ``pts`` is a list of >= 2 ``[x, y]`` pairs of numbers.

    ``pts`` comes from ``json.loads``, whose values have exact builtin
    types, so ``type`` sets decide it in C: ``bool`` (a subclass of
    ``int``), ``None``, strings, objects and nested lists are rejected.
    """
    return (
        type(pts) is list
        and len(pts) >= 2
        and set(map(type, pts)) == {list}
        and set(map(len, pts)) == {2}
        and set(map(type, chain.from_iterable(pts))) <= _NUMBER_TYPES
    )


def serialize_trajectories(store: TrajectoryStore, path) -> None:
    width, height = store.frame_size
    with open(path, "w", encoding="utf-8") as f:
        f.write(_dump({"frames": store.n_frames_total, "width": width, "height": height}))
        f.write("\n")
        for t in sorted(store.trajectories, key=lambda tr: tr.id):
            rec = {"id": t.id, "start": t.start_frame, "points": t.points.tolist()}
            f.write(_dump(rec))
            f.write("\n")


def parse_trajectories(path) -> TrajectoryStore:
    """Read a trajectory file, validating structure and bounds per record."""
    header = None
    trajectories = []
    seen = set()
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", lineno) from None
            if not isinstance(rec, dict):
                raise ParseError("record is not an object", lineno)
            if header is None:
                header = _parse_header(rec, lineno)
                continue
            trajectories.append(_parse_record(rec, lineno, header, seen))
    if header is None:
        raise ParseError("missing header record", 1)
    frames, width, height = header
    return TrajectoryStore(tuple(trajectories), frames, (width, height))


def _parse_header(rec: dict, lineno: int) -> tuple[int, int, int]:
    for key in ("frames", "width", "height"):
        if key not in rec:
            raise ParseError(f"header missing '{key}'", lineno)
        if not _is_int(rec[key]) or rec[key] <= 0:
            raise ParseError(f"header '{key}' must be a positive integer", lineno)
    return rec["frames"], rec["width"], rec["height"]


def _parse_record(rec: dict, lineno: int, header, seen: set) -> Trajectory:
    frames, width, height = header
    for key in ("id", "start", "points"):
        if key not in rec:
            raise ParseError(f"record missing '{key}'", lineno)
    if not _is_int(rec["id"]) or not _is_int(rec["start"]):
        raise ParseError("'id' and 'start' must be integers", lineno)
    pts = rec["points"]
    if not _valid_points(pts):
        raise ParseError("'points' must be a list of >= 2 [x, y] pairs", lineno)
    tid, start = rec["id"], rec["start"]
    if tid in seen:
        raise DuplicateId(f"line {lineno}: trajectory id {tid} appears twice")
    seen.add(tid)
    if start < 0 or start + len(pts) > frames:
        raise BoundsError(
            f"line {lineno}: trajectory {tid} covers frames outside [0, {frames})"
        )
    try:
        arr = np.fromiter(chain.from_iterable(pts), dtype=float, count=2 * len(pts))
    except OverflowError:
        raise ParseError(
            f"trajectory {tid} has an integer coordinate too large for a float", lineno
        ) from None
    arr = arr.reshape(-1, 2)
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"trajectory {tid} has a non-finite coordinate", lineno)
    if (
        arr[:, 0].min() < 0
        or arr[:, 0].max() > width
        or arr[:, 1].min() < 0
        or arr[:, 1].max() > height
    ):
        raise BoundsError(f"line {lineno}: trajectory {tid} leaves the frame bounds")
    return Trajectory(tid, start, arr)


@dataclass(frozen=True)
class LabelFileData:
    """Parsed contents of a label file."""

    params: dict | None
    blocks: tuple[tuple[tuple[int, int], dict[int, int]], ...]
    fused: dict[int, int]
    foreground_cluster: int = 1


def _labels_record(labels: Mapping[int, int]) -> dict:
    return {str(tid): int(labels[tid]) for tid in sorted(labels)}


def serialize_labels(
    path,
    fused: Mapping[int, int],
    blocks: Sequence[BlockResult] = (),
    params: dict | None = None,
) -> None:
    with open(path, "w", encoding="utf-8") as f:
        if params is not None:
            f.write(_dump({"type": "params", "params": params}))
            f.write("\n")
        for result in blocks:
            rec = {
                "type": "block",
                "range": [result.block.start, result.block.end],
                "labels": _labels_record(result.labels),
            }
            f.write(_dump(rec))
            f.write("\n")
        f.write(
            _dump(
                {
                    "type": "fused",
                    "labels": _labels_record(fused),
                    "foreground_cluster": 1,
                }
            )
        )
        f.write("\n")


def _parse_label_map(obj, lineno: int) -> dict[int, int]:
    if not isinstance(obj, dict):
        raise ParseError("'labels' must be an object", lineno)
    out = {}
    for k, v in obj.items():
        try:
            tid = int(k)
        except ValueError:
            raise ParseError(f"label key {k!r} is not an integer id", lineno) from None
        if not _is_int(v) or v not in (0, 1):
            raise ParseError(f"label for id {k} must be 0 or 1", lineno)
        out[tid] = v
    return out


def parse_labels(path) -> LabelFileData:
    params = None
    blocks = []
    fused = None
    foreground = 1
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", lineno) from None
            if not isinstance(rec, dict) or "type" not in rec:
                raise ParseError("record needs a 'type' field", lineno)
            kind = rec["type"]
            if kind == "params":
                params = rec.get("params")
            elif kind == "block":
                rng = rec.get("range")
                if (
                    not isinstance(rng, list)
                    or len(rng) != 2
                    or not all(_is_int(v) for v in rng)
                ):
                    raise ParseError("'range' must be [start, end]", lineno)
                blocks.append(((rng[0], rng[1]), _parse_label_map(rec.get("labels"), lineno)))
            elif kind == "fused":
                fused = _parse_label_map(rec.get("labels"), lineno)
                foreground = rec.get("foreground_cluster", 1)
            else:
                raise ParseError(f"unknown record type {kind!r}", lineno)
    if fused is None:
        raise ParseError("missing fused record", 1)
    return LabelFileData(params, tuple(blocks), fused, foreground)
