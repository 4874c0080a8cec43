"""Line-delimited JSON file formats for trajectories and labels.

A trajectory file starts with a header record
``{"frames": T, "width": W, "height": H}`` followed by one record per
trajectory ``{"id": i, "start": s, "points": [[x, y], ...]}``.
Coordinates survive a round trip bit-for-bit (shortest-repr floats).

A label file holds an optional ``params`` record (the complete effective
parameter set of the run), one ``block`` record per processed block
(its frame range ``[start, end)`` with ``0 <= start < end`` and its
labels), and a final ``fused`` record with the global labels. The fused
record is always written with ``"foreground_cluster":1`` (foreground is
label 1); the reader ignores that key.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .errors import BoundsError, DuplicateId, JittersegError, ParseError
from .segmenter import MAX_INT_PARAM, BlockResult, TrajectoryStore
from .shapes import Trajectory


def _dump(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


class DuplicateKey(ValueError):
    """A JSON object names one key twice."""


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``json`` object pairs hook: the object as a dict, ``DuplicateKey`` on a repeat."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DuplicateKey(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _records(path, object_pairs_hook=None):
    """Yield (line number, JSON value) for each non-blank line of a file.

    Undecodable bytes are read as escapes, so a line that is not UTF-8 or
    not JSON is a ``ParseError`` with its number, and so are an integer
    too long to convert and a ``DuplicateKey`` from ``object_pairs_hook``.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError("not UTF-8 text", lineno) from None
            try:
                rec = json.loads(line, object_pairs_hook=object_pairs_hook)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", lineno) from None
            except DuplicateKey as exc:
                raise ParseError(str(exc), lineno) from None
            except ValueError:  # an integer past Python's str-to-int digit limit
                raise ParseError("invalid JSON (integer too long)", lineno) from None
            except RecursionError:
                raise ParseError("invalid JSON (nested too deeply)", lineno) from None
            yield lineno, rec


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
    """Read a trajectory file into a store.

    Records are read one line at a time. Their structure (JSON, keys
    named once, integer types, point lists), ids and frame ranges are
    checked as they are read, and their points are appended to one
    float64 buffer; the JSON objects are dropped at once. Finiteness and
    the frame bounds are checked once over the whole buffer. Whichever
    check fails, the error is raised for the first faulty record in file
    order, with its line number. The trajectories are read-only row views
    of the buffer.
    """
    header = None
    coords = array("d")
    tracks: list[tuple[int, int, int]] = []  # (line, id, start) per trajectory
    bounds = [0]  # track i owns buffer rows bounds[i]:bounds[i + 1]
    seen: set[int] = set()
    fault = None
    try:
        for lineno, rec in _records(path, unique_keys):
            if not isinstance(rec, dict):
                raise ParseError("record is not an object", lineno)
            if header is None:
                header = _parse_header(rec, lineno)
                continue
            tracks.append(_parse_record(rec, lineno, header, seen, coords))
            bounds.append(len(coords) // 2)
    except JittersegError as exc:
        fault = exc
    if header is None:
        raise fault or ParseError("missing header record", 1)
    frames, width, height = header
    # Rows past the last complete record belong to a record that failed.
    rows = np.frombuffer(coords, dtype=float)[: 2 * bounds[-1]].reshape(-1, 2)
    rows.flags.writeable = False
    _check_rows(rows, tracks, bounds, width, height)
    if fault is not None:
        raise fault
    ids = [tid for _, tid, _ in tracks]
    starts = [start for _, _, start in tracks]
    trajectories = Trajectory.from_rows(ids, starts, rows, bounds)
    return TrajectoryStore(trajectories, frames, (width, height))


def _parse_header(rec: dict, lineno: int) -> tuple[int, int, int]:
    for key in ("frames", "width", "height"):
        if key not in rec:
            raise ParseError(f"header missing '{key}'", lineno)
        if not _is_int(rec[key]) or rec[key] <= 0:
            raise ParseError(f"header '{key}' must be a positive integer", lineno)
        if rec[key] > MAX_INT_PARAM:
            raise ParseError(f"header '{key}' must be <= {MAX_INT_PARAM}", lineno)
    if rec["frames"] < 2:
        raise ParseError("header 'frames' must be >= 2", lineno)
    return rec["frames"], rec["width"], rec["height"]


def _parse_record(rec: dict, lineno: int, header, seen: set, coords: array):
    """Check one trajectory record and append its points to ``coords``.

    Returns (line, id, start). Finiteness and frame bounds of the points
    are left to ``_check_rows``.
    """
    frames = header[0]
    for key in ("id", "start", "points"):
        if key not in rec:
            raise ParseError(f"record missing '{key}'", lineno)
    if not _is_int(rec["id"]) or not _is_int(rec["start"]):
        raise ParseError("'id' and 'start' must be integers", lineno)
    # The store keeps ids as int64. ('start' past the header's frames is a
    # BoundsError below.)
    if not -(2**63) <= rec["id"] < 2**63:
        raise ParseError("'id' must fit in a 64-bit integer", lineno)
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
        coords.extend(chain.from_iterable(pts))
    except OverflowError:
        raise ParseError(
            f"trajectory {tid} has an integer coordinate too large for a float", lineno
        ) from None
    return lineno, tid, start


def _check_rows(rows: np.ndarray, tracks, bounds, width: int, height: int) -> None:
    """Raise for the first track with a non-finite or out-of-frame point.

    One pass over all rows: a NaN or infinite coordinate also fails the
    frame test, and within the first failing track a non-finite
    coordinate is reported before an out-of-frame one.
    """
    x, y = rows[:, 0], rows[:, 1]
    inside = (x >= 0) & (x <= width) & (y >= 0) & (y <= height)
    if inside.all():
        return
    i = int(np.searchsorted(bounds, np.argmin(inside), side="right")) - 1
    lineno, tid, _ = tracks[i]
    if not np.isfinite(rows[bounds[i] : bounds[i + 1]]).all():
        raise ParseError(f"trajectory {tid} has a non-finite coordinate", lineno)
    raise BoundsError(f"line {lineno}: trajectory {tid} leaves the frame bounds")


@dataclass(frozen=True)
class LabelFileData:
    """Parsed contents of a label file."""

    params: dict | None
    blocks: tuple[tuple[tuple[int, int], dict[int, int]], ...]
    fused: dict[int, int]


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


def _clip(key: str) -> str:
    """A label key as an error shows it: whole up to 23 characters, else 20 and '...'."""
    return key if len(key) <= 23 else key[:20] + "..."


def _parse_label_map(obj, lineno: int) -> dict[int, int]:
    if not isinstance(obj, dict):
        raise ParseError("'labels' must be an object", lineno)
    out = {}
    for k, v in obj.items():
        try:
            tid = int(k)
        except ValueError:
            tid = None
        # One id, one spelling: "07", " 7" or "7_0" would alias another key.
        if tid is None or str(tid) != k:
            raise ParseError(f"label key {_clip(k)!r} is not a canonical integer id", lineno)
        if not _is_int(v) or v not in (0, 1):
            raise ParseError(f"label for id {_clip(k)} must be 0 or 1", lineno)
        out[tid] = v
    return out


def parse_labels(path) -> LabelFileData:
    """Read a label file; ``ParseError`` with the line for a contradictory one.

    At most one ``params`` record (a JSON object) and exactly one
    ``fused`` record; block ranges tile the frames from 0 in order; no
    object repeats a key, and each label key is an id spelled as ``str``
    spells it, so no two keys name one id.
    """
    params = None
    blocks = []
    fused = None
    edge = 0
    for lineno, rec in _records(path, unique_keys):
        if not isinstance(rec, dict) or "type" not in rec:
            raise ParseError("record needs a 'type' field", lineno)
        kind = rec["type"]
        if (kind == "params" and params is not None) or (kind == "fused" and fused is not None):
            raise ParseError(f"second {kind!r} record", lineno)
        if kind == "params":
            params = rec.get("params")
            if not isinstance(params, dict):
                raise ParseError("'params' must be an object", lineno)
        elif kind == "block":
            rng = rec.get("range")
            if (
                not isinstance(rng, list)
                or len(rng) != 2
                or not all(_is_int(v) for v in rng)
            ):
                raise ParseError("'range' must be [start, end]", lineno)
            if not 0 <= rng[0] < rng[1]:
                raise ParseError("'range' must satisfy 0 <= start < end", lineno)
            if rng[0] != edge:
                raise ParseError(f"block ranges must tile from 0; expected start {edge}", lineno)
            edge = rng[1]
            blocks.append(((rng[0], rng[1]), _parse_label_map(rec.get("labels"), lineno)))
        elif kind == "fused":
            fused = _parse_label_map(rec.get("labels"), lineno)
        else:
            raise ParseError(f"unknown record type {kind!r}", lineno)
    if fused is None:
        raise ParseError("missing fused record", 1)
    return LabelFileData(params, tuple(blocks), fused)
