"""Line-delimited JSON file formats for trajectories and labels.

A trajectory file starts with a header record
``{"frames": T, "width": W, "height": H}`` followed by one record per
trajectory ``{"id": i, "start": s, "points": [[x, y], ...]}``.
Coordinates survive a round trip bit-for-bit (shortest-repr floats).
A parsed file becomes a ``TrajectoryStore`` over the columns it was read
into: every point lies once in one float buffer, and the store's one
check validates ids, frame ranges and points for the whole file.

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


def _dump(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


class DuplicateKey(ValueError):
    """A JSON object names one key twice."""


# What a reader reports for text that starts with U+FEFF, the byte-order
# mark some editors put at the head of a UTF-8 file.
BOM_MESSAGE = "unexpected UTF-8 byte-order mark"


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``json`` object pairs hook: the object as a dict, ``DuplicateKey`` on a repeat."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DuplicateKey(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def _records(path, object_pairs_hook=None):
    """Yield (line number, line, JSON value) for each non-blank line of a file.

    The line is yielded stripped. Undecodable bytes are read as escapes,
    so a line that is not UTF-8 or not JSON is a ``ParseError`` with its
    number, and so are a leading byte-order mark, an integer too long to
    convert and a ``DuplicateKey`` from ``object_pairs_hook``. One decoder
    serves the whole file.
    """
    decode = json.JSONDecoder(object_pairs_hook=object_pairs_hook).decode
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
                if line[0] == "\ufeff":
                    raise ParseError(BOM_MESSAGE, lineno)
            try:
                rec = decode(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", lineno) from None
            except DuplicateKey as exc:
                raise ParseError(str(exc), lineno) from None
            except ValueError:  # an integer past Python's str-to-int digit limit
                raise ParseError("invalid JSON (integer too long)", lineno) from None
            except RecursionError:
                raise ParseError("invalid JSON (nested too deeply)", lineno) from None
            yield lineno, line, rec


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


_NUMBER_TYPES = {int, float}
_POINTS_MESSAGE = "'points' must be a list of >= 2 [x, y] pairs"


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
    """Write a store as a trajectory file, one record per track in id order."""
    width, height = store.frame_size
    ids, starts, ends = store.frame_spans
    first = store.point_rows[1]
    tracks = zip(ids.tolist(), starts.tolist(), first.tolist(), (first + ends - starts).tolist())
    with open(path, "w", encoding="utf-8") as f:
        f.write(_dump({"frames": store.n_frames_total, "width": width, "height": height}))
        f.write("\n")
        for tid, start, lo, hi in tracks:
            rec = {"id": tid, "start": start, "points": store.points[lo:hi].tolist()}
            f.write(_dump(rec))
            f.write("\n")


def parse_trajectories(path) -> TrajectoryStore:
    """Read a trajectory file into a store.

    Records are read one line at a time and their structure (JSON, keys
    named once, integer types, point lists) is checked as they are read.
    Each record's id, start frame and line number are appended to integer
    columns and its points to one float64 buffer; the JSON objects are
    dropped at once. The store adopts the columns as they are and its one
    check (``TrajectoryStore.first_fault``) covers ids, frame ranges,
    finiteness and frame bounds over all of them at once. Whichever check
    fails, the error is raised for the first faulty record in file order,
    with its line number.
    """
    header = None
    coords = array("d")
    ids, starts, lines = array("q"), array("q"), array("q")  # per trajectory
    bounds = array("q", [0])  # track i owns buffer rows bounds[i]:bounds[i + 1]
    fault = None
    try:
        for lineno, line, rec in _records(path, unique_keys):
            if type(rec) is not dict:
                raise ParseError("record is not an object", lineno)
            if header is None:
                header = _parse_header(rec, lineno)
                continue
            tid, start, overflow = _parse_record(rec, lineno, line, coords)
            ids.append(tid)
            # Every start outside [0, frames] breaks the frame rule, and
            # clamped to [-1, frames] it still does and fits in 64 bits.
            starts.append(min(max(start, -1), header[0]))
            lines.append(lineno)
            bounds.append(len(coords) // 2)
            if overflow:
                raise ParseError(
                    f"trajectory {tid} has an integer coordinate too large for a float", lineno
                )
    except JittersegError as exc:
        fault = exc
    if header is None:
        raise fault or ParseError("missing header record", 1)
    frames, width, height = header
    # Rows past the last complete record belong to a record that failed.
    rows = np.frombuffer(coords, dtype=float)[: 2 * bounds[-1]].reshape(-1, 2)
    columns = (np.frombuffer(c, dtype=np.int64) for c in (ids, starts, bounds))
    store = TrajectoryStore._of_columns(*columns, rows, frames, (width, height))
    broken = store.first_fault()
    if broken is not None:
        line, tid = lines[broken[0]], ids[broken[0]]
        raise {
            "duplicate": DuplicateId(f"line {line}: trajectory id {tid} appears twice"),
            "frames": BoundsError(
                f"line {line}: trajectory {tid} covers frames outside [0, {frames})"
            ),
            "non-finite": ParseError(f"trajectory {tid} has a non-finite coordinate", line),
            "outside": BoundsError(f"line {line}: trajectory {tid} leaves the frame bounds"),
        }[broken[1]]
    if fault is not None:
        raise fault
    return store


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


def _parse_record(rec: dict, lineno: int, line: str, coords: array) -> tuple[int, int, bool]:
    """Check one trajectory record's structure and append its points to ``coords``.

    Returns (id, start, overflow). ``overflow`` says that a coordinate is
    an integer too large for a float; the record's rows are then zeros,
    which break no store rule, so that its id and frame range are still
    checked before the overflow is reported. Ids, frame ranges,
    finiteness and frame bounds are left to the store's check.

    The points are not checked value by value before they are appended.
    ``array.fromlist`` takes only ints and floats, and leaves the array
    as it was when it refuses a value. Once it has taken every value of
    ``pts``, each item of ``pts`` was a list of numbers (anything else
    yields a non-number or nothing), so their lengths finish the check.
    The one non-number it would take is a bool, and a record holds one
    only when its line holds ``true`` or ``false``, so only when it holds
    a ``u`` or an ``l``: no number or required key has either letter. A
    line that does gets the full ``_valid_points`` first, and so does a
    record whose values ``fromlist`` refuses; each fault thus gets the
    error, and the precedence, of a check made before any point is taken.
    Points taken for a record that then fails lie past the last track's
    rows and are never read.
    """
    if not ("id" in rec and "start" in rec and "points" in rec):
        key = next(k for k in ("id", "start", "points") if k not in rec)
        raise ParseError(f"record missing '{key}'", lineno)
    tid, start, pts = rec["id"], rec["start"], rec["points"]
    if not (_is_int(tid) and _is_int(start)):
        raise ParseError("'id' and 'start' must be integers", lineno)
    # The store keeps ids as int64.
    if not -(2**63) <= tid < 2**63:
        raise ParseError("'id' must fit in a 64-bit integer", lineno)
    if (
        type(pts) is not list
        or len(pts) < 2
        or (("u" in line or "l" in line) and not _valid_points(pts))
    ):
        raise ParseError(_POINTS_MESSAGE, lineno)
    try:
        coords.fromlist(list(chain.from_iterable(pts)))
    except (TypeError, OverflowError):
        if not _valid_points(pts):
            raise ParseError(_POINTS_MESSAGE, lineno) from None
        # The values are numbers: an int too large for a float.
        coords.frombytes(bytes(16 * len(pts)))
        return tid, start, True
    if set(map(len, pts)) != {2}:
        raise ParseError(_POINTS_MESSAGE, lineno)
    return tid, start, False


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
    for lineno, _, rec in _records(path, unique_keys):
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
