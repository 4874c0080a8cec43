"""Line-delimited JSON file formats for trajectories and labels.

A trajectory file starts with a header record
``{"frames": T, "width": W, "height": H}`` followed by one record per
trajectory ``{"id": i, "start": s, "points": [[x, y], ...]}``.
Coordinates survive a round trip bit-for-bit (shortest-repr floats).
A parsed file becomes a ``TrajectoryStore`` over the columns it was read
into: every point lies once in one float buffer, and the store's one
check validates ids, frame ranges and points for the whole file.

``serialize_trajectories`` writes the compact form: no whitespace, and
every record coordinate in plain decimals, except that one below 1e-4
has an exponent (``1e-05``). Each line is byte for byte what
``json.dumps`` with separators ``(",", ":")`` writes, so every
coordinate has the shortest digits that read back to it, as ``repr``
prints them. The writer finds those digits in bulk, for whole tracks a
chunk at a time, by one descending search over the number of digits in
long double; what it cannot vouch for (coordinates below 1 or near a
rounding tie), and everything where long double is not x87 extended
precision, ``repr`` writes.

A file in the compact form is decoded in bulk, a chunk of lines at a
time, by integer scanning. One exact conversion (``_decimal``) turns
decimal digits into the correctly rounded double, as ``float`` does,
for both directions: the decoder reads each coordinate with it, and the
writer reads its digits back with it to check them. Any other valid
layout (spaces, exponents, integer coordinates, blank lines, CRLF line
ends), and any input that can be read only once, such as a pipe, is
read line by line, which gives the same store, and every fault is
reported by that reader, with the same error and line number. Lines
end at ``\\n`` only; a lone ``\\r`` is whitespace.

A label file holds an optional ``params`` record (the complete effective
parameter set of the run), one ``block`` record per processed block
(its frame range ``[start, end)`` with ``0 <= start < end`` and its
labels), and a final ``fused`` record with the global labels. The fused
record is always written with ``"foreground_cluster":1`` (foreground is
label 1); the reader ignores that key.
"""

from __future__ import annotations

import json
import os
import stat
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .errors import JittersegError, ParseError
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


def _records(path):
    """Yield (line number, JSON value) for each non-blank line of a file.

    Lines end at ``\\n`` only: a lone ``\\r`` is JSON whitespace, and the
    ``\\r`` of a CRLF line end goes when the line is stripped, before it
    is decoded. Undecodable bytes are read as escapes, so a line that is
    not UTF-8 or not JSON is a ``ParseError`` with its number, and so are
    a leading byte-order mark, an integer too long to convert and an
    object that names a key twice (``unique_keys``). One decoder serves
    the whole file.
    """
    decode = json.JSONDecoder(object_pairs_hook=unique_keys).decode
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="\n") as f:
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
            yield lineno, rec


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
    """Write a store as a trajectory file, one record per track in id order.

    Each line is what ``json.dumps`` with separators ``(",", ":")`` writes
    for the record, byte for byte. Whole tracks are formatted together, in
    chunks of at most about ``_CHUNK_POINTS`` points (``_points_text``),
    and each track's text is joined with its head and tail.
    """
    width, height = store.frame_size
    ids, starts, ends = store.frame_spans
    first, lengths = store.point_rows[1], ends - starts
    with open(path, "wb") as f:
        f.write(_dump({"frames": store.n_frames_total, "width": width, "height": height}).encode())
        f.write(b"\n")
        for lo, hi in _chunks(lengths.tolist()):
            n = lengths[lo:hi]
            track_ends = np.cumsum(n)
            # The chunk's rows, track after track: row j of track i is first[i] + j.
            rows = np.repeat(first[lo:hi] - (track_ends - n), n) + np.arange(track_ends[-1])
            text, point_ends = _points_text(store.points[rows])
            # A track's text ends in its last point's ``],[``, which its tail replaces.
            cuts = [0, *point_ends[track_ends - 1].tolist()]
            heads = zip(ids[lo:hi].tolist(), starts[lo:hi].tolist())
            for (tid, start), a, b in zip(heads, cuts, cuts[1:]):
                f.write(f'{{"id":{tid},"start":{start},"points":[['.encode())
                f.write(text[a : b - 3])
                f.write(b"]]}\n")


# The writer formats whole tracks, at most about this many points at a
# time, and the bulk decoder reads whole lines in chunks of about this many
# bytes: a whole file at once would hold several arrays the size of its text.
_CHUNK_POINTS = 1 << 13
_CHUNK_BYTES = 1 << 17


def _chunks(lengths: list[int]):
    """(lo, hi) ranges of tracks, each range's tracks together at most
    ``_CHUNK_POINTS`` points long, or one track when that track is longer."""
    lo = size = 0
    for i, n in enumerate(lengths):
        if size and size + n > _CHUNK_POINTS:
            yield lo, i
            lo, size = i, 0
        size += n
    if size:
        yield lo, len(lengths)


_POW10 = 10 ** np.arange(19, dtype=np.int64)  # 10**0 .. 10**18
# Exact in both: 10**k is 5**k times a power of two, and 5**18 < 2**53.
_POW10_FLOAT, _POW10_LONG = _POW10.astype(np.float64), _POW10.astype(np.longdouble)
# The four digits of 0..9999 in ASCII, each entry read as one 4-byte word.
_QUADS = np.frombuffer(b"0123456789", dtype=np.uint8)
_QUADS = np.stack(np.meshgrid(*[_QUADS] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()
# Row m keeps the last m of 16 bytes and blanks the rest to NUL, as two 8-byte words.
_LAST = np.array([bytes(16 - m) + b"\xff" * m for m in range(17)]).view(np.uint64).reshape(17, 2)


def _decimal(digits: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The correctly rounded double of each ``digits / 10**k``, for int64
    ``digits >= 0`` and ``0 <= k <= 18``.

    This is the one conversion of decimal digits to doubles: the bulk
    decoder reads coordinates with it and the writer checks its digits
    with it. Below ``2**53`` the digits and ``10**k`` are exact doubles,
    so one double division rounds correctly (Clinger's fast path, which
    holds up to ``10**22``). Larger digits are divided in long double,
    where both are exact and the quotient is rounded once, to 64 bits;
    that rounded to double is the correctly rounded double unless it lies
    halfway between two doubles. A midpoint lies half their gap from the
    rounded value, or a quarter of ``np.spacing`` below a power of two, a
    distance that is a power of two and that the cast to double keeps
    exactly. Those quotients, and the few that are only near a midpoint
    and flagged with them, are converted by ``float``.
    """
    values = digits / _POW10_FLOAT.take(k)
    big = np.flatnonzero(digits >= 2**53)
    exact = digits[big].astype(np.longdouble) / _POW10_LONG.take(k[big])
    rounded = values[big] = exact.astype(np.float64)
    off = np.abs((exact - rounded).astype(np.float64)) / np.spacing(rounded)
    tie = big[(off == 0.5) | (off == 0.25)]
    values[tie] = [float(f"{d}e-{n}") for d, n in zip(digits[tie].tolist(), k[tie].tolist())]
    return values


def _last_digits(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The last ``m`` of the 16 decimal digits of each int64 in [0, 10**16), as
    ASCII right-aligned in 16 bytes, leading zeros kept; the other bytes are NUL."""
    quads = np.empty((len(v), 4), dtype=np.int64)
    high, low = np.divmod(v, 10**8)
    np.divmod(high, 10**4, out=(quads[:, 0], quads[:, 1]))
    np.divmod(low, 10**4, out=(quads[:, 2], quads[:, 3]))
    words = _QUADS.take(quads).view(np.uint64) & _LAST.take(m, axis=0)
    return words.view(np.uint8)


def _shortest_digits(x: np.ndarray):
    """The shortest round-trip digits of each double, where they can be vouched for.

    ``x`` holds doubles in [1, 10**15). The decimals that read back to
    such a double lie within half a unit in its last place on either
    side, so if any decimal of ``p`` significant digits reads back, the
    nearest one does (``_nearest``), and so does the nearest of ``p + 1``
    digits. (Below a power of two the interval is half as wide, but such
    an ``x`` is a whole number below 2**50: its own digits read back, and
    its interval, narrower than 1, holds no shorter decimal.) The
    shortest digits, which ``repr`` writes, are those of the least ``p``
    that reads back (Steele and White). Every ``x`` tries 16 digits; one
    that does not read back takes 17, which always read back, and one
    that does tries 15, 14 and so on down to ``e``, its number of integer
    digits, until a ``p`` does not read back. Digits read back as the
    bulk decoder reads them, by ``_decimal``, which rounds correctly, so
    the decoder and ``float`` read the written text as ``x``.

    Returns the digits ``D`` (int64), the number of integer digits ``e``
    and the number of fraction digits ``k``, so that the decimal is
    ``D / 10**k``, and whether the digits are vouched for. They are not
    where ``_nearest`` is unsure of its product for any ``p`` tried.
    """
    e = np.searchsorted(_POW10_FLOAT[1:16], x, side="right") + 1
    xl = x.astype(np.longdouble)
    digits, reads, unsure = _nearest(x, xl, e, 16)
    n_digits = np.full(len(x), 16)
    vouched = ~unsure
    longer = np.flatnonzero(~reads)
    d, reads_17, unsure = _nearest(x[longer], xl[longer], e[longer], 17)
    digits[longer], n_digits[longer] = d, 17
    vouched[longer] &= reads_17 & ~unsure
    rows, p = np.flatnonzero(reads), 15
    while len(rows := rows[e[rows] <= p]):
        d, shorter, unsure = _nearest(x[rows], xl[rows], e[rows], p)
        vouched[rows] &= ~unsure
        rows = rows[shorter]
        digits[rows], n_digits[rows] = d[shorter], p
        p -= 1
    # Digits that are not vouched for go unused; they are zeroed.
    digits = np.where(vouched, digits, 0)
    return digits, e, n_digits - e, vouched


def _nearest(x: np.ndarray, xl: np.ndarray, e: np.ndarray, p: int):
    """The nearest ``p``-digit decimal to each ``x``, whether it reads back, and if that is unsure.

    ``xl`` is ``x`` in long double and ``e`` its number of integer digits,
    at most ``p``. The decimal is ``D / 10**k`` with ``k = p - e``, and
    ``D`` the integer nearest ``x * 10**k``, found in long double. The
    product is then within its own ``2**-64`` of the exact one, so ``D``
    is right unless the product lies within its ``2**-62`` of a half;
    that is flagged as unsure. ``D`` reads back when ``_decimal``, the
    conversion the bulk decoder reads it with, gives ``x`` for it.
    """
    k = p - e
    scaled = xl * _POW10_LONG.take(k)
    d = np.rint(scaled)
    # ``scaled - d`` is exact; doubles suffice to compare it with the margin.
    unsure = np.abs((scaled - d).astype(np.float64)) >= 0.5 - scaled.astype(np.float64) * 2.0**-62
    d = d.astype(np.int64)
    reads = _decimal(d, k) == x
    return d, reads, unsure


def _points_text(points: np.ndarray) -> tuple[memoryview, np.ndarray]:
    """The text ``X,Y],[`` of each (M, 2) point, run together, and where each point's text ends.

    Each coordinate is written as ``repr`` writes it, in its shortest
    round-trip digits. A coordinate that ``_shortest_digits`` vouches for
    is laid out from its digits in a row of 33 bytes, 16 for the integer
    part, the dot and 16 for the fraction, and every other one is copied
    from ``repr``. Bytes that hold no character are NUL, so one mask
    flattens the rows.
    """
    x = points.ravel()
    # Coordinates below 1 (``repr`` may write an exponent there) and at or
    # above 10**15 go to ``repr``, and so does every coordinate where long
    # double cannot check the digits.
    rows = np.flatnonzero((x >= 1) & (x < 1e15) & _EXACT_DIVISION)
    digits = np.zeros(len(x), dtype=np.int64)
    e, k, bulk = np.ones_like(digits), np.zeros_like(digits), np.zeros(len(x), dtype=bool)
    digits[rows], e[rows], k[rows], bulk[rows] = _shortest_digits(x[rows])
    whole = digits // _POW10[k]
    # A whole number keeps one fraction digit, its ``.0``.
    shown = np.maximum(k, 1)
    cells = np.empty((len(x), 36), dtype=np.uint8)
    cells[:, :16] = _last_digits(whole, e)
    cells[:, 16] = ord(".")
    cells[:, 17:33] = _last_digits(digits - whole * _POW10[k], shown)
    cells[0::2, 33:] = np.frombuffer(b",\0\0", dtype=np.uint8)
    cells[1::2, 33:] = np.frombuffer(b"],[", dtype=np.uint8)
    lengths = e + 1 + shown
    rest = np.flatnonzero(~bulk)
    texts = list(map(repr, x[rest].tolist()))
    cells[rest, :33] = np.array(texts, dtype="S33").view(np.uint8).reshape(-1, 33)
    lengths[rest] = list(map(len, texts))
    point_ends = np.cumsum(lengths[0::2] + lengths[1::2] + 4)
    return memoryview(cells[cells != 0]), point_ends


def parse_trajectories(path) -> TrajectoryStore:
    """Read a trajectory file into a store.

    A file in the compact form that ``serialize_trajectories`` writes is
    decoded in bulk (``_decode_compact``); any other file, and any file
    with a fault, is read line by line (``_parse_lines``), which gives the
    same store and is the one source of errors and their line numbers.
    """
    store = _decode_compact(path)
    return _parse_lines(path) if store is None else store


def _parse_lines(path) -> TrajectoryStore:
    """Read a trajectory file one line at a time.

    Each record's structure (JSON, keys named once, integer types, point
    lists) is checked as it is read. Its id, start frame and line number
    are appended to integer columns and its points to one float64 buffer;
    the JSON objects are dropped at once. The store adopts the columns as
    they are, with the line numbers, and its one check, run as it is
    built, covers ids, frame ranges, finiteness and frame bounds over all
    of them at once and names the line of the first faulty track. The
    store is built, and so checked, before a structural fault that
    stopped the read is raised, so every error is the first faulty
    record's in file order.
    """
    header = None
    coords = array("d")
    ids, starts, lines = array("q"), array("q"), array("q")  # per trajectory
    bounds = array("q", [0])  # track i owns buffer rows bounds[i]:bounds[i + 1]
    fault = None
    try:
        for lineno, rec in _records(path):
            if type(rec) is not dict:
                raise ParseError("record is not an object", lineno)
            if header is None:
                header = _parse_header(rec, lineno)
                continue
            tid, start, overflow = _parse_record(rec, lineno, coords)
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
    store = TrajectoryStore._of_columns(*columns, rows, frames, (width, height), lines)
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


def _parse_record(rec: dict, lineno: int, coords: array) -> tuple[int, int, bool]:
    """Check one trajectory record's structure and append its points to ``coords``.

    Returns (id, start, overflow). ``overflow`` says that a coordinate is
    an integer too large for a float; the record's rows are then zeros,
    which break no store rule, so that its id and frame range are still
    checked before the overflow is reported. Ids, frame ranges,
    finiteness and frame bounds are left to the store's check.
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
    if not _valid_points(pts):
        raise ParseError(_POINTS_MESSAGE, lineno)
    try:
        coords.fromlist(list(chain.from_iterable(pts)))
    except OverflowError:  # an int too large for a float; the array is as it was
        coords.frombytes(bytes(16 * len(pts)))
        return tid, start, True
    return tid, start, False


# The bulk decoder divides in long double and rounds the quotient to a
# double. That gives the correctly rounded double, once the quotients that
# fall on a midpoint between two doubles are redone, when long double
# division rounds correctly to at least 64 bits. It is used where long
# double is x87 extended precision (63 stored fraction bits), the platform
# it was measured on. IEEE quad (112) would round correctly too, but is
# emulated in software where it is found, and was never measured; there,
# and where long double is a double (52) or a pair of doubles (105),
# every file is read line by line.
_EXACT_DIVISION = np.finfo(np.longdouble).nmant == 63

_DIGITS = b"0123456789"
# Every byte but a digit becomes a space, the separator np.fromstring reads.
_DIGITS_ONLY = bytes(c if c in _DIGITS else ord(" ") for c in range(256))
# A record line without its digits: the head, one ``[x,y],`` per point
# but the last, and the last point with the line's end.
_HEAD, _POINT, _TAIL = b'{"id":,"start":,"points":[', b"[.,.],", b"[.,.]]}\n"


def _decode_compact(path) -> TrajectoryStore | None:
    """The store of a compact trajectory file, or None when it cannot vouch for one.

    The compact form is what ``serialize_trajectories`` writes: a header
    line, then lines ``{"id":I,"start":S,"points":[[X,Y],...]}`` whose
    numbers are plain digits, each coordinate with one dot. Such a file is
    read in chunks of whole lines (``_decode_chunk``) straight into the
    store's columns. Anything else (whitespace, signs, exponents, blank
    lines, CRLF line ends, non-ASCII bytes, a header that is not valid,
    tokens of more than 18 digits) gives None, and so does a store whose
    check raises as it is built; the file is then read line by line, and
    that reader reports the fault with its line. The writer puts an
    exponent in a coordinate below 1e-4 (``1e-05``), so a file that
    holds one is read line by line too.

    Only a regular file is decoded: a pipe, a FIFO or ``/dev/stdin`` can
    be read only once, so it is left unopened for the line-by-line reader.
    The points buffer is sized from the file, 16 bytes of address space
    per 10 bytes of text, while the file is read; it is then cut down to
    the points read, so that the store holds no more than it uses.
    """
    if not _EXACT_DIVISION:
        return None
    try:
        info = os.stat(path)
    except OSError:  # the line-by-line reader reports it
        return None
    if not stat.S_ISREG(info.st_mode):
        return None
    with open(path, "rb") as f:
        header = _compact_header(f.readline())
        if header is None:
            return None
        frames, width, height = header
        # Each point takes at least 10 bytes, as ``[0.0,0.0],``.
        rows = np.empty((info.st_size // 10, 2))
        n_rows = 0
        ids, starts, counts = [], [], []
        while chunk := f.read(_CHUNK_BYTES):
            chunk += f.readline()  # the rest of the last line
            part = _decode_chunk(chunk if chunk.endswith(b"\n") else chunk + b"\n")
            if part is None:
                return None
            tids, firsts, n_points, points = part
            if n_rows + len(points) > len(rows):  # the file grew while it was read
                return None
            ids.append(tids)
            starts.append(firsts)
            counts.append(n_points)
            rows[n_rows : n_rows + len(points)] = points
            n_rows += len(points)
    rows.resize((n_rows, 2), refcheck=False)  # in place; no view of ``rows`` is alive
    none = np.empty(0, dtype=np.int64)  # keeps the columns int64 when there is no track
    try:
        return TrajectoryStore._of_columns(
            np.concatenate([none, *ids]),
            np.concatenate([none, *starts]),
            np.cumsum(np.concatenate([none, [0], *counts])),
            rows,
            frames,
            (width, height),
        )
    except JittersegError:  # a store fault, which the line-by-line reader reports
        return None


def _compact_header(line: bytes) -> tuple[int, int, int] | None:
    """The header of the first line, or None when it is not a valid ASCII header."""
    try:
        text = line.decode("ascii")
        rec = json.loads(text, object_pairs_hook=unique_keys)
        if type(rec) is not dict:
            return None
        return _parse_header(rec, 1)
    except (ValueError, RecursionError, ParseError):
        return None


def _decode_chunk(chunk: bytes):
    """(ids, starts, point counts, (M, 2) points) of compact record lines, or None.

    ``chunk`` holds whole lines, each ending in a newline. With its digits
    deleted it must be the records' skeleton, so every other byte is where
    the compact form puts it and every record has at least two points.
    No slot for a number may be empty: no colon is followed by a comma and
    every dot stands between two digits. Each dot becomes `` 1``, so that
    a coordinate ``I.F`` reads as the two integers ``I`` and ``10**k + F``
    (``F`` has ``k`` digits, its leading zeros kept), and one
    ``np.fromstring`` reads every integer of the chunk. There must be one
    per slot, so no digit stands outside one, and the digits they account
    for must be the chunk's digits, which rejects a leading zero and a
    token too large for 64 bits (``np.fromstring`` clamps it). Ids, starts
    and integer parts have at most 18 digits, and a coordinate at most 18
    digits in all, so that its digits ``M = I * 10**k + F`` fit in 64 bits.

    The coordinate is the correctly rounded double of ``M / 10**k``
    (``_decimal``, which the writer checks its digits with too), and ``k``
    reaches 18 for ``0.`` and 18 fraction digits.
    """
    skeleton = chunk.translate(None, _DIGITS)
    two_points = len(_HEAD + _POINT + _TAIL) - 1  # a line of two points, without its newline
    counts = [(len(line) - two_points) // len(_POINT) + 2 for line in skeleton.split(b"\n")[:-1]]
    if min(counts) < 2 or skeleton != b"".join(_HEAD + _POINT * (n - 1) + _TAIL for n in counts):
        return None
    raw = np.frombuffer(chunk, dtype=np.uint8)
    dots, colons = np.flatnonzero(raw == ord(".")), np.flatnonzero(raw == ord(":"))
    beside_dots = np.concatenate([raw[dots - 1], raw[dots + 1]])
    # Bytes below "0" wrap around to large values.
    if (beside_dots - ord("0") >= 10).any() or (raw[colons + 1] == ord(",")).any():
        return None
    n_points = sum(counts)
    tokens = np.fromstring(chunk.replace(b".", b" 1").translate(_DIGITS_ONLY), np.int64, sep=" ")
    if len(tokens) != 2 * len(counts) + 4 * n_points:
        return None
    digits = np.searchsorted(_POW10[1:], tokens, side="right") + 1
    if digits.sum() != len(chunk) - len(skeleton) + 2 * n_points:
        return None
    counts = np.array(counts, dtype=np.int64)
    heads = np.cumsum(4 * counts + 2) - (4 * counts + 2)
    in_points = np.ones(len(tokens), dtype=bool)
    in_points[heads] = in_points[heads + 1] = False
    whole, frac = tokens[in_points].reshape(-1, 2).T
    k = digits[in_points][1::2] - 1
    if (digits[~in_points] > 18).any() or (whole >= _POW10[18 - k]).any():
        return None
    scale = _POW10[k]
    values = _decimal(whole * scale + (frac - scale), k)
    return tokens[heads], tokens[heads + 1], counts, values.reshape(-1, 2)


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
    for lineno, rec in _records(path):
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
