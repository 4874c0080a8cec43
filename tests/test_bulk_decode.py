"""The bulk decoder of compact trajectory files, against the line-by-line reader.

``io._decode_compact`` reads a file in the compact form that
``serialize_trajectories`` writes, or declines it. ``io._parse_lines``
reads any valid file and reports every fault; it is the oracle here. On
written files and on byte-mutated copies of them, the decoder must
either decline or return the same columns, with bit-identical points.
Decimals at and next to the midpoint between two doubles check the
decoder's rounding against ``float``. ``test_probe_off`` runs the golden
digests and the round trip without the decoder.
"""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitterseg import Trajectory, TrajectoryStore, io, parse_trajectories, serialize_trajectories
from jitterseg.errors import JittersegError
from jitterseg.segmenter import MAX_INT_PARAM

pytestmark = pytest.mark.skipif(
    not io._EXACT_DIVISION, reason="this platform's long double is too short for the decoder"
)
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)
# Chunks of 64 bytes end inside nearly every line; the default holds a whole test file.
CHUNK_SIZES = st.sampled_from([64, io._CHUNK_BYTES])
# Half the bytes a mutation writes are digits, which leave many files valid.
DIGITS = st.sampled_from(list(b"0123456789"))


def _assert_same_columns(got: TrajectoryStore, want: TrajectoryStore) -> None:
    assert (got.n_frames_total, got.frame_size) == (want.n_frames_total, want.frame_size)
    for column in ("ids", "starts", "bounds"):
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype == np.int64 and a.tolist() == b.tolist()
    assert got.points.dtype == want.points.dtype == np.float64
    assert got.points.shape == want.points.shape
    assert got.points.tobytes() == want.points.tobytes()
    assert not got.points.flags.writeable


def _decode(path, chunk_bytes: int):
    with mock.patch.object(io, "_CHUNK_BYTES", chunk_bytes):
        return io._decode_compact(path)


def _outcome(parse, path):
    try:
        return parse(path)
    except JittersegError as exc:
        return exc


@st.composite
def in_range_stores(draw):
    """Stores whose files the bulk decoder takes: ids in [0, 10**18), and
    every coordinate 0.0 or at least 0.01, so its shortest repr is a plain
    decimal of at most 18 digits."""
    frames = draw(st.integers(2, 12))
    size = draw(st.integers(1, MAX_INT_PARAM)), draw(st.integers(1, MAX_INT_PARAM))
    n = draw(st.integers(0, 6))
    ids = draw(st.lists(st.integers(0, 10**18 - 1), min_size=n, max_size=n, unique=True))
    axes = [
        st.one_of(
            st.floats(0.01, float(side)),
            st.integers(0, side).map(float),
            st.integers(1, 100 * side).map(lambda v: v / 100),
            st.sampled_from([0.0, 0.01, 0.1, float(side)]),
        )
        for side in size
    ]
    trajs = []
    for tid in ids:
        start = draw(st.integers(0, frames - 2))
        length = draw(st.integers(2, frames - start))
        points = [[draw(axes[0]), draw(axes[1])] for _ in range(length)]
        trajs.append(Trajectory(tid, start, np.array(points)))
    return TrajectoryStore(tuple(trajs), frames, size)


HEADER = '{"frames":4,"width":100,"height":100}\n'
GOOD = '{"id":1,"start":0,"points":[[1.5,2.25],[0.0,100.0]]}\n'


def _edited(old: str, new: str) -> str:
    return HEADER + GOOD.replace(old, new)


class TestAgainstLineReader:
    @PROPERTY
    @given(in_range_stores(), CHUNK_SIZES)
    def test_written_files_take_the_bulk_path(self, tmp_path_factory, store, chunk_bytes):
        # A change to how records are written cannot silently move files
        # off the bulk path.
        path = tmp_path_factory.mktemp("bulk") / "t.jsonl"
        serialize_trajectories(store, path)
        got = _decode(path, chunk_bytes)
        assert got is not None
        _assert_same_columns(got, io._parse_lines(path))
        # The buffer sized from the file was cut down to the points read.
        assert got.points.base is None
        want = sorted(store.trajectories, key=lambda t: t.id)
        assert [(t.id, t.start_frame) for t in got.trajectories] == [
            (t.id, t.start_frame) for t in want
        ]
        assert got.points.tobytes() == np.concatenate([t.points for t in want] or [[]]).tobytes()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        in_range_stores(),
        st.lists(
            st.tuples(
                st.sampled_from(["replace", "insert", "delete"]),
                st.integers(0, 2**32),
                st.one_of(DIGITS, st.sampled_from(list(b'.,:[]{}"-+eE \t\r\nidstarpon\xc3'))),
            ),
            min_size=1,
            max_size=3,
        ),
        CHUNK_SIZES,
    )
    def test_mutated_files_are_declined_or_read_alike(
        self, tmp_path_factory, store, edits, chunk_bytes
    ):
        path = tmp_path_factory.mktemp("bulk") / "t.jsonl"
        serialize_trajectories(store, path)
        data = bytearray(path.read_bytes())
        for op, where, byte in edits:
            at = where % (len(data) + 1)
            if op == "insert":
                data.insert(at, byte)
            elif at < len(data):
                if op == "replace":
                    data[at] = byte
                else:
                    del data[at]
        path.write_bytes(bytes(data))
        got = _decode(path, chunk_bytes)
        if got is not None:
            _assert_same_columns(got, io._parse_lines(path))

    @pytest.mark.parametrize(
        "text, bulk",
        [
            pytest.param(HEADER + GOOD, True, id="compact"),
            pytest.param(HEADER + GOOD[:-1], True, id="no-final-newline"),
            pytest.param(
                '{"frames": 4, "width": 100, "height": 100}\n' + GOOD, True, id="spaced-header"
            ),
            pytest.param(HEADER, True, id="no-tracks"),
            pytest.param(_edited("2.25", "0." + "2" * 18), True, id="18-digit-fraction"),
            pytest.param(_edited("2.25", "2." + "2" * 17), True, id="18-digits"),
            pytest.param(_edited("2.25", "2." + "2" * 18), False, id="19-digits"),
            pytest.param(_edited("2.25", "0." + "2" * 19), False, id="19-digit-fraction"),
            pytest.param(_edited('"id":1', '"id":%d' % 10**18), False, id="19-digit-id"),
            pytest.param(_edited(",", ", "), False, id="spaces"),
            pytest.param(_edited("\n", "\r\n"), False, id="crlf"),
            pytest.param(HEADER + "\n" + GOOD, False, id="blank-line"),
            pytest.param(_edited("1.5", "15e-1"), False, id="exponent"),
            pytest.param(_edited("1.5", "1"), False, id="integer-coordinate"),
            pytest.param(_edited("0.0", "-0.0"), False, id="negative-zero"),
            pytest.param(_edited("}", ',"note":"\u00e9"}'), False, id="non-ascii"),
            pytest.param("\ufeff" + HEADER + GOOD, False, id="byte-order-mark"),
            # A lone carriage return is whitespace to both readers.
            pytest.param(HEADER.replace(",", ",\r") + GOOD, True, id="header-cr"),
            pytest.param(HEADER.replace("4", "1") + GOOD, False, id="bad-header"),
            pytest.param(HEADER + GOOD + GOOD, False, id="duplicate-id"),
            pytest.param(_edited("100.0", "100.5"), False, id="outside"),
            pytest.param(_edited('"start":0', '"start":3'), False, id="frames"),
            pytest.param(_edited("[0.0,100.0]", "[0.0,100.0,1.0]"), False, id="triple"),
            pytest.param(_edited(",[0.0,100.0]", ""), False, id="one-point"),
            pytest.param(_edited("1.5", "01.5"), False, id="leading-zero"),
            pytest.param(_edited('"id":1', '"id":01'), False, id="leading-zero-id"),
            pytest.param(_edited("1.5", ".5"), False, id="empty-integer-part"),
            pytest.param(_edited("1.5", "1."), False, id="empty-fraction"),
            pytest.param(_edited('"start":0', '"start":'), False, id="empty-start"),
            # A digit outside any slot makes up for an empty slot in the count of numbers.
            pytest.param(_edited('"id":1', '"i1d":'), False, id="digit-in-key"),
            pytest.param(_edited("[[1.5", "[1[.5"), False, id="digit-between-brackets"),
            pytest.param(_edited('"id":1', '"id":' + "9" * 19), False, id="id-past-int64"),
        ],
    )
    def test_declines_what_it_cannot_vouch_for(self, tmp_path, text, bulk):
        path = tmp_path / "t.jsonl"
        path.write_bytes(text.encode("utf-8"))
        got = _decode(path, io._CHUNK_BYTES)
        assert (got is not None) == bulk
        want = _outcome(io._parse_lines, path)
        if bulk:
            _assert_same_columns(got, want)
        parsed = _outcome(parse_trajectories, path)
        if isinstance(want, Exception):
            assert type(parsed) is type(want) and str(parsed) == str(want)
        else:
            _assert_same_columns(parsed, want)

    def test_coordinate_below_1e4_is_written_with_an_exponent(self, tmp_path):
        # ``repr`` writes 1e-05, so the writer does too: the file is not in
        # the compact form, the decoder declines it, and the line reader
        # reads back the same bits.
        track = Trajectory(1, 0, np.array([[1e-05, 2.0], [3.5, 4.0]]))
        store = TrajectoryStore((track,), 4, (9, 9))
        path = tmp_path / "t.jsonl"
        serialize_trajectories(store, path)
        record = '{"id":1,"start":0,"points":[[1e-05,2.0],[3.5,4.0]]}'
        assert path.read_text().splitlines()[1] == record
        assert io._decode_compact(path) is None
        _assert_same_columns(parse_trajectories(path), store)

    def test_declines_a_file_longer_than_its_stat_said(self, tmp_path, monkeypatch):
        # The points buffer is sized from the stat: 100 bytes hold at most
        # 10 points, and the file grew to 12 while it was read.
        path = tmp_path / "t.jsonl"
        points = ",".join(f"[{x}.5,{x}.25]" for x in range(12))
        header = HEADER.replace('"frames":4', '"frames":12')
        path.write_text(header + '{"id":1,"start":0,"points":[%s]}\n' % points)
        real_stat = io.os.stat

        def short_stat(p, *args, **kwargs):
            info = tuple(real_stat(p, *args, **kwargs))
            return io.os.stat_result(info[:6] + (100,) + info[7:])

        monkeypatch.setattr(io.os, "stat", short_stat)
        assert io._decode_compact(path) is None
        _assert_same_columns(parse_trajectories(path), io._parse_lines(path))


def _decimal(numerator: int, places: int) -> str:
    digits = str(numerator).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


def _midpoint_decimals() -> list[tuple[str, Fraction | None]]:
    """Decimals of at most 18 digits at or next to the midpoint between two
    doubles, each with the midpoint it rounds to at 64 bits, or None.

    Exact midpoints are halves just above 2**52 and quarters just above
    2**51. In the binades that start at 2**-6, 1, 2**6 and 2**9, the
    18-digit roundings of midpoints that lie within half a unit of a
    64-bit significand of them round to the midpoint at that precision;
    the decimals one unit of the last place on either side are kept too.
    """
    table = []
    for j in range(1, 4):
        for base, tail in ((2**52, ".5"), (2**51, ".25"), (2**51, ".75")):
            table.append((f"{base + j}{tail}", Fraction(f"{base + j}{tail}")))
    for e, places in ((-6, 18), (0, 17), (6, 16), (9, 15)):
        found = 0
        for j in range(100_000):
            mid = Fraction(2) ** e + Fraction(2 * j + 1) * Fraction(2) ** (e - 53)
            near = round(mid * 10**places)
            if abs(Fraction(near, 10**places) - mid) >= Fraction(2) ** (e - 64):
                continue
            table.append((_decimal(near, places), mid))
            table += [(_decimal(near + d, places), None) for d in (-1, 1)]
            found += 1
            if found == 4:
                break
    return table


MIDPOINT_DECIMALS = _midpoint_decimals()


def test_midpoint_table_has_double_rounding_cases():
    """For some of the table, rounding to 64 bits and then to a double
    would differ from rounding once: the midpoint goes to the even side."""
    assert len(MIDPOINT_DECIMALS) == 9 + 4 * 4 * 3
    assert any(mid is not None and float(mid) != float(text) for text, mid in MIDPOINT_DECIMALS)


def test_midpoint_decimals_round_as_float_does():
    texts = [text for text, _ in MIDPOINT_DECIMALS]
    points = ",".join(f"[{text},{text}]" for text in texts)
    chunk = f'{{"id":0,"start":0,"points":[{points}]}}\n'.encode()
    ids, starts, counts, values = io._decode_chunk(chunk)
    assert (ids.tolist(), starts.tolist(), counts.tolist()) == ([0], [0], [len(texts)])
    want = np.array([[float(t), float(t)] for t in texts])
    assert values.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("900719925.4740991", id="digits-2**53-1"),
        pytest.param("900719925.4740992", id="digits-2**53"),
        pytest.param("900719925.4740993", id="digits-2**53+1"),
        pytest.param("0.999999999999999999", id="18-fraction-digits"),
    ],
)
def test_fixed_decimals_read_as_float_and_the_line_reader_read_them(tmp_path, text):
    # Where the digits pass 2**53 the decoder leaves one double division
    # for long double, and 18 fraction digits are its largest power of ten.
    line = f'{{"id":0,"start":0,"points":[[{text},{text}],[1.0,{text}]]}}\n'
    *_, values = io._decode_chunk(line.encode())
    path = tmp_path / "t.jsonl"
    path.write_text('{"frames":2,"width":1000000000,"height":1000000000}\n' + line)
    want = np.array([[float(text), float(text)], [1.0, float(text)]])
    assert values.tobytes() == want.tobytes() == io._parse_lines(path).points.tobytes()
