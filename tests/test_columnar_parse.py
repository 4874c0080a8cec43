"""The columnar trajectory store and its one check.

A ``TrajectoryStore`` keeps every point once, in one read-only (M, 2)
buffer beside per-track id, start and row-bound columns, and one
vectorized check (``first_fault``) covers ids, frame ranges, finiteness
and frame bounds for both ways of building it. ``parse_trajectories``
checks each record's structure as it reads it and leaves the rest to
that check, mapping the offending track to its line. ``conftest`` keeps
the former per-record parser and per-track store checks as oracles: on
generated files with injected faults both must give the same store bit
for bit, or the same error type and message.
"""

from __future__ import annotations

import gc
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jitterseg.cli
import jitterseg.io
from jitterseg import (
    SceneParams,
    Trajectory,
    TrajectoryStore,
    generate_scene,
    parse_trajectories,
    serialize_trajectories,
)
from jitterseg.cli import run_cli
from jitterseg.errors import BoundsError, JittersegError, ParseError

from conftest import oracle_parse_trajectories, oracle_store_check, oracle_windows

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

FAULTS = (
    "bad_json",
    "bool",
    "false",
    "null",
    "string",
    "nan",
    "infinity",
    "out_of_frame",
    "start_negative",
    "end_past",
    "duplicate_id",
    "huge_int",
    "huge_id",
    "long_int",
    "duplicate_key",
    "string_after_huge_int",
)

_JSON_LITERALS = {"nan": "NaN", "infinity": "Infinity"}
NAN, INF = float("nan"), float("inf")  # written as NaN and Infinity


def _rec(tid: int, points, start: int = 0) -> str:
    return json.dumps({"id": tid, "start": start, "points": points})


def _outcome(parse, path):
    try:
        return parse(path)
    except JittersegError as exc:
        return exc


def _assert_same(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
        assert str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    assert got.n_frames_total == want.n_frames_total
    assert got.frame_size == want.frame_size
    assert len(got) == len(want)
    for a, b in zip(got.trajectories, want.trajectories):
        assert (a.id, a.start_frame) == (b.id, b.start_frame)
        assert a.points.dtype == b.points.dtype == np.float64
        assert a.points.shape == b.points.shape
        assert a.points.tobytes() == b.points.tobytes()  # bitwise, signed zeros too
        assert not a.points.flags.writeable


@st.composite
def trajectory_files(draw, fault=None):
    """The lines of a trajectory file, with up to two faults injected at
    random records, after ``fault`` when one is given."""
    frames = draw(st.integers(2, 12))
    width, height = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    n = draw(st.integers(0 if fault is None else 1, 6))
    ids = draw(st.lists(st.integers(-(2**40), 2**40), min_size=n, max_size=n, unique=True))
    records = []
    for tid in ids:
        start = draw(st.integers(0, frames - 2))
        length = draw(st.integers(2, frames - start))
        axes = [
            st.one_of(
                st.integers(0, side),
                st.floats(0.0, float(side)),
                st.sampled_from([0.0, -0.0, 5e-324, side]),
            )
            for side in (width, height)
        ]
        points = [[draw(axes[0]), draw(axes[1])] for _ in range(length)]
        records.append({"id": tid, "start": start, "points": points})
    texts = {}
    first = [] if fault is None else [fault]
    for kind in first + draw(st.lists(st.sampled_from(FAULTS), max_size=2)) if records else ():
        k = draw(st.integers(0, len(records) - 1))
        rec = records[k]
        p = draw(st.integers(0, len(rec["points"]) - 1))
        axis = draw(st.integers(0, 1))
        if kind == "bad_json":
            texts[k] = draw(st.sampled_from(["not json", "[1, 2", '{"id": 1,}']))
        elif kind == "long_int":  # more digits than int() converts; json.dumps refuses it
            texts[k] = '{"id":%s,"start":0,"points":[[1,1],[2,2]]}' % ("7" * 5000)
        elif kind == "duplicate_key":
            key = draw(st.sampled_from(["id", "start", "points"]))
            repeat = ", %s: %s}" % (json.dumps(key), json.dumps(rec[key]))
            texts[k] = json.dumps(rec)[:-1] + repeat
        elif kind in ("bool", "false", "null", "string"):
            value = {"bool": True, "false": False, "null": None, "string": "1"}[kind]
            rec["points"][p][axis] = value
        elif kind == "string_after_huge_int":  # the string is past where a float conversion stops
            rec["points"][0][0] = 10**400
            rec["points"][-1][1] = "1"
        elif kind in _JSON_LITERALS:
            rec["points"][p][axis] = float(_JSON_LITERALS[kind])
        elif kind == "out_of_frame":
            rec["points"][p][axis] = draw(st.sampled_from([-0.5, (width, height)[axis] + 1]))
        elif kind == "start_negative":
            rec["start"] = -1
        elif kind == "end_past":
            rec["start"] = frames - len(rec["points"]) + 1
        elif kind == "duplicate_id":
            rec["id"] = records[draw(st.integers(0, len(records) - 1))]["id"]
        elif kind == "huge_int":
            rec["points"][p][axis] = draw(st.sampled_from([10**400, -(10**400)]))
        else:  # huge_id: outside int64, refused by the reader with its line
            rec["id"] = draw(st.sampled_from([2**63, -(2**63) - 1, 2**70, 10**400]))
    lines = [json.dumps({"frames": frames, "width": width, "height": height})]
    for k, rec in enumerate(records):
        lines.append(texts.get(k, json.dumps(rec, separators=(",", ":"))))
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
    return lines


def _check_file(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("parse") / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    _assert_same(_outcome(parse_trajectories, path), _outcome(oracle_parse_trajectories, path))


class TestParserOracle:
    @PROPERTY
    @given(trajectory_files())
    def test_same_store_or_same_error(self, tmp_path_factory, lines):
        _check_file(tmp_path_factory, lines)

    @pytest.mark.parametrize("fault", FAULTS)
    def test_same_error_for_each_fault(self, tmp_path_factory, fault):
        @settings(max_examples=25, deadline=None, derandomize=True)
        @given(trajectory_files(fault))
        def check(lines):
            _check_file(tmp_path_factory, lines)

        check()

    @pytest.mark.parametrize(
        "records, line",
        [
            # An earlier record's point fault wins over a later structural one.
            ([_rec(0, [[1, 1], [NAN, 1]]), "not json"], 2),
            ([_rec(0, [[1, 1], [500, 1]]), _rec(0, [[1, 1], [2, 1]])], 2),
            ([_rec(0, [[1, 1], [2, 1]]), _rec(1, [[-1, 1], [INF, 1]])], 3),
            (
                [
                    _rec(0, [[1, 1], [2, 1]]),
                    _rec(1, [[NAN, 1], [INF, 1]]),
                    _rec(2, [[1, 1], [2, 1]], start=9),
                ],
                3,
            ),
            (
                [
                    _rec(0, [[1, 1], [2, 1]]),
                    _rec(1, [[1, 1], [10**400, 1]]),
                    _rec(2, [[-1, 1], [2, 1]]),
                ],
                3,
            ),
            # A record's own points before a too-large integer are not checked.
            ([_rec(0, [[-1, 1], [NAN, 1], [10**400, 1]])], 2),
        ],
    )
    def test_first_fault_in_file_order(self, tmp_path, records, line):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(['{"frames":3,"width":100,"height":100}', *records]) + "\n")
        got = _outcome(parse_trajectories, path)
        _assert_same(got, _outcome(oracle_parse_trajectories, path))
        assert f"line {line}:" in str(got)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                '{"frames":3,"width":100,"height":100}\n{"id":0,"start":0,"points":%s}\n'
                % ("[" * 100_000 + "]" * 100_000),
                "line 2: invalid JSON (nested too deeply)",
            ),
            (
                '{"frames":3,"width":%d,"height":100}\n' % 10**400,
                "line 1: header 'width' must be <= 2147483647",
            ),
            pytest.param(
                '{"frames":3,"width":100,"height":100}\n'
                '{"id":0,"start":0,"points":[[1,1],[%s,1]]}\n' % ("9" * 5000),
                "line 2: invalid JSON (integer too long)",
                id="5000-digit-coordinate",
            ),
            # A repeated key, in the header too; json.loads alone keeps the last.
            pytest.param(
                '{"frames":3,"width":100,"height":100,"frames":4}\n',
                "line 1: duplicate key 'frames'",
                id="duplicate-header-key",
            ),
            pytest.param(
                '{"frames":3,"width":100,"height":100}\n'
                '{"id":1,"id":2,"start":0,"points":[[1,1],[2,1]]}\n',
                "line 2: duplicate key 'id'",
                id="duplicate-id-key",
            ),
            pytest.param(
                '{"frames":3,"width":100,"height":100}\n'
                '{"id":1,"start":0,"points":[[1,1],[2,1]],"points":[[1,1],[2,1]]}\n',
                "line 2: duplicate key 'points'",
                id="duplicate-points-key",
            ),
            # An id past 64 bits, named by its line and not echoed.
            pytest.param(
                '{"frames":3,"width":100,"height":100}\n'
                '{"id":1,"start":0,"points":[[1,1],[2,1]]}\n'
                '{"id":%d,"start":0,"points":[[1,1],[2,1]]}\n' % 2**70,
                "line 3: 'id' must fit in a 64-bit integer",
                id="id-2**70",
            ),
            pytest.param(
                '{"frames":3,"width":100,"height":100}\n'
                '{"id":%d,"start":0,"points":[[1,1],[2,1]]}\n' % -(2**63 + 1),
                "line 2: 'id' must fit in a 64-bit integer",
                id="id-below-int64",
            ),
        ],
    )
    def test_extreme_input_is_parse_error(self, tmp_path, text, message):
        path = tmp_path / "t.jsonl"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            parse_trajectories(path)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"id":0,"start":0,"points":[[1,true],[2,1]]}', "line 2: 'points' must be"),
            ('{"id":0,"start":0,"points":[[1,1],[false,1]]}', "line 2: 'points' must be"),
            ('{"id":0,"start":0,"points":[[1,1],[2,null]]}', "line 2: 'points' must be"),
            # A string after an integer too large for a float is still a
            # points fault, not the overflow one.
            ('{"id":0,"start":0,"points":[[%d,1],[2,"1"]]}' % 10**400, "line 2: 'points' must be"),
            ('{"id":0,"start":0,"points":[[1,1],[%d,1]]}' % 10**400, "line 2: trajectory 0 has an"),
            ('{"id":0,"start":0,"points":[[1,1],[2,[1]]]}', "line 2: 'points' must be"),
            ('{"id":0,"start":0,"points":[[1,1],[2,{"a":1}]]}', "line 2: 'points' must be"),
            # Numbers in pairs of the wrong length, the total count right or not.
            ('{"id":0,"start":0,"points":[[1],[2,1,3]]}', "line 2: 'points' must be"),
            ('{"id":0,"start":0,"points":[[1,1],[2,1,3]]}', "line 2: 'points' must be"),
            ('{"id":0,"start":0,"points":[[1,1],[]]}', "line 2: 'points' must be"),
            ('{"id":0,"start":0,"points":[[1,1],{}]}', "line 2: 'points' must be"),
            ('{"id":0,"start":0,"points":[[1,1],"ab"]}', "line 2: 'points' must be"),
            ('{"id":0,"start":0,"points":[[1,1],{"a":1,"b":2}]}', "line 2: 'points' must be"),
            # The words true and false outside the points do not make a fault.
            ('{"id":0,"start":0,"points":[[1,1],[2,1]],"true":1}', None),
            ('{"id":0,"start":0,"points":[[1,1],[2,1]],"note":"false"}', None),
            ('{"id":0,"start":0,"points":[[1,1],[2,1]],"true":"false"}', None),
        ],
    )
    def test_points_that_are_not_number_pairs(self, tmp_path, record, message):
        path = tmp_path / "t.jsonl"
        path.write_text('{"frames":3,"width":100,"height":100}\n%s\n' % record)
        got = _outcome(parse_trajectories, path)
        _assert_same(got, _outcome(oracle_parse_trajectories, path))
        if message is None:
            assert [t.points.tolist() for t in got.trajectories] == [[[1, 1], [2, 1]]]
        else:
            assert isinstance(got, ParseError) and str(got).startswith(message)

    def test_int64_id_limits_are_accepted(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"frames":3,"width":100,"height":100}\n'
            '{"id":%d,"start":0,"points":[[1,1],[2,1]]}\n'
            '{"id":%d,"start":0,"points":[[1,1],[2,1]]}\n' % (2**63 - 1, -(2**63))
        )
        assert sorted(t.id for t in parse_trajectories(path).trajectories) == [-(2**63), 2**63 - 1]

    def test_tracks_are_views_of_one_buffer(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"frames":4,"width":100,"height":100}\n'
            '{"id":5,"start":1,"points":[[1,1],[2,1],[3,1]]}\n'
            '{"id":2,"start":0,"points":[[7,7],[8,7]]}\n'
        )
        store = parse_trajectories(path)
        a, b = store.trajectories
        assert a.points.base is not None and a.points.base is b.points.base
        for points in (a.points, b.points, store.point_rows[0]):
            assert np.shares_memory(points, store.points)
        assert not a.points.flags.writeable
        with pytest.raises(ValueError):
            a.points[0, 0] = 3.0


_stores = st.builds(
    lambda seed, n, frames: _random_store(np.random.default_rng(seed), n, frames),
    st.integers(0, 2**32 - 1),
    st.integers(0, 8),
    st.integers(2, 15),
)


def _random_store(rng, n: int, frames: int) -> TrajectoryStore:
    width, height = 640, 360
    trajs = []
    for tid in rng.permutation(10 * n + 1)[:n]:
        start = int(rng.integers(0, frames - 1))
        length = int(rng.integers(2, frames - start + 1))
        scale = 10.0 ** rng.integers(-300, 3, size=(length, 1))
        pts = rng.uniform(0.0, 1.0, (length, 2)) * scale * [width, height]
        pts = np.minimum(pts, [width, height])
        pts[rng.random((length, 2)) < 0.1] = 0.0
        trajs.append(Trajectory(int(tid) - 5 * n, start, pts))
    return TrajectoryStore(tuple(trajs), frames, (width, height))


class TestRoundTrip:
    # With ``bulk`` False, the long double probe is forced off: the path of
    # a platform whose long double is too short for the bulk decoder.
    @pytest.mark.parametrize("bulk", [True, False])
    @PROPERTY
    @given(_stores)
    def test_serialize_then_parse_is_bitwise(self, tmp_path_factory, bulk, store):
        path = tmp_path_factory.mktemp("rt") / "t.jsonl"
        serialize_trajectories(store, path)
        probe = bulk and jitterseg.io._EXACT_DIVISION
        with mock.patch.object(jitterseg.io, "_EXACT_DIVISION", probe):
            back = parse_trajectories(path)
        assert back.n_frames_total == store.n_frames_total
        assert back.frame_size == store.frame_size
        # The file lists tracks in id order.
        want = sorted(store.trajectories, key=lambda t: t.id)
        assert [t.id for t in back.trajectories] == [t.id for t in want]
        for a, b in zip(back.trajectories, want):
            assert a.start_frame == b.start_frame
            assert a.points.tobytes() == b.points.tobytes()


class TestStoreChecks:
    @PROPERTY
    @given(
        _stores,
        st.lists(st.sampled_from(["duplicate", "past_end", "below", "above"]), max_size=3),
        st.randoms(use_true_random=False),
        st.booleans(),
    )
    def test_same_error_as_per_track_checks(self, store, faults, rnd, by_columns):
        trajs = list(store.trajectories)
        frames, size = store.n_frames_total, store.frame_size
        for fault in faults:
            if not trajs:
                break
            k = rnd.randrange(len(trajs))
            t = trajs[k]
            if fault == "duplicate":
                trajs[k] = Trajectory(rnd.choice(trajs).id, t.start_frame, t.points)
            elif fault == "past_end":
                trajs[k] = Trajectory(t.id, frames - t.n_points + 1, t.points)
            else:
                pts = t.points.copy()
                axis = rnd.randrange(2)
                bad = -1e-9 if fault == "below" else size[axis] + 1.0
                pts[rnd.randrange(t.n_points), axis] = bad
                trajs[k] = Trajectory(t.id, t.start_frame, pts)
        want = None
        try:
            oracle_store_check(trajs, frames, size)
        except JittersegError as exc:
            want = exc
        try:
            if by_columns and trajs:
                tracks = [(t.id, t.start_frame, t.points) for t in trajs]
                TrajectoryStore._of_columns(*_columns(tracks), frames, size)._checked()
            else:
                TrajectoryStore(tuple(trajs), frames, size)
        except JittersegError as exc:
            assert want is not None and type(exc) is type(want) and str(exc) == str(want)
        else:
            assert want is None

    def test_huge_id_is_typed(self):
        t = Trajectory(10**400, 0, np.array([[1.0, 1.0], [2.0, 2.0]]))
        with pytest.raises(BoundsError, match="64-bit"):
            TrajectoryStore((t,), 4, (10, 10))

    def test_frame_spans_in_id_order(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        store = TrajectoryStore(
            (Trajectory(9, 1, pts), Trajectory(-3, 0, pts[:2]), Trajectory(4, 0, pts)), 5, (10, 10)
        )
        ids, starts, ends = store.frame_spans
        assert ids.tolist() == [-3, 4, 9]
        assert starts.tolist() == [0, 0, 1]
        assert ends.tolist() == [2, 3, 4]


@st.composite
def _window_cases(draw):
    """A store of partial tracks in shuffled order, some of its tracks and a frame window.

    Ids run from negative values to beyond 2^32; a point may be -0.0.
    The tracks may repeat and come in any order, and the window may lie
    inside a track, across its ends or outside it.
    """
    frames = draw(st.integers(2, 40))
    ids = draw(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=12, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trajs = []
    for tid in ids:
        start = int(rng.integers(0, frames - 1))
        length = int(rng.integers(2, frames - start + 1))
        pts = rng.uniform(0.0, 100.0, (length, 2))
        pts[rng.random((length, 2)) < 0.1] = -0.0
        trajs.append(Trajectory(tid, start, pts))
    store = TrajectoryStore(tuple(trajs), frames, (100, 100))
    k = draw(st.lists(st.integers(0, len(ids) - 1), max_size=8))
    lo = draw(st.integers(0, frames - 1))
    hi = draw(st.integers(lo + 1, frames))
    return store, np.array(k, dtype=np.int64), lo, hi


class TestWindows:
    """``TrajectoryStore.windows`` is the per-track, per-frame gather."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_window_cases())
    def test_matches_the_per_track_loop(self, case):
        store, k, lo, hi = case
        z, mask = store.windows(k, lo, hi)
        want_z, want_mask = oracle_windows(store, k, lo, hi)
        assert z.dtype == complex and mask.dtype == bool
        assert z.shape == mask.shape == (k.size, hi - lo)
        assert z.tobytes() == want_z.tobytes()
        assert np.array_equal(mask, want_mask)

    def test_parsed_store_in_file_order(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"frames": 6, "width": 10, "height": 10}\n'
            + _rec(2**33, [[1, 2], [3, 4], [5, 6]], start=3)
            + "\n"
            + _rec(-7, [[0, 0], [1, 1]], start=1)
            + "\n"
        )
        z, mask = parse_trajectories(path).windows(np.array([1, 0]), 1, 6)
        assert mask.tolist() == [
            [False, False, True, True, True],
            [True, True, False, False, False],
        ]
        assert z.tolist() == [[0, 0, 1 + 2j, 3 + 4j, 5 + 6j], [0, 1 + 1j, 0, 0, 0]]


def _columns(tracks):
    """(id, start, points) tracks as the store's columns: ids, starts, row bounds, points."""
    ids, starts, points = zip(*tracks)
    return (
        np.array(ids, dtype=np.int64),
        np.array(starts, dtype=np.int64),
        np.cumsum([0, *map(len, points)]),
        np.concatenate(points),
    )


class TestColumns:
    """The store over adopted columns, the path of the parser and of ``synth``."""

    @pytest.mark.parametrize("fault", ["none", "duplicate", "past_end", "outside", "non_finite"])
    def test_rejects_what_the_constructor_rejects(self, fault):
        pts = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        tracks = [[7, 0, pts], [8, 1, pts[:2]], [9, 0, pts]]
        if fault == "duplicate":
            tracks[2][0] = 8
        elif fault == "past_end":
            tracks[1][1] = 3
        elif fault == "outside":
            tracks[1][2] = pts[:2] + [0.0, 9.0]
        elif fault == "non_finite":
            tracks[1][2] = np.array([[1.0, 1.0], [np.nan, 2.0]])
        want = got = None
        try:
            TrajectoryStore(tuple(Trajectory(*t) for t in tracks), 4, (10, 10))
        except JittersegError as exc:
            want = exc
        try:
            TrajectoryStore._of_columns(*_columns(tracks), 4, (10, 10))._checked()
        except JittersegError as exc:
            got = exc
        assert type(got) is type(want) and str(got) == str(want)
        assert (want is None) == (fault == "none")

    def test_views_without_copy(self):
        rows = np.arange(10.0).reshape(5, 2)
        ids, starts, bounds = np.array([2, 1]), np.array([3, 0]), np.array([0, 2, 5])
        store = TrajectoryStore._of_columns(ids, starts, bounds, rows, 6, (10, 10))._checked()
        assert store.points is rows and not rows.flags.writeable
        b, a = store.trajectories
        assert np.shares_memory(a.points, rows) and np.shares_memory(b.points, rows)
        assert not a.points.flags.writeable
        assert (a.id, a.start_frame, a.end_frame) == (1, 0, 3)
        assert (b.id, b.start_frame, b.end_frame) == (2, 3, 5)
        assert np.array_equal(b.points, [[0.0, 1.0], [2.0, 3.0]])
        assert store.by_id[1] is a
        # Id order reads the buffer in place: only the first rows are reordered.
        z, first = store.point_rows
        assert np.shares_memory(z, rows) and first.tolist() == [2, 0]

    def test_constructor_copies_into_one_buffer(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        store = TrajectoryStore((Trajectory(4, 0, pts), Trajectory(3, 1, pts[:2])), 3, (10, 10))
        assert not np.shares_memory(store.points, pts)
        assert store.points.tolist() == [*pts.tolist(), *pts[:2].tolist()]
        for t in store.trajectories:
            assert np.shares_memory(t.points, store.points)


def _live_trajectories() -> int:
    gc.collect()  # so that garbage in reference cycles is not counted
    return sum(type(o) is Trajectory for o in gc.get_objects())


class TestOneCopy:
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_segment_builds_no_trajectory(self, tmp_path, shuffled):
        scene = generate_scene(SceneParams(n_bg=30, n_fg=10, n_frames=30, sigma=0.1, seed=5))
        path = tmp_path / "scene.jsonl"
        serialize_trajectories(scene.store, path)
        if shuffled:
            header, *records = path.read_text().splitlines()
            order = np.random.default_rng(0).permutation(len(records))
            path.write_text("\n".join([header, *(records[k] for k in order)]) + "\n")
        out = tmp_path / "labels.jsonl"
        # Constructor calls are counted, and so are tracks made without the
        # constructor that are alive once the labels are fused.
        live = []

        def segment_store(store, params):
            result = jitterseg.cli.segment_store.__wrapped__(store, params)
            live.append(_live_trajectories())
            return result

        segment_store.__wrapped__ = jitterseg.cli.segment_store
        before = _live_trajectories()
        counted = mock.patch.object(
            Trajectory, "__post_init__", autospec=True, side_effect=Trajectory.__post_init__
        )
        with counted as built, mock.patch.object(jitterseg.cli, "segment_store", segment_store):
            assert run_cli(["segment", "--input", str(path), "--output", str(out)]) == 0
        assert built.call_count == 0 and live == [before]
        # Both counts see the tracks once they are asked for.
        with counted as built:
            store = parse_trajectories(path)
            store.trajectories
        assert built.call_count == 40 and _live_trajectories() == before + 40
