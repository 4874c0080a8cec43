"""The bulk writer of compact trajectory files, against one ``json.dumps`` per record.

``serialize_trajectories`` formats whole tracks a chunk at a time from
the coordinates' shortest round-trip digits, found in long double, and
falls back to ``repr`` for every coordinate that search cannot vouch
for. Its oracle, ``conftest.oracle_serialize_trajectories``, is the
former writer: on stores with hard ids, sizes and coordinates the two
files must match byte for byte. A fixed table of hard doubles checks
``io._points_text`` against ``repr`` directly, also for values that no
store holds. ``test_probe_off`` checks the golden file with the bulk
path off and the share of a benchmark scene's coordinates that leave it.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitterseg import Trajectory, TrajectoryStore, io, serialize_trajectories
from jitterseg.segmenter import MAX_INT_PARAM

from conftest import oracle_serialize_trajectories
from test_bulk_decode import MIDPOINT_DECIMALS

X87_ONLY = pytest.mark.skipif(
    not io._EXACT_DIVISION, reason="this platform's long double is too short for the digit search"
)
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)
# One point per chunk puts every track in a chunk of its own; five splits
# the tracks of a test store unevenly; the default holds a whole store.
CHUNK_POINTS = st.sampled_from([1, 5, io._CHUNK_POINTS])


def _near_half_products() -> list[tuple[float, int]]:
    """Doubles ``x`` with a ``k`` such that ``x * 10**k`` lies ``2**-s`` from
    a half, and that product rounded to long double is the half itself.

    ``k`` is the fraction digits of ``x``'s 16- or 17-digit decimals. With
    ``x = m * 2**(E - 52)``, the product is ``m * 5**k / 2**s`` for
    ``s = 52 - E - k``, so ``m * 5**k = 2**(s - 1) + r (mod 2**s)`` puts it
    ``r * 2**-s`` above a half. ``r`` is 1 or -1, far below half a unit in
    the last place of the long double product.
    """
    table = []
    # (E, integer digits, significant digits): x in [2**E, 2**(E + 1)).
    for binade, e, p in (
        (0, 1, 17),
        (3, 2, 17),
        (9, 4, 17),
        (13, 4, 16),
        (13, 5, 17),
        (20, 7, 17),
        (30, 10, 17),
    ):
        k = p - e
        s = 52 - binade - k
        lo = max(2**52, 10 ** (e - 1) << (52 - binade))
        hi = min(2**53, 10**e << (52 - binade))
        for r in (1, -1):
            m0 = (2 ** (s - 1) + r) * pow(5**k, -1, 2**s) % 2**s
            first, last = -(-(lo - m0) // 2**s), (hi - 1 - m0) // 2**s
            for t in np.linspace(first, last, 6).astype(int).tolist():
                table.append((math.ldexp(m0 + t * 2**s, binade - 52), k))
    return table


NEAR_HALF = _near_half_products()


def _hard_doubles() -> np.ndarray:
    """Doubles of every class the bulk path must write as ``repr`` does."""
    rng = np.random.default_rng(20)
    powers = np.array([math.ldexp(1.0, j) for j in range(-1074, 1024)])
    tens = np.array([float(f"1e{j}") for j in range(-323, 309)])
    # Decimals of 1 to 17 digits at every scale from 10**-4 to 10**15.
    decimals = np.array(
        [
            int(m) / 10**j
            for n in range(1, 18)
            for j in range(0, n + 5)
            for m in rng.integers(10 ** (n - 1), 10**n, 8, dtype=np.int64)
        ]
    )
    # m / 2**j: ties between two decimals of 16 or 17 digits.
    dyadic = np.array(
        [math.ldexp(int(m), -j) for j in range(1, 60) for m in rng.integers(1, 2**40, 8)]
    )
    midpoints = np.array([float(text) for text, _ in MIDPOINT_DECIMALS])
    centres = np.concatenate(
        [
            powers,
            tens,
            decimals,
            dyadic,
            midpoints,
            [x for x, _ in NEAR_HALF],
            rng.uniform(0, 2000, 2000),
            rng.uniform(1, 1e15, 2000),
            np.exp(rng.uniform(0, math.log(1e15), 2000)),
            # Whole numbers, and 14- and 15-digit decimals past 10**14.
            [1.0, 640.0, 720.0, 1280.0, MAX_INT_PARAM, 123456789012345.0, 123456789012340.0],
            [99999999999999.99, 999999999999999.9, 12345678901234.56, 123456789012345.6],
            [0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 0.0001, 0.1, 0.5, 1.5, 2.5],
        ]
    )
    hard = np.concatenate([centres, np.nextafter(centres, 0), np.nextafter(centres, np.inf)])
    return np.concatenate([hard, -hard, [-0.0]])


HARD_DOUBLES = _hard_doubles()


def test_hard_doubles_are_written_as_repr_writes_them():
    points = np.append(HARD_DOUBLES, HARD_DOUBLES[: len(HARD_DOUBLES) % 2]).reshape(-1, 2)
    texts = [f"{x!r},{y!r}],[" for x, y in points.tolist()]
    text, point_ends = io._points_text(points)
    assert bytes(text) == "".join(texts).encode()
    assert point_ends.tolist() == np.cumsum(list(map(len, texts))).tolist()


@X87_ONLY
def test_most_hard_doubles_take_the_bulk_path():
    # The table must exercise the digit search, not only ``repr``.
    values = HARD_DOUBLES[(HARD_DOUBLES >= 1) & (HARD_DOUBLES < 1e15)]
    *_, vouched = io._shortest_digits(values)
    assert vouched.mean() > 0.8


@X87_ONLY
def test_near_half_table_holds_misrounded_products():
    """For some of the table, the integer nearest the long double product
    is not the integer nearest the exact product: the search must not
    trust it, and it does not."""
    misrounded = []
    for x, k in NEAR_HALF:
        exact = Fraction(x) * 10**k
        assert 0 < abs(exact - math.floor(exact) - Fraction(1, 2)) <= Fraction(1, 2**15)
        product = np.longdouble(x) * np.longdouble(10**k)
        assert product - np.floor(product) == 0.5
        misrounded.append(int(np.rint(product)) != round(exact))
    assert any(misrounded)
    values = np.array([x for x, _ in NEAR_HALF])
    _, e, _, vouched = io._shortest_digits(values)
    # Where the shortest form has the digits of the product near a half,
    # that product was used, so the digits are not vouched for. (Where 16
    # digits read back, the 17-digit product is never formed.)
    shortest = np.array([len(repr(x).replace(".", "").lstrip("0")) for x in values.tolist()])
    near = np.array([k for _, k in NEAR_HALF]) + e
    assert not vouched[shortest == near].any()


# Whole numbers and short decimals: the descending search reaches their
# shortest form itself. At the next shorter ``p`` the products of the
# refused ones are exact halves, which the search cannot round and so
# does not vouch for.
SHORT_FORMS = [1.0, 640.0, 1280.0, 2147483647.0, 123456789012340.0, 1.2, 3.14, 212.7, 719.99]
EXACT_HALVES = [1.5, 12.25, 212.5]


@X87_ONLY
def test_the_search_finds_the_shortest_form_itself():
    values = np.array(SHORT_FORMS + EXACT_HALVES)
    *_, vouched = io._shortest_digits(values)
    assert vouched.tolist() == [True] * len(SHORT_FORMS) + [False] * len(EXACT_HALVES)
    points = values.reshape(-1, 2)
    text, _ = io._points_text(points)
    assert bytes(text) == "".join(f"{x!r},{y!r}],[" for x, y in points.tolist()).encode()


@X87_ONLY
def test_the_search_never_scales_by_a_negative_power():
    # ``_POW10_LONG.take(k)`` wraps around for k < 0, silently; the cast of
    # the product it gives to int64 is what warns.
    values = HARD_DOUBLES[(HARD_DOUBLES >= 1) & (HARD_DOUBLES < 1e15)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        io._shortest_digits(values)


def _coordinates(side: int):
    """Coordinates in [0, side]: uniform, or from a class of hard doubles,
    each with its neighbours one unit in the last place away."""
    top = float(side)

    def neighbours(v: float):
        return st.sampled_from([float(np.nextafter(v, 0)), v, float(np.nextafter(v, top))])

    decimals = st.integers(0, 20).flatmap(
        lambda j: st.integers(0, min(side * 10**j, 10**17)).map(lambda m: m / 10**j)
    )
    dyadic = st.integers(0, 60).flatmap(
        lambda j: st.integers(0, min(side << j, 2**53)).map(lambda m: math.ldexp(m, -j))
    )
    powers = st.one_of(
        st.integers(-1074, side.bit_length() - 1).map(lambda j: math.ldexp(1.0, j)),
        st.integers(-323, len(str(side)) - 1).map(lambda j: float(f"1e{j}")),
    )
    hard = [x for x, _ in NEAR_HALF if x <= top] + [float(t) for t, _ in MIDPOINT_DECIMALS]
    special = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, top]
    return st.one_of(
        st.floats(0, 1).map(lambda u: u * top),
        st.floats(0, top),
        st.one_of(decimals, dyadic, powers, st.sampled_from(special + hard)).flatmap(neighbours),
    ).map(lambda v: min(v, top))


IDS = st.one_of(st.integers(-(2**63), 2**63 - 1), st.integers(-(10**18) + 1, 10**18 - 1))


@st.composite
def stores(draw):
    """Stores with negative, 18- and 19-digit ids in any order, any frame
    size, and tracks longer than a small chunk."""
    frames = draw(st.integers(2, 12))
    size = draw(st.integers(1, MAX_INT_PARAM)), draw(st.integers(1, MAX_INT_PARAM))
    axes = [_coordinates(side) for side in size]
    trajs = []
    for tid in draw(st.lists(IDS, max_size=6, unique=True)):
        start = draw(st.integers(0, frames - 2))
        length = draw(st.integers(2, frames - start))
        points = [[draw(axes[0]), draw(axes[1])] for _ in range(length)]
        trajs.append(Trajectory(tid, start, np.array(points)))
    return TrajectoryStore(tuple(trajs), frames, size)


@PROPERTY
@given(stores(), CHUNK_POINTS)
def test_files_match_the_oracle_byte_for_byte(tmp_path_factory, store, chunk_points):
    folder = tmp_path_factory.mktemp("encode")
    with mock.patch.object(io, "_CHUNK_POINTS", chunk_points):
        serialize_trajectories(store, folder / "bulk.jsonl")
    oracle_serialize_trajectories(store, folder / "oracle.jsonl")
    assert (folder / "bulk.jsonl").read_bytes() == (folder / "oracle.jsonl").read_bytes()


def test_chunks_hold_whole_tracks():
    with mock.patch.object(io, "_CHUNK_POINTS", 10):
        chunks = list(io._chunks([4, 4, 4, 12, 2, 10, 3]))
        assert chunks == [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
        assert list(io._chunks([])) == []
