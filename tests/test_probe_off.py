"""The golden digests without the bulk decoder and the bulk writer's digit search.

A platform whose long double is not x87 extended precision reads
every trajectory file line by line and writes every coordinate with
``repr`` (``io._EXACT_DIVISION`` is False there). The tests imported
below run here a second time on that path;
``test_columnar_parse.TestRoundTrip`` covers the round trip on both.
Where the probe holds, a benchmark scene must keep nearly all of its
coordinates on the bulk path, so that path cannot be lost unseen.
"""

from __future__ import annotations

import hashlib
from unittest import mock

import pytest

from jitterseg import generate_scene, io, parse_trajectories, serialize_trajectories

from test_golden_labels import test_label_file_digest, test_partial_tracks_digest  # noqa: F401
from test_golden_labels import PARTIAL_SCENE, PARTIAL_SCENE_DIGEST, cut_tracks

# This platform's probe, read before the fixture below turns it off.
PROBE = io._EXACT_DIVISION


@pytest.fixture(autouse=True, scope="module")
def _line_by_line_only():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "_EXACT_DIVISION", False)
        yield


def test_the_decoder_declines(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(
        '{"frames":3,"width":10,"height":10}\n{"id":0,"start":0,"points":[[1.5,2.5],[3.5,4.5]]}\n'
    )
    assert io._decode_compact(path) is None
    assert parse_trajectories(path).points.tolist() == [[1.5, 2.5], [3.5, 4.5]]


def _write_partial_scene(path) -> float:
    """Write the golden long_partial scene; the share of its coordinates
    whose digits the bulk path did not vouch for."""
    store = cut_tracks(generate_scene(PARTIAL_SCENE), PARTIAL_SCENE.seed).scene.store
    search, vouched = io._shortest_digits, []

    def spy(x):
        found = search(x)
        vouched.append(int(found[3].sum()))
        return found

    with mock.patch.object(io, "_shortest_digits", spy):
        serialize_trajectories(store, path)
    return 1 - sum(vouched) / store.points.size


def test_the_writer_takes_repr_for_every_coordinate(tmp_path):
    path = tmp_path / "scene.jsonl"
    assert _write_partial_scene(path) == 1
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PARTIAL_SCENE_DIGEST


@pytest.mark.skipif(not PROBE, reason="this platform writes every coordinate with repr")
def test_few_coordinates_leave_the_bulk_path(tmp_path, monkeypatch):
    monkeypatch.setattr(io, "_EXACT_DIVISION", True)
    path = tmp_path / "scene.jsonl"
    assert _write_partial_scene(path) <= 0.01
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PARTIAL_SCENE_DIGEST
