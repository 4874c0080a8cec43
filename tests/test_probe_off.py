"""The golden label digests without the bulk decoder.

A platform whose long double is not x87 extended precision reads
every trajectory file line by line (``io._EXACT_DIVISION`` is False
there). The tests imported below run here a second time on that path;
``test_columnar_parse.TestRoundTrip`` covers the round trip on both.
"""

from __future__ import annotations

import pytest

from jitterseg import io, parse_trajectories

from test_golden_labels import test_label_file_digest, test_partial_tracks_digest  # noqa: F401


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
