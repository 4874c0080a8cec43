"""Output checks for one ``segment`` run, and the workload's label digest."""

from __future__ import annotations

import hashlib
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from jitterseg.errors import JittersegError
from jitterseg.io import LabelFileData, parse_labels, serialize_labels


class OutputError(Exception):
    """A label file that fails one of the benchmark's output checks."""


@dataclass(frozen=True)
class CheckedOutput:
    labels: LabelFileData
    raw: bytes


def check_output(
    rc: int, path: Path, ids: AbstractSet[int], n_frames: int, copy_path: Path
) -> CheckedOutput:
    """Raise OutputError unless the run succeeded and its label file is sound.

    Sound means: it parses, re-serializes to the same bytes, holds only
    0/1 labels, its fused ids all exist in the input, and its block
    ranges tile ``[0, n_frames)`` in order. The re-serialized copy is
    written to ``copy_path``.
    """
    if rc != 0:
        raise OutputError(f"segment exited with code {rc}")
    try:
        raw = path.read_bytes()
        data = parse_labels(path)
        _reserialize(data, copy_path)
        again = copy_path.read_bytes()
    except (JittersegError, OSError, ValueError) as exc:
        raise OutputError(f"label file does not parse: {exc}") from None
    if again != raw:
        raise OutputError("label file does not round-trip through parse_labels")
    for _, labels in data.blocks:
        if any(v not in (0, 1) for v in labels.values()):
            raise OutputError("block label outside {0, 1}")
    if any(v not in (0, 1) for v in data.fused.values()):
        raise OutputError("fused label outside {0, 1}")
    unknown = data.fused.keys() - ids
    if unknown:
        raise OutputError(f"fused labels for {len(unknown)} ids not in the input")
    edge = 0
    for (start, end), _ in data.blocks:
        if start != edge or end <= start:
            raise OutputError(f"block range [{start}, {end}) does not continue at {edge}")
        edge = end
    if edge != n_frames:
        raise OutputError(f"block ranges end at {edge}, not {n_frames}")
    return CheckedOutput(data, raw)


def _reserialize(data: LabelFileData, path: Path) -> None:
    """Write parsed labels back through the program's own writer."""
    blocks = [
        SimpleNamespace(block=SimpleNamespace(start=start, end=end), labels=labels)
        for (start, end), labels in data.blocks
    ]
    serialize_labels(path, data.fused, blocks, data.params)


def label_digest(outputs: list[bytes]) -> str:
    """SHA-256 over the label files of one pass, in scene order."""
    h = hashlib.sha256()
    for raw in outputs:
        h.update(len(raw).to_bytes(8, "little"))
        h.update(raw)
    return h.hexdigest()
