"""Per-layer spans recorded from outside the program.

The pipeline's modules bind each other's functions into their own
namespaces (``from .clustering import build_affinity``), so a span has to
be installed at the name the *caller* looks up: ``jitterseg.segmenter``'s
``build_affinity``, not ``jitterseg.clustering``'s. ``TARGETS`` lists
those lookup sites. ``build_affinity`` is a leaf: its ~10^5 inner pair
calls per block would swamp the trace.

Each thread keeps its own span stack, because ``segment_store`` runs
blocks on a thread pool. A span opened on a pool thread with an empty
stack is attributed to the span open on the main thread at that moment
(``segment_store``).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from jitterseg.errors import NoSharedTrajectories

# (module, name) pairs: where each traced function is looked up by its caller.
TARGETS = (
    ("jitterseg.cli", "parse_trajectories"),
    ("jitterseg.cli", "segment_store"),
    ("jitterseg.cli", "serialize_labels"),
    ("jitterseg.segmenter", "partition_blocks"),
    ("jitterseg.segmenter", "segment_block"),
    ("jitterseg.segmenter", "fuse_blocks"),
    ("jitterseg.segmenter", "select_representatives"),
    ("jitterseg.segmenter", "project_to_preshape"),
    ("jitterseg.segmenter", "build_affinity"),
    ("jitterseg.segmenter", "spectral_cluster"),
    ("jitterseg.segmenter", "gpa_align"),
    ("jitterseg.segmenter", "stabilize_mean"),
    ("jitterseg.segmenter", "back_transform"),
    ("jitterseg.segmenter", "assign_stragglers"),
    ("jitterseg.segmenter", "procrustes_distance"),
)


@dataclass
class Span:
    name: str
    parent: str | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.wall - self.child_s


def _observe_reps(info, args, result):
    info["reps"] = len(result)


def _observe_affinity(info, args, result):
    k = result.values.shape[0]
    info["pairs"] = k * (k - 1) // 2


def _observe_gpa(info, args, result):
    info["sweeps"] = len(result.sweep_objectives) - 1


def _observe_stragglers(info, args, result):
    block_result, store, block = args[0], args[1], args[2]
    info["candidates"] = sum(
        1
        for t in store.trajectories
        if t.id not in block_result.labels
        and min(block.end, t.end_frame) - max(block.start, t.start_frame) >= 2
    )
    info["labeled"] = len(result) - len(block_result.labels)


def _observe_fuse(info, args, result):
    info["boundaries"] = len(args[0]) - 1


_OBSERVERS = {
    "select_representatives": _observe_reps,
    "build_affinity": _observe_affinity,
    "gpa_align": _observe_gpa,
    "assign_stragglers": _observe_stragglers,
    "fuse_blocks": _observe_fuse,
}


class Tracer:
    """Collects spans from wrappers installed with ``installed()``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and stack is not self._main_stack and self._main_stack:
            parent_name = self._main_stack[-1].name
        else:
            parent_name = parent.name if parent else None
        span = Span(name, parent_name, time.perf_counter())
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += span.wall
            with self._lock:
                self.spans.append(span)
        observe = _OBSERVERS.get(name)
        if observe is not None:
            observe(span.info, args, result)
        return result

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn):
        if name == "fuse_blocks":
            fn = self._count_no_shared(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def _count_no_shared(self, fn):
        """Count NoSharedTrajectories warnings into the open span, then
        re-emit every caught warning."""

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            self._stack()[-1].info["no_shared"] = sum(
                isinstance(w.message, NoSharedTrajectories) for w in caught
            )
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        return counting

    @contextmanager
    def installed(self):
        """Patch every target present in the program; restore on exit."""
        saved = []
        try:
            for module_name, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, name, None)
                if original is None:
                    continue
                saved.append((module, name, original))
                setattr(module, name, self._wrap(name, original))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)


def scene_totals(spans: list[Span]) -> dict[str, float]:
    """Per-scene sums: ``<name>.s`` wall, ``<name>.calls`` and info counts."""
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[f"{s.name}.s"] += s.wall
        totals[f"{s.name}.calls"] += 1
        for key, value in s.info.items():
            totals[f"{s.name}.{key}"] += value
        if s.name == "assign_stragglers":
            totals["assign_stragglers.self_s"] += s.self_s
    return totals
