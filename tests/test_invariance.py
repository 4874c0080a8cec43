"""Labels do not depend on trajectory order or on order-preserving id maps.

Per-block and fused labels must come out the same when the trajectories
are shuffled, in the ``TrajectoryStore`` tuple or in the lines of the
trajectory file, and when ids are relabeled by a strictly increasing map.

An arbitrary permutation of the ids is not a documented invariant:
within a grid cell a representative distance tie goes to the lowest id,
and the representatives enter the affinity matrix and k-means in id
order, so a map that reorders ids may pick other representatives or
another k-means start.
"""

from __future__ import annotations

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jitterseg import (
    SceneParams,
    SegmenterParams,
    Trajectory,
    TrajectoryStore,
    generate_scene,
    segment_store,
    serialize_trajectories,
)
from jitterseg.cli import run_cli
from jitterseg.errors import JittersegError

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)


@st.composite
def scenes(draw):
    """A multi-block store with partial tracks, its params and an rng."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_frames = draw(st.integers(30, 80))
    scene = generate_scene(
        SceneParams(
            n_bg=draw(st.integers(10, 30)),
            n_fg=draw(st.integers(4, 10)),
            n_frames=n_frames,
            sigma=draw(st.sampled_from([0.05, 0.15, 0.25])),
            seed=seed,
        )
    )
    rng = np.random.default_rng(seed)
    cut = draw(st.sampled_from([0.0, 0.3]))
    trajs = []
    for t in scene.store.trajectories:
        if rng.random() < cut:
            lo = int(rng.integers(0, n_frames - 2))
            hi = int(rng.integers(lo + 2, n_frames + 1))
            t = Trajectory(t.id, lo, t.points[lo:hi])
        trajs.append(t)
    store = TrajectoryStore(tuple(trajs), n_frames, scene.store.frame_size)
    params = SegmenterParams(max_block_len=draw(st.integers(15, 40)), seed=seed % 101)
    return store, params, rng


def _segment(store, params):
    """(per-block (range, labels) pairs, fused labels), or the error type."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            results, fused = segment_store(store, params)
        except JittersegError as exc:
            return type(exc)
    return [(r.block.frame_range, r.labels) for r in results], fused


@PROPERTY
@given(scenes())
def test_store_order(case):
    store, params, rng = case
    shuffled = tuple(store.trajectories[i] for i in rng.permutation(len(store)))
    other = TrajectoryStore(shuffled, store.n_frames_total, store.frame_size)
    assert _segment(other, params) == _segment(store, params)


@PROPERTY
@given(scenes())
def test_order_preserving_relabel(case):
    store, params, rng = case
    old = sorted(t.id for t in store.trajectories)
    new = np.cumsum(rng.integers(1, 10**9, size=len(old))) - 10**6
    to_new = dict(zip(old, new.tolist()))
    relabeled = TrajectoryStore(
        tuple(Trajectory(to_new[t.id], t.start_frame, t.points) for t in store.trajectories),
        store.n_frames_total,
        store.frame_size,
    )
    want = _segment(store, params)
    got = _segment(relabeled, params)
    if isinstance(want, type):
        assert got is want
        return
    blocks, fused = want
    mapped = [(span, {to_new[k]: v for k, v in labels.items()}) for span, labels in blocks]
    assert got == (mapped, {to_new[k]: v for k, v in fused.items()})


@settings(max_examples=15, deadline=None, derandomize=True)
@given(scenes())
def test_file_order(tmp_path_factory, case):
    store, params, rng = case
    tmp = tmp_path_factory.mktemp("order")
    sorted_file, shuffled_file = tmp / "sorted.jsonl", tmp / "shuffled.jsonl"
    serialize_trajectories(store, sorted_file)
    header, *records = sorted_file.read_text().splitlines(keepends=True)
    shuffled_file.write_text(header + "".join(records[i] for i in rng.permutation(len(records))))
    outputs = []
    for path in (sorted_file, shuffled_file):
        out = path.with_suffix(".labels")
        argv = ["segment", "--input", str(path), "--output", str(out)]
        argv += ["--max-block-len", str(params.max_block_len), "--seed", str(params.seed)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_cli(argv)
        outputs.append((code, out.read_bytes() if code == 0 else None))
    assert outputs[0] == outputs[1]

