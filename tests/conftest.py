"""Shared helpers: seeded shape factories and brute-force oracles."""

from __future__ import annotations

import json
import warnings
from itertools import chain

import numpy as np

from jitterseg import (
    BlockResult,
    PreShape,
    Trajectory,
    TrajectoryStore,
    back_transform,
    build_affinity,
    gpa_align,
    procrustes_distance,
    project_to_preshape,
    select_representatives,
    spectral_cluster,
    stabilize_mean,
)
from jitterseg.errors import (
    BoundsError,
    DegenerateTrajectory,
    DuplicateId,
    InvalidParameter,
    NoSharedTrajectories,
    ParseError,
)
from jitterseg.io import DuplicateKey, _is_int, _parse_header, _valid_points, unique_keys
from jitterseg.shapes import stack_preshapes, unit_phase

# Hypothesis's pytest plugin imports this module to report a failing
# example. It imports libcst, which subclasses ``mypy_extensions.TypedDict``;
# under ``-W error::DeprecationWarning`` that warning raises inside the
# plugin and stops the whole run before the example is shown. Import it
# once here with only that warning ignored. Without libcst there is
# nothing to import, and the plugin reports without it.
try:
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"mypy_extensions\.TypedDict is deprecated", DeprecationWarning
        )
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_preshape(rng: np.random.Generator, n: int = 30) -> PreShape:
    return project_to_preshape(rng.standard_normal((n, 2)))


def random_trajectory_points(rng: np.random.Generator, n: int = 30) -> np.ndarray:
    """A plausible pixel-scale track: smooth drift plus noise."""
    start = rng.uniform(50, 500, size=2)
    velocity = rng.uniform(-3, 3, size=2)
    f = np.arange(n, dtype=float)[:, None]
    return start + f * velocity + rng.normal(0, 2.0, size=(n, 2))


_ANGLE_GRID_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _angle_grid(n_angles: int):
    if n_angles not in _ANGLE_GRID_CACHE:
        theta = (2.0 * np.pi / n_angles) * np.arange(n_angles)
        _ANGLE_GRID_CACHE[n_angles] = (theta, np.cos(theta), np.sin(theta))
    return _ANGLE_GRID_CACHE[n_angles]


def residual_at_angle(a: PreShape, b: PreShape, theta: float) -> float:
    """||a - b R(theta)||_F evaluated literally from its definition."""
    return float(np.linalg.norm(a.config - b.config @ rotation_matrix(theta)))


def grid_search_rotation(
    a: PreShape, b: PreShape, n_angles: int = 1_000_000
) -> tuple[float, float]:
    """Brute-force (min distance, argmin angle) of ||a - b R(theta)||_F.

    Expanding the squared residual row by row, the theta-dependent part of
    ||a - b R(theta)||^2 is exactly -2 (P cos + Q sin) with
    P = sum(ax bx + ay by) and Q = sum(ax by - ay bx); the rotation leaves
    ||b R(theta)|| unchanged. The grid search evaluates that closed
    expansion on an even grid over [0, 2pi) -- no SVD anywhere. Use
    ``residual_at_angle`` to spot-check the expansion against the raw
    definition.
    """
    theta, c, s = _angle_grid(n_angles)
    ax, ay = a.config[:, 0], a.config[:, 1]
    bx, by = b.config[:, 0], b.config[:, 1]
    p = float(np.sum(ax * bx + ay * by))
    q = float(np.sum(ax * by - ay * bx))
    norms = float(np.sum(a.config**2) + np.sum(b.config**2))
    d2 = norms - 2.0 * (p * c + q * s)
    i = int(np.argmin(d2))
    return float(np.sqrt(max(d2[i], 0.0))), float(theta[i])


def svd_rotation_matrix(target: np.ndarray, source: np.ndarray) -> np.ndarray:
    """SO(2) matrix G minimizing ||target - source @ G||_F, via a 2x2 SVD.

    The real-matrix solution the package used before its complex closed
    form: the orthogonal minimizer of SVD(source.T @ target) = U S Vt is
    U @ Vt; forcing det +1 flips the sign of the smaller singular direction
    when the unconstrained solution is a reflection.
    """
    u, _, vt = np.linalg.svd(source.T @ target)
    sign = 1.0 if np.linalg.det(u @ vt) >= 0.0 else -1.0
    return u @ np.diag([1.0, sign]) @ vt


def oracle_affinity(shapes, omega: float) -> np.ndarray:
    """exp(-d/omega) with one SVD rotation per pair, pair by pair."""
    k = len(shapes)
    values = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            a, b = shapes[i].config, shapes[j].config
            d = np.linalg.norm(a - b @ svd_rotation_matrix(a, b))
            values[i, j] = values[j, i] = np.exp(-d / omega)
    return values


def oracle_affinity_rows(shapes, omega: float) -> np.ndarray:
    """``build_affinity``'s values from the literal residual of every pair, one row at a time.

    Row i takes ``z_i - u_ij z_j`` against every later shape j, where the
    phases u come from one Gram matrix; the elementwise operations and the
    last-axis sum are those ``build_affinity`` runs on the pairs it takes
    literally, those closer than ``clustering.LITERAL_BELOW``.
    """
    z = stack_preshapes(shapes)
    phase = unit_phase(z @ z.conj().T)
    k = len(z)
    dist = np.zeros((k, k))
    for i in range(k - 1):
        resid = z[i] - phase[i, i + 1 :, None] * z[i + 1 :]
        dist[i, i + 1 :] = np.sqrt(np.sum(resid.real**2 + resid.imag**2, axis=1))
    dist = dist + dist.T
    values = np.exp(-dist / omega)
    np.fill_diagonal(values, 1.0)
    return values


def _oracle_objective(rotated):
    mean = np.mean(rotated, axis=0)
    obj = sum(float(np.sum((r - mean) ** 2)) for r in rotated) / len(rotated)
    return obj, mean


def oracle_gpa(shapes, members, tol: float = 1e-10, max_sweeps: int = 50):
    """Alternating Procrustes with one SVD rotation per member and sweep.

    Same start (identity), stop rules and gauge (first member's rotation
    is the identity) as ``gpa_align``. Returns (rotation matrices, mean,
    objective, sweep objectives).
    """
    configs = [shapes[i].config for i in members]
    rotations = [np.eye(2) for _ in configs]
    obj, mean = _oracle_objective(configs)
    history = [obj]
    for _ in range(max_sweeps):
        if obj < tol:
            break
        rotations = [svd_rotation_matrix(mean, c) for c in configs]
        new_obj, mean = _oracle_objective([c @ r for c, r in zip(configs, rotations)])
        history.append(new_obj)
        decrease = obj - new_obj
        obj = new_obj
        if decrease < tol:
            break
    first = rotations[0]
    if not np.array_equal(first, np.eye(2)):
        rotations = [r @ first.T for r in rotations]
        rotations[0] = np.eye(2)
        obj, mean = _oracle_objective([c @ r for c, r in zip(configs, rotations)])
    return rotations, mean, obj, tuple(history)


def oracle_assign_stragglers(result, store, block, params) -> dict[int, int]:
    """Straggler labels computed one trajectory at a time.

    The loop ``assign_stragglers`` ran before it batched the candidates by
    overlap window: per track, project the cropped track and each cropped
    mean on their own and take ``procrustes_distance`` pair by pair.
    """
    labels = dict(result.labels)
    for t in sorted(store.trajectories, key=lambda tr: tr.id):
        if t.id in labels:
            continue
        lo = max(block.start, t.start_frame)
        hi = min(block.end, t.end_frame)
        if hi - lo < 2:
            continue
        if (hi - lo) / block.length < params.span_threshold - 1e-9:
            continue
        try:
            t_pre = project_to_preshape(t.points[lo - t.start_frame : hi - t.start_frame])
        except DegenerateTrajectory:
            continue
        dists = []
        for mean in result.means:
            try:
                m_pre = project_to_preshape(mean[lo - block.start : hi - block.start])
            except DegenerateTrajectory:
                dists.append(np.inf)
                continue
            dists.append(procrustes_distance(t_pre, m_pre))
        d_min = min(dists)
        if not np.isfinite(d_min):
            continue
        labels[t.id] = next(i for i, d in enumerate(dists) if d < d_min + 1e-12)
    return labels


def oracle_representatives(store, block, params) -> list[int]:
    """``select_representatives`` one track and one grid cell at a time.

    The spanning tracks are found by brute force over the store, in store
    order. A track whose block window ``project_to_preshape`` refuses as
    motionless is passed over; each occupied cell of the block's first
    frame keeps its track of smallest (distance to the cell center, id).
    Returns the ids in ascending order, however few; a block under three
    frames has none.
    """
    if block.length < 3:
        return []
    g = params.grid_cells
    cell_w, cell_h = store.frame_size[0] / g, store.frame_size[1] / g
    best: dict[tuple[int, int], tuple[float, int]] = {}
    for t in store.trajectories:
        if not (t.start_frame <= block.start and block.end <= t.end_frame):
            continue
        window = t.points[block.start - t.start_frame : block.end - t.start_frame]
        try:
            project_to_preshape(window)
        except DegenerateTrajectory:
            continue
        x, y = window[0]
        cell = (min(int(x // cell_w), g - 1), min(int(y // cell_h), g - 1))
        d = (x - (cell[0] + 0.5) * cell_w) ** 2 + (y - (cell[1] + 0.5) * cell_h) ** 2
        best[cell] = min(best.get(cell, (d, t.id)), (d, t.id))
    return sorted(tid for _, tid in best.values())


def oracle_segment_block(store, block, params, *, rounds: int, jacobi_iters: int) -> BlockResult:
    """``segment_block`` as its former multi-round, per-member loop.

    The representatives are those of ``select_representatives``. Each is
    its own ``PreShape``. Every one of ``rounds`` rounds clusters them,
    aligns each cluster with GPA, smooths its mean with ``stabilize_mean``
    (weight ``params.lam``, ``jacobi_iters`` sweeps), rebuilds every member
    with ``back_transform`` and re-projects it; the last round's smoothed
    means label the stragglers through ``oracle_assign_stragglers``.
    """
    reps = select_representatives(store, block, params)
    shapes = []
    for r in reps:
        t = store.by_id[r]
        shapes.append(
            project_to_preshape(t.points[block.start - t.start_frame : block.end - t.start_frame])
        )
    for _ in range(rounds):
        assignment = spectral_cluster(build_affinity(shapes, params.omega))
        new_shapes = list(shapes)
        means = []
        for c in (0, 1):
            idx = assignment.members(c)
            gpa = gpa_align(shapes, idx)
            smean = stabilize_mean(gpa.mean, params.lam, jacobi_iters)
            means.append(smean.config)
            for i, cfg in zip(idx, back_transform(smean, gpa.rotations)):
                new_shapes[i] = project_to_preshape(cfg)
        shapes = new_shapes
    labels = {reps[i]: assignment.labels[i] for i in range(len(reps))}
    partial = BlockResult(block, labels, tuple(means))
    labels = oracle_assign_stragglers(partial, store, block, params)
    return BlockResult(block, labels, tuple(means))


def _oracle_oriented(labels, flip: bool) -> dict[int, int]:
    return {k: (1 - v if flip else v) for k, v in labels.items()}


def _oracle_bbox_area(points) -> float:
    if not points:
        return np.inf
    arr = np.array(points)
    extents = arr.max(axis=0) - arr.min(axis=0)
    return float(extents[0] * extents[1])


def _oracle_foreground_flip(result, store, flip: bool) -> bool:
    frame = result.block.start
    pts = {0: [], 1: []}
    for tid, raw in result.labels.items():
        t = store.by_id[tid]
        if not t.start_frame <= frame < t.end_frame:
            continue
        pts[1 - raw if flip else raw].append(t.points[frame - t.start_frame])
    return _oracle_bbox_area(pts[0]) < _oracle_bbox_area(pts[1])


def oracle_fuse_blocks(results, store) -> dict[int, int]:
    """``fuse_blocks`` as its former four passes.

    Chain each labeled block to the previous one (a flip list and a list
    of runs), re-flip every run whose head the bounding box flips, copy
    each block's oriented labels into per-track ``(block, label)`` vote
    lists, and take the majority, ties to ``min(entries)``.
    """
    if not results:
        raise InvalidParameter("need at least one block result")
    for r in results:
        if any(v not in (0, 1) for v in r.labels.values()):
            raise InvalidParameter("fuse_blocks requires binary labels")
    results = [r for r in results if r.labels]
    if not results:
        return {}

    flips = [False]
    segments = [[0]]
    for b in range(1, len(results)):
        prev = _oracle_oriented(results[b - 1].labels, flips[b - 1])
        cur = results[b].labels
        shared = prev.keys() & cur.keys()
        if not shared:
            warnings.warn(
                NoSharedTrajectories(
                    f"blocks {results[b - 1].block.frame_range} and "
                    f"{results[b].block.frame_range} share no labeled trajectory; "
                    "orienting the later run by bounding box"
                )
            )
            flips.append(False)
            segments.append([b])
        else:
            agree = sum(prev[tid] == cur[tid] for tid in shared)
            flips.append(2 * agree < len(shared))
            segments[-1].append(b)

    for seg in segments:
        head = seg[0]
        if _oracle_foreground_flip(results[head], store, flips[head]):
            for b in seg:
                flips[b] = not flips[b]

    votes: dict[int, list[tuple[int, int]]] = {}
    for b, result in enumerate(results):
        for tid, lab in _oracle_oriented(result.labels, flips[b]).items():
            votes.setdefault(tid, []).append((b, lab))
    fused = {}
    for tid in sorted(votes):
        entries = votes[tid]
        ones = sum(lab for _, lab in entries)
        if 2 * ones > len(entries):
            fused[tid] = 1
        elif 2 * ones < len(entries):
            fused[tid] = 0
        else:
            fused[tid] = min(entries)[1]
    return fused


# The former k-means stage's iteration cap and re-seeded restarts.
_KMEANS_MAX_ITERS = 100
_KMEANS_RESTARTS = 5


def oracle_spectral_cluster(values: np.ndarray, m: int, seed: int) -> tuple[int, ...] | None:
    """``spectral_cluster`` as its former m-way, seeded k-means version.

    Embeds with the eigenvectors of the m smallest Laplacian eigenvalues,
    flips each column so its first nonzero component is positive,
    row-normalizes, then runs farthest-first seeded k-means with up to
    five re-seeded restarts. Returns the labels, or None when every
    restart empties a cluster.
    """
    degrees = values.sum(axis=1)
    d_isqrt = 1.0 / np.sqrt(degrees)
    lap = np.eye(len(values)) - d_isqrt[:, None] * values * d_isqrt[None, :]
    lap = (lap + lap.T) / 2.0
    emb = np.linalg.eigh(lap)[1][:, :m].copy()
    for col in range(m):
        for x in emb[:, col]:
            if x != 0.0:
                if x < 0.0:
                    emb[:, col] = -emb[:, col]
                break
    norms = np.linalg.norm(emb, axis=1)
    emb[norms > 0.0] /= norms[norms > 0.0, None]
    for attempt in range(1 + _KMEANS_RESTARTS):
        rng = np.random.default_rng(seed + attempt)
        chosen = [int(rng.integers(len(emb)))]
        dist = np.linalg.norm(emb - emb[chosen[0]], axis=1)
        while len(chosen) < m:
            nxt = int(np.argmax(dist))
            chosen.append(nxt)
            dist = np.minimum(dist, np.linalg.norm(emb - emb[nxt], axis=1))
        centers = emb[chosen].copy()
        labels = np.full(len(emb), -1, dtype=int)
        for _ in range(_KMEANS_MAX_ITERS):
            d2 = ((emb[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = np.argmin(d2, axis=1)
            if np.any(np.bincount(new_labels, minlength=m) == 0):
                labels = None
                break
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for c in range(m):
                centers[c] = emb[labels == c].mean(axis=0)
        if labels is not None:
            return tuple(int(x) for x in labels)
    return None


def oracle_ncut(values: np.ndarray, y: np.ndarray) -> dict[tuple[int, ...], float]:
    """Every threshold cut of ``y`` and its normalized cut, summed directly.

    For each value ``t`` of ``y`` below its maximum, the side ``y <= t``
    against the rest; the cut is the sum of the affinities across,
    each volume the sum of its side's degrees. Keys are the labels with
    representative 0 on side 0.
    """
    k = len(values)
    cuts = {}
    for t in sorted(set(y.tolist()))[:-1]:
        side = [1 if y[i] > t else 0 for i in range(k)]
        cut = vol = total = 0.0
        for i in range(k):
            for j in range(k):
                total += values[i, j]
                if side[i] == 0:
                    vol += values[i, j]
                    if side[j] == 1:
                        cut += values[i, j]
        labels = tuple(s ^ side[0] for s in side)
        cuts[labels] = cut / vol + cut / (total - vol)
    return cuts


def _oracle_is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def oracle_valid_points(pts) -> bool:
    """The trajectory parser's former per-value check of a 'points' value."""
    return not (
        not isinstance(pts, list)
        or len(pts) < 2
        or any(
            not isinstance(p, list) or len(p) != 2 or not all(_oracle_is_number(v) for v in p)
            for p in pts
        )
    )


def oracle_parse_trajectories(path) -> TrajectoryStore:
    """The trajectory parser as it was before it became columnar.

    Every record is checked on its own as it is read, its points converted
    with one ``np.fromiter`` and checked for finiteness and frame bounds
    with per-track reductions; each track is its own ``Trajectory``.
    """
    header = None
    trajectories = []
    seen = set()
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line, object_pairs_hook=unique_keys)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", lineno) from None
            except DuplicateKey as exc:
                raise ParseError(str(exc), lineno) from None
            except ValueError:  # more digits than int() converts
                raise ParseError("invalid JSON (integer too long)", lineno) from None
            if not isinstance(rec, dict):
                raise ParseError("record is not an object", lineno)
            if header is None:
                header = _parse_header(rec, lineno)
                continue
            trajectories.append(_oracle_parse_record(rec, lineno, header, seen))
    if header is None:
        raise ParseError("missing header record", 1)
    frames, width, height = header
    return TrajectoryStore(tuple(trajectories), frames, (width, height))


def _oracle_parse_record(rec: dict, lineno: int, header, seen: set) -> Trajectory:
    frames, width, height = header
    for key in ("id", "start", "points"):
        if key not in rec:
            raise ParseError(f"record missing '{key}'", lineno)
    if not _is_int(rec["id"]) or not _is_int(rec["start"]):
        raise ParseError("'id' and 'start' must be integers", lineno)
    if not -(2**63) <= rec["id"] <= 2**63 - 1:
        raise ParseError("'id' must fit in a 64-bit integer", lineno)
    pts = rec["points"]
    if not _valid_points(pts):
        raise ParseError("'points' must be a list of >= 2 [x, y] pairs", lineno)
    tid, start = rec["id"], rec["start"]
    if tid in seen:
        raise DuplicateId(f"line {lineno}: trajectory id {tid} appears twice")
    seen.add(tid)
    if start < 0 or start + len(pts) > frames:
        raise BoundsError(
            f"line {lineno}: trajectory {tid} covers frames outside [0, {frames})"
        )
    try:
        arr = np.fromiter(chain.from_iterable(pts), dtype=float, count=2 * len(pts))
    except OverflowError:
        raise ParseError(
            f"trajectory {tid} has an integer coordinate too large for a float", lineno
        ) from None
    arr = arr.reshape(-1, 2)
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"trajectory {tid} has a non-finite coordinate", lineno)
    if (
        arr[:, 0].min() < 0
        or arr[:, 0].max() > width
        or arr[:, 1].min() < 0
        or arr[:, 1].max() > height
    ):
        raise BoundsError(f"line {lineno}: trajectory {tid} leaves the frame bounds")
    return Trajectory(tid, start, arr)


def oracle_store_check(trajectories, n_frames_total: int, frame_size) -> None:
    """``TrajectoryStore``'s former per-track checks: ids, end frames, bounds."""
    width, height = frame_size
    seen = set()
    for t in trajectories:
        if t.id in seen:
            raise DuplicateId(f"trajectory id {t.id} appears twice")
        seen.add(t.id)
        if t.end_frame > n_frames_total:
            raise BoundsError(f"trajectory {t.id} extends past frame {n_frames_total - 1}")
        x, y = t.points[:, 0], t.points[:, 1]
        if x.min() < 0 or x.max() > width or y.min() < 0 or y.max() > height:
            raise BoundsError(f"trajectory {t.id} leaves the frame bounds")


def oracle_windows(store, k, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """``TrajectoryStore.windows`` one track and one frame at a time.

    Row ``r`` holds the ``k[r]``-th track in id order over frames
    [lo, hi) as x + iy, zero where the track does not cover a frame, and
    the mask says which frames it covers.
    """
    tracks = sorted(store.trajectories, key=lambda t: t.id)
    z = np.zeros((len(k), hi - lo), dtype=complex)
    mask = np.zeros((len(k), hi - lo), dtype=bool)
    for row, i in enumerate(k):
        t = tracks[i]
        for f in range(lo, hi):
            if t.start_frame <= f < t.end_frame:
                x, y = t.points[f - t.start_frame]
                z[row, f - lo] = complex(x, y)
                mask[row, f - lo] = True
    return z, mask
