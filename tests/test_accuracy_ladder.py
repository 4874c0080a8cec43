"""Accuracy ladder: fused accuracy of the whole pipeline on six seeded regimes.

The acceptance floors (0.95 / 0.90 / 0.85) sit far below what the
pipeline reaches, so they cannot tell whether a change that moves labels
made them better or worse. This ladder can. Each regime is a fixed list
of scenes, segmented with the default ``SegmenterParams``; its mean and
worst fused accuracy (``synth.metrics_from_labels``) and its labeled
fraction (labeled tracks over all tracks) must stay at or above the
floors below. Each floor is the value measured when it was set, rounded
down to 3 decimals; raise one only with the measurement that justifies
it. Run with ``-s`` to print the measured values.

Known failures stay in, named, and no seed is chosen around them:

- long_partial seed 3003: blocks [0, 60) and [180, 240) hold no
  foreground representative, so any two-way cut splits the background,
  and those labels vote in fusion (scene accuracy about 0.79, the
  regime's worst); so does block [180, 240) of long_partial seed 5021;
- straggler errors: background tracks labeled foreground by the nearest
  of two GPA means, where the foreground mean averages a few tight
  representatives and the background mean many spread ones (most of the
  remaining error in every regime, and all of dense seed 0's, heavy
  sigma 1.0 seed 5212's and long_partial seed 5004's, the worst scenes
  of their regimes: their representatives are all labeled right);
- long_partial's labeled fraction: tracks that cover less than 70% of a
  block are left unlabeled by design.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from jitterseg import SceneParams, SegmenterParams, generate_scene, segment_store
from jitterseg.synth import metrics_from_labels

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from partial_tracks import cut_tracks  # noqa: E402  (read-only use of the benchmark's cutter)


def _clips(sigma: float, base: int):
    return [(SceneParams(60, 20, 30, sigma, seed=base + s), False) for s in range(20)]


def _long_partial(base: int = 3000, count: int = 20):
    return [
        (
            SceneParams(
                270,
                30,
                240,
                0.15,
                frame_size=(1280, 720),
                camera_speed=0.3,
                object_speed=0.6,
                seed=base + s,
            ),
            True,
        )
        for s in range(count)
    ]


@dataclass(frozen=True)
class Rung:
    scenes: list
    mean: float
    worst: float
    labeled: float


# Floors (mean, worst, labeled fraction) from the values measured when
# the normalized-cut sweep replaced seeded 2-means: clips 0.9992 / 0.975
# / 1.0, heavy 0.9956 / 0.9625 / 1.0, long_partial 0.9540 / 0.7917 /
# 0.7347, dense 0.9873 / 0.7967 / 1.0 (2-means: 0.9702 / 0.5240 / 1.0).
LADDER = {
    "clips": Rung(_clips(0.05, 1000) + _clips(0.15, 1000) + _clips(0.25, 1000), 0.999, 0.975, 1.0),
    "heavy": Rung(_clips(0.40, 2000), 0.995, 0.962, 1.0),
    # Worst: seed 3003, two blocks without a foreground representative.
    "long_partial": Rung(_long_partial(), 0.953, 0.791, 0.734),
    # Worst: seed 0, whose remaining errors are all stragglers.
    "dense": Rung(
        [(SceneParams(3800, 200, 30, 0.15, seed=s), False) for s in range(16)], 0.987, 0.796, 1.0
    ),
    # Measured 0.9831 / 0.9375 / 1.0. Worst: seed 5212.
    "heavy_sigma_1": Rung(_clips(1.0, 5200), 0.983, 0.937, 1.0),
    # Measured 0.9639 / 0.8445 / 0.7287. Worst: seed 5004.
    "long_partial_5000": Rung(_long_partial(5000, 40), 0.963, 0.844, 0.728),
}


@pytest.mark.parametrize("name", list(LADDER))
def test_accuracy_ladder(name):
    rung = LADDER[name]
    accuracy, labeled = [], []
    for params, partial in rung.scenes:
        scene = generate_scene(params)
        if partial:
            scene = cut_tracks(scene, params.seed).scene
        _, fused = segment_store(scene.store, SegmenterParams())
        m = metrics_from_labels(fused, scene.ground_truth)
        accuracy.append(m.accuracy)
        labeled.append(m.n_labeled / len(scene.ground_truth))
    mean, worst, frac = float(np.mean(accuracy)), min(accuracy), float(np.mean(labeled))
    print(
        f"\nladder {name}: {len(accuracy)} scenes, mean {mean:.4f}, "
        f"worst {worst:.4f} (seed {rung.scenes[int(np.argmin(accuracy))][0].seed}), "
        f"labeled {frac:.4f}"
    )
    assert mean >= rung.mean
    assert worst >= rung.worst
    assert frac >= rung.labeled
