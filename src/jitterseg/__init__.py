"""Sparse moving-object segmentation for jittery videos.

Point trajectories are modeled as planar shapes; clustering them by
their Procrustes-aligned shapes separates a single moving object from
the background even under heavy camera shake. Includes a synthetic jittery-scene
benchmark and a CLI (``jitterseg segment | synth | eval``).
"""

from . import errors
from .io import (
    LabelFileData,
    parse_labels,
    parse_trajectories,
    serialize_labels,
    serialize_trajectories,
)
from .segmenter import Block, BlockResult, SegmenterParams, TrajectoryStore, segment_store
from .shapes import Trajectory
from .synth import LabeledScene, Metrics, SceneParams, evaluate, generate_scene, metrics_from_labels

# The pipeline's stages and shape primitives stay importable from the
# package for tests and experiments, but are not part of ``__all__``.
from .alignment import back_transform, gpa_align, stabilize_mean  # noqa: F401
from .clustering import (  # noqa: F401
    AffinityMatrix,
    ClusterAssignment,
    build_affinity,
    spectral_cluster,
)
from .segmenter import (  # noqa: F401
    assign_stragglers,
    fuse_blocks,
    partition_blocks,
    segment_block,
    select_representatives,
)
from .shapes import (  # noqa: F401
    PreShape,
    Rotation2D,
    optimal_rotation,
    procrustes_distance,
    project_to_preshape,
    to_preshape,
)
from .synth import fuse_jitter  # noqa: F401

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Trajectory",
    "TrajectoryStore",
    "SegmenterParams",
    "Block",
    "BlockResult",
    "segment_store",
    "SceneParams",
    "LabeledScene",
    "Metrics",
    "generate_scene",
    "evaluate",
    "metrics_from_labels",
    "LabelFileData",
    "parse_trajectories",
    "serialize_trajectories",
    "parse_labels",
    "serialize_labels",
    "__version__",
]
