"""Sparse moving-object segmentation for jittery videos.

Point trajectories are modeled as planar shapes; clustering them by
their Procrustes-aligned shapes separates a single moving object from
the background even under heavy camera shake. Includes a synthetic jittery-scene
benchmark and a CLI (``jitterseg segment | synth | eval``).
"""

from . import errors
from .alignment import GpaResult, StabilizedMean, back_transform, gpa_align, stabilize_mean
from .clustering import (
    AffinityMatrix,
    ClusterAssignment,
    build_affinity,
    spectral_cluster,
)
from .io import (
    LabelFileData,
    parse_labels,
    parse_trajectories,
    serialize_labels,
    serialize_trajectories,
)
from .segmenter import (
    Block,
    BlockResult,
    SegmenterParams,
    TrajectoryStore,
    assign_stragglers,
    fuse_blocks,
    partition_blocks,
    segment_block,
    segment_store,
    select_representatives,
)
from .shapes import (
    PreShape,
    Rotation2D,
    Trajectory,
    optimal_rotation,
    procrustes_distance,
    project_to_preshape,
    to_preshape,
)
from .synth import (
    LabeledScene,
    Metrics,
    SceneParams,
    evaluate,
    fuse_jitter,
    generate_scene,
    metrics_from_labels,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Trajectory",
    "PreShape",
    "Rotation2D",
    "to_preshape",
    "project_to_preshape",
    "optimal_rotation",
    "procrustes_distance",
    "AffinityMatrix",
    "ClusterAssignment",
    "build_affinity",
    "spectral_cluster",
    "GpaResult",
    "StabilizedMean",
    "gpa_align",
    "stabilize_mean",
    "back_transform",
    "TrajectoryStore",
    "Block",
    "SegmenterParams",
    "BlockResult",
    "partition_blocks",
    "select_representatives",
    "segment_block",
    "assign_stragglers",
    "fuse_blocks",
    "segment_store",
    "SceneParams",
    "LabeledScene",
    "Metrics",
    "generate_scene",
    "fuse_jitter",
    "evaluate",
    "metrics_from_labels",
    "LabelFileData",
    "parse_trajectories",
    "serialize_trajectories",
    "parse_labels",
    "serialize_labels",
    "__version__",
]
