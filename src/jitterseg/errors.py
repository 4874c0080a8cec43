"""Exception and warning types shared across the package."""


class JittersegError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateTrajectory(JittersegError):
    """All points of a configuration coincide; its shape is undefined."""


class ShapeMismatch(JittersegError):
    """Operands have different frame counts and cannot be compared."""


class InvalidParameter(JittersegError):
    """A parameter is outside its documented domain."""


class InvalidAffinity(JittersegError, ValueError):
    """An affinity matrix is not square, symmetric, unit-diagonal and in (0, 1]."""


class ClusterCollapse(JittersegError):
    """k-means kept producing an empty cluster after all re-seeded restarts."""


class EmptyCluster(JittersegError):
    """An alignment was requested for an empty member set."""


class NoValidBlock(JittersegError):
    """No frame block satisfies the minimum spanning-trajectory fraction."""


class TooFewRepresentatives(JittersegError):
    """A block yields fewer representatives than clustering requires."""


class ParseError(JittersegError):
    """A trajectory or label file is malformed.

    Carries the 1-based line number of the offending record.
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BoundsError(JittersegError):
    """A record refers to frames or coordinates outside the declared bounds."""


class DuplicateId(JittersegError):
    """Two trajectory records share an id."""


class UnknownId(JittersegError):
    """A label refers to a trajectory id that does not exist."""


class NoSharedTrajectories(Warning):
    """Two consecutive blocks share no labeled trajectory.

    Cluster correspondence between them cannot be voted on; each side is
    oriented independently by the bounding-box heuristic.
    """


class BlockSkipped(Warning):
    """A block could not be segmented and is left unlabeled.

    The other blocks keep their labels; the skipped block's record in the
    label file is empty.
    """


class DegenerateScene(Warning):
    """A synthetic scene configuration produces motionless trajectories."""
