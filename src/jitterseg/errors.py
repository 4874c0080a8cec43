"""Exception and warning types shared across the package."""


class JittersegError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateTrajectory(JittersegError):
    """All points of a configuration coincide; its shape is undefined."""


class ShapeMismatch(JittersegError):
    """Operands have different frame counts and cannot be compared."""


class InvalidParameter(JittersegError):
    """A parameter is outside its documented domain."""


# The value types raise these from their constructors. Each is also a
# ValueError, so code that catches ValueError keeps working.


class InvalidAffinity(JittersegError, ValueError):
    """An affinity matrix is not square, symmetric, unit-diagonal and in (0, 1]."""


class InvalidTrajectory(JittersegError, ValueError):
    """Trajectory points are not an (N, 2) array with N >= 2, or start before frame 0."""


class InvalidPreShape(JittersegError, ValueError):
    """A configuration is not an (N, 2) array with N >= 2, centered and of unit norm."""


class InvalidRotation(JittersegError, ValueError):
    """A matrix is not a 2x2 proper rotation."""


class InvalidBlock(JittersegError, ValueError):
    """A block's frame range is empty."""


class InvalidAssignment(JittersegError, ValueError):
    """Cluster labels are not all 0 or 1, or leave one of the two clusters empty."""


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
    """A synthetic scene configuration yields a scene with little or no shape.

    Either its trajectories are motionless (a static camera without
    jitter), or its jitter clips most points onto the frame border.
    """
