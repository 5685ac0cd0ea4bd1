"""Exception hierarchy shared by all cxsplit modules."""


class CxsplitError(Exception):
    """Base class for all cxsplit errors."""


class NotInCatalog(CxsplitError):
    """Requested scheme name is not a builtin."""


class ParseError(CxsplitError):
    """Malformed coefficient file; carries the offending line number."""

    def __init__(self, message, line_no=None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class ValidationError(CxsplitError):
    """A scheme invariant (consistency, symmetry, sign policy) or a problem value is invalid."""


class InvalidSequence(CxsplitError):
    """A stage sequence is empty."""


class NoSolutionFound(CxsplitError):
    """The kick conditions are degenerate or their solution misses the residual bar."""


class NoStableSolution(CxsplitError):
    """Solutions exist but all have some Re(b_i) <= 0."""

    def __init__(self, message, solutions=()):
        super().__init__(message)
        self.solutions = list(solutions)


class DesignScanUnreliable(CxsplitError):
    """Too many solve failures across the a1 scan grid."""


class StepFailed(CxsplitError):
    """A flow evaluation failed mid-step; carries the stage index."""

    def __init__(self, message, stage=None):
        super().__init__(message if stage is None else f"stage {stage}: {message}")
        self.stage = stage


class StepTooLarge(StepFailed):
    """Exponential argument would overflow: the step fails."""


class ReferenceInconsistent(CxsplitError):
    """The two independent reference oracles disagree."""


class ReferenceTooCostly(CxsplitError):
    """A reference to build would take its RK4 oracle past the state-update budget."""


class InsufficientData(CxsplitError):
    """Too few usable points for a slope fit."""


class RealTimeViolation(CxsplitError):
    """A frozen evaluation time acquired a nonzero imaginary part."""
