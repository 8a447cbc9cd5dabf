"""Exception hierarchy shared by all kummerlab modules.

Every domain error raised by the library derives from :class:`KummerlabError`
so that the command line harness can map failures to a stable exit code.
Errors that indicate a broken internal invariant (a postcondition replay
failing, an exact identity not holding) derive from
:class:`InternalInvariantError` instead and map to a distinct exit code.
"""

from __future__ import annotations


class KummerlabError(Exception):
    """Base class for precondition and domain failures (CLI exit code 2)."""


class InternalInvariantError(Exception):
    """A postcondition or internal consistency check failed (CLI exit code 3)."""


# ---------------------------------------------------------------------------
# lattice layer

class DimensionMismatchError(KummerlabError):
    pass


class NonInvertibleError(KummerlabError):
    pass


class NotIsometryError(KummerlabError):
    pass


class SplitViolationError(KummerlabError):
    pass


class WrongRankError(KummerlabError):
    pass


class WrongSignatureError(KummerlabError):
    pass


class UnsupportedDegreeError(KummerlabError):
    pass


class SearchExhaustedError(KummerlabError):
    """A bounded integer search ended without a witness; no bound formula is guessed."""


class PreconditionError(KummerlabError):
    pass


# ---------------------------------------------------------------------------
# torus layer

class NotHyperbolicError(KummerlabError):
    pass


class DegeneratePeriodError(KummerlabError):
    pass


class CapExceededError(KummerlabError):
    pass


class EmptyEnsembleError(KummerlabError):
    pass


class InsufficientSamplesError(KummerlabError):
    pass


class DegenerateRadiiError(KummerlabError):
    pass


# ---------------------------------------------------------------------------
# surface layer

class DegenerateFiberError(KummerlabError):
    pass


class OffSurfaceError(KummerlabError):
    pass


class ChartFailureError(KummerlabError):
    pass


class TooFewSaddlesError(KummerlabError):
    pass


class IndeterminatePointError(KummerlabError):
    """Raised when an orbit reaches an indeterminacy locus.

    ``stage`` says where.  On (2,2,2) surfaces it is the index i of the
    involution sigma_i that met a degenerate fiber (1 moves x, 2 y, 3 z),
    or 0 when a point or chain image turns out non-finite; for plane
    Cremona compositions it is the 1-based index of the failing base
    point (None from sigma_q on its own).
    """

    def __init__(self, message: str, stage: int | None = None):
        super().__init__(message)
        self.stage = stage


class OnCubicError(KummerlabError):
    pass


class ConfigError(KummerlabError):
    pass
