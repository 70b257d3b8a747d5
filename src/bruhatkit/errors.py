"""Exception taxonomy shared by all bruhatkit modules.

Each concrete class carries the CLI's exit status for its errors as
``exit_code``.
"""


class BruhatkitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(BruhatkitError, ValueError):
    """Malformed input: an unknown family, a rank the family does not
    admit, index out of range, non-reduced word, unparsable element
    notation, mismatched root systems."""

    exit_code = 2


class PreconditionError(BruhatkitError):
    """A mathematical hypothesis of the requested operation fails
    (e.g. I is not contained in the left descent set of w)."""

    exit_code = 3


class NotComparableError(PreconditionError):
    """u <= v was required but does not hold; the interval [u, v] is empty."""


class FormulaUnavailableError(PreconditionError):
    """The group acts on the partial-flag Schubert variety but not on the
    full-flag one, so the complexity value cannot be transferred; no number
    is returned for this configuration."""


class GroupTooLargeError(BruhatkitError):
    """Group enumeration refused because |W| exceeds the configured cap."""

    exit_code = 4

    def __init__(self, message: str, order: int, cap: int):
        super().__init__(message)
        self.order = order
        self.cap = cap
