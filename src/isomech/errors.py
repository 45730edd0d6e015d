"""Exception hierarchy shared across the package."""


class IsomechError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(IsomechError, ValueError):
    """A parameter lies outside its admissible domain (e.g. a boundary mean)."""


class ValidationError(IsomechError, ValueError):
    """Structurally invalid input: bad permutation, NaN scores, schema violation."""


class AuthorRowError(ValidationError):
    """A refused row of an author table; carries its index in file order in ``row``."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class AssumptionViolatedError(IsomechError):
    """A variance-floor check failed on the verification grid.

    Carries the offending mean value in ``mu``.
    """

    def __init__(self, message: str, mu: float):
        super().__init__(message)
        self.mu = mu


class ConstructionFailedError(IsomechError):
    """A randomized construction (codeword packing) failed after its retry cap."""
