"""Exception types shared across the package."""


class BordertreeError(Exception):
    """Base class for all domain errors."""


class BnFormatError(BordertreeError):
    """Malformed ``.bn`` or evidence text.  Carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CycleError(BordertreeError):
    """The parent graph contains a directed cycle."""


class NormalizationError(BordertreeError):
    """A CPT row does not sum to 1.  Carries the variable's id."""

    def __init__(self, message: str, var: int):
        self.var = var
        super().__init__(message)


class ImpossibleEvidenceError(BordertreeError):
    """The observed evidence has probability zero under the model."""


class EnumerationCapError(BordertreeError):
    """The brute-force joint table would exceed the configured cap."""


class TableCapError(BordertreeError):
    """A computed table would exceed ``factor.MAX_TABLE_ENTRIES`` entries, or
    a contraction would range over more variables than einsum can name."""


class NotSinglyConnectedError(BordertreeError):
    """A polytree-only operation was applied to a multiply connected graph."""
