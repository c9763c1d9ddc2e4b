"""Exception types shared across the package."""


class CiprngError(Exception):
    """Base class for errors raised by this package."""


class FunctionFormatError(CiprngError):
    """A function file or string could not be parsed.

    Carries a 1-based line and column pointing at the offending token.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class MutationError(CiprngError):
    """A paired edit cannot be applied without losing balance."""


class ResourceLimitError(CiprngError):
    """An exhaustive operation exceeded a configured size or count cap."""


class ScriptExhaustedError(CiprngError):
    """A scripted entropy source ran out of values."""


class StreamTooShortError(CiprngError):
    """A statistical test received fewer bits, or other units of its
    count (`unit`), than its minimum."""

    def __init__(self, test: str, minimum: int, actual: int, *, unit: str = "bits"):
        super().__init__(
            f"{test}: stream of {actual} {unit} is below the test minimum of {minimum}"
        )
        self.test = test
        self.minimum = minimum
        self.actual = actual
