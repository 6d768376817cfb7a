"""Exception types shared across the package."""


class FlowcleanError(Exception):
    """Base class for all flowclean errors."""


class MalformedCapture(FlowcleanError):
    """Capture file has a bad magic number or a truncated global header."""


class SchemaMismatch(FlowcleanError):
    """A tabular input file has the wrong header or a malformed row.

    Row errors name the file and the 1-based line of the bad row.
    """


class EmptyFlow(FlowcleanError):
    """Feature extraction was asked to process a flow with zero packets."""


class CounterOutOfRange(FlowcleanError):
    """Feature extraction was given a flow counter or timestamp beyond float64's range."""


class TooFewRows(FlowcleanError):
    """An operation needs more rows than the matrix provides."""


class ShapeMismatch(FlowcleanError):
    """Matrix, assignment, and centroid shapes do not agree."""


class ParseError(FlowcleanError):
    """A rule, scenario, config, tag-map or blocklist file failed to parse.

    Carries the 1-based line number of the offending line, and the
    file's name when the text came from a file.
    """

    def __init__(self, message: str, line: int, file: str | None = None):
        where = f"line {line}" if file is None else f"{file}:{line}"
        super().__init__(f"{where}: {message}")
        self.reason = message
        self.line = line
        self.file = file

    def __reduce__(self):
        # pickle rebuilds an exception from self.args, the formatted
        # message alone, which __init__ cannot take
        return type(self), (self.reason, self.line, self.file)


class LabelTooSmall(FlowcleanError):
    """A class label has too few flows to split into train and test."""


class SingleClass(FlowcleanError):
    """Training requires at least two distinct class labels."""


class EmptyTest(FlowcleanError):
    """Evaluation requires a non-empty test set."""


class InvalidSpec(FlowcleanError):
    """A synthetic scenario specification is malformed or unsatisfiable."""


class InvariantViolation(FlowcleanError):
    """An internal invariant failed: SSE monotonicity or count conservation."""


class MatrixTooLarge(FlowcleanError):
    """A hierarchical distance matrix would not fit in physical memory."""


class UnclusterableMatrix(FlowcleanError):
    """A clustering input cannot be clustered.

    It has no columns, a NaN or infinite value, or a row too large to
    keep every distance finite; the message names the first such row.
    """
