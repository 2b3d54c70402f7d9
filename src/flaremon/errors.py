"""Exception hierarchy shared across the package, one class per thing a
caller decides: bad input, data a fit cannot use, a numerical failure, a
bad LLM reply, a record to skip, or an LLM endpoint to retry later."""


class FlaremonError(Exception):
    """Base class for all package errors."""


class DecodeError(FlaremonError):
    """Run-length data does not describe a mask of the stated size."""


class ParseError(FlaremonError):
    """Input flaremon cannot read: a record that violates its schema or
    comes out of order, a model file of another schema version, an unknown
    preset name, or interactive input that ended early."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class NumericalError(FlaremonError):
    """A numerical step failed: an ill-conditioned linear-algebra step, a
    NaN in an assignment cost matrix, or a training loss that became
    non-finite."""


class EmptyRegion(FlaremonError):
    """An operation needs foreground pixels but got none."""


class InsufficientSignal(FlaremonError):
    """All relevant color channels are zero."""


class DegenerateOrientation(FlaremonError):
    """Region is too close to circular for an orientation to exist."""


class TrainingDataError(FlaremonError):
    """Data a fit cannot use: missing or single-class training data, a
    constant feature column, a matrix of the wrong shape, or a KNN
    neighbor count that is even or larger than the data."""


class UnparseableReply(FlaremonError):
    """LLM reply contains neither 'high' nor 'low'."""


class AuthError(FlaremonError):
    """LLM endpoint rejected the credentials."""


class Unavailable(FlaremonError):
    """LLM endpoint unreachable after all retries."""
