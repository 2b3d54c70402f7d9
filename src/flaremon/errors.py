"""Exception hierarchy shared across the package."""


class FlaremonError(Exception):
    """Base class for all package errors."""


class DecodeError(FlaremonError):
    """Run-length data does not describe a mask of the stated size."""


class ParseError(FlaremonError):
    """A serialized record violates the schema."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class OrderError(FlaremonError):
    """A frame index in a stream repeated or went backwards."""


class NumericalError(FlaremonError):
    """A linear-algebra step became ill-conditioned."""


class InvalidCost(FlaremonError):
    """Assignment cost matrix contains NaN."""


class EmptyRegion(FlaremonError):
    """An operation needs foreground pixels but got none."""


class InsufficientSignal(FlaremonError):
    """All relevant color channels are zero."""


class DegenerateOrientation(FlaremonError):
    """Region is too close to circular for an orientation to exist."""


class DegenerateFeature(FlaremonError):
    """A feature column is constant and cannot be standardized."""

    def __init__(self, column):
        super().__init__(f"feature column {column} is constant")
        self.column = column


class InvalidInput(FlaremonError):
    """Matrix input violates a structural precondition."""


class InvalidK(FlaremonError):
    """KNN neighbor count must be odd and no larger than the data."""


class DivergenceError(FlaremonError):
    """Training loss became non-finite."""


class TrainingDataError(FlaremonError):
    """Training data is missing or single-class."""


class ModelVersionError(FlaremonError):
    """Serialized model schema version does not match this reader."""


class EndOfInput(FlaremonError):
    """Interactive input ended before every sample was answered."""


class InvalidPreset(FlaremonError):
    """Unknown simulator preset name."""


class UnparseableReply(FlaremonError):
    """LLM reply contains neither 'high' nor 'low'."""


class AuthError(FlaremonError):
    """LLM endpoint rejected the credentials."""


class Unavailable(FlaremonError):
    """LLM endpoint unreachable after all retries."""
