"""Exception types shared across the package."""


class ConfmetricError(Exception):
    """Base class for all package errors."""

    #: short machine-readable identifier used by the CLI
    code = "error"


class DimensionMismatchError(ConfmetricError, ValueError):
    code = "dimension-mismatch"


class DegenerateClassError(ConfmetricError):
    """A class has no reference instances available for a similarity mean."""

    code = "degenerate-class"


class MissingSupervisionError(ConfmetricError):
    """Confidence labels are required but absent."""

    code = "missing-supervision"


class NumericalFailureError(ConfmetricError):
    """The optimizer produced a non-finite loss."""

    code = "numerical-failure"

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class UndefinedMetricError(ConfmetricError):
    """A performance metric is undefined for the given inputs."""

    code = "undefined-metric"


class ValidationError(ConfmetricError, ValueError):
    code = "validation"


class SchemaMismatchError(ConfmetricError):
    """Model and data schema fingerprints disagree."""

    code = "schema-mismatch"


class DegenerateScoreWarning(UserWarning):
    """Both class similarities underflowed to zero; score is uninformative."""
