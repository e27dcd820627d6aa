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
    """Fitting or scoring met a non-finite value or an overflow."""

    code = "numerical-failure"


class UndefinedMetricError(ConfmetricError):
    """A performance metric is undefined for the given inputs."""

    code = "undefined-metric"


class ValidationError(ConfmetricError, ValueError):
    code = "validation"


class SchemaMismatchError(ConfmetricError):
    """Model and data schema fingerprints disagree."""

    code = "schema-mismatch"
