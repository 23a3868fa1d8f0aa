"""Exception taxonomy.

Exit-code mapping used by the CLI: validation and configuration problems
(DataError, ConfigError, FamilyError and subclasses) are exit code 2,
numeric failures (SingularSystemError) are 3, sampler failures
(SamplerError and subclasses) are 4.
"""


class CompscoreError(Exception):
    """Base class for all package errors."""


class DataError(CompscoreError, ValueError):
    """Invalid dataset content (shapes, signs, totals, row sums)."""


class DimensionError(DataError):
    """Number of categories too small or inconsistent."""


class ConfigError(CompscoreError, ValueError):
    """Invalid configuration: unknown keys, incompatible options."""


class FamilyError(CompscoreError, ValueError):
    """Model parameters violate family constraints."""


class UnidentifiableCategoryError(DataError):
    """A category is degenerate (identically zero) so its shape
    parameter cannot be identified."""


class InsufficientTotalsError(DataError):
    """No row has a large enough total for a requested factorial moment."""

    def __init__(self, degree, message=None):
        self.degree = degree
        super().__init__(
            message or f"no row total supports factorial moments of degree {degree}"
        )


class SingularSystemError(CompscoreError, RuntimeError):
    """The quadratic-form matrix is numerically singular.

    Attributes
    ----------
    null_labels : list of str
        Parameter labels with the largest loadings on the near-null
        eigenvector, most culpable first.
    """

    def __init__(self, message, null_labels=()):
        self.null_labels = list(null_labels)
        super().__init__(message)


class StudyFailureError(CompscoreError, RuntimeError):
    """Too many replicates of a simulation study failed to fit."""


class SamplerError(CompscoreError, RuntimeError):
    """Rejection sampling failed."""


class InfeasibleTruncationError(SamplerError):
    """Truncated-Gaussian acceptance region has (numerically) no mass."""


class EnvelopeFailureError(SamplerError):
    """The interaction-model sampler keeps too few proposals: its
    certified envelope constant is so far above the target's normalising
    constant (as when A has a large positive eigenvalue) that fewer than
    a MIN_RATE share of PATIENCE proposals is accepted."""
