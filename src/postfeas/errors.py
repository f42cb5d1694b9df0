"""Exception types shared across the package."""

__all__ = [
    "PostfeasError",
    "DimensionMismatch",
    "DomainError",
    "EmptyInput",
    "CountOutOfRange",
    "NumericalBreakdown",
    "NotPositiveDefinite",
    "SingularPrecision",
    "RankDeficient",
    "MaxRoundsExceeded",
    "PanelInfeasible",
]


class PostfeasError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(PostfeasError):
    """Array shapes do not line up."""


class DomainError(PostfeasError):
    """Argument outside the mathematical domain of the function."""


class EmptyInput(PostfeasError):
    """An input collection that must be nonempty is empty."""


class CountOutOfRange(PostfeasError):
    """An integer count violates its admissible range."""


class NumericalBreakdown(PostfeasError):
    """Pivoting or factorization failed beyond recoverable tolerance."""


class NotPositiveDefinite(PostfeasError):
    """Matrix required to be positive (semi)definite is not."""


class SingularPrecision(PostfeasError):
    """Posterior precision matrix could not be factorized."""


class RankDeficient(PostfeasError):
    """Design matrix does not have full column rank."""


class MaxRoundsExceeded(PostfeasError):
    """Cutting-plane loop hit its round limit before separating all rows."""


class PanelInfeasible(PostfeasError):
    """Panel selection cannot reach the coverage threshold; cluster is
    the identifier of a cluster whose constraint cannot be met."""

    def __init__(self, cluster, message):
        self.cluster = cluster
        super().__init__(message)
