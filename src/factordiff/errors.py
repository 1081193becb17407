"""Exception types for domain refusals, structural violations, and iteration failures."""

__all__ = [
    "FactorizationError",
    "ShapeError",
    "NotSymmetric",
    "NotPositiveSemiDefinite",
    "NotInDomainP",
    "SingularInput",
    "SingularR",
    "SingularL",
    "SingularD",
    "BaseMismatch",
    "NoConvergence",
    "ConvergedOutsideChart",
    "TooFarFromGroup",
    "PathLeavesDomain",
]


class FactorizationError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(FactorizationError):
    """Input is not a finite real square matrix of the required structure."""


class NotSymmetric(FactorizationError):
    """Matrix required to be symmetric is asymmetric beyond tolerance."""


class NotPositiveSemiDefinite(FactorizationError):
    """Symmetric input has a negative pivot, so it is not positive semi-definite."""

    def __init__(self, k, message=None):
        self.k = k
        super().__init__(message or f"k={k}: pivot {k} is negative beyond tolerance")


class NotInDomainP(FactorizationError):
    """A leading principal block is numerically singular; no-pivot elimination is undefined."""

    def __init__(self, k, message=None):
        self.k = k
        super().__init__(message or f"k={k}: leading principal pivot {k} is numerically zero")


class SingularInput(FactorizationError):
    """Matrix required to be invertible is numerically singular."""


class SingularR(FactorizationError):
    """Upper-triangular factor has a numerically zero diagonal entry."""


class SingularL(FactorizationError):
    """Lower-triangular factor has a numerically zero diagonal entry."""


class SingularD(FactorizationError):
    """Diagonal factor has a numerically zero entry."""


class BaseMismatch(FactorizationError):
    """Tangent vector is based at a different point than the one supplied."""


class NoConvergence(FactorizationError):
    """Newton iteration failed to reach tolerance within its budget."""


class ConvergedOutsideChart(FactorizationError):
    """Newton iterate left the factor domain (sign or invertibility constraint broken)."""


class TooFarFromGroup(FactorizationError):
    """Matrix is too far from the orthogonal group for the polar retraction."""


class PathLeavesDomain(FactorizationError):
    """Matrix family leaves the factorization's domain at some parameter."""

    def __init__(self, t, message=None):
        self.t = t
        super().__init__(message or f"path leaves the factorization domain at t={t:.6g}")
