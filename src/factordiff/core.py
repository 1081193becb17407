"""Dense square-matrix domain: validation, the Hilbert-Schmidt norm, structural
splitting primitives, and the factor/tangent container types.

Structure is treated exactly. Triangular and diagonal sparsity patterns and
unit diagonals are bit-level facts about the stored arrays: constructors zero
the structural pattern instead of trusting their inputs. Tolerances enter only
where floating point makes exactness impossible (orthogonality, symmetry,
residuals); those comparisons scale the configured tolerance by one plus the
Hilbert-Schmidt norm of the matrix under test.

All values are immutable after construction (stored arrays are marked
read-only) and all operations are pure functions, so everything here is safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetric, ShapeError, SingularD

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOLERANCES",
    "validate_matrix",
    "hs_norm",
    "orthogonality_defect",
    "split_skew_upper",
    "sym_to_lower",
    "split_lower_diag_upper",
    "QRPair",
    "CholeskyFactor",
    "LDUTriple",
    "QRTangent",
    "LDUTangent",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Shared numerical thresholds.

    structural_tol gates residuals and near-exact structure (orthogonality,
    symmetry, diagonal signs); comparisons scale it by 1 + the Hilbert-Schmidt
    norm of the matrix being tested. singularity_tol gates pivot and diagonal
    magnitudes. fd_step is the step used by finite-difference derivative
    cross-checks.
    """

    structural_tol: float = 1e-12
    singularity_tol: float = 1e-10
    fd_step: float = 1e-6

    def __post_init__(self) -> None:
        if not (np.isfinite(self.structural_tol) and self.structural_tol >= 0.0):
            raise ValueError("structural_tol must be finite and non-negative")
        if not (np.isfinite(self.singularity_tol) and self.singularity_tol > 0.0):
            raise ValueError("singularity_tol must be finite and positive")
        if not (np.isfinite(self.fd_step) and self.fd_step > 0.0):
            raise ValueError("fd_step must be finite and positive")


DEFAULT_TOLERANCES = ToleranceConfig()


def validate_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce input to a finite real square float64 array (always a fresh copy)."""
    try:
        arr = np.array(a, dtype=np.float64, copy=True)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{name} is not convertible to a float matrix: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ShapeError(f"{name} must be a non-empty square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} contains non-finite entries")
    return arr


def _validate_matching(**mats) -> tuple:
    """validate_matrix on each named input, in order, then one shared shape;
    returns the copies in order. validate_matrix is called by its module-level
    name, which perfbench/tracing.py replaces to count it."""
    out = tuple(validate_matrix(a, name) for name, a in mats.items())
    if any(m.shape != out[0].shape for m in out[1:]):
        names = " and ".join(mats) if len(mats) == 2 else ", ".join(mats)
        raise ShapeError(f"{names} must have matching shapes")
    return out


def hs_norm(m) -> float:
    """Hilbert-Schmidt (Frobenius) norm: sqrt of the sum of squared entries."""
    arr = np.asarray(m, dtype=np.float64)
    return float(np.sqrt(np.sum(arr * arr)))


def orthogonality_defect(q: np.ndarray) -> float:
    """How far q^T q is from the identity, in Hilbert-Schmidt norm."""
    q = np.asarray(q, dtype=np.float64)
    return hs_norm(q.T @ q - np.eye(q.shape[0]))


def split_skew_upper(m):
    """Split m into a skew-symmetric part plus an upper-triangular part.

    The skew part is determined entirely by the strictly lower triangle
    (entry shuffling and negation only): s[i][j] = m[i][j] below the diagonal,
    -m[j][i] above it, 0 on it. The upper part is the remainder m - s. Given
    the two shapes the decomposition is unique.
    """
    m = validate_matrix(m, "m")
    low = np.tril(m, -1)
    s = low - low.T
    t = np.triu(m - s)
    return s, t


def sym_to_lower(m, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Unique lower-triangular x with x + x^T equal to the symmetric input.

    Strictly-lower entries are copied, the diagonal is halved (exact in binary
    floating point), and the strict upper triangle is zero.

    Raises NotSymmetric when the input's asymmetry exceeds tolerance.
    """
    m = validate_matrix(m, "m")
    if hs_norm(m - m.T) > cfg.structural_tol * (1.0 + hs_norm(m)):
        raise NotSymmetric("matrix is not symmetric within structural tolerance")
    return np.tril(m, -1) + np.diag(0.5 * np.diag(m))


def split_lower_diag_upper(m):
    """Route entries into (strictly lower, diagonal, strictly upper) parts; exact."""
    m = validate_matrix(m, "m")
    return np.tril(m, -1), np.diag(np.diag(m)), np.triu(m, 1)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _require_orthogonal(q: np.ndarray, cfg: ToleranceConfig) -> None:
    if orthogonality_defect(q) > cfg.structural_tol * (1.0 + hs_norm(q)):
        raise ShapeError("q is not orthogonal within structural tolerance")


class _Container:
    """The shape every factor and tangent container shares: n is the
    dimension of the first slot, and the repr is Name(n=...)."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return getattr(self, self.__slots__[0]).shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


class QRPair(_Container):
    """Orthogonal factor q paired with an upper-triangular factor r whose
    diagonal is non-negative.

    The strict lower triangle of r is zeroed on construction; orthogonality of
    q and the diagonal sign of r are checked against the tolerance config.
    """

    __slots__ = ("q", "r")

    def __init__(self, q, r, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
        q, r = _validate_matching(q=q, r=r)
        _require_orthogonal(q, cfg)
        r = np.triu(r)
        if float(np.min(np.diag(r))) < -cfg.structural_tol * (1.0 + hs_norm(r)):
            raise ShapeError("r has a negative diagonal entry beyond tolerance")
        self.q = _freeze(q)
        self.r = _freeze(r)

    def product(self) -> np.ndarray:
        """Recompose q @ r."""
        return self.q @ self.r


class CholeskyFactor(_Container):
    """Lower-triangular factor l with non-negative diagonal; strict upper
    triangle zeroed on construction."""

    __slots__ = ("l",)

    def __init__(self, l, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
        l = validate_matrix(l, "l")
        l = np.tril(l)
        if float(np.min(np.diag(l))) < -cfg.structural_tol * (1.0 + hs_norm(l)):
            raise ShapeError("l has a negative diagonal entry beyond tolerance")
        self.l = _freeze(l)

    def product(self) -> np.ndarray:
        """Recompose l @ l^T."""
        return self.l @ self.l.T


class LDUTriple(_Container):
    """Unit-lower l, invertible diagonal d, unit-upper u.

    Unit diagonals and sparsity patterns are imposed exactly on construction;
    every diagonal entry of d must clear the singularity threshold. That
    threshold is absolute (not norm-scaled): near the domain boundary d holds
    entries of wildly different magnitudes at once, so scaling by ||d|| would
    reject legitimate blow-up factors.
    """

    __slots__ = ("l", "d", "u")

    def __init__(self, l, d, u, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
        l, d, u = _validate_matching(l=l, d=d, u=u)
        eye = np.eye(l.shape[0])
        l = np.tril(l, -1) + eye
        u = np.triu(u, 1) + eye
        d = np.diag(np.diag(d))
        if float(np.min(np.abs(np.diag(d)))) <= cfg.singularity_tol:
            raise SingularD("d has a diagonal entry at or below the singularity threshold")
        self.l = _freeze(l)
        self.d = _freeze(d)
        self.u = _freeze(u)

    def product(self) -> np.ndarray:
        """Recompose l @ d @ u."""
        return self.l @ self.d @ self.u


class QRTangent(_Container):
    """Perturbation (u, v) of an orthogonal/upper-triangular pair, based at
    base_q: base_q^T u must be skew-symmetric, v upper triangular.

    The strict lower triangle of v is zeroed on construction; skewness of
    base_q^T u is checked within tolerance.
    """

    __slots__ = ("u", "v", "base_q")

    def __init__(self, u, v, base_q, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
        u, v, base_q = _validate_matching(u=u, v=v, base_q=base_q)
        w = base_q.T @ u
        if hs_norm(w + w.T) > cfg.structural_tol * (1.0 + hs_norm(u)):
            raise ShapeError("base_q^T u is not skew-symmetric within tolerance")
        self.u = _freeze(u)
        self.v = _freeze(np.triu(v))
        self.base_q = _freeze(base_q)


class LDUTangent(_Container):
    """Perturbation triple (a, s, b): strictly lower, diagonal, strictly upper.

    Sparsity patterns are imposed exactly on construction (the unit diagonals
    of the base point freeze the tangent diagonals of l and u at zero).
    """

    __slots__ = ("a", "s", "b")

    def __init__(self, a, s, b):
        a, s, b = _validate_matching(a=a, s=s, b=b)
        self.a = _freeze(np.tril(a, -1))
        self.s = _freeze(np.diag(np.diag(s)))
        self.b = _freeze(np.triu(b, 1))
