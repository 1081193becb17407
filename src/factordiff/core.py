"""Dense square-matrix domain: validation, the Hilbert-Schmidt norm, structural
splitting primitives, and the factor/tangent container types.

Structure is treated exactly. Triangular and diagonal sparsity patterns and
unit diagonals are bit-level facts about the stored arrays: _SHAPES names
each structure once and cuts every triangle, the structural splits
included. The containers impose it on their inputs instead of trusting
them, in place on the one validated copy of each.
Only arrays the package has just computed skip the copy and the numeric
tests, through the private _Container._own: the kernels' factors (not
qr_factor_mgs's), the solves' tangents and the tracker's vetted iterates.
Tolerances enter only where floating point makes exactness impossible.
Every test of a ToleranceConfig field goes through its three rules,
_scaled, _symmetric and _singular_d, except in verify, whose oracles stay
independent of this code.

All values are immutable after construction (stored arrays are marked
read-only) and all operations are pure functions, so everything here is safe
to share across threads. The one exception is a factor's private _inverses
slot: its prepared base, the inverses of the triangles its _lower names,
which frechet's _held forms on first use and then holds. Two threads may
both fill it; they compute equal inverses from the same frozen factors, so
either may stay.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
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
    """Shared numerical thresholds, applied by three rules.

    Relative: a tolerance tested against a matrix m becomes tol * (1 + ||m||)
    (Hilbert-Schmidt norm). structural_tol gates residuals, orthogonality and
    diagonal signs; singularity_tol gates pivots, the diagonals of r and l,
    and the domain tests. Symmetry: ||m - m^T|| is within the relative
    structural_tol of m. Absolute: each entry of LDU's d clears singularity_tol
    unscaled, since near the domain boundary d mixes tiny and huge entries.
    """

    structural_tol: float = 1e-12
    singularity_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name, positive in (("structural_tol", False), ("singularity_tol", True)):
            value = getattr(self, name)
            # bool is an int subclass, so True would otherwise read as 1.0
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            try:
                finite = real and math.isfinite(value)
            except OverflowError:  # a real beyond float range, such as 10**400
                finite = False
            if not (finite and (value > 0.0 if positive else value >= 0.0)):
                rule = "positive" if positive else "non-negative"
                raise ValueError(f"{name} must be a finite {rule} real number, got {value!r}")


DEFAULT_TOLERANCES = ToleranceConfig()


def validate_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce input to a finite real square float64 array (always a fresh
    copy) of real numbers: a float or integer array, or an object array of
    reals none of which is a bool. Complex, bool, text, time and other input,
    or an integer beyond float64's range, is refused."""
    try:
        # not straight to float64, which drops imaginary parts and reads True and "1" as 1.0
        arr = np.array(a, copy=True)
        if arr.dtype != np.float64:
            kind = arr.dtype.kind
            if kind == "O" and all(
                isinstance(x, numbers.Real) and not isinstance(x, bool) for x in arr.flat
            ):
                kind = "f"  # Python ints beyond int64 land here, and convert or overflow
            if kind not in ("f", "i", "u"):
                words = dict(c="complex", b="bool", S="text", U="text", m="time", M="time")
                raise TypeError(f"{words.get(kind, 'non-numeric')} entries")
            arr = arr.astype(np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ShapeError(f"{name} is not convertible to a float matrix: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ShapeError(f"{name} must be a non-empty square matrix, got shape {arr.shape}")
    _require_finite(arr, name)
    return arr


# The one diagonal block width, of _upper_inverse and ldu_factor
_BLOCK = 32


def _upper_inverse(t: np.ndarray) -> np.ndarray:
    """Inverse of an upper triangle t with a nonzero diagonal (a lower one is
    reversed or transposed first): np.linalg.inv up to _BLOCK columns, and by
    halves above, [[a, b], [0, c]]^-1 = [[a^-1, -a^-1 b c^-1], [0, c^-1]].
    np.linalg.inv is gesv against the identity, whose partial pivoting finds only
    zeros below each pivot of t: getrf swaps no rows, its multipliers are exactly
    zero and its U is t, so the inverse is exactly triangular. Applying it is as
    stable as substitution while t is well conditioned, and the diagonal blocks
    of a triangle are no worse conditioned than the triangle (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., ch. 13 and 14)."""
    if len(t) <= _BLOCK:
        return np.linalg.inv(t)
    h = len(t) // 2
    inverse = np.zeros(t.shape)
    a = inverse[:h, :h] = _upper_inverse(t[:h, :h])
    c = inverse[h:, h:] = _upper_inverse(t[h:, h:])
    inverse[:h, h:] = -(a @ t[:h, h:]) @ c
    return inverse


def _require_finite(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        raise ShapeError(f"{name} contains non-finite entries")


def _validate_matching(**mats) -> tuple:
    """validate_matrix on each named input, in order, then one shared shape;
    returns the copies in order. validate_matrix is called by its module-level
    name, which perfbench/tracing.py replaces to count it."""
    out = tuple(validate_matrix(a, name) for name, a in mats.items())
    if any(m.shape != out[0].shape for m in out[1:]):
        names = " and ".join(mats) if len(mats) == 2 else ", ".join(mats)
        raise ShapeError(f"{names} must have matching shapes")
    return out


def _require_count(value, name: str, least: int) -> int:
    """value as an int, or ValueError when it is a bool, is not integral
    (operator.index refuses floats, even integral ones) or is below least."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    # bool is an int subclass, so True would otherwise read as 1
    if count is None or isinstance(value, bool) or count < least:
        rule = "a non-negative integer" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return count


def hs_norm(m) -> float:
    """Hilbert-Schmidt (Frobenius) norm: sqrt of the sum of squared entries."""
    arr = np.asarray(m, dtype=np.float64)
    # np.add.reduce is the call np.sum makes, without its Python wrapper
    return float(np.sqrt(np.add.reduce(arr * arr, axis=None)))


def _scaled(tol: float, m) -> float:
    return tol * (1.0 + hs_norm(m))


def _symmetric(m: np.ndarray, cfg: ToleranceConfig) -> bool:
    return hs_norm(m - m.T) <= _scaled(cfg.structural_tol, m)


def _singular_d(d: np.ndarray, cfg: ToleranceConfig) -> bool:
    # absolute, not scaled: near the LDU domain boundary d mixes tiny and huge
    # entries, so a floor scaled by ||d|| would refuse legitimate blow-up factors
    return float(np.abs(d.diagonal()).min()) <= cfg.singularity_tol


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
    return _split_skew_upper(validate_matrix(m, "m"))


def _split_skew_upper(m: np.ndarray) -> tuple:
    low = _impose(m.copy(), "strictly lower triangular")
    s = low - low.T
    return s, _impose(m - s, "upper triangular")


def sym_to_lower(m, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Unique lower-triangular x with x + x^T equal to the symmetric input.

    Strictly-lower entries are copied, the diagonal is halved (exact in binary
    floating point), and the strict upper triangle is zero.

    Raises NotSymmetric when the input's asymmetry exceeds tolerance.
    """
    m = validate_matrix(m, "m")
    if not _symmetric(m, cfg):
        raise NotSymmetric("matrix is not symmetric within structural tolerance")
    return _halve_onto_lower(m)


def _halve_onto_lower(m: np.ndarray) -> np.ndarray:
    # sym_to_lower's arithmetic, for an m already known to be symmetric
    return _impose(m.copy(), "strictly lower triangular") + _impose(0.5 * m, "diagonal")


def split_lower_diag_upper(m):
    """Route entries into (strictly lower, diagonal, strictly upper) parts; exact."""
    return _split_lower_diag_upper(validate_matrix(m, "m"))


def _split_lower_diag_upper(m: np.ndarray) -> tuple:
    return tuple(_impose(m.copy(), shape) for shape in LDUTangent._shapes)


# The exact structure a factor slot can have, by name: the band of offsets
# j - i of the entries (i, j) it may hold (None: unbounded), every other entry
# being zero, and whether its diagonal is fixed at one. A container imposes
# the structure on what it stores, and a derivative base point must already
# have it.
_SHAPES = {
    "square": (None, None, False),
    "upper triangular": (0, None, False),
    "lower triangular": (None, 0, False),
    "strictly upper triangular": (1, None, False),
    "strictly lower triangular": (None, -1, False),
    "diagonal": (0, 0, False),
    "unit upper triangular": (0, None, True),
    "unit lower triangular": (None, 0, True),
}


# verify's run_all at seed 0 touches 138 (n, shape) keys; a cache smaller
# than its working set rebuilds masks on every run
@functools.lru_cache(maxsize=256)
def _zeros(n: int, shape: str):
    """Read-only mask of the entries an n-by-n slot of this shape holds at
    zero, or None when it holds none."""
    lo, hi, _ = _SHAPES[shape]
    if lo is None and hi is None:
        return None
    offset = np.arange(n) - np.arange(n)[:, None]
    mask = np.zeros((n, n), dtype=bool)
    if lo is not None:
        mask |= offset < lo
    if hi is not None:
        mask |= offset > hi
    return _freeze(mask)


def _impose(m: np.ndarray, shape: str) -> np.ndarray:
    """m given the structure shape, in place; bit for bit what np.tril,
    np.triu and adding np.eye would return."""
    mask = _zeros(len(m), shape)
    if mask is not None:
        np.copyto(m, 0.0, where=mask)
    if _SHAPES[shape][2]:
        m += 0.0  # as adding the identity does, a kept -0.0 becomes +0.0
        np.fill_diagonal(m, 1.0)
    return m


def _require_shape(m: np.ndarray, name: str, shape: str) -> None:
    # -0.0 is falsy, so a zero of either sign is structural
    mask = _zeros(len(m), shape)
    if (mask is not None and m.any(where=mask)) or (
        _SHAPES[shape][2] and not (m.diagonal() == 1.0).all()
    ):
        raise ShapeError(f"{name} must be {shape}")


def _require_instance(value, cls: type, name: str) -> None:
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _require_orthogonal(q: np.ndarray, cfg: ToleranceConfig) -> None:
    if orthogonality_defect(q) > _scaled(cfg.structural_tol, q):
        raise ShapeError("q is not orthogonal within structural tolerance")


def _require_sign(m: np.ndarray, name: str, cfg: ToleranceConfig) -> None:
    if float(m.diagonal().min()) < -_scaled(cfg.structural_tol, m):
        raise ShapeError(f"{name} has a negative diagonal entry beyond tolerance")


class _Container:
    """The shape every factor and tangent container shares. Each slot has
    one structure from _SHAPES, named in _shapes in __slots__ order; _store
    validates the inputs together, imposes each slot's structure in place on
    the one copy validation made, and freezes it, so the subclasses'
    __init__ keep only numeric checks.
    n is the dimension of the first slot, and the repr is Name(n=...).
    _inverses holds a factor's prepared base (frechet's _held), None until
    it is formed; subclasses name only their parts in __slots__. A factor's
    _lower names its triangles once, each in lower form, for that base."""

    __slots__ = ("_inverses",)
    _shapes: tuple = ()

    def _store(self, *parts) -> None:
        self._fill(_validate_matching(**dict(zip(self.__slots__, parts))))

    def _fill(self, parts) -> None:
        for name, shape, m in zip(self.__slots__, self._shapes, parts):
            setattr(self, name, _freeze(_impose(m, shape)))
        self._inverses = None

    @classmethod
    def _own(cls, *parts):
        """The container of square float64 parts the caller has just computed
        and nobody else holds: structure imposed in place, no copy, no numeric
        test. A non-finite part raises ShapeError, as the tracker needs."""
        for name, m in zip(cls.__slots__, parts):
            _require_finite(m, name)
        self = object.__new__(cls)
        self._fill(parts)
        return self

    @property
    def n(self) -> int:
        return getattr(self, self.__slots__[0]).shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


class QRPair(_Container):
    """Orthogonal factor q paired with an upper-triangular factor r whose
    diagonal is non-negative; on the arrays a caller passes, orthogonality
    of q and the diagonal sign of r are checked against the tolerance config."""

    __slots__ = ("q", "r")
    _shapes = ("square", "upper triangular")

    def __init__(self, q, r, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
        self._store(q, r)
        _require_orthogonal(self.q, cfg)
        _require_sign(self.r, "r", cfg)

    def product(self) -> np.ndarray:
        """Recompose q @ r."""
        return self.q @ self.r

    def _lower(self) -> tuple:
        return (self.r.T,)


class CholeskyFactor(_Container):
    """Lower-triangular factor l with non-negative diagonal, tested on a caller's l."""

    __slots__ = ("l",)
    _shapes = ("lower triangular",)

    def __init__(self, l, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
        self._store(l)
        _require_sign(self.l, "l", cfg)

    def product(self) -> np.ndarray:
        """Recompose l @ l^T."""
        return self.l @ self.l.T

    def _lower(self) -> tuple:
        return (self.l,)


class LDUTriple(_Container):
    """Unit-lower l, invertible diagonal d, unit-upper u; every diagonal
    entry of d must clear the absolute singularity floor."""

    __slots__ = ("l", "d", "u")
    _shapes = ("unit lower triangular", "diagonal", "unit upper triangular")

    def __init__(self, l, d, u, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
        self._store(l, d, u)
        if _singular_d(self.d, cfg):
            raise SingularD("d has a diagonal entry at or below the singularity threshold")

    def product(self) -> np.ndarray:
        """Recompose l @ d @ u, scaling by the diagonal of d."""
        return (self.l * self.d.diagonal()) @ self.u

    def _lower(self) -> tuple:
        return (self.l, self.u.T)


class QRTangent(_Container):
    """Perturbation (u, v) of an orthogonal/upper-triangular pair, based at
    base_q: base_q^T u must be skew-symmetric within tolerance, v upper
    triangular."""

    __slots__ = ("u", "v", "base_q")
    _shapes = ("square", "upper triangular", "square")

    def __init__(self, u, v, base_q, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
        self._store(u, v, base_q)
        w = self.base_q.T @ self.u
        if hs_norm(w + w.T) > _scaled(cfg.structural_tol, self.u):
            raise ShapeError("base_q^T u is not skew-symmetric within tolerance")


class LDUTangent(_Container):
    """Perturbation triple (a, s, b): strictly lower, diagonal, strictly upper
    (the unit diagonals of the base point freeze the tangent diagonals of l
    and u at zero)."""

    __slots__ = ("a", "s", "b")
    _shapes = ("strictly lower triangular", "diagonal", "strictly upper triangular")

    def __init__(self, a, s, b):
        self._store(a, s, b)
