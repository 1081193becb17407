"""Forward (apply) and inverse (solve) directions of each factorization
map's derivative.

The derivative of the product map at an interior base point is a linear
isomorphism between the factor tangent space and all n-by-n matrices; the
solve routines invert it by reducing to a structural split:

* QR:        m = q^T e r^-1 splits into skew + upper, giving u = q s, v = t r.
* Cholesky:  m = l^-1 e l^-T is symmetric and halves onto the lower triangle.
* LDU:       m = l^-1 e u^-1 splits into strictly-lower + diagonal +
             strictly-upper parts, rescaled by d on the outer factors.

No whole factor is ever inverted; every r^-1, l^-1, u^-1, d^-1 is the
inverse of one triangle or of a diagonal. Each map's derivative inverse
has two private halves:

* prepare (fac, cfg) tests the diagonal of fac against the singularity
  threshold under cfg, on every call, then returns fac's prepared base: the
  inverse of each of its triangles (r; l; l and u), formed once per factor
  container by core._upper_inverse and held in its _inverses slot (_held).
  The slot holds only the inverses, which depend on no cfg;
* apply (fac, inverses, e) returns the tangent DF(fac)^-1 e by matmuls
  against them.

Every public solve is validate, prepare, apply, so DF^-1 is applied in one
way only; the Newton corrector (newton._correct) prepares once at its base
and applies without validating its own iterates again. Every triangular
system is lower triangular: l x = c, or t^T x^T = c^T for x t = c with
t = r, l^T or u. `solve_triangular` solves its reversal, an upper system, by
one matmul with the reversal's inverse: the one place a prepared inverse is
applied. core._upper_inverse says why that inverse is exact and safe to
apply; it runs numpy's LAPACK gesv, so numpy's OpenBLAS is the only BLAS the
package loads. Cholesky's two solves by l apply the same inverse.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    CholeskyFactor,
    LDUTangent,
    LDUTriple,
    QRPair,
    QRTangent,
    ToleranceConfig,
    _halve_onto_lower,
    _require_finite,
    _require_instance,
    _require_orthogonal,
    _require_shape,
    _scaled,
    _singular_d,
    _split_lower_diag_upper,
    _split_skew_upper,
    _symmetric,
    _upper_inverse,
    _validate_matching,
)
from .errors import (
    BaseMismatch,
    NotSymmetric,
    ShapeError,
    SingularD,
    SingularL,
    SingularR,
)

__all__ = [
    "qr_derivative_apply",
    "qr_derivative_solve",
    "cholesky_derivative_apply",
    "cholesky_derivative_solve",
    "ldu_derivative_apply",
    "ldu_derivative_solve",
]


def _base(container, *parts, **rest) -> tuple:
    """One base-point rule for every map, shared by its apply and its solve:
    the factors (named by the container's slots) and any further named
    matrices pass _validate_matching together, then each factor must already
    have the exact structure its container stores. QR's apply and
    solve also require an orthogonal q, by QRPair's test: QRTangent's skew
    check alone misses a scaled q, since q^T (q s) = c^2 s."""
    out = _validate_matching(**dict(zip(container.__slots__, parts)), **rest)
    for name, shape, m in zip(container.__slots__, container._shapes, out):
        _require_shape(m, name, shape)
    return out


def solve_triangular(t, c, inverse=None):
    """x with t @ x = c for lower-triangular t with a nonzero diagonal,
    solved as t[::-1, ::-1] @ x[::-1] = c[::-1], which is upper triangular:
    one matmul by inverse, the reversal's inverse (by default formed here by
    core._upper_inverse), applied to a contiguous copy of c reversed."""
    if inverse is None:
        inverse = _upper_inverse(t[::-1, ::-1])
    return (inverse @ np.ascontiguousarray(c[::-1]))[::-1]


def _held(fac, *lower) -> tuple:
    """fac's prepared base: the inverse of the reversal of each lower
    triangle, as solve_triangular applies it, formed on first use and then
    held in fac's _inverses slot."""
    if fac._inverses is None:
        fac._inverses = tuple(_upper_inverse(t[::-1, ::-1]) for t in lower)
    return fac._inverses


def qr_derivative_apply(
    q, r, tan: QRTangent, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> np.ndarray:
    """First-order response u @ r + q @ v of the product q @ r to the
    tangent (u, v). The tangent must be a QRTangent based at this q, and q
    orthogonal under cfg, as qr_derivative_solve requires."""
    _require_instance(tan, QRTangent, "tan")
    q, r = _base(QRPair, q, r)
    _require_orthogonal(q, cfg)
    if tan.n != len(q):
        raise ShapeError("tangent dimension does not match the base point")
    if not np.array_equal(tan.base_q, q):
        raise BaseMismatch("tangent is based at a different q")
    return tan.u @ r + q @ tan.v


def _qr_prepare(fac: QRPair, cfg: ToleranceConfig) -> tuple:
    r = fac.r
    if float(np.abs(r.diagonal()).min()) <= _scaled(cfg.singularity_tol, r):
        raise SingularR("r has a diagonal entry below the singularity threshold")
    return _held(fac, r.T)


def _qr_apply(fac: QRPair, inverses: tuple, e: np.ndarray) -> QRTangent:
    q, r = fac.q, fac.r
    # q^T u is skew by construction; QRTangent's test could refuse it near its edge
    s, t = _split_skew_upper(solve_triangular(r.T, (q.T @ e).T, *inverses).T)
    return QRTangent._own(q @ s, t @ r, q)


def qr_derivative_solve(q, r, e, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> QRTangent:
    """Tangent (u, v) with u @ r + q @ v = e, for invertible r.

    q^T u comes out skew-symmetric and v upper triangular with an exactly
    zero strict lower triangle; e = 0 yields the exactly zero tangent.

    Raises ShapeError unless q is orthogonal and r upper triangular, and
    SingularR when a diagonal entry of r is below the singularity threshold.
    """
    q, r, e = _base(QRPair, q, r, e=e)
    _require_orthogonal(q, cfg)
    fac = QRPair._own(q, r)
    return _qr_apply(fac, _qr_prepare(fac, cfg), e)


def cholesky_derivative_apply(l, v) -> np.ndarray:
    """First-order response l @ v^T + v @ l^T (always symmetric) of the
    product l @ l^T to a lower-triangular tangent v."""
    l, v = _base(CholeskyFactor, l, v=v)
    _require_shape(v, "v", "lower triangular")
    return l @ v.T + v @ l.T


def _cholesky_prepare(fac: CholeskyFactor, cfg: ToleranceConfig) -> tuple:
    l = fac.l
    if float(np.abs(l.diagonal()).min()) <= _scaled(cfg.singularity_tol, l):
        raise SingularL("l has a diagonal entry below the singularity threshold")
    return _held(fac, l)


def _cholesky_apply(fac: CholeskyFactor, inverses: tuple, e: np.ndarray) -> np.ndarray:
    l = fac.l
    m = solve_triangular(l, solve_triangular(l, e, *inverses).T, *inverses).T
    # the two solves break exact symmetry at roundoff; restored exactly, m
    # needs no symmetry test, but an overflow must still refuse the step
    m = 0.5 * (m + m.T)
    _require_finite(m, "m")
    return l @ _halve_onto_lower(m)


def cholesky_derivative_solve(l, e, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Lower-triangular tangent v with l @ v^T + v @ l^T = e, for symmetric e
    and l with positive diagonal.

    Raises SingularL on a near-zero diagonal of l, NotSymmetric on
    asymmetric e.
    """
    l, e = _base(CholeskyFactor, l, e=e)
    fac = CholeskyFactor._own(l)
    inverses = _cholesky_prepare(fac, cfg)
    if not _symmetric(e, cfg):
        raise NotSymmetric("e is not symmetric within structural tolerance")
    return _cholesky_apply(fac, inverses, e)


def ldu_derivative_apply(l, d, u, tan: LDUTangent) -> np.ndarray:
    """First-order response a @ d @ u + l @ s @ u + l @ d @ b of the product
    l @ d @ u to the tangent triple (a, s, b), an LDUTangent."""
    _require_instance(tan, LDUTangent, "tan")
    l, d, u = _base(LDUTriple, l, d, u)
    if tan.n != len(l):
        raise ShapeError("tangent dimension does not match the base point")
    dvec = d.diagonal()
    return (tan.a * dvec) @ u + (l * tan.s.diagonal()) @ u + (l * dvec) @ tan.b


def _ldu_prepare(fac: LDUTriple, cfg: ToleranceConfig) -> tuple:
    if _singular_d(fac.d, cfg):
        raise SingularD("d has a diagonal entry below the singularity threshold")
    return _held(fac, fac.l, fac.u.T)


def _ldu_apply(fac: LDUTriple, inverses: tuple, e: np.ndarray) -> LDUTangent:
    l, u, dvec = fac.l, fac.u, fac.d.diagonal()
    left, right = inverses
    m = solve_triangular(u.T, solve_triangular(l, e, left).T, right).T
    ml, md, mu = _split_lower_diag_upper(m)
    return LDUTangent._own((l @ ml) / dvec[None, :], md, (mu / dvec[:, None]) @ u)


def ldu_derivative_solve(l, d, u, e, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LDUTangent:
    """Tangent triple (a, s, b) with a @ d @ u + l @ s @ u + l @ d @ b = e.

    Raises SingularD when a diagonal entry of d is at or below the absolute
    singularity floor.
    """
    l, d, u, e = _base(LDUTriple, l, d, u, e=e)
    fac = LDUTriple._own(l, d, u)
    return _ldu_apply(fac, _ldu_prepare(fac, cfg), e)
