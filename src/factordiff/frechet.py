"""Forward (apply) and inverse (solve) directions of each factorization
map's derivative.

The derivative of the product map at an interior base point is a linear
isomorphism between the factor tangent space and all n-by-n matrices; the
solve routines invert it by reducing to a structural split:

* QR:        m = q^T e r^-1 splits into skew + upper, giving u = q s, v = t r.
* Cholesky:  m = l^-1 e l^-T is symmetric and halves onto the lower triangle.
* LDU:       m = l^-1 e u^-1 splits into strictly-lower + diagonal +
             strictly-upper parts, rescaled by d on the outer factors.

No whole factor is ever inverted; every r^-1, l^-1, u^-1, d^-1 is a
triangular or diagonal solve. Every triangular system is lower triangular:
l x = c, or t^T x^T = c^T for x t = c with t = r, l^T or u. `solve_triangular`
solves its reversal, an upper system, by block back substitution at every
size. Each diagonal block of core._BLOCK columns (the whole triangle up to
32) is inverted once per triangle per derivative solve, by numpy's LAPACK
gesv against the identity, so numpy's OpenBLAS is the only BLAS the package
loads; Cholesky's two solves by l share the inverses. On an upper triangle
with a nonzero diagonal, gesv's partial pivoting finds only zeros below each
pivot: getrf swaps no rows, its multipliers are exactly zero and its U is the
block itself, so the inverse is exactly triangular (core._BLOCK says why
applying it is safe). One matmul applies each inverse after one matmul
subtracts the part solved. gesv on the whole triangle would run getrf over
its zero half: ~0.6 ms per solve at n = 128 against ~0.3 ms blocked. gesv on
each block would still pay getrs: ~90 us for a 32-by-32 block with 128
right-hand sides, against ~35 us to invert it and ~7 us for the matmul
(2-vCPU host, default OpenBLAS threads). Each solve routine checks the
diagonal against the singularity threshold before it solves.
"""

from __future__ import annotations

import numpy as np

from .core import (
    _BLOCK,
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


def _inverted_blocks(t):
    """(start, inverse) of each 32-row diagonal block of t[::-1, ::-1] that
    solve_triangular(t, c) applies, bottom first."""
    t = t[::-1, ::-1]
    starts = range((len(t) - 1) // _BLOCK * _BLOCK, -1, -_BLOCK)
    return [(s, np.linalg.inv(t[s:s + _BLOCK, s:s + _BLOCK])) for s in starts]


def solve_triangular(t, c, inverses=None):
    """x with t @ x = c for lower-triangular t with a nonzero diagonal,
    solved as t[::-1, ::-1] @ x[::-1] = c[::-1], which is upper triangular,
    by back substitution over 32-row blocks (one block up to 32 columns):
    each block's inverse applied by one matmul after one matmul subtracts
    the rows already solved. inverses, from _inverted_blocks(t), saves
    inverting the blocks again.
    """
    if inverses is None:
        inverses = _inverted_blocks(t)
    return _substitute(t, c, inverses)


def _substitute(t, c, inverses):
    """solve_triangular's block back substitution. Derivative solves enter it
    through solve_triangular, whose traced calls count them; the inversions
    of newton's LDU sample certificate enter here."""
    t, c = t[::-1, ::-1], c[::-1]
    x = np.empty(c.shape)
    # the bottom block has no rows solved below it; a contiguous copy of its
    # part of c keeps the bits the subtraction of nothing gave
    (s, inverse), *above = inverses
    x[s:] = inverse @ np.ascontiguousarray(c[s:])
    for s, inverse in above:
        e = s + _BLOCK
        x[s:e] = inverse @ (c[s:e] - t[s:e, e:] @ x[e:])
    return x[::-1]


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


def qr_derivative_solve(q, r, e, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> QRTangent:
    """Tangent (u, v) with u @ r + q @ v = e, for invertible r.

    q^T u comes out skew-symmetric and v upper triangular with an exactly
    zero strict lower triangle; e = 0 yields the exactly zero tangent.

    Raises ShapeError unless q is orthogonal and r upper triangular, and
    SingularR when a diagonal entry of r is below the singularity threshold.
    """
    q, r, e = _base(QRPair, q, r, e=e)
    _require_orthogonal(q, cfg)
    if float(np.min(np.abs(np.diag(r)))) <= _scaled(cfg.singularity_tol, r):
        raise SingularR("r has a diagonal entry below the singularity threshold")
    # q^T u is skew by construction; QRTangent's test could refuse it near its edge
    s, t = _split_skew_upper(solve_triangular(r.T, (q.T @ e).T).T)
    return QRTangent._own(q @ s, t @ r, q)


def cholesky_derivative_apply(l, v) -> np.ndarray:
    """First-order response l @ v^T + v @ l^T (always symmetric) of the
    product l @ l^T to a lower-triangular tangent v."""
    l, v = _base(CholeskyFactor, l, v=v)
    _require_shape(v, "v", "lower triangular")
    return l @ v.T + v @ l.T


def cholesky_derivative_solve(l, e, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Lower-triangular tangent v with l @ v^T + v @ l^T = e, for symmetric e
    and l with positive diagonal.

    Raises SingularL on a near-zero diagonal of l, NotSymmetric on
    asymmetric e.
    """
    l, e = _base(CholeskyFactor, l, e=e)
    if float(np.min(np.abs(np.diag(l)))) <= _scaled(cfg.singularity_tol, l):
        raise SingularL("l has a diagonal entry below the singularity threshold")
    if not _symmetric(e, cfg):
        raise NotSymmetric("e is not symmetric within structural tolerance")
    inverses = _inverted_blocks(l)  # both solves apply the same blocks
    y = solve_triangular(l, e, inverses=inverses)
    m = solve_triangular(l, y.T, inverses=inverses).T
    # the two solves break exact symmetry at roundoff; restored exactly, m
    # needs no symmetry test, but an overflow must still refuse the step
    m = 0.5 * (m + m.T)
    _require_finite(m, "m")
    return l @ _halve_onto_lower(m)


def ldu_derivative_apply(l, d, u, tan: LDUTangent) -> np.ndarray:
    """First-order response a @ d @ u + l @ s @ u + l @ d @ b of the product
    l @ d @ u to the tangent triple (a, s, b), an LDUTangent."""
    _require_instance(tan, LDUTangent, "tan")
    l, d, u = _base(LDUTriple, l, d, u)
    if tan.n != len(l):
        raise ShapeError("tangent dimension does not match the base point")
    dvec = np.diagonal(d)
    return (tan.a * dvec) @ u + (l * np.diagonal(tan.s)) @ u + (l * dvec) @ tan.b


def ldu_derivative_solve(l, d, u, e, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LDUTangent:
    """Tangent triple (a, s, b) with a @ d @ u + l @ s @ u + l @ d @ b = e.

    Raises SingularD when a diagonal entry of d is at or below the absolute
    singularity floor.
    """
    l, d, u, e = _base(LDUTriple, l, d, u, e=e)
    dvec = np.diag(d)
    if _singular_d(d, cfg):
        raise SingularD("d has a diagonal entry below the singularity threshold")
    y = solve_triangular(l, e)
    m = solve_triangular(u.T, y.T).T
    ml, md, mu = _split_lower_diag_upper(m)
    return LDUTangent._own((l @ ml) / dvec[None, :], md, (mu / dvec[:, None]) @ u)
