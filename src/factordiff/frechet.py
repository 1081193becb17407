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
triangular or diagonal solve. Above 32 columns a triangular solve inverts
only the 32-by-32 diagonal blocks of its triangle.

Every triangular solve goes through `solve_triangular`, which calls numpy's
LAPACK gesv, so numpy's OpenBLAS is the only BLAS the package loads. On an
upper-triangular t with a nonzero diagonal, gesv's partial pivoting finds
only zeros below each pivot: getrf swaps no rows, its multipliers are exactly
zero and its U is t itself, so getrs reduces to back substitution. A lower t
is solved as the upper system with its rows and columns reversed, so it is
never pivoted either. Each solve routine checks the diagonal against the
singularity threshold before it solves.

A triangle of at most 32 columns takes one gesv call. A larger one is solved
by block substitution: each 32-by-32 diagonal block is inverted by gesv
against the identity, which returns an exactly triangular inverse, then one
matmul applies it and one matmul per block subtracts the part already
solved. gesv on the whole triangle runs getrf over its zero half; at
n = 128 that took ~0.6 ms per solve against ~0.3 ms blocked. gesv on each
diagonal block would still pay getrs: ~90 us for a 32-by-32 block with 128
right-hand sides, against ~35 us to invert the block and ~7 us for the matmul
(2-vCPU host, default OpenBLAS threads). Applying inverted diagonal blocks
is as stable as substitution while those blocks are well conditioned
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 13).
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    LDUTangent,
    QRTangent,
    ToleranceConfig,
    hs_norm,
    _require_orthogonal,
    _validate_matching,
    split_lower_diag_upper,
    split_skew_upper,
    sym_to_lower,
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


def _require_lower(m: np.ndarray, name: str) -> None:
    if np.any(np.triu(m, 1) != 0.0):
        raise ShapeError(f"{name} must be lower triangular (exact zeros above the diagonal)")


def _require_upper(m: np.ndarray, name: str) -> None:
    if np.any(np.tril(m, -1) != 0.0):
        raise ShapeError(f"{name} must be upper triangular (exact zeros below the diagonal)")


def _require_unit_diag(m: np.ndarray, name: str) -> None:
    if np.any(np.diag(m) != 1.0):
        raise ShapeError(f"{name} must have a unit diagonal")


def _require_diagonal(m: np.ndarray, name: str) -> None:
    if np.any((m - np.diag(np.diag(m))) != 0.0):
        raise ShapeError(f"{name} must be diagonal")


# One base-point rule per map, shared by its apply and its solve: the factors
# and any further named matrices pass _validate_matching together, then the
# factors' exact structure is required. QR's q must pass QRPair's orthogonality
# test: QRTangent's skew check alone misses a scaled q, since q^T (q s) = c^2 s.


def _qr_base(q, r, cfg=DEFAULT_TOLERANCES, **rest) -> tuple:
    q, r, *rest = _validate_matching(q=q, r=r, **rest)
    _require_orthogonal(q, cfg)
    _require_upper(r, "r")
    return (q, r, *rest)


def _cholesky_base(l, **rest) -> tuple:
    l, *rest = _validate_matching(l=l, **rest)
    _require_lower(l, "l")
    return (l, *rest)


def _ldu_base(l, d, u, **rest) -> tuple:
    l, d, u, *rest = _validate_matching(l=l, d=d, u=u, **rest)
    _require_lower(l, "l")
    _require_unit_diag(l, "l")
    _require_upper(u, "u")
    _require_unit_diag(u, "u")
    _require_diagonal(d, "d")
    return (l, d, u, *rest)


_BLOCK = 32


def _solve_upper(t, c):
    n = t.shape[0]
    if n <= _BLOCK:
        return np.linalg.solve(t, c)
    x = np.empty(c.shape)
    for s in range((n - 1) // _BLOCK * _BLOCK, -1, -_BLOCK):
        e = min(s + _BLOCK, n)
        x[s:e] = np.linalg.inv(t[s:e, s:e]) @ (c[s:e] - t[s:e, e:] @ x[e:])
    return x


def solve_triangular(t, c, lower=False):
    """x with t @ x = c for triangular t with a nonzero diagonal. A lower t
    is solved as t[::-1, ::-1] @ x[::-1] = c[::-1], which is upper
    triangular.

    Up to 32 columns the upper solve is one gesv call. Beyond, it is back
    substitution over 32-row blocks: each diagonal block is inverted (gesv
    against the identity) and applied by one matmul, after one matmul
    subtracts the rows already solved. Its error stays at the level of
    substitution's while every diagonal block is well conditioned; the
    diagonal blocks of a triangle are no worse conditioned than the triangle.
    """
    if lower:
        return _solve_upper(t[::-1, ::-1], c[::-1])[::-1]
    return _solve_upper(t, c)


def _solve_right_triangular(c, r, lower=False):
    # x @ r = c, solved as r^T x^T = c^T
    return solve_triangular(r.T, c.T, lower=not lower).T


def qr_derivative_apply(q, r, tan: QRTangent) -> np.ndarray:
    """First-order response u @ r + q @ v of the product q @ r to the
    tangent (u, v). The tangent must be based at this q."""
    q, r = _qr_base(q, r)
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
    q, r, e = _qr_base(q, r, cfg, e=e)
    if float(np.min(np.abs(np.diag(r)))) <= cfg.singularity_tol * (1.0 + hs_norm(r)):
        raise SingularR("r has a diagonal entry below the singularity threshold")
    m = _solve_right_triangular(q.T @ e, r)
    s, t = split_skew_upper(m)
    return QRTangent(q @ s, t @ r, base_q=q, cfg=cfg)


def cholesky_derivative_apply(l, v) -> np.ndarray:
    """First-order response l @ v^T + v @ l^T (always symmetric) of the
    product l @ l^T to a lower-triangular tangent v."""
    l, v = _cholesky_base(l, v=v)
    _require_lower(v, "v")
    return l @ v.T + v @ l.T


def cholesky_derivative_solve(l, e, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Lower-triangular tangent v with l @ v^T + v @ l^T = e, for symmetric e
    and l with positive diagonal.

    Raises SingularL on a near-zero diagonal of l, NotSymmetric on
    asymmetric e.
    """
    l, e = _cholesky_base(l, e=e)
    if float(np.min(np.abs(np.diag(l)))) <= cfg.singularity_tol * (1.0 + hs_norm(l)):
        raise SingularL("l has a diagonal entry below the singularity threshold")
    if hs_norm(e - e.T) > cfg.structural_tol * (1.0 + hs_norm(e)):
        raise NotSymmetric("e is not symmetric within structural tolerance")
    y = solve_triangular(l, e, lower=True)
    m = solve_triangular(l, y.T, lower=True).T
    m = 0.5 * (m + m.T)  # the two solves break exact symmetry at roundoff
    return l @ sym_to_lower(m, cfg)


def ldu_derivative_apply(l, d, u, tan: LDUTangent) -> np.ndarray:
    """First-order response a @ d @ u + l @ s @ u + l @ d @ b of the product
    l @ d @ u to the tangent triple (a, s, b)."""
    l, d, u = _ldu_base(l, d, u)
    if tan.n != len(l):
        raise ShapeError("tangent dimension does not match the base point")
    return tan.a @ d @ u + l @ tan.s @ u + l @ d @ tan.b


def ldu_derivative_solve(l, d, u, e, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LDUTangent:
    """Tangent triple (a, s, b) with a @ d @ u + l @ s @ u + l @ d @ b = e.

    Raises SingularD when a diagonal entry of d is below the singularity
    threshold.
    """
    l, d, u, e = _ldu_base(l, d, u, e=e)
    dvec = np.diag(d)
    # absolute threshold: blow-up base points mix tiny and huge entries in d
    if float(np.min(np.abs(dvec))) <= cfg.singularity_tol:
        raise SingularD("d has a diagonal entry below the singularity threshold")
    y = solve_triangular(l, e, lower=True)
    m = _solve_right_triangular(y, u)
    ml, md, mu = split_lower_diag_upper(m)
    a = (l @ ml) / dvec[None, :]
    b = (mu / dvec[:, None]) @ u
    return LDUTangent(a, md, b)
