"""Factorization kernels: the inverse direction of each product map.

Three conventions are fixed here and relied on everywhere else:

* QR is Householder QR followed by a sign pass so the diagonal of r is
  non-negative (strictly positive for invertible input, where the
  factorization is unique). Up to _QR_TAIL columns it is LAPACK's (geqrf +
  orgqr through numpy) as is. Above, it is blocked right-looking, as in
  geqrf: each panel of _BLOCK columns is factored by geqrf alone, its
  reflectors v form the compact-WY block I - v t v^T (Schreiber and Van
  Loan, 1989), with t the inverse of a unit upper triangle (the UT
  transform; Joffrain et al., 2006) by core._upper_inverse, and three matmuls
  apply its transpose to the trailing columns. Once the trailing block is
  at most _QR_TAIL wide, LAPACK factors it, and q is built backwards from
  its q, one block reflector per panel. qr_factor_mgs is an independent
  Gram-Schmidt loop kept as the uniqueness oracle.
* Cholesky clamps pivots within structural tolerance of zero, extending the
  factorization to the semi-definite closure. LAPACK's potrf handles inputs
  that are positive definite by a margin; the clamping loop is the fallback
  for everything else and the only path that refuses an input.
* LDU is Gaussian elimination without pivoting: pivoting would compute a
  different map. Its domain is exactly the matrices whose leading principal
  blocks are invertible. The elimination is blocked right-looking, as in
  LAPACK's getrf without the row interchanges, over diagonal blocks of
  _BLOCK columns. The per-pivot rank-1 loop runs only inside a block.
  The block's panels then take one matmul each against its triangles,
  inverted by core._upper_inverse (which says why that is safe):
  l21 = a21 (d11 u11)^-1 and d11 u12 = l11^-1 a12. One more matmul updates
  the trailing block. Up to _BLOCK columns the matrix is one block and the
  result is bit for bit that of the unblocked elimination.
"""

from __future__ import annotations

import numpy as np

from .core import (
    _BLOCK,
    DEFAULT_TOLERANCES,
    CholeskyFactor,
    LDUTriple,
    QRPair,
    ToleranceConfig,
    _impose,
    _scaled,
    _symmetric,
    _upper_inverse,
    validate_matrix,
)
from .errors import NotInDomainP, NotPositiveSemiDefinite, NotSymmetric, SingularInput

__all__ = [
    "qr_factor",
    "qr_factor_mgs",
    "cholesky_factor",
    "ldu_factor",
    "leading_minor_dets",
    "in_domain_p",
    "cond_estimate",
]

# The widest block qr_factor leaves to LAPACK whole, measured on 2 vCPUs with
# OpenBLAS 0.3.31. geqrf and orgqr run their last 128 columns unblocked, and
# OpenBLAS splits those level-2 calls over its threads: on the default threads
# the blocked kernel took 0.33-0.85x LAPACK's time at n = 97-256. On one thread
# it took 0.65-0.88x at n = 112-256 and 1.09-1.21x at n = 97-100, the
# crossover. A 64-column tail cost 1.09-1.31x at n = 97-108 on one thread, and
# a 100- or 104-column one lost most of the default-thread gain where the last
# tail falls in 97-104 columns. Up to this width the result is LAPACK's bit
# for bit.
_QR_TAIL = 3 * _BLOCK


def qr_factor(a, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> QRPair:
    """Factor a square matrix as q @ r, q orthogonal, r upper triangular with
    non-negative diagonal.

    Total on square inputs, singular ones included, under any cfg: cfg is
    unused, kept so that every kernel takes (a, cfg). Householder QR gives q
    and r, LAPACK's up to _QR_TAIL columns and blocked above (see the module
    docstring); a final sign pass flips rows of r and the matching columns
    of q wherever a diagonal entry of r is negative. The pair is stored as
    computed, with no numeric test: Householder q is orthogonal to roundoff, and
    the sign pass leaves diag(r) >= 0 exactly. For invertible input the result
    is the unique pair with positive diagonal. For singular input only the
    product is contractual. The convention is that of LAPACK's reflector: a
    sub-column x with leading entry alpha is mapped to beta = -sign(alpha)
    ||x||, a zero sub-column gets the identity reflector, and the sign pass
    follows. Where roundoff leaves a nonzero trailing block, the columns of q
    spanning the complement of the range follow that roundoff.
    """
    # factored in place: a holds each panel's r on and above its diagonal,
    # and its reflectors below it, which QRPair._own zeros
    a = validate_matrix(a, "a")
    n = len(a)
    panels = []
    k0 = 0
    while n - k0 > _QR_TAIL:
        k1 = k0 + _BLOCK
        h, tau = np.linalg.qr(a[k0:, k0:k1], mode="raw")
        v = h.T  # geqrf's layout; numpy returns it transposed
        a[k0:, k0:k1] = v
        _impose(v[:_BLOCK], "unit lower triangular")
        # tau = 0, the identity reflector of a zero sub-column, is exact here
        t = _upper_inverse(_impose(tau[:, None] * (v.T @ v), "unit upper triangular")) * tau
        c = a[k0:, k1:]
        c -= v @ (t.T @ (v.T @ c))
        panels.append((k0, v, t))
        k0 = k1
    q, r = np.linalg.qr(a[k0:, k0:])
    if panels:
        a[k0:, k0:] = r
        r = a
        tail, q = q, np.eye(n)
        q[k0:, k0:] = tail
        for k0, v, t in reversed(panels):
            x = q[k0:, k0:]
            x -= v @ (t @ (v.T @ x))
    # x * -1.0 is -x to the bit, signed zeros included, and x * 1.0 is x
    sign = np.where(r.diagonal() < 0.0, -1.0, 1.0)
    r *= sign[:, None]
    q *= sign
    return QRPair._own(q, r)


def qr_factor_mgs(a, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> QRPair:
    """Modified Gram-Schmidt factorization with positive diagonal, for
    invertible input.

    Independent of qr_factor, which makes the two kernels a cross-check pair:
    on invertible matrices the factorization is unique, so they must agree.
    A second orthogonalization sweep keeps q orthogonal to roundoff even for
    ill-conditioned input.

    Raises SingularInput when a column pivot falls below
    singularity_tol * (1 + ||a||).
    """
    a = validate_matrix(a, "a")
    n = a.shape[0]
    thresh = _scaled(cfg.singularity_tol, a)
    q = np.zeros((n, n))
    r = np.zeros((n, n))
    for k in range(n):
        w = a[:, k].copy()
        for _ in range(2):
            for i in range(k):
                c = float(q[:, i] @ w)
                r[i, k] += c
                w -= c * q[:, i]
        rkk = float(np.linalg.norm(w))
        if rkk <= thresh:
            raise SingularInput(f"column pivot {k + 1} below singularity threshold")
        r[k, k] = rkk
        q[:, k] = w / rkk
    return QRPair(q, r, cfg)


def cholesky_factor(a, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CholeskyFactor:
    """Lower-triangular square root of a symmetric positive semi-definite
    matrix: a = l @ l^T with diag(l) >= 0.

    A pivot within structural tolerance of zero is clamped to zero, which is
    legitimate only when the remainder of that column is negligible too (true
    for any semi-definite matrix); otherwise the input is rejected. Strictly
    positive pivots throughout mean the input was positive definite and the
    factor is the unique one with positive diagonal.

    LAPACK's potrf factors the input first; its factor is returned when every
    squared pivot exceeds the clamp threshold. Otherwise (potrf refuses, or a
    pivot is small enough to clamp) the clamping loop factors the input and
    gives every verdict and failing pivot index. Both leave diag(l) >= 0, so
    the factor is stored as computed, with no sign test.

    Raises NotSymmetric or NotPositiveSemiDefinite (with the pivot index).
    """
    a = validate_matrix(a, "a")
    if not _symmetric(a, cfg):
        raise NotSymmetric("matrix is not symmetric within structural tolerance")
    w = 0.5 * (a + a.T)
    n = a.shape[0]
    struct = _scaled(cfg.structural_tol, a)
    try:
        l = np.linalg.cholesky(w)
    except np.linalg.LinAlgError:
        pass
    else:
        # every pivot clears the clamp threshold, so the loop below would
        # take the unclamped branch throughout
        if float(l.diagonal().min()) ** 2 > struct:
            return CholeskyFactor._own(l)
    l = np.zeros((n, n))
    for j in range(n):
        pivot = float(w[j, j] - l[j, :j] @ l[j, :j])
        if pivot < -struct:
            raise NotPositiveSemiDefinite(j + 1)
        col = w[j + 1:, j] - l[j + 1:, :j] @ l[j, :j]
        if pivot <= struct:
            # zero pivot: a PSD matrix must have a zero residual column here
            if col.size and float(np.abs(col).max()) > struct:
                raise NotPositiveSemiDefinite(
                    j + 1, f"k={j + 1}: pivot {j + 1} is zero but the column below it is not"
                )
            l[j, j] = 0.0
        else:
            l[j, j] = np.sqrt(pivot)
            l[j + 1:, j] = col / l[j, j]
    return CholeskyFactor._own(l)


def ldu_factor(a, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LDUTriple:
    """Unit-lower / diagonal / unit-upper factorization by elimination
    without pivoting.

    Succeeds exactly when every elimination pivot clears the singularity
    threshold, i.e. when every leading principal block is numerically
    invertible; then a = l @ d @ u and the triple is unique.

    Raises NotInDomainP carrying the 1-based index of the first failing pivot.
    """
    # eliminated in place: multipliers of l below the diagonal, the pivots on
    # it, and the rows of d @ u above it
    work = validate_matrix(a, "a")
    n = work.shape[0]
    thresh = _scaled(cfg.singularity_tol, work)
    for k0 in range(0, n, _BLOCK):
        k1 = min(k0 + _BLOCK, n)
        for k in range(k0, k1):
            p = float(work[k, k])
            if abs(p) <= thresh:
                raise NotInDomainP(k + 1)
            col = work[k + 1:k1, k]
            col /= p
            work[k + 1:k1, k + 1:k1] -= col[:, None] * work[k, k + 1:k1]
        if k1 < n:
            # the block holds l11 below its diagonal, d11 @ u11 on and above it
            block = work[k0:k1, k0:k1]
            du11 = _impose(block.copy(), "upper triangular")
            l11 = _impose(block.copy(), "unit lower triangular")
            work[k1:, k0:k1] = work[k1:, k0:k1] @ _upper_inverse(du11)
            work[k0:k1, k1:] = _upper_inverse(l11.T).T @ work[k0:k1, k1:]
            work[k1:, k1:] -= work[k1:, k0:k1] @ work[k0:k1, k1:]
    # LDUTriple._own imposes each factor's part of work in place, so each
    # gets its own array; every pivot cleared thresh >= d's singularity floor
    l, d = work.copy(), work.copy()
    work /= d.diagonal()[:, None]
    return LDUTriple._own(l, d, work)


def in_domain_p(a, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """True when every elimination pivot clears the singularity threshold,
    i.e. all leading principal blocks are numerically invertible."""
    try:
        ldu_factor(a, cfg)
    except NotInDomainP:
        return False
    return True


def leading_minor_dets(a) -> list[float]:
    """Determinants of the top-left k-by-k blocks for k = 1..n.

    Computed by pivoted LU, independently of the no-pivot elimination
    kernel, so the list can serve as an oracle for the pivot ladder d[0][0],
    d[0][0]*d[1][1], ... of ldu_factor.
    """
    a = validate_matrix(a, "a")
    return [float(np.linalg.det(a[:k, :k])) for k in range(1, a.shape[0] + 1)]


def cond_estimate(m) -> float:
    """Cheap conditioning proxy for a triangular or diagonal factor: the
    ratio of extreme diagonal magnitudes (inf when the diagonal has a zero)."""
    dmag = np.abs(validate_matrix(m, "m").diagonal())
    lo = float(dmag.min())
    if lo == 0.0:
        return float("inf")
    return float(dmag.max()) / lo
