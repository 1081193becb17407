"""Loop implementations of the QR and LDU factor kernels, kept as test oracles.

These are the plain Householder and unblocked-elimination loops that the
library's LAPACK-backed and blocked kernels replaced. They return bare arrays
(no container validation), so a test can compare them entrywise with the
library kernels.
"""

import numpy as np

from factordiff import DEFAULT_TOLERANCES, NotInDomainP, hs_norm

EPS = float(np.finfo(np.float64).eps)


def qr_householder(a):
    """q, r with q @ r = a by Householder reflections, then a sign pass.

    Reflector convention: beta = -sign(alpha) * ||x|| for the sub-column x
    with leading entry alpha; an all-zero sub-column gets the identity
    reflector. The sign pass then flips each row of r whose diagonal entry is
    negative, together with the matching column of q.
    """
    r = np.array(a, dtype=np.float64)
    n = r.shape[0]
    q = np.eye(n)
    for j in range(n - 1):
        x = r[j:, j]
        norm_x = float(np.linalg.norm(x))
        if norm_x == 0.0:
            continue
        v = x.copy()
        v[0] += np.copysign(norm_x, x[0])
        vtv = float(v @ v)
        if vtv == 0.0:
            continue
        beta = 2.0 / vtv
        r[j:, :] -= np.outer(beta * v, v @ r[j:, :])
        q[:, j:] -= np.outer(q[:, j:] @ v, beta * v)
    r = np.triu(r)
    neg = np.diag(r) < 0.0
    if np.any(neg):
        r[neg, :] = -r[neg, :]
        q[:, neg] = -q[:, neg]
    return q, r


def ldu_unblocked(a, cfg=DEFAULT_TOLERANCES):
    """l, d (as a vector), u by one rank-1 update per pivot, no pivoting.

    Raises NotInDomainP with the 1-based index of the first pivot at or below
    singularity_tol * (1 + ||a||).
    """
    work = np.array(a, dtype=np.float64)
    n = work.shape[0]
    thresh = cfg.singularity_tol * (1.0 + hs_norm(work))
    l = np.eye(n)
    u = np.eye(n)
    d = np.zeros(n)
    for k in range(n):
        p = float(work[k, k])
        if abs(p) <= thresh:
            raise NotInDomainP(k + 1)
        d[k] = p
        l[k + 1:, k] = work[k + 1:, k] / p
        u[k, k + 1:] = work[k, k + 1:] / p
        work[k + 1:, k + 1:] -= np.outer(l[k + 1:, k], work[k, k + 1:])
    return l, d, u


def factor_tol(n, norm):
    """Agreement budget between two backward-stable factorizations of one
    well-conditioned input, for a factor of Frobenius norm `norm`: each
    entry of an n x n product accumulates about n roundings, and 16 covers
    the difference of two such error terms with a margin. Callers multiply in
    a condition number where the input may be ill-conditioned."""
    return 16.0 * n * EPS * (1.0 + norm)


def cond_f(a):
    """Frobenius-norm condition number ||a||_F ||a^-1||_F, the first-order
    sensitivity of each factor to a relative perturbation of a."""
    return hs_norm(a) * hs_norm(np.linalg.inv(a))


def substitute(t, c, lower=False):
    """x with t @ x = c for triangular t, one row per step: forward
    substitution for lower t, back substitution for upper t. Reads only the
    diagonal and the named triangle of t."""
    t = np.asarray(t, dtype=np.float64)
    x = np.array(c, dtype=np.float64)
    n = t.shape[0]
    for i in range(n) if lower else range(n - 1, -1, -1):
        done = slice(0, i) if lower else slice(i + 1, n)
        x[i] = (x[i] - t[i, done] @ x[done]) / t[i, i]
    return x
