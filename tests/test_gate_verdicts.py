"""Verdicts of the retraction gate and the QR and Cholesky domain tests at
their thresholds.

Each input sits a relative 1e-9 (retraction) or 1e-6 (domain tests) inside
or outside its threshold, at a distance the exact svd/eigvalsh tests resolve
many times over, so every expected verdict follows from the construction.
Cheaper tests that run first (a Frobenius gate, a Cholesky certificate) may
only decide inputs whose verdict is already certain; at these edges the
outcome, the exception type, its message and its t must stay those of the
exact tests.
"""

from dataclasses import replace

import numpy as np
import pytest

from factordiff import (
    DEFAULT_TOLERANCES,
    PathLeavesDomain,
    TooFarFromGroup,
    hs_norm,
    orthogonality_defect,
    retract_orthogonal,
)
from factordiff.newton import _cholesky_domain, _qr_domain

T = 0.375
# a threshold of 1e-6 (1 + ||a||) puts a relative 1e-6 step about 1e-12 ||a||
# away from it, far above the few-eps ||a|| error of svd and eigvalsh
WIDE = replace(DEFAULT_TOLERANCES, singularity_tol=1e-6)


def orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))[None, :]


def with_singular_values(rng, s):
    n = len(s)
    return (orthogonal(rng, n) * np.asarray(s)[None, :]) @ orthogonal(rng, n).T


def reference_retract(m, cfg=DEFAULT_TOLERANCES):
    """The retraction as the eigenvalue gate and the three-product iteration
    wrote it: any faster form must return these bits and raise these errors."""
    m = np.array(m, dtype=np.float64)
    n = m.shape[0]
    gram = m.T @ m
    eig = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    if float(np.max(np.abs(eig - 1.0))) > 0.5 + 1e-12:
        raise TooFarFromGroup("matrix is not within distance 0.5 of the orthogonal group")
    eye = np.eye(n)
    x = m.copy()
    for _ in range(60):
        if orthogonality_defect(x) <= cfg.structural_tol * (1.0 + hs_norm(x)):
            return x
        x = x @ (1.5 * eye - 0.5 * (x.T @ x))
    raise AssertionError("reference retraction did not converge")


def gram_eigenvalues(rng, n, extreme, others):
    """Eigenvalues of m^T m: one at extreme, the rest uniform in 1 +- others."""
    lam = 1.0 + rng.uniform(-others, others, n)
    lam[int(rng.integers(n))] = extreme
    return lam


class TestRetractionGate:
    @pytest.mark.parametrize("n", [3, 40, 128])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    @pytest.mark.parametrize("offset", [-1e-9, 1e-9])
    def test_spectral_edge(self, n, side, offset):
        """max |lambda(m^T m) - 1| = 0.5 + offset, above or below 1."""
        rng = np.random.default_rng([n, int(side > 0), int(offset > 0)])
        lam = gram_eigenvalues(rng, n, 1.0 + side * (0.5 + offset), 0.05)
        m = with_singular_values(rng, np.sqrt(lam))
        if offset > 0:
            with pytest.raises(TooFarFromGroup) as err:
                retract_orthogonal(m)
            assert str(err.value) == "matrix is not within distance 0.5 of the orthogonal group"
        else:
            assert np.array_equal(retract_orthogonal(m), reference_retract(m))

    @pytest.mark.parametrize("n", [3, 40, 128])
    def test_frobenius_above_spectral_below(self, n):
        """||m^T m - I||_F > 0.5 while every eigenvalue is within 0.45 of 1,
        so only the exact eigenvalue gate can accept."""
        rng = np.random.default_rng(7 + n)
        lam = 1.0 + rng.choice([-0.45, 0.45], n)
        m = with_singular_values(rng, np.sqrt(lam))
        gram = m.T @ m
        assert hs_norm(gram - np.eye(n)) > 0.5
        assert np.max(np.abs(np.linalg.eigvalsh(0.5 * (gram + gram.T)) - 1.0)) < 0.5
        assert np.array_equal(retract_orthogonal(m), reference_retract(m))

    @pytest.mark.parametrize("n", [3, 40, 128])
    def test_frobenius_below(self, n):
        rng = np.random.default_rng(11 + n)
        m = with_singular_values(rng, np.sqrt(1.0 + rng.uniform(-0.3, 0.3, n) / np.sqrt(n)))
        assert hs_norm(m.T @ m - np.eye(n)) <= 0.5
        assert np.array_equal(retract_orthogonal(m), reference_retract(m))


def qr_sample(rng, n, rel, cfg):
    """a with smallest singular value rel * cfg.singularity_tol * (1 + ||a||_F)."""
    s = rng.uniform(1.0, 2.0, n)
    u, v = orthogonal(rng, n), orthogonal(rng, n)
    for _ in range(3):  # the threshold moves with ||a||, by far less than rel's step
        s[-1] = rel * cfg.singularity_tol * (1.0 + float(np.sqrt(np.sum(s * s))))
    return (u * s[None, :]) @ v.T


def cholesky_sample(rng, n, rel, cfg):
    """Exactly symmetric a with smallest eigenvalue rel * cfg.singularity_tol *
    (1 + ||a||_F)."""
    lam = rng.uniform(1.0, 2.0, n)
    v = orthogonal(rng, n)
    for _ in range(3):
        lam[-1] = rel * cfg.singularity_tol * (1.0 + float(np.sqrt(np.sum(lam * lam))))
    a = (v * lam[None, :]) @ v.T
    return 0.5 * (a + a.T)


def verdict(domain, a, cfg):
    try:
        domain(a, T, cfg)
    except PathLeavesDomain as exc:
        return type(exc), str(exc), exc.t
    return None


REFUSED = {
    "qr": (PathLeavesDomain, f"a(t) numerically singular at t={T:.6g}", T),
    "cholesky": (PathLeavesDomain, f"a(t) not positive definite at t={T:.6g}", T),
}
CASES = {"qr": (_qr_domain, qr_sample), "cholesky": (_cholesky_domain, cholesky_sample)}


class TestDomainThreshold:
    @pytest.mark.parametrize("kind", ["qr", "cholesky"])
    @pytest.mark.parametrize("n", [3, 40, 128])
    @pytest.mark.parametrize("rel", [1.0 - 1e-6, 1.0 + 1e-6])
    def test_edge(self, kind, n, rel):
        domain, sample = CASES[kind]
        a = sample(np.random.default_rng([n, int(rel > 1.0)]), n, rel, WIDE)
        expected = None if rel > 1.0 else REFUSED[kind]
        assert verdict(domain, a, WIDE) == expected

    @pytest.mark.parametrize("kind", ["qr", "cholesky"])
    @pytest.mark.parametrize("n", [3, 40, 128])
    @pytest.mark.parametrize("rel", [0.0, 0.5, 2.0, 1e6])
    def test_clear_of_edge(self, kind, n, rel):
        """At the default threshold: zero, half, twice and 1e6 times it."""
        domain, sample = CASES[kind]
        a = sample(np.random.default_rng([n, int(10 * rel)]), n, rel, DEFAULT_TOLERANCES)
        expected = REFUSED[kind] if rel < 1.0 else None
        assert verdict(domain, a, DEFAULT_TOLERANCES) == expected

    @pytest.mark.parametrize("n", [3, 40, 128])
    def test_cholesky_indefinite(self, n):
        rng = np.random.default_rng(17 + n)
        v = orthogonal(rng, n)
        lam = rng.uniform(1.0, 2.0, n)
        lam[0] = -1e-3
        a = (v * lam[None, :]) @ v.T
        assert verdict(_cholesky_domain, 0.5 * (a + a.T), DEFAULT_TOLERANCES) == REFUSED["cholesky"]

    @pytest.mark.parametrize("kind", ["qr", "cholesky"])
    @pytest.mark.parametrize("n", [3, 40])
    def test_overflowed_norm(self, kind, n):
        """Entries near 1e200 overflow ||a||_F, so the threshold is inf and
        the exact test refuses; a certificate must not pass such a sample."""
        domain, sample = CASES[kind]
        a = 1e200 * sample(np.random.default_rng(23 + n), n, 1e6, DEFAULT_TOLERANCES)
        with np.errstate(over="ignore", invalid="ignore"):
            assert verdict(domain, a, DEFAULT_TOLERANCES) == REFUSED[kind]
