"""Verdicts of the retraction gate and the QR, Cholesky and LDU domain tests
at their thresholds.

Each input sits a relative 1e-9 (retraction) or 1e-6 (domain tests) inside
or outside its threshold, at a distance the exact svd/eigvalsh tests resolve
many times over, so every expected verdict follows from the construction.
Cheaper tests that run first (a Frobenius gate, a Cholesky certificate) may
only decide inputs whose verdict is already certain; at these edges the
outcome, the exception type, its message and its t must stay those of the
exact tests. The LDU test certifies a tracked sample by its corrected
triple, so its battery runs whole paths through track_ldu.
"""

from dataclasses import replace

import numpy as np
import pytest
from conftest import recording

from factordiff import (
    DEFAULT_TOLERANCES,
    NoConvergence,
    PathLeavesDomain,
    PathSpec,
    TooFarFromGroup,
    hs_norm,
    in_domain_p,
    orthogonality_defect,
    retract_orthogonal,
    track_ldu,
)
from factordiff import newton
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


def unit_triangle(rng, n, lower, spread=1.0):
    """Unit triangle with off-diagonal entries below spread / n. At spread 1
    every row sum of its strict part is below 1, so its inverse stays
    bounded at any n; at spread 100 its condition number reaches ~3e3 at
    n = 3, ~1e9 at n = 40 and ~1e6 at n = 128."""
    strict = rng.uniform(-1.0, 1.0, (n, n)) * spread / n
    return (np.tril(strict, -1) if lower else np.triu(strict, 1)) + np.eye(n)


def ldu_family(rng, n, k, rel, cfg, spread):
    """Samples {"a0": l0 d0 u0, "planted": l0 d* u1, "a1": l1 d0 u1,
    "near": l0 (d* + delta (e_k e_k^T + g)) u1}: d* is d0 with pivot k at
    rel * cfg.singularity_tol * (1 + ||planted||_F).

    l1 = l0 (I + e_j e_i^T) and u1 = (I + beta e_i e_j^T) u0 for two indices
    i < j other than k, with beta = -d0_j / d0_i. A step between two of a0,
    planted and a1 shares l or u, so its prediction is exact. The direct
    step from a0 to a1 predicts pivot j at d0_j + beta d0_i = 0, leaves the
    chart and halves, although every pivot of a1 is one of d0. near has
    pivot k about delta = sqrt(structural_tol) above d*_k, but its g, with
    entries up to 1, bends the factor path: the step from near to planted
    misses pivot k by about delta^2 = structural_tol, which the corrector
    may accept unchanged.
    """
    i, j = [m for m in range(n) if m != k][:2]
    d0 = rng.uniform(1.0, 2.0, n)
    l0, u0 = unit_triangle(rng, n, True, spread), unit_triangle(rng, n, False, spread)
    l1, u1 = l0.copy(), u0.copy()
    l1[:, i] += l0[:, j]
    u1[i, :] -= d0[j] / d0[i] * u0[j, :]
    planted = d0.copy()
    for _ in range(3):  # the threshold moves with ||a||, by far less than rel's step
        planted[k] = rel * cfg.singularity_tol * (1.0 + hs_norm((l0 * planted) @ u1))
    bend = rng.uniform(-1.0, 1.0, (n, n))
    bend[k, k] = 1.0
    near = np.diag(planted) + np.sqrt(cfg.structural_tol) * bend
    return {
        "a0": (l0 * d0) @ u0,
        "planted": (l0 * planted) @ u1,
        "a1": (l1 * d0) @ u1,
        "near": l0 @ near @ u1,
    }


def through(knots):
    """The family through the matrices knots[t], linear between them, so
    that a halving may sample it anywhere."""
    ts = sorted(knots)

    def family(s):
        if s in knots:
            return knots[s]
        hi = next(i for i, t in enumerate(ts) if t > s)
        w = (s - ts[hi - 1]) / (ts[hi] - ts[hi - 1])
        return (1.0 - w) * knots[ts[hi - 1]] + w * knots[ts[hi]]

    return family


# placement: (steps, the samples at t = 0, 0.5 and 1 that the path passes
# through, t of the planted sample)
PLACEMENTS = {
    "grid": (2, ("a0", "planted", "a1"), 0.5),
    "midpoint": (1, ("a0", "planted", "a1"), 0.5),
    "start": (1, ("planted", None, "a1"), 0.0),
    "near": (1, ("near", None, "planted"), 1.0),
}


LDU_RELS = [0.0, 0.5, 1.0 - 1e-6, 1.0 + 1e-6, 2.0, 1e6]
# (spread of the triangles, structural_tol / singularity_tol): well
# conditioned, ill conditioned, and a corrector tolerance above the pivot
# threshold, which lets a prediction stand that misses the pivots by more
# than the threshold
VARIANTS = {"well": (1.0, None), "ill": (100.0, None), "loose": (1.0, 100.0)}


class TestLDUVerdict:
    """track_ldu on paths through one sample whose pivot k (1, ceil(n/2) or
    n) sits at rel times ldu_factor's pivot threshold, as a grid sample, as
    the midpoint of a halved step, at t=0, or at the end of a short step
    whose prediction is off. The outcome must be in_domain_p's verdict on
    that sample: a report, or PathLeavesDomain at its t. The edges
    rel = 1 +- 1e-6 run under WIDE, so that they stand far above the
    roundoff of a well-conditioned elimination; with ill-conditioned
    triangles that roundoff may decide the verdict, which is then still
    in_domain_p's."""

    @pytest.mark.parametrize("variant", list(VARIANTS))
    @pytest.mark.parametrize("where", PLACEMENTS)
    @pytest.mark.parametrize("n", [3, 40, 128])
    @pytest.mark.parametrize("pivot", ["first", "middle", "last"])
    @pytest.mark.parametrize("rel", LDU_RELS)
    def test_verdict(self, monkeypatch, variant, where, n, pivot, rel):
        spread, loose = VARIANTS[variant]
        cfg = WIDE if abs(rel - 1.0) < 1e-3 else DEFAULT_TOLERANCES
        if loose is not None:
            cfg = replace(cfg, structural_tol=loose * cfg.singularity_tol)
        k = {"first": 0, "middle": (n + 1) // 2 - 1, "last": n - 1}[pivot]
        seed = [n, k, LDU_RELS.index(rel), list(PLACEMENTS).index(where)]
        rng = np.random.default_rng(seed + [list(VARIANTS).index(variant)])
        samples = ldu_family(rng, n, k, rel, cfg, spread)
        steps, names, t = PLACEMENTS[where]
        knots = {s: samples[name] for s, name in zip((0.0, 0.5, 1.0), names) if name}
        evaluate, seen = recording(through(knots))

        planted = samples["planted"]
        inside = in_domain_p(planted, cfg)
        if variant != "ill":
            assert inside == (rel > 1.0)
        # the path's other samples lie inside the domain
        assert all(in_domain_p(m, cfg) for m in knots.values() if m is not planted)

        corrected = []  # every correction at the planted sample
        correct = newton.ldu_newton_correct

        def recorded(a, guess, cfg, max_iters=20):
            fac, it = correct(a, guess, cfg, max_iters)
            if np.array_equal(a, planted):
                corrected.append(fac)
            return fac, it

        monkeypatch.setattr(newton, "ldu_newton_correct", recorded)
        try:
            # a sample that only roundoff keeps in the domain is a base point
            # no step leaves: its corrector overflows and gives up
            report = track_ldu(PathSpec(evaluate, steps=steps), cfg)
        except PathLeavesDomain as exc:
            outcome = (str(exc), exc.t)
        except NoConvergence:
            assert variant == "ill" and inside
            outcome = None
        else:
            outcome = None
            assert report.ts == [i / steps for i in range(steps + 1)]
        refused = (f"a(t) has a numerically zero leading pivot at t={t:.6g}", t)
        assert outcome == (None if inside else refused)
        if where == "midpoint":
            assert seen[:3] == [0.0, 1.0, 0.5]
        # the certificate itself, not only the exact test after it, must
        # never prove a sample that in_domain_p refuses
        assert inside or not any(newton._ldu_certified(planted, f, cfg) for f in corrected)

    def test_corrector_tolerance_above_threshold(self):
        # at structural_tol 1e-8 the corrector accepts the predicted d_2 =
        # 2e-8 at t = 1 unchanged, but a(1) = [[1, 1], [1, 1]] has a zero
        # second pivot: the certificate must not read the domain from that d
        cfg = replace(DEFAULT_TOLERANCES, structural_tol=1e-8)

        def family(t):
            c = 1.0 - 2e-4 * (1.0 - t)
            return np.array([[1.0, c], [c, 1.0]])

        with pytest.raises(PathLeavesDomain) as left:
            track_ldu(PathSpec(family, steps=2), cfg)
        assert (str(left.value), left.value.t) == (
            "a(t) has a numerically zero leading pivot at t=1",
            1.0,
        )
