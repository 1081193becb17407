"""Verdicts of the retraction gate and the QR, Cholesky and LDU domain tests
at their thresholds.

Each input sits a relative 1e-9 (retraction) or 1e-6 (domain tests) inside
or outside its threshold, at a distance the exact svd/eigvalsh tests resolve
many times over, so every expected verdict follows from the construction.
A cheaper test that runs first may only decide inputs whose verdict is
already certain: the retraction's Frobenius gate, and the certificate that
each tracker reads from the factors it accepted at a sample before it runs
the exact test. At these edges the outcome, the exception type, its message
and its t must stay those of the exact tests. The certificates read factors
from the corrector, so their batteries run whole paths through the trackers.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from conftest import recording
from hypothesis import given
from hypothesis import strategies as st

from factordiff import (
    DEFAULT_TOLERANCES,
    CholeskyFactor,
    LDUTriple,
    NoConvergence,
    PathLeavesDomain,
    PathSpec,
    QRPair,
    TooFarFromGroup,
    cholesky_factor,
    hs_norm,
    in_domain_p,
    ldu_factor,
    orthogonality_defect,
    qr_factor,
    retract_orthogonal,
    track_cholesky,
    track_ldu,
    track_qr,
)
from factordiff import newton
from factordiff.core import _upper_inverse
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


def qr_sample(rng, n, rel, cfg, decades=0.0):
    """a with smallest singular value rel * cfg.singularity_tol * (1 + ||a||_F),
    the others in [1, 2], each divided by 10^U(0, decades) when decades > 0.
    The draws do not depend on rel."""
    s = rng.uniform(1.0, 2.0, n)
    if decades:
        s /= 10.0 ** rng.uniform(0.0, decades, n)
    u, v = orthogonal(rng, n), orthogonal(rng, n)
    for _ in range(3):  # the threshold moves with ||a||, by far less than rel's step
        s[-1] = rel * cfg.singularity_tol * (1.0 + float(np.sqrt(np.sum(s * s))))
    return (u * s[None, :]) @ v.T


def cholesky_sample(rng, n, rel, cfg, decades=0.0):
    """Exactly symmetric a with smallest eigenvalue rel * cfg.singularity_tol *
    (1 + ||a||_F), the others as qr_sample's singular values."""
    lam = rng.uniform(1.0, 2.0, n)
    if decades:
        lam /= 10.0 ** rng.uniform(0.0, decades, n)
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


def measured(a, fac):
    """The residual the tracker measures for fac at a, which its certificate reads."""
    return hs_norm(a - fac.product())


def factor_cases(n, scale):
    """{map: (a, factor)}: a is scale times a sample well inside the map's
    domain, and the factor is its kernel's factor of that sample, scaled to
    match a (for LDU, d by scale)."""
    rng = np.random.default_rng(29 + n)
    a = qr_sample(rng, n, 1e6, DEFAULT_TOLERANCES)
    s = cholesky_sample(rng, n, 1e6, DEFAULT_TOLERANCES)
    pair, root, trip = qr_factor(a), cholesky_factor(s), ldu_factor(s)
    return {
        "qr": (scale * a, QRPair._own(pair.q.copy(), scale * pair.r)),
        "cholesky": (scale * s, CholeskyFactor._own(np.sqrt(scale) * root.l)),
        "ldu": (scale * s, LDUTriple._own(trip.l.copy(), scale * trip.d, trip.u.copy())),
    }


class TestCertificates:
    """The certificates each tracker reads from its accepted factors must
    prove nothing, and raise no RuntimeWarning (the suite turns one into an
    error), where a triangle is singular or a norm overflows."""

    CERTIFIED = {"qr": "_qr_certified", "cholesky": "_cholesky_certified", "ldu": "_ldu_certified"}

    @pytest.mark.parametrize("kind", list(CERTIFIED))
    @pytest.mark.parametrize("n", [3, 40])
    def test_zero_diagonal(self, kind, n):
        """A zero on the diagonal of r, l or d: a and its factor are singular."""
        certified = getattr(newton, self.CERTIFIED[kind])
        a, fac = factor_cases(n, 1.0)[kind]
        assert certified(a, fac, measured(a, fac), DEFAULT_TOLERANCES)
        parts = [getattr(fac, c).copy() for c in type(fac).__slots__]
        parts[0 if kind == "cholesky" else 1][n // 2, n // 2] = 0.0
        singular = type(fac)._own(*parts)
        a = singular.product()
        assert not certified(a, singular, measured(a, singular), DEFAULT_TOLERANCES)

    @pytest.mark.parametrize("kind", list(CERTIFIED))
    @pytest.mark.parametrize("n", [3, 40])
    def test_overflowed_norm(self, kind, n):
        """Entries near 1e200, as in TestDomainThreshold: ||a||_F overflows,
        and the exact test refuses. The measured residual would overflow
        too, so the certificate gets none, the most a residual can prove."""
        a, fac = factor_cases(n, 1e200)[kind]
        assert not getattr(newton, self.CERTIFIED[kind])(a, fac, 0.0, DEFAULT_TOLERANCES)

    @pytest.mark.parametrize("n", [3, 40])
    def test_qr_reads_the_orthogonality_of_q(self, n):
        """(q / 2, 2 r) has the product of (q, r), but 1 / ||(2 r)^-1|| is
        twice sigma_min(a): only q^T q - I shows it, and a below the
        threshold must stay unproved."""
        a = qr_sample(np.random.default_rng(31 + n), n, 0.6, DEFAULT_TOLERANCES)
        pair = qr_factor(a)
        halved = QRPair._own(0.5 * pair.q, 2.0 * pair.r)
        assert verdict(_qr_domain, a, DEFAULT_TOLERANCES) == REFUSED["qr"]
        assert not newton._qr_certified(a, halved, measured(a, halved), DEFAULT_TOLERANCES)

    def test_inverse_norm_of_a_singular_triangle(self):
        t = np.tril(np.ones((40, 40)))
        t[17, 17] = 0.0
        assert newton._inverse_norm(t) == np.inf


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
        assert inside or not any(
            newton._ldu_certified(planted, f, measured(planted, f), cfg) for f in corrected
        )

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


# kind: (tracker, planted sample, exact test, the names in newton of the
# corrector, the kernel and the certificate)
SPECTRAL = {
    "qr": (track_qr, qr_sample, _qr_domain, "qr_newton_correct", "qr_factor", "_qr_certified"),
    "cholesky": (
        track_cholesky,
        cholesky_sample,
        _cholesky_domain,
        "cholesky_newton_correct",
        "cholesky_factor",
        "_cholesky_certified",
    ),
}
# (decades over which the other singular values or eigenvalues spread,
# structural_tol / singularity_tol), as VARIANTS: well conditioned, ill
# conditioned, and a corrector tolerance above the domain threshold
SPECTRAL_VARIANTS = {"well": (0.0, None), "ill": (3.0, None), "loose": (0.0, 100.0)}


class TestSpectralVerdict:
    """track_qr and track_cholesky on paths through one sample whose
    smallest singular value (QR) or eigenvalue (Cholesky) sits at rel times
    the exact test's threshold: as a grid sample, as the midpoint of a
    halved step, or at t=0. The path's other knots share the sample's
    draws, with that value at 2 and 3 times max(rel, 1) the threshold, so
    the path stays in the domain except where it passes through the
    sample, and its steps stay within the corrector's reach, which near
    the boundary shrinks with the distance to it. The outcome must
    be the exact test's verdict on that sample: a report, or
    PathLeavesDomain at its t. The certificate must not prove any factor
    accepted there, by the corrector or at t=0 by the kernel, when the
    exact test refuses the sample."""

    @pytest.mark.parametrize("variant", list(SPECTRAL_VARIANTS))
    @pytest.mark.parametrize("where", ["grid", "midpoint", "start"])
    @pytest.mark.parametrize("n", [3, 40, 128])
    @pytest.mark.parametrize("kind", list(SPECTRAL))
    @pytest.mark.parametrize("rel", LDU_RELS)
    def test_verdict(self, monkeypatch, kind, n, where, variant, rel):
        track, sample, domain, corrector, kernel, certificate = SPECTRAL[kind]
        decades, loose = SPECTRAL_VARIANTS[variant]
        cfg = WIDE if abs(rel - 1.0) < 1e-3 else DEFAULT_TOLERANCES
        if loose is not None:
            cfg = replace(cfg, structural_tol=loose * cfg.singularity_tol)
        seed = [n, LDU_RELS.index(rel), list(PLACEMENTS).index(where)]
        seed += [list(SPECTRAL_VARIANTS).index(variant), list(SPECTRAL).index(kind)]

        def drawn(r):  # the sample at another rel, from the same draws
            return sample(np.random.default_rng(seed), n, r, cfg, decades)

        planted = drawn(rel)
        clear = max(rel, 1.0, loose or 0.0)
        samples = {"a0": drawn(2.0 * clear), "planted": planted, "a1": drawn(3.0 * clear)}
        steps, names, t = PLACEMENTS[where]
        knots = {s: samples[name] for s, name in zip((0.0, 0.5, 1.0), names) if name}
        evaluate, seen = recording(through(knots))

        inside = verdict(domain, planted, cfg) is None
        assert inside == (rel > 1.0)
        assert all(verdict(domain, m, cfg) is None for m in knots.values() if m is not planted)

        accepted = []  # every factor the kernel or the corrector gave at the planted sample
        correct, factor = getattr(newton, corrector), getattr(newton, kernel)

        def corrected(a, guess, cfg, max_iters=20):
            # a midpoint placement: the step to t=1 fails until the tracker
            # has halved it, so that its midpoint is the planted sample
            if where == "midpoint" and 0.5 not in seen and np.array_equal(a, samples["a1"]):
                raise NoConvergence("refused until the step is halved")
            fac, it = correct(a, guess, cfg, max_iters)
            if np.array_equal(a, planted):
                accepted.append(fac)
            return fac, it

        def seeded(a, cfg):
            fac = factor(a, cfg)
            if np.array_equal(a, planted):
                accepted.append(fac)
            return fac

        monkeypatch.setattr(newton, corrector, corrected)
        monkeypatch.setattr(newton, kernel, seeded)
        try:
            report = track(PathSpec(evaluate, steps=steps), cfg)
        except PathLeavesDomain as exc:
            outcome = (str(exc), exc.t)
        except NoConvergence:
            # cholesky_factor clamps a pivot within structural_tol (1 + ||a||)
            # of zero, so a loose tolerance seeds a(0) inside the domain with
            # a singular factor, from which no step leaves
            assert inside and where == "start" and not np.all(np.diagonal(accepted[0].l))
            outcome = None
        else:
            outcome = None
            assert report.ts == [i / steps for i in range(steps + 1)]
        refused = REFUSED[kind][1].replace(f"t={T:.6g}", f"t={t:.6g}")
        assert outcome == (None if inside else (refused, t))
        if where == "midpoint":
            assert seen[:3] == [0.0, 1.0, 0.5]
        certified = getattr(newton, certificate)
        assert inside or not any(
            certified(planted, f, measured(planted, f), cfg) for f in accepted
        )


class TestStartVerdict:
    """a(0) outside the domain: a kernel refusal, or a factor its
    certificate does not prove, sends a(0) to the exact test, which names
    the sample at t=0 as a sample later on the path would be named."""

    @pytest.mark.parametrize(
        "a0, message",
        [
            ([[2.0, 1.0], [0.0, 2.0]], "a(t) not symmetric at t=0"),  # NotSymmetric
            ([[1.0, 2.0], [2.0, 1.0]], "a(t) not positive definite at t=0"),  # indefinite
            ([[1.0, 1.0], [1.0, 1.0]], "a(t) not positive definite at t=0"),  # l_22 = 0
        ],
    )
    def test_cholesky(self, a0, message):
        family = PathSpec(lambda t: np.array(a0) + t * np.eye(2), steps=2)
        with pytest.raises(PathLeavesDomain) as left:
            track_cholesky(family)
        assert (str(left.value), left.value.t) == (message, 0.0)

    @pytest.mark.parametrize("a0", [[[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]]])
    def test_qr(self, a0):
        family = PathSpec(lambda t: np.array(a0) + t * np.eye(2), steps=2)
        with pytest.raises(PathLeavesDomain) as left:
            track_qr(family)
        assert (str(left.value), left.value.t) == ("a(t) numerically singular at t=0", 0.0)

    def test_seed_residual_above_tolerance(self, monkeypatch):
        """A certificate subtracts the factor's measured residual, so a
        kernel factor far from a(0), here the identity's with ||a - I|| ~ 4.1,
        proves nothing however well conditioned it is, and a(0) goes to the
        exact test."""
        monkeypatch.setattr(newton, "qr_factor", lambda a, cfg: qr_factor(np.eye(2), cfg))
        family = PathSpec(lambda t: np.array([[1.0, 2.0], [2.0, 4.0]]) + t * np.eye(2), steps=2)
        with pytest.raises(PathLeavesDomain) as left:
            track_qr(family)
        assert (str(left.value), left.value.t) == ("a(t) numerically singular at t=0", 0.0)


class TestSeedCertificate:
    """A certificate reads the residual the tracker measured, not the
    corrector's tolerance. With structural_tol at 100 times singularity_tol,
    a(0) sits 10 thresholds inside the QR or Cholesky domain, or has a pivot
    at 1e3 times the LDU threshold; the path runs linearly to the same draws
    at twice that. The kernel's factor of a(0) has a roundoff residual, so
    its certificate proves a(0) and no exact test runs at t = 0, where
    subtracting the tolerance would prove nothing."""

    SAMPLES = {
        "qr": (track_qr, qr_sample, 10.0),
        "cholesky": (track_cholesky, cholesky_sample, 10.0),
        "ldu": (
            track_ldu,
            lambda rng, n, rel, cfg: ldu_family(rng, n, n // 2, rel, cfg, 1.0)["planted"],
            1e3,
        ),
    }

    @pytest.mark.parametrize("n", [40, 128])
    @pytest.mark.parametrize("kind", list(SAMPLES))
    def test_no_exact_test_at_t0(self, monkeypatch, kind, n):
        track, sample, rel = self.SAMPLES[kind]
        cfg = replace(DEFAULT_TOLERANCES, structural_tol=100.0 * DEFAULT_TOLERANCES.singularity_tol)
        seed = [n, list(self.SAMPLES).index(kind)]
        a0, a1 = (sample(np.random.default_rng(seed), n, r, cfg) for r in (rel, 2.0 * rel))
        tested = []
        exact = newton._MAPS[kind].domain

        def domain(a, t, cfg):
            tested.append(t)
            exact(a, t, cfg)

        monkeypatch.setitem(newton._MAPS, kind, replace(newton._MAPS[kind], domain=domain))
        report = track(PathSpec(lambda t: (1.0 - t) * a0 + t * a1, steps=2), cfg)
        assert report.ts == [0.0, 0.5, 1.0]
        assert 0.0 not in tested


@given(
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    spread=st.sampled_from([1.0, 100.0]),
    decades=st.floats(min_value=-17.0, max_value=1.0),
)
def test_neumann_bound_of_a_held_inverse(n, seed, spread, decades):
    """A certificate bounds ||f^-1|| of the accepted triangle f from the
    inverse its corrector's base g holds, as frechet holds it (the reversed
    lower form), by ||g^-1|| / (1 - ||g^-1|| ||f - g||), within the rounding
    of the inversion it replaces. Where that product, rounded up, is 1 or
    more, it falls back to inverting f."""
    rng = np.random.default_rng(seed)
    g = unit_triangle(rng, n, False, spread) * 10.0 ** rng.uniform(-1.0, 1.0, n)
    delta = np.triu(rng.standard_normal((n, n))) * 10.0**decades * hs_norm(g)
    f = g + delta
    held = _upper_inverse(g.T[::-1, ::-1])
    inverted = []

    def counted(t):
        inverted.append(t)
        return _upper_inverse(t)

    with mock.patch.object(newton, "_upper_inverse", counted):
        bound = newton._inverse_norm(f, g, held)
    exact = hs_norm(_upper_inverse(f))
    product = hs_norm(held) * hs_norm(f - g)
    if product < 1.0:
        assert bound * (1.0 + newton._roundoff(n)) >= exact
    if product * (1.0 + newton._roundoff(n)) < 1.0:  # the product rounded up
        assert inverted == []
    else:
        assert len(inverted) == 1 and bound == exact
