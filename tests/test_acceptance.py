"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Everything is seeded and double precision, with dimensions capped at
20.
"""

import subprocess
import sys
import time

import numpy as np
from conftest import (
    random_in_p,
    random_invertible,
    random_spd,
    random_square,
    random_symmetric,
)

from factordiff import (
    NotInDomainP,
    PathSpec,
    QRPair,
    cholesky_derivative_apply,
    cholesky_derivative_solve,
    cholesky_factor,
    cond_estimate,
    hs_norm,
    in_domain_p,
    ldu_derivative_apply,
    ldu_derivative_solve,
    ldu_factor,
    leading_minor_dets,
    qr_derivative_apply,
    qr_derivative_solve,
    qr_factor,
    qr_factor_mgs,
    qr_newton_correct,
    retract_orthogonal,
    track_cholesky,
    track_ldu,
    track_qr,
)
from factordiff.core import DEFAULT_TOLERANCES
from factordiff.verify import FD_STEP

SINGULARITY_TOL = DEFAULT_TOLERANCES.singularity_tol


def report(num, description, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[criterion {num}] {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def unit(e):
    return e / hs_norm(e)


def test_criterion_1_reconstruction():
    rng = np.random.default_rng(1001)
    tol = lambda a: 1e-10 * (1.0 + hs_norm(a))
    worst = 0.0
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(1, 21))
        a = random_square(rng, n)
        worst = max(worst, hs_norm(qr_factor(a).product() - a) / tol(a))
    for _ in range(200):
        n = int(rng.integers(1, 21))
        a = random_spd(rng, n)
        worst = max(worst, hs_norm(cholesky_factor(a).product() - a) / tol(a))
    successes = 0
    for _ in range(200):
        n = int(rng.integers(1, 21))
        a = random_square(rng, n)
        try:
            trip = ldu_factor(a)
        except NotInDomainP:
            continue
        successes += 1
        worst = max(worst, hs_norm(trip.product() - a) / tol(a))
    elapsed = time.perf_counter() - start
    report(
        1,
        "reconstruction within 1e-10 scaled, 200 trials per factorization",
        worst <= 1.0 and elapsed <= 5.0,
        f"worst ratio {worst:.3e}, ldu successes {successes}/200, {elapsed:.2f}s",
    )


def test_criterion_2_qr_uniqueness_oracle():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 21))
        a = random_invertible(rng, n)
        hh = qr_factor(a)
        mgs = qr_factor_mgs(a)
        bound = 1e-9 * (1.0 + hs_norm(a)) * cond_estimate(hh.r)
        gap = max(
            float(np.max(np.abs(hh.q - mgs.q))), float(np.max(np.abs(hh.r - mgs.r)))
        )
        worst = max(worst, gap / bound)
    report(
        2,
        "Householder and Gram-Schmidt kernels agree entrywise on 200 invertible inputs",
        worst <= 1.0,
        f"worst ratio {worst:.3e}",
    )


def test_criterion_3_norm_identity():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 21))
        pair = qr_factor(random_square(rng, n))
        gap = abs(hs_norm(pair.q @ pair.r) - hs_norm(pair.r))
        worst = max(worst, gap / (1e-12 * (1.0 + hs_norm(pair.r))))
    report(
        3,
        "| ||q r|| - ||r|| | within 1e-12 scaled on 200 trials",
        worst <= 1.0,
        f"worst ratio {worst:.3e}",
    )


def test_criterion_4_trace_lower_bound():
    rng = np.random.default_rng(1004)
    worst = -np.inf
    for _ in range(200):
        n = int(rng.integers(1, 21))
        prod = cholesky_factor(random_spd(rng, n)).product()
        short = (np.trace(prod) ** 2) / n - hs_norm(prod) ** 2  # must stay <= 1e-10
        worst = max(worst, short)
    report(
        4,
        "||l l^T||^2 >= tr(l l^T)^2 / n - 1e-10 on 200 SPD trials",
        worst <= 1e-10,
        f"worst shortfall {worst:.3e}",
    )


def test_criterion_5_ldu_characterization():
    rng = np.random.default_rng(1005)
    agreement_ok = True
    worst_ladder = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 21))
        a = random_square(rng, n)
        dets = leading_minor_dets(a)
        member = all(abs(dk) > SINGULARITY_TOL * (1.0 + hs_norm(a)) for dk in dets)
        try:
            trip = ldu_factor(a)
        except NotInDomainP:
            trip = None
        agreement_ok = agreement_ok and ((trip is not None) == member)
        if trip is None:
            continue
        ladder = np.cumprod(np.diag(trip.d))
        for dk, pk in zip(dets, ladder):
            worst_ladder = max(worst_ladder, abs(dk - pk) / (1e-8 * max(abs(dk), abs(pk))))
    for i in range(20):
        n = int(rng.integers(2, 21))
        a = random_square(rng, n)
        expect_k = 1 if i % 2 == 0 else 2
        if expect_k == 1:
            a[0, 0] = 0.0
        else:
            a[1, :] = a[0, :]
        try:
            ldu_factor(a)
            agreement_ok = False
        except NotInDomainP as exc:
            agreement_ok = agreement_ok and exc.k == expect_k
        agreement_ok = agreement_ok and not in_domain_p(a)
    report(
        5,
        "factorability iff minor-determinant oracle; ladder within 1e-8 relative",
        agreement_ok and worst_ladder <= 1.0,
        f"worst ladder ratio {worst_ladder:.3e}",
    )


def test_criterion_6_derivative_correctness():
    rng = np.random.default_rng(1006)
    h = FD_STEP
    worst_rt = 0.0
    worst_fd = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))

        a = random_invertible(rng, n, margin=1e-2)
        pair = qr_factor(a)
        cond = cond_estimate(pair.r)
        e = unit(random_square(rng, n))
        tan = qr_derivative_solve(pair.q, pair.r, e)
        rt = hs_norm(qr_derivative_apply(pair.q, pair.r, tan) - e)
        worst_rt = max(worst_rt, rt / (1e-9 * (1.0 + hs_norm(e)) * cond))
        plus, minus = qr_factor(a + h * e), qr_factor(a - h * e)
        fd = max(
            hs_norm((plus.q - minus.q) / (2 * h) - tan.u),
            hs_norm((plus.r - minus.r) / (2 * h) - tan.v),
        )
        worst_fd = max(worst_fd, fd / (5e-5 * cond**2))

        a = random_spd(rng, n)
        fac = cholesky_factor(a)
        cond = cond_estimate(fac.l)
        e = unit(random_symmetric(rng, n))
        v = cholesky_derivative_solve(fac.l, e)
        rt = hs_norm(cholesky_derivative_apply(fac.l, v) - e)
        worst_rt = max(worst_rt, rt / (1e-9 * (1.0 + hs_norm(e)) * cond**2))
        plus, minus = cholesky_factor(a + h * e), cholesky_factor(a - h * e)
        fd = hs_norm((plus.l - minus.l) / (2 * h) - v)
        worst_fd = max(worst_fd, fd / (5e-5 * cond**2))

        a = random_in_p(rng, n)
        trip = ldu_factor(a)
        cond = cond_estimate(trip.l) * cond_estimate(trip.d) * cond_estimate(trip.u)
        e = unit(random_square(rng, n))
        tan = ldu_derivative_solve(trip.l, trip.d, trip.u, e)
        rt = hs_norm(ldu_derivative_apply(trip.l, trip.d, trip.u, tan) - e)
        worst_rt = max(worst_rt, rt / (1e-9 * (1.0 + hs_norm(e)) * cond))
        plus, minus = ldu_factor(a + h * e), ldu_factor(a - h * e)
        fd = max(
            hs_norm((plus.l - minus.l) / (2 * h) - tan.a),
            hs_norm((plus.d - minus.d) / (2 * h) - tan.s),
            hs_norm((plus.u - minus.u) / (2 * h) - tan.b),
        )
        worst_fd = max(worst_fd, fd / (5e-5 * cond**2))

    report(
        6,
        "round trip within 1e-9 scaled and central differences within 5e-5 cond^2, "
        "100 base points per map",
        worst_rt <= 1.0 and worst_fd <= 1.0,
        f"worst roundtrip ratio {worst_rt:.3e}, worst fd ratio {worst_fd:.3e}",
    )


def one_newton_step_residual(a, guess):
    e = a - guess.product()
    tan = qr_derivative_solve(guess.q, guess.r, e)
    q1 = retract_orthogonal(guess.q + tan.u)
    r1 = np.triu(guess.r + tan.v)
    return hs_norm(a - q1 @ r1)


def test_criterion_7_quadratic_convergence_signature():
    rng = np.random.default_rng(1007)
    n = 5
    slopes = []
    for _ in range(20):
        q0 = qr_factor(random_square(rng, n)).q
        r0 = np.triu(random_square(rng, n))
        np.fill_diagonal(r0, rng.uniform(0.5, 1.5, n))
        a = q0 @ r0
        base = qr_factor(a)
        deltas = (1e-2, 1e-3, 1e-4)
        residuals = []
        for delta in deltas:
            w = random_square(rng, n)
            du = base.q @ (w - w.T)
            vup = np.triu(random_square(rng, n))
            scale = delta / np.sqrt(hs_norm(du) ** 2 + hs_norm(vup) ** 2)
            guess = QRPair(retract_orthogonal(base.q + scale * du), base.r + scale * vup)
            residuals.append(one_newton_step_residual(a, guess))
        slopes.append(float(np.polyfit(np.log(deltas), np.log(residuals), 1)[0]))
    ok = all(1.7 <= s <= 2.3 for s in slopes)
    report(
        7,
        "first-step residual slope vs perturbation size in [1.7, 2.3], 20 instances",
        ok,
        f"slopes in [{min(slopes):.3f}, {max(slopes):.3f}]",
    )


def test_criterion_8_continuation_oracle_agreement():
    rng = np.random.default_rng(1008)
    worst = 0.0

    noise = random_square(rng, 5)
    noise = 0.4 * noise / hs_norm(noise)
    rep = track_qr(PathSpec(lambda t: np.eye(5) + t * noise))
    for t, pair in zip(rep.ts, rep.factors):
        a_t = np.eye(5) + t * noise
        oracle = qr_factor(a_t)
        bound = 1e-8 * (1.0 + hs_norm(a_t)) * cond_estimate(oracle.r)
        gap = max(hs_norm(pair.q - oracle.q), hs_norm(pair.r - oracle.r))
        worst = max(worst, gap / bound)

    m = random_square(rng, 5)
    bump = m.T @ m
    bump = 0.5 * (bump + bump.T)
    bump /= hs_norm(bump)
    rep = track_cholesky(PathSpec(lambda t: np.eye(5) + t * bump))
    for t, fac in zip(rep.ts, rep.factors):
        a_t = np.eye(5) + t * bump
        oracle = cholesky_factor(a_t)
        bound = 1e-8 * (1.0 + hs_norm(a_t)) * cond_estimate(oracle.l)
        worst = max(worst, hs_norm(fac.l - oracle.l) / bound)

    eps = 1e-3
    rep = track_ldu(PathSpec(lambda t: np.array([[1.0 - t + t * eps, 1.0], [1.0, 0.0]])))
    for t, trip in zip(rep.ts, rep.factors):
        a_t = np.array([[1.0 - t + t * eps, 1.0], [1.0, 0.0]])
        oracle = ldu_factor(a_t)
        bound = (
            1e-8
            * (1.0 + hs_norm(a_t))
            * cond_estimate(oracle.l)
            * cond_estimate(oracle.d)
            * cond_estimate(oracle.u)
        )
        gap = max(
            hs_norm(trip.l - oracle.l),
            hs_norm(trip.d - oracle.d),
            hs_norm(trip.u - oracle.u),
        )
        worst = max(worst, gap / bound)

    blowup_ok = True
    blowup_err = 0.0
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        rep = track_ldu(
            PathSpec(lambda t, e=eps: np.array([[1.0 - t + t * e, 1.0], [1.0, 0.0]]))
        )
        d22 = float(rep.factors[-1].d[1, 1])
        err = abs(abs(d22) - 1.0 / eps)
        blowup_err = max(blowup_err, err * eps * 1e6)  # ratio against 1e-6/eps
        blowup_ok = blowup_ok and err <= 1e-6 / eps

    report(
        8,
        "tracked paths match direct factorization at every sample (1e-8 scaled); "
        "blow-up family reproduces |d22| = 1/eps within 1e-6/eps down to eps = 1e-4",
        worst <= 1.0 and blowup_ok,
        f"worst oracle ratio {worst:.3e}, worst blow-up ratio {blowup_err:.3e}",
    )


def test_criterion_9_suite_determinism(tmp_path):
    cmd = [sys.executable, "-m", "factordiff", "verify", "--seed", "0", "--report"]
    r1 = tmp_path / "report1.json"
    r2 = tmp_path / "report2.json"
    p1 = subprocess.run(cmd + [str(r1)], capture_output=True)
    p2 = subprocess.run(cmd + [str(r2)], capture_output=True)
    identical = r1.read_bytes() == r2.read_bytes()
    report(
        9,
        "verify --seed 0 twice: exit 0 and byte-identical JSON reports",
        p1.returncode == 0 and p2.returncode == 0 and identical,
        f"exits {p1.returncode}/{p2.returncode}, identical={identical}",
    )
