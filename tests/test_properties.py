"""Identities linking the three maps, as property tests, and the scaling
identity: a verdict must not change when the input is multiplied by 1e-12
or 1e12.

n is drawn from 1..80 so the examples cross the LDU panel boundary. Each
comparison allows factor_tol times the input's condition number cond_f
(both in tests/reference_kernels.py).

The scaling tests marked xfail reproduce verdicts that still change with
scale, each with the exception it raises today. They are strict, so a fix of
the scale model shows up as an XPASS and the mark must go.
"""

import numpy as np
import pytest
from conftest import random_diag_shifted, random_invertible, random_spd, random_square
from hypothesis import given
from hypothesis import strategies as st
from reference_kernels import cond_f, factor_tol

from factordiff import (
    NoConvergence,
    NotInDomainP,
    NotPositiveSemiDefinite,
    PathLeavesDomain,
    PathSpec,
    SingularR,
    cholesky_factor,
    hs_norm,
    ldu_factor,
    qr_derivative_apply,
    qr_derivative_solve,
    qr_factor,
    track_cholesky,
    track_ldu,
    track_qr,
)

sizes = st.integers(min_value=1, max_value=80)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(n=sizes, seed=seeds)
def test_ldu_transpose_duality(n, seed):
    a = random_diag_shifted(np.random.default_rng(seed), n)
    trip = ldu_factor(a)
    dual = ldu_factor(a.T)
    kappa = cond_f(a)
    for got, want in ((dual.l, trip.u.T), (dual.d, trip.d), (dual.u, trip.l.T)):
        assert hs_norm(got - want) <= kappa * factor_tol(n, hs_norm(want))


@given(n=sizes, seed=seeds)
def test_spd_cholesky_is_ldu_scaled_by_root_d(n, seed):
    a = random_spd(np.random.default_rng(seed), n, shift=1.0)
    fac = cholesky_factor(a)
    trip = ldu_factor(a)
    want = trip.l * np.sqrt(np.diag(trip.d))
    assert hs_norm(fac.l - want) <= cond_f(a) * factor_tol(n, hs_norm(want))


@given(n=sizes, seed=seeds)
def test_qr_orthogonal_equivariance(n, seed):
    rng = np.random.default_rng(seed)
    a = random_invertible(rng, n)
    q0 = qr_factor(random_square(rng, n)).q
    pair = qr_factor(a)
    moved = qr_factor(q0 @ a)
    kappa = cond_f(a)
    assert hs_norm(moved.q - q0 @ pair.q) <= kappa * factor_tol(n, hs_norm(pair.q))
    assert hs_norm(moved.r - pair.r) <= kappa * factor_tol(n, hs_norm(pair.r))


# The relative rule tol * (1 + ||a||) is absolute in effect once ||a|| << 1:
# each threshold below stays near tol while the input shrinks past it.


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="every pivot is clamped to 0")
def test_cholesky_of_a_tiny_identity_is_its_root():
    l = cholesky_factor(1e-13 * np.eye(3)).l
    assert hs_norm(l - np.sqrt(1e-13) * np.eye(3)) <= 1e-15 * np.sqrt(1e-13)


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception, reason="both pivots clamp to 0: l = 0")
def test_cholesky_refuses_a_tiny_indefinite_matrix():
    # eigenvalues -1e-13 and 3e-13; refused at 1e-12 and above
    with pytest.raises(NotPositiveSemiDefinite):
        cholesky_factor(1e-13 * np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.xfail(strict=True, raises=NotInDomainP, reason="the first pivot reads as zero")
def test_ldu_of_a_tiny_identity_is_itself():
    trip = ldu_factor(1e-11 * np.eye(3))
    assert np.array_equal(trip.d, 1e-11 * np.eye(3))


@pytest.mark.xfail(strict=True, raises=SingularR, reason="r's diagonal reads as singular")
def test_qr_derivative_solve_at_a_tiny_r():
    q, r = np.eye(3), 1e-11 * np.eye(3)
    e = np.arange(9.0).reshape(3, 3)
    tan = qr_derivative_solve(q, r, e)
    assert hs_norm(qr_derivative_apply(q, r, tan) - e) <= 1e-12 * hs_norm(e)


def _scaled_path(kind: str, scale: float):
    n = 6
    g0, g1 = np.random.default_rng(6).standard_normal((2, n, n)) / np.sqrt(n)
    if kind == "cholesky":
        x0, x1 = g0 @ g0.T + np.eye(n), g1 @ g1.T + np.eye(n)
    else:
        x0, x1 = g0 + 3.0 * np.eye(n), g1 + 3.0 * np.eye(n)
    return lambda t: scale * ((1.0 - t) * x0 + t * x1)


@pytest.mark.parametrize(
    "scale",
    [
        pytest.param(
            1e-12,
            marks=pytest.mark.xfail(
                strict=True, raises=PathLeavesDomain, reason="the domain test refuses t=0"
            ),
        ),
        1e12,
    ],
)
@pytest.mark.parametrize(
    "kind, track", [("qr", track_qr), ("cholesky", track_cholesky), ("ldu", track_ldu)]
)
def test_tracking_a_scaled_linear_path(kind, track, scale):
    evaluate = _scaled_path(kind, scale)
    report = track(PathSpec(evaluate, steps=8))
    assert max(report.newton_iters) <= 3
    for t, fac in zip(report.ts, report.factors):
        a_t = evaluate(t)
        assert hs_norm(fac.product() - a_t) <= 1e-12 * hs_norm(a_t)


@pytest.mark.xfail(
    strict=True,
    raises=NoConvergence,
    reason="the corrector's stop test ignores the growth of |l||d||u|; fails at t=0.71875",
)
def test_track_ldu_reaches_the_blow_up_end_of_the_boundary_family():
    eps = 1e-8
    report = track_ldu(PathSpec(lambda t: np.array([[eps**t, 1.0], [1.0, 0.0]]), steps=64))
    assert report.ts[-1] == 1.0
    assert np.allclose(report.factors[-1].d, ldu_factor(np.array([[eps, 1.0], [1.0, 0.0]])).d)
