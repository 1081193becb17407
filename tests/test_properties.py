"""Identities linking the three maps, as property tests.

n is drawn from 1..80 so the examples cross the LDU panel boundary. Each
comparison allows factor_tol times the input's condition number cond_f
(both in tests/reference_kernels.py).
"""

import numpy as np
from conftest import random_diag_shifted, random_invertible, random_spd, random_square
from hypothesis import given
from hypothesis import strategies as st
from reference_kernels import cond_f, factor_tol

from factordiff import cholesky_factor, hs_norm, ldu_factor, qr_factor

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
