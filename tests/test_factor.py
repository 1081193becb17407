import warnings

import numpy as np
import pytest
from conftest import (
    random_diag_shifted,
    random_in_p,
    random_invertible,
    random_rank_deficient,
    random_spd,
    random_square,
)
from reference_kernels import cond_f, factor_tol, ldu_unblocked, qr_householder

from factordiff import (
    DEFAULT_TOLERANCES,
    NotInDomainP,
    NotPositiveSemiDefinite,
    NotSymmetric,
    ShapeError,
    SingularInput,
    cholesky_factor,
    cond_estimate,
    hs_norm,
    in_domain_p,
    ldu_factor,
    leading_minor_dets,
    orthogonality_defect,
    qr_factor,
    qr_factor_mgs,
)

TOL = DEFAULT_TOLERANCES


class TestQRFactor:
    def test_identity(self):
        pair = qr_factor(np.eye(3))
        assert np.allclose(pair.q, np.eye(3), atol=1e-15)
        assert np.allclose(pair.r, np.eye(3), atol=1e-15)

    def test_orthogonal_input(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        pair = qr_factor(a)
        assert np.allclose(pair.q, a, atol=1e-15)
        assert np.allclose(pair.r, np.eye(2), atol=1e-15)

    def test_already_upper_triangular_singular(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        pair = qr_factor(a)
        assert np.allclose(pair.q, np.eye(2), atol=1e-15)
        assert np.allclose(pair.r, a, atol=1e-15)
        assert hs_norm(pair.product() - a) == 0.0

    def test_reconstruction_and_norm_identity(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            a = random_square(rng, n)
            pair = qr_factor(a)
            scale = 1.0 + hs_norm(a)
            assert hs_norm(pair.product() - a) <= TOL.structural_tol * scale
            assert orthogonality_defect(pair.q) <= TOL.structural_tol * (1.0 + hs_norm(pair.q))
            assert abs(hs_norm(pair.r) - hs_norm(a)) <= 1e-12 * scale

    def test_rank_deficient_inputs_still_factor(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(2, 21))
            a = random_rank_deficient(rng, n)
            pair = qr_factor(a)
            assert hs_norm(pair.product() - a) <= TOL.structural_tol * (1.0 + hs_norm(a))
            assert orthogonality_defect(pair.q) <= TOL.structural_tol * (1.0 + hs_norm(pair.q))
            assert np.min(np.diag(pair.r)) >= -TOL.structural_tol * (1.0 + hs_norm(pair.r))


class TestQRSingularConvention:
    """On singular input only q @ r is contractual; these inputs pin the
    reflector and sign-pass convention against the Householder loop. Each
    leaves an exactly zero trailing block, so no later reflector direction
    is set by roundoff."""

    @pytest.mark.parametrize(
        "a",
        [
            np.zeros((3, 3)),
            np.array([[0.0, 1.0, 2.0], [0.0, 3.0, 4.0], [0.0, 5.0, 6.0]]),
            np.outer([3.0, 4.0, 0.0], [1.0, 2.0, -1.0]),
            np.array([[1.0, 0.0], [0.0, 0.0]]),
            np.array([[-2.0, 1.0, 3.0], [0.0, 4.0, 1.0], [0.0, 2.0, 5.0]]),
        ],
        ids=["zero", "zero-column", "rank-1", "e11", "negative-diagonal-zero-subcolumn"],
    )
    def test_matches_householder_loop(self, a):
        pair = qr_factor(a)
        q_ref, r_ref = qr_householder(a)
        tol = 1e-15 * (1.0 + hs_norm(a))
        assert hs_norm(pair.q - q_ref) <= tol
        assert hs_norm(pair.r - r_ref) <= tol


class TestQRFactorMGS:
    def test_identity(self):
        pair = qr_factor_mgs(np.eye(3))
        assert np.allclose(pair.q, np.eye(3), atol=1e-15)
        assert np.allclose(pair.r, np.eye(3), atol=1e-15)

    def test_column_scaling(self):
        pair = qr_factor_mgs(2.0 * np.eye(3))
        assert np.allclose(pair.q, np.eye(3), atol=1e-15)
        assert np.allclose(pair.r, 2.0 * np.eye(3), atol=1e-15)

    def test_rejects_singular(self):
        with pytest.raises(SingularInput):
            qr_factor_mgs([[1.0, 1.0], [1.0, 1.0]])

    def test_agrees_with_householder_kernel(self):
        rng = np.random.default_rng(47)
        a = random_invertible(rng, 5)
        hh = qr_factor(a)
        mgs = qr_factor_mgs(a)
        assert hs_norm(hh.q - mgs.q) <= 1e-10
        assert hs_norm(hh.r - mgs.r) <= 1e-10

    def test_uniqueness_property(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            a = random_invertible(rng, n)
            hh = qr_factor(a)
            mgs = qr_factor_mgs(a)
            bound = 1e-9 * (1.0 + hs_norm(a)) * cond_estimate(hh.r)
            assert hs_norm(hh.q - mgs.q) <= bound
            assert hs_norm(hh.r - mgs.r) <= bound


class TestCholeskyFactor:
    def test_identity(self):
        assert np.array_equal(cholesky_factor(np.eye(3)).l, np.eye(3))

    def test_hand_example(self):
        fac = cholesky_factor([[4.0, 2.0], [2.0, 5.0]])
        assert np.allclose(fac.l, [[2.0, 0.0], [1.0, 2.0]], atol=1e-15)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveSemiDefinite) as info:
            cholesky_factor([[1.0, 2.0], [2.0, 1.0]])
        assert info.value.k == 2

    @pytest.mark.parametrize(
        "a, k, message",
        [
            ([[1.0, 2.0], [2.0, 1.0]], 2, "pivot 2 is negative beyond tolerance"),
            ([[0.0, 1.0], [1.0, 1.0]], 1, "pivot 1 is zero but the column below it is not"),
        ],
        ids=["negative-pivot", "zero-pivot-nonzero-column"],
    )
    def test_refusal_names_the_failing_rule(self, a, k, message):
        with pytest.raises(NotPositiveSemiDefinite, match=f"^k={k}: {message}$") as info:
            cholesky_factor(a)
        assert info.value.k == k

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            cholesky_factor([[1.0, 0.5], [0.0, 1.0]])

    def test_zero_matrix(self):
        fac = cholesky_factor(np.zeros((3, 3)))
        assert not fac.l.any()

    def test_semidefinite_clamp(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, n))
            m = rng.uniform(-1.0, 1.0, (k, n))
            a = m.T @ m
            a = 0.5 * (a + a.T)
            fac = cholesky_factor(a)
            assert np.min(np.diag(fac.l)) >= 0.0
            assert hs_norm(fac.product() - a) <= TOL.structural_tol * (1.0 + hs_norm(a))

    def test_reconstruction_and_hoelder(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            a = random_spd(rng, n)
            fac = cholesky_factor(a)
            prod = fac.product()
            assert hs_norm(prod - a) <= TOL.structural_tol * (1.0 + hs_norm(a))
            assert hs_norm(prod) ** 2 >= (np.trace(prod) ** 2) / n - 1e-10
            assert np.min(np.diag(fac.l)) > 0.0

    def test_hoelder_hand_numbers(self):
        fac = cholesky_factor([[4.0, 2.0], [2.0, 5.0]])
        prod = fac.product()
        assert hs_norm(prod) ** 2 == pytest.approx(49.0, abs=1e-12)
        assert (np.trace(prod) ** 2) / 2 == pytest.approx(40.5, abs=1e-12)


class TestCholeskyFallback:
    def test_tiny_pivot_still_clamps(self):
        fac = cholesky_factor(np.diag([1.0, 1e-14]))
        assert fac.l[1, 1] == 0.0

    def test_rank_deficient_takes_clamping_path(self):
        rng = np.random.default_rng(89)
        n, k = 40, 25
        m = rng.uniform(-1.0, 1.0, (k, n))
        a = m.T @ m
        a = 0.5 * (a + a.T)
        fac = cholesky_factor(a)
        # only the clamping loop stores exact zeros on the diagonal
        assert int(np.sum(np.diag(fac.l) == 0.0)) == n - k
        assert hs_norm(fac.product() - a) <= TOL.structural_tol * (1.0 + hs_norm(a))

    @pytest.mark.parametrize("k", [1, 20, 33, 40])
    def test_indefinite_reports_first_failing_pivot(self, k):
        # the leading (k-1)-block stays positive definite; a negative
        # diagonal entry at (k, k) drives pivot k below zero
        a = random_spd(np.random.default_rng(97), 40)
        a[k - 1, k - 1] = -1.0
        with pytest.raises(NotPositiveSemiDefinite) as info:
            cholesky_factor(a)
        assert info.value.k == k


class TestLDUFactor:
    def test_identity(self):
        trip = ldu_factor(np.eye(3))
        assert np.array_equal(trip.l, np.eye(3))
        assert np.array_equal(trip.d, np.eye(3))
        assert np.array_equal(trip.u, np.eye(3))

    def test_hand_example(self):
        trip = ldu_factor([[2.0, 1.0], [4.0, 5.0]])
        assert np.allclose(trip.l, [[1.0, 0.0], [2.0, 1.0]], atol=1e-15)
        assert np.allclose(np.diag(trip.d), [2.0, 3.0], atol=1e-15)
        assert np.allclose(trip.u, [[1.0, 0.5], [0.0, 1.0]], atol=1e-15)

    def test_zero_leading_pivot(self):
        with pytest.raises(NotInDomainP) as info:
            ldu_factor([[0.0, 1.0], [1.0, 0.0]])
        assert info.value.k == 1

    def test_reconstruction_property(self):
        # no-pivot elimination amplifies roundoff by the pivot growth factor,
        # so unconstrained random draws get the 1e-10 contract rather than the
        # 1e-12 one that backward-stable QR/Cholesky kernels meet
        rng = np.random.default_rng(67)
        done = 0
        for _ in range(200):
            n = int(rng.integers(1, 21))
            a = random_square(rng, n)
            try:
                trip = ldu_factor(a)
            except NotInDomainP:
                continue
            done += 1
            assert hs_norm(trip.product() - a) <= 1e-10 * (1.0 + hs_norm(a))
        assert done > 150  # random matrices are almost always factorable

    def test_reconstruction_tight_with_healthy_pivots(self):
        rng = np.random.default_rng(69)
        for _ in range(100):
            n = int(rng.integers(1, 21))
            a = random_in_p(rng, n, margin=1e-2)
            trip = ldu_factor(a)
            assert hs_norm(trip.product() - a) <= TOL.structural_tol * (1.0 + hs_norm(a))

    def test_refactoring_reproduces_triple(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            a = random_in_p(rng, n)
            trip = ldu_factor(a)
            again = ldu_factor(trip.product())
            for x, y in ((trip.l, again.l), (trip.d, again.d), (trip.u, again.u)):
                assert hs_norm(x - y) <= 1e-9 * (1.0 + hs_norm(x))

    def test_pivot_ladder_matches_minor_determinants(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            a = random_square(rng, n)
            try:
                trip = ldu_factor(a)
            except NotInDomainP:
                continue
            dets = leading_minor_dets(a)
            ladder = np.cumprod(np.diag(trip.d))
            for dk, pk in zip(dets, ladder):
                assert abs(dk - pk) <= 1e-8 * max(abs(dk), abs(pk))


AGREEMENT_SIZES = [1, 2, 31, 32, 33, 64, 65, 128, 200, 256]


def ldu_factor_quietly(a):
    """ldu_factor with numpy's RuntimeWarnings (overflow, invalid value,
    division by zero) raised as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return ldu_factor(a)


class TestReferenceAgreement:
    """The library kernels against the loops they replaced (tests/reference_kernels.py)."""

    @pytest.mark.parametrize("n", AGREEMENT_SIZES)
    def test_ldu_matches_unblocked_elimination(self, n):
        a = random_diag_shifted(np.random.default_rng([101, n]), n)
        trip = ldu_factor_quietly(a)
        l_ref, d_ref, u_ref = ldu_unblocked(a)
        pairs = ((trip.l, l_ref), (np.diag(trip.d), d_ref), (trip.u, u_ref))
        if n <= 32:
            # one panel: the same arithmetic in the same order
            for got, ref in pairs:
                assert np.array_equal(got, ref)
        else:
            for got, ref in pairs:
                assert hs_norm(got - ref) <= factor_tol(n, hs_norm(ref))

    # qr_factor's own edges too: its last LAPACK-only size, its first blocked
    # one, and one panel either side of 128
    @pytest.mark.parametrize("n", sorted({*AGREEMENT_SIZES, 96, 97, 127, 129, 160}))
    def test_qr_matches_householder_loop(self, n):
        a = random_invertible(np.random.default_rng([103, n]), n)
        pair = qr_factor(a)
        q_ref, r_ref = qr_householder(a)
        kappa = cond_f(a)
        assert hs_norm(pair.q - q_ref) <= kappa * factor_tol(n, hs_norm(q_ref))
        assert hs_norm(pair.r - r_ref) <= kappa * factor_tol(n, hs_norm(r_ref))

    # pivots in the first two 32-column blocks, and at the last or first
    # column of a block after the panels and trailing updates of up to four
    @pytest.mark.parametrize("k", [1, 2, 32, 33, 40, 64, 65, 96, 97, 129])
    def test_not_in_domain_index_is_exact(self, k):
        a = random_diag_shifted(np.random.default_rng([107, k]), 160)
        if k == 1:
            a[0, 0] = 0.0
        else:
            # rows k-1 and k of the leading k-block coincide: that block is
            # singular while the leading (k-1)-block is untouched
            a[k - 1, :k] = a[k - 2, :k]
        with pytest.raises(NotInDomainP) as info:
            ldu_factor_quietly(a)
        assert info.value.k == k
        with pytest.raises(NotInDomainP) as ref:
            ldu_unblocked(a)
        assert ref.value.k == k
        assert not in_domain_p(a)


def lapack_qr(a):
    """np.linalg.qr with qr_factor's sign pass: each row of r whose diagonal
    entry is negative, and the matching column of q, negated."""
    q, r = np.linalg.qr(a)
    sign = np.where(r.diagonal() < 0.0, -1.0, 1.0)
    return q * sign, np.triu(r * sign[:, None])


class TestQRBlocked:
    """qr_factor above 96 columns: 32-column panels, each applied to the
    trailing columns and to q as one block reflector."""

    @pytest.mark.parametrize("n", [1, 32, 64, 96])
    def test_lapack_bits_up_to_the_tail(self, n):
        a = random_square(np.random.default_rng([211, n]), n)
        pair = qr_factor(a)
        q, r = lapack_qr(a)
        assert pair.q.tobytes() == q.tobytes()
        assert pair.r.tobytes() == r.tobytes()

    # no power of two rounds: the panels, their reflectors and each block
    # update scale exactly, so q is the same to the bit
    @pytest.mark.parametrize("n", [130, 256])
    @pytest.mark.parametrize("k", [1, 40, 300, 500])
    def test_powers_of_two_are_exact(self, n, k):
        a = random_square(np.random.default_rng([213, n]), n)
        pair, scaled = qr_factor(a), qr_factor(2.0**k * a)
        assert scaled.q.tobytes() == pair.q.tobytes()
        assert scaled.r.tobytes() == (2.0**k * pair.r).tobytes()

    def test_zero_matrix(self):
        pair = qr_factor(np.zeros((130, 130)))
        assert np.array_equal(pair.q, np.eye(130))
        assert np.array_equal(pair.r, np.zeros((130, 130)))

    # each zero sub-column gets the identity reflector, tau = 0, whether it
    # starts a panel, ends one or falls inside one
    @pytest.mark.parametrize("n", [130, 256])
    @pytest.mark.parametrize(
        "cols", [[0], [31], [32], [33], [64], [100], [0, 31, 32, 33, 64, 100]],
        ids=["0", "31", "32", "33", "64", "100", "all"],
    )
    def test_zero_columns_at_panel_edges(self, n, cols):
        a = random_square(np.random.default_rng([217, n, len(cols)]), n)
        a[:, cols] = 0.0
        pair = qr_factor(a)
        assert orthogonality_defect(pair.q) <= factor_tol(n, hs_norm(pair.q))
        assert (pair.r.diagonal() >= 0.0).all()
        assert (pair.r.diagonal()[cols] == 0.0).all()
        assert hs_norm(pair.product() - a) <= factor_tol(n, hs_norm(a))

    @pytest.mark.parametrize("n", [4, 130])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_refused(self, n, bad):
        a = random_square(np.random.default_rng([219, n]), n)
        a[n - 1, n // 2] = bad
        with pytest.raises(ShapeError, match="^a contains non-finite entries$"):
            qr_factor(a)


class TestLeadingMinorDets:
    def test_identity(self):
        assert leading_minor_dets(np.eye(3)) == [1.0, 1.0, 1.0]

    def test_hand_example(self):
        assert leading_minor_dets([[2.0, 1.0], [4.0, 5.0]]) == [2.0, 6.0]

    def test_swap_matrix(self):
        assert leading_minor_dets([[0.0, 1.0], [1.0, 0.0]]) == [0.0, -1.0]

    def test_matches_lapack_determinants(self):
        rng = np.random.default_rng(79)
        a = random_square(rng, 8)
        dets = leading_minor_dets(a)
        for k, dk in enumerate(dets, start=1):
            ref = np.linalg.det(a[:k, :k])
            assert abs(dk - ref) <= 1e-10 * max(1.0, abs(ref))


class TestInDomainP:
    def test_consistent_with_factor(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            a = random_square(rng, n)
            try:
                ldu_factor(a)
                ok = True
            except NotInDomainP:
                ok = False
            assert in_domain_p(a) == ok


class TestCondEstimate:
    def test_diag_ratio(self):
        assert cond_estimate(np.diag([2.0, 1.0])) == 2.0

    def test_zero_diag_is_inf(self):
        assert cond_estimate(np.diag([1.0, 0.0])) == np.inf
