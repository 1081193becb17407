import subprocess
import sys

import numpy as np
import pytest
from conftest import (
    random_in_p,
    random_invertible,
    random_spd,
    random_square,
    random_symmetric,
)
from reference_kernels import EPS, substitute

from factordiff import (
    DEFAULT_TOLERANCES,
    BaseMismatch,
    CholeskyFactor,
    LDUTangent,
    LDUTriple,
    NotSymmetric,
    QRPair,
    QRTangent,
    ShapeError,
    SingularD,
    SingularL,
    SingularR,
    ToleranceConfig,
    cholesky_derivative_apply,
    cholesky_derivative_solve,
    cholesky_factor,
    cond_estimate,
    hs_norm,
    ldu_derivative_apply,
    ldu_derivative_solve,
    ldu_factor,
    qr_derivative_apply,
    qr_derivative_solve,
    qr_factor,
    sym_to_lower,
)
from factordiff.core import _upper_inverse
from factordiff.frechet import solve_triangular
from factordiff.newton import _MAPS
from factordiff.verify import FD_STEP


def unit(e):
    return e / hs_norm(e)


class TestQRDerivativeApply:
    def test_zero_tangent(self):
        tan = QRTangent(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
        assert not qr_derivative_apply(np.eye(2), np.eye(2), tan).any()

    def test_hand_example(self):
        u = np.array([[0.0, -1.0], [1.0, 0.0]])
        v = np.array([[0.0, 1.0], [0.0, 0.0]])
        tan = QRTangent(u, v, np.eye(2))
        out = qr_derivative_apply(np.eye(2), np.eye(2), tan)
        assert np.array_equal(out, [[0.0, 0.0], [1.0, 0.0]])

    def test_v_term_only(self):
        tan = QRTangent(np.zeros((2, 2)), np.eye(2), np.eye(2))
        assert np.array_equal(qr_derivative_apply(np.eye(2), 2.0 * np.eye(2), tan), np.eye(2))

    def test_base_mismatch(self):
        other_q = np.array([[0.0, 1.0], [1.0, 0.0]])
        tan = QRTangent(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
        with pytest.raises(BaseMismatch):
            qr_derivative_apply(other_q, np.eye(2), tan)


class TestQRDerivativeSolve:
    def test_zero_rhs_gives_exact_zero(self):
        tan = qr_derivative_solve(np.eye(3), np.eye(3), np.zeros((3, 3)))
        assert not tan.u.any() and not tan.v.any()

    def test_hand_example(self):
        e = np.array([[0.0, 0.0], [1.0, 0.0]])
        tan = qr_derivative_solve(np.eye(2), np.eye(2), e)
        assert np.array_equal(tan.u, [[0.0, -1.0], [1.0, 0.0]])
        assert np.array_equal(tan.v, [[0.0, 1.0], [0.0, 0.0]])
        roundtrip = qr_derivative_apply(np.eye(2), np.eye(2), tan)
        assert np.array_equal(roundtrip, e)

    def test_upper_triangular_rhs(self):
        e = np.array([[1.0, 2.0], [0.0, 3.0]])
        tan = qr_derivative_solve(np.eye(2), np.eye(2), e)
        assert not tan.u.any()
        assert np.array_equal(tan.v, e)

    def test_singular_r_rejected(self):
        with pytest.raises(SingularR):
            qr_derivative_solve(np.eye(2), [[1.0, 0.0], [0.0, 0.0]], np.eye(2))

    def test_structural_outputs(self):
        rng = np.random.default_rng(91)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            pair = qr_factor(random_invertible(rng, n))
            tan = qr_derivative_solve(pair.q, pair.r, random_square(rng, n))
            assert not np.tril(tan.v, -1).any()
            w = pair.q.T @ tan.u
            assert hs_norm(w + w.T) <= 1e-12 * (1.0 + hs_norm(tan.u))

    def test_solve_keeps_its_tangent_at_the_orthogonality_edge(self):
        """q = Q (I + F) with F = 1.5e-12 v v^T passes QRPair's test (bound
        3.4e-12 at n=6), but q^T q s is skew only up to 2 (F s - s F), which
        QRTangent's test refuses for s = v w^T - w v^T. The solve's own q s is
        skew by construction, so the solve keeps it: the apply gives e back
        within verify's round-trip clause."""
        n = 6
        rng = np.random.default_rng(11)
        base = qr_factor(rng.standard_normal((n, n)) + 3.0 * np.eye(n))
        v, w = np.linalg.qr(rng.standard_normal((n, 2)))[0].T
        q = base.q @ (np.eye(n) + 1.5e-12 * np.outer(v, v))
        QRPair(q, base.r)
        e = 1e3 * base.q @ (np.outer(v, w) - np.outer(w, v)) @ base.r
        tan = qr_derivative_solve(q, base.r, e)
        with pytest.raises(ShapeError, match="not skew-symmetric"):
            QRTangent(tan.u, tan.v, tan.base_q)
        rt = hs_norm(qr_derivative_apply(q, base.r, tan) - e)
        assert rt <= 1e-10 * (1.0 + hs_norm(e)) * cond_estimate(base.r)


class TestCholeskyDerivative:
    def test_apply_zero(self):
        assert not cholesky_derivative_apply(np.eye(2), np.zeros((2, 2))).any()

    def test_apply_hand_example(self):
        v = np.array([[1.0, 0.0], [1.0, 1.0]])
        out = cholesky_derivative_apply(np.eye(2), v)
        assert np.array_equal(out, [[2.0, 1.0], [1.0, 2.0]])

    def test_apply_identity_tangent(self):
        assert np.array_equal(cholesky_derivative_apply(np.eye(2), np.eye(2)), 2.0 * np.eye(2))

    def test_apply_rejects_non_lower(self):
        with pytest.raises(ShapeError):
            cholesky_derivative_apply(np.eye(2), [[0.0, 1.0], [0.0, 0.0]])

    def test_solve_zero(self):
        assert not cholesky_derivative_solve(np.eye(3), np.zeros((3, 3))).any()

    def test_solve_hand_example(self):
        v = cholesky_derivative_solve(np.eye(2), [[2.0, 1.0], [1.0, 2.0]])
        assert np.array_equal(v, [[1.0, 0.0], [1.0, 1.0]])

    def test_solve_diagonal_halving(self):
        assert np.array_equal(cholesky_derivative_solve(np.eye(2), 2.0 * np.eye(2)), np.eye(2))

    def test_solve_rejects_singular_l(self):
        with pytest.raises(SingularL):
            cholesky_derivative_solve([[1.0, 0.0], [1.0, 0.0]], np.eye(2))

    def test_solve_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            cholesky_derivative_solve(np.eye(2), [[0.0, 1.0], [0.0, 0.0]])

    def test_solve_refuses_an_overflow(self):
        # the tracker counts a ShapeError as a failed step and halves it
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ShapeError, match="m contains non-finite entries"):
                cholesky_derivative_solve(1e-9 * np.eye(3), 1e300 * np.eye(3))

    @pytest.mark.parametrize("n", [1, 5, 32, 33, 40, 128])
    def test_solve_halves_as_sym_to_lower(self, n):
        # two applications of one core._upper_inverse of l reversed are the
        # oracle for the solve's one prepared inverse
        rng = np.random.default_rng([43, n])
        l = cholesky_factor(random_spd(rng, n)).l
        e = random_symmetric(rng, n)
        inverse = _upper_inverse(l[::-1, ::-1])
        m = solve_triangular(solve_triangular(e, inverse).T, inverse).T
        expected = l @ sym_to_lower(0.5 * (m + m.T))
        assert cholesky_derivative_solve(l, e).tobytes() == expected.tobytes()


class TestLDUDerivative:
    def test_apply_zero(self):
        tan = LDUTangent(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
        assert not ldu_derivative_apply(np.eye(2), np.eye(2), np.eye(2), tan).any()

    def test_apply_single_terms(self):
        low = np.array([[0.0, 0.0], [1.0, 0.0]])
        tan = LDUTangent(low, np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.array_equal(ldu_derivative_apply(np.eye(2), np.eye(2), np.eye(2), tan), low)
        tan = LDUTangent(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))
        assert np.array_equal(
            ldu_derivative_apply(np.eye(2), np.eye(2), np.eye(2), tan), np.eye(2)
        )

    def test_solve_zero(self):
        tan = ldu_derivative_solve(np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
        assert not tan.a.any() and not tan.s.any() and not tan.b.any()

    def test_solve_diagonal_rhs(self):
        tan = ldu_derivative_solve(np.eye(2), np.diag([2.0, 3.0]), np.eye(2), np.eye(2))
        assert not tan.a.any() and not tan.b.any()
        assert np.array_equal(tan.s, np.eye(2))

    def test_solve_pattern_split(self):
        e = np.array([[0.0, 5.0], [7.0, 0.0]])
        tan = ldu_derivative_solve(np.eye(2), np.eye(2), np.eye(2), e)
        assert np.array_equal(tan.a, [[0.0, 0.0], [7.0, 0.0]])
        assert not tan.s.any()
        assert np.array_equal(tan.b, [[0.0, 5.0], [0.0, 0.0]])

    def test_solve_rejects_singular_d(self):
        with pytest.raises(SingularD):
            ldu_derivative_solve(np.eye(2), np.diag([1.0, 0.0]), np.eye(2), np.eye(2))


class TestRoundTripAndLinearity:
    def test_qr(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            pair = qr_factor(random_invertible(rng, n, margin=1e-4))
            cond = cond_estimate(pair.r)
            e = random_square(rng, n)
            tan = qr_derivative_solve(pair.q, pair.r, e)
            err = hs_norm(qr_derivative_apply(pair.q, pair.r, tan) - e)
            assert err <= 1e-9 * (1.0 + hs_norm(e)) * cond
            e2 = random_square(rng, n)
            alpha, beta = rng.uniform(-2.0, 2.0, 2)
            t2 = qr_derivative_solve(pair.q, pair.r, e2)
            t3 = qr_derivative_solve(pair.q, pair.r, alpha * e + beta * e2)
            scale = 1.0 + hs_norm(t3.u) + hs_norm(t3.v)
            assert hs_norm(t3.u - alpha * tan.u - beta * t2.u) <= 1e-10 * scale * cond
            assert hs_norm(t3.v - alpha * tan.v - beta * t2.v) <= 1e-10 * scale * cond

    def test_cholesky(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            fac = cholesky_factor(random_spd(rng, n))
            cond = cond_estimate(fac.l)
            e = random_symmetric(rng, n)
            v = cholesky_derivative_solve(fac.l, e)
            assert not np.triu(v, 1).any()
            err = hs_norm(cholesky_derivative_apply(fac.l, v) - e)
            assert err <= 1e-9 * (1.0 + hs_norm(e)) * cond ** 2

    def test_ldu(self):
        rng = np.random.default_rng(107)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            trip = ldu_factor(random_in_p(rng, n))
            cond = cond_estimate(trip.l) * cond_estimate(trip.d) * cond_estimate(trip.u)
            e = random_square(rng, n)
            tan = ldu_derivative_solve(trip.l, trip.d, trip.u, e)
            err = hs_norm(ldu_derivative_apply(trip.l, trip.d, trip.u, tan) - e)
            assert err <= 1e-9 * (1.0 + hs_norm(e)) * cond


class TestFiniteDifferenceConsistency:
    def test_qr(self):
        rng = np.random.default_rng(109)
        h = FD_STEP
        for _ in range(20):
            n = int(rng.integers(2, 9))
            a = random_invertible(rng, n, margin=1e-2)
            pair = qr_factor(a)
            cond = cond_estimate(pair.r)
            e = unit(random_square(rng, n))
            tan = qr_derivative_solve(pair.q, pair.r, e)
            plus, minus = qr_factor(a + h * e), qr_factor(a - h * e)
            assert hs_norm((plus.q - minus.q) / (2 * h) - tan.u) <= 5e-5 * cond ** 2
            assert hs_norm((plus.r - minus.r) / (2 * h) - tan.v) <= 5e-5 * cond ** 2

    def test_cholesky(self):
        rng = np.random.default_rng(113)
        h = FD_STEP
        for _ in range(20):
            n = int(rng.integers(2, 9))
            a = random_spd(rng, n)
            fac = cholesky_factor(a)
            cond = cond_estimate(fac.l)
            e = unit(random_symmetric(rng, n))
            v = cholesky_derivative_solve(fac.l, e)
            plus, minus = cholesky_factor(a + h * e), cholesky_factor(a - h * e)
            assert hs_norm((plus.l - minus.l) / (2 * h) - v) <= 5e-5 * cond ** 2

    def test_ldu(self):
        rng = np.random.default_rng(127)
        h = FD_STEP
        for _ in range(20):
            n = int(rng.integers(2, 9))
            a = random_in_p(rng, n)
            trip = ldu_factor(a)
            cond = cond_estimate(trip.l) * cond_estimate(trip.d) * cond_estimate(trip.u)
            e = unit(random_square(rng, n))
            tan = ldu_derivative_solve(trip.l, trip.d, trip.u, e)
            plus, minus = ldu_factor(a + h * e), ldu_factor(a - h * e)
            assert hs_norm((plus.l - minus.l) / (2 * h) - tan.a) <= 5e-5 * cond ** 2
            assert hs_norm((plus.d - minus.d) / (2 * h) - tan.s) <= 5e-5 * cond ** 2
            assert hs_norm((plus.u - minus.u) / (2 * h) - tan.b) <= 5e-5 * cond ** 2


def triangular(rng, n, lower, diag):
    """(I + N) @ diag(dvec) for N strictly triangular with entries in
    (-1, 1) / n. Then ||N||_2 <= ||N||_F < 0.71, so ||t|| ||t^-1|| is less
    than 6 times the diagonal ratio cond_estimate(t)."""
    full = rng.uniform(-1.0, 1.0, (n, n))
    part = np.tril(full, -1) if lower else np.triu(full, 1)
    signs = rng.choice([-1.0, 1.0], n)
    dvec = {
        "unit": np.ones(n),
        "well": signs * rng.uniform(1.0, 2.0, n),
        "graded": signs * np.logspace(0.0, -8.0, n),
    }[diag]
    return (np.eye(n) + part / n) * dvec[None, :]


def solve_tol(t):
    """Budget for the Frobenius distance between two orderings of one
    triangular solve, relative to ||x||_F: each entry of x takes about n
    roundings, amplified by the conditioning of t; 16 covers the factor 6
    of `triangular` and the difference of two such errors."""
    return 16.0 * len(t) * EPS * cond_estimate(t)


def pivot_bait(rng, n, lower):
    """Triangular t with diagonal entries +-1 or +-2 and an integer strict
    triangle of magnitude 3..9. Every off-diagonal entry outweighs the
    diagonal, so partial pivoting on t, or on its transpose, would swap rows
    and bring in multipliers such as 2/9 that round. Substitution on t with
    an integer right side only forms integer products and halves, which is
    exact in double precision at these sizes, in any order."""
    off = rng.choice([-1.0, 1.0], (n, n)) * rng.integers(3, 10, (n, n))
    off = np.tril(off, -1) if lower else np.triu(off, 1)
    return off + np.diag(rng.choice([-2.0, -1.0, 1.0, 2.0], n))


def oriented(make, lower, order):
    """make(lower) as drawn, or, for order "reversed", the opposite triangle
    make(not lower) with its rows and columns reversed, which is again
    `lower`-triangular. The reversal carries the diagonal in the other order:
    a grading that fell now rises, and a block graded within one 32-column
    block sits at the other end, beside the partial block when 32 does not
    divide n."""
    if order == "drawn":
        return make(lower)
    return make(not lower)[::-1, ::-1]


ORDERS = ["drawn", "reversed"]


def prepared(t):
    """The inverse solve_triangular applies for a lower-triangular t: that of
    t reversed, as frechet._held prepares it."""
    return _upper_inverse(t[::-1, ::-1])


class TestSolveTriangular:
    """The triangular solves inside the derivative solves against plain
    forward/back substitution (tests/reference_kernels.py): a lower t on the
    left, and an upper r on the right, solved as solve_triangular(c.T,
    prepared(r.T)).T.
    Each triangle is taken as drawn and reversed (`oriented`)."""

    @pytest.mark.parametrize("n", [1, 2, 33, 128])
    @pytest.mark.parametrize("diag", ["well", "graded", "unit"])
    @pytest.mark.parametrize("order", ORDERS)
    def test_left_matches_substitution(self, n, diag, order):
        rng = np.random.default_rng(131 + n)
        t = oriented(lambda lower: triangular(rng, n, lower, diag), True, order)
        c = rng.uniform(-1.0, 1.0, (n, 3))
        want = substitute(t, c, lower=True)
        got = solve_triangular(c, prepared(t))
        assert hs_norm(got - want) <= solve_tol(t) * hs_norm(want)

    @pytest.mark.parametrize("n", [1, 2, 33, 128])
    @pytest.mark.parametrize("diag", ["well", "graded", "unit"])
    @pytest.mark.parametrize("order", ORDERS)
    def test_right_matches_substitution(self, n, diag, order):
        rng = np.random.default_rng(137 + n)
        r = oriented(lambda lower: triangular(rng, n, lower, diag), False, order)
        c = rng.uniform(-1.0, 1.0, (3, n))
        want = substitute(r.T, c.T, lower=True).T
        got = solve_triangular(c.T, prepared(r.T)).T
        assert hs_norm(got - want) <= solve_tol(r) * hs_norm(want)

    @pytest.mark.parametrize("n", [2, 5, 8])
    @pytest.mark.parametrize("order", ORDERS)
    def test_no_pivoting(self, n, order):
        rng = np.random.default_rng(139 + n)
        t = oriented(lambda lower: pivot_bait(rng, n, lower), True, order)
        r = oriented(lambda lower: pivot_bait(rng, n, lower), False, order)
        c = rng.integers(-9, 10, (n, 3)).astype(float)
        assert np.array_equal(solve_triangular(c, prepared(t)), substitute(t, c, lower=True))
        assert np.array_equal(
            solve_triangular(c, prepared(r.T)).T, substitute(r.T, c, lower=True).T
        )


def graded_within(rng, n, lower, where):
    """A `triangular`-style t whose diagonal falls from 1 to 1e-8 either
    across all n columns or within the 32 columns of one block (the second
    block when there is one)."""
    t = triangular(rng, n, lower, "well")
    grade = np.ones(n)
    if where == "across":
        grade = np.logspace(0.0, -8.0, n)
    else:
        block = slice(32, min(64, n)) if n > 32 else slice(0, n)
        grade[block] = np.logspace(0.0, -8.0, len(grade[block]))
    return t * grade[None, :]


def gesv(t, c):
    """The one-block solve of a lower-triangular t: the inverse of t with rows
    and columns reversed, by gesv against the identity, applied by one matmul
    to a contiguous copy of c reversed."""
    return (np.linalg.inv(t[::-1, ::-1]) @ np.ascontiguousarray(c[::-1]))[::-1]


class TestSolveTriangularBlocks:
    """Triangles at and across the 32-column block edge, as drawn and
    reversed (`oriented`), against substitution, and bit-identical to one
    gesv call while they fit in one block."""

    @pytest.mark.parametrize("n", [31, 32, 33, 64, 65, 200])
    @pytest.mark.parametrize("where", ["within", "across"])
    @pytest.mark.parametrize("order", ORDERS)
    def test_left(self, n, where, order):
        rng = np.random.default_rng([n, int(order == "drawn"), int(where == "within")])
        t = oriented(lambda lower: graded_within(rng, n, lower, where), True, order)
        c = rng.uniform(-1.0, 1.0, (n, 5))
        want = substitute(t, c, lower=True)
        got = solve_triangular(c, prepared(t))
        assert hs_norm(got - want) <= solve_tol(t) * hs_norm(want)
        if n <= 32:
            assert np.array_equal(got, gesv(t, c))

    @pytest.mark.parametrize("n", [31, 32, 33, 64, 65, 200])
    @pytest.mark.parametrize("where", ["within", "across"])
    @pytest.mark.parametrize("order", ORDERS)
    def test_right(self, n, where, order):
        rng = np.random.default_rng([n, int(order == "reversed"), int(where == "within"), 1])
        r = oriented(lambda lower: graded_within(rng, n, lower, where), False, order)
        c = rng.uniform(-1.0, 1.0, (5, n))
        want = substitute(r.T, c.T, lower=True).T
        got = solve_triangular(c.T, prepared(r.T)).T
        assert hs_norm(got - want) <= solve_tol(r) * hs_norm(want)
        if n <= 32:
            assert np.array_equal(got, gesv(r.T, c.T).T)

    @pytest.mark.parametrize("n", [33, 64, 65])
    @pytest.mark.parametrize("order", ORDERS)
    def test_square_right_side(self, n, order):
        """An n-by-n right side, the shape the derivative solves pass."""
        rng = np.random.default_rng([n, int(order == "drawn"), 2])
        t = oriented(lambda lower: triangular(rng, n, lower, "well"), True, order)
        c = rng.uniform(-1.0, 1.0, (n, n))
        want = substitute(t, c, lower=True)
        assert hs_norm(solve_triangular(c, prepared(t)) - want) <= solve_tol(t) * hs_norm(want)


def test_tracking_loads_no_scipy():
    """numpy's OpenBLAS is the only BLAS in use: importing factordiff and
    tracking each map imports no scipy module. It runs in a fresh
    interpreter, because pytest plugins may have imported scipy here."""
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "import factordiff as fd",
        "b = np.arange(9.0).reshape(3, 3) / 40.0",
        "fd.track_qr(fd.PathSpec(lambda t: np.eye(3) + t * b, steps=4))",
        "fd.track_cholesky(fd.PathSpec(lambda t: np.eye(3) + t * (b + b.T), steps=4))",
        "fd.track_ldu(fd.PathSpec(lambda t: np.eye(3) + t * b, steps=4))",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("n", [8, 40])
def test_qr_base_point_requires_upper_triangular_r(n):
    # unchecked, a nonzero below r's diagonal gives a tangent that misses
    # u r + q v = e by O(1) at n=8
    rng = np.random.default_rng(0)
    pair = qr_factor(rng.standard_normal((n, n)) + 3.0 * np.eye(n))
    r = pair.r + 0.1 * np.tril(rng.standard_normal((n, n)), -1)
    with pytest.raises(ShapeError, match="r must be upper triangular"):
        qr_derivative_solve(pair.q, r, rng.standard_normal((n, n)))
    tan = QRTangent(np.zeros((n, n)), np.zeros((n, n)), pair.q)
    with pytest.raises(ShapeError, match="r must be upper triangular"):
        qr_derivative_apply(pair.q, r, tan)


@pytest.mark.parametrize("n", [6, 40])
def test_qr_base_point_requires_orthogonal_q(n):
    # unchecked, 2q passes QRTangent's skew check, since (2q)^T (2q s) = 4 s,
    # and the solve returns a tangent missing u r + 2q v = e by 19.4 at n=6
    rng = np.random.default_rng(0)
    pair = qr_factor(rng.standard_normal((n, n)) + 3.0 * np.eye(n))
    e = rng.standard_normal((n, n))
    with pytest.raises(ShapeError, match="q is not orthogonal"):
        qr_derivative_solve(2.0 * pair.q, pair.r, e)
    tan = QRTangent(np.zeros((n, n)), np.zeros((n, n)), 2.0 * pair.q)
    with pytest.raises(ShapeError, match="q is not orthogonal"):
        qr_derivative_apply(2.0 * pair.q, pair.r, tan)


def test_qr_apply_tests_q_under_the_solves_cfg():
    # a loose structural_tol admits q scaled by 1 + 1e-9, which the default
    # refuses; the apply must accept the tangent the solve returned under cfg
    cfg = ToleranceConfig(structural_tol=1e-6)
    rng = np.random.default_rng(0)
    pair = qr_factor(rng.standard_normal((6, 6)) + 3.0 * np.eye(6))
    q = (1.0 + 1e-9) * pair.q
    e = rng.standard_normal((6, 6))
    tan = qr_derivative_solve(q, pair.r, e, cfg)
    # u r + q v = c^2 e for q = c (orthogonal)
    assert hs_norm(qr_derivative_apply(q, pair.r, tan, cfg) - e) <= 1e-8 * hs_norm(e)
    with pytest.raises(ShapeError, match="q is not orthogonal"):
        qr_derivative_apply(q, pair.r, tan)


def test_map_table_qr_apply_takes_the_callers_cfg():
    # verify and the CLI reach qr_derivative_apply through the table, so it
    # must test q under their cfg: q scaled by 1 + 1e-9 passes only the loose one
    cfg = ToleranceConfig(structural_tol=1e-6)
    rng = np.random.default_rng(0)
    pair = qr_factor(rng.standard_normal((6, 6)) + 3.0 * np.eye(6))
    q = (1.0 + 1e-9) * pair.q
    e = rng.standard_normal((6, 6))
    m = _MAPS["qr"]
    tan = m.solve(q, pair.r, e, cfg)
    assert hs_norm(m.apply(q, pair.r, tan, cfg) - e) <= 1e-8 * hs_norm(e)
    with pytest.raises(ShapeError, match="q is not orthogonal"):
        m.apply(q, pair.r, tan, DEFAULT_TOLERANCES)


@pytest.mark.parametrize(
    "factor, solve, apply",
    [
        (qr_factor, qr_derivative_solve, qr_derivative_apply),
        (ldu_factor, ldu_derivative_solve, ldu_derivative_apply),
    ],
    ids=["qr", "ldu"],
)
def test_apply_refuses_a_tangent_of_another_dimension(factor, solve, apply):
    small, big = factor(np.eye(2) + 0.1), factor(np.eye(3) + 0.1)
    tan = solve(*(getattr(big, c) for c in big.__slots__), np.ones((3, 3)))
    with pytest.raises(ShapeError, match="^tangent dimension does not match the base point$"):
        apply(*(getattr(small, c) for c in small.__slots__), tan)


@pytest.mark.parametrize(
    "kind, slot, i, j, value",
    [
        ("cholesky", "l", 0, 2, 0.5),
        ("ldu", "l", 1, 3, 0.5),
        ("ldu", "l", 2, 2, 1.5),
        ("ldu", "u", 0, 0, 0.5),
        ("ldu", "d", 3, 1, 0.5),
        ("ldu", "u", 3, 0, 0.5),
    ],
    ids=["cholesky-l-above", "ldu-l-above", "ldu-l-diagonal", "ldu-u-diagonal",
         "ldu-d-off-diagonal", "ldu-u-below"],
)
def test_base_point_refuses_a_stray_entry(kind, slot, i, j, value):
    # one entry off the slot's structure: both directions refuse it, naming
    # the slot, instead of differentiating at a point outside the map's domain
    rng = np.random.default_rng(7)
    zero = np.zeros((4, 4))
    if kind == "cholesky":
        fac = cholesky_factor(random_spd(rng, 4))
        calls = (
            lambda l: cholesky_derivative_apply(l, zero),
            lambda l: cholesky_derivative_solve(l, np.eye(4)),
        )
    else:
        fac = ldu_factor(random_in_p(rng, 4))
        calls = (
            lambda l, d, u: ldu_derivative_apply(l, d, u, LDUTangent(zero, zero, zero)),
            lambda l, d, u: ldu_derivative_solve(l, d, u, np.eye(4)),
        )
    parts = {c: np.array(getattr(fac, c)) for c in fac.__slots__}
    parts[slot][i, j] = value
    for call in calls:
        with pytest.raises(ShapeError, match=rf"^{slot} must "):
            call(*parts.values())


def _dense_qr(rng, n):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    r = rng.standard_normal((n, n))
    np.fill_diagonal(r, 1.0 + np.abs(np.diag(r)))
    return QRPair(q, r), qr_derivative_solve, qr_derivative_apply


def _dense_cholesky(rng, n):
    l = rng.standard_normal((n, n))
    np.fill_diagonal(l, 1.0 + np.abs(np.diag(l)))
    return CholeskyFactor(l), cholesky_derivative_solve, cholesky_derivative_apply


def _dense_ldu(rng, n):
    l, u = (0.3 * rng.standard_normal((n, n)) for _ in range(2))
    d = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    return LDUTriple(l, d, u), ldu_derivative_solve, ldu_derivative_apply


@pytest.mark.parametrize("build", [_dense_qr, _dense_cholesky, _dense_ldu])
@pytest.mark.parametrize("n", [1, 6])
def test_container_parts_are_a_base_point(build, n):
    # a container built from dense parts stores exactly the structure that
    # its map's apply and solve require of a base point
    rng = np.random.default_rng(n)
    fac, solve, apply = build(rng, n)
    parts = tuple(getattr(fac, c) for c in fac.__slots__)
    e = random_symmetric(rng, n) if len(parts) == 1 else random_square(rng, n)
    got = apply(*parts, solve(*parts, e))
    assert hs_norm(got - e) <= 1e-10 * (1.0 + hs_norm(e))


@pytest.mark.parametrize(
    "apply, base, tan, expected",
    [
        (qr_derivative_apply, (np.eye(3), np.eye(3)), np.zeros((3, 3)), "QRTangent"),
        (
            ldu_derivative_apply,
            (np.eye(3),) * 3,
            QRTangent(np.zeros((3, 3)), np.zeros((3, 3)), np.eye(3)),
            "LDUTangent",
        ),
    ],
    ids=["qr-given-ndarray", "ldu-given-qr-tangent"],
)
def test_apply_rejects_another_tangent_type(apply, base, tan, expected):
    # unchecked, both fail with an AttributeError on the tangent's fields
    with pytest.raises(TypeError, match=f"tan must be a {expected}, got {type(tan).__name__}"):
        apply(*base, tan)
    # the type is checked before any other argument
    with pytest.raises(TypeError, match=f"tan must be a {expected}"):
        apply(*(np.full((2, 3), np.nan) for _ in base), tan)
