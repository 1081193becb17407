import weakref

import numpy as np
import pytest
from conftest import random_diag_shifted, random_spd, random_square, recording

from factordiff import (
    DEFAULT_TOLERANCES,
    CholeskyFactor,
    ConvergedOutsideChart,
    LDUTriple,
    NoConvergence,
    NotInDomainP,
    NotSymmetric,
    PathLeavesDomain,
    PathSpec,
    QRPair,
    ShapeError,
    SingularD,
    SingularL,
    SingularR,
    ToleranceConfig,
    TooFarFromGroup,
    cholesky_factor,
    cholesky_newton_correct,
    hs_norm,
    ldu_factor,
    ldu_newton_correct,
    orthogonality_defect,
    qr_derivative_solve,
    qr_factor,
    qr_newton_correct,
    retract_orthogonal,
    track_cholesky,
    track_ldu,
    track_qr,
)
from factordiff import frechet, newton


class TestRetractOrthogonal:
    def test_fixed_point(self):
        rng = np.random.default_rng(131)
        q = qr_factor(random_square(rng, 4)).q
        assert hs_norm(retract_orthogonal(q) - q) <= 1e-12 * (1.0 + hs_norm(q))

    def test_scaled_identity(self):
        out = retract_orthogonal(1.1 * np.eye(3))
        assert hs_norm(out - np.eye(3)) <= 1e-11

    def test_reflection_unchanged(self):
        m = np.diag([1.0, -1.0])
        assert hs_norm(retract_orthogonal(m) - m) <= 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(137)
        m = np.eye(4) + 0.1 * random_square(rng, 4)
        once = retract_orthogonal(m)
        twice = retract_orthogonal(once)
        assert hs_norm(twice - once) <= 1e-12 * (1.0 + hs_norm(once))
        assert orthogonality_defect(once) <= 1e-12 * (1.0 + hs_norm(once))

    def test_too_far(self):
        with pytest.raises(TooFarFromGroup):
            retract_orthogonal(2.0 * np.eye(3))

    def test_no_convergence_within_sixty_iterations(self):
        # a zero structural_tol asks for an exactly orthogonal iterate, which
        # roundoff never reaches
        m = np.eye(4) + 0.05 * np.random.default_rng(0).standard_normal((4, 4))
        with pytest.raises(NoConvergence, match="polar retraction did not converge"):
            retract_orthogonal(m, ToleranceConfig(structural_tol=0.0))


class TestQRNewtonCorrect:
    def test_exact_guess_returns_immediately(self):
        rng = np.random.default_rng(139)
        a = random_square(rng, 5)
        pair = qr_factor(a)
        corrected, iters = qr_newton_correct(a, pair)
        assert iters == 0
        assert np.array_equal(corrected.q, pair.q)
        assert np.array_equal(corrected.r, pair.r)

    def test_near_identity_converges_quadratically(self):
        rng = np.random.default_rng(149)
        noise = random_square(rng, 5)
        a = np.eye(5) + 1e-3 * noise / hs_norm(noise)
        corrected, iters = qr_newton_correct(a, QRPair(np.eye(5), np.eye(5)))
        assert iters <= 3
        assert hs_norm(corrected.product() - a) <= 1e-12
        oracle = qr_factor(a)
        assert hs_norm(corrected.q - oracle.q) <= 1e-9
        assert hs_norm(corrected.r - oracle.r) <= 1e-9

    def test_singular_guess_propagates(self):
        a = np.eye(2)
        guess = QRPair(np.eye(2), [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(SingularR):
            qr_newton_correct(a, guess)

    def test_no_convergence_with_zero_budget(self):
        rng = np.random.default_rng(151)
        a = np.eye(3) + 0.1 * random_square(rng, 3)
        with pytest.raises(NoConvergence):
            qr_newton_correct(a, QRPair(np.eye(3), np.eye(3)), max_iters=0)

    def test_outside_chart(self):
        # target -1 = q*r needs q = -1; additive steps from (1, 1) push r negative
        a = np.array([[-1.0]])
        with pytest.raises(ConvergedOutsideChart):
            qr_newton_correct(a, QRPair(np.eye(1), np.eye(1)))


class TestOtherCorrectors:
    def test_cholesky_corrects_perturbed_factor(self):
        rng = np.random.default_rng(157)
        m = random_square(rng, 4)
        a = m.T @ m + np.eye(4)
        a = 0.5 * (a + a.T)
        exact = cholesky_factor(a)
        fuzz = np.tril(random_square(rng, 4))
        guess = CholeskyFactor(exact.l + 1e-3 * fuzz)
        corrected, iters = cholesky_newton_correct(a, guess)
        assert iters <= 4
        assert hs_norm(corrected.product() - a) <= 1e-12 * (1.0 + hs_norm(a))
        assert hs_norm(corrected.l - exact.l) <= 1e-9

    def test_ldu_corrects_perturbed_triple(self):
        rng = np.random.default_rng(163)
        a = random_square(rng, 4) + 3.0 * np.eye(4)
        exact = ldu_factor(a)
        guess = LDUTriple(
            exact.l + 1e-3 * np.tril(random_square(rng, 4), -1),
            exact.d + np.diag(1e-3 * rng.uniform(-1, 1, 4)),
            exact.u + 1e-3 * np.triu(random_square(rng, 4), 1),
        )
        corrected, iters = ldu_newton_correct(a, guess)
        assert iters <= 4
        assert hs_norm(corrected.product() - a) <= 1e-12 * (1.0 + hs_norm(a))


class TestQuadraticConvergenceSignature:
    def test_first_step_residual_slope(self):
        from factordiff import qr_derivative_solve

        rng = np.random.default_rng(167)
        n = 5
        for _ in range(5):
            q0 = qr_factor(random_square(rng, n)).q
            r0 = np.triu(random_square(rng, n))
            np.fill_diagonal(r0, rng.uniform(0.5, 1.5, n))
            a = q0 @ r0
            base = qr_factor(a)
            deltas = (1e-2, 1e-3, 1e-4)
            residuals = []
            for delta in deltas:
                w = random_square(rng, n)
                skew = w - w.T
                vup = np.triu(random_square(rng, n))
                du = base.q @ skew
                scale = delta / np.sqrt(hs_norm(du) ** 2 + hs_norm(vup) ** 2)
                guess = QRPair(
                    retract_orthogonal(base.q + scale * du), base.r + scale * vup
                )
                tan = qr_derivative_solve(guess.q, guess.r, a - guess.product())
                q1 = retract_orthogonal(guess.q + tan.u)
                r1 = np.triu(guess.r + tan.v)
                residuals.append(hs_norm(a - q1 @ r1))
            slope = np.polyfit(np.log(deltas), np.log(residuals), 1)[0]
            assert 1.7 <= slope <= 2.3

    def test_one_newton_step_max_iters(self):
        # max_iters=1 runs exactly one step; converged-in-one returns iters=1
        rng = np.random.default_rng(173)
        noise = random_square(rng, 4)
        a = np.eye(4) + 1e-9 * noise / hs_norm(noise)
        corrected, iters = qr_newton_correct(a, QRPair(np.eye(4), np.eye(4)), max_iters=1)
        assert iters == 1


class TestPathSpec:
    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            PathSpec(evaluate=lambda t: np.eye(2), steps=0)

    def test_rejects_non_callable(self):
        with pytest.raises(ValueError):
            PathSpec(evaluate=np.eye(2))

    def test_rejects_non_integral_steps(self):
        with pytest.raises(ValueError):
            PathSpec(evaluate=lambda t: np.eye(2), steps=2.5)
        with pytest.raises(ValueError):
            PathSpec(evaluate=lambda t: np.eye(2), steps="8")
        # bool is an int subclass: unchecked, True reads as one step
        with pytest.raises(ValueError, match="steps must be at least 1, got True"):
            PathSpec(evaluate=lambda t: np.eye(2), steps=True)

    def test_accepts_integer_like_steps(self):
        report = track_qr(PathSpec(lambda t: np.eye(2), steps=np.int64(3)))
        assert len(report.ts) == 4


@pytest.mark.parametrize("track", [track_qr, track_cholesky, track_ldu])
@pytest.mark.parametrize("n_after", [2, 1])
def test_dimension_change_is_a_shape_error(track, n_after):
    # 3x3 to 1x1 would broadcast against a(0) and fail as a numerical error
    with pytest.raises(ShapeError, match=r"a\(0\.5\)"):
        track(PathSpec(lambda t: np.eye(3) if t < 0.5 else np.eye(n_after)))


class TestTrackQR:
    def test_constant_path(self):
        report = track_qr(PathSpec(lambda t: np.eye(3)))
        assert len(report.ts) == 65
        assert all(it == 0 for it in report.newton_iters)
        assert report.max_residual == 0.0
        assert len(report.factors) == len(report.ts) == len(report.factor_norms)
        assert len(report.residuals) == len(report.ts)

    def test_linear_family_matches_oracle(self):
        rng = np.random.default_rng(179)
        noise = random_square(rng, 5)
        noise = 0.4 * noise / hs_norm(noise)

        report = track_qr(PathSpec(lambda t: np.eye(5) + t * noise))
        assert max(report.newton_iters) <= 4
        worst_scale = max(1.0 + hs_norm(np.eye(5) + t * noise) for t in report.ts)
        assert report.max_residual <= 1e-12 * worst_scale
        for t, pair in zip(report.ts, report.factors):
            a_t = np.eye(5) + t * noise
            oracle = qr_factor(a_t)
            bound = 1e-8 * (1.0 + hs_norm(a_t))
            assert hs_norm(pair.q - oracle.q) <= bound
            assert hs_norm(pair.r - oracle.r) <= bound

    def test_path_through_singularity(self):
        with pytest.raises(PathLeavesDomain) as info:
            track_qr(PathSpec(lambda t: (1.0 - 2.0 * t) * np.eye(3)))
        assert info.value.t == pytest.approx(0.5, abs=1e-9)


class TestTrackCholesky:
    def test_constant_identity(self):
        report = track_cholesky(PathSpec(lambda t: np.eye(4)))
        for fac in report.factors:
            assert np.array_equal(fac.l, np.eye(4))

    def test_linear_spd_family_matches_oracle(self):
        rng = np.random.default_rng(181)
        m = random_square(rng, 5)
        bump = m.T @ m
        bump = 0.5 * (bump + bump.T)
        bump = bump / hs_norm(bump)

        report = track_cholesky(PathSpec(lambda t: np.eye(5) + t * bump))
        for t, fac in zip(report.ts, report.factors):
            oracle = cholesky_factor(np.eye(5) + t * bump)
            assert hs_norm(fac.l - oracle.l) <= 1e-8 * (1.0 + hs_norm(oracle.l))

    def test_loses_definiteness(self):
        with pytest.raises(PathLeavesDomain) as info:
            track_cholesky(PathSpec(lambda t: (1.0 - 2.0 * t) * np.eye(3)))
        assert info.value.t == pytest.approx(0.5, abs=1e-9)

    def test_loses_symmetry(self):
        path = PathSpec(lambda t: np.array([[2.0, 1.0 + t], [1.0, 2.0]]), steps=2)
        with pytest.raises(PathLeavesDomain, match=r"^a\(t\) not symmetric at t=0\.5$") as info:
            track_cholesky(path)
        assert info.value.t == 0.5


class TestTrackLDU:
    def test_constant_identity(self):
        report = track_ldu(PathSpec(lambda t: np.eye(3)))
        for trip in report.factors:
            assert np.array_equal(trip.l, np.eye(3))
            assert np.array_equal(trip.d, np.eye(3))
            assert np.array_equal(trip.u, np.eye(3))

    def test_blowup_family_endpoint(self):
        eps = 1e-3

        def family(t):
            return np.array([[1.0 - t + t * eps, 1.0], [1.0, 0.0]])

        report = track_ldu(PathSpec(family))
        d22 = report.factors[-1].d[1, 1]
        assert abs(d22 - (-1.0 / eps)) <= 1e-6 * (1.0 / eps)
        # factor norms blow up as the boundary gets closer while inputs stay bounded
        assert report.factor_norms[-1] > 100.0 * report.factor_norms[0]
        assert max(hs_norm(family(t)) for t in report.ts) <= np.sqrt(3.0)

    def test_pivot_crossing_zero(self):
        with pytest.raises(PathLeavesDomain) as info:
            track_ldu(PathSpec(lambda t: np.array([[0.5 - t, 1.0], [1.0, 0.0]])))
        assert info.value.t == pytest.approx(0.5, abs=1e-9)


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestStepHalving:
    """Paths whose first tracking step fails, so the tracker halves it."""

    scale = np.diag([1.0, 2.0])

    def _first_prediction(self, path):
        a0, a1 = path.evaluate(0.0), path.evaluate(1.0 / path.steps)
        pair = qr_factor(a0)
        tan = qr_derivative_solve(pair.q, pair.r, a1 - a0)
        return retract_orthogonal(pair.q + tan.u), pair.r + tan.v

    def _assert_recovers(self, path):
        report = track_qr(path)
        assert report.newton_iters == [0, 4]
        a1 = path.evaluate(1.0)
        oracle = qr_factor(a1)
        bound = 1e-8 * (1.0 + hs_norm(a1))
        assert hs_norm(report.factors[-1].q - oracle.q) <= bound
        assert hs_norm(report.factors[-1].r - oracle.r) <= bound

    def test_retraction_failure_recovers(self):
        path = PathSpec(lambda t: _rotation(2.0 * t) @ self.scale, steps=1)
        with pytest.raises(TooFarFromGroup):
            self._first_prediction(path)
        self._assert_recovers(path)

    def test_negative_predicted_diagonal_recovers(self):
        path = PathSpec(lambda t: _rotation(3.0 * t) @ self.scale, steps=1)
        q, r = self._first_prediction(path)
        with pytest.raises(ShapeError, match="negative diagonal"):
            QRPair(q, r)
        self._assert_recovers(path)

    def test_jump_exhausts_halvings(self):
        jumped = _rotation(3.0) @ self.scale
        path = PathSpec(lambda t: self.scale if t <= 0.5 else jumped, steps=4)
        with pytest.raises(NoConvergence, match="correction failed at t=0.515625 after 4 step halvings"):
            track_qr(path)

    @pytest.mark.parametrize("turn", [2.0, 3.0], ids=["retraction", "negative-diagonal"])
    def test_halving_samples_each_t_once(self, turn):
        # the one step is taken in quarters; re-sampling the right end of
        # each halved interval made 8 evaluations for these 5 t
        evaluate, seen = recording(lambda t: _rotation(turn * t) @ self.scale)
        report = track_qr(PathSpec(evaluate, steps=1))
        assert seen == [0.0, 1.0, 0.5, 0.25, 0.75]
        assert report.ts == [0.0, 1.0]
        assert report.newton_iters == [0, 4]


def test_ldu_halvings_sample_each_t_once():
    # at eps = 1e-8 the step to t = 0.71875 halves four times and is refused
    # (until tolerances follow one scale model); re-sampling the right end of
    # each halved interval made 55 evaluations for these 51 t
    eps = 1e-8
    evaluate, seen = recording(lambda t: np.array([[eps**t, 1.0], [1.0, 0.0]]))
    with pytest.raises(NoConvergence, match="correction failed at t=0.71875 after 4 step halvings"):
        track_ldu(PathSpec(evaluate, steps=64))
    assert len(seen) == len(set(seen)) == 51


class TestQuadraticPredictor:
    """From its third step on, a run guesses each sample by the quadratic
    through the last three accepted factors, and takes the derivative step
    only when that guess or its correction fails."""

    @pytest.mark.parametrize("n", [3, 20])
    def test_cholesky_affine_factor_path(self, n):
        # l(t) = l0 + t l1 is the factor path, and a quadratic reproduces it up
        # to the samples' residuals; after a derivative step, 2-3 iterations
        rng = np.random.default_rng(n)
        l0 = np.tril(rng.uniform(-0.5, 0.5, (n, n)), -1) + np.diag(rng.uniform(1.0, 2.0, n))
        l1 = np.tril(rng.uniform(-0.5, 0.5, (n, n)))
        report = track_cholesky(PathSpec(lambda t: (l0 + t * l1) @ (l0 + t * l1).T, steps=8))
        assert max(report.newton_iters[3:]) <= 1

    @pytest.mark.parametrize("n", [3, 20])
    def test_ldu_affine_factor_path(self, n):
        rng = np.random.default_rng(n)
        lower = np.tril(rng.uniform(-0.5, 0.5, (2, n, n)), -1)
        upper = np.triu(rng.uniform(-0.5, 0.5, (2, n, n)), 1)
        d0, d1 = rng.uniform(1.0, 2.0, n), rng.uniform(-0.5, 0.5, n)

        def family(t):
            l, u = np.eye(n) + lower[0] + t * lower[1], np.eye(n) + upper[0] + t * upper[1]
            return (l * (d0 + t * d1)) @ u

        report = track_ldu(PathSpec(family, steps=8))
        assert max(report.newton_iters[3:]) <= 1

    @staticmethod
    def _guesses(monkeypatch, turn, steps):
        """The t of each sample that track_qr accepts on R(turn(t)) S, with
        whether the derivative step predicted it: a public derivative solve
        ran outside the corrector since the previous correction."""
        solve, correct = newton.qr_derivative_solve, newton.qr_newton_correct
        state = {"correcting": False, "stepped": False}
        accepted = []

        def solved(*args):
            state["stepped"] |= not state["correcting"]
            return solve(*args)

        def corrected(a, guess, cfg, max_iters=20):
            stepped, state["stepped"], state["correcting"] = state["stepped"], False, True
            try:
                fac, it = correct(a, guess, cfg, max_iters)
            finally:
                state["correcting"] = False
            accepted.append((a, stepped))
            return fac, it

        monkeypatch.setattr(newton, "qr_derivative_solve", solved)
        monkeypatch.setattr(newton, "qr_newton_correct", corrected)

        def family(t):
            return _rotation(turn(t)) @ TestStepHalving.scale

        evaluate, seen = recording(family)
        track_qr(PathSpec(evaluate, steps=steps))
        return [(next(t for t in seen if np.array_equal(family(t), a)), s) for a, s in accepted]

    def test_halving_restarts_the_history(self, monkeypatch):
        # the steps to 0.25 and 0.5 leave three samples, but the step from 0.5
        # to 1 fails and halves: its two substeps predict by derivative steps
        assert self._guesses(monkeypatch, lambda t: 2.0 * t, steps=1) == [
            (0.25, True), (0.5, True), (0.75, True), (1.0, True)
        ]

    def test_extrapolation_resumes_after_two_substeps(self, monkeypatch):
        # the turn slows down: the steps to 0.125 and then to 0.0625 halve,
        # and the substep after the two to 0.03125 and 0.0625 extrapolates
        guesses = self._guesses(monkeypatch, lambda t: 2.0 - 2.0 * np.exp(-8.0 * t), steps=8)
        assert guesses[:3] == [(0.03125, True), (0.0625, True), (0.125, False)]


@pytest.mark.parametrize("max_iters", [-1, 2.5])
@pytest.mark.parametrize(
    "correct, guess",
    [
        (qr_newton_correct, QRPair(np.eye(2), np.eye(2))),
        (cholesky_newton_correct, CholeskyFactor(np.eye(2))),
        (ldu_newton_correct, LDUTriple(np.eye(2), np.eye(2), np.eye(2))),
    ],
)
def test_corrector_rejects_bad_budget(correct, guess, max_iters):
    # unchecked, -1 runs no step and reads as NoConvergence, and 2.5 fails
    # inside range() with a TypeError
    with pytest.raises(ValueError, match="max_iters must be a non-negative integer"):
        correct(np.eye(2), guess, max_iters=max_iters)


def test_cholesky_corrector_rejects_an_asymmetric_a():
    # unchecked, a was symmetrized silently: 4 iterations returned a factor
    # whose product missed a by 0.707
    g = np.random.default_rng(0).standard_normal((4, 4))
    s = g @ g.T + 4.0 * np.eye(4)
    a = s.copy()
    a[0, 3] += 1.0
    with pytest.raises(NotSymmetric, match="a is not symmetric"):
        cholesky_newton_correct(a, cholesky_factor(s))


@pytest.mark.parametrize(
    "correct, guess, expected",
    [
        (cholesky_newton_correct, ldu_factor, "CholeskyFactor"),
        (qr_newton_correct, cholesky_factor, "QRPair"),
        (qr_newton_correct, np.array, "QRPair"),
    ],
    ids=["cholesky-given-ldu", "qr-given-cholesky", "qr-given-ndarray"],
)
def test_corrector_rejects_another_maps_guess(correct, guess, expected):
    # unchecked, the Cholesky corrector read LDU's unit-lower l as its guess
    # and returned a CholeskyFactor after 5 iterations, and the QR corrector
    # failed with an AttributeError
    a = 2.0 * np.eye(3)
    g = guess(a)
    with pytest.raises(TypeError, match=f"guess must be a {expected}, got {type(g).__name__}"):
        correct(a, g)
    # the type is checked before any other argument
    with pytest.raises(TypeError, match=f"guess must be a {expected}"):
        correct(np.full((2, 3), np.nan), g, max_iters=-1)


@pytest.mark.parametrize("n_guess", [1, 2])
@pytest.mark.parametrize(
    "correct, a, factor",
    [
        (qr_newton_correct, np.full((3, 3), 2.0), qr_factor),
        (cholesky_newton_correct, np.full((3, 3), 4.0), cholesky_factor),
        (ldu_newton_correct, np.full((3, 3), 3.0), ldu_factor),
    ],
)
def test_corrector_rejects_a_guess_of_another_dimension(correct, a, factor, n_guess):
    # unchecked, a 1x1 guess broadcasts against a and comes back as a wrong
    # answer with no error, and a 2x2 one fails in numpy's broadcasting
    guess = factor(a[:n_guess, :n_guess] + np.eye(n_guess))
    with pytest.raises(ShapeError, match=f"guess has dimension {n_guess}, but a has dimension 3"):
        correct(a, guess)


@pytest.mark.parametrize(
    "correct, factor, make",
    [
        (qr_newton_correct, qr_factor, random_square),
        (cholesky_newton_correct, cholesky_factor, random_spd),
        (ldu_newton_correct, ldu_factor, random_diag_shifted),
    ],
)
def test_zero_step_correction_returns_the_guess(correct, factor, make):
    # the guess's numeric tests ran when the caller built it; a re-checked
    # copy under the corrector's config would repeat them
    a = make(np.random.default_rng(11), 6)
    guess = factor(a)
    corrected, iters = correct(a, guess)
    assert corrected is guess
    assert iters == 0


@pytest.mark.parametrize("n", [33, 64])
def test_tracking_across_the_block_edge_matches_the_kernels(n):
    # above 32 columns every prepared inverse is formed by halves; each
    # sample of a linear 8-step path must still be the kernel's factorization
    rng = np.random.default_rng(n)
    g0, g1 = rng.standard_normal((2, n, n)) / np.sqrt(n)
    a0, a1 = g0 + 3.0 * np.eye(n), g1 + 3.0 * np.eye(n)
    s0, s1 = g0 @ g0.T + np.eye(n), g1 @ g1.T + np.eye(n)
    for track, factor, x0, x1 in (
        (track_qr, qr_factor, a0, a1),
        (track_cholesky, cholesky_factor, s0, s1),
        (track_ldu, ldu_factor, a0, a1),
    ):
        report = track(PathSpec(lambda t: (1.0 - t) * x0 + t * x1, steps=8))
        # Newton still converges on an inexact inverse, only more slowly, so
        # the count catches an inverse that drops or shifts the coupling of
        # its halves
        assert max(report.newton_iters) <= 3
        for t, fac in zip(report.ts, report.factors):
            a_t = (1.0 - t) * x0 + t * x1
            oracle = factor(a_t)
            bound = 1e-8 * (1.0 + hs_norm(a_t))
            for name in fac.__slots__:
                assert hs_norm(getattr(fac, name) - getattr(oracle, name)) <= bound


@pytest.mark.parametrize("kind", ["qr", "cholesky", "ldu"])
def test_sample_stream_holds_at_most_the_history(kind):
    # a consumer that drops each record keeps a yielded factor alive only
    # while the predictor's history holds it, so memory is flat in steps
    g = np.random.default_rng(8).standard_normal((8, 8))
    end = g @ g.T + np.eye(8) if kind == "cholesky" else g / np.sqrt(8) + 3.0 * np.eye(8)
    path = PathSpec(lambda t: (1.0 - t) * np.eye(8) + t * end, steps=64)
    m = newton._MAPS[kind]
    refs, alive = [], []
    for record in newton._samples(m, path, DEFAULT_TOLERANCES):
        refs.append(weakref.ref(m.parts(record[1])[0]))
        del record
        alive.append(sum(ref() is not None for ref in refs))
    assert len(refs) == 65
    assert max(alive) <= newton._HISTORY
    assert all(ref() is None for ref in refs)


def test_a_sample_after_the_second_prepares_one_base(monkeypatch):
    """On a 16-step n = 64 linear LDU path of the benchmark's family, every
    sample from the third on corrects its extrapolated guess on one base,
    the inverses of l and u formed once, and its certificate bounds them
    from that base without inverting the accepted factor."""
    n, rng = 64, np.random.default_rng(64)
    g0, g1 = rng.standard_normal((2, n, n))
    shift = 1.0 + max(np.linalg.norm(g0, 2), np.linalg.norm(g1, 2)) / np.sqrt(n)
    a0, a1 = g0 / np.sqrt(n) + shift * np.eye(n), g1 / np.sqrt(n) + shift * np.eye(n)
    path = PathSpec(lambda t: (1.0 - t) * a0 + t * a1, steps=16)
    calls = {"prepare": 0, "certificate": 0}

    def counted(module, name):
        inverse = module._upper_inverse

        def upper_inverse(t):
            calls[name] += 1
            return inverse(t)

        monkeypatch.setattr(module, "_upper_inverse", upper_inverse)

    counted(frechet, "prepare")
    counted(newton, "certificate")
    per_sample = []
    for _record in newton._samples(newton._MAPS["ldu"], path, DEFAULT_TOLERANCES):
        per_sample.append(dict(calls))
        calls.update(prepare=0, certificate=0)
    assert len(per_sample) == 17
    # the seed's certificate inverts its factor; at the two derivative steps
    # the public solve prepares its own base, and the corrector prepares again
    assert per_sample[0] == {"prepare": 0, "certificate": 2}
    assert all(c["prepare"] > 2 and c["certificate"] == 0 for c in per_sample[1:3])
    assert per_sample[3:] == [{"prepare": 2, "certificate": 0}] * 14


@pytest.mark.parametrize(
    "correct, factor, symmetric, error",
    [
        (qr_newton_correct, qr_factor, False, SingularR),
        (cholesky_newton_correct, cholesky_factor, True, SingularL),
        (ldu_newton_correct, ldu_factor, False, SingularD),
    ],
)
def test_a_held_base_meets_each_calls_singularity_test(correct, factor, symmetric, error):
    # the base holds only inverses: a guess prepared under a loose
    # singularity_tol is tested again under the strict one of a later call
    rng = np.random.default_rng(17)
    e = rng.uniform(-1.0, 1.0, (3, 3))
    a = np.diag([2.0, 1.0, 1e-4]) + 1e-6 * (e + e.T if symmetric else e)
    guess = factor(np.diag([2.0, 1.0, 1e-4]))
    loose, strict = DEFAULT_TOLERANCES, ToleranceConfig(singularity_tol=0.1)
    assert correct(a, guess, loose)[1] > 0
    assert guess._inverses is not None
    with pytest.raises(error):
        correct(a, guess, strict)


def test_a_refused_seed_keeps_the_kernels_error(monkeypatch):
    # a kernel refusal at t = 0 runs the exact test; where it passes, the
    # kernel's own error goes on, not a PathLeavesDomain
    def refuse(a, cfg):
        raise NotInDomainP(1)

    monkeypatch.setattr(newton, "ldu_factor", refuse)
    path = PathSpec(lambda t: np.eye(3) + 0.1 * t * np.ones((3, 3)), steps=2)
    with pytest.raises(NotInDomainP) as refused:
        track_ldu(path)
    assert refused.value.k == 1
