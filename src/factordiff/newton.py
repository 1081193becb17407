"""Newton correction of approximate factorizations and predictor-corrector
tracking of factor paths along smooth matrix families.

Because each derivative is an isomorphism on the open factor domain, Newton's
method applies directly: solve the derivative equation for the residual, step,
and (for the orthogonal factor) retract back onto the group via the polar
factor. The corrector is simplified Newton (Deuflhard, Newton Methods for
Nonlinear Problems, 2.1): it prepares the derivative's inverse at its guess
(frechet's prepared base) and keeps it while the last contraction predicts
that the next step lands within tolerance, preparing it again at the
current iterate otherwise, so a good guess costs one set of triangle
inverses and a poor one gets full Newton. Each accepted factor's domain
certificate bounds its inverse norms from that base, or from its own.
Tracking advances a factorization along a parametrized family by
prediction followed by Newton correction. The factor path is analytic, so
once a run has three accepted samples, the quadratic through them predicts
the next one with O(h^3) error and no derivative solve (the multistep
predictor of Allgower & Georg, Introduction to Numerical Continuation
Methods, SIAM 2003). The first-order prediction, one derivative step for
the change in the input on the last factor's own base, runs for the first
two steps of a run and of each halved interval, and whenever the
extrapolated guess or its correction fails. When that fails too, the step
halves (up to four times per interval).

The three maps differ only in their pieces (container, whose product() is
the map, kernel, derivative solve and apply, prepared base, settling onto
the manifold, chart and domain tests), which one private table holds per
map; one step (solve, then move, settle and build the container, for a
prediction and a Newton correction alike), one corrector and one tracker
run from it, and so do the CLI and the derivative check in verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    CholeskyFactor,
    LDUTriple,
    QRPair,
    ToleranceConfig,
    _require_count,
    _require_instance,
    _scaled,
    _singular_d,
    _symmetric,
    hs_norm,
    validate_matrix,
)
from .errors import (
    ConvergedOutsideChart,
    NoConvergence,
    NotInDomainP,
    NotPositiveSemiDefinite,
    NotSymmetric,
    PathLeavesDomain,
    ShapeError,
    SingularD,
    SingularL,
    SingularR,
    TooFarFromGroup,
)
from .factor import cholesky_factor, in_domain_p, ldu_factor, qr_factor
from .frechet import (
    _cholesky_apply,
    _cholesky_prepare,
    _held,
    _ldu_apply,
    _ldu_prepare,
    _qr_apply,
    _qr_prepare,
    cholesky_derivative_apply,
    cholesky_derivative_solve,
    ldu_derivative_apply,
    ldu_derivative_solve,
    qr_derivative_apply,
    qr_derivative_solve,
)

__all__ = [
    "PathSpec",
    "TrackReport",
    "retract_orthogonal",
    "qr_newton_correct",
    "cholesky_newton_correct",
    "ldu_newton_correct",
    "track_qr",
    "track_cholesky",
    "track_ldu",
]

_MAX_HALVINGS = 4
_HISTORY = 3  # accepted samples the predictor extrapolates through: a quadratic
_STEP_FAILURES = (
    NoConvergence,
    ConvergedOutsideChart,
    ShapeError,
    SingularR,
    SingularL,
    SingularD,
    TooFarFromGroup,
    NotSymmetric,  # a Cholesky sample that lost symmetry: the exact test names it
)


@dataclass(frozen=True)
class PathSpec:
    """A matrix family t in [0, 1] -> a(t), evaluated lazily.

    evaluate must be a pure function of t returning a square matrix of fixed
    dimension. steps is the number of tracking intervals (samples are
    t = i / steps for i = 0..steps).
    """

    evaluate: Callable[[float], np.ndarray]
    steps: int = 64

    def __post_init__(self) -> None:
        if not callable(self.evaluate):
            raise ValueError("evaluate must be callable")
        _require_count(self.steps, "steps", least=1)


@dataclass(frozen=True)
class TrackReport:
    """Result of tracking one factor path.

    All lists have one entry per sample t = i / steps. newton_iters[i] is the
    worst corrector iteration count among the substeps that reached sample i
    (0 for the seeded start). factor_norms[i] is the combined factor norm
    sqrt(sum of squared component norms), which is what blows up when a path
    approaches the boundary of the LDU domain. residuals[i] is the
    reconstruction residual at sample i and max_residual is their maximum.
    The corrector stops once a residual is within structural_tol (1 +
    ||a(t)||), so a residual may sit near that tolerance: an extrapolated
    guess often passes it after zero or one iteration, where the extra
    iteration a first-order guess needs would often have reached roundoff.
    """

    ts: List[float]
    factors: list
    newton_iters: List[int]
    factor_norms: List[float] = field(default_factory=list)
    residuals: List[float] = field(default_factory=list)
    max_residual: float = 0.0


def retract_orthogonal(m, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Orthogonal polar factor of m, by the iteration x <- x (3I - x^T x) / 2.

    Requires m to be near the group already: the eigenvalues of m^T m may
    deviate from 1 by at most 0.5. Raises TooFarFromGroup otherwise.

    Each iteration forms the Gram matrix x^T x once, for both the stop test
    and the update. The first one also gates: ||m^T m - I||_F <= 0.5 bounds
    the spectral deviation, so it accepts alone, and only an input it does
    not accept pays for the exact eigenvalue test.
    """
    m = validate_matrix(m, "m")
    eye = np.eye(m.shape[0])
    gram = m.T @ m
    defect = hs_norm(gram - eye)
    if defect > 0.5:
        eig = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        if float(np.abs(eig - 1.0).max()) > 0.5 + 1e-12:
            raise TooFarFromGroup("matrix is not within distance 0.5 of the orthogonal group")
    x = m
    for _ in range(60):
        if defect <= _scaled(cfg.structural_tol, x):
            return x
        x = x @ (1.5 * eye - 0.5 * gram)
        gram = x.T @ x
        defect = hs_norm(gram - eye)
    raise NoConvergence("polar retraction did not converge")


def _roundoff(n: int) -> float:
    # c n eps with room for the error bounds below, LAPACK's p(n) included
    return 4.0 * (n + 2) * float(np.finfo(np.float64).eps)


def _inverse_norms(fac, near=None) -> list:
    """A bound on ||t^-1||_F for each triangle t of fac._lower. Where near
    (by default fac) holds a base, h the inverse held for t's counterpart
    g, it is the Neumann bound ||h|| / (1 - ||h|| ||t - g||), from
    t = g (I + g^-1 (t - g)), while that product is below 1, rounded up by
    _roundoff(n) since 1 - product magnifies its relative error as it nears
    1. Otherwise it is the norm of fac's own held base (_held), formed here:
    inf for a zero on t's diagonal, and inf or nan once it overflows."""
    near = fac if near is None else near
    bounds = []
    for k, (t, g) in enumerate(zip(fac._lower(), near._lower())):
        if near._inverses is not None:
            spread = hs_norm(near._inverses[k])
            product = spread * hs_norm(t - g) * (1.0 + _roundoff(len(t)))
            if product < 1.0:  # false for nan as well
                bounds.append(spread / (1.0 - product))
                continue
        bounds.append(hs_norm(_held(fac)[k]) if t.diagonal().all() else math.inf)
    return bounds


# One rule for every tracked sample: a certificate bounds how far a lies from
# the domain's boundary by the conditioning of the factor accepted there and
# its residual ||a - product||, as measured. Only a factor it does not prove,
# or a failed step, runs the exact test, whose verdict is final, so every
# verdict and its t are the exact test's up to first-order rounding. The
# norms of the factor's inverse triangles are bounded from near, the guess
# its corrector prepared a base at, and from the factor's own base where
# that bound fails or near holds none (_inverse_norms).


def _qr_domain(a: np.ndarray, t: float, cfg: ToleranceConfig) -> None:
    smallest = float(np.linalg.svd(a, compute_uv=False)[-1])
    if smallest <= _scaled(cfg.singularity_tol, a):
        raise PathLeavesDomain(t, f"a(t) numerically singular at t={t:.6g}")


def _cholesky_domain(a: np.ndarray, t: float, cfg: ToleranceConfig) -> None:
    if not _symmetric(a, cfg):
        raise PathLeavesDomain(t, f"a(t) not symmetric at t={t:.6g}")
    smallest = float(np.linalg.eigvalsh(0.5 * (a + a.T))[0])
    if smallest <= _scaled(cfg.singularity_tol, a):
        raise PathLeavesDomain(t, f"a(t) not positive definite at t={t:.6g}")


def _ldu_domain(a: np.ndarray, t: float, cfg: ToleranceConfig) -> None:
    if not in_domain_p(a, cfg):
        raise PathLeavesDomain(t, f"a(t) has a numerically zero leading pivot at t={t:.6g}")


def _qr_certified(
    a: np.ndarray, fac: QRPair, residual: float, cfg: ToleranceConfig, near=None
) -> bool:
    """Whether fac, accepted for a with its residual, proves the svd's
    smallest singular value of a above its threshold.

    By Weyl, sigma_min(a) >= sigma_min(q) / ||r^-1||_2 - ||a - q r||_2, and
    sigma_min(q) >= 1 - ||q^T q - I||_2. To first order, _roundoff(n) ||q||
    ||r|| covers the rounding of the residual, of q^T q and of r^-1 (Higham,
    ASNA 2nd ed., ch. 14) and the svd's error, p(n) eps ||a||_2. Frobenius
    norms bound the 2-norms, here and in _cholesky_certified.
    """
    q, r = fac.q, fac.r
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # an overflow proves nothing
        spread = np.float64(*_inverse_norms(fac, near))
        floor = (1.0 - hs_norm(q.T @ q - np.eye(len(a)))) / spread
        rounding = _roundoff(len(a)) * hs_norm(q) * hs_norm(r)
        gap = floor - residual - rounding
        return bool(np.isfinite(gap)) and gap > _scaled(cfg.singularity_tol, a)


def _cholesky_certified(
    a: np.ndarray, fac: CholeskyFactor, residual: float, cfg: ToleranceConfig, near=None
) -> bool:
    """Whether fac, accepted for a with its residual, proves eigvalsh's
    smallest eigenvalue of the symmetric part of a above its threshold.

    By Weyl, lambda_min(a) >= 1 / ||l^-1||_2^2 - ||a - l l^T||_2 (the
    symmetric part of a has no larger residual). To first order,
    _roundoff(n) ||l||^2 covers the rounding of the residual and of l^-1
    (Higham, ASNA 2nd ed., ch. 14) and eigvalsh's error, p(n) eps ||a||_2.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # an overflow proves nothing
        spread, size = np.float64(*_inverse_norms(fac, near)), hs_norm(fac.l)
        rounding = _roundoff(len(a)) * size * size
        gap = 1.0 / (spread * spread) - residual - rounding
        return bool(np.isfinite(gap)) and gap > _scaled(cfg.singularity_tol, a)


def _ldu_certified(
    a: np.ndarray, fac: LDUTriple, residual: float, cfg: ToleranceConfig, near=None
) -> bool:
    """Whether fac, accepted for a with its residual, proves every pivot of
    ldu_factor's elimination of a above its threshold.

    With x = l^-1 (a - l d u) u^-1, a = l (d + x) u, and the leading blocks
    of a and of d + x have equal determinants, so a's pivots are those of
    d + x. Pivot k of d + x is d_k + x_kk - x_k,<k (d + x)_<k^-1 x_<k,k, and
    while ||x||_2 <= rho <= min |d| / 2 the last term is at most
    rho^2 / (min |d| - rho) <= rho: each pivot lies within 2 rho of its d_k.
    rho = ||l^-1|| ||u^-1|| (residual + rounding) bounds ||x||. The rounding
    term covers the residual's own rounding and the backward error of the
    elimination, whose pivots are the exact pivots of a nearby matrix: to
    first order the two together stay below _roundoff(n) ||l|| ||d||_2 ||u||
    (Higham, ASNA 2nd ed., ch. 9), and a further ||l^-1|| ||u^-1|| covers
    the elimination's inverted block triangles (ch. 13). Frobenius norms
    bound the 2-norms.
    """
    l, u = fac.l, fac.u
    dmag = np.abs(fac.d.diagonal())
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow proves nothing
        spread = math.prod(_inverse_norms(fac, near))
        rounding = _roundoff(len(a)) * spread * hs_norm(l) * float(dmag.max()) * hs_norm(u)
        rho = spread * (residual + rounding)
        gap = float(dmag.min()) - 2.0 * rho
        return bool(np.isfinite(gap)) and gap > _scaled(cfg.singularity_tol, a)


@dataclass(frozen=True)
class _FactorMap:
    """One factorization map, as the corrector, the tracker, the CLI and the
    derivative check use it. The map itself is the container's product().
    Functions take the factor components as separate arrays, in the order of
    the container's __slots__ (tangents in tangent_names)."""

    tangent_names: Tuple[str, ...]
    container: type
    symmetric: bool  # products are symmetric: inputs must be, and are symmetrized with residuals
    factor: Callable  # (a, cfg) -> container
    solve: Callable  # (*parts, e, cfg) -> tangent: the public solve, for the CLI and verify
    prepare: Callable  # (container, cfg) -> its prepared base, after its singularity test
    apply_inverse: Callable  # (container, base, e) -> tangent, by the base's inverses
    apply: Callable  # (*parts, tangent, cfg) -> matrix
    tangent: Callable  # tangent -> its components, in tangent_names order
    settle: Callable  # (*parts, cfg) -> the parts back on the factor manifold (q retracted)
    off_chart: Callable  # (*parts, cfg) -> whether a corrector iterate left the chart
    chart_error: str
    domain: Callable  # (a, t, cfg) -> None, or raises PathLeavesDomain: the exact test
    certificate: Callable  # (a, container, residual, cfg, near) -> whether they prove a inside
    correct: Callable  # (a, guess, cfg) -> (container, iterations)

    def parts(self, fac) -> tuple:
        return tuple(getattr(fac, c) for c in self.container.__slots__)


# perfbench/tracing.py wraps the kernels, solves and correctors by replacing
# them under their module-level names, so every field calls them through that
# name when it runs. A field holding the function object itself would bypass
# the wrapper, and the traced counts would read 0. The private prepare and
# apply_inverse halves are not traced, and are held as objects.
_MAPS = {
    "qr": _FactorMap(
        tangent_names=("u", "v"),
        container=QRPair,
        symmetric=False,
        factor=lambda a, cfg: qr_factor(a, cfg),
        solve=lambda q, r, e, cfg: qr_derivative_solve(q, r, e, cfg),
        prepare=_qr_prepare,
        apply_inverse=_qr_apply,
        apply=lambda q, r, tan, cfg: qr_derivative_apply(q, r, tan, cfg),
        tangent=lambda tan: (tan.u, tan.v),
        settle=lambda q, r, cfg: (retract_orthogonal(q, cfg), r),
        off_chart=lambda q, r, cfg: (r.diagonal() < 0.0).any(),
        chart_error="diagonal of r went negative",
        domain=_qr_domain,
        certificate=_qr_certified,
        correct=lambda a, guess, cfg: qr_newton_correct(a, guess, cfg),
    ),
    "cholesky": _FactorMap(
        tangent_names=("v",),
        container=CholeskyFactor,
        symmetric=True,
        factor=lambda a, cfg: cholesky_factor(a, cfg),
        solve=lambda l, e, cfg: cholesky_derivative_solve(l, e, cfg),
        prepare=_cholesky_prepare,
        apply_inverse=_cholesky_apply,
        apply=lambda l, v, cfg: cholesky_derivative_apply(l, v),
        tangent=lambda v: (v,),
        settle=lambda l, cfg: (l,),
        off_chart=lambda l, cfg: (l.diagonal() < 0.0).any(),
        chart_error="diagonal of l went negative",
        domain=_cholesky_domain,
        certificate=_cholesky_certified,
        correct=lambda a, guess, cfg: cholesky_newton_correct(a, guess, cfg),
    ),
    "ldu": _FactorMap(
        tangent_names=("a", "s", "b"),
        container=LDUTriple,
        symmetric=False,
        factor=lambda a, cfg: ldu_factor(a, cfg),
        solve=lambda l, d, u, e, cfg: ldu_derivative_solve(l, d, u, e, cfg),
        prepare=_ldu_prepare,
        apply_inverse=_ldu_apply,
        apply=lambda l, d, u, tan, cfg: ldu_derivative_apply(l, d, u, tan),
        tangent=lambda tan: (tan.a, tan.s, tan.b),
        settle=lambda l, d, u, cfg: (l, d, u),
        off_chart=lambda l, d, u, cfg: _singular_d(d, cfg),
        chart_error="diagonal factor lost invertibility",
        domain=_ldu_domain,
        certificate=_ldu_certified,
        correct=lambda a, guess, cfg: ldu_newton_correct(a, guess, cfg),
    ),
}


def _step(m: _FactorMap, fac, e: np.ndarray, cfg: ToleranceConfig, base=None):
    """One step of a prediction or a Newton correction: DF^-1 e by the base
    prepared at base, by default at fac (a simplified Newton step when it is
    another container), then fac's parts moved along it and _vetted."""
    if m.symmetric:  # roundoff breaks the symmetry of DF's range
        e = 0.5 * (e + e.T)
    base = fac if base is None else base
    tan = m.apply_inverse(base, m.prepare(base, cfg), e)
    return _vetted(m, (p + c for p, c in zip(m.parts(fac), m.tangent(tan))), cfg)


def _vetted(m: _FactorMap, parts, cfg: ToleranceConfig):
    """The container of parts settled back on the factor manifold, or
    ConvergedOutsideChart when they left the chart; the one place a Newton
    iterate or a prediction is built. The chart test is the container's
    numeric test or a stricter one, and retract_orthogonal's last Gram test
    is QRPair's, bit for bit, so the parts may go to _own."""
    parts = m.settle(*parts, cfg)
    if m.off_chart(*parts, cfg):
        raise ConvergedOutsideChart(m.chart_error)
    return m.container._own(*parts)


def _correct(m: _FactorMap, a, guess, cfg: ToleranceConfig, max_iters: int):
    _require_instance(guess, m.container, "guess")
    max_iters = _require_count(max_iters, "max_iters", least=0)
    a = validate_matrix(a, "a")
    if m.symmetric:
        if not _symmetric(a, cfg):
            raise NotSymmetric("a is not symmetric within structural tolerance")
        a = 0.5 * (a + a.T)
    if guess.n != len(a):
        raise ShapeError(f"guess has dimension {guess.n}, but a has dimension {len(a)}")
    fac, tol = guess, _scaled(cfg.structural_tol, a)
    base, last = guess, math.inf
    for it in range(max_iters + 1):
        residual = a - fac.product()
        size = hs_norm(residual)
        if size <= tol:
            return fac, it  # at zero steps, the caller's own guess
        if it == max_iters:
            break
        if size * (size / last) > tol:  # the last contraction again would miss tol
            base = fac
        last = size
        fac = _step(m, fac, residual, cfg, base)
    raise NoConvergence(f"residual above tolerance after {max_iters} iterations")


def qr_newton_correct(
    a,
    guess: QRPair,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    max_iters: int = 20,
):
    """Newton-correct an approximate orthogonal/upper-triangular pair toward
    the factorization of a.

    Each step solves the derivative equation for the residual a - q @ r,
    retracts q + u onto the orthogonal group, and adds v to r. Returns the
    corrected pair and the number of steps taken. A guess already within
    tolerance comes back itself, the caller's object, with zero steps: its
    numeric tests ran when the caller built it, under the caller's config.

    Raises TypeError unless guess is a QRPair (each corrector requires its
    own map's container), ValueError unless max_iters is a non-negative
    integer, ShapeError when the guess and a differ in dimension,
    NoConvergence after max_iters steps, ConvergedOutsideChart if the
    diagonal of r turns negative, and propagates SingularR from the solve.
    """
    return _correct(_MAPS["qr"], a, guess, cfg, max_iters)


def cholesky_newton_correct(
    a,
    guess: CholeskyFactor,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    max_iters: int = 20,
):
    """Newton-correct an approximate Cholesky factor toward the factorization
    of the symmetric positive definite matrix a.

    The residual is symmetrized before each solve, since roundoff breaks the
    exact symmetry the solver requires. Raises NotSymmetric when a is not
    symmetric within structural tolerance. As for qr_newton_correct, a guess
    already within tolerance comes back itself with zero steps.
    """
    return _correct(_MAPS["cholesky"], a, guess, cfg, max_iters)


def ldu_newton_correct(
    a,
    guess: LDUTriple,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    max_iters: int = 20,
):
    """Newton-correct an approximate unit-lower/diagonal/unit-upper triple
    toward the factorization of a. As for qr_newton_correct, a guess already
    within tolerance comes back itself with zero steps."""
    return _correct(_MAPS["ldu"], a, guess, cfg, max_iters)


def _sample(path: PathSpec, t: float, shape=None) -> tuple:
    a = validate_matrix(path.evaluate(t), f"a({t:.6g})")
    if shape is not None and a.shape != shape:
        raise ShapeError(f"a({t:.6g}) has shape {a.shape}, but a(0) has shape {shape}")
    return t, a


def _extrapolated(m: _FactorMap, history: list, t: float, cfg: ToleranceConfig):
    """The guess at t from the accepted samples (t_i, factor_i) in history:
    the Lagrange polynomial through them, taken per component, settled and
    vetted as a step's iterate is."""
    knots = [s for s, _ in history]
    weights = [math.prod((t - s) / (k - s) for s in knots if s != k) for k in knots]
    columns = zip(*(m.parts(fac) for _, fac in history))
    return _vetted(m, (sum(w * p for w, p in zip(weights, c)) for c in columns), cfg)


def _advance(m, path, cfg, history, prev, nxt, depth):
    """The factor at sample nxt = (t, a), reached from prev, the sample of
    the last factor in history, its worst iteration count and its residual.

    history holds the run's last accepted samples (t, factor), oldest first;
    each accepted sample joins it. Once it holds _HISTORY of them, their
    extrapolant is the guess, and the derivative step from the last factor
    runs only when that guess, or its correction, fails. A halving samples
    only its midpoint and restarts history at its left sample. A corrected
    factor that its certificate does not prove, and a failed step, get the
    exact domain test of nxt."""
    (t_prev, a_prev), (t_next, a_next) = prev, nxt
    corrected = None
    # an overflowed iterate is a failed step: _own refuses non-finite parts
    with np.errstate(over="ignore", invalid="ignore"):
        if len(history) == _HISTORY:
            try:
                guess = _extrapolated(m, history, t_next, cfg)
                corrected, spent = m.correct(a_next, guess, cfg)
            except _STEP_FAILURES:
                pass
        if corrected is None:
            try:
                guess = _step(m, history[-1][1], a_next - a_prev, cfg)
                corrected, spent = m.correct(a_next, guess, cfg)
            except _STEP_FAILURES:
                pass
    if corrected is not None:
        residual = hs_norm(a_next - corrected.product())
        if not m.certificate(a_next, corrected, residual, cfg, guess):
            m.domain(a_next, t_next, cfg)
        history.append((t_next, corrected))
        del history[:-_HISTORY]
        return corrected, spent, residual
    m.domain(a_next, t_next, cfg)
    if depth <= 0:
        raise NoConvergence(
            f"correction failed at t={t_next:.6g} after {_MAX_HALVINGS} step halvings"
        )
    del history[:-1]  # the halved interval starts from its left sample alone
    mid = _sample(path, 0.5 * (t_prev + t_next), a_prev.shape)
    _, it1, _ = _advance(m, path, cfg, history, prev, mid, depth - 1)
    corrected, it2, residual = _advance(m, path, cfg, history, mid, nxt, depth - 1)
    return corrected, max(it1, it2), residual


def _samples(m: _FactorMap, path: PathSpec, cfg: ToleranceConfig):
    """Yield (t, factor, iterations, residual, component norms) at each t =
    i / steps once accepted. It holds the history, a(0) and the last sample,
    so a consumer that drops each record tracks in memory flat in steps. A
    factor's held base is dropped once the next sample has been yielded: a
    halving restarts only from the latest sample, and the extrapolant reads
    only values, so a consumer that keeps every factor keeps one base."""
    _, a = prev = _sample(path, 0.0)
    try:  # at t = 0 the kernel is the corrector, and its refusal a failed step
        current = m.factor(a, cfg)
    except (NotInDomainP, NotSymmetric, NotPositiveSemiDefinite):
        m.domain(a, 0.0, cfg)
        raise
    residual, spent = hs_norm(a - current.product()), 0
    if not m.certificate(a, current, residual, cfg):
        m.domain(a, 0.0, cfg)
    history = [(0.0, current)]
    for i in range(path.steps + 1):
        if i:
            nxt = _sample(path, i / path.steps, a.shape)
            last = current
            current, spent, residual = _advance(m, path, cfg, history, prev, nxt, _MAX_HALVINGS)
            prev = nxt
        yield prev[0], current, spent, residual, [hs_norm(p) for p in m.parts(current)]
        if i:
            last._inverses = None


def _track(m: _FactorMap, path: PathSpec, cfg: ToleranceConfig) -> TrackReport:
    ts, factors, iters, residuals, norms = (list(c) for c in zip(*_samples(m, path, cfg)))
    return TrackReport(
        ts=ts,
        factors=factors,
        newton_iters=iters,
        factor_norms=[float(np.sqrt(sum(x**2 for x in n))) for n in norms],
        residuals=residuals,
        max_residual=max(residuals),
    )


def track_qr(path: PathSpec, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> TrackReport:
    """Track the orthogonal/upper-triangular factor pair of an invertible
    matrix family.

    The start is seeded by direct factorization; each subsequent sample is
    reached by a prediction plus Newton correction. The prediction is the
    quadratic through the last three accepted pairs, with q retracted onto
    the group, and a derivative-solve step from the last pair where fewer
    than three exist or that guess fails. On the invertible domain the factor
    path is unique, so direct factorization at any sample is a valid oracle
    for the tracked pair.

    Raises PathLeavesDomain when a sampled matrix is numerically singular,
    NoConvergence when a correction step fails even after halving.
    """
    return _track(_MAPS["qr"], path, cfg)


def track_cholesky(path: PathSpec, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> TrackReport:
    """Track the Cholesky factor of a symmetric positive definite family.

    Raises PathLeavesDomain when a sample loses symmetry or definiteness.
    """
    return _track(_MAPS["cholesky"], path, cfg)


def track_ldu(path: PathSpec, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> TrackReport:
    """Track the unit-lower/diagonal/unit-upper triple of a family staying
    inside the no-pivot elimination domain.

    factor_norms records the combined factor norm per sample, which is the
    quantity that blows up as the family approaches the domain boundary while
    the inputs themselves stay bounded.

    Raises PathLeavesDomain when a sampled matrix has a numerically zero
    leading pivot.
    """
    return _track(_MAPS["ldu"], path, cfg)
