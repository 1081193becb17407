"""Newton correction of approximate factorizations and predictor-corrector
tracking of factor paths along smooth matrix families.

Because each derivative is an isomorphism on the open factor domain, Newton's
method applies directly: solve the derivative equation for the residual, step,
and (for the orthogonal factor) retract back onto the group via the polar
factor. Tracking advances a factorization along a parametrized family with a
first-order prediction followed by Newton correction, halving the step (up to
four times per interval) when a correction fails.

The three maps differ only in their pieces (components, kernel, product,
derivative solve and apply, update, chart and domain tests), which one
private table holds per map; one step (solve, then update, for a prediction
and a Newton correction alike), one corrector and one tracker run from it,
and so do the CLI and the derivative check in verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

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
    _inverted_blocks,
    _substitute,
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
_STEP_FAILURES = (
    NoConvergence,
    ConvergedOutsideChart,
    ShapeError,
    SingularR,
    SingularL,
    SingularD,
    TooFarFromGroup,
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
        if float(np.max(np.abs(eig - 1.0))) > 0.5 + 1e-12:
            raise TooFarFromGroup("matrix is not within distance 0.5 of the orthogonal group")
    x = m
    for _ in range(60):
        if defect <= _scaled(cfg.structural_tol, x):
            return x
        x = x @ (1.5 * eye - 0.5 * gram)
        gram = x.T @ x
        defect = hs_norm(gram - eye)
    raise NoConvergence("polar retraction did not converge")


_EPS = float(np.finfo(np.float64).eps)


def _roundoff(n: int) -> float:
    # c n eps with room for the error bounds below, LAPACK's p(n) included
    return 4.0 * (n + 2) * _EPS


def _certified_above(h: np.ndarray, floor: float) -> bool:
    """Whether potrf proves every eigenvalue of the symmetric h above floor.

    Cholesky completing on h - shift I means h - shift I + E is positive
    definite for some E of 2-norm at most (n + 1) eps trace(h) (Higham, ASNA
    2nd ed., ch. 10: |E| <= (n + 1) eps |R^T| |R| to first order, and
    || |R^T| |R| ||_2 <= trace(R^T R)). The shift adds
    _roundoff(n) trace(h) to floor: that covers E, the rounding of the shift
    and an error of up to n eps trace(h) in forming h = a^T a. A failure
    proves nothing, and the caller runs its exact test.
    """
    n = h.shape[0]
    shift = floor + _roundoff(n) * abs(float(np.trace(h)))
    if not np.isfinite(shift):  # an overflowed ||a|| certifies nothing
        return False
    try:
        l = np.linalg.cholesky(h - shift * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    # potrf completes on NaN entries, and a NaN anywhere reaches the diagonal
    return bool(np.all(np.isfinite(np.diagonal(l))))


# Each domain test tries a cheap certificate before its exact test. QR and
# Cholesky samples get a shifted Cholesky certificate before the exact
# svd/eigvalsh test. Its floor lies _roundoff(n) (1 + ||a||) above the
# threshold, more than the error of the svd or eigvalsh, so a certified sample
# also passes the exact test: the verdict and its t are always the exact
# test's. At n = 128 the QR certificate takes ~0.5 ms against ~2.3 ms for the
# svd, and the Cholesky one ~0.5 ms against ~0.8 ms for eigvalsh.
#
# An LDU sample is certified after its correction instead, by the corrected
# triple: _ldu_certified bounds how far its d can lie from the elimination's
# pivots and proves each of them above the threshold. Only a triple it does
# not prove, or a step that failed, pays for the exact test, an elimination
# by ldu_factor (~2 ms at n = 128), and its verdict is final. The seeding
# ldu_factor decides t = 0. The certificate takes ~0.6-1 ms at n = 128,
# most of it inverting l and u by blocks, and about as long as the
# elimination at n = 8 (timeit, one BLAS thread).


def _qr_domain(a: np.ndarray, t: float, cfg: ToleranceConfig) -> None:
    floor = _scaled(cfg.singularity_tol + _roundoff(len(a)), a)
    if _certified_above(a.T @ a, floor * floor):
        return
    smallest = float(np.linalg.svd(a, compute_uv=False)[-1])
    if smallest <= _scaled(cfg.singularity_tol, a):
        raise PathLeavesDomain(t, f"a(t) numerically singular at t={t:.6g}")


def _cholesky_domain(a: np.ndarray, t: float, cfg: ToleranceConfig) -> None:
    if not _symmetric(a, cfg):
        raise PathLeavesDomain(t, f"a(t) not symmetric at t={t:.6g}")
    sym = 0.5 * (a + a.T)
    if _certified_above(sym, _scaled(cfg.singularity_tol + _roundoff(len(a)), a)):
        return
    smallest = float(np.linalg.eigvalsh(sym)[0])
    if smallest <= _scaled(cfg.singularity_tol, a):
        raise PathLeavesDomain(t, f"a(t) not positive definite at t={t:.6g}")


def _zero_pivot(t: float) -> PathLeavesDomain:
    return PathLeavesDomain(t, f"a(t) has a numerically zero leading pivot at t={t:.6g}")


def _ldu_domain(a: np.ndarray, t: float, cfg: ToleranceConfig) -> None:
    if not in_domain_p(a, cfg):
        raise _zero_pivot(t)


def _inverse_norm(t: np.ndarray) -> float:
    """||t^-1||_F of a lower triangle t, inverted by solve_triangular's block
    substitution against I (inf or nan once it overflows)."""
    return hs_norm(_substitute(t, np.eye(len(t)), _inverted_blocks(t)))


def _ldu_certified(a: np.ndarray, fac: LDUTriple, cfg: ToleranceConfig) -> bool:
    """Whether fac, as ldu_newton_correct returned it for a under cfg, proves
    every pivot of ldu_factor's elimination of a above its threshold.

    With x = l^-1 (a - l d u) u^-1, a = l (d + x) u, and the leading blocks
    of a and of d + x have equal determinants, so a's pivots are those of
    d + x. Pivot k of d + x is d_k + x_kk - x_k,<k (d + x)_<k^-1 x_<k,k, and
    while ||x||_2 <= rho <= min |d| / 2 the last term is at most
    rho^2 / (min |d| - rho) <= rho: each pivot lies within 2 rho of its d_k.
    The corrector left a residual of at most its tolerance, so
    rho = ||l^-1|| ||u^-1|| (tolerance + rounding) bounds ||x||. The rounding
    term covers the residual's own rounding and the backward error of the
    elimination, whose pivots are the exact pivots of a nearby matrix: to
    first order the two together stay below _roundoff(n) ||l|| ||d||_2 ||u||
    (Higham, ASNA 2nd ed., ch. 9), and a further ||l^-1|| ||u^-1|| covers
    the elimination's inverted block triangles (ch. 13). Frobenius norms
    bound the 2-norms.
    """
    l, u = fac.l, fac.u
    dmag = np.abs(np.diagonal(fac.d))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow proves nothing
        spread = _inverse_norm(l) * _inverse_norm(u.T)
        rounding = _roundoff(len(a)) * spread * hs_norm(l) * float(np.max(dmag)) * hs_norm(u)
        rho = spread * (_scaled(cfg.structural_tol, a) + rounding)
        gap = float(np.min(dmag)) - 2.0 * rho
    return bool(np.isfinite(gap)) and gap > _scaled(cfg.singularity_tol, a)


@dataclass(frozen=True)
class _FactorMap:
    """One factorization map, as the corrector, the tracker, the CLI and the
    derivative check use it. Functions take the factor components as
    separate arrays, in the order of the container's __slots__ (tangents in
    tangent_names)."""

    tangent_names: Tuple[str, ...]
    container: type
    symmetric: bool  # products are symmetric: inputs must be, and are symmetrized with residuals
    factor: Callable  # (a, cfg) -> container
    product: Callable  # (*parts) -> matrix
    solve: Callable  # (*parts, e, cfg) -> tangent
    apply: Callable  # (*parts, tangent, cfg) -> matrix
    tangent: Callable  # tangent -> its components, in tangent_names order
    update: Callable  # (*parts, tangent, cfg) -> parts moved along the tangent
    off_chart: Callable  # (*parts, cfg) -> whether a corrector iterate left the chart
    chart_error: str
    domain: Callable  # (a, t, cfg) -> None, or raises PathLeavesDomain
    correct: Callable  # (a, guess, cfg) -> (container, iterations)
    # (a, corrected container, cfg) -> whether the correction at a proves a
    # in the domain. None: domain tests each sample before its correction
    certificate: Optional[Callable] = None

    def parts(self, fac) -> tuple:
        return tuple(getattr(fac, c) for c in self.container.__slots__)


# perfbench/tracing.py wraps the kernels, solves and correctors by replacing
# them under their module-level names, so every field calls them through that
# name when it runs. A field holding the function object itself would bypass
# the wrapper, and the traced counts would read 0.
_MAPS = {
    "qr": _FactorMap(
        tangent_names=("u", "v"),
        container=QRPair,
        symmetric=False,
        factor=lambda a, cfg: qr_factor(a, cfg),
        product=lambda q, r: q @ r,
        solve=lambda q, r, e, cfg: qr_derivative_solve(q, r, e, cfg),
        apply=lambda q, r, tan, cfg: qr_derivative_apply(q, r, tan, cfg),
        tangent=lambda tan: (tan.u, tan.v),
        update=lambda q, r, tan, cfg: (retract_orthogonal(q + tan.u, cfg), r + tan.v),
        off_chart=lambda q, r, cfg: np.any(np.diag(r) < 0.0),
        chart_error="diagonal of r went negative",
        domain=_qr_domain,
        correct=lambda a, guess, cfg: qr_newton_correct(a, guess, cfg),
    ),
    "cholesky": _FactorMap(
        tangent_names=("v",),
        container=CholeskyFactor,
        symmetric=True,
        factor=lambda a, cfg: cholesky_factor(a, cfg),
        product=lambda l: l @ l.T,
        solve=lambda l, e, cfg: cholesky_derivative_solve(l, e, cfg),
        apply=lambda l, v, cfg: cholesky_derivative_apply(l, v),
        tangent=lambda v: (v,),
        update=lambda l, v, cfg: (l + v,),
        off_chart=lambda l, cfg: np.any(np.diag(l) < 0.0),
        chart_error="diagonal of l went negative",
        domain=_cholesky_domain,
        correct=lambda a, guess, cfg: cholesky_newton_correct(a, guess, cfg),
    ),
    "ldu": _FactorMap(
        tangent_names=("a", "s", "b"),
        container=LDUTriple,
        symmetric=False,
        factor=lambda a, cfg: ldu_factor(a, cfg),
        product=lambda l, d, u: (l * np.diagonal(d)) @ u,
        solve=lambda l, d, u, e, cfg: ldu_derivative_solve(l, d, u, e, cfg),
        apply=lambda l, d, u, tan, cfg: ldu_derivative_apply(l, d, u, tan),
        tangent=lambda tan: (tan.a, tan.s, tan.b),
        update=lambda l, d, u, tan, cfg: (l + tan.a, d + tan.s, u + tan.b),
        off_chart=lambda l, d, u, cfg: _singular_d(d, cfg),
        chart_error="diagonal factor lost invertibility",
        domain=_ldu_domain,
        correct=lambda a, guess, cfg: ldu_newton_correct(a, guess, cfg),
        certificate=_ldu_certified,
    ),
}


def _step(m: _FactorMap, parts: tuple, e: np.ndarray, cfg: ToleranceConfig):
    """One step of a prediction or a Newton correction: solve the derivative
    equation for e at parts, move the parts along the tangent, and refuse an
    iterate that left the chart. Returns the tangent and the new parts."""
    if m.symmetric:  # roundoff breaks the exact symmetry the solve requires
        e = 0.5 * (e + e.T)
    tan = m.solve(*parts, e, cfg)
    parts = m.update(*parts, tan, cfg)
    if m.off_chart(*parts, cfg):
        raise ConvergedOutsideChart(m.chart_error)
    return tan, parts


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
    parts = m.parts(guess)
    tol = _scaled(cfg.structural_tol, a)
    for it in range(max_iters + 1):
        residual = a - m.product(*parts)
        if hs_norm(residual) <= tol:
            # parts are _step's, vetted as in _advance, or the guess's own
            return (m.container._own(*parts) if it else m.container(*parts, cfg)), it
        if it == max_iters:
            break
        # tan stays bound until the next solve: freeing it within each step let
        # malloc trim and re-fault the heap, ~40% more page faults at n=128
        tan, parts = _step(m, parts, residual, cfg)
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
    corrected pair and the number of steps taken; a guess already within
    tolerance comes back unchanged with zero steps.

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
    symmetric within structural tolerance.
    """
    return _correct(_MAPS["cholesky"], a, guess, cfg, max_iters)


def ldu_newton_correct(
    a,
    guess: LDUTriple,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    max_iters: int = 20,
):
    """Newton-correct an approximate unit-lower/diagonal/unit-upper triple
    toward the factorization of a."""
    return _correct(_MAPS["ldu"], a, guess, cfg, max_iters)


def _sample(m, path: PathSpec, t: float, cfg: ToleranceConfig, shape=None) -> tuple:
    a = validate_matrix(path.evaluate(t), f"a({t:.6g})")
    if shape is not None and a.shape != shape:
        raise ShapeError(f"a({t:.6g}) has shape {a.shape}, but a(0) has shape {shape}")
    if m.certificate is None:
        m.domain(a, t, cfg)
    return t, a


def _advance(m, path, cfg, current, prev, nxt, depth):
    """The factor at sample nxt = (t, a) from current at prev, and its worst
    iteration count. A halving samples only its midpoint. Under a
    certificate, a corrected factor it does not certify, and a failed step,
    get the exact domain test of nxt."""
    (t_prev, a_prev), (t_next, a_next) = prev, nxt
    try:
        # tan stays bound through the correction, as the corrector's does
        tan, guess = _step(m, m.parts(current), a_next - a_prev, cfg)
        # _step's chart test ran the container's numeric test or a stricter
        # one, and retract_orthogonal's last Gram test is QRPair's, bit for bit
        guess = m.container._own(*guess)
        corrected, spent = m.correct(a_next, guess, cfg)
    except _STEP_FAILURES:
        corrected = None
    if m.certificate is not None:
        if corrected is None or not m.certificate(a_next, corrected, cfg):
            m.domain(a_next, t_next, cfg)
    if corrected is not None:
        return corrected, spent
    if depth <= 0:
        raise NoConvergence(
            f"correction failed at t={t_next:.6g} after {_MAX_HALVINGS} step halvings"
        )
    mid = _sample(m, path, 0.5 * (t_prev + t_next), cfg, a_prev.shape)
    current, it1 = _advance(m, path, cfg, current, prev, mid, depth - 1)
    corrected, it2 = _advance(m, path, cfg, current, mid, nxt, depth - 1)
    return corrected, max(it1, it2)


def _track(m: _FactorMap, path: PathSpec, cfg: ToleranceConfig) -> TrackReport:
    ts = [i / path.steps for i in range(path.steps + 1)]
    prev = _sample(m, path, ts[0], cfg)
    try:
        current = m.factor(prev[1], cfg)
    except NotInDomainP:  # only the LDU kernel raises it
        raise _zero_pivot(ts[0]) from None
    factors = [current]
    iters = [0]
    residuals = [hs_norm(prev[1] - current.product())]
    for t in ts[1:]:
        nxt = _sample(m, path, t, cfg, prev[1].shape)
        current, spent = _advance(m, path, cfg, current, prev, nxt, _MAX_HALVINGS)
        prev = nxt  # frees the last sample before the residual's temporaries
        factors.append(current)
        iters.append(spent)
        residuals.append(hs_norm(prev[1] - current.product()))
    return TrackReport(
        ts=ts,
        factors=factors,
        newton_iters=iters,
        factor_norms=[float(np.sqrt(sum(hs_norm(p) ** 2 for p in m.parts(f)))) for f in factors],
        residuals=residuals,
        max_residual=max(residuals),
    )


def track_qr(path: PathSpec, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> TrackReport:
    """Track the orthogonal/upper-triangular factor pair of an invertible
    matrix family.

    The start is seeded by direct factorization; each subsequent sample is
    reached by a derivative-solve prediction plus Newton correction. On the
    invertible domain the factor path is unique, so direct factorization at
    any sample is a valid oracle for the tracked pair.

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
