"""Named, seeded, reportable checks covering every contract of the three
factorization maps and their derivatives.

Each check builds its own inputs from its own seed, measures clause
violations against that clause's tolerance, and reports the worst violation
rescaled to one headline tolerance: a value of x under clause tolerance c
contributes x * headline / c, so `worst_violation <= headline` holds exactly
when every clause met its own tolerance. Boolean clauses (an error raised or
not raised as expected) land at twice the headline on failure. Checks never
throw on mathematical failure; they report it.

Coverage map (one clause family per check):

* qr_existence_uniqueness  -- every square matrix factors, with orthogonal q
  and non-negative diagonal of r; on invertible input the factorization is
  unique, tested by agreement of two independent kernels.
* qr_properness_identity   -- the norm identity ||q r|| = ||r||, and its
  divergence consequence: growing r forces a growing product.
* cholesky_theorem         -- existence on SPD input, positive diagonal,
  uniqueness under refactoring, and the trace lower bound
  ||l l^T||^2 >= tr(l l^T)^2 / n that makes the product map proper.
* ldu_domain_characterization -- elimination succeeds exactly when all
  leading principal determinants are numerically nonzero, and those
  determinants equal the running products of d's diagonal.
* ldu_nonproperness        -- a bounded family of inputs whose factors blow
  up like 1/eps, witnessing that bounded products do not bound the factors.
* derivative_isomorphisms  -- solve inverts apply, is linear, vanishes only
  at zero, and matches central finite differences of the factorizations.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    _require_count,
    hs_norm,
    orthogonality_defect,
)
from .errors import NotInDomainP
from .factor import (
    cholesky_factor,
    cond_estimate,
    in_domain_p,
    ldu_factor,
    leading_minor_dets,
    qr_factor,
    qr_factor_mgs,
)
from .newton import _MAPS

__all__ = [
    "CheckResult",
    "check_qr_existence_uniqueness",
    "check_qr_properness_identity",
    "check_cholesky_theorem",
    "check_ldu_domain_characterization",
    "check_ldu_nonproperness",
    "check_derivative_isomorphisms",
    "run_all",
    "results_to_json",
]

DEFAULT_EPS_LIST = (1e-1, 1e-2, 1e-3, 1e-4)
FD_STEP = 1e-6
_IN_P_GATE = ToleranceConfig(singularity_tol=1e-2)  # ldu_factor reads no other field


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check: passed iff worst_violation is at or below the
    check's headline tolerance (stated in detail)."""

    name: str
    passed: bool
    trials: int
    worst_violation: float
    seed: int
    detail: str


class _Violations:
    """Worst clause violation, rescaled to a single headline tolerance."""

    def __init__(self, headline: float):
        self.headline = headline
        self.worst = 0.0

    def observe(self, value: float, clause_tol: float) -> None:
        self.worst = max(self.worst, abs(float(value)) * (self.headline / clause_tol))

    def require(self, ok: bool) -> None:
        if not ok:
            self.worst = max(self.worst, 2.0 * self.headline)

    def result(self, name: str, trials: int, seed: int, detail: str) -> CheckResult:
        return CheckResult(
            name=name,
            passed=self.worst <= self.headline,
            trials=trials,
            worst_violation=self.worst,
            seed=seed,
            detail=detail,
        )


def _random_square(rng, n: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, (n, n))


def _random_rank_deficient(rng, n: int) -> np.ndarray:
    k = int(rng.integers(1, n))
    return rng.uniform(-1.0, 1.0, (n, k)) @ rng.uniform(-1.0, 1.0, (k, n))


def _random_invertible(rng, n: int) -> np.ndarray:
    while True:
        a = _random_square(rng, n)
        if float(np.linalg.svd(a, compute_uv=False)[-1]) > 1e-2 * (1.0 + hs_norm(a)):
            return a


def _random_spd(rng, n: int) -> np.ndarray:
    m = _random_square(rng, n)
    s = m.T @ m
    return 0.5 * (s + s.T) + 1e-3 * np.eye(n)


def _random_in_p(rng, n: int) -> np.ndarray:
    while True:
        a = _random_square(rng, n)
        if in_domain_p(a, _IN_P_GATE):
            return a


def _random_direction(rng, n: int, symmetric: bool) -> np.ndarray:
    e = _random_square(rng, n)
    if symmetric:
        e = 0.5 * (e + e.T)
    return e / hs_norm(e)


# Per map, for check_derivative_isomorphisms: a base-point sampler inside the
# map's domain, the condition estimate of its factors, and the power of that
# estimate that scales the round-trip clause.
_DERIVATIVE_BASES = {
    "qr": (_random_invertible, lambda q, r: cond_estimate(r), 1),
    "cholesky": (_random_spd, lambda l: cond_estimate(l), 2),
    "ldu": (
        _random_in_p, lambda l, d, u: cond_estimate(l) * cond_estimate(d) * cond_estimate(u), 1
    ),
}


def _seeded(trials, n_max, seed: int, least_n: int, headline: float):
    """trials, then n_max (at least least_n), validated; the generator; the log."""
    trials = _require_count(trials, "trials", least=1)
    n_max = _require_count(n_max, "n_max", least=least_n)
    return trials, n_max, np.random.default_rng(seed), _Violations(headline)


def check_qr_existence_uniqueness(
    trials: int = 200,
    n_max: int = 20,
    seed: int = 42,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> CheckResult:
    """Every square matrix factors into orthogonal times upper triangular
    with non-negative diagonal (rank-deficient inputs included); invertible
    inputs factor uniquely, so the Householder and Gram-Schmidt kernels must
    agree entrywise."""
    trials, n_max, rng, log = _seeded(trials, n_max, seed, least_n=1, headline=1e-8)
    deficient = 0
    for _ in range(trials):
        n = int(rng.integers(1, n_max + 1))
        rank_deficient = n >= 2 and rng.random() < 0.25
        a = _random_rank_deficient(rng, n) if rank_deficient else _random_square(rng, n)
        pair = qr_factor(a, cfg)
        log.observe(hs_norm(pair.product() - a) / (1.0 + hs_norm(a)), cfg.structural_tol)
        log.observe(orthogonality_defect(pair.q) / (1.0 + hs_norm(pair.q)), cfg.structural_tol)
        log.observe(
            max(0.0, -float(pair.r.diagonal().min())) / (1.0 + hs_norm(pair.r)),
            cfg.structural_tol,
        )
        if rank_deficient:
            deficient += 1
            continue
        smallest = float(np.linalg.svd(a, compute_uv=False)[-1])
        if smallest <= 1e-8 * (1.0 + hs_norm(a)):
            continue  # too close to singular for the uniqueness clause
        other = qr_factor_mgs(a, cfg)
        agree = max(hs_norm(pair.q - other.q), hs_norm(pair.r - other.r))
        log.observe(agree / ((1.0 + hs_norm(a)) * cond_estimate(pair.r)), 1e-9)
    return log.result(
        "qr_existence_uniqueness",
        trials,
        seed,
        f"{trials} trials ({deficient} rank-deficient); clauses: reconstruction, "
        "orthogonality and diagonal sign at structural_tol (scaled), kernel "
        "agreement at 1e-9 (scaled by condition estimate); headline 1e-8",
    )


def check_qr_properness_identity(
    trials: int = 200,
    n_max: int = 20,
    seed: int = 7,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> CheckResult:
    """Multiplying an upper-triangular factor by an orthogonal one preserves
    the Hilbert-Schmidt norm, so a divergent r forces a divergent product:
    the mechanism that makes the product map proper."""
    trials, n_max, rng, log = _seeded(trials, n_max, seed, least_n=1, headline=1e-12)
    for _ in range(trials):
        n = int(rng.integers(1, n_max + 1))
        pair = qr_factor(_random_square(rng, n), cfg)
        gap = abs(hs_norm(pair.q @ pair.r) - hs_norm(pair.r))
        log.observe(gap / (1.0 + hs_norm(pair.r)), 1e-12)
    # divergence probe: r_k = k * I must give strictly increasing ||q r_k||
    n = min(6, n_max)
    q = qr_factor(_random_square(rng, n), cfg).q
    norms = [hs_norm(q @ (k * np.eye(n))) for k in range(1, 11)]
    for lo, hi in zip(norms, norms[1:]):
        log.require(hi > lo)
    return log.result(
        "qr_properness_identity",
        trials,
        seed,
        f"{trials} trials; | ||q r|| - ||r|| | <= 1e-12 * (1 + ||r||), plus a "
        "strictly-increasing norm probe over r_k = k*I; headline 1e-12",
    )


def check_cholesky_theorem(
    trials: int = 200,
    n_max: int = 20,
    seed: int = 11,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> CheckResult:
    """Symmetric positive definite matrices factor as l l^T with strictly
    positive diagonal, uniquely (refactoring the product reproduces l), and
    the product satisfies ||l l^T||^2 >= tr(l l^T)^2 / n, the bound that
    makes the product map proper."""
    trials, n_max, rng, log = _seeded(trials, n_max, seed, least_n=1, headline=1e-8)
    for _ in range(trials):
        n = int(rng.integers(1, n_max + 1))
        a = _random_spd(rng, n)
        fac = cholesky_factor(a, cfg)
        prod = fac.product()
        log.observe(hs_norm(prod - a) / (1.0 + hs_norm(a)), cfg.structural_tol)
        log.require(float(fac.l.diagonal().min()) > 0.0)
        refac = cholesky_factor(prod, cfg)
        uniq = hs_norm(refac.l - fac.l)
        log.observe(uniq / ((1.0 + hs_norm(fac.l)) * cond_estimate(fac.l) ** 2), 1e-9)
        slack = (hs_norm(prod) ** 2) - (float(np.trace(prod)) ** 2) / n
        log.observe(max(0.0, -slack), 1e-10)
    return log.result(
        "cholesky_theorem",
        trials,
        seed,
        f"{trials} SPD trials (m^T m + 1e-3 I); clauses: reconstruction at "
        "structural_tol, strictly positive diagonal, refactor uniqueness at 1e-9 "
        "(scaled), trace bound with 1e-10 slack; headline 1e-8",
    )


def check_ldu_domain_characterization(
    trials: int = 200,
    n_max: int = 20,
    seed: int = 13,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> CheckResult:
    """No-pivot elimination succeeds exactly when every leading principal
    determinant is numerically nonzero, and on success the k-th leading
    determinant equals the product of the first k diagonal entries of d."""
    trials, n_max, rng, log = _seeded(trials, n_max, seed, least_n=2, headline=1e-8)
    for _ in range(trials):
        n = int(rng.integers(1, n_max + 1))
        a = _random_square(rng, n)
        dets = leading_minor_dets(a)
        member = bool((np.abs(dets) > cfg.singularity_tol * (1.0 + hs_norm(a))).all())
        try:
            fac = ldu_factor(a, cfg)
        except NotInDomainP:
            fac = None
        log.require((fac is not None) == member)
        if fac is None or not member:
            continue
        # 1e-10 rather than structural_tol: unpivoted elimination amplifies
        # roundoff by the pivot growth factor on unconstrained random draws
        log.observe(hs_norm(fac.product() - a) / (1.0 + hs_norm(a)), 1e-10)
        ladder = np.cumprod(fac.d.diagonal())
        for dk, pk in zip(dets, ladder):
            log.observe(abs(dk - pk) / max(abs(dk), abs(pk)), 1e-8)
    boundary = 20
    for i in range(boundary):
        n = int(rng.integers(2, n_max + 1))
        a = _random_square(rng, n)
        if i % 2 == 0:
            a[0, 0] = 0.0  # first leading determinant exactly zero
            expect_k = 1
        else:
            a[1, :] = a[0, :]  # second leading determinant exactly zero
            expect_k = 2
        try:
            ldu_factor(a, cfg)
            log.require(False)
        except NotInDomainP as exc:
            log.require(exc.k == expect_k)
        log.require(not in_domain_p(a, cfg))
    return log.result(
        "ldu_domain_characterization",
        trials + boundary,
        seed,
        f"{trials} random trials plus {boundary} constructed boundary cases; "
        "success iff all leading determinants clear singularity_tol (scaled), "
        "determinant ladder vs cumprod of diag(d) at 1e-8 relative; headline 1e-8",
    )


def check_ldu_nonproperness(
    eps_list=DEFAULT_EPS_LIST,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> CheckResult:
    """The family [[eps, 1], [1, 0]] stays bounded while its factors blow up
    like 1/eps: ||l|| * eps stays near 1 and d[1][1] approaches -1/eps, so
    bounded products do not bound the factors."""
    log = _Violations(headline=1e-6)
    eps_list = list(eps_list)
    _require_count(len(eps_list), "len(eps_list)", 1)
    for eps in eps_list:
        a = np.array([[eps, 1.0], [1.0, 0.0]])
        try:
            fac = ldu_factor(a, cfg)
        except NotInDomainP:  # eps at or below the pivot threshold
            log.require(False)
            continue
        log.require(hs_norm(a) <= np.sqrt(2.0 + eps * eps) + 1e-12)
        d22 = float(fac.d[1, 1])
        log.observe(abs(d22 + 1.0 / eps), 1e-6 / eps)
        if eps <= 1e-2:
            log.observe(abs(hs_norm(fac.l) * eps - 1.0), 0.1)
    return log.result(
        "ldu_nonproperness",
        len(eps_list),
        0,
        f"eps values {eps_list} (deterministic, no randomness); bounded input "
        "norm, |d22 + 1/eps| <= 1e-6/eps, and ||l|| * eps within 0.1 of 1 for "
        "eps <= 1e-2; headline 1e-6",
    )


def check_derivative_isomorphisms(
    trials: int = 100,
    n_max: int = 10,
    seed: int = 3,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> CheckResult:
    """At interior base points of all three maps, the derivative solve
    inverts the derivative apply, is linear, vanishes exactly at zero, and
    matches central finite differences of the factorization itself."""
    trials, n_max, rng, log = _seeded(trials, n_max, seed, least_n=2, headline=5e-5)
    h = FD_STEP
    for _ in range(trials):
        n = int(rng.integers(2, n_max + 1))
        for kind, m in _MAPS.items():
            sample, cond_of, rt_power = _DERIVATIVE_BASES[kind]
            a = sample(rng, n)
            base = m.parts(m.factor(a, cfg))
            cond = cond_of(*base)
            e = _random_direction(rng, n, m.symmetric)
            tan = m.solve(*base, e, cfg)
            rt = hs_norm(m.apply(*base, tan, cfg) - e)
            log.observe(rt / ((1.0 + hs_norm(e)) * cond ** rt_power), 1e-10)
            e2 = _random_direction(rng, n, m.symmetric)
            alpha, beta = rng.uniform(-2.0, 2.0, 2)
            t1 = m.tangent(tan)
            t2 = m.tangent(m.solve(*base, e2, cfg))
            t3 = m.tangent(m.solve(*base, alpha * e + beta * e2, cfg))
            lin = max(hs_norm(z - (alpha * x + beta * y)) for x, y, z in zip(t1, t2, t3))
            scale = 1.0  # plain left-to-right adds: sum() compensates on Python 3.12+
            for z in t3:
                scale += hs_norm(z)
            log.observe(lin / scale, 1e-10)
            t0 = m.tangent(m.solve(*base, np.zeros((n, n)), cfg))
            log.require(not any(z.any() for z in t0))
            plus = m.parts(m.factor(a + h * e, cfg))
            minus = m.parts(m.factor(a - h * e, cfg))
            fd = max(hs_norm((p - q) / (2.0 * h) - x) for p, q, x in zip(plus, minus, t1))
            log.observe(fd, 5e-5 * cond ** 2)

    return log.result(
        "derivative_isomorphisms",
        trials,
        seed,
        f"{trials} base points per map, n <= {n_max}; round trip at 1e-10 "
        "(scaled by condition estimate), linearity at 1e-10 relative, exact "
        "zero at zero, central finite differences at 5e-5 * cond^2 with "
        f"step {h:g}; headline 5e-5",
    )


def run_all(cfg: ToleranceConfig = DEFAULT_TOLERANCES, seed: int = 0) -> list[CheckResult]:
    """Run every check with its documented default trial counts.

    Per-check seeds are split deterministically from the master seed, so
    identical master seeds reproduce identical results bit for bit. Check
    failures are reported in the results, never raised.
    """
    master = np.random.default_rng(seed)
    seeds = [int(s) for s in master.integers(0, 2**63, size=6)]
    return [
        check_qr_existence_uniqueness(seed=seeds[0], cfg=cfg),
        check_qr_properness_identity(seed=seeds[1], cfg=cfg),
        check_cholesky_theorem(seed=seeds[2], cfg=cfg),
        check_ldu_domain_characterization(seed=seeds[3], cfg=cfg),
        check_ldu_nonproperness(cfg=cfg),
        check_derivative_isomorphisms(seed=seeds[5], cfg=cfg),
    ]


def results_to_json(results: list[CheckResult]) -> str:
    """Serialize check results to a deterministic JSON report."""
    return json.dumps([asdict(r) for r in results], indent=2, sort_keys=True) + "\n"
