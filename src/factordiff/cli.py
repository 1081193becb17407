"""Command-line front door: factor matrices from files, solve factor
sensitivities, track factor paths along matrix families, and run the
verification suite.

Exit codes are stable and scriptable:
  0  success
  1  I/O or parse failure
  2  mathematical domain refusal (not symmetric / not PSD / singular pivot /
     path leaves domain)
  3  numerical failure (no convergence, residual above bound)
  4  verification suite reported a failing check
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core import DEFAULT_TOLERANCES, hs_norm
from .errors import (
    ConvergedOutsideChart,
    FactorizationError,
    NoConvergence,
    PathLeavesDomain,
)
from .factor import cholesky_factor, ldu_factor, qr_factor
from .frechet import (
    cholesky_derivative_apply,
    cholesky_derivative_solve,
    ldu_derivative_apply,
    ldu_derivative_solve,
    qr_derivative_apply,
    qr_derivative_solve,
)
from .matrixio import _FMT, load_matrix, save_matrix
from .newton import PathSpec, track_cholesky, track_ldu, track_qr
from .verify import results_to_json, run_all

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


def _write_components(prefix: str, fmt: str, components: dict) -> None:
    ext = "json" if fmt == "json" else "csv"
    for name, mat in components.items():
        save_matrix(f"{prefix}_{name}.{ext}", mat, fmt)


def _cmd_factor(args) -> int:
    a = load_matrix(args.input, args.format)
    if args.kind == "qr":
        pair = qr_factor(a)
        components = {"q": pair.q, "r": pair.r}
    elif args.kind == "cholesky":
        components = {"l": cholesky_factor(a).l}
    else:
        fac = ldu_factor(a)
        components = {"l": fac.l, "d": fac.d, "u": fac.u}
    _write_components(args.output, args.format, components)
    return EXIT_OK


def _cmd_derivative(args) -> int:
    a = load_matrix(args.input, args.format)
    e = load_matrix(args.perturbation, args.format)
    if args.kind == "qr":
        pair = qr_factor(a)
        tan = qr_derivative_solve(pair.q, pair.r, e)
        recombined = qr_derivative_apply(pair.q, pair.r, tan)
        components = {"u": tan.u, "v": tan.v}
    elif args.kind == "cholesky":
        fac = cholesky_factor(a)
        v = cholesky_derivative_solve(fac.l, e)
        recombined = cholesky_derivative_apply(fac.l, v)
        components = {"v": v}
    else:
        fac = ldu_factor(a)
        tan = ldu_derivative_solve(fac.l, fac.d, fac.u, e)
        recombined = ldu_derivative_apply(fac.l, fac.d, fac.u, tan)
        components = {"a": tan.a, "s": tan.s, "b": tan.b}
    residual = hs_norm(recombined - e)
    _write_components(args.output, args.format, components)
    with open(f"{args.output}_residual.txt", "w", encoding="utf-8") as fh:
        fh.write(_FMT.format(residual) + "\n")
    print(f"residual={_FMT.format(residual)}")
    if residual > 1e-8 * (1.0 + hs_norm(e)):
        print("residual exceeds its bound", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _build_path(args) -> PathSpec:
    samples = [load_matrix(p, args.format) for p in args.input]
    if args.family == "linear":
        if len(samples) != 2:
            raise ValueError("linear family needs exactly two matrix files (start, end)")
        a0, a1 = samples
        if a0.shape != a1.shape:
            raise ValueError("family endpoints must have the same dimension")

        def evaluate(t: float) -> np.ndarray:
            return (1.0 - t) * a0 + t * a1

        return PathSpec(evaluate=evaluate, steps=args.steps, description="linear family")
    if len(samples) < 2:
        raise ValueError("custom-samples family needs at least two matrix files")
    if any(s.shape != samples[0].shape for s in samples):
        raise ValueError("family samples must share one dimension")

    def evaluate(t: float) -> np.ndarray:
        pos = t * (len(samples) - 1)
        i = min(int(pos), len(samples) - 2)
        w = pos - i
        return (1.0 - w) * samples[i] + w * samples[i + 1]

    return PathSpec(evaluate=evaluate, steps=args.steps, description="piecewise-linear samples")


def _cmd_track(args) -> int:
    path = _build_path(args)
    tracker = {"qr": track_qr, "cholesky": track_cholesky, "ldu": track_ldu}[args.kind]
    report = tracker(path)
    norm_columns = {"qr": ("q", "r"), "cholesky": ("l",), "ldu": ("l", "d", "u")}[args.kind]
    lines = ["t," + ",".join(f"norm_{c}" for c in norm_columns) + ",newton_iters,residual"]
    for t, fac, iters, residual in zip(
        report.ts, report.factors, report.newton_iters, report.residuals
    ):
        mats = [getattr(fac, c) for c in norm_columns]
        cells = [_FMT.format(t)]
        cells += [_FMT.format(hs_norm(m)) for m in mats]
        cells.append(str(iters))
        cells.append(_FMT.format(residual))
        lines.append(",".join(cells))
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_all(DEFAULT_TOLERANCES, seed=args.seed)
    payload = results_to_json(results)
    with open(args.report, "w", encoding="utf-8") as fh:
        fh.write(payload)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name} (worst_violation={res.worst_violation:.3g})")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factordiff",
        description="Dense matrix factorizations, their derivatives, and factor-path tracking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="factor a matrix read from a file")
    p_factor.add_argument("--kind", required=True, choices=["qr", "cholesky", "ldu"])
    p_factor.add_argument("--input", required=True, help="matrix file")
    p_factor.add_argument("--output", required=True, help="output prefix for factor files")
    p_factor.add_argument("--format", default="csv", choices=["csv", "json"])
    p_factor.set_defaults(handler=_cmd_factor)

    p_deriv = sub.add_parser(
        "derivative", help="solve the factor sensitivity for a perturbation"
    )
    p_deriv.add_argument("--kind", required=True, choices=["qr", "cholesky", "ldu"])
    p_deriv.add_argument("--input", required=True, help="base matrix file")
    p_deriv.add_argument("--perturbation", required=True, help="perturbation matrix file")
    p_deriv.add_argument("--output", required=True, help="output prefix for tangent files")
    p_deriv.add_argument("--format", default="csv", choices=["csv", "json"])
    p_deriv.set_defaults(handler=_cmd_derivative)

    p_track = sub.add_parser("track", help="track factors along a matrix family")
    p_track.add_argument("--kind", required=True, choices=["qr", "cholesky", "ldu"])
    p_track.add_argument(
        "--family", default="linear", choices=["linear", "custom-samples"]
    )
    p_track.add_argument(
        "--input", required=True, nargs="+", help="family endpoints or sample files"
    )
    p_track.add_argument("--steps", type=int, default=64)
    p_track.add_argument("--output", required=True, help="trajectory CSV file")
    p_track.add_argument("--format", default="csv", choices=["csv", "json"])
    p_track.set_defaults(handler=_cmd_track)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--report", required=True, help="JSON report path")
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (NoConvergence, ConvergedOutsideChart) as exc:
        print(f"{type(exc).__name__} {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PathLeavesDomain as exc:
        print(f"{type(exc).__name__} {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except FactorizationError as exc:
        print(f"{type(exc).__name__} {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
