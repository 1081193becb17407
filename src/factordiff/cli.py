"""Command-line front door: factor matrices from files, solve factor
sensitivities, track factor paths along matrix families, and run the
verification suite.

Exit codes are stable and scriptable:
  0  success
  1  I/O or parse failure, a usage error included (--help exits 0)
  2  mathematical domain refusal (not symmetric / not PSD / singular pivot /
     path leaves domain)
  3  numerical failure (no convergence, residual above bound)
  4  verification suite reported a failing check
"""

from __future__ import annotations

import argparse
import itertools
import sys

import numpy as np

from .core import DEFAULT_TOLERANCES, hs_norm
from .errors import (
    ConvergedOutsideChart,
    FactorizationError,
    NoConvergence,
)
from .matrixio import _FMT, load_matrix, save_matrix
from .newton import _MAPS, PathSpec, _samples
from .verify import results_to_json, run_all

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


def _write_components(prefix: str, fmt: str, components: dict) -> None:
    for name, mat in components.items():
        save_matrix(f"{prefix}_{name}.{fmt}", mat, fmt)


def _cmd_factor(args) -> int:
    a = load_matrix(args.input, args.format)
    m = _MAPS[args.kind]
    fac = m.factor(a, DEFAULT_TOLERANCES)
    _write_components(args.output, args.format, dict(zip(fac.__slots__, m.parts(fac))))
    return EXIT_OK


def _cmd_derivative(args) -> int:
    a = load_matrix(args.input, args.format)
    e = load_matrix(args.perturbation, args.format)
    m = _MAPS[args.kind]
    base = m.parts(m.factor(a, DEFAULT_TOLERANCES))
    tan = m.solve(*base, e, DEFAULT_TOLERANCES)
    residual = hs_norm(m.apply(*base, tan, DEFAULT_TOLERANCES) - e)
    _write_components(args.output, args.format, dict(zip(m.tangent_names, m.tangent(tan))))
    with open(f"{args.output}_residual.txt", "w", encoding="utf-8") as fh:
        fh.write(_FMT % residual + "\n")
    print(f"residual={_FMT % residual}")
    if residual > 1e-8 * (1.0 + hs_norm(e)):
        print("residual exceeds its bound", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _build_path(args) -> PathSpec:
    samples = [load_matrix(p, args.format) for p in args.input]
    if args.family == "linear" and len(samples) != 2:
        raise ValueError("linear family needs exactly two matrix files (start, end)")
    if len(samples) < 2:
        raise ValueError("custom-samples family needs at least two matrix files")
    if any(s.shape != samples[0].shape for s in samples):
        raise ValueError("family samples must share one dimension")

    # piecewise linear through the samples; two samples give (1 - t) a0 + t a1
    def evaluate(t: float) -> np.ndarray:
        pos = t * (len(samples) - 1)
        i = min(int(pos), len(samples) - 2)
        w = pos - i
        return (1.0 - w) * samples[i] + w * samples[i + 1]

    return PathSpec(evaluate=evaluate, steps=args.steps)


def _cmd_track(args) -> int:
    m = _MAPS[args.kind]
    samples = _samples(m, _build_path(args), DEFAULT_TOLERANCES)
    first = next(samples)  # a refusal at t = 0 leaves no file, as factor's does
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(f"t,{','.join('norm_' + c for c in m.container.__slots__)},newton_iters,residual\n")
        for t, _, iters, residual, norms in itertools.chain([first], samples):
            cells = [_FMT % t, *(_FMT % x for x in norms), str(iters), _FMT % residual]
            fh.write(",".join(cells) + "\n")
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse's own code, 2, is the domain refusal's here
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="factordiff",
        description="Dense matrix factorizations, their derivatives, and factor-path tracking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--kind", required=True, choices=list(_MAPS))
    shared.add_argument("--format", default="csv", choices=["csv", "json"])

    p_factor = sub.add_parser("factor", parents=[shared], help="factor a matrix read from a file")
    p_factor.add_argument("--input", required=True, help="matrix file")
    p_factor.add_argument("--output", required=True, help="output prefix for factor files")
    p_factor.set_defaults(handler=_cmd_factor)

    p_deriv = sub.add_parser(
        "derivative", parents=[shared], help="solve the factor sensitivity for a perturbation"
    )
    p_deriv.add_argument("--input", required=True, help="base matrix file")
    p_deriv.add_argument("--perturbation", required=True, help="perturbation matrix file")
    p_deriv.add_argument("--output", required=True, help="output prefix for tangent files")
    p_deriv.set_defaults(handler=_cmd_derivative)

    p_track = sub.add_parser("track", parents=[shared], help="track factors along a matrix family")
    p_track.add_argument(
        "--family", default="linear", choices=["linear", "custom-samples"]
    )
    p_track.add_argument(
        "--input", required=True, nargs="+", help="family endpoints or sample files"
    )
    p_track.add_argument("--steps", type=int, default=64)
    p_track.add_argument("--output", required=True, help="trajectory CSV file")
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
    except FactorizationError as exc:
        print(f"{type(exc).__name__} {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
