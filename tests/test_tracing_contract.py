"""The benchmark's tracer (perfbench/tracing.py) wraps each traced function
by replacing it under its module-level name in every factordiff module. Code
that holds a function object captured at import bypasses the wrapper, and
the traced counts then read 0 without any error. These counts pin that every
traced layer is still reached through its public name."""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import factordiff
from factordiff.cli import main
from factordiff.matrixio import save_matrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TRACED = (
    "factor.qr_factor",
    "factor.cholesky_factor",
    "factor.ldu_factor",
    "factor.in_domain_p",
    "frechet.qr_derivative_solve",
    "frechet.cholesky_derivative_solve",
    "frechet.ldu_derivative_solve",
    "newton.qr_newton_correct",
    "newton.cholesky_newton_correct",
    "newton.ldu_newton_correct",
    "newton.retract_orthogonal",
)


def _tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return Tracer()


def _linear(a0, a1, steps=4):
    return factordiff.PathSpec(lambda t: (1.0 - t) * a0 + t * a1, steps=steps)


def _write(tmp_path, name, a):
    path = tmp_path / name
    save_matrix(path, a)
    return str(path)


def test_traced_counts(tmp_path):
    rng = np.random.default_rng(5)
    g0, g1 = rng.uniform(-0.3, 0.3, (2, 3, 3))
    a0, a1 = g0 + 2.0 * np.eye(3), g1 + 2.0 * np.eye(3)
    s0, s1 = g0 @ g0.T + np.eye(3), g1 @ g1.T + np.eye(3)
    start, end = _write(tmp_path, "a0.csv", a0), _write(tmp_path, "a1.csv", a1)

    tracer = _tracer()
    tracer.install()
    try:
        factordiff.track_qr(_linear(a0, a1))
        factordiff.track_cholesky(_linear(s0, s1))
        factordiff.track_ldu(_linear(a0, a1))
        # pivot 1 reaches zero at t=0.5: the predicted step there (one more
        # LDU solve) leaves the chart, and only the exact test, in_domain_p,
        # classifies the sample
        edge = factordiff.PathSpec(lambda t: np.array([[0.5 - t, 1.0], [1.0, 0.0]]), steps=2)
        with pytest.raises(factordiff.PathLeavesDomain) as left:
            factordiff.track_ldu(edge)
        assert left.value.t == 0.5
        assert main(["factor", "--kind", "ldu", "--input", start,
                     "--output", str(tmp_path / "f")]) == 0
        assert main(["track", "--kind", "qr", "--input", start, end, "--steps", "2",
                     "--output", str(tmp_path / "t.csv")]) == 0
    finally:
        tracer.uninstall()

    counts = Counter(span[0] for span in tracer.spans)
    assert {name: counts[name] for name in TRACED} == {
        "factor.qr_factor": 2,
        "factor.cholesky_factor": 1,
        "factor.ldu_factor": 4,
        "factor.in_domain_p": 1,
        # the derivative-step predictions: a Newton correction step applies
        # the base its corrector prepared, and calls no public solve
        "frechet.qr_derivative_solve": 4,
        "frechet.cholesky_derivative_solve": 2,
        "frechet.ldu_derivative_solve": 3,
        "newton.qr_newton_correct": 6,
        "newton.cholesky_newton_correct": 4,
        "newton.ldu_newton_correct": 4,
        "newton.retract_orthogonal": 22,
    }


def test_triangular_solve_counts():
    """Above one 32-column block, each derivative solve and each Newton
    correction step applies its prepared inverses through the public
    solve_triangular once per triangular solve: once for QR, twice for
    Cholesky and LDU. The public derivative solves run only for the
    derivative-step predictions, two per run here. An apply that called the
    public name again, or a step that bypassed it, would show here."""
    n = 40
    rng = np.random.default_rng(41)
    g0, g1 = rng.uniform(-1.0, 1.0, (2, n, n)) / np.sqrt(n)
    a0, a1 = g0 + 3.0 * np.eye(n), g1 + 3.0 * np.eye(n)
    s0, s1 = g0 @ g0.T + np.eye(n), g1 @ g1.T + np.eye(n)

    tracer = _tracer()
    tracer.install()
    try:
        factordiff.track_qr(_linear(a0, a1, steps=2))
        factordiff.track_cholesky(_linear(s0, s1, steps=2))
        factordiff.track_ldu(_linear(a0, a1, steps=2))
    finally:
        tracer.uninstall()

    counts = Counter(span[0] for span in tracer.spans)
    kinds = ("qr", "cholesky", "ldu")
    solves = {k: counts[f"frechet.{k}_derivative_solve"] for k in kinds}
    assert solves == {"qr": 2, "cholesky": 2, "ldu": 2}
    # a corrector span's extra is its iteration count, one step each
    steps = {k: 0 for k in kinds}
    for name, _start, _end, _parent, _op, extra in tracer.spans:
        if name.endswith("_newton_correct"):
            steps[name.split(".")[1].split("_")[0]] += extra
    assert all(steps.values())
    applied = {k: solves[k] + steps[k] for k in kinds}
    assert counts["frechet.solve_triangular"] == (
        applied["qr"] + 2 * applied["cholesky"] + 2 * applied["ldu"]
    )
