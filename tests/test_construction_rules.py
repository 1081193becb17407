"""Every factor and tangent the package computes is built as computed,
through the private _Container._own, with no copy and no repeated numeric
test: a public derivative solve builds the factor it prepares from the
copies its validation made; every Newton iterate and prediction is built in
newton._vetted. The
checking constructors run only on arrays a caller passes (a corrector's
zero-step exit returns the caller's own guess, checked when the caller built
it) and in the oracle qr_factor_mgs, which keeps them so that it stays
independent of the kernels it checks."""

import ast
from pathlib import Path

import numpy as np
import pytest

from factordiff import ToleranceConfig, cholesky_factor, qr_factor

SRC = Path(__file__).resolve().parent.parent / "src" / "factordiff"
CONTAINERS = {"QRPair", "CholeskyFactor", "LDUTriple", "QRTangent", "LDUTangent"}


def _constructions():
    """(kind, module, enclosing function) of each container built in
    src/factordiff: "own" for a ._own call, "checked" for a call of a
    container class, by name or as a factor map's container field."""
    found = set()
    for path in sorted(SRC.glob("*.py")):

        def visit(node, func):
            if isinstance(node, ast.FunctionDef):
                func = node.name
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Attribute) and f.attr == "_own":
                    found.add(("own", path.stem, func))
                elif (isinstance(f, ast.Name) and f.id in CONTAINERS) or (
                    isinstance(f, ast.Attribute) and f.attr == "container"
                ):
                    found.add(("checked", path.stem, func))
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        visit(ast.parse(path.read_text()), None)
    return found


def test_checking_constructors_run_only_on_callers_arrays():
    checked = {site[1:] for site in _constructions() if site[0] == "checked"}
    assert checked == {("factor", "qr_factor_mgs")}


def test_computed_results_are_built_as_computed():
    owned = {site[1:] for site in _constructions() if site[0] == "own"}
    assert owned == {
        ("factor", "qr_factor"),
        ("factor", "cholesky_factor"),
        ("factor", "ldu_factor"),
        ("frechet", "qr_derivative_solve"),
        ("frechet", "cholesky_derivative_solve"),
        ("frechet", "ldu_derivative_solve"),
        ("frechet", "_qr_apply"),
        ("frechet", "_ldu_apply"),
        ("newton", "_vetted"),
    }


@pytest.mark.parametrize("n", [1, 5, 33, 64, 256])
@pytest.mark.parametrize("kernel", [qr_factor, cholesky_factor])
def test_kernel_result_does_not_depend_on_structural_tol(kernel, n):
    # a zero structural_tol refused qr_factor's own q as not orthogonal,
    # although the kernel is total on square inputs
    g = np.random.default_rng(n).standard_normal((n, n))
    a = g @ g.T + np.eye(n) if kernel is cholesky_factor else g
    exact = kernel(a, ToleranceConfig(structural_tol=0.0))
    default = kernel(a)
    for name in default.__slots__:
        assert getattr(exact, name).tobytes() == getattr(default, name).tobytes()
