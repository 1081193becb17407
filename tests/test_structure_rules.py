"""Structure is said once and used: core._SHAPES cuts every triangle (through
core._impose), every triangular solve runs one regime of inverted diagonal
blocks, every triangle is inverted by core._upper_inverse, and LDU's d and
s are applied as diagonals, never as n-by-n matrices. The first tests read
the code of src/factordiff and fail on a second statement of a structure,
a second solve regime or a second inversion; the others pin the results
those forms must keep."""

import ast
from pathlib import Path

import numpy as np
import pytest
from conftest import random_diag_shifted, random_square

from factordiff import LDUTangent, ldu_derivative_apply, ldu_factor
from factordiff.frechet import _inverted_blocks

SRC = Path(__file__).resolve().parent.parent / "src" / "factordiff"
# the modules that form, solve and multiply structured factors
STRUCTURED = ("core", "factor", "frechet", "newton")


def _dotted(node) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return ""


def _second_vocabulary(node) -> bool:
    # np.tril, np.triu and np.diag(np.diag(...)) cut a triangle or a diagonal
    # that _impose cuts; np.linalg.solve is the second solve regime
    if not isinstance(node, ast.Call):
        return False
    name = _dotted(node.func)
    return name in ("np.tril", "np.triu", "np.linalg.solve") or (
        name == "np.diag"
        and bool(node.args)
        and isinstance(node.args[0], ast.Call)
        and _dotted(node.args[0].func) == "np.diag"
    )


def _dense_diagonal_matmul(node) -> bool:
    # a matmul by LDU's d (d, self.d) or by a tangent's s (tan.s); QR's skew
    # part is a plain name s and is a full matrix
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)):
        return False
    return any(
        _dotted(side).split(".")[-1] == "d"
        or (isinstance(side, ast.Attribute) and side.attr == "s")
        for side in (node.left, node.right)
    )


def _sites(rule, modules):
    found = []
    for module in modules:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        found += [(module, node.lineno) for node in ast.walk(tree) if rule(node)]
    return found


def test_no_second_structure_vocabulary_or_solve_regime():
    modules = sorted(path.stem for path in SRC.glob("*.py"))
    assert _sites(_second_vocabulary, modules) == []


def test_d_and_s_are_never_multiplied_as_matrices():
    assert _sites(_dense_diagonal_matmul, STRUCTURED) == []


def _inversion(node) -> bool:
    return isinstance(node, ast.Attribute) and _dotted(node).endswith("linalg.inv")


def test_one_triangular_inverse():
    """np.linalg.inv appears only in core._upper_inverse, whose docstring is
    the one statement of why its inverse is exactly triangular."""
    modules = sorted(path.stem for path in SRC.glob("*.py"))
    core = ast.parse((SRC / "core.py").read_text())
    routine = [
        node
        for node in ast.walk(core)
        if isinstance(node, ast.FunctionDef) and node.name == "_upper_inverse"
    ]
    inside = [("core", node.lineno) for f in routine for node in ast.walk(f) if _inversion(node)]
    assert _sites(_inversion, modules) == inside != []


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33])
def test_inverted_blocks_at_every_size(n):
    rng = np.random.default_rng(n)
    t = np.tril(random_square(rng, n)) + 2.0 * np.eye(n)
    blocks = _inverted_blocks(t)
    assert isinstance(blocks, list)
    assert [s for s, _ in blocks] == list(range((n - 1) // 32 * 32, -1, -32))
    reversed_t = t[::-1, ::-1]
    for s, inverse in blocks:
        assert np.array_equal(inverse, np.linalg.inv(reversed_t[s:s + 32, s:s + 32]))


@pytest.mark.parametrize("n", [1, 5, 33, 128])
def test_ldu_product_and_apply_equal_the_dense_forms(n):
    # np.array_equal, not bytes: a zero's sign may differ from the dense form's
    rng = np.random.default_rng(n)
    fac = ldu_factor(random_diag_shifted(rng, n))
    l, d, u = fac.l, fac.d, fac.u
    assert np.array_equal(fac.product(), l @ d @ u)
    tan = LDUTangent(*(random_square(rng, n) for _ in range(3)))
    dense = tan.a @ d @ u + l @ tan.s @ u + l @ d @ tan.b
    assert np.array_equal(ldu_derivative_apply(l, d, u, tan), dense)
