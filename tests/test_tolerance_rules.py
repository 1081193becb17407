"""Each tolerance rule has one home in core: _scaled forms tol * (1 + ||m||),
_symmetric tests ||m - m^T||, and _singular_d holds LDU's absolute floor on
d. These tests read the code of the modules that apply tolerances and fail
on a rule written out anywhere else. verify is not read: its oracles keep
their own thresholds, independent of the code they check."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "factordiff"
MODULES = ("core", "factor", "frechet", "newton")


def _name(node) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _operands(node):
    """The nodes an expression is built from, not entering calls: a
    tolerance passed to a function is not multiplied here."""
    yield node
    if not isinstance(node, ast.Call):
        for child in ast.iter_child_nodes(node):
            yield from _operands(child)


def _multiplies_a_tol(node) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and any(
            _name(sub) == "tol" or _name(sub).endswith("_tol")
            for side in (node.left, node.right)
            for sub in _operands(side)
        )
    )


def _one_plus_norm(node) -> bool:
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    sides = (node.left, node.right)
    return any(isinstance(s, ast.Constant) and s.value == 1 for s in sides) and any(
        isinstance(s, ast.Call) and _name(s.func) == "hs_norm" for s in sides
    )


def _asymmetry(node) -> bool:
    # hs_norm(m - m.T): the norm of a matrix minus its own transpose
    if not (isinstance(node, ast.Call) and _name(node.func) == "hs_norm" and node.args):
        return False
    arg = node.args[0]
    return (
        isinstance(arg, ast.BinOp)
        and isinstance(arg.op, ast.Sub)
        and _name(arg.right) == "T"
        and ast.dump(arg.left) == ast.dump(arg.right.value)
    )


def _compares_singularity_tol(node) -> bool:
    # a magnitude tested against singularity_tol itself; ToleranceConfig's
    # own check of the field against a constant is not a threshold
    if not isinstance(node, ast.Compare):
        return False
    sides = (node.left, *node.comparators)
    return any(_name(s) == "singularity_tol" for s in sides) and not any(
        isinstance(s, ast.Constant) for s in sides
    )


def _sites(rule):
    """(module, enclosing function, line) of each node matching rule."""
    found = []
    for module in MODULES:
        tree = ast.parse((SRC / f"{module}.py").read_text())

        def visit(node, func):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                func = getattr(node, "name", func)
            if rule(node):
                found.append((module, func, node.lineno))
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        visit(tree, None)
    return found


@pytest.mark.parametrize(
    "rule, home",
    [
        (_multiplies_a_tol, "_scaled"),
        (_one_plus_norm, "_scaled"),
        (_asymmetry, "_symmetric"),
        (_compares_singularity_tol, "_singular_d"),
    ],
)
def test_rule_has_one_home(rule, home):
    sites = _sites(rule)
    assert [s for s in sites if s[:2] != ("core", home)] == []
    assert sites, "the rule's own home no longer matches the pattern"
