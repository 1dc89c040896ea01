"""Each kind of setting has one check, in ``ssate.errors``: ``check_integer`` for
counts and seeds, ``check_beta`` for mixture weights, ``arm_position`` for an
arm, ``covariates`` for a covariate array. A copy written by hand in another
module drifts from it, in its wording and in what it lets through (a bool, NaN,
an arm 2 read as arm 0, a 1-D array read as one row), so this scan of the
package's source fails on one."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ssate"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "errors.py")


def _copies(tree: ast.AST):
    """(line, what) for each hand-written count, beta or arm check in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names]
            if "numbers" in names:
                yield node.lineno, "an import of numbers"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2
              and "Integral" in ast.unparse(node.args[1])):
            yield node.lineno, "an isinstance(..., numbers.Integral) check"
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "must lie in [0, 1]" in node.value):
            yield node.lineno, "a 'must lie in [0, 1]' message"
        elif (isinstance(node, ast.IfExp) and isinstance(node.test, ast.Compare)
              and isinstance(node.test.left, ast.Name) and node.test.left.id in ("d", "arm")
              and isinstance(node.test.ops[0], ast.Eq)):
            yield node.lineno, f"a conditional on {ast.unparse(node.test)}"
        elif isinstance(node, (ast.Attribute, ast.Name)) and "atleast_2d" in (
                getattr(node, "attr", None), getattr(node, "id", None)):
            yield node.lineno, "a covariate conversion by atleast_2d"
        elif (isinstance(node, ast.IfExp) and isinstance(node.test, ast.Compare)
              and isinstance(node.test.left, ast.Attribute) and node.test.left.attr == "ndim"
              and isinstance(node.test.ops[0], ast.Eq)):
            yield node.lineno, f"a covariate conversion on {ast.unparse(node.test)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_counts_and_betas_are_checked_in_errors_py(path):
    found = [f"{path.name}:{line}: {what}" for line, what in _copies(ast.parse(path.read_text()))]
    assert not found, ("use ssate.errors.check_integer, check_beta, arm_position or "
                       f"covariates in place of {found}")


def test_the_scan_finds_each_kind_of_copy():
    source = ("import numbers\n"
              "def f(n, beta):\n"
              "    if not isinstance(n, numbers.Integral):\n"
              "        raise ValueError(n)\n"
              "    if not 0 <= beta <= 1:\n"
              "        raise ValueError(f'beta must lie in [0, 1], got {beta}')\n")
    assert sorted(line for line, _ in _copies(ast.parse(source))) == [1, 3, 6]


def test_the_scan_finds_an_arm_rule():
    source = ("def f(d, x, arm):\n"
              "    a = x if d == 1 else -x\n"
              "    b = (x, -x)[0 if arm == 0 else 1]\n"
              "    return a if d > 1 else b\n")
    assert sorted(line for line, _ in _copies(ast.parse(source))) == [2, 3]


def test_the_scan_finds_a_covariate_conversion():
    source = ("import numpy as np\n"
              "from numpy import atleast_2d\n"
              "def f(x, z):\n"
              "    x = np.atleast_2d(np.asarray(x))\n"
              "    z = z[:, None] if z.ndim == 1 else z\n"
              "    return atleast_2d(x), z if z.ndim > 1 else x\n")
    assert sorted(line for line, _ in _copies(ast.parse(source))) == [4, 5, 6]


def test_the_oracle_imports_nothing_from_the_fitting_layer():
    """The tests take the oracle as their reference for the fits, so it must not be
    built from them: ``oracle.py`` imports nothing from ``nuisance``."""
    tree = ast.parse((SRC / "oracle.py").read_text())
    imported = [ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and "nuisance" in (
                    [node.module or ""] + [alias.name for alias in node.names])
                or isinstance(node, ast.Import)
                and any("nuisance" in alias.name for alias in node.names)]
    assert not imported, imported
