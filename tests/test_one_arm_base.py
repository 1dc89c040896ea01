"""Every model of (arm, x) in ``ssate.nuisance`` states only ``arms(x)`` and takes
``__call__`` and ``predict_rows`` from one base, ``_ArmPair``. A second copy of either
drifts from the base: in which arm it evaluates, or in a model state (an unfitted arm)
that only the copy knows about. The density ratio r(x) takes no arm, so it keeps its
own ``__call__``. This scan of the module's source fails on any other definition."""

import ast
from pathlib import Path

from ssate import nuisance

NUISANCE = Path(__file__).resolve().parent.parent / "src" / "ssate" / "nuisance.py"
ALLOWED = {"__call__": {"_ArmPair", "DensityRatioModel"}, "predict_rows": {"_ArmPair"}}


def _copies(tree: ast.AST):
    """(line, class.method) for each ``__call__`` or ``predict_rows`` defined outside the
    classes allowed to define it, module-level functions included."""
    owners = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                owners[item] = node.name
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in ALLOWED:
            owner = owners.get(node, "<module>")
            if owner not in ALLOWED[node.name]:
                yield node.lineno, f"{owner}.{node.name}"


def test_arm_models_share_one_call_and_predict_rows():
    found = [f"nuisance.py:{line}: {what}"
             for line, what in _copies(ast.parse(NUISANCE.read_text()))]
    assert not found, f"state arms(x) and inherit from _ArmPair in place of {found}"
    for model in (nuisance.OutcomeModel, nuisance.GModel, nuisance.EModel, nuisance.VBeta):
        assert issubclass(model, nuisance._ArmPair), model.__name__


def test_the_scan_finds_each_kind_of_copy():
    source = ("class _ArmPair:\n"
              "    def __call__(self, d, x): pass\n"
              "    def predict_rows(self, d, x): pass\n"
              "class DensityRatioModel:\n"
              "    def __call__(self, x): pass\n"
              "class OutcomeModel(_ArmPair):\n"
              "    def __call__(self, d, x): pass\n"
              "    def predict_rows(self, d, x): pass\n"
              "def predict_rows(model, d, x): pass\n")
    assert sorted(_copies(ast.parse(source))) == [
        (7, "OutcomeModel.__call__"), (8, "OutcomeModel.predict_rows"), (9, "<module>.predict_rows")]
