"""The traced benchmark pass finds the package's functions by name.

``perfbench/spans.py`` wraps each function where the calling module bound
it (``ssate.estimators.fit_outcome_both``, ``ssate.optimize.minimize_gd``,
``ssate.cli._emit``, ...). A dropped name makes ``install`` raise; a moved
one, or a call through a reference stored at import time, silently leaves
its layer unmeasured. ``perfbench/run.py`` calls the CSV readers and
writers through ``ssate.datamodel`` by name as well. These tests catch
both.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ssate
import ssate.cli
from ssate import McConfig, dgp_d1, sample_one, sample_two
from ssate.datamodel import write_one_sample_csv
from ssate.estimators import NuisanceConfig
from ssate.oracle import dgp_to_dict

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_restore(spans):
    originals = {
        (ssate.estimators, "fit_outcome_both"): ssate.nuisance.fit_outcome_both,
        (ssate.estimators, "make_fold_plan"): ssate.datamodel.make_fold_plan,
        (ssate.optimize, "minimize_gd"): ssate.optimize.minimize_gd,
        (ssate.cli, "_emit"): ssate.cli._emit,
        (ssate.nuisance.FittedBasis, "transform"): ssate.nuisance.FittedBasis.transform,
    }
    tracer = spans.Tracer()
    spans.install(tracer, ssate)
    try:
        for (owner, name), original in originals.items():
            assert getattr(owner, name) is not original, f"{owner.__name__}.{name} not patched"
    finally:
        tracer.restore()
    for (owner, name), original in originals.items():
        assert getattr(owner, name) is original


def test_traced_calls_reach_every_layer(spans, tmp_path):
    d1 = dgp_d1()
    one, two = sample_one(d1, 300, 1), sample_two(d1, 200, 150, 2)
    spec = tmp_path / "d1.json"
    spec.write_text(json.dumps(dgp_to_dict(d1)))
    tracer = spans.Tracer()
    spans.install(tracer, ssate)
    # entry points are called through their modules, where install patched them
    estimators, simharness = ssate.estimators, ssate.simharness
    try:
        for mode in ("mle-g", "ls-riesz", "kl-riesz"):
            estimators.estimate_os_eff(one, n_folds=2, seed=3,
                                       config=NuisanceConfig(riesz_mode=mode))
        estimators.estimate_ts_eff(two, beta_star=0.5, n_folds=2, seed=4)
        simharness.run_mc(McConfig(dgp=d1, scenario="one-sample", n=200, reps=2, seed=5),
                          threads=1)
        assert ssate.cli.main(["bounds", "--dgp", str(spec), "--output",
                               str(tmp_path / "b.json")]) == 0
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans]
    expected = {
        "datamodel.from_arrays", "datamodel.make_fold_plan",
        "estimators.estimate_os_eff", "estimators.estimate_ts_eff",
        "nuisance.fit_outcome_both", "nuisance.fit_gmodel_mle", "nuisance.fit_e_model",
        "nuisance.fit_density_ratio", "nuisance.assemble_v_beta",
        "nuisance.fit_riesz_lsif", "nuisance.fit_riesz_ukl", "nuisance.transform",
        "optimize.minimize_newton", "simharness.run_mc", "simharness.sample_one",
        "oracle.true_ate", "oracle.bound_v_os", "cli.emit",
    }
    assert expected <= set(names), sorted(expected - set(names))
    # one fold plan per one-sample estimate (3 + 2 replications), two per two-sample one
    assert names.count("datamodel.make_fold_plan") == 7


@pytest.mark.parametrize("estimator, fit", [("os-ipw", "nuisance.fit_gmodel_mle"),
                                            ("os-ra", "nuisance.fit_outcome_both")])
def test_traced_baseline_studies_fit_their_nuisance(spans, estimator, fit):
    # a baseline study fits its one nuisance through simharness's module names
    tracer = spans.Tracer()
    spans.install(tracer, ssate)
    try:
        ssate.simharness.run_mc(McConfig(dgp=dgp_d1(), scenario="one-sample",
                                         estimator=estimator, n=200, reps=2, seed=5), threads=1)
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans]
    assert names.count(fit) == 2
    assert names.count("simharness.sample_one") == 2


def test_run_py_datamodel_names_exist():
    """Every ``datamodel.<name>`` that perfbench/run.py uses is in ssate.datamodel."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and (getattr(node.value, "id", None) == "datamodel"
                  or getattr(node.value, "attr", None) == "datamodel")}
    assert {"read_one_sample_csv", "write_one_sample_csv", "write_labeled_csv"} <= names
    missing = sorted(name for name in names if not hasattr(ssate.datamodel, name))
    assert not missing, missing


def test_run_py_ssate_names_exist():
    """Every ``oracle.``, ``simharness.`` and ``estimators.`` attribute that
    perfbench/run.py uses, and every name it imports from ssate, exists there."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
            if owner in ("oracle", "simharness", "estimators"):
                used.add(("ssate." + owner, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ssate":
            used.update((node.module, alias.name) for alias in node.names)
    assert {("ssate.oracle", "dgp_d1"), ("ssate.oracle", "dgp_d2"), ("ssate.oracle", "true_ate"),
            ("ssate.oracle", "GaussianLinearDgp"), ("ssate.simharness", "McConfig"),
            ("ssate.simharness", "run_mc"), ("ssate.simharness", "sample_one"),
            ("ssate.simharness", "sample_two"), ("ssate.estimators", "NuisanceConfig")} <= used
    missing = sorted(f"{module}.{name}" for module, name in used
                     if not hasattr(importlib.import_module(module), name))
    assert not missing, missing


def test_run_py_importtime_modules_are_imported():
    """``importtime()`` in perfbench/run.py takes the median of the samples of each
    module named in its ``samples`` dict, and raises when a fresh ``import ssate`` no
    longer loads one of them: dropping such an import must fail here first."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "importtime")
    samples = next(node.value for node in ast.walk(func) if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "samples")
    modules = {ast.literal_eval(key) for key in samples.keys}
    assert "ssate" in modules
    root = PERFBENCH.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ssate"], cwd=root,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    missing = sorted(modules - imported)
    assert not missing, missing


def test_traced_cli_reads_through_datamodel(spans, tmp_path):
    path = tmp_path / "os.csv"
    write_one_sample_csv(sample_one(dgp_d1(), 300, 1), path)
    tracer = spans.Tracer()
    spans.install(tracer, ssate)
    try:
        assert ssate.cli.main(["estimate-os", "--input", str(path),
                               "--output", str(tmp_path / "r.json")]) == 0
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans]
    assert "datamodel.read_one_sample_csv" in names
    assert "datamodel.from_arrays" in names
