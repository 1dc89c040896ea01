"""Each demo in demos/ runs in-process and prints its seeded headline."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, line", [
    ("demo_one_sample",
     "efficient (cross-fitted): tau_hat=+0.5225 se=0.0206 ci=(+0.4821, +0.5630)"),
    ("demo_two_sample", "estimate at beta=0.50: tau_hat=+0.4692 se=0.0329"),
    ("demo_riesz", "  max deviation from truth: 0.0758"),
])
def test_demo_runs(name, line, capsys):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    assert line in capsys.readouterr().out.splitlines()
