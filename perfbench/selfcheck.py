"""Self-check of the benchmark against BENCHMARK.json.

    python -m pytest perfbench/selfcheck.py

Runs each workload briefly and the traced pass twice. The file name
keeps it out of the package's default test collection: it takes a few
minutes and measures rather than tests the library.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# per-step timings, which the untraced run reports on its "detail" line
STEP_UNITS = {
    "io-100k": {"csv_write_s": "s", "cli_os_s": "s", "cli_ts_s": "s"},
    "mc-small": {"mc_os_reps_per_s": "1/s", "mc_ts_reps_per_s": "1/s",
                 "mc_lsif_reps_per_s": "1/s", "mc_ukl_reps_per_s": "1/s"},
}
TRACED_LAYERS = ("import", "datamodel", "estimators", "nuisance", "optimize",
                 "simharness", "oracle", "cli")


def bench(workload, seed, seconds, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def parse(proc, lines):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    detail = json.loads(lines[-2].removeprefix("detail "))
    return result, detail


def units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_spec_names_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(STEP_UNITS)
    assert "setup_s" in units(SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(STEP_UNITS))
def test_untraced_run(workload):
    result, detail = parse(*bench(workload, 7, 1, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["error_rate"] == 0
    assert {k: v["unit"] for k, v in detail["steps"].items()} == STEP_UNITS[workload]
    for step in detail["steps"].values():
        assert step["n"] == detail["cycles"] and step["value"] > 0


def test_traced_run():
    runs = [parse(*bench("mc-small", 7, 1, 1)) for _ in range(2)]
    for result, detail in runs:
        metrics = result["metrics"]
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in metrics.items()} == units(SPEC["per_layer"])
        assert metrics["error_rate"]["value"] == 0
        for layer in TRACED_LAYERS:
            assert metrics[f"{layer}.self_s"]["value"] > 0, layer
        overhead = abs(metrics["trace.overhead_s"]["value"])
        assert abs(detail["traced_wall_s"] - detail["span_self_sum_s"]) <= overhead
    # deterministic counts repeat exactly between traced runs
    assert runs[0][1]["counts"] == runs[1][1]["counts"]
    for key in ("datamodel.from_arrays_calls", "nuisance.transform_calls",
                "optimize.newton_iters", "optimize.newton_fun_evals",
                "optimize.gd_iters", "optimize.gd_fun_evals"):
        assert runs[0][0]["metrics"][key] == runs[1][0]["metrics"][key]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench("io-100k", 1, 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
