import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

from ssate import dgp_d1, sample_one, sample_two
from ssate.cli import _nuisance_from, build_parser, main
from ssate.datamodel import (
    OneSampleDataset,
    write_labeled_csv,
    write_one_sample_csv,
    write_unlabeled_csv,
)
from ssate.estimators import NuisanceConfig
from ssate.oracle import dgp_to_dict

from conftest import gaussian_k3


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    d1 = dgp_d1()
    os_path = root / "os.csv"
    write_one_sample_csv(sample_one(d1, 600, 90), os_path)
    ts = sample_two(d1, 400, 300, 91)
    lab, unl = root / "lab.csv", root / "unl.csv"
    write_labeled_csv(ts, lab)
    write_unlabeled_csv(ts, unl)
    spec = root / "d1.json"
    spec.write_text(json.dumps(dgp_to_dict(d1)))
    return {"root": root, "os": os_path, "lab": lab, "unl": unl, "spec": spec}


def run_json(argv, out_path):
    code = main(argv + ["--output", str(out_path)])
    return code, json.loads(out_path.read_text()) if out_path.exists() else None


class TestEstimateOs:
    def test_success_schema(self, files, tmp_path):
        code, doc = run_json(
            ["estimate-os", "--input", str(files["os"]), "--seed", "1"],
            tmp_path / "r.json",
        )
        assert code == 0
        assert doc["schema"] == "ssate/v1"
        assert doc["command"] == "estimate-os"
        rep = doc["report"]
        assert rep["method"] == "OS-eff"
        assert {"tau_hat", "se", "ci"} <= set(rep)

    def test_invalid_row_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,o,d,y\n0.0,0,1,NA\n")
        code = main(["estimate-os", "--input", str(bad)])
        assert code == 2
        assert "row 0" in capsys.readouterr().err

    def test_missing_input_exit_2(self):
        assert main(["estimate-os"]) == 2

    # an overflow warning would be an error here, so none may reach stderr
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode, message", [
        ("mle-g", "estimate is not finite"),
        ("ls-riesz", "arm 1: weighted Gram matrix is not finite"),
        ("kl-riesz", "arm 1: weighted Gram matrix is not finite"),
    ], ids=["mle-g", "ls-riesz", "kl-riesz"])
    def test_nonfinite_estimate_exit_3(self, tmp_path, capsys, mode, message):
        # covariates this large are finite, but the fits overflow to NaN
        one = sample_one(dgp_d1(), 400, 1)
        path = tmp_path / "big.csv"
        write_one_sample_csv(OneSampleDataset.from_arrays(one.x * 1e200, one.o, one.d, one.y),
                             path)
        assert main(["estimate-os", "--input", str(path), "--riesz-mode", mode]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"estimate-os: estimation failed: {message}")
        assert err.count("\n") == 1

    def test_fully_labeled_input(self, tmp_path):
        x, d, y = sample_one(dgp_d1(), 600, 92).labeled_arrays()
        path = tmp_path / "full.csv"
        write_one_sample_csv(OneSampleDataset.from_arrays(x, [1] * len(x), d, y), path)
        code, doc = run_json(["estimate-os", "--input", str(path)], tmp_path / "r.json")
        assert code == 0 and math.isfinite(doc["report"]["tau_hat"])

    def test_riesz_modes_near_truth(self, files, tmp_path):
        taus = {}
        for mode in ("mle-g", "ls-riesz"):
            code, doc = run_json(
                ["estimate-os", "--input", str(files["os"]),
                 "--riesz-mode", mode, "--seed", "2"],
                tmp_path / f"{mode}.json",
            )
            assert code == 0
            rep = doc["report"]
            taus[mode] = rep["tau_hat"]
            assert abs(rep["tau_hat"] - 0.5) <= 4 * rep["se"]

    def test_determinism_byte_identical(self, files, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["estimate-os", "--input", str(files["os"]), "--seed", "7",
              "--output", str(a)])
        main(["estimate-os", "--input", str(files["os"]), "--seed", "7",
              "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, files, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": str(files["os"]), "seed": 3, "folds": 2}))
        code, doc = run_json(
            ["estimate-os", "--config", str(cfg), "--seed", "4"],
            tmp_path / "r.json",
        )
        assert code == 0
        assert doc["config"]["seed"] == 4
        assert doc["config"]["folds"] == 2


# nuisance options out of range; json.dumps writes float("nan") as the bare
# NaN token, which json.load accepts
BAD_NUISANCE = [{"degree": 0}, {"ridge_lambda": -1}, {"ridge_lambda": float("nan")},
                {"clip_eps": 0.7}, {"clip_eps": 0.5}, {"clip_eps": -0.1},
                {"clip_eps": float("nan")}, {"clip_c": -5}, {"clip_c": 0},
                {"clip_c": float("nan")}]
BAD_NUISANCE_IDS = ["-".join(map(str, *bad.items())) for bad in BAD_NUISANCE]


# a known key of the wrong JSON type, and the message after "{command}: config "
WRONG_TYPES = [
    ("estimate-os", {"input": ["x"]}, "'input' must be a string, got ['x']"),
    ("estimate-os", {"riesz_mode": 5}, "'riesz_mode' must be a string, got 5"),
    ("estimate-ts", {"labeled": {"a": 1}}, "'labeled' must be a string, got {'a': 1}"),
    ("estimate-ts", {"unlabeled": 3}, "'unlabeled' must be a string, got 3"),
    ("bounds", {"dgp": ["d1.json"]}, "'dgp' must be a string, got ['d1.json']"),
    ("simulate", {"estimator": ["x"]}, "'estimator' must be a string, got ['x']"),
    ("simulate", {"scenario": 1}, "'scenario' must be a string, got 1"),
    ("simulate", {"study": ["mc"]}, "'study' must be a string, got ['mc']"),
    ("simulate", {"hook": {"kind": 3}}, "'kind' must be a string, got 3"),
    ("simulate", {"hook": "zero-mu"}, "'hook' must be a JSON object, got 'zero-mu'"),
    ("simulate", {"nuisance": [2]}, "'nuisance' must be a JSON object, got [2]"),
    ("simulate", {"nuisance": {"degree": True}}, "'degree' must be an integer, got True"),
    # a key the default mc study does not read is checked all the same
    ("simulate", {"n_labeled": "x"}, "'n_labeled' must be an integer, got 'x'"),
    ("estimate-os", {"folds": 2.5}, "'folds' must be an integer, got 2.5"),
    ("estimate-os", {"seed": "1"}, "'seed' must be an integer, got '1'"),
    ("estimate-os", {"level": True}, "'level' must be a number, got True"),
    ("estimate-ts", {"level": 10**400}, "'level' is too large for a float"),
    ("estimate-os", {"degree": 1.5}, "'degree' must be an integer, got 1.5"),
    ("estimate-os", {"ridge_lambda": "x"}, "'ridge_lambda' must be a number, got 'x'"),
    ("estimate-ts", {"clip_eps": [0.1]}, "'clip_eps' must be a number, got [0.1]"),
    ("estimate-ts", {"clip_c": "5"}, "'clip_c' must be a number, got '5'"),
    ("estimate-ts", {"beta-star": "0.5"}, "'beta-star' must be a number, got '0.5'"),
    ("simulate", {"beta_star": False}, "'beta_star' must be a number, got False"),
    ("bounds", {"alpha": "0.5"}, "'alpha' must be a number, got '0.5'"),
    ("bounds", {"grid_step": [0.01]}, "'grid_step' must be a number, got [0.01]"),
    ("simulate", {"reps": 2.5}, "'reps' must be an integer, got 2.5"),
    ("simulate", {"threads": "2"}, "'threads' must be an integer, got '2'"),
    ("simulate", {"n": 1.5}, "'n' must be an integer, got 1.5"),
    ("simulate", {"m": "100"}, "'m' must be an integer, got '100'"),
    ("simulate", {"l": True}, "'l' must be an integer, got True"),
    ("simulate", {"ratio": "10"}, "'ratio' must be an integer, got '10'"),
]
WRONG_TYPE_IDS = [command + "-" + message.split()[0].strip("'")
                  for command, _, message in WRONG_TYPES]


# a key the command does not read: neither an option's dest nor, for an
# estimate, a nuisance field
UNREAD_KEYS = [
    ("estimate-os", {"degre": 2}, "degre"),
    ("estimate-os", {"beta-star": 0.5}, "beta-star"),
    ("estimate-os", {"output": "r.json"}, "output"),
    ("estimate-ts", {"beta_star": 0.6}, "beta_star"),
    ("estimate-ts", {"input": "os.csv"}, "input"),
    ("bounds", {"alpah": 0.5}, "alpah"),
    ("bounds", {"degree": 2}, "degree"),
    ("bounds", {"input": "os.csv"}, "input"),
    ("bounds", {"folds": 2}, "folds"),
    ("bounds", {"seed": 1}, "seed"),
    ("bounds", {"level": 0.9}, "level"),
    ("bounds", {"ridge_lambda": 1.0}, "ridge_lambda"),
    ("bounds", {"clip_eps": 0.01}, "clip_eps"),
    ("bounds", {"clip_c": 10.0}, "clip_c"),
    ("bounds", {"l": 100}, "l"),
    # a key the command does not read is rejected as such, whatever its type
    ("estimate-os", {"alpha": "0.5"}, "alpha"),
    ("estimate-ts", {"grid_step": [0.01]}, "grid_step"),
    ("estimate-os", {"reps": 3}, "reps"),
    ("estimate-ts", {"threads": 0}, "threads"),
    ("estimate-os", {"n": 100}, "n"),
    ("estimate-ts", {"m": 100}, "m"),
    ("estimate-ts", {"ratio": 10}, "ratio"),
]


def simulate_config(tmp_path, extra):
    """A simulate config file: d1 at 3 reps, with n = 100 for an mc study, under ``extra``."""
    base = {"dgp": dgp_to_dict(dgp_d1()), "reps": 3}
    if extra.get("study") != "infinite-unlabeled":
        base["n"] = 100
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({**base, **extra}))
    return path


class TestConfigErrors:
    """Bad config values are config errors (exit 2), never a traceback."""

    @pytest.mark.parametrize("cfg", [{"degree": "two"}, {"degree": 1.5}, {"degree": 0},
                                     {"riesz_mode": "foo"}, {"ridge_lambda": "x"},
                                     {"level": "0.9"}, {"seed": 1.5}, *BAD_NUISANCE[1:]])
    def test_bad_config_file_exit_2(self, files, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"input": str(files["os"]), **cfg}))
        assert main(["estimate-os", "--config", str(path)]) == 2

    @pytest.mark.parametrize("flags", [["--level", "1.5"], ["--folds", "1000"], ["--folds", "0"]])
    def test_bad_flag_exit_2(self, files, flags, capsys):
        assert main(["estimate-os", "--input", str(files["os"])] + flags) == 2
        assert "estimation failed" not in capsys.readouterr().err

    def test_level_with_infinite_quantile_exit_2(self, files, capsys):
        # 0.5 * (1 + level) rounds to 1.0, so the interval would be (-inf, inf)
        argv = ["estimate-os", "--input", str(files["os"]), "--level", "0.9999999999999999"]
        assert main(argv) == 2
        assert capsys.readouterr().err == ("estimate-os: confidence level 0.9999999999999999 "
                                           "is too close to 1: its normal quantile is infinite\n")

    @pytest.mark.parametrize("flags", [["--level", "1.5"], ["--folds", "301"],
                                       ["--degree", "0"], ["--beta-star", "1.5"]])
    def test_bad_two_sample_flag_exit_2(self, files, flags):
        argv = ["estimate-ts", "--labeled", str(files["lab"]), "--unlabeled", str(files["unl"]),
                "--beta-star", "0.5"]
        assert main(argv + flags) == 2

    def test_simulate_bad_nuisance_exit_2(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"dgp": dgp_to_dict(dgp_d1()), "n": 50, "reps": 2,
                                    "nuisance": {"degree": "two"}}))
        assert main(["simulate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("bad", BAD_NUISANCE, ids=BAD_NUISANCE_IDS)
    def test_estimate_ts_nuisance_out_of_range_exit_2(self, files, tmp_path, bad):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"labeled": str(files["lab"]),
                                    "unlabeled": str(files["unl"]), "beta-star": 0.5, **bad}))
        assert main(["estimate-ts", "--config", str(path)]) == 2

    @pytest.mark.parametrize("bad", BAD_NUISANCE, ids=BAD_NUISANCE_IDS)
    def test_simulate_nuisance_out_of_range_exit_2(self, tmp_path, capsys, bad):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"dgp": dgp_to_dict(dgp_d1()), "n": 50, "reps": 2,
                                    "nuisance": bad}))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "bad nuisance config" in capsys.readouterr().err

    # a bad run config, and the whole stderr line where the case asserts one
    @pytest.mark.parametrize("extra, message", [
        ({"folds": 1000}, None), ({"folds": 0}, None), ({"level": 1.5}, None),
        ({"scenario": "two-sample", "estimator": "ts-eff", "m": 100, "l": 100, "beta_star": 1.5},
         None),
        ({"study": "infinite-unlabeled", "n_labeled": 20, "ratio": 10, "folds": 1000},
         "fold count must satisfy 1 <= L <= 220, got 1000"),
        ({"n": "100"}, None),
        ({"scenario": "two-sample", "estimator": "ts-eff", "m": "100", "l": 100, "beta_star": 0.5},
         None),
        ({"scenario": "two-sample", "estimator": "ts-eff", "m": 100, "l": "100", "beta_star": 0.5},
         None),
        ({"scenario": "two-sample", "estimator": "ts-eff", "m": 100, "l": 100, "beta_star": "0.5"},
         None),
        ({"study": "infinite-unlabeled", "n_labeled": 0}, "n_labeled must be >= 1"),
        ({"study": "infinite-unlabeled", "n_labeled": 20, "ratio": 10, "scenario": "bogus"},
         "scenario must be one-sample or two-sample"),
        ({"hook": {"kind": "true-e"}}, None),
        ({"beta_star": 0.0}, None),
        ({"hook": {"kind": "constant-g", "c": 0}}, None),
        ({"hook": {"c": 0.3}}, "config 'hook' needs a 'kind'"),
        # a hook object with no kind, empty or all null, runs no unhooked study
        ({"hook": {}}, "config 'hook' needs a 'kind'"),
        ({"hook": {"c": None}}, "config 'hook' needs a 'kind'"),
        # a nested key that nothing reads
        ({"hook": {"kind": "constant-g", "cc": 0.3}}, "config 'hook' has no key 'cc'"),
        ({"nuisance": {"degre": 2}}, "config 'nuisance' has no key 'degre'"),
        # a key only the other study reads
        ({"n_labeled": 20}, "config 'n_labeled' is not read by the mc study"),
        ({"ratio": 10}, "config 'ratio' is not read by the mc study"),
        ({"study": "infinite-unlabeled", "n_labeled": 20, "ratio": 10,
          "hook": {"kind": "zero-mu"}}, "config 'hook' is not read by the infinite-unlabeled study"),
        *(({"study": "infinite-unlabeled", "n_labeled": 20, "ratio": 10, key: val},
           f"config {key!r} is not read by the infinite-unlabeled study")
          for key, val in (("estimator", "os-eff"), ("n", 100), ("m", 100), ("l", 100))),
        # a worker count below 1, which no study runs on one worker instead
        ({"threads": 0}, "threads must be >= 1, got 0"),
        ({"threads": -3}, "threads must be >= 1, got -3"),
        ({"study": "infinite-unlabeled", "ratio": 10},
         "an infinite-unlabeled study needs an 'n_labeled'"),
        # 0.5 * (1 + level) rounds to 1.0, so the normal quantile is infinite
        ({"level": 0.9999999999999999},
         "confidence level 0.9999999999999999 is too close to 1: its normal quantile is infinite"),
    ])
    def test_simulate_bad_run_config_exit_2(self, tmp_path, extra, message, capsys):
        assert main(["simulate", "--config", str(simulate_config(tmp_path, extra))]) == 2
        err = capsys.readouterr().err
        assert "replications failed" not in err
        if message is not None:
            assert err == f"simulate: {message}\n"

    @pytest.mark.parametrize("flags, env, message", [
        (["--threads", "0"], "2", "threads must be >= 1, got 0"),
        (["--threads", "-3"], None, "threads must be >= 1, got -3"),
        ([], "0", "SSATE_THREADS must be >= 1, got '0'"),
    ], ids=["flag-0", "flag-negative", "env-0"])
    def test_simulate_worker_count_below_1_exit_2(self, tmp_path, monkeypatch, capsys,
                                                  flags, env, message):
        if env is not None:
            monkeypatch.setenv("SSATE_THREADS", env)
        argv = ["simulate", "--config", str(simulate_config(tmp_path, {})), *flags]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"simulate: {message}\n"

    @pytest.mark.parametrize("command", ["estimate-os", "estimate-ts", "bounds", "simulate"])
    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"],
                             ids=["missing", "bad-json", "list"])
    def test_unreadable_config_file_exit_2(self, tmp_path, capsys, command, content):
        path = tmp_path / "cfg.json"
        if content is not None:
            path.write_text(content)
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"{command}: ")

    @pytest.mark.parametrize("command, bad, message", WRONG_TYPES, ids=WRONG_TYPE_IDS)
    def test_wrong_json_type_exit_2(self, files, tmp_path, capsys, command, bad, message):
        base = {"estimate-os": {"input": str(files["os"])},
                "estimate-ts": {"labeled": str(files["lab"]), "unlabeled": str(files["unl"]),
                                "beta-star": 0.5},
                "bounds": {},
                "simulate": {"dgp": dgp_to_dict(dgp_d1()), "n": 100, "reps": 3}}[command]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**base, **bad}))
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"{command}: config {message}\n"

    @pytest.mark.parametrize("command, extra, key", UNREAD_KEYS,
                             ids=[f"{command}-{key}" for command, _, key in UNREAD_KEYS])
    def test_unread_key_exit_2(self, files, tmp_path, capsys, command, extra, key):
        base = {"estimate-os": {"input": str(files["os"])},
                "estimate-ts": {"labeled": str(files["lab"]), "unlabeled": str(files["unl"]),
                                "beta-star": 0.5},
                "bounds": {"dgp": str(files["spec"])}}[command]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**base, **extra}))
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"{command}: config {key!r} is not read by {command}\n"

    @pytest.mark.parametrize("kind", ["true-r", "true-nuisance"])
    def test_true_r_hook_where_q_vanishes_exit_2(self, tmp_path, capsys, kind):
        # q0 = 0 at x = 1, where p0 = 1/2: p0/q0 is undefined there
        path = simulate_config(tmp_path, {
            "dgp": {**dgp_to_dict(dgp_d1()), "q": [1.0, 0.0]}, "scenario": "two-sample",
            "estimator": "ts-eff", "m": 100, "l": 100, "beta_star": 0.5, "threads": 1,
            "hook": {"kind": kind}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(path)]) == 2
        assert caught == []
        assert capsys.readouterr().err == (
            f"simulate: hook {kind!r} divides by q0, which is 0 where p0 > 0\n")

    def test_null_is_absent(self, files, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"input": str(files["os"]), "folds": None}))
        code, doc = run_json(["estimate-os", "--config", str(path)], tmp_path / "r.json")
        assert code == 0
        assert doc["config"]["folds"] == 2
        # a nested null is absent too, so the echo shows what ran: c = 0.5, degree 1
        base = {"dgp": dgp_to_dict(dgp_d1()), "n": 100, "reps": 2, "threads": 1}
        runs = []
        for extra in ({"hook": {"kind": "constant-g", "c": None}, "nuisance": {"degree": None}},
                      {"hook": {"kind": "constant-g"}}):
            path.write_text(json.dumps({**base, **extra}))
            runs.append(run_json(["simulate", "--config", str(path)], tmp_path / "r.json"))
        (code, doc), (_, plain) = runs
        assert code == 0
        assert doc["config"]["hook"] == {"kind": "constant-g"}
        assert doc["config"]["nuisance"] == {}
        assert doc["report"] == plain["report"]

    @pytest.mark.parametrize("extra, message", [
        ({"folds": 2.7}, None), ({"reps": "3"}, None), ({"seed": "5"}, None),
        ({"level": "0.9"}, None), ({"threads": "2"}, None),
        ({"hook": "zero-mu"}, None), ({"hook": {"kind": "constant-g", "c": "0.5"}}, None),
        ({"nuisance": "degree-2"}, None), ({"dgp": "d1"}, None),
        ({"dgp": {"family": "DiscreteX", "xs": [[0.0]]}}, None),
        ({"study": "infinite-unlabeled", "n_labeled": "20", "ratio": 10},
         "config 'n_labeled' must be an integer, got '20'"),
        ({"study": "infinite-unlabeled", "n_labeled": 20, "ratio": 10.5},
         "config 'ratio' must be an integer, got 10.5"),
        ({"level": 10**400}, None),  # an integer no float can hold
    ])
    def test_simulate_uncoerced_values_exit_2(self, tmp_path, capsys, extra, message):
        assert main(["simulate", "--config", str(simulate_config(tmp_path, extra))]) == 2
        if message is not None:
            assert capsys.readouterr().err == f"simulate: {message}\n"

    @pytest.mark.parametrize("extra", [{"alpha": "0.5"}, {"grid_step": "0.01"},
                                       {"grid_step": -0.01}, {"grid_step": 1e-320}])
    def test_bounds_uncoerced_values_exit_2(self, files, tmp_path, extra):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dgp": str(files["spec"]), "alpha": 0.5, **extra}))
        assert main(["bounds", "--config", str(path)]) == 2

    def test_estimate_ts_riesz_mode_exit_2(self, files, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"riesz_mode": "kl-riesz"}))
        argv = ["estimate-ts", "--labeled", str(files["lab"]), "--unlabeled", str(files["unl"]),
                "--beta-star", "0.5", "--config", str(path)]
        assert main(argv) == 2
        assert "riesz_mode" in capsys.readouterr().err

    @pytest.mark.parametrize("tail, message", [(b"\xff\xfe", "line 2: not UTF-8 text"),
                                               (b"1" * 131_073, "line 2: field larger than")],
                             ids=["not-utf8", "over-long-field"])
    def test_unreadable_csv_exit_2(self, files, tmp_path, capsys, tail, message):
        one, lab = tmp_path / "os.csv", tmp_path / "lab.csv"
        one.write_bytes(b"x1,o,d,y\n0.0,1,1," + tail + b"\n")
        lab.write_bytes(b"x1,d,y\n0.0,1," + tail + b"\n")
        assert main(["estimate-os", "--input", str(one)]) == 2
        assert f"{one}, {message}" in capsys.readouterr().err
        assert main(["estimate-ts", "--labeled", str(lab), "--unlabeled", str(files["unl"]),
                     "--beta-star", "0.5"]) == 2
        assert f"{lab}, {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate-os", "estimate-ts", "bounds", "simulate"])
    def test_unwritable_output_exit_2(self, files, tmp_path, capsys, command):
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"dgp": dgp_to_dict(dgp_d1()), "n": 100, "reps": 2,
                                   "threads": 1}))
        argv = {"estimate-os": ["--input", str(files["os"])],
                "estimate-ts": ["--labeled", str(files["lab"]), "--unlabeled", str(files["unl"]),
                                "--beta-star", "0.5"],
                "bounds": ["--dgp", str(files["spec"])],
                "simulate": ["--config", str(sim)]}[command]
        out = tmp_path / "missing" / "r.json"
        assert main([command, *argv, "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"{command}: cannot write --output: ")

    def test_fractional_indicator_csv_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,o,d,y\n0.0,1.5,1,2.0\n")
        assert main(["estimate-os", "--input", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err


def test_nuisance_options_are_the_config_fields():
    # every NuisanceConfig field is settable from a config, and nothing else is
    values = {"degree": 2, "ridge_lambda": 0.5, "clip_eps": 0.05, "clip_c": 7.0,
              "riesz_mode": "kl-riesz"}
    assert set(values) == {f.name for f in fields(NuisanceConfig)}
    together = _nuisance_from(values)
    for key, val in values.items():
        assert getattr(_nuisance_from({key: val}), key) == val
        assert getattr(together, key) == val


def test_each_command_offers_its_options():
    # the options of every subcommand, in the order its --help lists them
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    offered = {name: [opt for action in sub._actions for opt in action.option_strings]
               for name, sub in commands.choices.items()}
    common = ["-h", "--help", "--config", "--output"]
    estimate = [*common, "--seed", "--level", "--folds", "--degree", "--ridge-lambda",
                "--clip-eps"]
    assert offered == {
        "estimate-os": [*estimate, "--input", "--riesz-mode"],
        "estimate-ts": [*estimate, "--labeled", "--unlabeled", "--beta-star"],
        "bounds": [*common, "--dgp", "--alpha", "--grid-step"],
        "simulate": [*common, "--seed", "--level", "--reps", "--threads"],
    }


class TestEstimateTs:
    def test_missing_beta_star_exit_2(self, files, capsys):
        code = main(["estimate-ts", "--labeled", str(files["lab"]),
                     "--unlabeled", str(files["unl"])])
        assert code == 2
        assert "--beta-star" in capsys.readouterr().err

    def test_success(self, files, tmp_path):
        code, doc = run_json(
            ["estimate-ts", "--labeled", str(files["lab"]),
             "--unlabeled", str(files["unl"]), "--beta-star", "0.5"],
            tmp_path / "r.json",
        )
        assert code == 0
        rep = doc["report"]
        assert rep["method"] == "TS-eff"
        assert abs(rep["tau_hat"] - 0.5) <= 4 * rep["se"]


class TestBounds:
    def test_reference_values(self, files, tmp_path):
        code, doc = run_json(
            ["bounds", "--dgp", str(files["spec"]), "--alpha", "0.5"],
            tmp_path / "b.json",
        )
        assert code == 0
        rep = doc["report"]
        assert rep["tau0"] == 0.5
        assert rep["v_os"] == 8.25
        assert rep["v_tilde_os"] == 8.0
        assert rep["v_ipw"] == 10.0
        assert rep["v_hahn"] == 4.25
        assert rep["beta_star"] == 0.5
        assert rep["v_ts"]["0.5"] == 8.25
        assert rep["v_tilde_ts"] == 4.0

    @pytest.mark.parametrize("flag", ["--seed", "--level"])
    def test_no_seed_or_level_flag(self, files, flag):
        with pytest.raises(SystemExit) as err:
            main(["bounds", "--dgp", str(files["spec"]), flag, "1"])
        assert err.value.code == 2

    def test_mismatched_spec_lengths_exit_2(self, tmp_path, capsys):
        spec = dgp_to_dict(dgp_d1())
        spec["p"] = [0.25, 0.25, 0.5]  # three masses, two support points
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert main(["bounds", "--dgp", str(path)]) == 2
        assert "length 2" in capsys.readouterr().err

    def test_repeated_support_point_exit_2(self, tmp_path, capsys):
        spec = dgp_to_dict(dgp_d1())
        spec["xs"] = [[0.0], [0.0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert main(["bounds", "--dgp", str(path)]) == 2
        assert "distinct" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["-1", "nan"])
    def test_bad_grid_step_without_alpha_exit_2(self, files, capsys, step):
        assert main(["bounds", "--dgp", str(files["spec"]), "--grid-step", step]) == 2
        assert capsys.readouterr().err == "bounds: grid_step must be positive\n"

    def test_no_support_spec_exit_2(self, tmp_path, capsys):
        spec = dgp_to_dict(dgp_d1())
        spec["e1"] = [0.0, 0.5]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        code = main(["bounds", "--dgp", str(path)])
        assert code == 2
        assert "common-support" in capsys.readouterr().err


class TestSimulate:
    def config(self, tmp_path, **extra):
        cfg = {
            "dgp": dgp_to_dict(dgp_d1()),
            "scenario": "one-sample",
            "estimator": "os-eff",
            "n": 400,
            "reps": 10,
            "seed": 9,
        }
        cfg.update(extra)
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_smoke(self, tmp_path):
        import time

        cfg = self.config(tmp_path)
        t0 = time.time()
        code, doc = run_json(["simulate", "--config", str(cfg)], tmp_path / "r.json")
        assert code == 0
        assert time.time() - t0 < 10.0
        assert doc["report"]["reps_completed"] == 10

    def test_level_flag(self, tmp_path):
        cfg = self.config(tmp_path, reps=2)
        code, doc = run_json(["simulate", "--config", str(cfg), "--level", "0.5"],
                             tmp_path / "r.json")
        assert code == 0
        assert doc["config"]["level"] == doc["report"]["level"] == 0.5

    def test_null_seed_is_seed_0(self, tmp_path):
        reports = []
        for seed in (None, 0):
            cfg = self.config(tmp_path, seed=seed, reps=2)
            code, doc = run_json(["simulate", "--config", str(cfg)], tmp_path / "r.json")
            assert code == 0
            reports.append(doc["report"])
        assert reports[0] == reports[1]

    def test_determinism(self, tmp_path):
        cfg = self.config(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["simulate", "--config", str(cfg), "--output", str(a)])
        main(["simulate", "--config", str(cfg), "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_all_failed_writes_strict_json(self, tmp_path):
        cfg = self.config(tmp_path, n=3, reps=4)
        out = tmp_path / "r.json"
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 4

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads(out.read_text(), parse_constant=reject)
        partial = doc["report"]["partial"]
        assert partial["reps_completed"] == 0
        for key in ("coverage", "mc_bias", "mean_tau_hat", "mean_se", "scaled_variance"):
            assert partial[key] is None

    def test_incomplete_exit_4(self, tmp_path):
        cfg = self.config(tmp_path, n=8, reps=20)
        code, doc = run_json(["simulate", "--config", str(cfg)], tmp_path / "r.json")
        assert code == 4
        assert doc["report"]["partial"] is not None


def test_blas_thread_count_leaves_output_unchanged(tmp_path):
    # the same estimates, byte for byte, under one and two OpenBLAS threads
    path, lab, unl = tmp_path / "os.csv", tmp_path / "lab.csv", tmp_path / "unl.csv"
    write_one_sample_csv(sample_one(gaussian_k3(), 20_000, 4), path)
    two = sample_two(gaussian_k3(), 10_000, 10_000, 4)
    write_labeled_csv(two, lab)
    write_unlabeled_csv(two, unl)
    src = str(Path(__file__).resolve().parent.parent / "src")
    for argv in (["estimate-os", "--input", str(path)],
                 ["estimate-os", "--input", str(path), "--riesz-mode", "ls-riesz"],
                 ["estimate-os", "--input", str(path), "--riesz-mode", "kl-riesz"],
                 ["estimate-ts", "--labeled", str(lab), "--unlabeled", str(unl),
                  "--beta-star", "0.5"]):
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            run = subprocess.run([sys.executable, "-m", "ssate.cli", *argv, "--degree", "3"],
                                 env=env, capture_output=True, timeout=300)
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1], argv
