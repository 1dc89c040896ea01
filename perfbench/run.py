"""ssate benchmark: two closed-loop workloads and one traced pass.

    python3 perfbench/run.py --workload {io-100k,mc-small} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout: the package is imported from
./src, nothing is built or installed. The inputs (DGP coefficients,
datasets, CSV files, Monte Carlo seeds) are drawn from --seed, except
the fixed replication block of the two Riesz Monte Carlo studies (see
MC_STUDIES). Scratch files live under ./.bench_work and are removed on
exit.

Each workload is one client running cycles back to back (a closed loop)
until --seconds have passed:

  io-100k    write a 100k-row one-sample CSV, then run a fresh
             `python -m ssate.cli estimate-os` on it and a fresh
             `estimate-ts` on a 50k labeled + 50k unlabeled pair;
  mc-small   run_mc at nproc workers for os-eff, ts-eff, ls-riesz and
             kl-riesz studies at n=400 (m=l=400).

A third workload, in-process estimator calls at n=100k, was dropped to
give these two longer runs: on a shared 2-core host, run-to-run speed
shifts of 5-10% are the benchmark's noise floor, and only longer runs
average them down. The large-n estimator calls still run inside the
io-100k CLI calls, and the traced pass reports their layers from there.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With --trace 0 the metrics are the end-to-end
ones of BENCHMARK.json, measured untraced:

  setup_s      median of three set-ups, each in a fresh interpreter
               (import ssate, build the inputs, warm up);
  peak_rss_mb  peak resident set of the client or any child process;
  os_s, ts_s   median one-sample / two-sample operation of the run:
               a CLI call, or one MC replication (a study's wall time
               over its replications);
  cycle_s      median whole cycle of the run.

The line before it starts with "detail " and holds every step's median,
minimum, sample count and tail percentile under the step's own name
(csv_write_s, cli_os_s, cli_ts_s, mc_os_reps_per_s, ...), and the
error rate.

With --trace 1, --seconds is not used: one cycle of every workload runs
untraced and then twice traced (Monte Carlo at one process), and the
metrics are the per-layer ones. The deterministic counts of the two
traced passes must match exactly.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from spans import Tracer, install, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("io-100k", "mc-small")
NPROC = len(os.sched_getaffinity(0))
BETA = 0.5
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
SUBPROCESS_TIMEOUT = 150
N_ONE, M_TWO, L_TWO = 100_000, 50_000, 50_000
# (study, reps, riesz_mode, fixed McConfig seed). Reps are sized so each
# study takes about a second at two processes. minimize_gd stops a Riesz
# fit either within ~1,000 steps or at its 5,000-step cap, fold by fold,
# so a seed-drawn block of a few replications would cost anywhere from
# 0.1x to 2x the typical block. The two Riesz studies therefore run one
# fixed block of replications (both regimes occur in it) in every run,
# so every run does the same solver work; the mle-g studies, whose
# cost does not depend on the draw, take their seeds from --seed.
MC_STUDIES = (("os", 200, "mle-g", None), ("ts", 200, "mle-g", None),
              ("lsif", 4, "ls-riesz", 1), ("ukl", 10, "kl-riesz", 1))
LAYERS = ("import", "datamodel", "estimators", "nuisance", "optimize",
          "simharness", "oracle", "cli", "bench")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run(cmd):
    return subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def make_dgp(seed):
    """k=3 Gaussian-linear DGP: a fixed base whose coefficients the seed
    moves by up to 0.05 each.

    The base keeps observation and treatment probabilities well inside
    (0, 1) and the outcome model is linear, so every fit succeeds and the
    estimators are consistent whatever the weights. Wider seed-drawn
    coefficients would change the Newton iteration counts from seed to
    seed (+-2 of 12 at m=l=50k), and with them the work a run measures.
    """
    import numpy as np
    from ssate.oracle import GaussianLinearDgp

    rng = np.random.default_rng([seed, 0])

    def near(base):
        return np.asarray(base, dtype=float) + rng.uniform(-0.05, 0.05, np.shape(base))

    p_mean, p_var = near([0.0, 0.0, 0.0]), near([1.0, 1.0, 1.0])
    return GaussianLinearDgp(
        p_mean=p_mean, p_var=p_var,
        mu1_coef=near([1.0, 0.5, -0.3, 0.2]), mu0_coef=near([0.0, 0.2, 0.1, -0.1]),
        s2_1=float(near(1.0)), s2_0=float(near(1.0)),
        e_coef=near([0.0, 0.3, -0.2, 0.1]), pi_coef=near([0.4, 0.2, 0.1, -0.1]),
        q_mean=p_mean + near([0.1, 0.0, -0.1]), q_var=p_var * near([1.1, 1.0, 0.9]),
    )


def _seeds(seed, tag, n):
    import numpy as np
    return [int(s) for s in np.random.default_rng([seed, tag]).integers(0, 2**31, n)]


def _within_5se(tau, se, tau0):
    return math.isfinite(tau) and math.isfinite(se) and se > 0 and abs(tau - tau0) <= 5 * se


# ---------------------------------------------------------------------------
# Workloads: set-up builds the inputs, then a list of timed steps
# ---------------------------------------------------------------------------

@dataclass
class Step:
    name: str                    # per-step metric, e.g. "cli_os_s"
    role: Optional[str]          # "os" / "ts" end-to-end metric it feeds
    reps: int                    # units of work per call (MC replications)
    call: Callable[[Optional[Tracer]], object]
    check: Callable[[object], bool]


class IoWorkload:
    name = "io-100k"

    def __init__(self, seed, work):
        from ssate import datamodel, oracle, simharness

        self.datamodel = datamodel
        self.work = work
        dgp = make_dgp(seed)
        s_one, s_two, self.fold_seed = _seeds(seed, 1, 3)
        self.one = simharness.sample_one(dgp, N_ONE, s_one)
        two = simharness.sample_two(dgp, M_TWO, L_TWO, s_two)
        self.os_csv, lab, unl = work / "one.csv", work / "labeled.csv", work / "unlabeled.csv"
        datamodel.write_labeled_csv(two, lab)
        datamodel.write_unlabeled_csv(two, unl)
        self.tau0 = {"os": oracle.true_ate(dgp), "ts": oracle.true_ate(dgp, BETA)}
        self.args = {
            "os": ["estimate-os", "--input", str(self.os_csv), "--seed", str(self.fold_seed)],
            "ts": ["estimate-ts", "--labeled", str(lab), "--unlabeled", str(unl),
                   "--beta-star", str(BETA), "--seed", str(self.fold_seed)],
        }
        self.csv_digest = None
        self.stdout = {}

    def _write(self, tracer):
        self.datamodel.write_one_sample_csv(self.one, self.os_csv)

    def _check_write(self, _):
        digest = hashlib.sha256(self.os_csv.read_bytes()).hexdigest()
        if self.csv_digest is None:
            import numpy as np
            back = self.datamodel.read_one_sample_csv(self.os_csv)
            if not all(np.array_equal(getattr(back, f), getattr(self.one, f)) for f in "xody"):
                return False
            self.csv_digest = digest
        return digest == self.csv_digest

    def _cli(self, kind):
        def call(tracer):
            if tracer is None:
                return _run([sys.executable, "-m", "ssate.cli"] + self.args[kind])
            spans_path = self.work / f"spans-{kind}.json"
            proc = _run([sys.executable, str(BENCH / "traced_cli.py"), str(spans_path)]
                        + self.args[kind])
            tracer.merge(spans_path)
            return proc

        def check(proc):
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return False
            first = self.stdout.setdefault(kind, proc.stdout)
            out = json.loads(proc.stdout)
            rep = out["report"]
            return (proc.stdout == first and out["schema"] == "ssate/v1"
                    and _within_5se(rep["tau_hat"], rep["se"], self.tau0[kind]))

        return call, check

    def steps(self):
        os_call, os_check = self._cli("os")
        ts_call, ts_check = self._cli("ts")
        return [Step("csv_write_s", None, 1, self._write, self._check_write),
                Step("cli_os_s", "os", 1, os_call, os_check),
                Step("cli_ts_s", "ts", 1, ts_call, ts_check)]


class McWorkload:
    name = "mc-small"

    def __init__(self, seed, work):
        from ssate import estimators, oracle, simharness

        self.simharness = simharness
        seeds = _seeds(seed, 3, len(MC_STUDIES))
        self.configs = {}
        for (study, reps, mode, fixed), s in zip(MC_STUDIES, seeds):
            s = s if fixed is None else fixed
            nuisance = estimators.NuisanceConfig(riesz_mode=mode)
            if study == "ts":
                cfg = simharness.McConfig(dgp=oracle.dgp_d2(), scenario="two-sample",
                                          estimator="ts-eff", m=400, l=400, beta_star=BETA,
                                          reps=reps, seed=s, nuisance=nuisance)
            else:
                cfg = simharness.McConfig(dgp=oracle.dgp_d1(), scenario="one-sample",
                                          estimator="os-eff", n=400, reps=reps, seed=s,
                                          nuisance=nuisance)
            self.configs[study] = cfg
        # warm-up: one replication in-process, then a few through a process
        # pool (the first pool of a process starts up to twice as slowly)
        warm = simharness.McConfig(dgp=oracle.dgp_d1(), scenario="one-sample", n=400,
                                   reps=1, seed=seed)
        simharness.run_mc(warm, threads=1)
        simharness.run_mc(replace(warm, reps=2 * NPROC), threads=NPROC)
        self.reference = None

    def compute_reference(self):
        """One-process reports the parallel runs must equal; returns wall times."""
        self.reference, walls = {}, {}
        for study, cfg in self.configs.items():
            t0 = perf_counter()
            self.reference[study] = self.simharness.run_mc(cfg, threads=1)
            walls[study] = perf_counter() - t0
        return walls

    def _check(self, study):
        def check(rep):
            ref = self.reference[study]
            return (not rep.failures and rep.to_dict() == ref.to_dict()
                    and rep.reps_completed == self.configs[study].reps
                    and _within_5se(rep.mean_tau_hat, rep.mean_se / math.sqrt(rep.reps_completed),
                                    rep.tau0))
        return check

    def steps(self, threads=NPROC):
        out = []
        for study, reps, _, _ in MC_STUDIES:
            call = (lambda tracer, cfg=self.configs[study]:
                    self.simharness.run_mc(cfg, threads=threads))
            role = study if study in ("os", "ts") else None
            out.append(Step(f"mc_{study}_reps_per_s", role, reps, call, self._check(study)))
        return out


WORKLOAD_CLASSES = {cls.name: cls for cls in (IoWorkload, McWorkload)}


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------

class Tally:
    """Attempted and failed operations; a failure is an exception or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, step, tracer=None):
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = step.call(tracer)
        except Exception:  # keep measuring; the failure is counted and reported
            traceback.print_exc()
            self.failed += 1
            return perf_counter() - t0
        dt = perf_counter() - t0
        try:
            ok = bool(step.check(result))
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            sys.stderr.write(f"incorrect result from {step.name}\n")
            self.failed += 1
        return dt


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    vals = sorted(values)
    n = len(vals)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return {"p": p, "value": vals[max(0, math.ceil(p / 100 * n) - 1)]}
    return None


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def setup_probe(workload, seed, work):
    """Set the workload up in a fresh interpreter; returns its set-up seconds."""
    proc = _run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", "0", "--trace", "0",
                 "--setup-probe", str(work)])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def importtime():
    """Median cumulative import seconds of ssate and scipy.stats (-X importtime)."""
    samples = {"ssate": [], "scipy.stats": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = _run([sys.executable, "-X", "importtime", "-c", "import ssate"])
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


def src_lines():
    return sum(p.read_bytes().count(b"\n") for p in sorted((SRC / "ssate").glob("*.py")))


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def measure(workload, seed, seconds, work):
    setup_samples = []
    for i in range(SETUP_REPEATS - 1):
        probe_dir = work / f"probe-{i}"
        probe_dir.mkdir()
        setup_samples.append(setup_probe(workload, seed, probe_dir))
        shutil.rmtree(probe_dir)
    t0 = perf_counter()
    wl = WORKLOAD_CLASSES[workload](seed, work)
    setup_samples.append(perf_counter() - t0)
    if isinstance(wl, McWorkload):
        wl.compute_reference()

    steps = wl.steps()
    tally = Tally()
    per_step = {s.name: [] for s in steps}
    cycles = []
    start = perf_counter()
    while not cycles or perf_counter() - start < seconds:
        total = 0.0
        for step in steps:
            dt = tally.run(step)
            per_step[step.name].append(dt / step.reps)
            total += dt
        cycles.append(total)

    # The gated timings are run medians. On a shared 2-core host one call
    # differs from the next by 10-20% and whole stretches of a run slow
    # together; across runs, run minima spread up to 1.6 times as much
    # as run medians. Minima stay on the detail line.
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "cycle_s": (statistics.median(cycles), "s"),
    }
    for step in steps:
        if step.role:
            metrics[f"{step.role}_s"] = (statistics.median(per_step[step.name]), "s")

    detail = {"workload": workload, "nproc": NPROC, "cycles": len(cycles),
              "setup_samples_s": setup_samples,
              "error_rate": tally.failed / tally.attempted, "steps": {}}
    for step in steps:
        secs = per_step[step.name]
        med = statistics.median(secs)
        value, unit = (1.0 / med, "1/s") if step.name.endswith("_reps_per_s") else (med, "s")
        detail["steps"][step.name] = {"value": value, "unit": unit, "n": len(secs),
                                      "median_s_per_unit": med, "min_s_per_unit": min(secs),
                                      "tail_s_per_unit": tail(secs)}
    return tally, metrics, detail


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def trace(seed, work):
    import ssate.cli

    imports = importtime()
    workloads = [IoWorkload(seed, work), McWorkload(seed, work)]
    mc = workloads[-1]
    tally = Tally()

    def steps(wl):
        return wl.steps(threads=1) if wl is mc else wl.steps()

    # untraced pass: the one-process reference reports are its Monte Carlo
    # part; one more nproc run of each study gives the parallel efficiency
    walls_1 = mc.compute_reference()
    untraced = {f"{mc.name}/mc_{study}_reps_per_s": wall for study, wall in walls_1.items()}
    for wl in workloads[:-1]:
        for step in steps(wl):
            untraced[f"{wl.name}/{step.name}"] = tally.run(step)
    walls_n = [tally.run(step) for step in mc.steps(threads=NPROC)]
    parallel_efficiency = sum(walls_1.values()) / (NPROC * sum(walls_n))

    passes = []
    for _ in range(2):
        tracer = Tracer()
        install(tracer, ssate)
        walls = {}
        try:
            for wl in workloads:
                for step in steps(wl):
                    op = f"{wl.name}/{step.name}"
                    tracer.op = op
                    t0 = perf_counter()
                    with tracer.span(f"bench.{step.name}"):
                        tally.run(step, tracer)
                    walls[op] = perf_counter() - t0
        finally:
            tracer.restore()
        passes.append((tracer, walls))

    (tracer, walls), (second, _) = passes
    counts_a, counts_b = tracer.counts, second.counts
    if counts_a != counts_b:
        sys.stderr.write(f"deterministic counts differ between traced passes:\n"
                         f"{counts_a}\n{counts_b}\n")
        tally.attempted += 1
        tally.failed += 1

    spans = tracer.spans
    selfs = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for sp, s in zip(spans, selfs):
        layer_self[sp[0].split(".")[0]] += s

    def dur(prefix, name, use_self=False):
        return sum(s if use_self else sp[2] - sp[1] for sp, s in zip(spans, selfs)
                   if sp[0] == name and sp[4].startswith(prefix))

    def count(prefix, key):
        return sum(c.get(key, 0) for op, c in counts_a.items() if op.startswith(prefix))

    traced_wall = sum(walls.values())
    untraced_wall = sum(untraced.values())
    overhead = traced_wall - untraced_wall
    reads = dur("io-100k", "datamodel.read_one_sample_csv") + dur("io-100k", "datamodel.read_two_sample_csv")
    m = {
        "import.ssate_s": (imports["ssate"], "s"),
        "import.scipy_stats_s": (imports["scipy.stats"], "s"),
        "datamodel.read_one_sample_csv_s": (dur("io-100k", "datamodel.read_one_sample_csv"), "s"),
        "datamodel.read_two_sample_csv_s": (dur("io-100k", "datamodel.read_two_sample_csv"), "s"),
        "datamodel.parse_rows_per_s": ((N_ONE + M_TWO + L_TWO) / reads, "1/s"),
        "datamodel.write_one_sample_csv_s": (dur("io-100k", "datamodel.write_one_sample_csv"), "s"),
        "datamodel.from_arrays_calls": (count("mc-small", "datamodel.from_arrays_calls"), "count"),
        "datamodel.from_arrays_s": (dur("mc-small", "datamodel.from_arrays"), "s"),
        "nuisance.fit_outcome_both_s": (dur("io-100k", "nuisance.fit_outcome_both"), "s"),
        "nuisance.fit_gmodel_mle_s": (dur("io-100k", "nuisance.fit_gmodel_mle"), "s"),
        "nuisance.fit_e_model_s": (dur("io-100k", "nuisance.fit_e_model"), "s"),
        "nuisance.fit_density_ratio_s": (dur("io-100k", "nuisance.fit_density_ratio"), "s"),
        "nuisance.fit_riesz_lsif_s": (dur("mc-small", "nuisance.fit_riesz_lsif"), "s"),
        "nuisance.fit_riesz_ukl_s": (dur("mc-small", "nuisance.fit_riesz_ukl"), "s"),
        "nuisance.transform_calls": (count("mc-small/mc_os", "nuisance.transform_calls"), "count"),
        "nuisance.transform_s": (dur("mc-small/mc_os", "nuisance.transform"), "s"),
        "optimize.newton_iters": (count("io-100k", "optimize.newton_iters"), "count"),
        "optimize.newton_fun_evals": (count("io-100k", "optimize.newton_fun_evals"), "count"),
        "optimize.newton_s": (dur("io-100k", "optimize.minimize_newton"), "s"),
        "optimize.gd_iters": (count("mc-small", "optimize.gd_iters"), "count"),
        "optimize.gd_fun_evals": (count("mc-small", "optimize.gd_fun_evals"), "count"),
        "optimize.gd_s": (dur("mc-small", "optimize.minimize_gd"), "s"),
        "estimators.estimate_os_eff_self_s": (dur("mc-small/mc_os", "estimators.estimate_os_eff", True), "s"),
        "estimators.estimate_ts_eff_self_s": (dur("mc-small/mc_ts", "estimators.estimate_ts_eff", True), "s"),
        "simharness.sample_one_s": (dur("mc-small", "simharness.sample_one"), "s"),
        "simharness.sample_two_s": (dur("mc-small", "simharness.sample_two"), "s"),
        "simharness.parallel_efficiency": (parallel_efficiency, "ratio"),
        "oracle.true_ate_s": (dur("mc-small", "oracle.true_ate"), "s"),
        "cli.emit_s": (dur("io-100k", "cli.emit"), "s"),
        "package.src_lines": (src_lines(), "count"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_share": (overhead / untraced_wall, "ratio"),
        "error_rate": (tally.failed / tally.attempted, "ratio"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    detail = {"nproc": NPROC, "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
              "span_self_sum_s": sum(selfs), "spans": len(spans), "counts": counts_a,
              "traced_op_wall_s": walls, "untraced_op_wall_s": untraced}
    return tally, m, detail


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "ssate" / "__init__.py").is_file():
        sys.stderr.write(f"no ssate sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        t0 = perf_counter()
        WORKLOAD_CLASSES[args.workload](args.seed, Path(args.setup_probe))
        print(perf_counter() - t0)
        return 0

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            tally, metrics, detail = trace(args.seed, work)
        else:
            tally, metrics, detail = measure(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
