#!/usr/bin/env python3
"""The braidcalc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (rack-tower, cyclo-tower, enveloping, cli-cache) from the
root of a checkout and prints, as its last line, one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones (wall_s, setup_s, peak_rss_mb); with --trace 1 they are
the per-layer ones from a traced process, plus the tracing overhead.

Every round runs in a fresh single-threaded worker process (worker.py), so
no memo or cache of the library survives from one round to the next.
Untraced runs start rounds until the next one would end after --seconds
(at least one), then set-up-only workers until there are five set-up
samples.  cli-cache instead starts four workers, each doing its cold pass
and then warm passes for a quarter of --seconds.  Reported values are
medians over rounds, set-ups and workers; times are in reference seconds,
scaled by the machine speed each worker measures (see README.md).

    python3 perfbench/run.py --steady 10 --workload NAME --seconds S

is the steadiness mode: it runs the benchmark with seeds 1..10 and prints
the median and quartiles of every end-to-end metric, with the spread
(q3 - q1) / median next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
from inputs import make_inputs  # noqa: E402

WORKLOADS = ("rack-tower", "cyclo-tower", "enveloping", "cli-cache")
MIN_SETUPS = 5          # set-up samples per untraced run
CLI_WORKERS = 4         # cli-cache workers per untraced run, one cold pass each
TRACE_PAIRS = 3         # untraced and traced workers in a traced run
TRACE_CLI_PASSES = 100  # warm passes in each cli-cache worker of a traced run
RUN_DEADLINE = 170.0    # seconds; a run must end within 180
CALIB_REF_S = 0.010     # calibration loop time that defines a reference second


class BenchError(Exception):
    pass


class Run:
    def __init__(self, workload, seed, workdir, started):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = started
        self.count = 0

    def spawn(self, inputs, mode, max_rounds, seconds):
        """One worker process, waited for; returns its result dict."""
        self.count += 1
        # the oracle data describes the inputs for the checks; the program
        # gets the inputs alone
        inputs = {k: v for k, v in inputs.items() if k != "oracle"}
        if self.workload == "cli-cache":
            inputs["cache_dir"] = os.path.join(self.workdir, "cache%d" % self.count)
        spec = {"workload": self.workload, "inputs": inputs, "mode": mode,
                "max_rounds": max_rounds, "seconds": seconds,
                "spans_path": os.path.join(
                    OUT, "spans-%s-seed%d.jsonl" % (self.workload, self.seed))}
        spec_path = os.path.join(self.workdir, "spec%d.json" % self.count)
        result_path = os.path.join(self.workdir, "result%d.json" % self.count)
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
        remaining = RUN_DEADLINE - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("no time left for another worker")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), spec_path,
                 result_path],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("worker exceeded the %.0f s deadline" % RUN_DEADLINE)
        if proc.returncode != 0:
            raise BenchError("worker exited %d:\n%s" % (
                proc.returncode, proc.stderr[-3000:]))
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)


def speed(worker):
    """Scale factor from the worker's measured seconds to reference seconds:
    CALIB_REF_S over the median time of its calibration loop."""
    return CALIB_REF_S / statistics.median(worker["calib"])


def run_untraced(run, inputs, seconds):
    workers, setups = [], []
    if run.workload == "cli-cache":
        for _ in range(CLI_WORKERS):
            workers.append(run.spawn(inputs, "round", 10 ** 9,
                                     max(0.5, seconds / CLI_WORKERS)))
            setups.append((workers[-1], workers[-1]["setup_s"]))
    else:
        while True:
            t0 = time.monotonic()
            workers.append(run.spawn(inputs, "round", 1, 0.0))
            setups.append((workers[-1], workers[-1]["setup_s"]))
            cost = time.monotonic() - t0
            if time.monotonic() - run.started + cost > seconds:
                break
        while len(setups) < MIN_SETUPS:
            only = run.spawn(inputs, "setup", 0, 0.0)
            setups.append((only, only["setup_s"]))
    walls = [t * speed(w) for w in workers for t in w["round_walls"]]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median([s * speed(w) for w, s in setups]), "s"),
        "peak_rss_mb": (statistics.median([w["peak_rss_mb"] for w in workers]), "MiB"),
    }
    print("# measured, not scaled: wall %.6f s, setup %.6f s; machine speed "
          "%.3f" % (statistics.median([t for w in workers for t in w["round_walls"]]),
                    statistics.median([s for _, s in setups]),
                    statistics.median([speed(w) for w in workers])))
    return workers, metrics


def run_traced(run, inputs):
    """TRACE_PAIRS untraced and traced workers, alternating; layer metrics
    come from the last traced worker, whose span log stays in OUT, and the
    overhead from the medians."""
    rounds = TRACE_CLI_PASSES if run.workload == "cli-cache" else 1
    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(run.spawn(inputs, "round", rounds, float("inf")))
        traced.append(run.spawn(inputs, "traced", rounds, float("inf")))
    problems = []
    for p, t in zip(plain, traced):
        if t["results"] != p["results"] or t["setup_result"] != p["setup_result"]:
            problems.append("results differ with tracing on and off")

    def wall(workers):
        # in reference seconds, like wall_s: the workers run at different
        # moments and the machine's speed may differ between them
        return statistics.median(
            statistics.median(w["round_walls"]) * speed(w) for w in workers)
    last = traced[-1]
    metrics = {k: (v[0], v[1]) for k, v in last["layers"].items()}
    metrics["trace.overhead_s"] = (wall(traced) - wall(plain), "s")
    metrics["trace.overhead_ratio"] = (wall(traced) / wall(plain), "ratio")
    metrics["trace.spans"] = (last["spans"], "count")
    if last["missing_targets"]:
        print("# tracer: not found in braidcalc: %s"
              % ", ".join(last["missing_targets"]))
    return plain + traced, metrics, problems


def run_once(workload, seed, seconds, trace, size, refs_override=None):
    """One benchmark run; returns the result object printed as the last line."""
    started = time.monotonic()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "work-%s-%d" % (workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        inputs = make_inputs(workload, seed, size, workdir)
        refs = checks.references(workload, inputs)
        if refs_override:
            refs = refs_override(refs)
        run = Run(workload, seed, workdir, started)
        if trace:
            workers, metrics, problems = run_traced(run, inputs)
        else:
            (workers, metrics), problems = run_untraced(run, inputs, seconds), []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for w in workers:
        problems += checks.check(workload, inputs, refs, w)
    for w in workers:
        for err in w["errors"]:
            print("# failed operation: %s" % err)
    for p in problems:
        print("# check failed: %s" % p)
    print("# env: %s" % json.dumps({
        "workload": workload, "seed": seed, "size": size,
        "backend": workers[0]["backend"], "python": platform.python_version(),
        "cores": os.cpu_count(), "workers": len(workers),
        "rounds": sum(len(w["round_walls"]) for w in workers)}))
    for name, (value, unit) in metrics.items():
        print("# %-34s %14.6f %s" % (name, value, unit))
    return {
        "correct": not problems,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def steady(workload, runs, seconds, size):
    """Runs the benchmark with seeds 1..runs; prints quartiles per metric."""
    bounds = {}
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path, encoding="utf-8") as fh:
            bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values, shares = {}, []
    for seed in range(1, runs + 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
             "--size", size], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append(result["failed"] / result["attempted"])
        measured = [line[2:] for line in proc.stdout.splitlines()
                    if line.startswith("# measured")]
        print("seed %2d correct=%s attempted=%d failed=%d %s | %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            " ".join("%s=%.4f" % (k, v["value"])
                     for k, v in result["metrics"].items()),
            "".join(measured)), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print("%-12s %10s %10s %10s %8s %6s" % ("metric", "median", "q1", "q3",
                                             "spread", "bound"))
    for k, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print("%-12s %10.4f %10.4f %10.4f %8.4f %6s" % (
            k, med, q1, q3, (q3 - q1) / med, bounds.get(k, "-")))
    print("failed share per run: %s" % sorted(set(shares)))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="braidcalc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every degree, for smoke tests")
    parser.add_argument("--steady", type=int, default=0, metavar="RUNS",
                        help="steadiness mode: this many runs, seeds 1..RUNS")
    opts = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "braidcalc", "__init__.py")):
        print("run.py: no braidcalc sources at %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    if opts.steady:
        return steady(opts.workload, opts.steady, opts.seconds, opts.size)
    try:
        result = run_once(opts.workload, opts.seed, opts.seconds, opts.trace,
                          opts.size)
    except BenchError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
