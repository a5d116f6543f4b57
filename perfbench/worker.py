"""One workload process: set up, run rounds, write a JSON result file.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds the workload name, its generated inputs, the mode ("round",
"setup" or "traced"), how many rounds to run at most and for how long.
Set-up time runs from the first braidcalc import to the end of set-up.
A round is timed from its first operation to its last; results are turned
into JSON values after the clock stops.  Later rounds must give the same
results as the first.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CALIB_EVERY = 1.0  # seconds between calibrations inside a worker
SRC = os.path.join(os.path.dirname(HERE), "src")


def _plain(value):
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def calibrate(samples, reps=5):
    """Appends the times of a fixed Fraction-and-dict loop: the machine's
    current speed, measured next to the timed work."""
    from fractions import Fraction
    for _ in range(reps):
        t0 = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 1500):
            acc += Fraction(i, i + 1) * Fraction(3, 7)
            table[i % 97] = acc
        samples.append(time.perf_counter() - t0)


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import braidcalc
    import braidcalc.cli  # noqa: F401  (loaded before the tracer wraps it)

    if os.path.dirname(os.path.abspath(braidcalc.__file__)) != os.path.join(SRC, "braidcalc"):
        raise SystemExit("braidcalc was not imported from %s" % SRC)
    from workloads import WORKLOADS

    tracer = None
    if spec["mode"] == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    setup_fn, ops_fn = WORKLOADS[spec["workload"]]
    inp = spec["inputs"]
    state = setup_fn(inp)
    setup_s = time.perf_counter() - start
    out = {"setup_s": setup_s, "round_walls": [], "calib": [], "results": None,
           "setup_result": None, "attempted": 0, "failed": 0, "errors": [],
           "unstable_rounds": 0}
    if "cold" in state:
        # the cold pass runs every CLI job once: operations of their own
        out["setup_result"] = _plain(state["cold"])
        out["attempted"] += len(state["cold"])
        out["failed"] += sum(1 for code, _ in state["cold"] if code)
    first_round, last_calib = time.perf_counter(), None
    rounds = 0
    while spec["mode"] != "setup" and rounds < spec["max_rounds"]:
        ops = ops_fn(inp, state)
        raw = []
        if last_calib is None or time.perf_counter() - last_calib >= CALIB_EVERY:
            calibrate(out["calib"])
            last_calib = time.perf_counter()
        t0 = time.perf_counter()
        for name, fn in ops:
            try:
                raw.append((name, True, fn()))
            except Exception as exc:  # an operation that fails is counted
                raw.append((name, False, "%s: %s" % (type(exc).__name__, exc)))
        wall = time.perf_counter() - t0
        out["round_walls"].append(wall)
        results = {name: _plain(value) for name, ok, value in raw if ok}
        out["attempted"] += len(raw)
        for name, ok, value in raw:
            if not ok:
                out["failed"] += 1
                if len(out["errors"]) < 10:
                    out["errors"].append("%s: %s" % (name, value))
        if out["results"] is None:
            out["results"] = results
        elif results != out["results"]:
            out["unstable_rounds"] += 1
        rounds += 1
        if time.perf_counter() - first_round + wall > spec["seconds"]:
            break
    calibrate(out["calib"])
    out["backend"] = braidcalc.scalars.Q.__module__
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = {k: list(v) for k, v in tracer.layer_metrics().items()}
        out["spans"] = len(tracer.spans)
        out["missing_targets"] = tracer.missing
        tracer.write_jsonl(spec["spans_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
