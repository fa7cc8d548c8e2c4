"""Run one cpqsd benchmark workload and print its metrics.

    python3 perfbench/run.py --workload qsd_mc --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from the `src/` directory next
to `perfbench/`, never from an installed copy.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced and traced rounds and reports the per-layer metrics, with the
tracing overhead.  A full record (stamp, every op's duration, check results
and, when traced, every span) goes to perfbench/out/.

One process, one thread, closed loop: each op starts when the previous one
has returned.  A round is one op of each kind of the workload; rounds
repeat until --seconds have passed and at least MIN_ROUNDS have run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import SETUP_OP, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5  # cold set-ups per run: this process plus four children
SETUP_CALIBRATIONS = 8  # taken right after each set-up
MIN_ROUNDS = 4  # a traced run needs two untraced and two traced rounds
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def load_package():
    """Import cpqsd from SRC; raise ImportError if it is missing there."""
    sys.path.insert(0, str(SRC))
    import cpqsd

    where = Path(cpqsd.__file__).resolve().parent.parent
    if where != SRC.resolve():
        raise ImportError(f"cpqsd imported from {where}, expected {SRC}")


def set_up(name, seed, tracer=None):
    """Import the package, warm up every entry point and build the
    workload's inputs.  Returns the workload object."""
    load_package()
    import workloads

    if tracer is not None:
        import layers

        layers.instrument(tracer)
    try:
        workloads.warm_up()
        wl = workloads.WORKLOADS[name]()
        wl.setup(seed)
    finally:
        if tracer is not None:
            tracer.restore()
    return wl


def child_set_up(name, seed):
    """Set-up reference seconds of a fresh process running the same set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                          check=True, cwd=ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_round(wl, seed, first_index, tracer=None, after_op=None):
    """Run one op of each kind; after_op(seconds) runs after each op,
    untimed."""
    import workloads

    results = []
    for j, (kind, call, check) in enumerate(wl.round_ops()):
        index = first_index + j
        s = workloads.op_seed(seed, index)
        if tracer is not None:
            tracer.op = index
        t0 = time.perf_counter()
        try:
            raw = call(s)
            error = None
        except workloads.OP_ERRORS as exc:
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        summary = None
        if error is None:
            try:
                summary, problems = check(raw)
            except workloads.OP_ERRORS as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        results.append({"index": index, "kind": kind, "seconds": seconds,
                        "ok": not problems, "problems": problems,
                        "summary": summary})
        if after_op is not None:
            results[-1]["cal"] = after_op(seconds)
    if tracer is not None:
        tracer.op = SETUP_OP
    return results


def timing_stats(values):
    """Median, sample count and the highest percentile that still has at
    least ten samples above it (none when there are fewer than 20)."""
    out = {"n": len(values), "median": statistics.median(values)}
    ordered = sorted(values)
    for p in PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= 10:
            out[f"p{p:g}"] = ordered[math.ceil(p / 100.0 * len(values)) - 1]
            break
    return out


def git_commit():
    """Commit hash read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(args):
    import numpy
    import scipy
    from cpqsd import _kernels

    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "USE_NUMBA": bool(_kernels.USE_NUMBA), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": git_commit()}


def round_seconds(rounds):
    """Reference seconds of each round (see calibrate.py)."""
    return [sum(op["ref_s"] for op in r) for r in rounds]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["exact_chain", "qsd_mc", "edge_log"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up seconds and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv=None):
    t_start = time.perf_counter()
    args = parse_args(argv)
    tracer = Tracer() if args.trace else None
    try:
        wl = set_up(args.workload, args.seed, tracer)
    except ImportError as exc:
        print(f"cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 2
    setup_raw = time.perf_counter() - t_start

    import calibrate

    cal = calibrate.Calibration()
    setup_s = setup_raw * calibrate.scale(
        [cal.sample() for _ in range(SETUP_CALIBRATIONS)], wl.CALIBRATION)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s]
    if not args.trace:
        setups += [child_set_up(args.workload, args.seed)
                   for _ in range(SETUP_REPEATS - 1)]

    import layers

    owed = [0.0]  # calibrations owed for the timed work done so far

    def sample_speed(op_seconds):
        owed[0] += op_seconds / calibrate.CAL_EVERY_S
        taken = []
        while owed[0] >= 1.0:
            taken.append(cal.sample())
            owed[0] -= 1.0
        return taken

    rounds, traced_rounds = [], []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while (len(rounds) + len(traced_rounds) < MIN_ROUNDS
           or time.perf_counter() < deadline):
        traced = bool(args.trace) and len(rounds) > len(traced_rounds)
        if traced:
            layers.instrument(tracer)
        try:
            ops = run_round(wl, args.seed, index, tracer if traced else None,
                            sample_speed)
        finally:
            if traced:
                tracer.restore()
        index += len(ops)
        (traced_rounds if traced else rounds).append(ops)

    pooled = [{"kind": kind, "ok": not problems, "problems": problems,
               "summary": summary} for kind, summary, problems in wl.finish()]
    all_ops = [op for r in rounds + traced_rounds for op in r] + pooled
    everything = [c for op in all_ops for c in op.get("cal", [])]
    for r in rounds + traced_rounds:
        # a round too short to owe a calibration takes the run's mean
        factor = calibrate.scale([c for op in r for c in op["cal"]] or everything,
                                 wl.CALIBRATION)
        for op in r:
            op["ref_s"] = op["seconds"] * factor
    failed = sum(not op["ok"] for op in all_ops)
    attempted = len(all_ops)
    plain = round_seconds(rounds)

    if args.trace:
        traced_s = round_seconds(traced_rounds)
        op_ids = [[op["index"] for op in r] for r in traced_rounds]
        metrics = layers.per_layer_metrics(tracer, op_ids)
        covered = [tracer.top_level_seconds(ids) / sum(op["seconds"] for op in r)
                   for ids, r in zip(op_ids, traced_rounds)]
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_s) - statistics.median(plain),
            "unit": "s"}
        metrics["trace.coverage"] = {"value": statistics.median(covered),
                                     "unit": "ratio"}
    else:
        metrics = {
            "round_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }

    kinds = {}
    for r in rounds:
        for op in r:
            kinds.setdefault(op["kind"], []).append(op["ref_s"])
    record = {
        "stamp": stamp(args),
        "metrics": metrics,
        "timings": {"round_s": timing_stats(plain), "setup_s": setups,
                    **{k + "_s": timing_stats(v) for k, v in kinds.items()}},
        "ops": all_ops,
        "untraced_rounds": [[op["index"] for op in r] for r in rounds],
        "traced_rounds": [[op["index"] for op in r] for r in traced_rounds],
    }
    if tracer is not None:
        record["trace"] = tracer.dump()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, default=_plain)
        fh.write("\n")

    for problem in (p for op in all_ops for p in op["problems"]):
        print(f"check failed: {problem}")
    print(f"{args.workload}: {len(plain)} untraced and {len(traced_rounds)} "
          f"traced rounds, {attempted} ops, {failed} failed; record in {path}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _plain(obj):
    """JSON fallback for numpy scalars."""
    return obj.item() if hasattr(obj, "item") else str(obj)


if __name__ == "__main__":
    sys.exit(main())
