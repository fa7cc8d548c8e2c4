"""Self-check of the benchmark's tracing.

    python3 perfbench/selfcheck.py [--seed N] [workload ...]

For each workload (all three by default): set up once, run one round
untraced, then the same round (same op seeds) traced.  Passes when every
op gives identical outputs both times (keys, weights, alpha, ...), every
traced op recorded at least one top-level span, and every wrapped
attribute is the original object again afterwards.  Exits 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys

import run
from spans import Tracer


def check_workload(name, seed):
    wl = run.set_up(name, seed)
    import layers

    plain = run.run_round(wl, seed, 0)
    tracer = Tracer()
    layers.instrument(tracer)
    patched = tracer.patched()
    try:
        traced = run.run_round(wl, seed, 0, tracer)
    finally:
        tracer.restore()

    problems = []
    for a, b in zip(plain, traced):
        if (a["kind"], a["ok"], a["summary"]) != (b["kind"], b["ok"], b["summary"]):
            problems.append(f"op {a['index']} ({a['kind']}) differs when traced")
        if tracer.top_level_seconds([b["index"]]) <= 0:
            problems.append(f"op {b['index']} ({b['kind']}) left no span")
        problems += [f"op {a['index']} ({a['kind']}): {p}" for p in a["problems"]]
    for owner, attr, orig in patched:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if now is not orig:
            problems.append(f"{owner.__name__}.{attr} not restored")
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*",
                    default=["exact_chain", "qsd_mc", "edge_log"])
    args = ap.parse_args(argv)
    failed = False
    for name in args.workloads:
        problems = check_workload(name, args.seed)
        for p in problems:
            print(f"{name}: {p}")
        print(f"{name}: {'FAIL' if problems else 'ok'}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
