"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--trace 0]
                                [--out perfbench/baseline.json] [--key NAME]
                                [workload ...]

Runs perfbench/run.py once per seed, one run at a time, with run_seconds
from BENCHMARK.json.  For every metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median, and
for end-to-end metrics the bound and whether the spread is under a third of
it.  With --out the values are merged into that JSON file under
workload -> "trace<0|1>" (or --key), next to the stamp of the first run's
record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--key", help="entry name under each workload in --out "
                    "(default trace<0|1>)")
    ap.add_argument("workloads", nargs="*", default=names)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    result = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    worst = 0.0
    for name in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  check=True, cwd=ROOT)
            last = json.loads(done.stdout.strip().splitlines()[-1])
            if not last["correct"]:
                print(done.stdout, file=sys.stderr)
            runs.append(last)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()
                if k in bounds or args.trace), flush=True)
        metrics = {}
        for key in runs[0]["metrics"]:
            metrics[key] = summarize([r["metrics"][key]["value"] for r in runs])
            s = metrics[key]["spread"]
            line = f"  {name} {key}: median {metrics[key]['median']:.6g}, spread {s}"
            if key in bounds:
                line += f", bound {bounds[key]}, " + (
                    "ok" if s is not None and s < bounds[key] / 3 else "WIDE")
                if key != "setup_s" and s is not None:
                    worst = max(worst, s / bounds[key])
            print(line, flush=True)
        entry = {"seeds": [args.first_seed, args.first_seed + args.runs - 1],
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "metrics": metrics}
        result.setdefault(name, {})[args.key or f"trace{args.trace}"] = entry
        record = HERE / "out" / f"{name}-seed{args.first_seed}-trace{args.trace}.json"
        stamp = json.loads(record.read_text())["stamp"]
        result.setdefault("stamp", {k: v for k, v in stamp.items()
                                    if k not in ("workload", "seed", "trace")})
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"largest spread / bound, setup_s aside: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
