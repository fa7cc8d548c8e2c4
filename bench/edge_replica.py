"""Seconds per replica of edge.simulate_edge_trajectory.

Times batches of replicas (streams 0 .. replicas-1) of the free process at
lambda = 0.5 to t = 2, from Finite({0}) read at depth 12 and from
FullInterval(20) read at depth 8, the two starts of the benchmark's
edge_log workload.  Each start runs --repeats batches; the record holds
the median and quartiles of the per-replica seconds over the batches and
the survival fraction of one batch.  With --out the record is merged into
that JSON file under --key, so runs of two commits can sit side by side:

    PYTHONPATH=src python bench/edge_replica.py --out BENCH_3.json --key change
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from cpqsd import _kernels
from cpqsd import edge as E

LAM = 0.5
T = 2.0
STARTS = {"Finite({0})": (E.Finite({0}), 12),
          "FullInterval(20)": (E.FullInterval(20), 8)}


def measure(init, depth, replicas, repeats, seed):
    per_replica = []
    survived = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        trajs = [E.simulate_edge_trajectory(init, LAM, T, depth, seed, stream=r)
                 for r in range(replicas)]
        per_replica.append((time.perf_counter() - t0) / replicas)
        survived = sum(tr.survived for tr in trajs)
    q1, med, q3 = np.quantile(per_replica, [0.25, 0.5, 0.75])
    return {"depth": depth, "replicas": replicas, "repeats": repeats,
            "per_replica_s": {"median": float(med), "q1": float(q1),
                              "q3": float(q3)},
            "survived_frac": survived / replicas}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--replicas", type=int, default=200)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, default=None,
                    help="JSON file to merge into (default stdout)")
    ap.add_argument("--key", default="run", help="entry name in --out")
    args = ap.parse_args(argv)

    starts = {}
    for name, (init, depth) in STARTS.items():
        starts[name] = measure(init, depth, args.replicas, args.repeats,
                               args.seed)
        print(name, json.dumps(starts[name]), file=sys.stderr, flush=True)
    entry = {
        "command": "PYTHONPATH=src python bench/edge_replica.py "
                   f"--replicas {args.replicas} --repeats {args.repeats} "
                   f"--seed {args.seed}",
        "USE_NUMBA": bool(_kernels.USE_NUMBA),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__},
        "starts": starts,
    }
    if args.out is None:
        sys.stdout.write(json.dumps(entry, indent=1) + "\n")
        return
    record = json.loads(args.out.read_text()) if args.out.exists() else {
        "what": "seconds per replica of edge.simulate_edge_trajectory, "
                f"lambda {LAM}, t {T}"}
    record[args.key] = entry
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
