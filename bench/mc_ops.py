"""Seconds per op of the Monte Carlo ops of the benchmark's workloads.

Times the four ops of the qsd_mc workload (free: yaglom_estimate from {0}
at lambda 0.5 to t 8, 1000 replicas; dense: lambda 1 to t 16, 300
replicas; chain: the depth-12 chain from key 1 to t 8, 2000 replicas;
alpha: alpha_estimate on the grid 2..10, 1000 replicas) and the two
sampling ops of the edge_log workload (point: sample_edge_distribution of
20 replicas from Finite({0}); interval: 10 replicas from FullInterval(20),
both at lambda 0.5 to t 2), and three chain-walk ops (walk_L12 and
walk_L14: building the walk arrays of the depth-12 and depth-14 chains;
q_process: 20 000 jumps of the h-transformed depth-10 chain).  Each op
runs --repeats times on the seeds
--seed, --seed + 1, ...; the record holds the median and quartiles of its
seconds.  Output checks are the benchmark's business, not this script's.
With --out the record is merged into that JSON file under --key, so runs
of two commits can sit side by side:

    PYTHONPATH=src python bench/mc_ops.py --out BENCH_7.json --key change
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
from cpqsd import spectral as S
from cpqsd import yaglom as Y

LAM = 0.5


def ops():
    g12 = S.build_generator(12, LAM, S.POLICY_CLIP)
    g14 = S.build_generator(14, LAM, S.POLICY_CLIP)
    g10 = S.build_generator(10, LAM, S.POLICY_CLIP)
    res10 = S.dominant_eigenpair(g10)
    split = Y.Splitting()
    return {
        "qsd_mc/free": lambda s: Y.yaglom_estimate({0}, LAM, 8.0, 1000, split,
                                                   12, s),
        "qsd_mc/dense": lambda s: Y.yaglom_estimate({0}, 1.0, 16.0, 300, split,
                                                    12, s),
        "qsd_mc/chain": lambda s: Y.yaglom_estimate(1, LAM, 8.0, 2000, split,
                                                    12, s, gen=g12),
        "qsd_mc/alpha": lambda s: Y.alpha_estimate({0}, LAM, (2, 4, 6, 8, 10),
                                                   1000, s),
        "edge_log/point": lambda s: E.sample_edge_distribution(
            E.Finite({0}), LAM, 2.0, 12, s, 20),
        "edge_log/interval": lambda s: E.sample_edge_distribution(
            E.FullInterval(20), LAM, 2.0, 8, s, 10),
        "chain/walk_L12": lambda s: Y._chain_walk(g12),
        "chain/walk_L14": lambda s: Y._chain_walk(g14),
        "chain/q_process": lambda s: Y.q_process_simulate(res10, g10, 20_000,
                                                          s),
    }


def measure(call, repeats, seed):
    secs = []
    for s in range(seed, seed + repeats):
        t0 = time.perf_counter()
        call(s)
        secs.append(time.perf_counter() - t0)
    q1, med, q3 = np.quantile(secs, [0.25, 0.5, 0.75])
    return {"repeats": repeats, "seconds": {"median": float(med),
                                            "q1": float(q1), "q3": float(q3)}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, default=None,
                    help="JSON file to merge into (default stdout)")
    ap.add_argument("--key", default="run", help="entry name in --out")
    args = ap.parse_args(argv)

    table = ops()
    for call in table.values():  # warm-up: rough-alpha cache, first calls
        call(0)
    results = {}
    for name, call in table.items():
        results[name] = measure(call, args.repeats, args.seed)
        print(name, json.dumps(results[name]), file=sys.stderr, flush=True)
    entry = {
        "command": "PYTHONPATH=src python bench/mc_ops.py "
                   f"--repeats {args.repeats} --seed {args.seed}",
        "USE_NUMBA": bool(_kernels.USE_NUMBA),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__},
        "ops": results,
    }
    if args.out is None:
        sys.stdout.write(json.dumps(entry, indent=1) + "\n")
        return
    record = json.loads(args.out.read_text()) if args.out.exists() else {
        "what": "seconds per op of the qsd_mc ops, the edge_log sampling "
                "ops and the chain-walk ops, median and quartiles over "
                "--repeats seeds"}
    record[args.key] = entry
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
