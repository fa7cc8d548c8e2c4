"""Seconds per op of the probes that the benchmark has no op for, for one
or more src/ trees.

The ten ops of the benchmark's workloads are timed by perfbench/run.py,
whose every record holds each op kind's median in reference seconds
(`timings.<kind>_s`); read them there.  This script times what those ops
do not show on their own: the query op of the edge_log workload by part
(edge_log/query.evolve, .reach and .jumps: 10 queries on the fixed
401-site, t = 10 log, each an evolve from one site, a reach_backward with
4 point queries and a max_jump_count over 2 time units); log/tiny (1000
calls of sample_event_log plus evolve from -3..0 on SiteWindow(-11, 8,
0.5), the pair the slowest unit test makes 20 000 times); two one-replica
ops (one/point and one/interval: 100 calls of simulate_edge_trajectory
from Finite({0}) and from FullInterval(20), lambda 0.5, t 2, depth 12);
the stragglers op (free/interval_1440: a FreePopulation of 20 replicas
from FullInterval(1440) advanced to t 20 at lambda 0.5, where late steps
carry few replicas); the bulk op (free/bulk_400: 1000 replicas from
FullInterval(400) advanced to t 4 at lambda 0.5, the lockstep free walk
at a size where every step carries many replicas); two chain-walk ops
(walk_L12 and walk_L14: building the walk arrays of the depth-12 and
depth-14 chains); and the chain walk itself (chain/advance_L12: 2000
replicas of the depth-12 chain from key 1 advanced to t 8).

Each repeat runs one fresh child process per tree, in an order that
alternates between repeats, and the child times every op once on the
repeat's seed (--seed, --seed + 1, ...) after a warm-up.  So drift of the
machine's speed lands on every tree alike.  The record holds, per tree,
the median and quartiles of each op's seconds.  These are raw wall
seconds, with no calibration like perfbench's reference seconds: on a
2-core VM, ops of identical code have read up to a third apart between
trees, so a smaller difference is not resolved.  Output checks are the
benchmark's business, not this script's.

    python bench/mc_ops.py --tree parent=../parent/src --tree change=src \\
        --out BENCH_13.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

LAM = 0.5


def ops():
    """name -> call(seed), on the cpqsd found on sys.path."""
    import numpy as np

    from cpqsd import edge as E
    from cpqsd import graphical as G
    from cpqsd import spectral as S
    from cpqsd import yaglom as Y

    g12 = S.build_generator(12, LAM, S.POLICY_CLIP)
    g14 = S.build_generator(14, LAM, S.POLICY_CLIP)
    walk12 = Y._chain_walk(g12)

    def one(init):
        def call(s):
            for r in range(100):
                E.simulate_edge_trajectory(init, LAM, 2.0, 12, s, stream=r)
        return call

    horizon = 10.0
    log = G.sample_event_log(G.SiteWindow(-200, 200, horizon), LAM, 0)

    def queries(s):
        """The inputs of 10 edge_log query ops: (x, s, points)."""
        out = []
        for q in range(10):
            rng = np.random.default_rng((s, q))
            x = int(rng.integers(-150, 151))
            s0 = float(rng.uniform(0.0, horizon))
            points = [(x, s0)] + [(x + int(dx), float(u)) for dx, u in
                                  zip(rng.integers(-5, 6, 3),
                                      rng.uniform(0.0, horizon, 3))]
            out.append((x, s0, points))
        return out

    def evolve_part(qs):
        for x, s0, _ in qs:
            G.evolve({x}, log, s0, horizon)

    def reach_part(qs):
        for _, _, points in qs:
            reach = G.reach_backward(log, horizon)
            for p in points:
                reach(p)

    def jumps_part(qs):
        for x, _, _ in qs:
            G.max_jump_count(x, 0.0, log, 2.0)

    def query(part):
        return lambda s: part(queries(s))

    def tiny(s):
        window = G.SiteWindow(-11, 8, 0.5)
        for r in range(1000):
            G.evolve(range(-3, 1), G.sample_event_log(window, LAM, s, r),
                     0.0, 0.5)

    def stragglers(s):
        words = np.random.SeedSequence((s, 0)).generate_state(20, np.uint64)
        E.FreePopulation(range(-1440, 1), LAM, 20, words).advance_to(20.0)

    def bulk(s):
        words = np.random.SeedSequence((s, 0)).generate_state(1000, np.uint64)
        E.FreePopulation(range(-400, 1), LAM, 1000, words).advance_to(4.0)

    def advance(s):
        words = np.random.SeedSequence((s, 0)).generate_state(2000, np.uint64)
        Y._ChainPopulation(walk12, 1, 2000, words).advance_to(8.0)

    return {
        "edge_log/query.evolve": query(evolve_part),
        "edge_log/query.reach": query(reach_part),
        "edge_log/query.jumps": query(jumps_part),
        "log/tiny": tiny,
        "one/point": one(E.Finite({0})),
        "one/interval": one(E.FullInterval(20)),
        "free/interval_1440": stragglers,
        "free/bulk_400": bulk,
        "chain/walk_L12": lambda s: Y._chain_walk(g12),
        "chain/walk_L14": lambda s: Y._chain_walk(g14),
        "chain/advance_L12": advance,
    }


def child(seed):
    """Time every op once on `seed`, after a warm-up, and print one JSON
    line: the op seconds and USE_NUMBA."""
    import time

    from cpqsd import _kernels

    table = ops()
    # warm-up: every first call but of the two long free-process ops
    for name, call in table.items():
        if name not in ("free/interval_1440", "free/bulk_400"):
            call(0)
    secs = {}
    for name, call in table.items():
        t0 = time.perf_counter()
        call(seed)
        secs[name] = time.perf_counter() - t0
    print(json.dumps({"USE_NUMBA": bool(_kernels.USE_NUMBA), "seconds": secs}))


def run_child(src, seed):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    done = subprocess.run([sys.executable, __file__, "--child", str(seed)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(secs):
    import numpy as np

    q1, med, q3 = np.quantile(secs, [0.25, 0.5, 0.75])
    return {"repeats": len(secs), "seconds": {"median": float(med),
                                              "q1": float(q1), "q3": float(q3)}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", default=[],
                    help="NAME=SRC_DIR, a src/ tree to time (repeatable; "
                         "default change=src)")
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, default=None,
                    help="JSON file to write (default stdout)")
    ap.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        child(args.child)
        return

    trees = dict(t.split("=", 1) for t in args.tree) or {"change": "src"}
    names = list(trees)
    runs = {name: [] for name in names}
    for r in range(args.repeats):
        order = names if r % 2 == 0 else names[::-1]
        for name in order:
            runs[name].append(run_child(trees[name], args.seed + r))
            print(name, args.seed + r, json.dumps(runs[name][-1]["seconds"]),
                  file=sys.stderr, flush=True)
    import numpy as np
    import scipy

    record = {
        "what": "seconds per op of the probes the benchmark has no op "
                "for: the edge_log query op by part, the tiny-log op, the "
                "one-replica, stragglers and bulk ops of the free process "
                "and the chain-walk ops, median and quartiles over --repeats "
                "seeds; each repeat times every tree in a fresh child "
                "process, in alternating order.  The benchmark's own ops "
                "are in timings.<kind>_s of the perfbench/run.py records, "
                "in reference seconds; these raw seconds leave a "
                "difference below about a third unresolved",
        "command": "python bench/mc_ops.py "
                   + " ".join(f"--tree {n}=<{n}>/src" for n in names)
                   + f" --repeats {args.repeats} --seed {args.seed}",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__},
    }
    for name in names:
        ops_seen = runs[name][0]["seconds"]
        record[name] = {
            "USE_NUMBA": runs[name][0]["USE_NUMBA"],
            "ops": {op: summary([run["seconds"][op] for run in runs[name]])
                    for op in ops_seen},
        }
    text = json.dumps(record, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)


if __name__ == "__main__":
    main()
