"""Seconds per op of the Monte Carlo and exact-chain ops, for one or more
src/ trees.

The ops: the four of the qsd_mc workload (free: yaglom_estimate from {0}
at lambda 0.5 to t 8, 1000 replicas; dense: lambda 1 to t 16, 300
replicas; chain: the depth-12 chain from key 1 to t 8, 2000 replicas;
alpha: alpha_estimate on the grid 2..10, 1000 replicas); the two sampling
ops of the edge_log workload (point: sample_edge_distribution of 20
replicas from Finite({0}); interval: 10 replicas from FullInterval(20),
both at lambda 0.5 to t 2); two one-replica ops (one/point and
one/interval: 100 calls of simulate_edge_trajectory from Finite({0}) and
from FullInterval(20), lambda 0.5, t 2, depth 12); the query op of the
edge_log workload (edge_log/query: 10 queries on the fixed 401-site,
t = 10 log, each an evolve from one site, a reach_backward with 4 point
queries and a max_jump_count over 2 time units), and the same 10 queries
timed by part (edge_log/query.evolve, .reach and .jumps); log/tiny (1000
calls of sample_event_log plus evolve from -3..0 on SiteWindow(-11, 8,
0.5), the pair the slowest unit test makes 20 000 times); the stragglers op
(free/interval_1440: a FreePopulation of 20 replicas from FullInterval(1440)
advanced to t 20 at lambda 0.5, where late steps carry few replicas); and
three chain-walk ops (walk_L12 and walk_L14: building the walk arrays of
the depth-12 and depth-14 chains; q_process: 20 000 jumps of the
h-transformed depth-10 chain); and the three ops of the exact_chain
workload at depth 16 and lambda 0.5 (solve_clip and solve_kill: build and
solve the chain under each policy; law: survival_curve from key 1 at
t = 1..16 and yaglom_exact from key 1 at t = 8).

Each repeat runs one fresh child process per tree, in an order that
alternates between repeats, and the child times every op once on the
repeat's seed (--seed, --seed + 1, ...) after a warm-up.  So drift of the
machine's speed lands on every tree alike.  The record holds, per tree,
the median and quartiles of each op's seconds.  Output checks are the
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
    g10 = S.build_generator(10, LAM, S.POLICY_CLIP)
    g16 = S.build_generator(16, LAM, S.POLICY_CLIP)
    res10 = S.dominant_eigenpair(g10)
    split = Y.Splitting()

    def one(init):
        def call(s):
            for r in range(100):
                E.simulate_edge_trajectory(init, LAM, 2.0, 12, s, stream=r)
        return call

    def solve(policy):
        return lambda s: S.dominant_eigenpair(S.build_generator(16, LAM,
                                                                policy))

    def law(s):
        S.survival_curve(g16, 1, [float(t) for t in range(1, 17)])
        S.yaglom_exact(g16, 1, 8.0)

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

    def query(*parts):
        def call(s):
            qs = queries(s)
            for part in parts:
                part(qs)
        return call

    def tiny(s):
        window = G.SiteWindow(-11, 8, 0.5)
        for r in range(1000):
            G.evolve(range(-3, 1), G.sample_event_log(window, LAM, s, r),
                     0.0, 0.5)

    def stragglers(s):
        words = np.random.SeedSequence((s, 0)).generate_state(20, np.uint64)
        E.FreePopulation(range(-1440, 1), LAM, 20, words).advance_to(20.0)

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
        "edge_log/query": query(evolve_part, reach_part, jumps_part),
        "edge_log/query.evolve": query(evolve_part),
        "edge_log/query.reach": query(reach_part),
        "edge_log/query.jumps": query(jumps_part),
        "log/tiny": tiny,
        "one/point": one(E.Finite({0})),
        "one/interval": one(E.FullInterval(20)),
        "free/interval_1440": stragglers,
        "chain/walk_L12": lambda s: Y._chain_walk(g12),
        "chain/walk_L14": lambda s: Y._chain_walk(g14),
        "chain/q_process": lambda s: Y.q_process_simulate(res10, g10, 20_000,
                                                          s),
        "exact_chain/solve_clip": solve(S.POLICY_CLIP),
        "exact_chain/solve_kill": solve(S.POLICY_KILL),
        "exact_chain/law": law,
    }


def child(seed):
    """Time every op once on `seed`, after a warm-up, and print one JSON
    line: the op seconds and USE_NUMBA."""
    import time

    from cpqsd import _kernels
    from cpqsd import yaglom as Y

    table = ops()
    # warm-up: the rough-alpha cache of both rates and every first call
    for lam in (LAM, 1.0):
        Y.yaglom_estimate({0}, lam, 1.0, 64, Y.Splitting(), 4, 0)
    for name, call in table.items():
        if name != "free/interval_1440":
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
        "what": "seconds per op of the qsd_mc ops, the edge_log sampling "
                "and query ops (the query op also by part), the tiny-log "
                "op, the one-replica and stragglers ops of the free "
                "process, the chain-walk ops and the exact_chain ops, "
                "median and quartiles over "
                "--repeats seeds; each repeat times every tree in a fresh "
                "child process, in alternating order",
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
