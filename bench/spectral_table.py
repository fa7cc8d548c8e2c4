"""Decay rate alpha(L) of the depth-L chain under both truncation policies.

Builds and solves build_generator(L, lam, policy) for L = min-L .. max-L
and writes one JSON record: per (L, policy) the decay rate, both
residuals, the solver's iteration count (its applications of Q or Q.T),
state and nonzero counts, build and solve seconds, the semigroup series'
seconds (`series_s`: the benchmark's `law` op, survival_curve(gen, 1,
t = 1..16) and yaglom_exact(gen, 1, 8.0)) and of the conditioned law alone
(`law_s`: yaglom_exact(gen, 1, 8.0), whose products split over two threads
from spectral._SPLIT_NNZ nonzeros), and the process's peak resident
memory twice: `build_peak_mb` right after the build, before the solve,
and `peak_rss_mb` after the series (depths run in increasing order and
the chain doubles with each L, so that peak is the current depth's).  Both
are peaks of the whole process so far: a row measures its own build only
when it is the first in its process, so measure a deep build alone with
--min-L L --max-L L --policy clip (or kill).  Both truncations only
remove infected sites, so alpha_kill(L) >= alpha_clip(L) >= alpha: they
do not bracket the untruncated rate, and `spread` lists kill - clip per
depth.  `convergence` lists per depth the ratio of successive alpha_clip
differences and the Aitken delta-squared limit of alpha_clip(L-2..L), with
the distance to the previous depth's limit as its error.

    PYTHONPATH=src python bench/spectral_table.py --out BENCH_2.json
    PYTHONPATH=src python bench/spectral_table.py --lam 1.3 --min-L 21 \
        --max-L 21 --policy clip
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

import numpy as np
import scipy

from cpqsd import _kernels
from cpqsd import spectral as S

# the survival curve's times in the benchmark's `law` op
TIMES = [float(t) for t in range(1, 17)]


def peak_mb():
    """The process's peak resident memory so far, in MB."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def convergence(alpha):
    """Per depth L of the clip rates alpha[L]: the ratio of the differences
    alpha[L] - alpha[L-1] and alpha[L-1] - alpha[L-2], the Aitken limit of
    the three rates, and |limit(L) - limit(L-1)|; None where undefined."""
    out = []
    limit = None
    for L in sorted(alpha):
        row = {"L": L, "alpha_clip": alpha[L], "ratio": None, "aitken": None,
               "aitken_err": None}
        if L - 2 in alpha:
            d1 = alpha[L - 1] - alpha[L - 2]
            d2 = alpha[L] - alpha[L - 1]
            row["ratio"] = d2 / d1
            prev, limit = limit, alpha[L] - d2 * d2 / (d2 - d1)
            row["aitken"] = limit
            if prev is not None:
                row["aitken_err"] = abs(limit - prev)
        out.append(row)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lam", type=float, default=0.5)
    ap.add_argument("--min-L", type=int, default=2)
    ap.add_argument("--max-L", type=int, default=S._MAX_L)
    ap.add_argument("--policy", choices=(S.POLICY_CLIP, S.POLICY_KILL),
                    default=None, help="one policy (default both)")
    ap.add_argument("--out", default=None, help="JSON file (default stdout)")
    args = ap.parse_args(argv)

    depths = range(args.min_L, args.max_L + 1)
    policies = ((args.policy,) if args.policy
                else (S.POLICY_CLIP, S.POLICY_KILL))
    rows = []
    for L in depths:
        for policy in policies:
            t0 = time.perf_counter()
            gen = S.build_generator(L, args.lam, policy)
            t1 = time.perf_counter()
            build_peak = peak_mb()
            res = S.dominant_eigenpair(gen)
            t2 = time.perf_counter()
            S.survival_curve(gen, 1, TIMES)
            t3 = time.perf_counter()
            S.yaglom_exact(gen, 1, 8.0)
            t4 = time.perf_counter()
            rows.append({
                "L": L, "policy": policy, "nstates": gen.nstates,
                "nnz": int(gen.Q.nnz), "alpha": res.alpha,
                "residual_left": res.residual_left,
                "residual_right": res.residual_right,
                "iterations": res.iterations,
                "build_s": round(t1 - t0, 4), "solve_s": round(t2 - t1, 4),
                "series_s": round(t4 - t2, 4), "law_s": round(t4 - t3, 4),
                "build_peak_mb": build_peak, "peak_rss_mb": peak_mb()})
            del gen, res
            print(json.dumps(rows[-1]), file=sys.stderr, flush=True)

    alpha = {(r["L"], r["policy"]): r["alpha"] for r in rows}
    command = ("PYTHONPATH=src python bench/spectral_table.py "
               f"--lam {args.lam} --min-L {args.min_L} --max-L {args.max_L}")
    record = {
        "what": "alpha(L) of the depth-L truncated chain, "
                + " and ".join(policies),
        "command": command + (f" --policy {args.policy}"
                              if args.policy else ""),
        "USE_NUMBA": bool(_kernels.USE_NUMBA),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__},
        "lambda": args.lam,
        "min_L": args.min_L,
        "max_L": args.max_L,
        "rows": rows,
        "spread": [{"L": L, "alpha_clip": alpha[L, S.POLICY_CLIP],
                    "alpha_kill": alpha[L, S.POLICY_KILL],
                    "width": alpha[L, S.POLICY_KILL] - alpha[L, S.POLICY_CLIP]}
                   for L in depths if args.policy is None],
        "convergence": convergence({L: alpha[L, S.POLICY_CLIP] for L in depths
                                    if args.policy != S.POLICY_KILL}),
    }
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
