"""The three benchmark workloads: set-up, the ops of one round, and the
output check of every op.

Every op calls cpqsd's public functions through their module attribute
(S.build_generator, not a from-import), so that a Tracer can wrap them.
An op is (kind, call, check): call(op_seed) does the timed work and
returns its raw output; check(raw) is not timed and returns (summary,
problems), where summary holds the values the self-check compares between
traced and untraced runs and problems lists every failed output check.
"""

from __future__ import annotations

import math

import numpy as np

from cpqsd import edge as E
from cpqsd import graphical as G
from cpqsd import spectral as S
from cpqsd import yaglom as Y
from cpqsd.errors import CensoredError, ParameterError, ResolutionError

# Errors that make an op count as failed; anything else is a bug and
# propagates.
OP_ERRORS = (ParameterError, ResolutionError, CensoredError)

LAM = 0.5  # the infection rate every test and ROADMAP baseline uses
K_SIGMA = 4.0

# Decay rates of the depth-16 chain at lambda=0.5, computed at the commit
# that introduced this benchmark; a solver change must reproduce them.
ALPHA16 = {S.POLICY_CLIP: 0.4090237077, S.POLICY_KILL: 0.4090831700}
ALPHA_TOL = 1e-8
RESIDUAL_TOL = 1e-10


def op_seed(seed, index):
    """Seed of op `index` in a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def warm_up():
    """One small call of every public entry point the workloads use.

    Runs each kernel entry point once (a JIT compile lands here when numba
    is present) and fills yaglom's rough-alpha cache for both rates used
    below.  Fixed inputs: the warm-up is part of set-up, not a measured op.
    """
    g8 = S.build_generator(8, LAM, S.POLICY_CLIP)
    S.dominant_eigenpair(g8)
    S.survival_curve(g8, 1, [1.0])
    S.yaglom_exact(g8, 1, 1.0)
    for lam in (LAM, 1.0):
        Y.yaglom_estimate({0}, lam, 1.0, 64, Y.Splitting(), 4, 0)
    Y.yaglom_estimate(1, LAM, 1.0, 64, Y.Splitting(), 4, 0, gen=g8)
    Y.alpha_estimate({0}, LAM, (1.0, 2.0, 3.0), 256, 0)
    E.sample_edge_distribution(E.Finite({0}), LAM, 0.5, 4, 0, 2)
    log = G.sample_event_log(G.SiteWindow(-20, 20, 2.0), LAM, 0)
    G.evolve({0}, log, 0.0, 2.0)
    G.reach_backward(log, 2.0)((0, 0.0))
    G.max_jump_count(0, 0.0, log, 1.0)


def _splitting_sigma(diag, replicas):
    """Standard deviation of the splitting survival estimate.

    Delta method on log weight, sum over stages of (1 - f)/(f * ess), with
    the final grouped ESS standing in for every stage's population ESS.
    That ESS is the smallest of them, so sigma is not understated."""
    var = 0.0
    for c in diag["survivor_counts"]:
        f = c / replicas
        var += (1.0 - f) / (f * diag["ess"])
    return diag["weight"] * math.sqrt(var)


def _yaglom_summary(result):
    dist, diag = result
    summary = {"weight": diag["weight"], "ess": diag["ess"],
               "stages": len(diag["stages"]),
               "keys": sorted(dist.weights.items())}
    return dist, diag, summary


def _tv_bound(p, ess):
    """TV distance an empirical law of `ess` effective draws from p stays
    under except with probability about 1e-4: the mean bound
    (1/2) sum sqrt(p(1-p)/n) plus a McDiarmid deviation sqrt(ln(1e4)/(2n))."""
    mean = 0.5 * sum(math.sqrt(q * (1.0 - q) / ess) for q in p.values())
    return mean + math.sqrt(math.log(1e4) / (2.0 * ess))


class ExactChain:
    """`spectral` does the work: build and solve the depth-16 chain under
    both policies, then its survival curve and conditioned law.  No Monte
    Carlo, so inputs do not depend on the seed."""

    name = "exact_chain"
    CALIBRATION = ("sparse",)  # the calibration loops that track its speed
    L = 16

    def setup(self, seed):
        self.gen = S.build_generator(self.L, LAM, S.POLICY_CLIP)
        self.alpha = {}

    def _solve(self, policy):
        def call(_seed):
            return S.dominant_eigenpair(S.build_generator(self.L, LAM, policy))

        def check(res):
            problems = []
            if max(res.residual_left, res.residual_right) > RESIDUAL_TOL:
                problems.append(f"residuals {res.residual_left:.3e}, "
                                f"{res.residual_right:.3e} above {RESIDUAL_TOL}")
            if abs(res.alpha - ALPHA16[policy]) > ALPHA_TOL:
                problems.append(f"alpha_{policy} {res.alpha!r} != {ALPHA16[policy]}")
            self.alpha[policy] = res.alpha
            if policy == S.POLICY_KILL and not (
                    self.alpha.get(S.POLICY_CLIP, -math.inf) <= res.alpha):
                problems.append("alpha_clip > alpha_kill")
            return {"alpha": res.alpha, "iterations": res.iterations}, problems

        return "solve_" + policy, call, check

    def _law(self):
        times = [float(t) for t in range(1, 17)]

        def call(_seed):
            return (S.survival_curve(self.gen, 1, times),
                    S.yaglom_exact(self.gen, 1, 8.0))

        def check(res):
            curve, law = res
            problems = []
            if not all(b < a for a, b in zip([1.0] + curve, curve)):
                problems.append("survival curve not strictly decreasing")
            if np.any(law < 0) or abs(float(law.sum()) - 1.0) > 1e-12:
                problems.append(f"yaglom_exact sums to {float(law.sum())!r}")
            return {"curve": curve, "law_sum": float(law.sum())}, problems

        return "law", call, check

    def round_ops(self):
        return [self._solve(S.POLICY_CLIP), self._solve(S.POLICY_KILL), self._law()]

    def finish(self):
        return []


class QsdMc:
    """`yaglom` splitting and the direct-event kernels do the work; spectral
    runs only here in set-up, at depth <= 14, to give the references."""

    name = "qsd_mc"
    CALIBRATION = ("python", "numpy_scalar")
    CYLINDER = 6

    def setup(self, seed):
        self.g12 = S.build_generator(12, LAM, S.POLICY_CLIP)
        self.surv12 = S.survival_curve(self.g12, 1, [8.0])[0]
        law = S.vector_distribution(self.g12, S.yaglom_exact(self.g12, 1, 8.0))
        self.law6 = E.cylinder_restrict(law, self.CYLINDER)
        # exact survival of the depth-14 chain under both policies; the
        # free process must land inside this bracket up to sampling error
        self.bracket = {}
        for lam, t in ((LAM, 8.0), (1.0, 16.0)):
            gens = {p: S.build_generator(14, lam, p)
                    for p in (S.POLICY_CLIP, S.POLICY_KILL)}
            self.bracket[lam] = sorted(S.survival_curve(g, 1, [t])[0]
                                       for g in gens.values())
            if lam == LAM:
                self.alpha_ref = S.dominant_eigenpair(gens[S.POLICY_CLIP]).alpha

    def _free(self, kind, lam, t, replicas):
        def call(seed):
            return Y.yaglom_estimate({0}, lam, t, replicas, Y.Splitting(), 12, seed)

        def check(res):
            _, diag, summary = _yaglom_summary(res)
            lo, hi = self.bracket[lam]
            sig = _splitting_sigma(diag, replicas)
            problems = []
            if not lo - K_SIGMA * sig <= diag["weight"] <= hi + K_SIGMA * sig:
                problems.append(f"weight {diag['weight']:.5g} outside "
                                f"[{lo:.5g}, {hi:.5g}] +- {K_SIGMA}*{sig:.3g}")
            return summary, problems

        return kind, call, check

    def _chain(self, replicas=2000):
        def call(seed):
            return Y.yaglom_estimate(1, LAM, 8.0, replicas, Y.Splitting(), 12,
                                     seed, gen=self.g12)

        def check(res):
            dist, diag, summary = _yaglom_summary(res)
            sig = _splitting_sigma(diag, replicas)
            problems = []
            if abs(diag["weight"] - self.surv12) > K_SIGMA * sig:
                problems.append(f"weight {diag['weight']:.5g} vs exact "
                                f"{self.surv12:.5g} +- {K_SIGMA}*{sig:.3g}")
            tv = E.tv_distance(E.cylinder_restrict(dist, self.CYLINDER), self.law6)
            bound = _tv_bound(self.law6.normalized(), diag["ess"])
            if tv > bound:
                problems.append(f"TV {tv:.4f} above {bound:.4f}")
            summary["tv"] = tv
            return summary, problems

        return "chain", call, check

    def _alpha(self):
        def call(seed):
            return Y.alpha_estimate({0}, LAM, (2, 4, 6, 8, 10), 1000, seed)

        def check(res):
            a, se = res
            problems = []
            if abs(a - self.alpha_ref) > K_SIGMA * se:
                problems.append(f"alpha {a:.5g} vs {self.alpha_ref:.5g} "
                                f"+- {K_SIGMA}*{se:.3g}")
            return {"alpha": a, "stderr": se}, problems

        return "alpha", call, check

    def round_ops(self):
        # free: many stages, small clusters (resampling loop weighs);
        # dense: few stages, large clusters (per-event site scan weighs)
        return [self._free("free", LAM, 8.0, 1000),
                self._free("dense", 1.0, 16.0, 300),
                self._chain(),
                self._alpha()]

    def finish(self):
        return []


def _censored(dist):
    n = dist.meta["censored"]
    return [f"{n} censored replicas"] if n else []


class EdgeLog:
    """`graphical`/`edge` and the mark kernels do the work: fresh marks per
    replica (writes) next to many queries on one fixed log (reads)."""

    name = "edge_log"
    CALIBRATION = ("python", "numpy_scalar")
    QUERIES_PER_ROUND = 10
    HORIZON = 10.0

    def setup(self, seed):
        self.log = G.sample_event_log(G.SiteWindow(-200, 200, self.HORIZON), LAM, seed)
        self.surv2 = S.survival_curve(S.build_generator(12, LAM, S.POLICY_CLIP),
                                      1, [2.0])[0]
        self.replicas = 0
        self.survivors = 0

    def _point(self, replicas=20):
        def call(seed):
            return E.sample_edge_distribution(E.Finite({0}), LAM, 2.0, 12, seed,
                                              replicas)

        def check(dist):
            dead = dist.weights.get(0, 0.0)
            self.replicas += replicas
            self.survivors += replicas - dead
            return {"keys": sorted(dist.weights.items())}, _censored(dist)

        return "point", call, check

    def _interval(self, replicas=10):
        def call(seed):
            return E.sample_edge_distribution(E.FullInterval(20), LAM, 2.0, 8,
                                              seed, replicas)

        def check(dist):
            return {"keys": sorted(dist.weights.items())}, _censored(dist)

        return "interval", call, check

    def _query(self):
        def call(seed):
            rng = np.random.default_rng(seed)
            x = int(rng.integers(-150, 151))
            s = float(rng.uniform(0.0, self.HORIZON))
            points = [(x, s)] + [(x + int(dx), float(u)) for dx, u in
                                 zip(rng.integers(-5, 6, 3),
                                     rng.uniform(0.0, self.HORIZON, 3))]
            cfg = G.evolve({x}, self.log, s, self.HORIZON)
            reach = G.reach_backward(self.log, self.HORIZON)
            answers = [reach(p) for p in points]
            jumps = G.max_jump_count(x, 0.0, self.log, 2.0)
            return cfg, answers, jumps

        def check(res):
            cfg, answers, (count, censored) = res
            problems = []
            if answers[0] != bool(cfg):
                problems.append("reach_backward disagrees with evolve")
            if cfg.censored:
                problems.append("evolve censored")
            if censored:
                problems.append("max_jump_count censored")
            return {"evolve": sorted(cfg), "reach": answers, "jumps": count}, problems

        return "query", call, check

    def round_ops(self):
        return [self._point(), self._interval()] + [
            self._query() for _ in range(self.QUERIES_PER_ROUND)]

    def finish(self):
        """Pooled check: survival from {0} to t=2 against the exact chain."""
        p = self.surv2
        n = self.replicas
        sig = math.sqrt(p * (1.0 - p) / n)
        frac = self.survivors / n
        problems = []
        if abs(frac - p) > K_SIGMA * sig:
            problems.append(f"survival {frac:.4f} over {n} replicas vs exact "
                            f"{p:.4f} +- {K_SIGMA}*{sig:.4f}")
        return [("pooled_survival", {"frac": frac, "replicas": n}, problems)]


WORKLOADS = {w.name: w for w in (ExactChain, QsdMc, EdgeLog)}
