"""Which cpqsd functions the traced run wraps, and the per-layer metrics
computed from their spans and counters.

Each function is wrapped where its caller looks it up: the benchmark calls
cpqsd.<module>.<name>; yaglom reaches spectral through its own imported
names; the samplers reach the kernels through `_kernels.<name>`.  Only
kernel entry points called from other modules are wrapped; gillespie_free
is not, because the interpreted gillespie_free_batch looks it up once per
replica and a wrapper there would time the tracer, not the kernel.
"""

from __future__ import annotations

from cpqsd import _kernels as K
from cpqsd import edge as E
from cpqsd import graphical as G
from cpqsd import spectral as S
from cpqsd import yaglom as Y

from spans import SETUP_OP, setup_plus_median


def _on_generator(tr, args, gen):
    tr.count("spectral.nstates", gen.nstates)
    tr.count("spectral.nnz", gen.Q.nnz)


def _on_eigenpair(tr, args, res):
    tr.count("spectral.dominant_eigenpair.iterations", res.iterations)
    tr.keep_max("spectral.residual_max", max(res.residual_left, res.residual_right))


def _on_yaglom(tr, args, res):
    _, diag = res
    replicas = args[3]
    tr.count("yaglom.stages", len(diag["stages"]))
    tr.count("yaglom.survivors", sum(diag["survivor_counts"]))
    tr.count("yaglom.stage_slots", replicas * len(diag["stages"]))
    tr.count("yaglom.ess", diag["ess"])
    tr.count("yaglom.replicas", replicas)
    tr.count("yaglom.clipped", diag["clipped"])


def _on_gen_marks(tr, args, n):
    if n >= 0:
        tr.count("_kernels.gen_marks.marks", n)
    else:
        tr.count("_kernels.gen_marks.retries")


def _on_evolve_sweep(tr, args, touched):
    tr.count("_kernels.evolve_sweep.calls")


def _on_trajectory(tr, args, traj):
    tr.count("edge.trajectories")
    tr.count("edge.survived", traj.survived)
    tr.count("edge.censored", traj.censored)
    tr.count("edge.clipped", traj.clipped > 0)


def _on_event_log(tr, args, log):
    tr.count("graphical.marks", len(log))


# (owner, attribute, span name, result hook)
WRAPS = [
    (S, "build_generator", "spectral.build_generator", _on_generator),
    (Y, "build_generator", "spectral.build_generator", _on_generator),
    (S, "dominant_eigenpair", "spectral.dominant_eigenpair", _on_eigenpair),
    (Y, "dominant_eigenpair", "spectral.dominant_eigenpair", _on_eigenpair),
    (S, "survival_curve", "spectral.survival_curve", None),
    (S, "yaglom_exact", "spectral.yaglom_exact", None),
    (Y, "yaglom_estimate", "yaglom.yaglom_estimate", _on_yaglom),
    (Y, "alpha_estimate", "yaglom.alpha_estimate", None),
    (K, "gillespie_free_batch", "_kernels.gillespie_free_batch", None),
    (K, "gillespie_chain_batch", "_kernels.gillespie_chain_batch", None),
    (K, "gen_marks", "_kernels.gen_marks", _on_gen_marks),
    (K, "sort_marks", "_kernels.sort_marks", None),
    (K, "evolve_sweep", "_kernels.evolve_sweep", _on_evolve_sweep),
    (K, "backward_sweep", "_kernels.backward_sweep", None),
    (K, "jump_dp", "_kernels.jump_dp", None),
    (E, "sample_edge_distribution", "edge.sample_edge_distribution", None),
    (E, "simulate_edge_trajectory", "edge.simulate_edge_trajectory", _on_trajectory),
    (E, "evolve", "graphical.evolve", None),
    (G, "evolve", "graphical.evolve", None),
    (G, "sample_event_log", "graphical.sample_event_log", _on_event_log),
    (G, "reach_backward", "graphical.reach_backward", None),
    (G.BackwardReach, "query", "graphical.BackwardReach.query", None),
    (G, "max_jump_count", "graphical.max_jump_count", None),
]


def instrument(tracer):
    for owner, attr, name, hook in WRAPS:
        tracer.wrap(owner, attr, name, hook)


# Per-layer metric -> (how it is reduced, source, unit).  Times and counts
# are the set-up's share plus the median round's; "self" subtracts child
# spans; ratios pool every traced call; "max" is the largest value seen.
# Metrics of `_kernels` are named kernels.*: a metric name starts with a
# letter.
PER_LAYER = {
    "spectral.build_generator.s": ("time", "spectral.build_generator", "s"),
    "spectral.dominant_eigenpair.s": ("time", "spectral.dominant_eigenpair", "s"),
    "spectral.dominant_eigenpair.iterations": (
        "count", "spectral.dominant_eigenpair.iterations", "count"),
    "spectral.residual_max": ("max", "spectral.residual_max", "1"),
    "spectral.nstates": ("count", "spectral.nstates", "count"),
    "spectral.nnz": ("count", "spectral.nnz", "count"),
    "spectral.survival_curve.s": ("time", "spectral.survival_curve", "s"),
    "spectral.yaglom_exact.s": ("time", "spectral.yaglom_exact", "s"),
    "yaglom.yaglom_estimate.self_s": ("self", "yaglom.yaglom_estimate", "s"),
    "yaglom.alpha_estimate.self_s": ("self", "yaglom.alpha_estimate", "s"),
    "yaglom.stages": ("count", "yaglom.stages", "count"),
    "yaglom.survivor_frac": ("ratio", ("yaglom.survivors", "yaglom.stage_slots"), "ratio"),
    "yaglom.ess_frac": ("ratio", ("yaglom.ess", "yaglom.replicas"), "ratio"),
    "yaglom.clipped": ("count", "yaglom.clipped", "count"),
    "kernels.gillespie_free_batch.s": ("time", "_kernels.gillespie_free_batch", "s"),
    "kernels.gillespie_chain_batch.s": ("time", "_kernels.gillespie_chain_batch", "s"),
    "kernels.gen_marks.s": ("time", "_kernels.gen_marks", "s"),
    "kernels.gen_marks.marks": ("count", "_kernels.gen_marks.marks", "count"),
    "kernels.gen_marks.retries": ("count", "_kernels.gen_marks.retries", "count"),
    "kernels.sort_marks.s": ("time", "_kernels.sort_marks", "s"),
    "kernels.evolve_sweep.s": ("time", "_kernels.evolve_sweep", "s"),
    "kernels.evolve_sweep.calls": ("count", "_kernels.evolve_sweep.calls", "count"),
    "kernels.backward_sweep.s": ("time", "_kernels.backward_sweep", "s"),
    "kernels.jump_dp.s": ("time", "_kernels.jump_dp", "s"),
    "edge.simulate_edge_trajectory.self_s": ("self", "edge.simulate_edge_trajectory", "s"),
    "edge.censored": ("count", "edge.censored", "count"),
    "edge.clipped": ("count", "edge.clipped", "count"),
    "edge.survived_frac": ("ratio", ("edge.survived", "edge.trajectories"), "ratio"),
    "graphical.evolve.self_s": ("self", "graphical.evolve", "s"),
    "graphical.reach_backward.s": ("time", "graphical.reach_backward", "s"),
    "graphical.BackwardReach.query.s": ("time", "graphical.BackwardReach.query", "s"),
    "graphical.max_jump_count.s": ("time", "graphical.max_jump_count", "s"),
    "graphical.sample_event_log.s": ("time", "graphical.sample_event_log", "s"),
    "graphical.marks": ("count", "graphical.marks", "count"),
}


def per_layer_metrics(tracer, rounds):
    """Values of PER_LAYER from a traced set-up and traced rounds (lists of
    op ids).  Every workload's set-up warms up every entry point, so every
    source has at least one call."""
    totals = tracer.per_op()
    selfs = tracer.per_op(self_time=True)
    counts = tracer.counter_per_op()
    ops = [SETUP_OP] + [op for r in rounds for op in r]
    out = {}
    for metric, (how, src, unit) in PER_LAYER.items():
        if how == "time":
            v = setup_plus_median(totals, rounds, src)
        elif how == "self":
            v = setup_plus_median(selfs, rounds, src)
        elif how == "count":
            v = setup_plus_median(counts, rounds, src)
        elif how == "ratio":
            num = sum(counts.get(op, {}).get(src[0], 0.0) for op in ops)
            den = sum(counts.get(op, {}).get(src[1], 0.0) for op in ops)
            v = num / den
        else:
            v = tracer.maxima[src]
        out[metric] = {"value": float(v), "unit": unit}
    return out
