"""Monte Carlo estimation of conditioned laws and the decay triple.

The estimators here are the stochastic counterparts of the exact spectral
module: the conditioned law of the edge configuration given survival, the
decay rate from log-survival slopes, the survival-scaled h values, and the
h-transformed (honest) chain.  Survival to large times is exponentially
rare, so every estimator runs multilevel splitting: the population is
advanced between checkpoints, extinct replicas are resampled uniformly from
the survivors, and a shared weight keeps the product of stage survival
fractions, which is itself the survival-probability estimate.

Randomness discipline: every kernel stream is derived from a seed tuple, the
resampler has its own stream, and resampling is done by a single generator
in replica order, so results are reproducible and independent of scheduling.
Each replica owns one uint64 word of its population's stream and draws from
it with splitmix64.  The free process and the depth-L chain both move in
lockstep walks that draw for all live replicas at once, each from its own
word, so a replica's path is a function of its word, and of the resampling
that copies another replica's state (never its word) onto it.  The
h-transformed chain is one path on one word, by the chain walk's target
rule; splitmix64 is a counter, so the path jumps its word ahead a block of
jumps at a time, drawing what a jump-by-jump walk would, in the same order.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import _kernels as K
from .edge import (EmpiricalDistribution, FreePopulation, _check_run,
                   _init_sites, _words, decode_key)
from .errors import ParameterError, ResolutionError
from .spectral import build_generator, dominant_eigenpair, index_to_key, key_to_index


@dataclass(frozen=True)
class Splitting:
    """Checkpointed multilevel splitting.  checkpoint_dt = None picks the
    rough guess 1/alpha from a small spectral solve; whenever a stage keeps
    less than a fifth of the population the spacing is halved.  With
    checkpoint_dt >= t the run is one stage, which is plain rejection over
    the n replicas."""

    checkpoint_dt: float | None = None


_MIN_STAGE_FRACTION = 0.2


@functools.lru_cache(maxsize=64)
def _rough_alpha(lam):
    return dominant_eigenpair(build_generator(8, lam)).alpha


# ===== populations =====

def _chain_walk(gen, h=None):
    """The arrays K's chain walks run on: CSR row pointers and int64
    targets of the off-diagonal rates of gen.Q, their cumulative sum over
    the matrix and its value before each row, the row sums (in row order:
    pass j adds the j-th entry of every longer row) and the exit rates.
    With h, each rate Q(x, y) is scaled by h(y) / h(x): the h-transformed
    chain is honest, so its exit rates are its row sums."""
    coo = gen.Q.tocoo()
    keep = coo.row != coo.col
    rows, cols, rates = coo.row[keep], coo.col[keep], coo.data[keep]
    if h is not None:
        rates = rates * h[cols] / h[rows]
        if np.any(~np.isfinite(rates)) or np.any(rates < 0):
            raise ResolutionError("negative transformed rate; h is not "
                                  "positive to working precision")
    csr = sp.csr_matrix((rates, (rows, cols)), shape=gen.Q.shape)
    indptr, rates = csr.indptr, csr.data
    lengths = np.diff(indptr)
    off = np.zeros(gen.nstates)
    for j in range(int(lengths.max(initial=0))):
        long_rows = np.nonzero(lengths > j)[0]
        off[long_rows] += rates[indptr[long_rows] + j]
    cum = np.cumsum(rates)
    base = np.concatenate(([0.0], cum))[indptr[:-1]]
    exits = off if h is not None else off + gen.absorption
    return indptr, csr.indices.astype(np.int64), cum, base, off, exits


class _ChainPopulation:
    """N replicas of the depth-L truncated chain, walked in lockstep on the
    arrays of _chain_walk."""

    def __init__(self, walk, start_key, n, words):
        self.walk = walk
        self.idxs = np.full(n, key_to_index(start_key), np.int64)
        self.tnows = np.zeros(n)
        self.states = words.copy()

    def advance_to(self, t_end):
        K.gillespie_chain_batch(*self.walk, self.idxs, self.tnows,
                                float(t_end), self.states)

    def alive_mask(self):
        return self.idxs >= 0

    def copy(self, src, dst):
        self.idxs[dst] = self.idxs[src]
        self.tnows[dst] = self.tnows[src]

    def final_keys(self, idx, depth):
        """(keys truncated to depth, number of them that lost offsets) of
        the surviving replicas idx."""
        keys = index_to_key(self.idxs[idx])
        cut = min(depth, 62)  # keys are below 2**62
        return ((keys & ((1 << cut) - 1)).tolist(),
                int(np.count_nonzero(keys >> cut)))


# ===== splitting core =====

def _grouped_ess(members):
    """Conservative effective size: replicas sharing an ancestor since the
    last resampling count as one cluster, (sum m)^2 / sum m^2."""
    m = np.bincount(members)
    m = m[m > 0].astype(float)
    return float(m.sum() ** 2 / np.square(m).sum())


def _starter(lam, gen):
    """start(init) -> populate for gen's chain, or for the free process
    when gen is None.  init is a canonical key of the chain, else a
    nonempty finite set of sites; populate(n, words) makes n replicas
    started from init, one kernel word each.  The chain's walk arrays are
    built here, once for every start."""
    if gen is not None and lam != gen.lam:
        raise ParameterError(
            f"lambda {lam} differs from the generator's {gen.lam}")
    walk = None if gen is None else _chain_walk(gen)

    def start(init):
        if walk is None:
            sites = _init_sites(init)
            populate = functools.partial(FreePopulation, sites, lam)
        else:
            key = int(init)
            sites = decode_key(key, gen.L)
            populate = functools.partial(_ChainPopulation, walk, key)
        if not sites:
            raise ParameterError("initial configuration must be nonempty")
        return populate

    return start


def _split(populate, lam, n, t, dt0, seeds, record_times=()):
    """Splitting run of n replicas to time t: the population's kernel words
    come from the stream seeds + (0,), its resampler from seeds + (1,), and
    dt0 = None picks the rough guess 1/alpha.

    Returns (population, alive indices, log weight, stage times, survivor
    counts, records, final ess).  records[t_k] = (survival estimate,
    accumulated delta-method variance of its log, ess at t_k) for each
    requested time.  At t = 0 no stage runs and every replica is alive.
    """
    if dt0 is None:
        dt0 = 1.0 / _rough_alpha(lam)
    if not dt0 > 0:
        raise ParameterError(f"checkpoint_dt must be > 0, got {dt0}")
    pop = populate(n, _words(seeds + (0,), n))
    resample_rng = np.random.default_rng(np.random.SeedSequence(seeds + (1,)))
    alive = ancestors = np.arange(n)
    log_w = 0.0
    var_acc = 0.0
    stages = []
    survivor_counts = []
    records = {}
    pending = sorted(rt for rt in record_times if 0.0 < rt <= t)
    dt = dt0
    t_now = 0.0
    while t_now < t:
        t_next = min(t_now + dt, t)
        while pending and pending[0] <= t_now + 1e-12:
            pending.pop(0)
        if pending and pending[0] < t_next:
            t_next = pending[0]
        ess_pop = _grouped_ess(ancestors)
        pop.advance_to(t_next)
        mask = pop.alive_mask()
        alive = np.nonzero(mask)[0]
        if alive.size == 0:
            raise ResolutionError(
                f"population collapse: 0 of {n} replicas survive the stage "
                f"ending at t={t_next:.6g}; increase population")
        frac = alive.size / n
        log_w += math.log(frac)
        var_acc += (1.0 - frac) / (frac * ess_pop)
        stages.append(t_next)
        survivor_counts.append(int(alive.size))
        if pending and pending[0] == t_next:
            pending.pop(0)
            records[t_next] = (math.exp(log_w), var_acc,
                               _grouped_ess(ancestors[alive]))
        if t_next < t:
            dead = np.nonzero(~mask)[0]
            ancestors = np.arange(n)
            if dead.size:
                # dead and alive are disjoint, so one fancy-indexed copy
                # does what a copy per replica would
                src = alive[resample_rng.integers(0, alive.size, dead.size)]
                pop.copy(src, dead)
                ancestors[dead] = src
            if frac < _MIN_STAGE_FRACTION:
                dt = max(dt / 2.0, t / 1024.0)
        t_now = t_next
    ess = _grouped_ess(ancestors[alive])
    return pop, alive, log_w, stages, survivor_counts, records, ess


# ===== conditioned-law estimation =====

def yaglom_estimate(init, lam, t, replicas, strategy, depth, seed, gen=None):
    """Empirical law of the depth-truncated edge configuration at time t,
    conditioned on survival, from a splitting run of `replicas` replicas.

    init is a finite set of sites (free process on Z); passing a
    TruncatedGenerator via gen runs the depth-L chain instead, with init
    read as a canonical key.  strategy is a Splitting.  Returns
    (EmpiricalDistribution, diagnostics); diagnostics carry the stage
    layout, survivor counts, the survival estimate (`weight`), and a
    conservative effective sample size that counts replicas sharing an
    ancestor since the last resampling as one.
    """
    _check_run(lam, t, depth)
    if replicas < 1:
        raise ParameterError(f"replicas must be >= 1, got {replicas}")
    if not isinstance(strategy, Splitting):
        raise ParameterError(f"unknown strategy {strategy!r}")
    populate = _starter(lam, gen)(init)
    n = int(replicas)
    dt0 = strategy.checkpoint_dt
    pop, alive, log_w, stages, counts, _, ess = _split(
        populate, lam, n, t, dt0, (seed, 0))
    keys, clipped = pop.final_keys(alive, depth)
    # equal counts share one float, so a law holds a float per distinct
    # count rather than one per key
    tally = collections.Counter(keys)
    as_float = {c: float(c) for c in set(tally.values())}
    dist = EmpiricalDistribution(
        depth, {key: as_float[c] for key, c in tally.items()},
        replica_count=n, meta={"lambda": lam, "t": t, "seed": seed})
    diag = {"strategy": "Splitting(checkpoint_dt="
                        f"{dt0 if dt0 is not None else 'auto'})",
            "stages": stages, "survivor_counts": counts,
            "weight": math.exp(log_w), "ess": ess, "clipped": clipped}
    return dist, diag


# ===== decay-rate estimation =====

def alpha_estimate(init, lam, t_grid, replicas, seed, gen=None,
                   checkpoint_dt=None):
    """(alpha_hat, stderr) from the slope of -log P(tau > t) over the grid.

    Survival probabilities come from one splitting run with checkpoints at
    the grid times.  The grid points share their population, so their log
    estimates form a random walk; differencing whitens it, and the slope is
    the variance-weighted least squares fit over the increments between
    consecutive grid points.  The first segment [0, t_1] is left out, which
    is why at least 3 grid points are needed, but that does not remove the
    transient: the log-survival slope still exceeds alpha after t_1.  From
    {0} at lambda 0.5 on the grid 2, 4, .., 10 the exact slopes of the
    fitted segments are 0.439, 0.417, 0.412 and 0.410 against alpha 0.409,
    and the mean estimate over 200 seeds of 1000 replicas was 0.417, a bias
    of +0.008.  A later t_1 makes it smaller.
    """
    grid = [float(x) for x in t_grid]
    if len(grid) < 3:
        raise ParameterError(f"t_grid needs >= 3 points, got {len(grid)}")
    if not (0 < grid[0] and grid[-1] < math.inf
            and all(a < b for a, b in zip(grid, grid[1:]))):
        raise ParameterError("t_grid must be finite, positive and increasing")
    if replicas < 2:
        raise ParameterError(f"replicas must be >= 2, got {replicas}")
    if not 0 < lam < math.inf:
        raise ParameterError(f"lambda must be finite and > 0, got {lam}")
    populate = _starter(lam, gen)(init)
    *_, records, _ = _split(populate, lam, int(replicas), grid[-1],
                            checkpoint_dt, (seed, 1), record_times=grid)
    pts = [records[tk] for tk in grid]
    num = 0.0
    den = 0.0
    usable = 0
    for k in range(1, len(grid)):
        w_prev, v_prev, _ = pts[k - 1]
        w_k, v_k, _ = pts[k]
        dv = v_k - v_prev
        if not (w_k > 0 and w_prev > 0 and dv > 0):
            continue
        dy = math.log(w_prev) - math.log(w_k)
        dt_seg = grid[k] - grid[k - 1]
        num += dy * dt_seg / dv
        den += dt_seg * dt_seg / dv
        usable += 1
    if usable < 2:
        raise ResolutionError(
            f"degenerate fit: only {usable} usable increments on the grid")
    return num / den, math.sqrt(1.0 / den)


# ===== h estimation =====

def h_estimate(states, alpha, t, replicas, *, lam=None, depth=None, seed=0,
               gen=None, nu=None):
    """h_hat(A) = exp(alpha t) P_hat(tau^A > t) for each canonical key.

    Survival probabilities come from splitting runs (one per state, each on
    its own stream).  With the exact alpha the raw values already sit in the
    nu.h = 1 normalization; passing nu (a probability over keys covering
    `states`) rescales so that sum nu(A) h_hat(A) = sum nu(A), removing the
    exp((alpha - alpha_true) t) scale error of an estimated alpha.  With
    gen, lam and depth default to gen.lam and gen.L and must equal them.
    """
    if gen is not None:
        lam = gen.lam if lam is None else lam
        if depth is not None and depth != gen.L:
            raise ParameterError(
                f"depth {depth} differs from the generator's {gen.L}")
        depth = gen.L
    if lam is None or depth is None:
        raise ParameterError("free-process h_estimate needs lam and depth")
    _check_run(lam, t, depth)
    if replicas < 1:
        raise ParameterError(f"replicas must be >= 1, got {replicas}")
    if not math.isfinite(alpha):
        raise ParameterError(f"alpha must be finite, got {alpha}")
    keys = [int(k) for k in states]
    out = np.ones(len(keys))
    start = _starter(lam, gen)
    for j, key in enumerate(keys):
        populate = start(key if gen is not None else decode_key(key, depth))
        if t > 0:
            _, _, log_w, *_ = _split(populate, lam, int(replicas), t, None,
                                     (seed, 2, j))
            out[j] = math.exp(alpha * t + log_w)
    if nu is not None:
        lookup = nu.normalized() if hasattr(nu, "normalized") else dict(nu)
        mass = np.array([lookup.get(k, 0.0) for k in keys])
        if mass.sum() <= 0:
            raise ParameterError("nu puts no mass on the given states")
        scale = float(mass @ out) / float(mass.sum())
        if scale <= 0:
            raise ResolutionError("all survival estimates vanished")
        out /= scale
    return out


# ===== h-transformed chain =====

def q_process_simulate(spectral, gen, n_steps, seed):
    """Occupation measure of the h-transformed jump chain after n_steps.

    The transform q(x,y) = Q(x,y) h(y) / h(x) with the diagonal shifted by
    +alpha is an honest chain whose stationary law is nu.h renormalized;
    holding times are sampled, so the returned weights are time-weighted.
    """
    if max(spectral.residual_left, spectral.residual_right) > 1e-8:
        raise ParameterError(
            "spectral residuals too large for a trustworthy h-transform: "
            f"{spectral.residual_left:.2e}, {spectral.residual_right:.2e}")
    if n_steps < 1:
        raise ParameterError(f"n_steps must be >= 1, got {n_steps}")
    if ((spectral.L, spectral.policy, spectral.lam)
            != (gen.L, gen.policy, gen.lam)):
        raise ParameterError("spectral result and generator disagree")
    h = spectral.h
    walk = _chain_walk(gen, h)
    if np.any(walk[5] <= 0):
        raise ResolutionError("transformed chain has a rateless state; the "
                              "truncated chain admits no surviving motion")
    start = int(np.argmax(spectral.nu * h))
    occ = np.zeros(gen.nstates)
    final = K.occupation_run(*walk, start, int(n_steps),
                             _words((seed, 3, 0), 1), occ)
    if final < 0:
        raise ResolutionError("transformed chain absorbed; rounding broke "
                              "row conservation")
    weights = {index_to_key(i): float(w) for i, w in enumerate(occ) if w > 0}
    return EmpiricalDistribution(gen.L, weights, replica_count=1,
                                 meta={"lambda": gen.lam, "policy": gen.policy,
                                       "n_steps": int(n_steps), "seed": seed,
                                       "start_key": index_to_key(start)})
