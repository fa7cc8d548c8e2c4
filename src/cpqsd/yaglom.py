"""Monte Carlo estimation of conditioned laws and the decay triple.

The estimators here are the stochastic counterparts of the exact spectral
module: the conditioned law of the edge configuration given survival, the
decay rate from log-survival slopes and the survival-scaled h values.
Survival to large times is exponentially rare, so every estimator reads
the stages of one multilevel splitting loop, _split: it advances the
population between checkpoints, resamples extinct replicas uniformly from
the survivors, keeps the product of stage survival fractions as the
survival-probability estimate, and yields the population at the end of
every stage.

Randomness discipline: every kernel stream is derived from a seed tuple, the
resampler has its own stream, and resampling is done by a single generator
in replica order, so results are reproducible and independent of scheduling.
Each replica owns one uint64 word of its population's stream and draws from
it with splitmix64.  The free process and the depth-L chain both move in
lockstep walks that draw for all live replicas at once, each from its own
word, so a replica's path is a function of its word, and of the resampling
that copies another replica's state (never its word) onto it.
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
                   _init_sites, _tally, _words, decode_key)
from .errors import (ParameterError, ResolutionError, check_integer,
                     check_positive, check_time, is_scalar)
from .spectral import (build_generator, dominant_eigenpair, index_to_key,
                       key_to_index)


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

def _chain_walk(gen):
    """The arrays K.gillespie_chain_batch runs on: CSR row pointers and
    int64 targets of the off-diagonal rates of gen.Q, their cumulative sum
    over the matrix and its value before each row, the row sums (CSR's
    matvec adds each row's entries in row order) and the exit rates, the
    row sums plus the absorption rates."""
    coo = gen.Q.tocoo()
    keep = coo.row != coo.col
    csr = sp.csr_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])),
                        shape=gen.Q.shape)
    off = csr @ np.ones(gen.nstates)
    cum = np.cumsum(csr.data)
    base = np.concatenate(([0.0], cum))[csr.indptr[:-1]]
    return (csr.indptr, csr.indices.astype(np.int64), cum, base, off,
            off + gen.absorption)


def _walk_of(gen):
    """_chain_walk(gen), built on the first call for gen and kept on it,
    read-only, beside the Q and absorption it was built from; a generator
    whose Q or absorption was since replaced gets a new one."""
    kept = gen.walk
    if kept is None or kept[0] is not gen.Q or kept[1] is not gen.absorption:
        walk = _chain_walk(gen)
        for a in walk:
            a.flags.writeable = False
        kept = gen.walk = (gen.Q, gen.absorption, walk)
    return kept[2]


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
        """(keys truncated to depth, at most the chain's L, number of them
        that lost offsets) of the surviving replicas idx."""
        keys = index_to_key(self.idxs[idx])
        return ((keys & ((1 << depth) - 1)).tolist(),
                int(np.count_nonzero(keys >> depth)))


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
    started from init, one kernel word each.  The chain's walk arrays come
    from _walk_of, once per generator."""
    if gen is not None and lam != gen.lam:
        raise ParameterError(
            f"lambda {lam} differs from the generator's {gen.lam}")
    walk = None if gen is None else _walk_of(gen)

    def start(init):
        if walk is None:
            sites = _init_sites(init)
            populate = functools.partial(FreePopulation, sites, lam)
        else:
            key = check_integer(init, "start key")
            sites = decode_key(key, gen.L)
            populate = functools.partial(_ChainPopulation, walk, key)
        if not sites:
            raise ParameterError("initial configuration must be nonempty")
        return populate

    return start


def _split(populate, lam, n, stops, dt0, seeds):
    """Splitting run of n replicas through the sorted times stops.  The
    population's kernel words come from the stream seeds + (0,), its
    resampler from seeds + (1,); dt0 = None picks the rough guess 1/alpha.

    Yields (time, population, alive indices, log weight, delta-method
    variance of the log weight, ancestors): at t = 0 with every replica
    alive, then at the end of each stage, before its dead replicas are
    resampled from the survivors.  A stage is dt long, cut short to land
    exactly on the next stop, and dt halves after a stage that keeps under
    a fifth of the replicas.  ancestors[i] is the replica whose state
    replica i took at the last resampling.
    """
    if dt0 is None:
        dt0 = 1.0 / _rough_alpha(lam)
    try:
        positive = is_scalar(dt0) and dt0 > 0
    except TypeError:  # a string or a list, say
        positive = False
    if not positive:
        raise ParameterError(f"checkpoint_dt must be > 0, got {dt0!r}")
    pop = populate(n, _words(seeds + (0,), n))
    resample_rng = np.random.default_rng(np.random.SeedSequence(seeds + (1,)))
    alive = ancestors = np.arange(n)
    frac = 1.0
    log_w = var = t_now = 0.0
    dt = dt0
    yield t_now, pop, alive, log_w, var, ancestors
    for stop in stops:
        while t_now < stop:
            dead = np.nonzero(~pop.alive_mask())[0]
            ancestors = np.arange(n)
            if dead.size:
                # dead and alive are disjoint, so one fancy-indexed copy
                # does what a copy per replica would
                src = alive[resample_rng.integers(0, alive.size, dead.size)]
                pop.copy(src, dead)
                ancestors[dead] = src
            if frac < _MIN_STAGE_FRACTION:
                dt = max(dt / 2.0, stops[-1] / 1024.0)
            t_now = min(t_now + dt, stop)
            ess_pop = _grouped_ess(ancestors)
            pop.advance_to(t_now)
            alive = np.nonzero(pop.alive_mask())[0]
            if alive.size == 0:
                raise ResolutionError(
                    f"population collapse: 0 of {n} replicas survive the "
                    f"stage ending at t={t_now:.6g}; increase population")
            frac = alive.size / n
            log_w += math.log(frac)
            var += (1.0 - frac) / (frac * ess_pop)
            yield t_now, pop, alive, log_w, var, ancestors


# ===== conditioned-law estimation =====

def yaglom_estimate(init, lam, t, replicas, strategy, depth, seed, gen=None):
    """Empirical law of the depth-truncated edge configuration at time t,
    conditioned on survival, from a splitting run of `replicas` replicas.

    init is a finite set of sites (free process on Z); passing a
    TruncatedGenerator via gen runs the depth-L chain instead, with init
    read as a canonical key and depth at most L.  strategy is a Splitting.
    Returns (EmpiricalDistribution, diagnostics); diagnostics carry the
    stage layout, survivor counts, the survival estimate (`weight`), and a
    conservative effective sample size that counts replicas sharing an
    ancestor since the last resampling as one.
    """
    _check_run(lam, t, depth)
    if gen is not None and depth > gen.L:
        raise ParameterError(f"depth {depth} exceeds the generator's {gen.L}")
    n = check_integer(replicas, "replicas", 1)
    if not isinstance(strategy, Splitting):
        raise ParameterError(f"unknown strategy {strategy!r}")
    populate = _starter(lam, gen)(init)
    dt0 = strategy.checkpoint_dt
    stages, counts = [], []
    for t_k, pop, alive, log_w, _, ancestors in _split(
            populate, lam, n, [t], dt0, (seed, 0)):
        stages.append(t_k)
        counts.append(int(alive.size))
    keys, clipped = pop.final_keys(alive, depth)
    dist = _tally(depth, keys, n, {"lambda": lam, "t": t, "seed": seed})
    diag = {"strategy": "Splitting(checkpoint_dt="
                        f"{dt0 if dt0 is not None else 'auto'})",
            "stages": stages[1:], "survivor_counts": counts[1:],
            "weight": math.exp(log_w), "ess": _grouped_ess(ancestors[alive]),
            "clipped": clipped}
    return dist, diag


# ===== decay-rate estimation =====

def alpha_estimate(init, lam, t_grid, replicas, seed, gen=None):
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
    of +0.008.  A later t_1 makes it smaller.  The reported stderr is
    conservative: on those runs it was 0.0149-0.0171 (mean 0.0160), 1.5x
    the seed-to-seed standard deviation of the estimates, 0.0104, and 157
    of the 200 estimates lay within one stderr of alpha, all within two.
    """
    grid = [float(check_time(x, "grid time")) for x in t_grid]
    if len(grid) < 3:
        raise ParameterError(f"t_grid needs >= 3 points, got {len(grid)}")
    if not (0 < grid[0] and all(a < b for a, b in zip(grid, grid[1:]))):
        raise ParameterError("t_grid must be positive and increasing")
    n = check_integer(replicas, "replicas", 2)
    check_positive(lam, "lambda")
    populate = _starter(lam, gen)(init)
    pts = [(t_k, math.exp(log_w), var) for t_k, _, _, log_w, var, _
           in _split(populate, lam, n, grid, None, (seed, 1)) if t_k in grid]
    num = den = 0.0
    usable = 0
    for (t0, w0, v0), (t1, w1, v1) in zip(pts, pts[1:]):
        dv = v1 - v0
        if not (w1 > 0 and w0 > 0 and dv > 0):
            continue
        dy = math.log(w0) - math.log(w1)
        dt_seg = t1 - t0
        num += dy * dt_seg / dv
        den += dt_seg * dt_seg / dv
        usable += 1
    if usable < 2:
        raise ResolutionError(
            f"degenerate fit: only {usable} usable increments on the grid")
    return num / den, math.sqrt(1.0 / den)


# ===== h estimation =====

def h_estimate(states, alpha, lam, t, replicas, depth, seed, gen=None,
               nu=None):
    """h_hat(A) = exp(alpha t) P_hat(tau^A > t) for each canonical key.

    Survival probabilities come from splitting runs (one per state, each on
    its own stream).  With the exact alpha the raw values already sit in the
    nu.h = 1 normalization; passing nu (a mapping from depth-`depth` key to
    mass, read as an EmpiricalDistribution, covering `states`) rescales so
    that sum nu(A) h_hat(A) = sum nu(A), removing the
    exp((alpha - alpha_true) t) scale error of an estimated alpha.  With
    gen, lam and depth must equal gen.lam and gen.L.
    """
    if gen is not None and depth != gen.L:
        raise ParameterError(
            f"depth {depth} differs from the generator's {gen.L}")
    _check_run(lam, t, depth)
    n = check_integer(replicas, "replicas", 1)
    check_positive(alpha, "alpha")
    if nu is not None:
        nu = EmpiricalDistribution(depth, nu).weights
    keys = [check_integer(k, "key") for k in states]
    out = np.empty(len(keys))
    start = _starter(lam, gen)
    for j, key in enumerate(keys):
        populate = start(key if gen is not None else decode_key(key, depth))
        *_, log_w, _, _ = collections.deque(
            _split(populate, lam, n, [t], None, (seed, 2, j)), maxlen=1)[0]
        out[j] = math.exp(alpha * t + log_w)
    if nu is not None:
        mass = np.array([nu.get(k, 0.0) for k in keys])
        if mass.sum() <= 0:
            raise ParameterError("nu puts no mass on the given states")
        scale = float(mass @ out) / float(mass.sum())
        if scale <= 0:
            raise ResolutionError("all survival estimates vanished")
        out /= scale
    return out

