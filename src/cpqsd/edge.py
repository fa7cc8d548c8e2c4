"""The contact process seen from its rightmost infected site.

An edge configuration is a finite set of nonpositive offsets containing 0
(or the empty set after extinction).  Depth-L configurations are encoded as
canonical integer keys: bit i set means site -i is infected, so every
nonempty key is odd and 0 is reserved for the empty set.

Independent trajectories of the free process are simulated event by event,
by thinning at rate n (1 + 2 lambda) over an unordered site list: many
replicas at once by a FreePopulation (K.gillespie_free_batch, in lockstep,
with an occupancy bitmap whose window grows on demand), one alone by
K.free_run, which makes the same draws by the same rule.  Neither has a
fixed spatial window, so nothing is censored.  Trajectories are recentered
at read-off time and aggregated into empirical distributions.  No path here
reads a graphical log.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import (ParameterError, ResolutionError, check_integer,
                     check_positive, check_seed, check_sites, check_time)
# unused here; the benchmark's tracer wraps edge.evolve (perfbench/layers.py)
from .graphical import evolve  # noqa: F401


# ===== domain types =====

class EdgeConfiguration(frozenset):
    """Offsets of infected sites relative to the rightmost one: integers,
    all <= 0, containing 0 unless empty.  Building one checks each offset,
    so the key codec, which takes one, checks none of them again."""

    def __new__(cls, offsets=()):
        obj = super().__new__(cls, check_sites(offsets, "offset"))
        if obj and max(obj) != 0:
            raise ParameterError(
                f"edge configuration must have max offset 0, got {sorted(obj)}")
        return obj

    @classmethod
    def _trusted(cls, offsets):
        """From offsets known to be integers with maximum 0 (recenter has
        checked its sites, and decode_key makes them from a checked key),
        so that no offset is checked twice."""
        return super().__new__(cls, offsets)

    def __repr__(self):
        return f"EdgeConfiguration({{{', '.join(str(x) for x in sorted(self))}}})"


@dataclass(frozen=True)
class Finite:
    """Finite initial configuration, arbitrary integer sites."""

    sites: frozenset

    def __init__(self, sites):
        object.__setattr__(self, "sites", check_sites(sites, "site"))


@dataclass(frozen=True)
class FullInterval:
    """All of [-M, 0]: the finite stand-in for an infinite initial
    configuration A with A ∩ -N infinite."""

    M: int

    def __post_init__(self):
        object.__setattr__(self, "M",
                           check_integer(self.M, "FullInterval depth", 0))


def _init_sites(init):
    if isinstance(init, FullInterval):
        # FreePopulation's bound on start sites, checked before M + 1 of
        # them are built
        if init.M >= 2**30:
            raise ParameterError(f"FullInterval depth must be below 2**30, "
                                 f"got {init.M}")
        return list(range(-init.M, 1))
    if not isinstance(init, Finite):
        init = Finite(init)
    return sorted(init.sites)


# ===== canonical keys =====

def recenter(eta):
    """(edge configuration, shift): offsets eta - max(eta), or (∅, 0)."""
    sites = check_sites(eta, "site")
    if not sites:
        return EdgeConfiguration(), 0
    m = max(sites)
    return EdgeConfiguration._trusted(x - m for x in sites), m


def encode_key(cfg, depth):
    """Canonical key of a depth-limited edge configuration, an
    EdgeConfiguration or the offsets of one.  Raises if any offset lies at
    or beyond -depth; use clip_key when truncation is meant."""
    key, clipped = clip_key(cfg, depth)
    if clipped:
        raise ParameterError(f"{clipped} offsets beyond depth {depth}; "
                             "clip_key handles truncation")
    return key


def clip_key(cfg, depth):
    """(key of cfg ∩ (-depth, 0], number of clipped offsets); cfg is an
    EdgeConfiguration or the offsets of one, which are checked."""
    depth = check_integer(depth, "depth", 1)
    if not isinstance(cfg, EdgeConfiguration):
        cfg = EdgeConfiguration(cfg)
    key = 0
    clipped = 0
    for x in cfg:
        if x <= -depth:
            clipped += 1
        else:
            key |= 1 << -x
    return key, clipped


def _check_key(key, depth):
    """key as an int, a canonical key at a checked depth: 0 (the empty
    set), or odd (bit 0 is the site 0) and below 2^depth."""
    key = check_integer(key, "key")
    if key < 0 or key.bit_length() > depth or (key and not key & 1):
        raise ParameterError(f"key {key} is not a depth-{depth} key: need "
                             f"0 <= key < 2^{depth}, odd unless 0")
    return key


def decode_key(key, depth):
    depth = check_integer(depth, "depth", 1)
    key = _check_key(key, depth)
    return EdgeConfiguration._trusted(-i for i in range(depth)
                                      if key >> i & 1)


# ===== empirical distributions =====

class EmpiricalDistribution:
    """Weighted counts over canonical keys at one depth.

    Keys are canonical keys at the depth, and weights finite nonnegative
    floats (importance sampling and splitting produce fractional weights).
    """

    def __init__(self, depth, weights=None, replica_count=0, meta=None):
        self.depth = check_integer(depth, "depth", 1)
        self.weights = {_check_key(k, self.depth):
                        float(check_time(v, "weight"))
                        for k, v in (weights or {}).items()}
        self.replica_count = check_integer(replica_count, "replica count", 0)
        self.meta = dict(meta or {})

    @property
    def total(self):
        return sum(self.weights.values())

    def add(self, key, weight=1.0):
        key = _check_key(key, self.depth)
        self.weights[key] = (self.weights.get(key, 0.0)
                             + float(check_time(weight, "weight")))

    def normalized(self):
        tot = self.total
        if tot <= 0:
            raise ResolutionError("distribution has no mass to normalize")
        return {k: v / tot for k, v in self.weights.items() if v > 0}

    def __repr__(self):
        return (f"EmpiricalDistribution(depth={self.depth}, "
                f"{len(self.weights)} keys, total={self.total:g}, "
                f"replicas={self.replica_count})")


def _tally(depth, keys, replica_count, meta):
    """EmpiricalDistribution of weight 1 per drawn key.  Equal counts share
    one float, so a law holds a float per distinct count rather than one
    per key."""
    tally = collections.Counter(keys)
    as_float = {c: float(c) for c in set(tally.values())}
    return EmpiricalDistribution(
        depth, {key: as_float[c] for key, c in tally.items()},
        replica_count, meta)


def tv_distance(p, q):
    """Total variation distance between two normalized distributions on the
    same depth: (1/2) sum |p - q| over keys."""
    if p.depth != q.depth:
        raise ParameterError(f"depth mismatch: {p.depth} vs {q.depth}")
    pn = p.normalized()
    qn = q.normalized()
    keys = set(pn) | set(qn)
    return 0.5 * sum(abs(pn.get(k, 0.0) - qn.get(k, 0.0)) for k in keys)


def cylinder_restrict(dist, m):
    """Pushforward onto the depth-m cylinder: mask all bits >= m."""
    m = check_integer(m, "restriction depth", 1)
    if m > dist.depth:
        raise ParameterError(f"restriction depth {m} exceeds {dist.depth}")
    mask = (1 << m) - 1
    out = EmpiricalDistribution(m, replica_count=dist.replica_count,
                                meta=dist.meta)
    for k, v in dist.weights.items():
        out.add(k & mask, v)
    return out


# ===== trajectory simulation =====

@dataclass(frozen=True)
class EdgeTrajectory:
    """Outcome of one replica: the truncated edge configuration at time t,
    whether the process survived, `censored` (always False: the free process
    is simulated without a window) and the number of clipped offsets."""

    final: EdgeConfiguration
    survived: bool
    censored: bool
    clipped: int


def _words(seed_tuple, n):
    """n uint64 kernel words of the stream seed_tuple, a tuple of unsigned
    64-bit integers."""
    for seed in seed_tuple:
        check_seed(seed)
    return np.random.SeedSequence(seed_tuple).generate_state(n, np.uint64)


class FreePopulation:
    """N replicas of the contact process on Z from one finite configuration,
    advanced in lockstep by K.gillespie_free_batch.

    Replica i holds its counts[i] infected sites, unordered, in
    sites[i, :counts[i]], and occ[i, x - lo] = 1 marks each of them; words
    holds one uint64 kernel state per replica.  The window and the site
    capacity start small and double when an arrow would leave them, which
    continues the same run exactly, so nothing is ever cut off.  sites is
    a nonempty sequence of distinct sites, in the order the replicas list
    them, each |x| < 2**30; words is a uint64 array of shape (n,).
    The int32 sites cannot wrap: before one leaves int32, a replica must
    take 2**30 steps in one direction and hold a window of at least 1 GiB.
    """

    def __init__(self, sites, lam, n, words):
        try:
            start = check_sites(sites, "site")
            distinct = 0 < len(start) == len(sites)
        except TypeError:  # an iterator, which has no len
            distinct = False
        if not distinct:
            raise ParameterError(f"a population starts from a nonempty "
                                 f"sequence of distinct sites, got {sites!r}")
        if max(map(abs, start)) >= 2**30:
            raise ParameterError(f"start sites must satisfy |x| < 2**30, "
                                 f"got {sites!r}")
        check_positive(lam, "lambda")
        n = check_integer(n, "replicas", 1)
        if not (isinstance(words, np.ndarray) and words.dtype == np.uint64
                and words.shape == (n,)):
            raise ParameterError(f"words must be a uint64 array of shape "
                                 f"({n},), got {words!r}")
        base = np.asarray(sites, np.int64)
        cap = 16
        while cap <= base.size:
            cap *= 2
        span = int(base.max() - base.min()) + 1
        width = 32
        while width < 2 * span:
            width *= 2
        self.lo = int(base.min()) - (width - span) // 2
        self.sites = np.zeros((n, cap), np.int32)
        self.sites[:, :base.size] = base
        self.occ = np.zeros((n, width), np.int8)
        self.occ[:, base - self.lo] = 1
        self.counts = np.full(n, base.size, np.int64)
        self.tnows = np.zeros(n)
        self.states = words.copy()
        self.lam = float(lam)

    def advance_to(self, t_end):
        self.sites, self.occ, self.lo = K.gillespie_free_batch(
            self.sites, self.occ, self.lo, self.counts, self.tnows, self.lam,
            float(t_end), self.states)

    def alive_mask(self):
        return self.counts > 0

    def copy(self, src, dst):
        self.sites[dst] = self.sites[src]
        self.occ[dst] = self.occ[src]
        self.counts[dst] = self.counts[src]
        self.tnows[dst] = self.tnows[src]

    def final_keys(self, idx, depth):
        """(keys truncated to depth, number of them that lost offsets) of
        the surviving replicas idx, read from the bitmap: bit d of a key is
        the site d below the replica's rightmost one."""
        rows = self.occ[idx]
        width = rows.shape[1]
        right = width - 1 - np.argmax(rows[:, ::-1], axis=1)
        below = right[:, None] - np.arange(depth)
        bits = np.take_along_axis(rows, np.maximum(below, 0), axis=1)
        bits[below < 0] = 0
        packed = np.packbits(bits, axis=1, bitorder="little")
        size = packed.shape[1]
        raw = packed.tobytes()
        keys = [int.from_bytes(raw[i:i + size], "little")
                for i in range(0, len(raw), size)]
        clipped = np.count_nonzero(self.counts[idx] > bits.sum(axis=1))
        return keys, int(clipped)


def _check_run(lam, t, depth):
    check_positive(lam, "lambda")
    check_time(t, "duration")
    check_integer(depth, "depth", 1)


def simulate_edge_trajectory(init, lam, t, depth, seed, stream=0):
    """One replica of the edge process: run the contact process on Z from
    init to time t, recenter, truncate to depth.

    The free process runs alone on K.free_run, the rule of
    FreePopulation's lockstep walk, so there is no spatial window and
    nothing is ever cut off: `censored` is always False.  The run is a pure
    function of (seed, stream).  Offsets falling at or below -depth are
    counted in `clipped` rather than silently dropped.
    """
    _check_run(lam, t, depth)
    sites = _init_sites(init)
    K.free_run(sites, lam, 0.0, t, _words((seed, stream), 1))
    if not sites:
        return EdgeTrajectory(EdgeConfiguration(), False, False, 0)
    zeta, _ = recenter(sites)
    key, clipped = clip_key(zeta, depth)
    return EdgeTrajectory(decode_key(key, depth), True, False, clipped)


def sample_edge_distribution(init, lam, t, depth, seed, replicas):
    """Empirical law of the depth-truncated edge configuration at time t.

    Runs `replicas` independent trajectories of simulate_edge_trajectory
    (stream = replica index) and counts canonical keys, the empty set
    landing on key 0.  meta carries the number of extinct replicas (the
    weight of key 0), the replica count with clipped offsets and a
    `censored` count, which is always 0: the direct event simulation has no
    window to leave.
    """
    _check_run(lam, t, depth)
    replicas = check_integer(replicas, "replicas", 1)
    keys = []
    clipped = 0
    extinct = 0
    for r in range(replicas):
        traj = simulate_edge_trajectory(init, lam, t, depth, seed, stream=r)
        keys.append(encode_key(traj.final, depth))
        clipped += traj.clipped > 0
        extinct += not traj.survived
    meta = {"lambda": lam, "t": t, "seed": seed,
            "censored": 0, "clipped": clipped, "extinct": extinct}
    if isinstance(init, FullInterval):
        meta["M"] = init.M
    return _tally(depth, keys, replicas, meta)
