"""Graphical construction of the contact process on a space-time window.

A window [lo, hi] x [0, horizon] carries Poisson marks: recovery marks at
rate 1 on each site line, arrow marks at rate lambda on each of the two
directed lines per neighbour pair.  Everything else in the package is a
query against such a log: forward evolution, backward reachability to the
top line, and jump counts over arrow-only paths.

Truncation rule: marks outside the window do not exist.  Reachability
grown from small seeds therefore reports a `censored` flag whenever the
reached set touched lo or hi, at which point a wider window could change
the answer.  For a fixed set of marks, enlarging the window only ever adds
reachability.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import CensoredError, ParameterError

logger = logging.getLogger(__name__)

_U64_MAX = 2**64 - 1


def ceil_beta_t(beta, t):
    """Integer jump budget for slope beta over duration t.

    Rounds beta*t up to the next integer, with a small backward nudge so
    products that are mathematically integral (18 * 10) are not pushed up
    by float noise.
    """
    return max(0, int(math.ceil(beta * t - 1e-9)))


# ===== domain types =====

@dataclass(frozen=True)
class SiteWindow:
    """Finite truncation of Z x [0, infinity): sites lo..hi (inclusive),
    times 0..horizon."""

    lo: int
    hi: int
    horizon: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ParameterError(f"window lo {self.lo} > hi {self.hi}")
        if not self.horizon > 0:
            raise ParameterError(f"window horizon {self.horizon} must be > 0")

    @property
    def nsites(self):
        return self.hi - self.lo + 1

    def contains_site(self, x):
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class Mark:
    """One Poisson mark: kind "R" (recovery at src, dst == src) or "A"
    (arrow src -> dst, |dst - src| == 1)."""

    kind: str
    src: int
    dst: int
    time: float


@dataclass(frozen=True)
class SpaceTimePoint:
    site: int
    time: float


class Configuration(frozenset):
    """Finite set of occupied sites.

    The extra `censored` attribute records whether, while this set was being
    grown inside a window, the occupied region ever touched the window
    boundary (so truncation may have cut paths off).
    """

    censored = False

    def __new__(cls, iterable=(), censored=False):
        obj = super().__new__(cls, iterable)
        obj.censored = bool(censored)
        return obj

    def __repr__(self):
        body = ", ".join(str(x) for x in sorted(self))
        tag = ", censored" if self.censored else ""
        return f"Configuration({{{body}}}{tag})"


class EventLog:
    """Immutable, time-sorted mark sequence on a window.

    Arrays: times (f8), kinds (i1: 0 recovery, 1 arrow), src (i4), dst (i4,
    == src for recoveries).  `seed_record` is the (seed, stream) pair that
    produced the log, or None for logs read from text.  `tie_flag` is set
    when two marks share a time; the stable sort order then acts as the
    deterministic tie-break.
    """

    def __init__(self, window, times, kinds, src, dst, lam=None,
                 seed_record=None, tie_flag=None):
        times = np.ascontiguousarray(times, dtype=np.float64)
        kinds = np.ascontiguousarray(kinds, dtype=np.int8)
        src = np.ascontiguousarray(src, dtype=np.int32)
        dst = np.ascontiguousarray(dst, dtype=np.int32)
        n = times.shape[0]
        if not (kinds.shape[0] == src.shape[0] == dst.shape[0] == n):
            raise ParameterError("mark arrays have mismatched lengths")
        if n:
            if times[0] < 0 or times[-1] > window.horizon:
                raise ParameterError("mark time outside [0, horizon]")
            d = np.diff(times)
            if np.any(d < 0):
                raise ParameterError("mark times not sorted")
            has_tie = bool(np.any(d == 0))
            if src.min() < window.lo or src.max() > window.hi:
                raise ParameterError("mark site outside window")
            if dst.min() < window.lo or dst.max() > window.hi:
                raise ParameterError("mark site outside window")
            arrows = kinds == 1
            if np.any(np.abs(src[arrows] - dst[arrows]) != 1):
                raise ParameterError("arrow mark is not nearest-neighbour")
            if np.any(src[~arrows] != dst[~arrows]):
                raise ParameterError("recovery mark with dst != src")
            if not np.all((kinds == 0) | arrows):
                raise ParameterError("mark kind must be 0 or 1")
        else:
            has_tie = False
        if tie_flag is None:
            tie_flag = has_tie
        if tie_flag and has_tie:
            logger.warning("event log contains simultaneous marks; "
                           "stable order is the tie-break")
        for a in (times, kinds, src, dst):
            a.setflags(write=False)
        self.window = window
        self.times = times
        self.kinds = kinds
        self.src = src
        self.dst = dst
        self.lam = lam
        self.seed_record = seed_record
        self.tie_flag = bool(tie_flag)

    def __len__(self):
        return self.times.shape[0]

    def __repr__(self):
        w = self.window
        return (f"EventLog({len(self)} marks, sites [{w.lo}, {w.hi}], "
                f"horizon {w.horizon})")

    def iter_marks(self):
        for i in range(len(self)):
            if self.kinds[i] == 0:
                yield Mark("R", int(self.src[i]), int(self.src[i]),
                           float(self.times[i]))
            else:
                yield Mark("A", int(self.src[i]), int(self.dst[i]),
                           float(self.times[i]))


# ===== sampling =====

def _line_marks(rng, n_lines, rate, horizon):
    """Per-line exponential interarrivals for n_lines independent rate-`rate`
    Poisson processes on [0, horizon].  Returns (line_idx, time) arrays,
    unordered across lines, ascending within each line."""
    if n_lines == 0 or rate <= 0:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    mean = rate * horizon
    chunk = max(8, int(mean + 6.0 * math.sqrt(mean) + 10))
    active = np.arange(n_lines)
    base = np.zeros(n_lines)
    idx_parts = []
    time_parts = []
    while active.size:
        draws = rng.exponential(1.0 / rate, size=(active.size, chunk))
        cums = base[active][:, None] + np.cumsum(draws, axis=1)
        within = cums <= horizon
        li, ki = np.nonzero(within)
        idx_parts.append(active[li])
        time_parts.append(cums[li, ki])
        alive = within[:, -1]
        base[active[alive]] = cums[alive, -1]
        active = active[alive]
    return np.concatenate(idx_parts), np.concatenate(time_parts)


def sample_event_log(window, lam, seed, stream=0):
    """Draw the Poisson marks of the graphical construction on a window.

    Each site line carries recoveries at rate 1; each directed neighbour
    pair (x, x+1) and (x, x-1) inside the window carries arrows at rate
    lam.  All lines independent.  Output is a pure function of
    (window, lam, seed, stream).

    Parameters
    ----------
    window : SiteWindow
    lam : float
        Infection rate, > 0.
    seed, stream : int
        64-bit seed and stream id; replicas of one experiment share the
        seed and take stream = replica index.
    """
    if not isinstance(window, SiteWindow):
        window = SiteWindow(*window)
    if not lam > 0:
        raise ParameterError(f"lambda must be > 0, got {lam}")
    if not (0 <= seed <= _U64_MAX) or not (0 <= stream <= _U64_MAX):
        raise ParameterError("seed and stream must be unsigned 64-bit integers")
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((seed, stream))))
    ns = window.nsites
    T = window.horizon

    r_idx, r_t = _line_marks(rng, ns, 1.0, T)
    a_right_idx, a_right_t = _line_marks(rng, ns - 1, lam, T)
    a_left_idx, a_left_t = _line_marks(rng, ns - 1, lam, T)

    times = np.concatenate([r_t, a_right_t, a_left_t])
    kinds = np.concatenate([np.zeros(r_t.size, np.int8),
                            np.ones(a_right_t.size + a_left_t.size, np.int8)])
    src = np.concatenate([window.lo + r_idx,
                          window.lo + a_right_idx,
                          window.lo + 1 + a_left_idx]).astype(np.int32)
    dst = np.concatenate([window.lo + r_idx,
                          window.lo + a_right_idx + 1,
                          window.lo + a_left_idx]).astype(np.int32)

    order = np.lexsort((kinds, src, times))
    return EventLog(window, times[order], kinds[order], src[order],
                    dst[order], lam=lam, seed_record=(int(seed), int(stream)))


# ===== queries =====

def _as_sites(start, window):
    sites = sorted({int(x) for x in start})
    for x in sites:
        if not window.contains_site(x):
            raise ParameterError(f"site {x} outside window "
                                 f"[{window.lo}, {window.hi}]")
    return sites


def _check_span(log, s, t):
    if not (0 <= s <= t <= log.window.horizon):
        raise ParameterError(f"need 0 <= s <= t <= horizon, "
                             f"got s={s}, t={t}, horizon={log.window.horizon}")


def evolve(start, log, s, t):
    """Contact process transported by the log: the set of sites reachable
    from start x {s} by open paths at time t.

    Sweeps marks with time in (s, t]: a recovery on an occupied site clears
    it, an arrow from an occupied site occupies its target.  The returned
    Configuration's `censored` attribute is True when the occupied set ever
    included a window boundary site, in which case the untruncated process
    could differ.
    """
    _check_span(log, s, t)
    w = log.window
    sites = _as_sites(start, w)
    if not sites:
        return Configuration()
    occ = np.zeros(w.nsites, np.int8)
    for x in sites:
        occ[x - w.lo] = 1
    touched = _sweep(log, occ, s, t)
    return _configuration(occ, w, touched)


def _sweep(log, occ, s, t):
    """Transport the occupancy occ (int8 over the window) by the marks with
    time in (s, t]; returns 1 if it ever touched the window boundary."""
    w = log.window
    return K.evolve_sweep(log.times, log.kinds, log.src, log.dst, len(log),
                          occ, w.lo, w.hi, float(s), float(t))


def _configuration(occ, window, touched=0):
    out = np.nonzero(occ)[0] + window.lo
    return Configuration((int(x) for x in out), censored=bool(touched))


class ReachProfile:
    """Forward reachability from a set of space-time sources, queryable at
    any time up to t_end.

    sources are (time, site) pairs sorted by time.  at(u) returns the
    configuration reached at time u.  `censored` is True when the reached
    set ever touched the window boundary up to t_end.
    """

    def __init__(self, log, sources, t_end):
        self.log = log
        self.t_end = t_end
        self._sources = sources
        occ, touched = self._occupancy(t_end)
        self.final = _configuration(occ, log.window, touched)
        self.censored = bool(touched)

    def _occupancy(self, u):
        """Occupancy at time u: the log is swept in segments between source
        times, each source joining after the marks at its own time."""
        log = self.log
        w = log.window
        occ = np.zeros(w.nsites, np.int8)
        touched = 0
        s = 0.0
        for tau, site in self._sources:
            if tau > u:
                break
            touched |= _sweep(log, occ, s, tau)
            occ[site - w.lo] = 1
            s = tau
        touched |= _sweep(log, occ, s, u)
        return occ, touched

    def at(self, u):
        """Configuration reached at time u (marks at exactly u applied,
        sources activated at exactly u included)."""
        if not (0 <= u <= self.t_end):
            raise ParameterError(f"query time {u} outside [0, {self.t_end}]")
        occ, _ = self._occupancy(u)
        return _configuration(occ, self.log.window)


def reach_forward(sources, log, t_end):
    """Reachability profile {x : some source ~> (x, u)} for u <= t_end.

    Sources are SpaceTimePoints (or (site, time) pairs), possibly at
    different times.  A source activating at exactly a mark time is placed
    after the mark, matching the open-path rule that a path from (y, s)
    only uses marks strictly after s.
    """
    w = log.window
    if not 0 <= t_end <= w.horizon:
        raise ParameterError(f"t_end {t_end} outside [0, horizon]")
    acts = []
    for p in sources:
        site, time = (p.site, p.time) if isinstance(p, SpaceTimePoint) else p
        if not w.contains_site(site):
            raise ParameterError(f"source site {site} outside window")
        if not 0 <= time <= t_end:
            raise ParameterError(f"source time {time} outside [0, t_end]")
        acts.append((float(time), int(site)))
    return ReachProfile(log, sorted(acts), float(t_end))


class BackwardReach:
    """Predicate (x, s) -> whether (x, s) has an open path to the full line
    at time t.  Exact for within-window paths; a wider window could only
    turn False into True near the boundary."""

    def __init__(self, log, t):
        _check_span(log, 0.0, t)
        w = log.window
        self.window = w
        self.t = float(t)
        n = int(np.searchsorted(log.times, t, side="right"))
        self.times = log.times[:n]
        b = np.ones(w.nsites, np.int8)
        self._delta_site = np.full(n, -1, np.int32)
        self._delta_above = np.zeros(n, np.int8)
        K.backward_sweep(log.times, log.kinds, log.src, log.dst, n, b,
                         w.lo, self._delta_site, self._delta_above)
        self._b0 = b
        self._cache_k = 0
        self._cache_b = b.copy()

    def _state_at(self, k):
        """Backward-reachability array valid on the k-th inter-mark
        interval (k marks at or below the query time)."""
        if k < self._cache_k:
            self._cache_k = 0
            self._cache_b = self._b0.copy()
        b = self._cache_b
        for i in range(self._cache_k, k):
            ds = self._delta_site[i]
            if ds >= 0:
                b[ds] = self._delta_above[i]
        self._cache_k = k
        return b

    def query(self, x, s):
        if not (0 <= s <= self.t):
            raise ParameterError(f"query time {s} outside [0, {self.t}]")
        if not self.window.contains_site(x):
            raise ParameterError(f"site {x} outside window")
        k = int(np.searchsorted(self.times, s, side="right"))
        return bool(self._state_at(k)[x - self.window.lo])

    def __call__(self, point):
        site, time = ((point.site, point.time)
                      if isinstance(point, SpaceTimePoint) else point)
        return self.query(site, time)

    def at(self, s):
        """Configuration of all sites x with (x, s) reaching the top line."""
        if not (0 <= s <= self.t):
            raise ParameterError(f"query time {s} outside [0, {self.t}]")
        k = int(np.searchsorted(self.times, s, side="right"))
        return _configuration(self._state_at(k), self.window)


def reach_backward(log, t):
    """Backward reachability to the full line at time t, as a predicate
    over space-time points: reach_backward(log, t)((x, s)) is True iff
    (x, s) ~> L_t.  Equivalent to evolve({x}, log, s, t) being nonempty."""
    return BackwardReach(log, t)


def max_jump_count(z, s, log, t):
    """Maximum number of jumps over all lambda-paths from (z, s) within
    (s, s+t].

    Lambda-paths follow arrows and ignore recoveries.  Returns
    (count, censored); censored is True when the arrow-reachable cloud
    touched the window boundary, making the count a lower bound.
    """
    w = log.window
    if not w.contains_site(z):
        raise ParameterError(f"site {z} outside window")
    if t < 0 or not (0 <= s <= s + t <= w.horizon):
        raise ParameterError(f"need 0 <= s <= s+t <= horizon, got s={s}, t={t}")
    J = np.full(w.nsites, -1, np.int32)
    best, cen = K.jump_dp(log.times, log.kinds, log.src, log.dst, len(log),
                          J, w.lo, w.hi, int(z), float(s), float(s + t))
    return int(best), bool(cen)


def is_good(z, s, log, beta, t):
    """Whether every lambda-path from (z, s) makes fewer than ceil(beta*t)
    jumps within (s, s+t].  Raises CensoredError instead of guessing when
    the jump cloud hit the window boundary."""
    count, cen = max_jump_count(z, s, log, t)
    if cen:
        raise CensoredError(
            f"jump cloud from ({z}, {s}) touched the window boundary; "
            "enlarge the window to decide goodness")
    return count < ceil_beta_t(beta, t)


def is_good_pair(z, s, log, beta, t):
    """Goodness of z and of its partner z + 2*ceil(beta*t), jointly."""
    partner = z + 2 * ceil_beta_t(beta, t)
    if not log.window.contains_site(partner):
        raise CensoredError(
            f"partner site {partner} outside window; enlarge the window")
    return is_good(z, s, log, beta, t) and is_good(partner, s, log, beta, t)


# ===== text round-trip =====

def to_text(log):
    """Line format: header comments, then `R <site> <time>` and
    `A <from> <to> <time>`, times with 17 significant digits."""
    w = log.window
    lines = ["# contact-process event log v1",
             f"# window {w.lo} {w.hi} {w.horizon:.17g}"]
    if log.lam is not None:
        lines.append(f"# lambda {log.lam:.17g}")
    if log.seed_record is not None:
        lines.append(f"# seed {log.seed_record[0]} {log.seed_record[1]}")
    if log.tie_flag:
        lines.append("# ties 1")
    for i in range(len(log)):
        t = f"{log.times[i]:.17g}"
        if log.kinds[i] == 0:
            lines.append(f"R {log.src[i]} {t}")
        else:
            lines.append(f"A {log.src[i]} {log.dst[i]} {t}")
    return "\n".join(lines) + "\n"


def from_text(text):
    """Inverse of to_text.  Raises ParameterError on a line it cannot read:
    an unknown record, a short header, or a site or time that is not a
    number."""
    window = None
    lam = None
    seed_record = None
    ties = False
    times, kinds, src, dst = [], [], [], []
    for ln, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts:
            continue
        try:
            if parts[0] == "#":
                if len(parts) >= 2 and parts[1] == "window":
                    window = (int(parts[2]), int(parts[3]), float(parts[4]))
                elif len(parts) >= 2 and parts[1] == "lambda":
                    lam = float(parts[2])
                elif len(parts) >= 2 and parts[1] == "seed":
                    seed_record = (int(parts[2]), int(parts[3]))
                elif len(parts) >= 2 and parts[1] == "ties":
                    ties = parts[2] != "0"
                continue
            if parts[0] == "R" and len(parts) == 3:
                kind, x, t = 0, int(parts[1]), float(parts[2])
                y = x
            elif parts[0] == "A" and len(parts) == 4:
                kind, x, t = 1, int(parts[1]), float(parts[3])
                y = int(parts[2])
            else:
                raise ValueError
        except (IndexError, ValueError):
            raise ParameterError(
                f"unparseable log line {ln}: {raw!r}") from None
        times.append(t)
        kinds.append(kind)
        src.append(x)
        dst.append(y)
    if window is None:
        raise ParameterError("log text has no `# window lo hi horizon` header")
    return EventLog(SiteWindow(*window), times, kinds, src, dst, lam=lam,
                    seed_record=seed_record, tie_flag=ties or None)


def save_log(log, path):
    with open(path, "w") as fh:
        fh.write(to_text(log))


def load_log(path):
    with open(path) as fh:
        return from_text(fh.read())
