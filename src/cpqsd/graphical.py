"""Graphical construction of the contact process on a space-time window.

A window [lo, hi] x [0, horizon] carries Poisson marks: recovery marks at
rate 1 on each site line, arrow marks at rate lambda on each of the two
directed lines per neighbour pair.  A log serves couplings, where several
configurations must share one set of marks (edge.edge_evolve); the queries
below, forward evolution, backward reachability to the top line and jump
counts over arrow-only paths; and, in tests, an independent reference for
the event-by-event simulation that edge and yaglom use for independent
replicas (TestIndependentReference).  The exact chain in spectral never
reads a log.

A log never changes, so it keeps what its queries derive from it: its marks
as plain lists, and its last backward sweep, one entry, so that repeated
backward predicates at one top time sweep the marks once.

Truncation rule: marks outside the window do not exist.  Reachability
grown from small seeds therefore reports a `censored` flag whenever the
reached set touched lo or hi, at which point a wider window could change
the answer.  For a fixed set of marks, enlarging the window only ever adds
reachability.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels as K
from .errors import (CensoredError, ParameterError, check_integer,
                     check_positive, check_seed, check_sites, check_time)

logger = logging.getLogger(__name__)


def ceil_beta_t(beta, t):
    """Integer jump budget for slope beta over duration t.

    Rounds beta*t up to the next integer, with a small backward nudge so
    products that are mathematically integral (18 * 10) are not pushed up
    by float noise.
    """
    check_positive(beta, "beta")
    check_time(t, "duration")
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
        object.__setattr__(self, "lo", check_integer(self.lo, "window lo"))
        object.__setattr__(self, "hi", check_integer(self.hi, "window hi"))
        if self.lo > self.hi:
            raise ParameterError(f"window lo {self.lo} > hi {self.hi}")
        check_positive(self.horizon, "window horizon")

    @property
    def nsites(self):
        return self.hi - self.lo + 1

    def contains_site(self, x):
        return self.lo <= x <= self.hi


def _check_window(window):
    if not isinstance(window, SiteWindow):
        raise ParameterError(f"window must be a SiteWindow, got {window!r}")


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


def _mark_integers(a, dtype, what):
    """a as a contiguous array of dtype.  Any other dtype must hold
    integers that dtype holds, and not bools, so that no cast makes a
    different mark."""
    a = np.asarray(a)
    if a.dtype != dtype and a.size and (a.dtype.kind not in "iu" or
                                        not np.array_equal(a.astype(dtype), a)):
        raise ParameterError(f"mark {what}s must be integers in the range "
                             f"of {np.dtype(dtype)}, got {a.dtype}")
    return np.ascontiguousarray(a, dtype=dtype)


class EventLog:
    """Immutable, time-sorted mark sequence on a window.

    Arrays: times (f8), kinds (i1: 0 recovery, 1 arrow), src (i4), dst (i4,
    == src for recoveries).  `tie_flag` is set when two marks share a time;
    the stable sort order then acts as the deterministic tie-break.

    `reach_backward` does not read the arrays: it walks `lists`, the same
    marks as plain Python lists, built on first use and kept, since a log
    never changes.  The log also keeps its last backward sweep, one
    (n, flips) pair for the n marks it covered; a `BackwardReach` whose top
    time covers the same n marks reuses it, and any other replaces it.
    `evolve` and `max_jump_count` read the arrays.
    """

    def __init__(self, window, times, kinds, src, dst):
        _check_window(window)
        times = np.asarray(times)
        if times.dtype.kind not in "iuf":
            raise ParameterError(f"mark times must be numbers, got "
                                 f"{times.dtype}")
        times = np.ascontiguousarray(times, dtype=np.float64)
        kinds = _mark_integers(kinds, np.int8, "kind")
        src = _mark_integers(src, np.int32, "source")
        dst = _mark_integers(dst, np.int32, "target")
        n = times.shape[0]
        if not (kinds.shape[0] == src.shape[0] == dst.shape[0] == n):
            raise ParameterError("mark arrays have mismatched lengths")
        if n:
            if not np.all((times >= 0) & (times <= window.horizon)):
                raise ParameterError("mark time not in [0, horizon]")
            d = np.diff(times)
            if np.any(d < 0):
                raise ParameterError("mark times not sorted")
            tie_flag = bool(np.any(d == 0))
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
            tie_flag = False
        if tie_flag:
            logger.warning("event log contains simultaneous marks; "
                           "stable order is the tie-break")
        for a in (times, kinds, src, dst):
            a.setflags(write=False)
        self.window = window
        self.times = times
        self.kinds = kinds
        self.src = src
        self.dst = dst
        self.tie_flag = tie_flag
        self._sweep = (None, None)

    def __len__(self):
        return self.times.shape[0]

    @cached_property
    def lists(self):
        """(times, kinds, src, dst) as plain lists, src and dst as offsets
        site - window.lo: the form _kernels.backward_sweep walks."""
        lo = self.window.lo
        return (self.times.tolist(), self.kinds.tolist(),
                (self.src - lo).tolist(), (self.dst - lo).tolist())

    def __repr__(self):
        w = self.window
        return (f"EventLog({len(self)} marks, sites [{w.lo}, {w.hi}], "
                f"horizon {w.horizon})")


# ===== sampling =====

def sample_event_log(window, lam, seed, stream=0):
    """Draw the Poisson marks of the graphical construction on a window.

    Each site line carries recoveries at rate 1; each directed neighbour
    pair (x, x+1) and (x+1, x) inside the window carries arrows at rate
    lam; all lines are independent.  A rate-r Poisson process on [0, T]
    is a Poisson(r T) count of iid uniform times, so one draw gives every
    line's count and one more every mark's time on (0, T]; each mark
    takes its kind, source and target from its line.  Output is a pure
    function of (window, lam, seed, stream).

    Parameters
    ----------
    window : SiteWindow
    lam : float
        Infection rate, finite and > 0.
    seed, stream : int
        64-bit seed and stream id; replicas of one experiment share the
        seed and take stream = replica index.
    """
    _check_window(window)
    check_positive(lam, "lambda")
    check_seed(seed)
    check_seed(stream, "stream")
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((seed, stream))))
    ns = window.nsites
    T = window.horizon
    # lines: ns recovery lines, then ns - 1 right and ns - 1 left arrows
    sites = np.arange(window.lo, window.hi + 1, dtype=np.int32)
    line_src = np.concatenate([sites, sites[:-1], sites[1:]])
    line_dst = np.concatenate([sites, sites[1:], sites[:-1]])
    rates = np.full(line_src.size, lam)
    rates[:ns] = 1.0
    line = np.repeat(np.arange(line_src.size), rng.poisson(rates * T))
    times = T * (1.0 - rng.random(line.size))
    kinds = (line >= ns).astype(np.int8)
    src = line_src[line]
    dst = line_dst[line]
    order = np.lexsort((kinds, src, times))
    return EventLog(window, times[order], kinds[order], src[order],
                    dst[order])


# ===== queries =====

def _site(x, window):
    """x as an int site of window; ParameterError if it is not an integer
    or lies outside."""
    x = check_integer(x, "site")
    if not window.contains_site(x):
        raise ParameterError(f"site {x} outside window "
                             f"[{window.lo}, {window.hi}]")
    return x


def _as_sites(start, window):
    return sorted(_site(x, window) for x in check_sites(start, "site"))


def _check_span(log, s, t):
    check_time(s, "start time")
    check_time(t, "end time")
    if not s <= t <= log.window.horizon:
        raise ParameterError(f"need 0 <= s <= t <= horizon, "
                             f"got s={s}, t={t}, horizon={log.window.horizon}")


def evolve(start, log, s, t):
    """Contact process transported by the log: the set of sites reachable
    from start x {s} by open paths at time t.

    Sweeps marks with time in (s, t]: a recovery on an occupied site clears
    it, an arrow from an occupied site occupies its target.  The sweep ends
    once the set is empty, since no later mark can revive it.  The returned
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
    touched = K.evolve_sweep(log.times, log.kinds, log.src, log.dst,
                             len(log), occ, w.lo, w.hi, float(s), float(t))
    out = np.nonzero(occ)[0] + w.lo
    return Configuration((int(x) for x in out), censored=bool(touched))


class BackwardReach:
    """Predicate (x, s) -> whether (x, s) has an open path to the full line
    at time t.  Exact for within-window paths; a wider window could only
    turn False into True near the boundary.

    One backward sweep records, per site, the ascending indices of the
    marks at or below t where its reach bit changes.  A query at (x, s)
    takes k, the number of marks at or below s, by one bisect in the mark
    times; the marks of index >= k lie above s, and (x, s) reaches the top
    iff an even number of x's changes are among them, one bisect in x's
    list.

    The flips depend on t only through the number n of marks at or below
    it, so the log keeps the last (n, flips) pair: one entry, reused by
    every predicate on the same n marks and replaced by the next other n.
    The flips are never changed after the sweep and the pair is replaced in
    one assignment, so predicates may be built on one log from several
    threads."""

    def __init__(self, log, t):
        _check_span(log, 0.0, t)
        w = log.window
        self.window = w
        self.t = float(t)
        times, kinds, src, dst = log.lists
        self._times = times
        n = bisect_right(times, t)
        kept, flips = log._sweep
        if kept != n:
            flips = K.backward_sweep(kinds, src, dst, n, w.nsites)
            log._sweep = (n, flips)
        self._flips = flips

    def _marks_below(self, s):
        """Number of marks at or below query time s, which must lie in
        [0, t]."""
        if check_time(s, "query time") > self.t:
            raise ParameterError(f"query time {s} outside [0, {self.t}]")
        return bisect_right(self._times, s)

    def query(self, x, s):
        k = self._marks_below(s)
        x = _site(x, self.window)
        return _reaches(self._flips[x - self.window.lo], k)

    def __call__(self, point):
        site, time = point
        return self.query(site, time)

    def at(self, s):
        """Configuration of all sites x with (x, s) reaching the top line."""
        k = self._marks_below(s)
        lo = self.window.lo
        return Configuration(x + lo for x, flips in enumerate(self._flips)
                             if _reaches(flips, k))


def _reaches(flips, k):
    """Whether a site whose reach bit changes at the ascending mark indices
    `flips` reaches the top below mark k: iff an even number of them are at
    or above k."""
    return (len(flips) - bisect_left(flips, k)) % 2 == 0


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
    z = _site(z, w)
    if check_time(s, "start time") + check_time(t, "duration") > w.horizon:
        raise ParameterError(f"need s + t <= horizon, got s={s}, t={t}")
    J = np.full(w.nsites, -1, np.int32)
    best, cen = K.jump_dp(log.times, log.kinds, log.src, log.dst, len(log),
                          J, w.lo, w.hi, z, float(s), float(s + t))
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
