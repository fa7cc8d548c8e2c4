"""Hot loops shared by the simulation modules.

Two kinds of kernel live here:
  * scalar loops (u64, unit, exponential, the mark generator and sorter,
    the forward/backward sweeps, jump_dp, gillespie_free and its batch
    driver) are written once as plain numpy functions and compiled by _jit
    with numba when available.  Set CPQSD_NUMBA=0 to force the interpreted
    fallback (a safety net on machines without a working numba).  Both
    paths execute the same source, so results are bit-identical.  The
    interpreted path enters np.errstate(over="ignore") once, on the
    outermost kernel call of each thread: kernels called from inside a
    kernel run their plain function.
  * the depth-L chain walks, gillespie_chain_batch (a population, in
    lockstep) and occupation_run (one long path), are plain numpy and never
    compiled, and array arithmetic wraps silently.  Both pick targets by
    the one rule of _chain_jump.

Conventions:
  * marks are struct-of-arrays: times f8, kinds i1 (0=recovery, 1=arrow),
    src i4, dst i4 (dst==src for recoveries), sorted by time;
  * occupancy arrays are int8 over window sites, index = site - lo;
  * in-kernel randomness is splitmix64 seeded from a uint64 per replica,
    state passed as a one-element uint64 array so calls can mutate it (the
    lockstep walk advances a whole array of such words at once).
"""

from __future__ import annotations

import functools
import os
import threading

import numpy as np

USE_NUMBA = os.environ.get("CPQSD_NUMBA", "1") != "0"
if USE_NUMBA:
    try:
        import numba
    except ImportError:  # pragma: no cover - numba is a declared dependency
        numba = None
        USE_NUMBA = False


_in_kernel = threading.local()


def _jit(fn):
    if USE_NUMBA:
        return numba.njit(cache=True)(fn)

    # interpreted path: uint64 scalar arithmetic overflows by design.
    # Entering errstate costs more than a random draw, so only the outermost
    # kernel call of a thread enters it; nested calls run fn as it is.
    @functools.wraps(fn)
    def wrapper(*args):
        if getattr(_in_kernel, "on", False):
            return fn(*args)
        _in_kernel.on = True
        try:
            with np.errstate(over="ignore"):
                return fn(*args)
        finally:
            _in_kernel.on = False

    return wrapper


# ===== splitmix64 =====

_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)
_U53 = np.float64(1.0 / 9007199254740992.0)  # 2**-53


def _u64_py(state):
    state[0] = state[0] + _SM_GAMMA
    z = state[0]
    z = (z ^ (z >> np.uint64(30))) * _SM_M1
    z = (z ^ (z >> np.uint64(27))) * _SM_M2
    return z ^ (z >> np.uint64(31))


u64 = _jit(_u64_py)


def _unit_py(state):
    # uniform on (0, 1]; never 0 so log() is safe
    return (np.float64(u64(state) >> np.uint64(11)) + 1.0) * _U53


unit = _jit(_unit_py)


def _exponential_py(state, rate):
    return -np.log(unit(state)) / rate


exponential = _jit(_exponential_py)


def _units(words):
    """Advance every splitmix64 word of the array in place and return one
    uniform on (0, 1] per word: the value unit() draws from that word."""
    words += _SM_GAMMA
    z = words ^ (words >> np.uint64(30))
    z *= _SM_M1
    z ^= z >> np.uint64(27)
    z *= _SM_M2
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(11)).astype(np.float64) + 1.0) * _U53


# ===== mark generation =====

def _gen_marks_py(lo, hi, t0, t1, lam, state, times, kinds, src, dst):
    """Per-line exponential interarrivals, fixed line order, unsorted output.

    Line order: recovery lines lo..hi, right arrows x->x+1 for x<hi, left
    arrows x->x-1 for x>lo.  Returns mark count, or -1 if capacity is too
    small (caller grows the buffers and calls again; the stream restarts,
    so the result is still a pure function of the seed).
    """
    cap = times.shape[0]
    n = 0
    for x in range(lo, hi + 1):
        t = t0 + exponential(state, 1.0)
        while t <= t1:
            if n >= cap:
                return -1
            times[n] = t
            kinds[n] = 0
            src[n] = x
            dst[n] = x
            n += 1
            t += exponential(state, 1.0)
    if lam > 0.0:
        for x in range(lo, hi):
            t = t0 + exponential(state, lam)
            while t <= t1:
                if n >= cap:
                    return -1
                times[n] = t
                kinds[n] = 1
                src[n] = x
                dst[n] = x + 1
                n += 1
                t += exponential(state, lam)
        for x in range(lo + 1, hi + 1):
            t = t0 + exponential(state, lam)
            while t <= t1:
                if n >= cap:
                    return -1
                times[n] = t
                kinds[n] = 1
                src[n] = x
                dst[n] = x - 1
                n += 1
                t += exponential(state, lam)
    return n


gen_marks = _jit(_gen_marks_py)


def _sort_marks_py(times, kinds, src, dst, n, times_s, kinds_s, src_s, dst_s):
    order = np.argsort(times[:n])
    for i in range(n):
        j = order[i]
        times_s[i] = times[j]
        kinds_s[i] = kinds[j]
        src_s[i] = src[j]
        dst_s[i] = dst[j]


sort_marks = _jit(_sort_marks_py)


# ===== forward / backward sweeps =====

def _evolve_sweep_py(times, kinds, src, dst, n, occ, lo, hi, s, t):
    """Apply marks with s < time <= t to occupancy occ (int8, index site-lo).

    Returns 1 if the occupied set ever included a window boundary site
    while marks were pending (truncation may matter), else 0.
    """
    touched = 0
    if occ[0] != 0 or occ[hi - lo] != 0:
        touched = 1
    i = np.searchsorted(times[:n], s, side="right")
    while i < n and times[i] <= t:
        x = src[i] - lo
        if kinds[i] == 0:
            occ[x] = 0
        else:
            if occ[x] != 0:
                y = dst[i] - lo
                if occ[y] == 0:
                    occ[y] = 1
                    if y == 0 or y == hi - lo:
                        touched = 1
        i += 1
    return touched


evolve_sweep = _jit(_evolve_sweep_py)


def _backward_sweep_py(times, kinds, src, dst, n, b, lo, delta_site, delta_above):
    """Backward reachability to the top line.

    On entry b must be all ones (state on the interval above the last mark).
    On exit b[x] == 1 iff (x, s) reaches the top line for s just below the
    first mark (equivalently: for s = 0 when the log starts at 0).

    Stores per-event replay deltas: crossing event k upward in time, set
    b[delta_site[k]] = delta_above[k] (site -1 = none).
    """
    for k in range(n - 1, -1, -1):
        x = src[k] - lo
        if kinds[k] == 0:
            if b[x] != 0:
                delta_site[k] = x
                delta_above[k] = 1
            else:
                delta_site[k] = -1
            b[x] = 0
        else:
            y = dst[k] - lo
            if b[x] == 0 and b[y] != 0:
                delta_site[k] = x
                delta_above[k] = 0
                b[x] = 1
            else:
                delta_site[k] = -1
    return 0


backward_sweep = _jit(_backward_sweep_py)


# ===== jump-count dynamic program =====

def _jump_dp_py(times, kinds, src, dst, n, J, lo, hi, z, s, t):
    """Max jumps over lambda-paths from (z, s) by each site within (s, t].

    J must be int32, all -1; J[z-lo] is set to 0 here.  Returns
    (max_jumps, censored) with censored = 1 when the reached cloud touched
    the window boundary.
    """
    J[z - lo] = 0
    best = 0
    i = np.searchsorted(times[:n], s, side="right")
    while i < n and times[i] <= t:
        if kinds[i] == 1:
            x = src[i] - lo
            if J[x] >= 0:
                y = dst[i] - lo
                v = J[x] + 1
                if v > J[y]:
                    J[y] = v
                    if v > best:
                        best = v
        i += 1
    censored = 0
    if J[0] >= 0 or J[hi - lo] >= 0:
        censored = 1
    return best, censored


jump_dp = _jit(_jump_dp_py)


# ===== contact process, direct event simulation =====

def _gillespie_free_py(sites, n, lam, t_now, t_end, state):
    """Contact process on Z from a sorted site list, run on (t_now, t_end].

    Mutates sites in place.  Returns (n', t'):
      n' >= 0  survived to t_end (t' = t_end) or died (n' = 0, t' = death time)
      n' = -2  the buffer is full (n == capacity) before the next event.  No
               draw has been made for that event, so copying the n sites into
               a larger buffer and calling again with (n, t') continues the
               same run exactly.
    """
    cap = sites.shape[0]
    if n >= cap:
        return -2, t_now
    while n > 0:
        adj = 0
        for i in range(n - 1):
            if sites[i + 1] - sites[i] == 1:
                adj += 1
        slots = 2 * n - 2 * adj
        total = n + lam * slots
        t_now += exponential(state, total)
        if t_now > t_end:
            return n, t_end
        r = unit(state) * total
        if r < n:
            idx = int(r)
            if idx >= n:
                idx = n - 1
            for i in range(idx, n - 1):
                sites[i] = sites[i + 1]
            n -= 1
        else:
            k = int((r - n) / lam)
            if k >= slots:
                k = slots - 1
            target = 0
            found = 0
            for i in range(n):
                if found == 0 and (i == 0 or sites[i - 1] != sites[i] - 1):
                    if k == 0:
                        target = sites[i] - 1
                        found = 1
                    else:
                        k -= 1
                if found == 0 and (i == n - 1 or sites[i + 1] != sites[i] + 1):
                    if k == 0:
                        target = sites[i] + 1
                        found = 1
                    else:
                        k -= 1
                if found != 0:
                    break
            j = n
            while j > 0 and sites[j - 1] > target:
                sites[j] = sites[j - 1]
                j -= 1
            sites[j] = target
            n += 1
            if n >= cap:
                return -2, t_now
    return 0, t_now


gillespie_free = _jit(_gillespie_free_py)


def _gillespie_free_batch_py(sites2d, counts, tnows, lam, t_end, states):
    """Advance every replica with counts[i] > 0 to t_end (or death)."""
    npop = counts.shape[0]
    for i in range(npop):
        if counts[i] > 0:
            st = states[i:i + 1]
            # plain scalars: interpreted arithmetic on numpy scalars is
            # slower and gives the same values
            n2, t2 = gillespie_free(sites2d[i], int(counts[i]), lam,
                                    float(tnows[i]), t_end, st)
            counts[i] = n2
            tnows[i] = t2
    return 0


gillespie_free_batch = _jit(_gillespie_free_batch_py)


# ===== truncated-chain walks (CSR) =====

def _chain_jump(indptr, indices, cum, base, off, exits, s, u):
    """The target rule of both chain walks, for one state index s and its
    target draw u, or for arrays of them.  Returns (target, absorbed):
    with r = u * exits[s], the jump is absorbed if r >= off[s]; otherwise
    the target is the first entry of the row whose running sum over the
    whole matrix exceeds base[s] + r, clamped to the row against rounding.
    """
    r = u * exits[s]
    k = cum.searchsorted(base[s] + r, side="right")
    return indices[np.minimum(k, indptr[s + 1] - 1)], r >= off[s]


def gillespie_chain_batch(indptr, indices, cum, base, off, exits, idxs,
                          tnows, t_end, states):
    """Advance every replica with idxs[i] >= 0 to t_end, or to absorption
    (idxs[i] = -1, tnows[i] = absorption time), in lockstep.

    CSR rows hold the non-absorbing rates; cum is their cumulative sum over
    the whole matrix, base[s] its value before row s starts, off[s] the row's
    sum in row order and exits[s] = off[s] + absorption rate.  One step
    draws, for every live replica from its own word, a holding time and then
    a target (_chain_jump), so a replica's path is the one its word alone
    would walk, whatever the other replicas do.
    """
    pos = np.nonzero(idxs >= 0)[0]
    s = idxs[pos]
    t = tnows[pos]
    w = states[pos]
    while pos.size:
        t = t - np.log(_units(w)) / exits[s]
        held = t > t_end
        if held.any():
            idxs[pos[held]] = s[held]
            tnows[pos[held]] = t_end
            states[pos[held]] = w[held]
            go = ~held
            pos, s, t, w = pos[go], s[go], t[go], w[go]
        s, dead = _chain_jump(indptr, indices, cum, base, off, exits, s,
                              _units(w))
        if dead.any():
            idxs[pos[dead]] = -1
            tnows[pos[dead]] = t[dead]
            states[pos[dead]] = w[dead]
            go = ~dead
            pos, s, t, w = pos[go], s[go], t[go], w[go]
    return 0


_PATH_BLOCK = 4096  # jumps whose draws occupation_run takes in one go


def occupation_run(indptr, indices, cum, base, off, exits, s, n_jumps, state,
                   occ_time):
    """Jump n_jumps times from state index s on the arrays of
    gillespie_chain_batch, adding each holding time to occ_time.  Returns
    the final state index, or -1 if the path is absorbed.

    splitmix64 is a counter (draw k of word w mixes w + (k + 1) gamma), so
    one _units call gives a block of jumps their draws, clock then target,
    in the order and with the end word of jump-by-jump drawing.  Only the
    targets need a loop; np.add.at adds the holding times in path order.
    """
    walk = (indptr, indices, cum, base, off, exits)
    while n_jumps > 0:
        m = min(n_jumps, _PATH_BLOCK)
        words = state[0] + np.arange(2 * m, dtype=np.uint64) * _SM_GAMMA
        u = _units(words)
        picks = u[1::2].tolist()
        path = np.empty(m, np.int64)
        for i in range(m):
            path[i] = s
            s, dead = _chain_jump(*walk, s, picks[i])
            if dead:
                m = i + 1
                break
        state[0] = words[2 * m - 1]
        np.add.at(occ_time, path[:m], -np.log(u[:2 * m:2]) / exits[path[:m]])
        if dead:
            return -1
        n_jumps -= m
    return int(s)
