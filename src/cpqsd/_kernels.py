"""Hot loops shared by the simulation modules.

Every kernel is a plain Python function, never compiled:
  * evolve_sweep and jump_dp run one mark at a time over the
    struct-of-arrays marks; backward_sweep walks an EventLog's cached
    plain lists, since indexing a list is several times cheaper than
    reading a numpy scalar;
  * gen_marks and sort_marks, the mark generator and sorter, are called
    only by the benchmark's tracer, which wraps them by name: logs are
    sampled by graphical.sample_event_log in numpy;
  * the walks each come as a population moved in lockstep and as one path
    that takes a block of draws at a time, and the two make the same draws
    by the same rule: for the contact process on Z, gillespie_free_batch
    and free_run (thinning at rate n (1 + 2 lam) over an unordered site
    list); for the depth-L chain, gillespie_chain_batch and occupation_run
    (targets by _chain_jump).

Conventions:
  * marks are struct-of-arrays: times f8, kinds i1 (0=recovery, 1=arrow),
    src i4, dst i4 (dst==src for recoveries), sorted by time;
  * sites are held as offsets site - lo: backward_sweep keeps lists, the
    other kernels arrays over the window's sites (int8 occupancy, int32
    jump counts);
  * in-kernel randomness is splitmix64 seeded from a uint64 per replica,
    state passed as a one-element uint64 array so calls can mutate it (the
    lockstep walks advance a whole array of such words at once).  Every
    draw goes through the one splitmix64, _units, which mixes whole uint64
    arrays, whose arithmetic wraps silently: no kernel does scalar uint64
    arithmetic, so none depends on numpy's floating-point error state.
"""

from __future__ import annotations

import numpy as np

# every kernel here is interpreted; the bench harnesses record this
USE_NUMBA = False


# ===== splitmix64 =====

_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)
_U53 = np.float64(1.0 / 9007199254740992.0)  # 2**-53


def _units(words):
    """Advance every splitmix64 word of the array in place and return one
    uniform on (0, 1] per word, never 0 so log() is safe: the top 53 bits
    of the mixed word, plus one, times 2**-53."""
    words += _SM_GAMMA
    z = words >> 30
    z ^= words
    z *= _SM_M1
    z ^= z >> 27
    z *= _SM_M2
    z ^= z >> 31
    z >>= 11
    z += 1
    return z.astype(np.float64) * _U53


_STEPS = np.arange(8192, dtype=np.uint64) * _SM_GAMMA


def _block(state, m):
    """(words, units) of the next m <= 8192 draws of the word state[0]:
    splitmix64 is a counter (draw k mixes state[0] + (k + 1) gamma), so one
    _units call makes them in order, and words[k] is the word after draw
    k."""
    words = state[0] + _STEPS[:m]
    return words, _units(words)


def _exponential(state, rate):
    """Exponential draw at `rate` from the word state[0], which advances."""
    return -np.log(_units(state)[0]) / rate


# ===== mark generation =====

def gen_marks(lo, hi, t0, t1, lam, state, times, kinds, src, dst):
    """Per-line exponential interarrivals, fixed line order, unsorted output.

    Line order: recovery lines lo..hi, right arrows x->x+1 for x<hi, left
    arrows x->x-1 for x>lo.  Returns mark count, or -1 if capacity is too
    small (caller grows the buffers and calls again; the stream restarts,
    so the result is still a pure function of the seed).
    """
    cap = times.shape[0]
    n = 0
    for x in range(lo, hi + 1):
        t = t0 + _exponential(state, 1.0)
        while t <= t1:
            if n >= cap:
                return -1
            times[n] = t
            kinds[n] = 0
            src[n] = x
            dst[n] = x
            n += 1
            t += _exponential(state, 1.0)
    if lam > 0.0:
        for x in range(lo, hi):
            t = t0 + _exponential(state, lam)
            while t <= t1:
                if n >= cap:
                    return -1
                times[n] = t
                kinds[n] = 1
                src[n] = x
                dst[n] = x + 1
                n += 1
                t += _exponential(state, lam)
        for x in range(lo + 1, hi + 1):
            t = t0 + _exponential(state, lam)
            while t <= t1:
                if n >= cap:
                    return -1
                times[n] = t
                kinds[n] = 1
                src[n] = x
                dst[n] = x - 1
                n += 1
                t += _exponential(state, lam)
    return n



def sort_marks(times, kinds, src, dst, n, times_s, kinds_s, src_s, dst_s):
    order = np.argsort(times[:n])
    for i in range(n):
        j = order[i]
        times_s[i] = times[j]
        kinds_s[i] = kinds[j]
        src_s[i] = src[j]
        dst_s[i] = dst[j]



# ===== forward / backward sweeps =====

def evolve_sweep(times, kinds, src, dst, n, occ, lo, hi, s, t):
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


def backward_sweep(kinds, src, dst, n, nsites):
    """Backward reachability to the top line above mark n - 1.

    kinds, src and dst are an EventLog's plain lists (EventLog.lists), src
    and dst as offsets site - lo.  Sweeps the marks 0..n-1 downward from
    the all-ones state above them and returns, per offset, the ascending
    indices of the marks at which that site's reach bit changes.  The bit
    is 1 above mark n - 1 and each change flips it, so a point above mark
    k - 1 and below mark k reaches the top iff an even number of its
    site's changes have index >= k.
    """
    b = [1] * nsites
    flips = [[] for _ in range(nsites)]
    for k in range(n - 1, -1, -1):
        x = src[k]
        if kinds[k]:
            if not b[x] and b[dst[k]]:
                b[x] = 1
                flips[x].append(k)
        elif b[x]:
            b[x] = 0
            flips[x].append(k)
    for f in flips:
        f.reverse()
    return flips


# ===== jump-count dynamic program =====

def jump_dp(times, kinds, src, dst, n, J, lo, hi, z, s, t):
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



# ===== contact process, direct event simulation =====

_FREE_BLOCK = 256  # events whose draws free_run takes in one go
_ALONE = 32  # most live replicas that gillespie_free_batch hands to free_run


def free_run(sites, lam, t_now, t_end, state):
    """Run one replica of the contact process on Z from the site list
    `sites` (distinct, in any order) on (t_now, t_end].  Mutates sites and
    state; returns the end time: t_end, or the death time with sites empty.

    Thinning: events come at total rate n (1 + 2 lam), and each one draws a
    clock and then u, which picks entry j = int(u n) of the list and, from
    f = (u n - j)(1 + 2 lam), a recovery (f < 1), an arrow to the right
    (f < 1 + lam) or an arrow to the left.  A recovery moves the last entry
    into slot j; an arrow onto an infected site does nothing.  A block of
    events takes its draws from one _block call, so the run ends with the
    word event-by-event drawing would leave.  gillespie_free_batch makes the
    same draws with the same arithmetic, so each of its replicas ends where
    this run of its word alone ends.
    """
    c = 1.0 + 2.0 * lam
    right = 1.0 + lam
    occupied = set(sites)
    n = len(sites)
    m = 16  # blocks double up to _FREE_BLOCK events: most runs are short
    while n:
        words, u = _block(state, 2 * m)
        logs = np.log(u[::2]).tolist()
        picks = u[1::2].tolist()
        for i in range(m):
            t_now = t_now - logs[i] / (n * c)
            if t_now > t_end:
                state[0] = words[2 * i]
                return t_end
            q = picks[i] * n
            j = min(int(q), n - 1)
            f = (q - j) * c
            if f < 1.0:
                occupied.discard(sites[j])
                last = sites.pop()
                n -= 1
                if j < n:
                    sites[j] = last
                elif not n:
                    state[0] = words[2 * i + 1]
                    return t_now
            else:
                y = sites[j] + 1 if f < right else sites[j] - 1
                if y not in occupied:
                    occupied.add(y)
                    sites.append(y)
                    n += 1
        state[0] = words[-1]
        m = min(2 * m, _FREE_BLOCK)
    return t_now


def gillespie_free_batch(sites, occ, lo, counts, tnows, lam, t_end, states):
    """Advance every replica with counts[i] > 0 to t_end, or to death
    (counts[i] = 0, tnows[i] = death time), in lockstep.

    Replica i holds its counts[i] infected sites, unordered, in
    sites[i, :counts[i]], and occ[i, x - lo] = 1 marks each of them.  One
    step draws, for every live replica from its own word, a clock and then
    a pick, by free_run's rule and arithmetic.  The bitmap window and the
    site capacity are doubled before an arrow would leave them, so no event
    is lost and the result does not depend on the sizes.  Once at most
    _ALONE replicas are live, and fewer than the events the largest of them
    expects before t_end, a step costs more than their events would alone:
    free_run finishes each of them, which changes nothing but the time
    taken.  Returns (sites, occ, lo), reallocated if they grew.
    """
    c = 1.0 + 2.0 * lam
    right = 1.0 + lam
    pos = np.nonzero(counts > 0)[0]
    n = counts[pos]
    t = tnows[pos]
    w = states[pos]
    while pos.size:
        if (pos.size <= _ALONE
                and pos.size < n.max() * c * (t_end - t.min())):
            break
        t = t - np.log(_units(w)) / (n * c)
        held = t > t_end
        if held.any():
            counts[pos[held]] = n[held]
            tnows[pos[held]] = t_end
            states[pos[held]] = w[held]
            go = ~held
            pos, n, t, w = pos[go], n[go], t[go], w[go]
            if not pos.size:
                break
        q = _units(w) * n
        j = np.minimum(q.astype(np.int64), n - 1)
        f = (q - j) * c
        rec = f < 1.0
        row = pos * sites.shape[1]
        x = sites.ravel()[row + j]
        y = x + np.where(f < right, 1, -1) * ~rec
        if y.min() < lo or y.max() >= lo + occ.shape[1]:
            occ, lo = _grow_window(occ, lo, y.min(), y.max())
        cell = pos * occ.shape[1] + (y - lo)
        born = occ.ravel()[cell] == 0
        occ.ravel()[cell] = ~rec
        # a recovery moves the last entry into slot j; an arrow writes
        # slot n, which counts only if the site was born
        col = np.where(rec, j, n)
        if col.max() >= sites.shape[1]:
            sites = _grow_capacity(sites, col.max() + 1)
            row = pos * sites.shape[1]
        flat = sites.ravel()
        flat[row + col] = np.where(rec, flat[row + n - 1], y)
        n = n + born - rec
        dead = n == 0
        if dead.any():
            counts[pos[dead]] = 0
            tnows[pos[dead]] = t[dead]
            states[pos[dead]] = w[dead]
            go = ~dead
            pos, n, t, w = pos[go], n[go], t[go], w[go]
    for i, n_i, t_i, word in zip(pos.tolist(), n.tolist(), t.tolist(), w):
        alone = sites[i, :n_i].tolist()
        occ[i, sites[i, :n_i] - lo] = 0
        state = np.array([word])
        tnows[i] = free_run(alone, lam, t_i, t_end, state)
        states[i] = state[0]
        counts[i] = len(alone)
        if alone:
            got = np.array(alone)
            if got.min() < lo or got.max() >= lo + occ.shape[1]:
                occ, lo = _grow_window(occ, lo, got.min(), got.max())
            if got.size > sites.shape[1]:
                sites = _grow_capacity(sites, got.size)
            sites[i, :got.size] = got
            occ[i, got - lo] = 1
    return sites, occ, lo


def _grow_window(occ, lo, y_min, y_max):
    """occ and lo with the window doubled, as often as it takes to hold
    sites y_min..y_max; the new half goes on the side that needs it."""
    while y_min < lo or y_max >= lo + occ.shape[1]:
        width = occ.shape[1]
        bigger = np.zeros((occ.shape[0], 2 * width), np.int8)
        if y_min < lo:
            bigger[:, width:] = occ
            lo -= width
        else:
            bigger[:, :width] = occ
        occ = bigger
    return occ, lo


def _grow_capacity(sites, need):
    """sites with its capacity doubled until it holds `need` entries."""
    cap = sites.shape[1]
    while cap < need:
        cap *= 2
    bigger = np.zeros((sites.shape[0], cap), sites.dtype)
    bigger[:, :sites.shape[1]] = sites
    return bigger


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

    One _block call gives a block of jumps their draws, clock then target,
    in the order and with the end word of jump-by-jump drawing.  Only the
    targets need a loop; np.add.at adds the holding times in path order.
    """
    walk = (indptr, indices, cum, base, off, exits)
    while n_jumps > 0:
        m = min(n_jumps, _PATH_BLOCK)
        words, u = _block(state, 2 * m)
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
