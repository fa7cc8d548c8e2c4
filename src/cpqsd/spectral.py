"""Exact spectral surrogate: the edge process truncated to depth L.

States are the 2^(L-1) nonempty canonical keys (offsets in (-L, 0], pinned
at 0).  The generator, its dominant eigentriple (alpha, nu, h), survival
probabilities, and conditioned laws are all computed with certified
residuals or rigorously truncated series, so downstream Monte Carlo has an
exact finite-state object to be checked against.

Truncation policies: "clip" silently discards infections that would land
at or below -L (self-loops are simply not transitions), "kill" routes that
rate into absorption instead.  The two bracket the untruncated decay rate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import gammainc, gammaln

from .edge import EmpiricalDistribution
from .errors import ParameterError, ResolutionError

POLICY_CLIP = "clip"
POLICY_KILL = "kill"

# deepest chain measured to build and solve (2-core, 8 GB machine): 2^21
# states, 45M nonzeros, 1.7 GB peak, 80 s; each further L doubles both
_MAX_L = 22
# largest chain solved by power iteration (L <= 12); ARPACK above.  Measured
# crossover (2-core VM): at L = 12 power iteration takes 0.09-0.10 s, ARPACK
# at tol / 1000 0.02 s plus 0.09 s to import scipy.sparse.linalg, which
# small chains thus never load
_POWER_MAX_STATES = 2048


def key_to_index(key):
    if key < 1 or not key & 1:
        raise ParameterError(f"{key} is not a nonempty canonical key")
    return (key - 1) // 2


def index_to_key(idx):
    return 2 * idx + 1


# ===== generator =====

@dataclass
class TruncatedGenerator:
    """Generator on nonempty depth-L edge states, CSR-encoded.

    Q carries the full generator including the diagonal; `absorption[i]` is
    the rate from state i to the empty set, so every row satisfies
    sum(off-diagonal) + absorption = -diagonal.
    """

    L: int
    lam: float
    policy: str
    Q: sp.csr_matrix = field(repr=False)
    absorption: np.ndarray = field(repr=False)

    @property
    def nstates(self):
        return self.Q.shape[0]

    def row_of(self, key):
        """Off-diagonal transitions out of `key` as [(target_key, rate)]."""
        i = key_to_index(key)
        row = self.Q.getrow(i).tocoo()
        return sorted((index_to_key(int(j)), float(r))
                      for j, r in zip(row.col, row.data) if j != i)

    def absorption_rate_of(self, key):
        return float(self.absorption[key_to_index(key)])

    def exit_rates(self):
        return -self.Q.diagonal()


def build_generator(L, lam, policy=POLICY_CLIP):
    """Generator of the depth-L edge process.

    From state zeta (canonical, max = 0): recovery of x != 0 at rate 1 to
    zeta minus x; recovery of 0 at rate 1 to the recentered remainder (the
    empty set if zeta was the singleton); infection of a healthy y in
    (-L, 0) at rate lambda per infected neighbour; infection of -L per
    policy; infection of +1 at rate lambda shifts everything left by one,
    the overflowing offset handled per policy.
    """
    if not 1 <= L <= _MAX_L:
        raise ParameterError(f"depth L must be in [1, {_MAX_L}], got {L}")
    if not lam > 0:
        raise ParameterError(f"lambda must be > 0, got {lam}")
    if policy not in (POLICY_CLIP, POLICY_KILL):
        raise ParameterError(f"unknown policy {policy!r}")
    n = 1 << (L - 1)
    mask = (1 << L) - 1
    # int32 keys: even the shifted key stays below 2^(L + 1)
    idx = np.arange(n, dtype=np.int32)
    key = 2 * idx + 1
    # one block of (rows, cols, rates) per event type, each with at most one
    # entry per row; blocks are summed into the exit rates in event order
    rows, cols, rates = [], [], []
    out_rate = np.zeros(n)
    absorption = np.zeros(n)

    def emit(sel, tkey, rate):
        r = idx[sel]
        rate = np.broadcast_to(rate, key.shape)[sel]
        rows.append(r)
        cols.append(tkey[sel] >> 1)
        rates.append(rate)
        out_rate[r] += rate

    # recoveries away from the pinned site
    for i in range(1, L):
        emit(key >> i & 1 == 1, key & ~(1 << i), 1.0)
    # recovery of the pinned site: recenter on the new maximum (dividing by
    # the lowest set bit strips the trailing zeros)
    rest = key - 1
    alive = rest != 0
    absorption[~alive] += 1.0
    emit(alive, rest // np.where(alive, rest & -rest, 1), 1.0)
    # infections of healthy offsets inside the depth (key >> L is 0, so the
    # deepest offset has only its upper neighbour)
    for i in range(1, L):
        k = (key >> (i - 1) & 1) + (key >> (i + 1) & 1)
        emit((key >> i & 1 == 0) & (k > 0), key | (1 << i), k * lam)
    # infection of the site just below the depth
    if policy == POLICY_KILL:
        absorption[key >> (L - 1) & 1 == 1] += lam
    # infection of +1: left shift, re-pin at the new rightmost site
    shifted = (key << 1) | 1
    inside = shifted <= mask
    if policy == POLICY_KILL:
        absorption[~inside] += lam
        emit(inside, shifted, lam)
    else:
        clipped = shifted & mask
        emit(clipped != key, clipped, lam)

    rows.append(idx)
    cols.append(idx)
    rates.append(-(out_rate + absorption))
    # rebinding frees each list of blocks as soon as it is joined
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    rates = np.concatenate(rates)
    Q = sp.csr_matrix((rates, (rows, cols)), shape=(n, n))
    return TruncatedGenerator(L, float(lam), policy, Q, absorption)


# ===== dominant eigenpair =====

@dataclass
class SpectralResult:
    """Decay rate alpha with its eigenvectors, normalized nu*1 = 1 and
    nu.h = 1; residuals are sup norms of nu Q + alpha nu and Q h + alpha h.

    `iterations` is the solver's work: power-iteration steps on chains of
    at most _POWER_MAX_STATES states, applications of Q or Q.T (both sides
    together) by ARPACK on larger ones."""

    lam: float
    L: int
    policy: str
    alpha: float
    nu: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)
    residual_left: float
    residual_right: float
    iterations: int

    def nu_distribution(self):
        """nu as an empirical-distribution object keyed canonically, for TV
        comparisons against sampled laws."""
        weights = {index_to_key(i): float(p) for i, p in enumerate(self.nu)}
        return EmpiricalDistribution(self.L, weights, replica_count=0,
                                     meta={"lambda": self.lam,
                                           "policy": self.policy})

    def h_lookup(self):
        """h as a dict over canonical keys."""
        return {index_to_key(i): float(v) for i, v in enumerate(self.h)}

    def to_dict(self):
        return {"lambda": self.lam, "L": self.L, "policy": self.policy,
                "alpha": self.alpha,
                "residuals": [self.residual_left, self.residual_right],
                "iterations": self.iterations,
                "nu": [[index_to_key(i), float(p)]
                       for i, p in enumerate(self.nu)],
                "h": [[index_to_key(i), float(v)]
                      for i, v in enumerate(self.h)]}

    @classmethod
    def from_dict(cls, d):
        n = len(d["nu"])
        nu = np.zeros(n)
        h = np.zeros(n)
        for k, p in d["nu"]:
            nu[key_to_index(k)] = p
        for k, v in d["h"]:
            h[key_to_index(k)] = v
        return cls(d["lambda"], d["L"], d["policy"], d["alpha"], nu, h,
                   d["residuals"][0], d["residuals"][1],
                   d.get("iterations", 0))


def save_spectral(result, path):
    with open(path, "w") as fh:
        json.dump(result.to_dict(), fh, indent=1)
        fh.write("\n")


def load_spectral(path):
    with open(path) as fh:
        return SpectralResult.from_dict(json.load(fh))


def _sigma(gen):
    """Uniformization rate of the power iteration's step v + vQ/sigma.
    sigma sits 25% above the largest exit rate so the step's kernel has
    positive diagonal everywhere: with sigma exactly at the maximum the
    two-state chain alternates and power iteration cycles.  The semigroup
    series needs no such margin and uniformizes at the maximum itself."""
    return 1.25 * float(gen.exit_rates().max())


def dominant_eigenpair(gen, tol=1e-10, max_iters=200_000):
    """Perron triple (alpha, nu, h) of the truncated generator.

    Chains of at most _POWER_MAX_STATES states use left and right power
    iteration on the uniformized kernel (`iterations` counts its steps);
    larger ones use ARPACK's implicitly restarted Arnoldi method on Q and
    on Q.T (`iterations` counts applications of Q or Q.T, both sides
    together).  Either way the result must pass the same certificate: the
    sup-norm residuals below tol and the l1 left residual below 10*tol (the
    l1 norm is what propagates into semigroup errors).  Raises
    ResolutionError, quoting the residuals where known, when that fails or
    when max_iters is used up, and ParameterError unless tol is finite and
    > 0.
    """
    _check_tolerance("tol", tol)
    if max_iters < 1:
        raise ParameterError(f"max_iters must be >= 1, got {max_iters}")
    if gen.nstates <= _POWER_MAX_STATES:
        return _power_eigenpair(gen, tol, max_iters)
    return _arpack_eigenpair(gen, tol, max_iters)


def _certificate(Q, QT, v, h):
    """Rayleigh quotient and residuals of the pair (v, h), v summing to 1.

    Returns (alpha, sup left, l1 left, sup right residual, v Q, Q h); alpha
    is the bi-orthogonal Rayleigh quotient, whose error is second order in
    the vector errors, and the right residual is that of h / (v.h)."""
    w = QT @ v
    z = Q @ h
    vh = float(np.sum(v * h))
    alpha = -float(np.sum(v * z)) / vh
    rl = w + alpha * v
    return (alpha, float(np.max(np.abs(rl))), float(np.sum(np.abs(rl))),
            float(np.max(np.abs(z + alpha * h))) / vh, w, z)


def _certified(residual_left, resid_l1, residual_right, tol):
    return (residual_left <= tol and resid_l1 <= 10 * tol
            and residual_right <= tol)


def _power_eigenpair(gen, tol, max_iters):
    """Left and right power iteration on the uniformized kernel."""
    n = gen.nstates
    QT = gen.Q.T.tocsr()
    sigma = _sigma(gen)

    # left and right vectors advance together, so neither residual is
    # floored by the other side's
    v = np.full(n, 1.0 / n)
    h = np.ones(n)
    for iters in range(1, max_iters + 1):
        alpha, residual_left, resid_l1, residual_right, w, z = _certificate(
            gen.Q, QT, v, h)
        if _certified(residual_left, resid_l1, residual_right, tol):
            break
        v = v + w / sigma
        v /= v.sum()
        h = h + z / sigma
        h /= h.max()
    else:
        raise ResolutionError(
            f"power iteration did not converge in {max_iters} steps "
            f"(residuals {residual_left:.3e} left, {residual_right:.3e} right)")

    return SpectralResult(gen.lam, gen.L, gen.policy, alpha, v,
                          h / float(np.sum(v * h)), residual_left,
                          residual_right, iters)


class _Exhausted(Exception):
    pass


def _arpack_eigenpair(gen, tol, max_iters):
    """Rightmost eigenvector of Q.T and of Q by ARPACK, from fixed start
    vectors, so reruns are bit-identical.

    ARPACK's relative Ritz tolerance is tol / 1000: the certificate asks
    for residuals of tol, and running to machine precision (ARPACK's
    tol=0) took a fifth to three quarters more operator applications at
    L = 13-20 for digits the certificate discards.  The left solve starts
    from the singleton state, whose Krylov space holds the laws started
    there; the right one from 1, whose Krylov space holds the survival
    functions P^k 1."""
    # imported here: scipy.sparse.linalg costs several MB and tens of ms,
    # which small chains never need
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

    n = gen.nstates
    QT = gen.Q.T.tocsr()
    applied = 0

    def rightmost(M, v0):
        def matvec(x):
            nonlocal applied
            if applied >= max_iters:
                raise _Exhausted
            applied += 1
            return M @ x

        op = LinearOperator((n, n), matvec=matvec, dtype=float)
        _, vecs = eigs(op, k=1, which="LR", tol=1e-3 * tol, v0=v0)
        return np.real(vecs[:, 0])

    try:
        # the left solve starts from the singleton state (index 0, key 1)
        v = rightmost(QT, np.eye(1, n)[0])
        h = rightmost(gen.Q, np.ones(n))
    except (_Exhausted, ArpackNoConvergence):
        raise ResolutionError(
            f"ARPACK did not converge in {max_iters} operator applications "
            f"({applied} used)") from None
    v = v / v.sum()
    h = h / float(np.sum(v * h))
    alpha, residual_left, resid_l1, residual_right, _, _ = _certificate(
        gen.Q, QT, v, h)
    if not _certified(residual_left, resid_l1, residual_right, tol):
        raise ResolutionError(
            f"ARPACK eigenpair failed the certificate (residuals "
            f"{residual_left:.3e} left, l1 {resid_l1:.3e}, "
            f"{residual_right:.3e} right)")
    return SpectralResult(gen.lam, gen.L, gen.policy, alpha, v, h,
                          residual_left, residual_right, applied)


# ===== uniformized semigroup series =====

def _check_tolerance(name, value):
    if not 0 < value < math.inf:
        raise ParameterError(f"{name} must be finite and > 0, got {value}")


def _times(times):
    times = [float(t) for t in times]
    for t in times:
        if not 0 <= t < math.inf:
            raise ParameterError(f"time must be finite and >= 0, got {t}")
    return times


def _series(gen, v, times, rtol):
    """Masses of v e^{Qt} for each distinct t > 0 in times, and the row
    v e^{Qt} itself at the largest of them, by one pass of the uniformized
    Poisson series.

    With sigma the largest exit rate, P = I + Q/sigma is nonnegative and
    substochastic, and v e^{Qt} = sum_k e^{-m} m^k / k! u_k with m = sigma t
    and u_k = v P^k.  u_k is computed once; each time adds its Poisson
    weight times sum(u_k) to its mass, and the largest time adds its
    weighted u_k to the row.  sum(u_k) does not increase with k, so the l1
    norm of the tail after K terms is at most P(Poisson(m) > K) sum(u_K); a
    time's series closes once that bound is below rtol times its mass.
    Returns ({t: mass}, row), the row all zeros when no time is positive.
    """
    sigma = float(gen.exit_rates().max())
    # P^T from a transposed copy: Q stores every diagonal entry, so adding
    # 1 there keeps the sparsity pattern
    PT = gen.Q.T.tocsr()
    PT.data /= sigma
    PT.setdiag(PT.diagonal() + 1.0)
    ts = np.array(sorted({t for t in times if t > 0}))
    m = sigma * ts
    log_m = np.log(m)
    k_max = m + 60.0 * np.sqrt(m + 1) + 1000
    mass = np.zeros(len(ts))
    open_ = np.ones(len(ts), dtype=bool)
    row = np.zeros(gen.nstates)
    u = v
    k = 0
    while open_.any():
        if k:
            u = PT @ u
        u_sum = float(u.sum())
        w = np.exp(-m + k * log_m - gammaln(k + 1))
        mass[open_] += w[open_] * u_sum
        if open_[-1]:
            row += w[-1] * u
        tail = gammainc(k + 1, m)
        if k >= 1:
            open_ &= tail * u_sum > rtol * mass
        stuck = np.flatnonzero(open_ & (k > k_max))
        if stuck.size:
            i = stuck[0]
            raise ResolutionError(
                f"semigroup series for t={ts[i]} did not close by k={k} "
                f"(tail {tail[i]:.3e})")
        k += 1
    return dict(zip(ts.tolist(), mass.tolist())), row


def _start_vector(gen, start):
    if np.isscalar(start):
        v = np.zeros(gen.nstates)
        v[key_to_index(int(start))] = 1.0
        return v
    v = np.asarray(start, dtype=float)
    if v.shape != (gen.nstates,):
        raise ParameterError(
            f"start vector has shape {v.shape}, want ({gen.nstates},)")
    if np.any(v < 0) or v.sum() <= 0:
        raise ParameterError("start vector must be a nonnegative measure")
    return v / v.sum()


def survival_curve(gen, start, times, rtol=1e-12):
    """P(tau > t) for each t, from a canonical key or a mixture vector.

    One pass of the uniformized series serves every time, carrying one
    scalar mass per time.  Each value is the mass of v e^{Qt} with its
    series truncated where the tail's l1 bound falls below rtol times the
    mass kept, so it lies within relative rtol below the exact survival
    probability (up to rounding).
    """
    _check_tolerance("rtol", rtol)
    v = _start_vector(gen, start)
    times = _times(times)
    mass, _ = _series(gen, v, times, rtol)
    return [mass[t] if t > 0 else 1.0 for t in times]


def yaglom_exact(gen, start, t, rtol=1e-12):
    """Law of the state at time t conditioned on survival, as a probability
    vector over nonempty states.

    The row v e^{Qt} is summed until its truncated tail has l1 norm below
    rtol times the mass kept, so the normalized law is within 2 rtol of the
    exact one in l1 (up to rounding).
    """
    _check_tolerance("rtol", rtol)
    (t,) = _times([t])
    v = _start_vector(gen, start)
    row = _series(gen, v, [t], rtol)[1] if t > 0 else v
    total = row.sum()
    if total <= 0:
        raise ResolutionError("no surviving mass in the conditioned law")
    return row / total


def vector_distribution(gen, vec):
    """Wrap a probability vector over the generator's states as an
    EmpiricalDistribution for TV comparisons."""
    weights = {index_to_key(i): float(p) for i, p in enumerate(vec) if p > 0}
    return EmpiricalDistribution(gen.L, weights)


def truncation_sweep(lam, L_values, policy=POLICY_CLIP, tol=1e-10):
    """Spectral results across depths, for convergence-in-L diagnostics."""
    return [dominant_eigenpair(build_generator(L, lam, policy), tol=tol)
            for L in L_values]
