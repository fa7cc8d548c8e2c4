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
# crossover: at L = 12 power iteration takes 0.12 s, ARPACK 0.03 s plus
# 0.13 s to import scipy.sparse.linalg, which small chains thus never load
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
        return sorted((index_to_key(j), r) for j, r in zip(row.col, row.data)
                      if j != i)

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


def _uniformization(gen):
    """(sigma, P) with P = I + Q/sigma.  sigma sits 25% above the largest
    exit rate so P has positive diagonal everywhere: with sigma exactly at
    the maximum the two-state chain alternates and power iteration cycles."""
    exits = gen.exit_rates()
    sigma = 1.25 * float(exits.max())
    P = gen.Q.multiply(1.0 / sigma).tocsr()
    P = (P + sp.identity(gen.nstates, format="csr")).tocsr()
    return sigma, P


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
    when max_iters is used up.
    """
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
    sigma, _ = _uniformization(gen)

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
    """Rightmost eigenvector of Q and of Q.T by ARPACK, at full precision
    (tol=0) from the fixed start vector 1, so reruns are bit-identical."""
    # imported here: scipy.sparse.linalg costs several MB and tens of ms,
    # which small chains never need
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

    n = gen.nstates
    QT = gen.Q.T.tocsr()
    applied = 0

    def rightmost(M):
        def matvec(x):
            nonlocal applied
            if applied >= max_iters:
                raise _Exhausted
            applied += 1
            return M @ x

        op = LinearOperator((n, n), matvec=matvec, dtype=float)
        _, vecs = eigs(op, k=1, which="LR", tol=0, v0=np.ones(n))
        return np.real(vecs[:, 0])

    try:
        v = rightmost(QT)
        h = rightmost(gen.Q)
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

def _poisson_log_weight(k, m, logm):
    return -m + k * logm - gammaln(k + 1)


def _series_left(gen, v0, t, rtol):
    """v0 e^{Qt} by the uniformized Poisson series; tail bounded in l1."""
    sigma, P = _uniformization(gen)
    PT = P.T.tocsr()
    m = sigma * t
    if m == 0:
        return v0.copy()
    logm = math.log(m)
    u = v0.astype(float).copy()
    acc = np.zeros_like(u)
    k = 0
    k_max = int(m + 60.0 * math.sqrt(m + 1) + 1000)
    while True:
        acc += math.exp(_poisson_log_weight(k, m, logm)) * u
        tail = float(gammainc(k + 1, m))
        if tail * float(u.sum()) <= rtol * float(acc.sum()) and k >= 1:
            break
        if k > k_max:
            raise ResolutionError(
                f"semigroup series did not close by k={k} (tail {tail:.3e})")
        u = PT @ u
        k += 1
    return acc


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

    Exact up to the series tolerance.  One pass of the uniformized Poisson
    series serves every time: u_k = P^k 1 is computed once and each t > 0
    adds e^{-m} m^k / k! u_k (m = sigma t) to its own accumulator.  P^k 1 is
    entrywise decreasing in k (P is substochastic), so the tail after K
    terms is bounded entrywise by P(Poisson > K) * P^K 1; a time's series
    closes once that bound is below rtol times its accumulated value.
    """
    v = _start_vector(gen, start)
    times = [float(t) for t in times]
    for t in times:
        if not 0 <= t < math.inf:
            raise ParameterError(f"time must be finite and >= 0, got {t}")
    sigma, P = _uniformization(gen)
    pending = sorted({t for t in times if t > 0})
    accs = {t: np.zeros(gen.nstates) for t in pending}
    mass = dict.fromkeys(pending, 0.0)
    value = {0.0: 1.0}
    u = np.ones(gen.nstates)
    k = 0
    while pending:
        u_min = float(u.min())
        for t in list(pending):
            m = sigma * t
            w = math.exp(_poisson_log_weight(k, m, math.log(m)))
            acc = accs[t]
            acc += w * u
            mass[t] += w
            tail = float(gammainc(k + 1, m))
            # u <= 1 makes acc <= mass entrywise, so while tail * u_min
            # exceeds rtol * mass (doubled against rounding) the entrywise
            # test cannot pass and is skipped
            if (k >= 1 and tail * u_min <= 2.0 * rtol * mass[t]
                    and np.all(tail * u <= rtol * acc)):
                value[t] = float(np.sum(v * acc))
                pending.remove(t)
                del accs[t]
            elif k > int(m + 60.0 * math.sqrt(m + 1) + 1000):
                raise ResolutionError(
                    f"survival series for t={t} did not close by k={k} "
                    f"(tail {tail:.3e})")
        if pending:
            u = P @ u
            k += 1
    return [value[t] for t in times]


def yaglom_exact(gen, start, t, rtol=1e-12):
    """Law of the state at time t conditioned on survival, as a probability
    vector over nonempty states."""
    if t < 0:
        raise ParameterError(f"negative time {t}")
    v = _start_vector(gen, start)
    row = _series_left(gen, v, float(t), rtol)
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
