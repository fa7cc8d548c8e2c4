"""Exact spectral surrogate: the edge process truncated to depth L.

States are the 2^(L-1) nonempty canonical keys (offsets in (-L, 0], pinned
at 0).  The generator, its dominant eigentriple (alpha, nu, h), survival
probabilities, and conditioned laws are all computed with certified
residuals or rigorously truncated series, so downstream Monte Carlo has an
exact finite-state object to be checked against.  One eigen-solver, a
thick-restart Arnoldi method on numpy alone, finds the eigentriple at every
depth.

Truncation policies: "clip" silently discards infections that would land
at or below -L (self-loops are simply not transitions), "kill" routes that
rate into absorption instead.  Both only remove infected sites, so under
the graphical coupling each truncated chain dies no later than the
untruncated edge process, kill no later than clip: the decay rates are
ordered alpha_kill(L) >= alpha_clip(L) >= alpha, and neither side brackets
alpha.  Measured, not proved: alpha_clip(L) falls at every L toward alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .edge import EmpiricalDistribution
from .errors import (ParameterError, ResolutionError, check_integer,
                     check_positive, check_time)

POLICY_CLIP = "clip"
POLICY_KILL = "kill"

# deepest chain measured to build and solve (2-core, 8 GB machine, by the
# ARPACK solver this module once used): 2^21 states, 45M nonzeros, 1.7 GB
# peak, 80 s; each further L doubles both.  At L = 20 the Krylov solver
# peaked 40 MB lower and solved in 6.6-7.5 s against 9.0-9.4 s
_MAX_L = 22
# the eigen-solver's Krylov basis size and the Ritz vectors it keeps at
# each restart
_BASIS = 12
_KEEP = 4
# the eigenpair certificate's bound: sup-norm residuals below _TOL, the l1
# left residual below 10 * _TOL
_TOL = 1e-10
# a runaway guard on the eigen-solver's applications of Q or Q.T, both
# sides together; the solves in BENCH_16.json (L <= 20) took at most 231
_MAX_ITERS = 200_000
# where a semigroup series closes: its tail's l1 bound below _RTOL times the
# mass kept
_RTOL = 1e-12


def key_to_index(key):
    key = check_integer(key, "key")
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
    L = check_integer(L, "depth L")
    if not 1 <= L <= _MAX_L:
        raise ParameterError(f"depth L must be in [1, {_MAX_L}], got {L}")
    check_positive(lam, "lambda")
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

    `iterations` is the solver's work: its applications of Q or Q.T, both
    sides together, at every depth."""

    lam: float
    L: int
    policy: str
    alpha: float
    nu: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)
    residual_left: float
    residual_right: float
    iterations: int


def dominant_eigenpair(gen):
    """Perron triple (alpha, nu, h) of the truncated generator.

    One solver serves every depth: _rightmost's thick-restart Arnoldi, on
    Q.T from the singleton state, whose Krylov space holds the laws started
    there, and on Q from 1, whose Krylov space holds the survival functions
    P^k 1.  `iterations` counts its applications of Q or Q.T, both sides
    together.  The result must pass the certificate: the sup-norm
    residuals below _TOL and the l1 left residual below 10*_TOL (the l1
    norm is what propagates into semigroup errors).  Raises
    ResolutionError, quoting the residuals, when that fails, or when
    _MAX_ITERS applications are used up.
    """
    n = gen.nstates
    QT = gen.Q.T.tocsr()
    # the left solve starts from the singleton state (index 0, key 1)
    v, used = _rightmost(QT, np.eye(1, n)[0], 0)
    h, used = _rightmost(gen.Q, np.ones(n), used)
    v = v / v.sum()
    h = h / float(np.sum(v * h))
    alpha, residual_left, resid_l1, residual_right = _certificate(
        gen.Q, QT, v, h)
    if not (residual_left <= _TOL and resid_l1 <= 10 * _TOL
            and residual_right <= _TOL):
        raise ResolutionError(
            f"eigenpair failed the certificate (residuals "
            f"{residual_left:.3e} left, l1 {resid_l1:.3e}, "
            f"{residual_right:.3e} right)")
    return SpectralResult(gen.lam, gen.L, gen.policy, alpha, v, h,
                          residual_left, residual_right, used)


def _certificate(Q, QT, v, h):
    """Rayleigh quotient and residuals of the pair (v, h), v summing to 1.

    Returns (alpha, sup left, l1 left, sup right residual); alpha is the
    bi-orthogonal Rayleigh quotient, whose error is second order in the
    vector errors, and the right residual is that of h / (v.h)."""
    w = QT @ v
    z = Q @ h
    vh = float(np.sum(v * h))
    alpha = -float(np.sum(v * z)) / vh
    rl = w + alpha * v
    return (alpha, float(np.max(np.abs(rl))), float(np.sum(np.abs(rl))),
            float(np.max(np.abs(z + alpha * h))) / vh)


def _rightmost(A, x, used):
    """(eigenvector of A's rightmost eigenvalue, applications of A so far)
    by thick-restart Arnoldi from x (Stewart, SIAM J. Matrix Anal. Appl. 23
    (2001) 601; Wu and Simon, ibid. 22 (2000) 602); _MAX_ITERS bounds the
    applications, `used` of them made before.

    The rows of V are an orthonormal basis, A V[:m]^T = V[:m]^T H[:m] +
    V[m]^T H[m], each new row orthogonalised by two passes of classical
    Gram-Schmidt.  With _BASIS rows, the rightmost Ritz pair (theta, y) of
    H is accepted when it is real, as a generator's rightmost eigenvalue
    is, and |H[m] y| <= 1e-3 _TOL |theta|, well inside the certificate's
    _TOL.  Otherwise the _KEEP rightmost Ritz vectors, a complex pair as its
    real and imaginary parts, orthonormalised by QR, restart the basis, and
    H is projected onto them.  An invariant Krylov space (on chains of
    L <= 3) holds exact pairs, and its rightmost one is returned as it is.
    """
    tol = 1e-3 * _TOL
    m = min(_BASIS, A.shape[0])
    V = np.empty((m + 1, A.shape[0]))
    H = np.zeros((m + 1, m))
    V[0] = x / np.linalg.norm(x)
    k = 0
    while True:
        for j in range(k, m):
            if used == _MAX_ITERS:
                raise ResolutionError(f"eigen-solver did not converge in "
                                      f"{_MAX_ITERS} applications of Q or Q.T")
            w = A @ V[j]
            used += 1
            scale = np.linalg.norm(w)
            B = V[:j + 1]
            for _ in range(2):
                c = B @ w
                w -= c @ B
                H[:j + 1, j] += c
            beta = np.linalg.norm(w)
            if beta <= tol * scale:
                theta, Y = np.linalg.eig(H[:j + 1, :j + 1])
                return Y[:, np.argmax(theta.real)].real @ B, used
            H[j + 1, j] = beta
            V[j + 1] = w / beta
        theta, Y = np.linalg.eig(H[:m, :m])
        order = np.argsort(-theta.real, kind="stable")
        i = order[0]
        if (theta[i].imag == 0
                and abs(H[m, :m] @ Y[:, i]) <= tol * abs(theta[i])):
            return Y[:, i].real @ V[:m], used
        cols = []
        for i in order:
            if len(cols) >= _KEEP:
                break
            if theta[i].imag < 0:
                continue
            cols.append(Y[:, i].real)
            if theta[i].imag > 0:
                cols.append(Y[:, i].imag)
        W = np.linalg.qr(np.column_stack(cols))[0]
        k = W.shape[1]
        V[:k] = W.T @ V[:m]
        V[k] = V[m]
        projected = np.vstack([W.T @ H[:m, :m], H[m, :m]]) @ W
        H[:] = 0.0
        H[:k + 1, :k] = projected


# ===== uniformized semigroup series =====

def _series(gen, v, times, law=False):
    """Masses of v e^{Qt} for each distinct t > 0 in times, by one pass of
    the uniformized Poisson series, and with law=True the row v e^{Qt}
    itself at the largest of them.

    With sigma the largest exit rate, P = I + Q/sigma is nonnegative and
    substochastic, and v e^{Qt} = sum_k w_k u_k with u_k = v P^k and the
    Poisson weights w_k = e^{-m} m^k / k!, m = sigma t (from math.lgamma).
    u_k is computed once; each time adds w_k sum(u_k) to its mass, and with
    law=True the largest time adds w_k u_k to the row.  sum(u_k) does not
    increase with k, so the l1 norm of the tail after k terms is at most
    P(Poisson(m) > k) sum(u_k), and a time's series closes once
    _tail_bound's bound on that is below _RTOL times its mass.  Returns
    ({t: mass}, row), the row None unless law=True.
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
    row = np.zeros(gen.nstates) if law else None
    u = v
    k = 0
    while open_.any():
        if k:
            u = PT @ u
        u_sum = float(u.sum())
        w = np.exp(-m + k * log_m - math.lgamma(k + 1))
        mass[open_] += w[open_] * u_sum
        if law and open_[-1]:
            row += w[-1] * u
        tail = _tail_bound(w, m, k)
        if k >= 1:
            open_ &= tail * u_sum > _RTOL * mass
        stuck = np.flatnonzero(open_ & (k > k_max))
        if stuck.size:
            i = stuck[0]
            raise ResolutionError(
                f"semigroup series for t={ts[i]} did not close by k={k} "
                f"(tail {tail[i]:.3e})")
        k += 1
    return dict(zip(ts.tolist(), mass.tolist())), row


def _tail_bound(w, m, k):
    """Upper bounds on P(Poisson(m) > k) for an array of means m, from the
    weights w = P(Poisson(m) = k).  Past k the weights fall by the ratios
    w_{j+1} / w_j = m / (j + 1) <= m / (k + 2), so the tail is at most the
    geometric series w_{k+1} (k + 2) / (k + 2 - m) once k + 2 > m; before
    that the bound is 1."""
    tail = np.ones(len(m))
    gap = k + 2 - m
    near = gap > 0
    tail[near] = w[near] * m[near] / (k + 1) * (k + 2) / gap[near]
    return tail


def _start_vector(gen, start):
    if np.isscalar(start):
        key = check_integer(start, "start key")
        i = key_to_index(key)
        if i >= gen.nstates:
            raise ParameterError(f"{key} is not a depth-{gen.L} key")
        v = np.zeros(gen.nstates)
        v[i] = 1.0
        return v
    v = np.asarray(start, dtype=float)
    if v.shape != (gen.nstates,):
        raise ParameterError(
            f"start vector has shape {v.shape}, want ({gen.nstates},)")
    if not np.all(np.isfinite(v)) or np.any(v < 0) or v.sum() <= 0:
        raise ParameterError(
            "start vector must be a finite nonnegative measure")
    return v / v.sum()


def survival_curve(gen, start, times):
    """P(tau > t) for each t, from a canonical key or a mixture vector.

    One pass of the uniformized series serves every time, carrying one
    scalar mass per time.  Each value is the mass of v e^{Qt} with its
    series truncated where the tail's l1 bound falls below _RTOL times the
    mass kept, so it lies within relative _RTOL below the exact survival
    probability (up to rounding).
    """
    v = _start_vector(gen, start)
    times = [check_time(float(t)) for t in times]
    mass, _ = _series(gen, v, times)
    return [mass[t] if t > 0 else 1.0 for t in times]


def yaglom_exact(gen, start, t):
    """Law of the state at time t conditioned on survival, as a probability
    vector over nonempty states.

    The row v e^{Qt} is summed until its truncated tail has l1 norm below
    _RTOL times the mass kept, so the normalized law is within 2 _RTOL of
    the exact one in l1 (up to rounding).
    """
    t = check_time(float(t))
    v = _start_vector(gen, start)
    row = _series(gen, v, [t], law=True)[1] if t > 0 else v
    total = row.sum()
    if total <= 0:
        raise ResolutionError("no surviving mass in the conditioned law")
    return row / total


def vector_distribution(gen, vec):
    """Wrap a probability vector over the generator's states as an
    EmpiricalDistribution for TV comparisons."""
    weights = {index_to_key(i): float(p) for i, p in enumerate(vec) if p > 0}
    return EmpiricalDistribution(gen.L, weights)
