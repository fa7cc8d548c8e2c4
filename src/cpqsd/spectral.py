"""Exact spectral surrogate: the edge process truncated to depth L.

States are the 2^(L-1) nonempty canonical keys (offsets in (-L, 0], pinned
at 0).  The generator, its dominant eigentriple (alpha, nu, h), survival
probabilities, and conditioned laws are all computed with certified
residuals or rigorously truncated series, so downstream Monte Carlo has an
exact finite-state object to be checked against.  One eigen-solver, a
thick-restart Arnoldi method on numpy alone, finds the eigentriple at every
depth.  It iterates (I + Q/s)^2 - I, s a little above the largest exit
rate, whose rightmost eigenvalue (1 - alpha/s)^2 - 1 has Q's rightmost
eigenvector, so each Gram-Schmidt pass serves two products by Q.  Its two
solves, nu on the transpose and h on the matrix itself, run at once on two
threads.
The semigroup series runs on both cores too: a survival mass v P^k 1 is
the product (v P^i).(P^j 1) with i + j = k, so the left powers come on the
calling thread and the right ones on a worker, in blocks of _BLOCK.  Those
masses agree with a one-sided sum within relative _RTOL, not to the bit.
The conditioned law needs the powers v P^k themselves: on chains of at
least _SPLIT_NNZ nonzeros each power is split by rows, the top half on the
calling thread and the bottom half on a worker, and every entry is the
same row sum in the same order, so the law is the same to the bit.

Truncation policies: "clip" silently discards infections that would land
at or below -L (self-loops are simply not transitions), "kill" routes that
rate into absorption instead.  Both only remove infected sites, so under
the graphical coupling each truncated chain dies no later than the
untruncated edge process, kill no later than clip: the decay rates are
ordered alpha_kill(L) >= alpha_clip(L) >= alpha, and neither side brackets
alpha.  Measured, not proved: alpha_clip(L) falls at every L toward alpha.
"""

from __future__ import annotations

import contextlib
import functools
import math
import queue
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .edge import EmpiricalDistribution, _check_key
from .errors import (ParameterError, ResolutionError, check_integer,
                     check_positive, check_time)

POLICY_CLIP = "clip"
POLICY_KILL = "kill"

# deepest chain measured end to end: build, dominant_eigenpair,
# survival_curve(gen, 1, 1..16) and yaglom_exact(gen, 1, 8), at lambda 0.5
# and 1.3 under both policies, each in a fresh process on a 2-core, 8 GB
# machine (BENCH_27.json).  L 23 has 2^22 states and 93M nonzeros; its
# build peaks at 1.3 GB in 6-7 s and the whole run at 2.9-3.0 GB in 3-5 min.
# Each further L doubles the memory, and L 24 would need 6 GB.
_MAX_L = 23
# the eigen-solver's Krylov basis size and the Ritz vectors it keeps at
# each restart
_BASIS = 12
_KEEP = 4
# the eigen-solver iterates (I + Q/s)^2 - I with s = _SHIFT times Q's
# largest exit rate: at 1 the two-state chain's I + Q/s is periodic and the
# solve fails there, 1.02 made as many products as 1 on larger chains, and
# 1.1 and 1.25 made 15-30 % more
_SHIFT = 1.02
# the eigenpair certificate's bound: sup-norm residuals below _TOL, the l1
# left residual below 10 * _TOL
_TOL = 1e-10
# a runaway guard on the eigen-solver's products by Q or Q.T, both sides
# together, counted under one lock by the two threads; the solves in
# BENCH_29.json (L 8-23, lambda 0.5 and 1.3) took at most 456
_MAX_ITERS = 200_000
# where a semigroup series closes: its tail's l1 bound below _RTOL times the
# mass kept
_RTOL = 1e-12
# the semigroup series' powers per block, between two rounds of its
# bookkeeping and two handovers of its threads; of 4, 8, 16 and 32, 8 and
# 16 measured about even at L 12-16 and 8 the faster at L 18, where a
# longer block computes more powers past the last term (BENCH_22.json)
_BLOCK = 8
# P^T's nonzeros from which the law pass splits each product by rows over
# two threads; below it the handovers cost more than the second core
# gains.  The split/serial time of yaglom_exact(gen, 1, 8) (clip, lambda
# 0.5, median ratio of interleaved pairs; BENCH_28.json) read 1.94 at L 12,
# 1.46 at L 13, 1.14 at L 14 (118k nonzeros), 0.92 at L 15 (250k), 0.78 at
# L 16, 0.84 at L 17 and 0.68 at L 18
_SPLIT_NNZ = 1 << 17


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
    sum(off-diagonal) + absorption = -diagonal.  `walk` keeps the arrays
    of the chain's Monte Carlo walk once an estimator has built them
    (yaglom._walk_of); it is no part of the generator's repr or equality.
    """

    L: int
    lam: float
    policy: str
    Q: sp.csr_matrix = field(repr=False)
    absorption: np.ndarray = field(repr=False)
    walk: tuple | None = field(default=None, init=False, repr=False,
                               compare=False)

    @property
    def nstates(self):
        return self.Q.shape[0]


def build_generator(L, lam, policy=POLICY_CLIP):
    """Generator of the depth-L edge process.

    From state zeta (canonical, max = 0): recovery of x != 0 at rate 1 to
    zeta minus x; recovery of 0 at rate 1 to the recentered remainder (the
    empty set if zeta was the singleton); infection of a healthy y in
    (-L, 0) at rate lambda per infected neighbour; infection of -L per
    policy; infection of +1 at rate lambda shifts everything left by one,
    the overflowing offset handled per policy.

    Q is written straight into CSR arrays at their final size.  Each event
    type gives each row at most one entry, so the row lengths are counted
    from the keys' bits first and indptr is their cumulative sum; then each
    event type, in the order above, writes its target and rate into the
    next free slot of each row it moves, and the diagonal comes last.
    Q.sum_duplicates() then sorts each row in place and merges the targets
    two events share (from key 0b11 the recovery of -1 and the recentring
    both reach the singleton).  Rows enter the sort in the order that
    scipy's COO -> CSR conversion of the concatenated per-event blocks gave
    them, so indptr, indices and data equal that build's to the bit, at
    a peak of the CSR plus one event type's arrays.
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
    key = np.arange(1, 2 * n, 2, dtype=np.int32)
    # infection of +1: left shift, re-pin at the new rightmost site
    shifted = (key << 1) | 1
    if policy == POLICY_KILL:
        moves = shifted <= mask
    else:
        shifted &= mask
        moves = shifted != key
    # entries per row: the diagonal, one per offset in (-L, 0) that is
    # infected (its recovery) or has an infected neighbour (its infection),
    # the pinned site's recovery unless it is alone, and the shift
    count = (np.bitwise_count((key | key << 1 | key >> 1) & (mask & ~1))
             + (key != 1) + moves + 1)
    # int32 indices: nnz stays below 2^31 up to _MAX_L
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(count, out=indptr[1:])
    del count
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    # each row's next free slot
    slot = indptr[:-1].copy()
    # the exit rates sum each row's events in event order
    out_rate = np.zeros(n)
    absorption = np.zeros(n)

    def emit(sel, tkey, rate):
        at = slot[sel]
        indices[at] = tkey[sel] >> 1
        data[at] = np.broadcast_to(rate, key.shape)[sel]
        np.add(out_rate, rate, out=out_rate, where=sel)
        slot[:] += sel

    # recoveries away from the pinned site
    for i in range(1, L):
        emit(key >> i & 1 == 1, key & ~(1 << i), 1.0)
    # recovery of the pinned site: recenter on the new maximum (dividing by
    # the lowest set bit strips the trailing zeros)
    rest = key - 1
    alive = rest != 0
    absorption[~alive] += 1.0
    emit(alive, rest // np.where(alive, rest & -rest, 1), 1.0)
    del rest, alive
    # infections of healthy offsets inside the depth (key >> L is 0, so the
    # deepest offset has only its upper neighbour)
    for i in range(1, L):
        k = (key >> (i - 1) & 1) + (key >> (i + 1) & 1)
        emit((key >> i & 1 == 0) & (k > 0), key | (1 << i), k * lam)
    # infection of the site just below the depth
    if policy == POLICY_KILL:
        absorption[key >> (L - 1) & 1 == 1] += lam
        absorption[~moves] += lam
    # infection of +1, whose targets the row lengths needed first
    emit(moves, shifted, lam)

    indices[slot] = key >> 1
    data[slot] = -(out_rate + absorption)
    Q = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    Q.sum_duplicates()
    return TruncatedGenerator(L, float(lam), policy, Q, absorption)


# ===== dominant eigenpair =====

@dataclass
class SpectralResult:
    """Decay rate alpha with its eigenvectors, normalized nu*1 = 1 and
    nu.h = 1; residuals are sup norms of nu Q + alpha nu and Q h + alpha h.

    `iterations` is the solver's work: its products by Q or Q.T, both
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

    One solver serves every depth: _rightmost's thick-restart Arnoldi on
    M = P^2 - I, P = I + Q/s, s = _SHIFT sigma with sigma the largest exit
    rate, so that P is primitive and its Perron root 1 - alpha/s is its one
    eigenvalue of largest modulus.  It runs with Q.T from the singleton
    state, whose Krylov space holds the laws started there, and with Q from
    1, whose Krylov space holds the survival functions P^k 1.  Each Krylov
    vector costs two products by Q.T or Q and one Gram-Schmidt pass.  A
    side stops where the certificate would read its residual, computed from
    one more product, at no more than _TOL / 10: nu's sup norm and a tenth
    of its l1 norm (_left_reading), and h's sup norm bounded without nu
    (_right_reading).  The two solves are independent and run at once: h on
    a worker thread started and joined here, nu on the calling thread.
    Both spend their time in code that releases the interpreter lock
    (scipy's sparse products and numpy's own loops), so on two cores the
    pair takes about the time of the longer one.  A thread per call, not a
    pool, because a pool's worker does not exist in a child made by
    os.fork.  The calling thread allocates both Krylov bases: a basis
    allocated on the worker comes from a second malloc arena and raised the
    peak resident memory.  `iterations` counts the single products by Q or
    Q.T, two per Krylov vector and one per stop check, both sides together,
    against one _MAX_ITERS budget.  The result must pass the certificate:
    the sup-norm residuals below _TOL and the l1 left residual below
    10*_TOL (the l1 norm is what propagates into semigroup errors).  Raises
    ResolutionError, quoting the residuals, when that fails, or when
    _MAX_ITERS products are used up, always after the worker has finished.
    """
    n = gen.nstates
    # Q.T is a CSC view of Q, no copy; its products sum in the same order
    # as those of a CSR copy
    QT = gen.Q.T
    rows = min(_BASIS, n) + 1
    lock = threading.Lock()
    used = 0

    def take():
        nonlocal used
        with lock:
            if used == _MAX_ITERS:
                raise ResolutionError(f"eigen-solver did not converge in "
                                      f"{_MAX_ITERS} applications of Q or Q.T")
            used += 1

    right = []

    def solve_right(*args):
        try:
            right.append(_rightmost(*args))
        except Exception as exc:  # handed to the caller, which raises it
            right.append(exc)

    s = _SHIFT * float((-gen.Q.diagonal()).max())
    worker = threading.Thread(target=solve_right, args=(
        gen.Q, s, np.ones(n), np.empty((rows, n)), take, _right_reading))
    worker.start()
    try:
        # the left solve starts from the singleton state (index 0, key 1)
        v = _rightmost(QT, s, np.eye(1, n)[0], np.empty((rows, n)), take,
                       _left_reading)
    finally:
        worker.join()
    h, = right
    if isinstance(h, Exception):
        raise h
    v = v / v.sum()
    if v.min() < 0:
        # rounding leaves entries of -1e-17 where nu is that small: clip them
        v = np.maximum(v, 0.0)
        v /= v.sum()
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


def _left_reading(u, res):
    """What the certificate reads of the left residual res of u, nu =
    u / sum(u): the sup norm, or a tenth of the l1 norm, whichever is
    larger."""
    a = np.abs(res)
    return max(float(a.max()), float(a.sum()) / 10) / abs(float(u.sum()))


def _right_reading(u, res):
    """A bound on what the certificate reads of the right residual res of
    u, h = u / (nu.u): its sup norm over min |u|, since nu.u >= min u for a
    positive u and a probability nu, which the right solve does not know.
    At L 18, lambda 0.5, clip, nu.u was 1.6 times min u."""
    return float(np.abs(res).max()) / float(np.abs(u).min())


def _norm(w):
    """Euclidean norm of w by numpy's own loops (see _rightmost)."""
    return math.sqrt(np.einsum("i,i", w, w))


def _rightmost(A, s, x, V, take, reading):
    """Eigenvector of A's rightmost eigenvalue, for A = Q or Q.T, by
    thick-restart Arnoldi on M = P^2 - I = 2 A/s + (A/s)^2, P = I + A/s,
    from x (Stewart, SIAM J. Matrix Anal. Appl. 23 (2001) 601; Wu and
    Simon, ibid. 22 (2000) 602), in the Krylov basis V of min(_BASIS, n) +
    1 rows of n that the caller allocated; take() is called before each
    product by A, two per Krylov vector and one per stop check, and raises
    when the budget is spent.  reading(u, res) is what the certificate
    reads, or a bound on it, of the residual res = A u + a u of the unit
    vector u.

    P is nonnegative for s >= sigma, Q's largest exit rate, and every
    eigenvalue of Q lies in the disk |z + sigma| <= sigma - alpha
    (Perron-Frobenius applied to I + Q/sigma).  So for s > sigma, P is
    primitive, its Perron root 1 - alpha/s is its one eigenvalue of largest
    modulus, and its square is the rightmost eigenvalue of P^2, with A's
    rightmost eigenvector, and M = P^2 - I has the same eigenvectors and
    Krylov spaces.  At s = sigma the two-state chain's P is periodic, and
    the solve failed there.  Each Krylov vector costs two products by A and
    one Gram-Schmidt pass, where Arnoldi on A costs one of each: at L 16
    that pass took half a solve on A (polynomial preconditioning; Embree,
    Loe and Morgan, SIAM J. Sci. Comput. 43 (2021) A1).  The identity is
    left out because adding it rounds away the digits of A u + a u, which
    is a/s times the vector: on P^2 itself the certificate's right
    residual could fall no lower than 2e-11 at L 18, lambda 0.5, clip,
    however long the solve ran, and on M it reaches 8e-13.

    The rows of V are an orthonormal basis, M V[:m]^T = V[:m]^T H[:m] +
    V[m]^T H[m], each new row orthogonalised by two passes of classical
    Gram-Schmidt.  With _BASIS rows, the rightmost Ritz pair (theta, y) of
    H is a candidate when it is real, as a generator's rightmost
    eigenvalue is, and |H[m] y| <= 1e-3 _TOL 2 r (1 - r), r = sqrt(1 +
    theta) = 1 - a/s: the first order image, under z -> (1 + z/s)^2 - 1,
    of |A u + a u| <= 1e-3 _TOL a for the Ritz vector u.  That bounds a
    2-norm, where the certificate reads sup and l1 norms of nu = u / sum u
    and h = u / (nu.u), which grow with the state count, so a candidate is
    accepted only when reading(u, A u + a u), a = -u.A u, is at most _TOL
    / 10, or when it has not halved since the last candidate: then
    rounding, not the Krylov space, limits the residual, and the
    certificate decides.  Otherwise the _KEEP rightmost Ritz vectors, a
    complex pair as its real and imaginary parts, orthonormalised by QR,
    restart the basis, and H is projected onto them.  An invariant Krylov
    space (on chains of L <= 3) holds exact pairs, and its rightmost one is
    returned as it is.

    Every product with a length-n operand goes through np.einsum, numpy's
    own loops, and none through BLAS: the two solves of dominant_eigenpair
    run on two threads, and BLAS's own threads, one team per solve,
    contended for the cores until the pair ran slower than in series.
    Only the small H stays with LAPACK's eig and qr.
    """
    tol = 1e-3 * _TOL
    # scale by reciprocals: dividing a length-n vector took 3.5 times as
    # long as multiplying it at L 16
    two_by_s = 2 / s
    half_by_s = 0.5 / s
    m = V.shape[0] - 1
    H = np.zeros((m + 1, m))
    V[0] = x / _norm(x)
    k = 0
    last = math.inf
    while True:
        for j in range(k, m):
            # w = M V[j] = q + A q / (2 s), q = 2 A V[j] / s
            take()
            q = A @ V[j]
            q *= two_by_s
            take()
            w = A @ q
            w *= half_by_s
            w += q
            scale = _norm(w)
            B = V[:j + 1]
            for _ in range(2):
                c = np.einsum("ij,j->i", B, w)
                w -= np.einsum("i,ij->j", c, B)
                H[:j + 1, j] += c
            beta = _norm(w)
            if beta <= tol * scale:
                theta, Y = np.linalg.eig(H[:j + 1, :j + 1])
                return np.einsum("i,ij->j", Y[:, np.argmax(theta.real)].real,
                                 B)
            H[j + 1, j] = beta
            np.multiply(w, 1 / beta, out=V[j + 1])
        theta, Y = np.linalg.eig(H[:m, :m])
        order = np.argsort(-theta.real, kind="stable")
        i = order[0]
        # r = 1 - a/s, with 1 - r = -theta / (1 + r) free of cancellation
        r = math.sqrt(max(1 + theta[i].real, 0.0))
        if (theta[i].imag == 0
                and abs(H[m, :m] @ Y[:, i])
                <= tol * 2 * r * -theta[i].real / (1 + r)):
            u = np.einsum("i,ij->j", Y[:, i].real, V[:m])
            take()
            z = A @ u
            z -= np.einsum("i,i", u, z) * u
            got = reading(u, z)
            if got <= _TOL / 10 or got > last / 2:
                return u
            last = got
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
        V[:k] = np.einsum("ik,ij->kj", W, V[:m])
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
    substochastic, and v e^{Qt} = sum_k w_k v P^k with the Poisson weights
    w_k = e^{-m} m^k / k!, m = sigma t (from math.lgamma).  Each time's
    mass is sum_k w_k a_k with a_k = v P^k 1.  The powers come _BLOCK at a
    time into a preallocated (_BLOCK + 1, n) array, whose row 0 carries the
    last power of the block before, and _Poisson does the bookkeeping once
    per block.  sigma and P^T's diagonal come from one read of Q's.

    With law=True the pass computes u_k = v P^k; a_k = sum(u_k), and the
    largest time adds w_k u_k to the row in k order, so the row is the same
    to the bit as a pass that computes one power per term (see _law).
    When P^T has at least _SPLIT_NNZ nonzeros, each power is computed by
    rows on two threads (_split_rows), with the same bits.

    Without law=True the masses split over two threads as a_{i+j} =
    (v P^i).(P^j 1): the calling thread computes u_i, a worker thread
    started and joined here computes r_j = P^j 1 as r + (Q r)/sigma from
    gen.Q, so no second copy of the matrix is made, and a_{2I+s} =
    u_{I+ceil(s/2)}.r_{I+floor(s/2)} for s = 0 .. 2 _BLOCK - 1 from one
    block of each side, whose row 0 holds u_I and r_I.  The two sides hand
    over once per block, and the dot products go through np.einsum, numpy's
    own loops, not BLAS (see _rightmost).  A thread per call, not a pool,
    because a pool's worker does not exist in a child made by os.fork.
    These masses round differently from sum(u_k): they are the same within
    relative _RTOL, not to the bit.  Returns ({t: mass}, row), the row None
    unless law=True; with no time t > 0 it returns ({}, None) at once.
    """
    ts = np.array(sorted({t for t in times if t > 0}))
    if not ts.size:
        return {}, None
    d = gen.Q.diagonal()
    sigma = float((-d).max())
    # P^T from a transposed copy: Q stores every diagonal entry, so adding
    # 1 there keeps the sparsity pattern
    PT = gen.Q.T.tocsr()
    PT.data /= sigma
    PT.setdiag(d / sigma + 1.0)
    poisson = _Poisson(ts, sigma)
    U = np.empty((_BLOCK + 1, gen.nstates))
    U[0] = v
    if not law:
        return _paired(gen.Q, sigma, PT, U, poisson), None
    if PT.nnz < _SPLIT_NNZ:
        row = _law(U, poisson, functools.partial(_power, PT))
    else:
        with _split_rows(PT) as product:
            row = _law(U, poisson, product)
    return poisson.masses(), row


def _law(U, poisson, product):
    """_series' row, U holding u_0 in row 0; product(x, out) sets out to
    x P.

    Each block first asks _Poisson.needed how many of its terms the open
    times can need, computes the powers for those only, and adds them; the
    power that carries into the next block comes after, only if a time is
    still open.  So the pass makes as many products as its last needed
    term, where whole blocks would make up to _BLOCK - 1 more.  Should
    rounding keep a time open past that bound, the pass goes on from the
    last power; the row is the same to the bit wherever the blocks end.
    """
    row = np.zeros(U.shape[1])
    k = 0
    while poisson.open.any():
        n, weights = poisson.needed(k, _BLOCK, U[0].sum())
        for j in range(n - 1):
            product(U[j], U[j + 1])
        for w, u in zip(poisson.add(k, U[:n].sum(axis=1), weights), U):
            row += w * u
        k += n
        if poisson.open.any():
            product(U[n - 1], U[n])
            U[0] = U[n]
    return row


def _power(PT, x, out):
    """out = x P, P^T given as PT."""
    out[:] = PT @ x


def _halves(PT):
    """PT's rows as two CSR matrices, cut where its nonzeros split evenly.

    Both sit on views of PT's indices and data; only the lower half's row
    pointers, shifted to start at 0, are new.  Their arrays are set after
    construction, because scipy's constructor copies a view of less than
    half its base array."""
    n = PT.shape[0]
    h = int(np.searchsorted(PT.indptr, PT.nnz // 2))
    p = PT.indptr[h]
    top = sp.csr_matrix((h, n))
    top.indptr = PT.indptr[:h + 1]
    top.indices = PT.indices[:p]
    top.data = PT.data[:p]
    bottom = sp.csr_matrix((n - h, n))
    bottom.indptr = PT.indptr[h:] - p
    bottom.indices = PT.indices[p:]
    bottom.data = PT.data[p:]
    return top, bottom


@contextlib.contextmanager
def _split_rows(PT):
    """product(x, out), setting out to x P by PT's rows on two threads:
    the top half (_halves) on the calling thread and the bottom half on a
    worker thread started on entry and joined on exit.  Each product hands
    the worker one job and takes back one reply through C-level queues,
    which cost less per handover than threading's semaphores.  Each entry
    is the same row sum in the same order as in PT @ x, so out is the same
    to the bit.  A worker's error is raised by the caller."""
    top, bottom = _halves(PT)
    h = top.shape[0]
    jobs = queue.SimpleQueue()
    replies = queue.SimpleQueue()

    def lower():
        while (job := jobs.get()) is not None:
            x, out = job
            try:
                out[h:] = bottom @ x
            except Exception as exc:  # handed to the caller, which raises it
                replies.put(exc)
                return
            replies.put(None)

    def product(x, out):
        jobs.put((x, out))
        out[:h] = top @ x
        exc = replies.get()
        if exc is not None:
            raise exc

    worker = threading.Thread(target=lower)
    worker.start()
    try:
        yield product
    finally:
        jobs.put(None)
        worker.join()


def _paired(Q, sigma, PT, U, poisson):
    """_series' masses from left powers u_i on the calling thread and right
    powers r_j on a worker thread; U holds u_0 in row 0.  Each block hands
    the worker one job and takes back one reply through C-level queues, as
    _split_rows does."""
    R = np.empty_like(U)
    R[0] = 1.0
    jobs = queue.SimpleQueue()
    replies = queue.SimpleQueue()

    def right():
        while jobs.get():
            try:
                for j in range(_BLOCK):
                    q = Q @ R[j]
                    q /= sigma
                    np.add(R[j], q, out=R[j + 1])
            except Exception as exc:  # handed to the caller, which raises it
                replies.put(exc)
                return
            replies.put(None)

    worker = threading.Thread(target=right)
    worker.start()
    a = np.empty(2 * _BLOCK)
    k = 0
    try:
        while poisson.open.any():
            jobs.put(True)
            for j in range(_BLOCK):
                U[j + 1] = PT @ U[j]
            exc = replies.get()
            if exc is not None:
                raise exc
            a[0::2] = np.einsum("ij,ij->i", U[:-1], R[:-1])
            a[1::2] = np.einsum("ij,ij->i", U[1:], R[:-1])
            poisson.add(k, a)
            k += 2 * _BLOCK
            U[0] = U[-1]
            R[0] = R[-1]
    finally:
        jobs.put(False)
        worker.join()
    return poisson.masses()


class _Poisson:
    """Bookkeeping of the uniformized series, one block of terms at a time.

    Per time t, with m = sigma t, it keeps the mass sum_k w_k a_k of the
    terms added so far and whether the series is still open.  The l1 norm
    of the row's tail after k terms is at most P(Poisson(m) > k) a_k, as
    a_k does not increase with k, and a time closes at the first k >= 1
    where _tail_bound's bound on that is at most _RTOL times its mass.
    """

    def __init__(self, ts, sigma):
        self.ts = ts
        self.m = sigma * ts
        self.log_m = np.log(self.m)
        self.k_max = self.m + 60.0 * np.sqrt(self.m + 1) + 1000
        self.mass = np.zeros(len(ts))
        self.open = np.ones(len(ts), dtype=bool)

    def _weights(self, k0, n):
        """(o, w, k): the open times o, the weights of terms k0 .. k0 + n
        - 1 for them, one row per term, and those k as a column."""
        o = np.flatnonzero(self.open)
        ks = range(k0, k0 + n)
        k = np.array(ks, dtype=float)[:, None]
        lgam = np.array([math.lgamma(j + 1) for j in ks])[:, None]
        return o, np.exp(-self.m[o] + k * self.log_m[o] - lgam), k

    def needed(self, k0, n, a0):
        """How many of the terms k0 .. k0 + n - 1 the open times can need,
        given a0 = a_{k0}: up to the first k >= 1 where a0 tail_k <= _RTOL
        (mass + a0 sum_{k0<=i<=k} w_i), with tail_k _tail_bound's bound and
        mass that of the terms before k0.  As a_k does not increase, a_k <=
        a0 and the mass after term k is at least mass + a_k sum w_i, so
        tail_k a_k <= _RTOL times that mass there: a time closes there at
        the latest, up to rounding.  n where no term of the block
        qualifies.  Returns that count and the block's _weights, which the
        add of its terms takes so as not to compute them again."""
        weights = self._weights(k0, n)
        o, w, k = weights
        small = ((a0 * _tail_bound(w, self.m[o], k)
                  <= _RTOL * (self.mass[o] + a0 * np.cumsum(w, axis=0)))
                 & (k > 0))
        return int(np.where(small.any(axis=0), small.argmax(axis=0) + 1,
                            n).max()), weights

    def add(self, k0, a, weights=None):
        """Add the terms a_k, k = k0, k0 + 1, ..., given as the array a, to
        every open time's mass in k order, as a cumulative sum from its
        mass so far, and close each at its first k where the tail is small
        enough; weights are needed's for this k0, or computed here when
        None.  Returns the largest time's weights w_k of the terms it took
        (none if it was closed).  Raises ResolutionError where a time is
        still open past k_max, quoting the first such k."""
        o, w, k = weights or self._weights(k0, len(a))
        w = w[:len(a)]
        k = k[:len(a)]
        m = self.m[o]
        mass = np.cumsum(np.vstack([self.mass[o], w * a[:, None]]), axis=0)[1:]
        tail = _tail_bound(w, m, k)
        # open after term k: no closing at any term up to k, and none at 0
        still = np.logical_and.accumulate(
            (tail * a[:, None] > _RTOL * mass) | (k == 0), axis=0)
        stuck = np.argwhere(still & (k > self.k_max[o]))
        if stuck.size:
            s, i = stuck[0]
            raise ResolutionError(
                f"semigroup series for t={self.ts[o[i]]} did not close by "
                f"k={k0 + s} (tail {tail[s, i]:.3e})")
        took = np.minimum(still.sum(axis=0) + 1, len(a))
        self.mass[o] = mass[took - 1, np.arange(len(o))]
        self.open[o] = still[-1]
        if o[-1] != len(self.ts) - 1:
            return w[:0, 0]
        return w[:took[-1], -1]

    def masses(self):
        return dict(zip(self.ts.tolist(), self.mass.tolist()))


def _tail_bound(w, m, k):
    """Upper bounds on P(Poisson(m) > k) from the weights w = P(Poisson(m)
    = k), elementwise over arrays that broadcast.  Past k the weights fall
    by the ratios w_{j+1} / w_j = m / (j + 1) <= m / (k + 2), so the tail
    is at most the geometric series w_{k+1} (k + 2) / (k + 2 - m) once
    k + 2 > m; before that the bound is 1."""
    w, m, k = np.broadcast_arrays(w, m, k)
    gap = k + 2 - m
    tail = np.ones(gap.shape)
    near = gap > 0
    tail[near] = (w[near] * m[near] / (k[near] + 1) * (k[near] + 2)
                  / gap[near])
    return tail


def _measure(gen, vec, what):
    """vec as a float array, a finite nonnegative measure of positive mass
    on gen's states."""
    v = np.asarray(vec)
    if v.dtype.kind not in "biuf":
        raise ParameterError(f"{what} must hold numbers, got {v.dtype}")
    v = v.astype(float, copy=False)
    if v.shape != (gen.nstates,):
        raise ParameterError(
            f"{what} has shape {v.shape}, want ({gen.nstates},)")
    if not np.all((0 <= v) & (v < np.inf)):
        raise ParameterError(f"{what} must be a finite nonnegative measure")
    if v.sum() <= 0:
        raise ParameterError(f"{what} has no mass")
    return v


def _start_vector(gen, start):
    if np.isscalar(start):
        i = key_to_index(_check_key(start, gen.L))
        v = np.zeros(gen.nstates)
        v[i] = 1.0
        return v
    v = _measure(gen, start, "start vector")
    return v / v.sum()


def survival_curve(gen, start, times):
    """P(tau > t) for each t, from a canonical key or a mixture vector.

    One pass of the uniformized series serves every time, carrying one
    scalar mass per time.  Each value is the mass of v e^{Qt} with its
    series truncated where the tail's l1 bound falls below _RTOL times the
    mass kept, so it lies within relative _RTOL below the exact survival
    probability (up to rounding).  The terms v P^k 1 pair left powers
    v P^i, on the calling thread, with right powers P^j 1, on a worker
    thread started and joined per call (none when no t > 0), so the values
    round differently from a sum of v P^k: within relative _RTOL, not to
    the bit.
    """
    v = _start_vector(gen, start)
    times = [float(check_time(t)) for t in times]
    mass, _ = _series(gen, v, times)
    return [mass[t] if t > 0 else 1.0 for t in times]


def yaglom_exact(gen, start, t):
    """Law of the state at time t conditioned on survival, as a probability
    vector over nonempty states.

    The row v e^{Qt} is summed until its truncated tail has l1 norm below
    _RTOL times the mass kept, so the normalized law is within 2 _RTOL of
    the exact one in l1 (up to rounding).  The pass makes one product by P
    per term it adds and none past the last; from _SPLIT_NNZ nonzeros each
    product runs on two threads, the calling one and a worker started and
    joined per call (none when t = 0), with the same result to the bit.
    """
    t = float(check_time(t))
    v = _start_vector(gen, start)
    row = _series(gen, v, [t], law=True)[1] if t > 0 else v
    total = row.sum()
    if total <= 0:
        raise ResolutionError("no surviving mass in the conditioned law")
    return row / total


def vector_distribution(gen, vec):
    """Wrap a measure on the generator's states, a vector, as an
    EmpiricalDistribution for TV comparisons, leaving out states of mass 0."""
    vec = _measure(gen, vec, "vector")
    weights = {index_to_key(i): float(p) for i, p in enumerate(vec) if p > 0}
    return EmpiricalDistribution(gen.L, weights)
