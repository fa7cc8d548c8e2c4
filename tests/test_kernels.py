"""Tests for the direct event kernel's site-buffer protocol, the interpreted
wrapper's errstate handling, the chain walks (the lockstep walk against the
exact semigroup, both walks and the walk arrays' row sums against a
reference built from the generator's rows), and a guard that every kernel
has a caller."""

import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from cpqsd import _kernels as K
from cpqsd import yaglom
from cpqsd.spectral import (POLICY_CLIP, POLICY_KILL, build_generator,
                            dominant_eigenpair, index_to_key, key_to_index)

ROOT = Path(__file__).resolve().parents[1]


def _run_growing(sites, lam, t_end, seed, cap):
    """gillespie_free from a cap-slot buffer, doubled on every -2."""
    buf = np.zeros(cap, np.int32)
    buf[:len(sites)] = sites
    state = np.random.SeedSequence(seed).generate_state(1, np.uint64)
    n, t_now = K.gillespie_free(buf, len(sites), lam, 0.0, t_end, state)
    grown = 0
    while n == -2:
        n = buf.size
        buf = np.concatenate([buf, np.zeros_like(buf)])
        n, t_now = K.gillespie_free(buf, n, lam, t_now, t_end, state)
        grown += 1
    return (buf[:n].tolist(), int(n), float(t_now), int(state[0])), grown


def test_resume_after_full_buffer_is_exact():
    # a buffer that fills must not cost the run its next event: resuming in
    # a larger buffer gives the run a buffer that never fills would give
    sites = [0, 1, 2, 3]
    overflowed = 0
    for seed in range(200):
        tight, grown = _run_growing(sites, 1.2, 6.0, seed, cap=len(sites))
        roomy, never = _run_growing(sites, 1.2, 6.0, seed, cap=256)
        assert never == 0
        assert tight == roomy, seed
        overflowed += grown > 1
    assert overflowed >= 20  # the comparison covers growth mid-run


def test_every_kernel_has_a_caller():
    # a kernel is live when another module of the package calls it through
    # `K.<name>`, the benchmark's tracer wraps it, or a live kernel calls it
    src = ROOT / "src" / "cpqsd"
    kernels_py = src / "_kernels.py"
    tree = ast.parse(kernels_py.read_text())
    jitted = {node.targets[0].id: node.value.args[0].id
              for node in tree.body
              if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Call)
              and getattr(node.value.func, "id", None) == "_jit"}
    bodies = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    users = "".join(p.read_text() for p in src.glob("*.py") if p != kernels_py)
    live = set(re.findall(r"\bK\.(\w+)", users))
    layers = (ROOT / "perfbench" / "layers.py").read_text()
    live |= set(re.findall(r'\(K, "(\w+)"', layers))
    todo = list(live & set(jitted))
    while todo:
        for node in ast.walk(bodies[jitted[todo.pop()]]):
            if (isinstance(node, ast.Name) and node.id in jitted
                    and node.id not in live):
                live.add(node.id)
                todo.append(node.id)
    assert sorted(set(jitted) - live) == []


# ===== errstate of the interpreted wrapper =====

def test_kernels_raise_no_overflow_warning_and_restore_errstate():
    # splitmix64 overflows uint64 by design; the kernels must not warn, and
    # must leave the caller's floating-point error settings as they were
    before = np.geterr()
    words = np.random.SeedSequence(5).generate_state(50, np.uint64)
    sites = np.zeros((50, 64), np.int32)
    counts = np.ones(50, np.int64)
    tnows = np.zeros(50)
    cap = 4096
    marks = (np.zeros(cap), np.zeros(cap, np.int8), np.zeros(cap, np.int32),
             np.zeros(cap, np.int32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K.gillespie_free_batch(sites, counts, tnows, 0.5, 2.0, words)
        assert np.geterr() == before
        n = K.gen_marks(-10, 10, 0.0, 2.0, 0.5, words[:1], *marks)
        assert n > 0 and np.geterr() == before
    assert np.count_nonzero(counts) > 0


def test_a_raising_kernel_leaves_the_next_call_protected():
    before = np.geterr()
    # the error comes from u64, two kernels deep (a TypeError interpreted,
    # a typing error under numba)
    with pytest.raises(Exception):
        K.exponential(None, 1.0)
    assert np.geterr() == before
    state = np.array([2 ** 63], np.uint64)  # state + gamma overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K.exponential(state, 1.0)
    assert np.geterr() == before


# ===== lockstep chain walk =====

def _chain(L):
    gen = build_generator(L, 0.5)
    return gen, yaglom._chain_walk(gen)


@pytest.mark.parametrize("L, key", [(3, 1), (4, 15)])
def test_lockstep_walk_matches_the_semigroup(L, key):
    # the law of the walk at several t, absorbed mass included, against the
    # row of expm(Q t), the chain's semigroup: one population is advanced
    # from time to time, so restarting a stage is checked too
    gen, walk = _chain(L)
    n = 20_000
    start = key_to_index(key)
    idxs = np.full(n, start, np.int64)
    tnows = np.zeros(n)
    words = np.random.SeedSequence((L, key)).generate_state(n, np.uint64)
    Q = gen.Q.toarray()
    for t in (0.25, 1.0, 2.5):
        K.gillespie_chain_batch(*walk, idxs, tnows, t, words)
        assert np.all(tnows[idxs >= 0] == t)
        assert np.all((0 < tnows[idxs < 0]) & (tnows[idxs < 0] <= t))
        row = expm(Q * t)[start]
        p = np.append(row, 1.0 - row.sum())
        got = np.bincount(np.where(idxs < 0, gen.nstates, idxs),
                          minlength=gen.nstates + 1) / n
        sd = np.sqrt(np.maximum(p * (1.0 - p), 1.0 / n) / n)
        assert np.all(np.abs(got - p) <= 4.0 * sd), (t, got, p)


class _ReferenceChain:
    """Reference for the chain walks, sharing no code with
    yaglom._chain_walk: gen.Q read one row at a time, its off-diagonal
    entries kept in row order (each rate scaled by h(y) / h(x) when h is
    given), row sums added up entry by entry, and each target found by a
    sequential scan of its row."""

    def __init__(self, gen, h=None):
        Q = gen.Q
        self.rows = []
        self.off = []
        for x in range(gen.nstates):
            lo, hi = Q.indptr[x], Q.indptr[x + 1]
            row = [(y, q if h is None else q * h[y] / h[x])
                   for y, q in zip(Q.indices[lo:hi].tolist(),
                                   Q.data[lo:hi].tolist()) if y != x]
            acc = 0.0
            for _, q in row:
                acc += q
            self.rows.append(row)
            self.off.append(acc)
        # the h-transformed chain is honest: no absorption
        self.exits = (self.off if h is not None else
                      [a + b for a, b in zip(self.off, gen.absorption)])

    def step(self, s, state):
        """One jump's target from s, -1 if absorbed."""
        r = K.unit(state) * self.exits[s]
        acc = 0.0
        for y, q in self.rows[s]:
            acc += q
            if r < acc:
                return y
        return -1

    def walk(self, s, t_end, word):
        """One replica alone to t_end, clock then target from its word.
        Returns (state index or -1, time, word)."""
        state = np.array([word], np.uint64)
        t_now = 0.0
        while True:
            t_now += K.exponential(state, self.exits[s])
            if t_now > t_end:
                return s, t_end, state[0]
            s = self.step(s, state)
            if s < 0:
                return -1, t_now, state[0]

    def path(self, s, n_jumps, word):
        """n_jumps jumps from s, each holding time added to the occupation
        of its state.  Returns (state index or -1, occupation, word)."""
        state = np.array([word], np.uint64)
        occ = np.zeros(len(self.rows))
        for _ in range(n_jumps):
            occ[s] += K.exponential(state, self.exits[s])
            s = self.step(s, state)
            if s < 0:
                break
        return s, occ, state[0]


def test_lockstep_walk_equals_the_scalar_walk():
    # same draws in the same order, so each replica ends where the scalar
    # walk of its word alone ends, whatever the other replicas do (a target
    # could differ only if a draw fell within rounding of an entry's bound)
    gen, walk = _chain(8)
    ref = _ReferenceChain(gen)
    n = 300
    start = key_to_index(5)
    words = np.random.SeedSequence(9).generate_state(n, np.uint64)
    idxs = np.full(n, start, np.int64)
    tnows = np.zeros(n)
    got = words.copy()
    K.gillespie_chain_batch(*walk, idxs, tnows, 2.0, got)
    for i in range(n):
        assert (idxs[i], tnows[i], got[i]) == ref.walk(start, 2.0, words[i])
    assert 0 < np.count_nonzero(idxs >= 0) < n


@pytest.mark.parametrize("policy", [POLICY_CLIP, POLICY_KILL])
@pytest.mark.parametrize("transformed", [True, False])
def test_chain_walk_row_sums_are_sequential(policy, transformed):
    # the vectorised passes add each row's entries in row order, so the
    # row sums equal a per-row Python sum bit for bit
    gen = build_generator(8, 0.5, policy)
    h = dominant_eigenpair(gen).h if transformed else None
    ref = _ReferenceChain(gen, h)
    *_, off, exits = yaglom._chain_walk(gen, h)
    assert off.tolist() == ref.off
    assert exits.tolist() == ref.exits


@pytest.mark.parametrize("policy", [POLICY_CLIP, POLICY_KILL])
def test_q_process_path_equals_the_scalar_path(policy):
    # the block-drawn path takes the draws of a jump-by-jump walk, so its
    # state, occupation and word equal the reference's bit for bit; the
    # run crosses two block boundaries
    gen = build_generator(6, 0.5, policy)
    res = dominant_eigenpair(gen)
    ref = _ReferenceChain(gen, res.h)
    walk = yaglom._chain_walk(gen, res.h)
    start = int(np.argmax(res.nu * res.h))
    n_steps = 2 * K._PATH_BLOCK + 123
    seed = 4
    word = yaglom._words((seed, 3, 0), 1)
    state = word.copy()
    occ = np.zeros(gen.nstates)
    final = K.occupation_run(*walk, start, n_steps, state, occ)
    want_final, want_occ, want_word = ref.path(start, n_steps, word[0])
    assert (final, state[0]) == (want_final, want_word)
    assert np.array_equal(occ, want_occ)
    got = yaglom.q_process_simulate(res, gen, n_steps, seed)
    assert got.weights == {index_to_key(i): float(w)
                           for i, w in enumerate(want_occ) if w > 0}


def test_absorbed_path_stops_where_the_scalar_path_stops():
    # on the untransformed chain the path is absorbed mid-block: the run
    # returns -1 with the occupation and word of the jumps made so far
    gen, walk = _chain(6)
    ref = _ReferenceChain(gen)
    for seed in range(5):
        word = np.random.SeedSequence(seed).generate_state(1, np.uint64)
        state = word.copy()
        occ = np.zeros(gen.nstates)
        final = K.occupation_run(*walk, key_to_index(1), 10_000, state, occ)
        want_final, want_occ, want_word = ref.path(key_to_index(1), 10_000,
                                                   word[0])
        assert final == want_final == -1
        assert state[0] == want_word
        assert np.array_equal(occ, want_occ)
