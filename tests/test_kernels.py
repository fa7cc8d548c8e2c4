"""Tests for the direct event kernel's site-buffer protocol, the interpreted
wrapper's errstate handling, the lockstep chain walk against the exact
semigroup, and a guard that every kernel has a caller."""

import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from cpqsd import _kernels as K
from cpqsd import yaglom
from cpqsd.spectral import build_generator, key_to_index

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


def _scalar_walk(gen, s, t_end, word):
    """Reference: one replica walked alone by the scalar helpers, clock
    then target from its word, each target found by a sequential scan of
    its row.  Returns (state index or -1, time, word)."""
    indptr, indices, rates, off = yaglom._off_diagonal(gen)
    exits = off + gen.absorption
    state = np.array([word], np.uint64)
    t_now = 0.0
    while True:
        t_now += K.exponential(state, exits[s])
        if t_now > t_end:
            return s, t_end, state[0]
        s = K._chain_step(indptr, indices, rates, exits, s, state)
        if s < 0:
            return -1, t_now, state[0]


def test_lockstep_walk_equals_the_scalar_walk():
    # same draws in the same order, so each replica ends where the scalar
    # walk of its word alone ends, whatever the other replicas do (a target
    # could differ only if a draw fell within rounding of an entry's bound)
    gen, walk = _chain(8)
    n = 300
    start = key_to_index(5)
    words = np.random.SeedSequence(9).generate_state(n, np.uint64)
    idxs = np.full(n, start, np.int64)
    tnows = np.zeros(n)
    got = words.copy()
    K.gillespie_chain_batch(*walk, idxs, tnows, 2.0, got)
    for i in range(n):
        assert (idxs[i], tnows[i], got[i]) == _scalar_walk(gen, start, 2.0,
                                                           words[i])
    assert 0 < np.count_nonzero(idxs >= 0) < n
