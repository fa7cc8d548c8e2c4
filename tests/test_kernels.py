"""Tests for the interpreted wrapper's errstate handling, the chain walks
(the lockstep walk against the exact semigroup, both walks and the walk
arrays' row sums against a reference built from the generator's rows), the
free-process walks (each lockstep replica against the one-replica path on
its word, window and capacity growth, keys read from the bitmap), and a
guard that every public kernel has a caller."""

import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from cpqsd import _kernels as K
from cpqsd import yaglom
from cpqsd.edge import (FreePopulation, FullInterval, _stream_state, clip_key,
                        encode_key, recenter, simulate_edge_trajectory)
from cpqsd.spectral import (POLICY_CLIP, POLICY_KILL, build_generator,
                            dominant_eigenpair, index_to_key, key_to_index)

ROOT = Path(__file__).resolve().parents[1]


def test_every_kernel_has_a_caller():
    # a public function of _kernels is live when another module of the
    # package calls it through `K.<name>`, the benchmark's tracer wraps it,
    # or a live kernel calls it; a _jit kernel is read through its source
    # function
    src = ROOT / "src" / "cpqsd"
    kernels_py = src / "_kernels.py"
    tree = ast.parse(kernels_py.read_text())
    bodies = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    public = {name: body for name, body in bodies.items()
              if not name.startswith("_")}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "_jit"):
            public[node.targets[0].id] = bodies[node.value.args[0].id]
    users = "".join(p.read_text() for p in src.glob("*.py") if p != kernels_py)
    live = set(re.findall(r"\bK\.(\w+)", users))
    layers = (ROOT / "perfbench" / "layers.py").read_text()
    live |= set(re.findall(r'\(K, "(\w+)"', layers))
    todo = list(live & set(public))
    while todo:
        for node in ast.walk(public[todo.pop()]):
            if (isinstance(node, ast.Name) and node.id in public
                    and node.id not in live):
                live.add(node.id)
                todo.append(node.id)
    assert {"free_run", "gillespie_free_batch", "gillespie_chain_batch",
            "occupation_run", "gen_marks"} <= set(public)
    assert sorted(set(public) - live) == []


# ===== errstate of the interpreted wrapper =====

def test_kernels_raise_no_overflow_warning_and_restore_errstate():
    # splitmix64 overflows uint64 by design; the kernels must not warn, and
    # must leave the caller's floating-point error settings as they were
    before = np.geterr()
    words = np.random.SeedSequence(5).generate_state(50, np.uint64)
    sites = np.zeros((50, 16), np.int64)
    occ = np.zeros((50, 32), np.int8)
    occ[:, 16] = 1
    counts = np.ones(50, np.int64)
    tnows = np.zeros(50)
    cap = 4096
    marks = (np.zeros(cap), np.zeros(cap, np.int8), np.zeros(cap, np.int32),
             np.zeros(cap, np.int32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K.gillespie_free_batch(sites, occ, -16, counts, tnows, 0.5, 2.0,
                               words)
        assert np.geterr() == before
        one = list(range(-20, 1))
        K.free_run(one, 0.5, 0.0, 2.0, words[:1])
        assert one and np.geterr() == before
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


# ===== lockstep free walk =====

def _one_replica(pop, i, t_end, word):
    """Replica i of a FreePopulation run on by free_run alone, from its
    sites and time with the given word.  Returns (sites, count, time,
    word)."""
    sites = pop.sites[i, :pop.counts[i]].tolist()
    state = np.array([word], np.uint64)
    t_now = K.free_run(sites, pop.lam, float(pop.tnows[i]), t_end, state)
    return sites, len(sites), t_now, state[0]


def _replica(pop, i):
    """(sites, count, time, word) of replica i, after checking that its
    bitmap marks exactly its sites."""
    sites = pop.sites[i, :pop.counts[i]].tolist()
    marked = (np.nonzero(pop.occ[i])[0] + pop.lo).tolist()
    assert sorted(sites) == marked
    return sites, int(pop.counts[i]), float(pop.tnows[i]), pop.states[i]


@pytest.mark.parametrize("alone", [0, K._ALONE], ids=["lockstep", "tail"])
@pytest.mark.parametrize("init, lam", [
    ([0], 0.5), ([0, 1, 2, 3], 1.2), (list(range(-20, 1)), 0.5)],
    ids=["point", "block-1.2", "interval-20"])
def test_lockstep_replicas_equal_the_one_replica_path(init, lam, alone,
                                                      monkeypatch):
    # each replica makes free_run's draws with free_run's arithmetic, so
    # over two stages, with a resampling copy in between, it ends with the
    # sites (in list order), count, time and word of free_run on its own
    # word, whatever the other replicas do; with alone = 0 no replica is
    # handed to free_run at the tail of a stage
    monkeypatch.setattr(K, "_ALONE", alone)
    n = 300
    pop = FreePopulation(init, lam, n, yaglom._words((11, 0, 0), n))
    words = pop.states.copy()
    want = [_one_replica(pop, i, 1.5, words[i]) for i in range(n)]
    pop.advance_to(1.5)
    assert [_replica(pop, i) for i in range(n)] == want
    alive = np.nonzero(pop.alive_mask())[0]
    dead = np.nonzero(~pop.alive_mask())[0]
    assert 0 < alive.size
    rng = np.random.default_rng(3)
    src = alive[rng.integers(0, alive.size, dead.size)]
    pop.copy(src, dead)
    words = pop.states.copy()
    want = [_one_replica(pop, i, 3.0, words[i]) for i in range(n)]
    pop.advance_to(3.0)
    assert [_replica(pop, i) for i in range(n)] == want


def test_resume_after_full_buffer_is_exact(monkeypatch):
    # a site buffer or bitmap window that fills must not cost a replica its
    # next event: growing both in lockstep steps mid-run is invisible, so a
    # population started with both as small as its start allows ends bit
    # for bit where one that never grows ends
    monkeypatch.setattr(K, "_ALONE", 0)
    n = 200
    words = yaglom._words((3, 0, 0), n)
    tight = FreePopulation([0, 1, 2, 3], 1.2, n, words)
    roomy = FreePopulation([0, 1, 2, 3], 1.2, n, words)
    tight.sites = tight.sites[:, :4].copy()
    tight.occ = tight.occ[:, -tight.lo:4 - tight.lo].copy()
    tight.lo = 0
    roomy.sites = np.zeros((n, 1024), np.int32)
    roomy.sites[:, :4] = [0, 1, 2, 3]
    roomy.occ = np.zeros((n, 4096), np.int8)
    roomy.lo = -2048
    roomy.occ[:, 2048:2052] = 1
    for t_end in (3.0, 6.0):
        tight.advance_to(t_end)
        roomy.advance_to(t_end)
    # both grew from the start's exact fit, so mid-run
    assert tight.sites.shape[1] > 4 and tight.occ.shape[1] > 4
    assert roomy.sites.shape == (n, 1024) and roomy.occ.shape == (n, 4096)
    assert [_replica(tight, i) for i in range(n)] == [
        _replica(roomy, i) for i in range(n)]


def test_final_keys_read_the_bitmap_as_clip_key_reads_the_sites():
    # the keys read from the bitmap at once equal clip_key of each
    # survivor's recentered sites, and so equal simulate_edge_trajectory
    # run on the same words; depth 6 clips most survivors of [-20, 0]
    n = 200
    words = np.concatenate([_stream_state(8, r) for r in range(n)])
    pop = FreePopulation(range(-20, 1), 0.5, n, words)
    pop.advance_to(2.0)
    alive = np.nonzero(pop.alive_mask())[0]
    clipped_at = {}
    for depth in (6, 40):
        keys, clipped = pop.final_keys(alive, depth)
        want = [clip_key(recenter(pop.sites[i, :pop.counts[i]])[0], depth)
                for i in alive]
        assert keys == [k for k, _ in want]
        assert clipped == sum(c > 0 for _, c in want)
        clipped_at[depth] = clipped
        trajs = [simulate_edge_trajectory(FullInterval(20), 0.5, 2.0, depth,
                                          8, stream=r) for r in range(n)]
        assert [t.survived for t in trajs] == pop.alive_mask().tolist()
        assert keys == [encode_key(trajs[i].final, depth) for i in alive]
    assert 0 < clipped_at[6] and clipped_at[40] < clipped_at[6]
