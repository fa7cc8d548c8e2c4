"""Tests for the kernels' one splitmix64 (against a Python-int reference)
and their independence of numpy's error state, the chain walk (against
the exact semigroup, and the walk and its arrays' row sums against a
reference built from the generator's rows and its own splitmix64), the
free-process walks (each lockstep replica against the one-replica path on
its word, window and capacity growth, keys read from the bitmap), both
lockstep walks against themselves at other block lengths, and guards that every public kernel, and every other public function and
method of the package, has a caller, and that every function the
benchmark's tracer wraps exists."""

import ast
import collections
import importlib.util
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cpqsd import _kernels as K
from cpqsd import yaglom
from cpqsd.edge import (FreePopulation, FullInterval, _words, clip_key,
                        encode_key, recenter, simulate_edge_trajectory)
from cpqsd.spectral import (POLICY_CLIP, POLICY_KILL, build_generator,
                            key_to_index)

ROOT = Path(__file__).resolve().parents[1]


def test_every_kernel_has_a_caller():
    # a public function of _kernels is live when another module of the
    # package calls it through `K.<name>`, the benchmark's tracer wraps it,
    # or a live kernel calls it
    src = ROOT / "src" / "cpqsd"
    kernels_py = src / "_kernels.py"
    tree = ast.parse(kernels_py.read_text())
    bodies = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    public = {name: body for name, body in bodies.items()
              if not name.startswith("_")}
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
            "gen_marks"} <= set(public)
    assert sorted(set(public) - live) == []


# public functions and methods with no caller in src/, bench/ or
# perfbench/, each with the reason it stays
_UNCALLED = {
    "default_beta": "good points: kept or deleted with ROADMAP item 4's "
                    "coupling decision",
    "is_good_pair": "good points, as default_beta",
    "edge_evolve": "steps on a shared log, for item 4's coupling times",
    "BackwardReach.at": "the reached line at one time, for item 4's "
                        "break points",
    "h_estimate": "the h of the decay triple (alpha, nu, h), which "
                  "alpha_estimate and yaglom_estimate do not give",
}


def _references(tree):
    """How often each name is read, as a Name or as an Attribute, in tree."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_public_function_has_a_caller():
    # a public module-level function, or a public method of a public class,
    # is live when some code of src/, bench/ or perfbench/ outside its own
    # definition reads its name; _kernels.py has its own guard above and
    # imports nothing of the package, so it neither defines nor calls here
    kernels_py = ROOT / "src" / "cpqsd" / "_kernels.py"
    trees = {p: ast.parse(p.read_text())
             for d in ("src", "bench", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py")) if p != kernels_py}
    reads = sum((_references(t) for t in trees.values()),
                collections.Counter())
    uncalled = []
    for path, tree in trees.items():
        if path.parent != ROOT / "src" / "cpqsd":
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node)]
            elif (isinstance(node, ast.ClassDef)
                  and not node.name.startswith("_")):
                defs = [(f"{node.name}.{f.name}", f) for f in node.body
                        if isinstance(f, ast.FunctionDef)]
            else:
                continue
            uncalled += [name for name, f in defs
                         if not f.name.startswith("_")
                         and reads[f.name] == _references(f)[f.name]]
    assert sorted(uncalled) == sorted(_UNCALLED)


def test_every_traced_function_exists(monkeypatch):
    # the benchmark's tracer looks each wrapped function up only in traced
    # runs, so a deleted or renamed one would break them unseen; the lookup
    # here is the tracer's: a class's own attribute, a module's attribute
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _, _ in layers.WRAPS
               if not callable(owner.__dict__.get(attr) if isinstance(
                   owner, type) else getattr(owner, attr, None))]
    assert layers.WRAPS
    assert missing == []


# ===== splitmix64 =====

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class _SplitMix64:
    """splitmix64 (Steele, Lea and Flood 2014) in Python ints masked to 64
    bits, sharing no code with the kernels: `word` is the state after the
    last draw."""

    def __init__(self, word):
        self.word = int(word)

    def unit(self):
        """Uniform on (0, 1]: the top 53 bits of the mixed word, plus one,
        times 2**-53."""
        self.word = (self.word + _GAMMA) & _MASK
        z = self.word
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        z ^= z >> 31
        return ((z >> 11) + 1) * 2.0 ** -53

    def exponential(self, rate):
        return -np.log(self.unit()) / rate


# arbitrary words, and words a few thousand gammas short of a wrap to 0
_WORDS = st.one_of(
    st.integers(0, _MASK),
    st.integers(1, 4096).map(lambda k: -k * _GAMMA & _MASK),
    st.integers(_MASK - 4096, _MASK))


@settings(derandomize=True, deadline=None)
@given(st.lists(_WORDS, min_size=1, max_size=40))
def test_units_draw_the_reference_stream(words):
    arr = np.array(words, np.uint64)
    units = K._units(arr)
    refs = [_SplitMix64(w) for w in words]
    assert units.tolist() == [r.unit() for r in refs]
    assert arr.tolist() == [r.word for r in refs]


@settings(derandomize=True, deadline=None)
@given(st.lists(_WORDS, min_size=1, max_size=40), st.integers(1, 8192))
def test_block_draws_the_reference_stream(words, m):
    # column i of a block is the stream of word i, whatever the others are
    m = max(1, m // len(words))  # the reference is slow: 8192 draws in all
    arr = np.array(words, np.uint64)
    W, U = K._block(arr, m)
    assert arr.tolist() == words
    assert W.shape == U.shape == (m, len(words))
    for i, word in enumerate(words):
        ref = _SplitMix64(word)
        want_units, want_words = [], []
        for _ in range(m):
            want_units.append(ref.unit())
            want_words.append(ref.word)
        assert U[:, i].tolist() == want_units
        assert W[:, i].tolist() == want_words


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
        # a word at 2**63, whose first + gamma overflows
        state = np.array([2 ** 63], np.uint64)
        n = K.gen_marks(-10, 10, 0.0, 2.0, 0.5, state, *marks)
        assert n > 0 and state[0] != 2 ** 63 and np.geterr() == before
    assert np.count_nonzero(counts) > 0


# ===== lockstep chain walk =====

def _chain(L, policy=POLICY_CLIP):
    gen = build_generator(L, 0.5, policy)
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
    """Reference for the chain walk, sharing no code with
    yaglom._chain_walk: gen.Q read one row at a time, its off-diagonal
    entries kept in row order, row sums added up entry by entry, and each
    target found by a sequential scan of its row."""

    def __init__(self, gen):
        Q = gen.Q
        self.rows = []
        self.off = []
        for x in range(gen.nstates):
            lo, hi = Q.indptr[x], Q.indptr[x + 1]
            row = [(y, q) for y, q in zip(Q.indices[lo:hi].tolist(),
                                          Q.data[lo:hi].tolist()) if y != x]
            acc = 0.0
            for _, q in row:
                acc += q
            self.rows.append(row)
            self.off.append(acc)
        self.exits = [a + b for a, b in zip(self.off, gen.absorption)]

    def step(self, s, state):
        """One jump's target from s, drawn from the _SplitMix64 `state`;
        -1 if absorbed."""
        r = state.unit() * self.exits[s]
        acc = 0.0
        for y, q in self.rows[s]:
            acc += q
            if r < acc:
                return y
        return -1

    def walk(self, s, t_end, word):
        """One replica alone to t_end, clock then target from its word.
        Returns (state index or -1, time, word)."""
        state = _SplitMix64(word)
        t_now = 0.0
        while True:
            t_now += state.exponential(self.exits[s])
            if t_now > t_end:
                return s, t_end, state.word
            s = self.step(s, state)
            if s < 0:
                return -1, t_now, state.word


@pytest.mark.parametrize("policy", [POLICY_CLIP, POLICY_KILL])
def test_lockstep_walk_equals_the_scalar_walk(policy):
    # same draws in the same order, so each replica ends where the scalar
    # walk of its word alone ends, whatever the other replicas do (a target
    # could differ only if a draw fell within rounding of an entry's bound);
    # under kill, infecting the deep site is absorption too
    gen, walk = _chain(8, policy)
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
def test_chain_walk_row_sums_are_sequential(policy):
    # the vectorised passes add each row's entries in row order, so the
    # row sums equal a per-row Python sum bit for bit
    gen, walk = _chain(8, policy)
    ref = _ReferenceChain(gen)
    *_, off, exits = walk
    assert off.tolist() == ref.off
    assert exits.tolist() == ref.exits


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


# ===== both lockstep walks =====

def _two_stages(pop, read):
    """read(pop) after each of two stages, with a resampling copy of
    survivors onto the dead between them."""
    pop.advance_to(1.5)
    first = read(pop)
    alive = np.nonzero(pop.alive_mask())[0]
    dead = np.nonzero(~pop.alive_mask())[0]
    assert 0 < alive.size and 0 < dead.size
    src = alive[np.random.default_rng(3).integers(0, alive.size, dead.size)]
    pop.copy(src, dead)
    pop.advance_to(3.0)
    return first, read(pop)


@pytest.mark.parametrize("walk", ["free-lockstep", "free-tail", "chain"])
def test_block_length_is_invisible(walk, monkeypatch):
    # a walk takes the draws of _LOCK steps from one _block call, so its
    # replicas are held, die or are handed to free_run part way through a
    # block; each keeps the word after its last used draw, so every block
    # length ends every replica with the same sites (in list order) or
    # state, count, time and word
    calls = []
    free_run = K.free_run

    def counted(*args):
        calls.append(args)
        return free_run(*args)

    monkeypatch.setattr(K, "free_run", counted)
    if walk == "free-lockstep":
        monkeypatch.setattr(K, "_ALONE", 0)
    _, chain = _chain(8)
    runs = []
    for lock in (1, 3, K._LOCK):
        monkeypatch.setattr(K, "_LOCK", lock)
        if walk == "chain":
            n = 400
            pop = yaglom._ChainPopulation(chain, 5, n, _words((25, 1), n))
            read = lambda p: (p.idxs.tolist(), p.tnows.tolist(),
                              p.states.tolist())
        else:
            n = 200
            pop = FreePopulation([0, 1, 2, 3], 1.2, n, _words((25, 0), n))
            read = lambda p: [_replica(p, i) for i in range(n)]
        runs.append(_two_stages(pop, read))
    assert runs[0] == runs[1] == runs[2]
    assert bool(calls) == (walk == "free-tail")


def test_final_keys_read_the_bitmap_as_clip_key_reads_the_sites():
    # the keys read from the bitmap at once equal clip_key of each
    # survivor's recentered sites, and so equal simulate_edge_trajectory
    # run on the same words; depth 6 clips most survivors of [-20, 0]
    n = 200
    words = np.concatenate([_words((8, r), 1) for r in range(n)])
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
