"""Tests for the truncated-generator spectral machinery.

The generator is checked rate-for-rate against a brute-force enumerator
written directly over sets of offsets, with none of the bit arithmetic the
implementation uses.  At lambda = 0.5 every rate is a small multiple of
0.5, so sums of at most two coinciding events are exact in binary64 and
the comparison is literal equality.
"""

import contextlib
import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import cpqsd
import cpqsd.spectral
from cpqsd.edge import EmpiricalDistribution, cylinder_restrict, decode_key, tv_distance
from cpqsd.errors import ParameterError, ResolutionError
from cpqsd.spectral import (
    _MAX_L,
    POLICY_CLIP,
    POLICY_KILL,
    _tail_bound,
    build_generator,
    dominant_eigenpair,
    index_to_key,
    key_to_index,
    survival_curve,
    vector_distribution,
    yaglom_exact,
)


# ===== brute-force oracle =====

def enumerate_states(L):
    """Every nonempty edge configuration of depth L, as a frozenset."""
    inner = range(-(L - 1), 0)
    states = []
    for r in range(L):
        for combo in itertools.combinations(inner, r):
            states.append(frozenset(combo) | {0})
    return states


def oracle_row(S, L, lam, policy):
    """(dict target-set -> rate, absorption rate) for one state.

    Events are enumerated one by one from the dynamics: unit-rate recovery
    of each infected site (the rightmost one recentering the remainder),
    rate-lambda infection across each infected/healthy neighbour pair, and
    the left shift from infecting +1.  Self-loops are not transitions.
    """
    out = {}
    absorb = 0.0

    def add(T, rate):
        if T != S:
            out[T] = out.get(T, 0.0) + rate

    for x in S:
        if x != 0:
            add(S - {x}, 1.0)
    rest = S - {0}
    if rest:
        m = max(rest)
        add(frozenset(z - m for z in rest), 1.0)
    else:
        absorb += 1.0
    for y in range(-(L - 1), 0):
        if y not in S:
            k = (y + 1 in S) + (y - 1 in S)
            if k:
                add(S | {y}, k * lam)
    if -L + 1 in S and policy == POLICY_KILL:
        absorb += lam
    shifted = frozenset(z - 1 for z in S) | {0}
    if min(shifted) < -(L - 1):
        if policy == POLICY_KILL:
            absorb += lam
        else:
            add(shifted - {min(shifted)}, lam)
    else:
        add(shifted, lam)
    return out, absorb


def generator_row(gen, key):
    """(off-diagonal rates out of key by target configuration, absorption
    rate), read from gen.Q's CSR row and gen.absorption."""
    i = key_to_index(key)
    lo, hi = gen.Q.indptr[i], gen.Q.indptr[i + 1]
    targets = {frozenset(decode_key(index_to_key(int(j)), gen.L)): float(r)
               for j, r in zip(gen.Q.indices[lo:hi], gen.Q.data[lo:hi])
               if j != i}
    return targets, float(gen.absorption[i])


_EIG = {}


def run_fresh(code):
    """Run `code` in a fresh interpreter that imports this cpqsd."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cpqsd.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def spectral(L, lam=0.5, policy=POLICY_CLIP):
    if (L, lam, policy) not in _EIG:
        _EIG[L, lam, policy] = dominant_eigenpair(build_generator(L, lam, policy))
    return _EIG[L, lam, policy]


def assert_matches_reference(res, alpha, left, right):
    """res against a reference rate and its left and right eigenvectors,
    scaled here as the solver scales its own."""
    nu = left / left.sum()
    h = right / float(nu @ right)
    assert abs(res.alpha - alpha) <= 1e-10
    assert np.max(np.abs(res.nu - nu)) <= 1e-8
    assert np.max(np.abs(res.h - h)) <= 1e-8


class TestGeneratorOracle:

    @pytest.mark.parametrize("policy", [POLICY_CLIP, POLICY_KILL])
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_exact_match_small_L(self, L, policy):
        gen = build_generator(L, 0.5, policy)
        states = enumerate_states(L)
        assert gen.nstates == len(states) == 2 ** (L - 1)
        diag = gen.Q.diagonal()
        for S in states:
            key = sum(1 << -x for x in S)
            want, want_absorb = oracle_row(S, L, 0.5, policy)
            got, got_absorb = generator_row(gen, key)
            assert got == want
            assert got_absorb == want_absorb
            total = sum(want.values()) + want_absorb
            assert diag[key_to_index(key)] == -total

    @staticmethod
    def assert_matches_oracle(L, policy):
        gen = build_generator(L, 0.5, policy)
        for S in enumerate_states(L):
            key = sum(1 << -x for x in S)
            want, want_absorb = oracle_row(S, L, 0.5, policy)
            got, got_absorb = generator_row(gen, key)
            assert got == want
            assert got_absorb == want_absorb

    @pytest.mark.parametrize("policy", [POLICY_CLIP, POLICY_KILL])
    def test_exact_match_L6(self, policy):
        self.assert_matches_oracle(6, policy)

    @pytest.mark.parametrize("policy", [POLICY_CLIP, POLICY_KILL])
    def test_exact_match_L8(self, policy):
        self.assert_matches_oracle(8, policy)

    def test_generic_lambda_match(self):
        lam = 0.3
        gen = build_generator(4, lam, POLICY_CLIP)
        for S in enumerate_states(4):
            key = sum(1 << -x for x in S)
            want, want_absorb = oracle_row(S, 4, lam, POLICY_CLIP)
            got, got_absorb = generator_row(gen, key)
            assert set(got) == set(want)
            for T in want:
                assert got[T] == pytest.approx(want[T], abs=1e-13)
            assert got_absorb == pytest.approx(want_absorb, abs=1e-13)

    @pytest.mark.parametrize("policy", [POLICY_CLIP, POLICY_KILL])
    def test_row_sum_identity_L10(self, policy):
        gen = build_generator(10, 0.5, policy)
        rowsum = np.asarray(gen.Q.sum(axis=1)).ravel() + gen.absorption
        assert np.max(np.abs(rowsum)) == 0.0

    def test_row_sum_identity_generic_lambda(self):
        gen = build_generator(9, 0.37, POLICY_KILL)
        rowsum = np.asarray(gen.Q.sum(axis=1)).ravel() + gen.absorption
        assert np.max(np.abs(rowsum)) < 1e-13

    def test_L1_chains(self):
        clip = build_generator(1, 0.5, POLICY_CLIP)
        assert clip.nstates == 1
        assert generator_row(clip, 1) == ({}, 1.0)
        kill = build_generator(1, 0.5, POLICY_KILL)
        assert generator_row(kill, 1)[1] == 2.0

    def test_exit_rates(self):
        gen = build_generator(5, 0.5)
        exits = -gen.Q.diagonal()
        assert np.all(exits > 0)
        assert exits[key_to_index(1)] == 1.0 + 2 * 0.5

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            build_generator(0, 0.5)
        with pytest.raises(ParameterError):
            build_generator(27, 0.5)
        with pytest.raises(ParameterError):
            build_generator(_MAX_L + 1, 0.5)
        with pytest.raises(ParameterError):
            build_generator(4, 0.0)
        with pytest.raises(ParameterError):
            build_generator(4, math.inf)
        with pytest.raises(ParameterError):
            build_generator(4, 0.5, "chop")

    @pytest.mark.parametrize("lam", [0.5, 1.3])
    @pytest.mark.parametrize("policy", [POLICY_CLIP, POLICY_KILL])
    def test_csr_is_canonical(self, policy, lam):
        # each row sorted, without a repeated column, with one diagonal
        # entry: the oracle tests compare rows as dicts and see none of this
        for L in range(1, 13):
            Q = build_generator(L, lam, policy).Q
            assert Q.has_canonical_format
            n = Q.shape[0]
            assert len(Q.indices) == len(Q.data) == Q.indptr[-1]
            rows = np.repeat(np.arange(n), np.diff(Q.indptr))
            same_row = rows[1:] == rows[:-1]
            assert np.all(np.diff(Q.indices)[same_row] > 0)
            diagonal = np.bincount(rows[Q.indices == rows], minlength=n)
            assert np.array_equal(diagonal, np.ones(n))

    @pytest.mark.parametrize("policy", [POLICY_CLIP, POLICY_KILL])
    def test_build_peaks_near_its_csr(self, policy):
        # the build writes the CSR in place, beside one event type's arrays;
        # per-event COO blocks, their concatenation and scipy's COO -> CSR
        # conversion peaked at 2.4x
        tracemalloc.start()
        try:
            gen = build_generator(14, 0.5, policy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        Q = gen.Q
        held = (Q.indptr.nbytes + Q.indices.nbytes + Q.data.nbytes
                + gen.absorption.nbytes)
        assert peak <= 1.6 * held

    def test_key_index_bijection(self):
        for idx in range(16):
            assert key_to_index(index_to_key(idx)) == idx
        with pytest.raises(ParameterError):
            key_to_index(4)
        with pytest.raises(ParameterError):
            key_to_index(0)


class TestDominantEigenpair:

    def test_one_state_chain(self):
        res = spectral(1)
        assert res.alpha == pytest.approx(1.0, abs=1e-12)
        assert res.nu[0] == pytest.approx(1.0, abs=1e-12)
        assert res.h[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_state_closed_form(self):
        gen = build_generator(2, 0.5)
        Q = gen.Q.toarray()
        assert np.array_equal(Q, [[-2.0, 1.0], [2.0, -2.0]])
        res = spectral(2)
        r2 = math.sqrt(2.0)
        assert abs(res.alpha - (2.0 - r2)) < 1e-10
        assert res.nu[0] == pytest.approx(2.0 - r2, abs=1e-10)
        assert res.nu[1] == pytest.approx(r2 - 1.0, abs=1e-10)
        # h solves Qh = -alpha h with nu.h = 1
        assert res.h[1] / res.h[0] == pytest.approx(r2, abs=1e-10)
        assert res.h[0] == pytest.approx((2.0 + r2) / 4.0, abs=1e-10)

    def test_normalization_and_residuals(self):
        for L in (6, 10):
            res = spectral(L)
            assert res.nu.sum() == pytest.approx(1.0, abs=1e-14)
            assert float(res.nu @ res.h) == pytest.approx(1.0, abs=1e-12)
            assert res.residual_left <= 1e-10
            assert res.residual_right <= 1e-10

    def test_positivity_up_to_L14(self):
        for L in (2, 4, 6, 8, 10, 12, 14):
            res = spectral(L)
            assert np.all(res.nu > 0)
            assert np.all(res.h > 0)

    def test_alpha_decreasing_and_cauchy_in_L(self):
        a10 = spectral(10).alpha
        a12 = spectral(12).alpha
        a14 = spectral(14).alpha
        assert a10 > a12 > a14 > 0
        assert abs(a14 - a12) < abs(a12 - a10)

    @pytest.mark.parametrize("lam", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("L", [2, 4, 8])
    def test_policy_bracketing(self, L, lam):
        # kill absorbs where clip drops one site, so it decays no slower;
        # both lie above the untruncated alpha, so they bracket nothing
        clip = spectral(L, lam, POLICY_CLIP)
        kill = spectral(L, lam, POLICY_KILL)
        assert kill.alpha >= clip.alpha

    def test_more_infection_survives_longer(self):
        h = spectral(10).h
        assert h[key_to_index(3)] > h[key_to_index(1)]

    def test_deterministic_rerun(self):
        r1 = dominant_eigenpair(build_generator(8, 0.5))
        r2 = dominant_eigenpair(build_generator(8, 0.5))
        assert r1.alpha == r2.alpha
        assert np.array_equal(r1.nu, r2.nu)
        assert np.array_equal(r1.h, r2.h)
        assert r1.iterations == r2.iterations

    def test_non_convergence_reported(self, monkeypatch):
        monkeypatch.setattr(cpqsd.spectral, "_MAX_ITERS", 3)
        with pytest.raises(ResolutionError, match="did not converge"):
            dominant_eigenpair(build_generator(6, 0.5))

    def test_nu_truncation_consistency(self):
        # restricting nu_L to depth L-2 stays close to nu_{L-2}
        for L in (10, 12):
            big = cylinder_restrict(
                vector_distribution(build_generator(L, 0.5), spectral(L).nu),
                L - 2)
            small = vector_distribution(build_generator(L - 2, 0.5),
                                        spectral(L - 2).nu)
            assert tv_distance(big, small) < 0.1

    @pytest.mark.parametrize("lam", [0.5, 1.3])
    @pytest.mark.parametrize("policy", [POLICY_CLIP, POLICY_KILL])
    @pytest.mark.parametrize("L", [1, 2, 3, 5, 8, 10])
    def test_matches_dense_eig(self, L, policy, lam):
        # LAPACK's dense eigen-decomposition of Q and of Q.T, which shares
        # no code with the Krylov solver
        gen = build_generator(L, lam, policy)
        Q = gen.Q.toarray()
        rates, right = np.linalg.eig(Q)
        i = np.argmax(rates.real)
        rates_left, left = np.linalg.eig(Q.T)
        j = np.argmax(rates_left.real)
        assert rates[i].imag == 0 and rates_left[j].imag == 0
        res = dominant_eigenpair(gen)
        assert abs(rates_left[j].real - rates[i].real) <= 1e-10
        assert_matches_reference(res, -rates[i].real, left[:, j].real,
                                 right[:, i].real)


class TestArpackEigenpair:
    """The solver on both sides of 2048 states, the size that once split
    power iteration from ARPACK.  Above it ARPACK (scipy's eigs, imported
    by the test alone) is the reference."""

    @pytest.mark.parametrize("policy", [POLICY_CLIP, POLICY_KILL])
    @pytest.mark.parametrize("L", [13, 14, 15])
    def test_agrees_with_arpack(self, L, policy):
        from scipy.sparse.linalg import eigs

        gen = build_generator(L, 0.5, policy)
        v0 = np.ones(gen.nstates)
        rate, right = eigs(gen.Q, k=1, which="LR", v0=v0)
        rate_left, left = eigs(gen.Q.T.tocsr(), k=1, which="LR", v0=v0)
        assert abs(rate_left[0] - rate[0]) <= 1e-10
        res = dominant_eigenpair(gen)
        assert_matches_reference(res, -rate[0].real, left[:, 0].real,
                                 right[:, 0].real)
        assert res.residual_left <= 1e-10
        assert res.residual_right <= 1e-10
        assert res.nu.sum() == pytest.approx(1.0, abs=1e-14)
        assert float(res.nu @ res.h) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("policy", [POLICY_CLIP, POLICY_KILL])
    @pytest.mark.parametrize("L", [8, 12, 13, 14, 15])
    def test_residuals_keep_a_tenfold_margin(self, L, policy):
        # the solver stops at a relative Ritz residual of _TOL / 1000, so
        # the certificate must pass with room to spare, not by a hair
        tol = cpqsd.spectral._TOL
        res = spectral(L, policy=policy)
        assert res.residual_left <= tol / 10
        assert res.residual_right <= tol / 10

    @pytest.mark.parametrize("policy", [POLICY_CLIP, POLICY_KILL])
    def test_positive_vectors(self, policy):
        for L in (10, 14):
            res = dominant_eigenpair(build_generator(L, 0.5, policy))
            assert np.all(res.nu > 0)
            assert np.all(res.h > 0)

    def test_deterministic_rerun(self):
        for L in (8, 13):
            r1 = dominant_eigenpair(build_generator(L, 0.5))
            r2 = dominant_eigenpair(build_generator(L, 0.5))
            assert r1.alpha == r2.alpha
            assert np.array_equal(r1.nu, r2.nu)
            assert np.array_equal(r1.h, r2.h)
            assert r1.iterations == r2.iterations
            assert r1.residual_left == r2.residual_left
            assert r1.residual_right == r2.residual_right

    def test_iterations_count_operator_applications(self, monkeypatch):
        limit = cpqsd.spectral._MAX_ITERS
        for L in (8, 13):
            gen = build_generator(L, 0.5)
            monkeypatch.setattr(cpqsd.spectral, "_MAX_ITERS", limit)
            used = dominant_eigenpair(gen).iterations
            monkeypatch.setattr(cpqsd.spectral, "_MAX_ITERS", used)
            assert dominant_eigenpair(gen).iterations == used
            monkeypatch.setattr(cpqsd.spectral, "_MAX_ITERS", used - 1)
            with pytest.raises(ResolutionError, match="did not converge"):
                dominant_eigenpair(gen)

    def test_non_convergence_reported(self, monkeypatch):
        # the worker thread is joined before the error is raised
        monkeypatch.setattr(cpqsd.spectral, "_MAX_ITERS", 10)
        threads = threading.active_count()
        for L in (8, 13):
            with pytest.raises(ResolutionError, match="did not converge"):
                dominant_eigenpair(build_generator(L, 0.5))
            assert threading.active_count() == threads

    def test_no_depth_loads_sparse_linalg(self):
        # scipy.sparse.linalg costs several MB of resident memory; the
        # solver and the series run on numpy and scipy.sparse alone, at
        # every depth
        code = (
            "import sys\n"
            "import cpqsd.edge, cpqsd.graphical, cpqsd.yaglom\n"
            "from cpqsd import spectral as S\n"
            "for policy in (S.POLICY_CLIP, S.POLICY_KILL):\n"
            "    gen = S.build_generator(14, 0.5, policy)\n"
            "    S.dominant_eigenpair(gen)\n"
            "    S.survival_curve(gen, 1, [1.0, 2.0])\n"
            "    S.yaglom_exact(gen, 1, 1.0)\n"
            "assert 'scipy.sparse.linalg' not in sys.modules\n")
        run_fresh(code)


def _solve_in_child(alpha):
    if dominant_eigenpair(build_generator(8, 0.5)).alpha != alpha:
        sys.exit(1)


class TestTwoThreadSolve:
    """dominant_eigenpair solves nu and h on two threads, one started and
    joined per call."""

    def test_concurrent_callers_match_a_serial_call(self):
        gen = build_generator(12, 0.5)
        serial = dominant_eigenpair(gen)
        results = [None, None]

        def solve(i):
            results[i] = dominant_eigenpair(gen)

        threads = [threading.Thread(target=solve, args=(i,)) for i in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for res in results:
            assert repr(res) == repr(serial)
            assert np.array_equal(res.nu, serial.nu)
            assert np.array_equal(res.h, serial.h)

    def test_worker_joined_when_the_calling_side_raises(self, monkeypatch):
        # the left solve fails at once while h's solve on the worker runs
        # on: the error is raised only after the worker has finished
        solve = cpqsd.spectral._rightmost
        caller = threading.get_ident()

        def left_fails(*args):
            if threading.get_ident() == caller:
                raise ResolutionError("left solve failed")
            return solve(*args)

        gen = build_generator(16, 0.5)
        monkeypatch.setattr(cpqsd.spectral, "_rightmost", left_fails)
        threads = threading.active_count()
        with pytest.raises(ResolutionError, match="left solve failed"):
            dominant_eigenpair(gen)
        assert threading.active_count() == threads

    def test_forked_child_solves(self):
        # a pool's worker would be missing in the child, and its solve
        # would never run
        alpha = dominant_eigenpair(build_generator(8, 0.5)).alpha
        assert _run_forked(_solve_in_child, alpha) == 0


def _run_forked(target, *args):
    """Exit code of target(*args) in a child made by os.fork, joined within
    60 s and killed if it is still alive then."""
    child = multiprocessing.get_context("fork").Process(target=target,
                                                        args=args)
    child.start()
    try:
        child.join(timeout=60)
        assert not child.is_alive()
    finally:
        if child.is_alive():
            child.kill()
            child.join()
    return child.exitcode


_TIMES16 = [float(t) for t in range(1, 17)]


def _survive_in_child(curve):
    if survival_curve(build_generator(8, 0.5), 1, _TIMES16) != curve:
        sys.exit(1)


class TestTwoThreadSeries:
    """survival_curve pairs left powers on the calling thread with right
    powers on a worker thread, one started and joined per call."""

    def test_concurrent_callers_match_a_serial_call(self):
        gen = build_generator(12, 0.5)
        serial = survival_curve(gen, 1, _TIMES16)
        results = [None, None]

        def survive(i):
            results[i] = survival_curve(gen, 1, _TIMES16)

        threads = [threading.Thread(target=survive, args=(i,))
                   for i in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [serial, serial]

    def test_worker_joined_when_the_series_does_not_close(self, monkeypatch):
        # an _RTOL of 0 still closes once the Poisson weights underflow to
        # 0; below 0 no tail bound is small enough, and the pass runs to
        # its k_max
        gen = build_generator(12, 0.5)
        monkeypatch.setattr(cpqsd.spectral, "_RTOL", -1.0)
        threads = threading.active_count()
        with pytest.raises(ResolutionError, match="did not close"):
            survival_curve(gen, 1, _TIMES16)
        assert threading.active_count() == threads

    def test_worker_error_raised_by_the_caller(self):
        # the right powers fail on the worker while the left ones run on
        caller = threading.get_ident()

        class WorkerFails(type(build_generator(2, 0.5).Q)):
            def __matmul__(self, x):
                if threading.get_ident() != caller:
                    raise ResolutionError("right powers failed")
                return super().__matmul__(x)

        gen = build_generator(12, 0.5)
        gen.Q = WorkerFails(gen.Q)
        threads = threading.active_count()
        with pytest.raises(ResolutionError, match="right powers failed"):
            survival_curve(gen, 1, _TIMES16)
        assert threading.active_count() == threads

    def test_forked_child_survives(self):
        curve = survival_curve(build_generator(8, 0.5), 1, _TIMES16)
        assert _run_forked(_survive_in_child, curve) == 0

    def test_no_thread_without_a_positive_time(self, monkeypatch):
        started = []
        thread = threading.Thread

        def counted(*args, **kwargs):
            started.append(1)
            return thread(*args, **kwargs)

        gen = build_generator(8, 0.5)
        monkeypatch.setattr(cpqsd.spectral.threading, "Thread", counted)
        assert survival_curve(gen, 1, []) == []
        assert survival_curve(gen, 1, [0.0]) == [1.0]
        assert started == []
        survival_curve(gen, 1, [1.0])
        assert started == [1]


def _force_split(monkeypatch, split):
    """Make the law pass split its products by rows at every depth, or at
    none."""
    monkeypatch.setattr(cpqsd.spectral, "_SPLIT_NNZ", 0 if split else 1 << 62)


def _law_in_child(law):
    if not np.array_equal(yaglom_exact(build_generator(8, 0.5), 1, 8.0), law):
        sys.exit(1)


def _threads_started(monkeypatch):
    """A list that gains an entry per thread spectral starts from now on."""
    started = []
    thread = threading.Thread

    def counted(*args, **kwargs):
        started.append(1)
        return thread(*args, **kwargs)

    monkeypatch.setattr(cpqsd.spectral.threading, "Thread", counted)
    return started


class TestSplitLawPass:
    """With P^T's nonzeros at least _SPLIT_NNZ, the law pass computes the
    top rows of each power on the calling thread and the bottom rows on a
    worker thread, one started and joined per call."""

    @pytest.mark.parametrize("policy", [POLICY_CLIP, POLICY_KILL])
    @pytest.mark.parametrize("L", [8, 10, 12, 14, 16])
    def test_split_and_serial_passes_are_equal(self, L, policy, monkeypatch):
        gen = build_generator(L, 0.5, policy)
        mixture = np.random.default_rng(L).random(gen.nstates)
        got = {}
        for split in (False, True):
            _force_split(monkeypatch, split)
            got[split] = [cpqsd.spectral._series(
                gen, cpqsd.spectral._start_vector(gen, start), [1.0, t],
                law=True) for start in (1, 5, mixture) for t in (0.3, 8.0)]
        for (mass, row), (mass2, row2) in zip(got[False], got[True]):
            assert mass == mass2
            assert np.array_equal(row, row2)

    def test_halves_are_views_of_one_copy(self):
        PT = build_generator(10, 0.5).Q.T.tocsr()
        top, bottom = cpqsd.spectral._halves(PT)
        assert top.shape[0] + bottom.shape[0] == PT.shape[0]
        # cut at the row where the nonzeros pass half
        assert abs(top.nnz - bottom.nnz) <= 2 * np.diff(PT.indptr).max()
        for half in (top, bottom):
            assert np.shares_memory(half.data, PT.data)
            assert np.shares_memory(half.indices, PT.indices)
        x = np.random.default_rng(0).random(PT.shape[0])
        assert np.array_equal(np.concatenate([top @ x, bottom @ x]), PT @ x)

    def test_only_large_chains_split(self, monkeypatch):
        started = _threads_started(monkeypatch)
        for L in (14, 16):
            gen = build_generator(L, 0.5)
            yaglom_exact(gen, 1, 1.0)
            assert len(started) == (gen.Q.nnz >= cpqsd.spectral._SPLIT_NNZ)
            started.clear()

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("L, t", [(8, 0.3), (8, 8.0), (12, 8.0),
                                      (14, 8.0)])
    def test_products_stop_at_the_last_needed_term(self, L, t, split,
                                                   monkeypatch):
        # a block stops at the term where the series closes, not at the
        # end of its _BLOCK powers
        gen = build_generator(L, 0.5)
        v = np.eye(1, gen.nstates)[0]
        products = []
        power, split_rows = cpqsd.spectral._power, cpqsd.spectral._split_rows

        def counted_power(*args):
            products.append(1)
            return power(*args)

        @contextlib.contextmanager
        def counted_split(PT):
            with split_rows(PT) as product:
                def counted(*args):
                    products.append(1)
                    return product(*args)
                yield counted

        monkeypatch.setattr(cpqsd.spectral, "_power", counted_power)
        monkeypatch.setattr(cpqsd.spectral, "_split_rows", counted_split)
        _force_split(monkeypatch, split)
        cpqsd.spectral._series(gen, v, [t], law=True)
        closing = _series_by_term(gen, v, t)[2]
        assert len(products) == closing
        assert closing % cpqsd.spectral._BLOCK

    def test_rows_equal_when_every_block_is_cut_short(self, monkeypatch):
        # a bound that holds too few terms leaves the time open, and the
        # pass goes on from the last power: the row is the same to the bit
        gen = build_generator(10, 0.5, POLICY_KILL)
        v = np.eye(1, gen.nstates)[0]
        want = cpqsd.spectral._series(gen, v, [1.0, 8.0], law=True)
        monkeypatch.setattr(cpqsd.spectral._Poisson, "needed",
                            lambda self, k0, n, a0: 1 + k0 % 3)
        for split in (False, True):
            _force_split(monkeypatch, split)
            mass, row = cpqsd.spectral._series(gen, v, [1.0, 8.0], law=True)
            assert mass == want[0]
            assert np.array_equal(row, want[1])

    def test_worker_error_raised_by_the_caller(self, monkeypatch):
        # the bottom rows fail on the worker while the top rows run on
        caller = threading.get_ident()
        halves = cpqsd.spectral._halves

        class WorkerFails(type(build_generator(2, 0.5).Q)):
            def __matmul__(self, x):
                if threading.get_ident() != caller:
                    raise ResolutionError("bottom rows failed")
                return super().__matmul__(x)

        def failing(PT):
            top, bottom = halves(PT)
            return top, WorkerFails(bottom)

        monkeypatch.setattr(cpqsd.spectral, "_halves", failing)
        _force_split(monkeypatch, True)
        gen = build_generator(12, 0.5)
        threads = threading.active_count()
        with pytest.raises(ResolutionError, match="bottom rows failed"):
            yaglom_exact(gen, 1, 8.0)
        assert threading.active_count() == threads

    def test_worker_joined_when_the_series_does_not_close(self, monkeypatch):
        gen = build_generator(12, 0.5)
        _force_split(monkeypatch, True)
        monkeypatch.setattr(cpqsd.spectral, "_RTOL", -1.0)
        threads = threading.active_count()
        with pytest.raises(ResolutionError, match="did not close"):
            yaglom_exact(gen, 1, 8.0)
        assert threading.active_count() == threads

    def test_no_thread_without_a_positive_time(self, monkeypatch):
        gen = build_generator(8, 0.5)
        _force_split(monkeypatch, True)
        started = _threads_started(monkeypatch)
        assert np.array_equal(yaglom_exact(gen, 1, 0.0),
                              np.eye(1, gen.nstates)[0])
        assert started == []
        yaglom_exact(gen, 1, 1.0)
        assert started == [1]

    def test_concurrent_callers_match_a_serial_call(self, monkeypatch):
        gen = build_generator(12, 0.5)
        serial = yaglom_exact(gen, 1, 8.0)
        _force_split(monkeypatch, True)
        results = [None, None]

        def law(i):
            results[i] = yaglom_exact(gen, 1, 8.0)

        threads = [threading.Thread(target=law, args=(i,)) for i in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for res in results:
            assert np.array_equal(res, serial)

    def test_forked_child_runs_the_pass(self, monkeypatch):
        # the child inherits the forced split
        law = yaglom_exact(build_generator(8, 0.5), 1, 8.0)
        _force_split(monkeypatch, True)
        assert _run_forked(_law_in_child, law) == 0


def _series_by_term(gen, v, t):
    """(mass, row, k) of v e^{Qt} by the uniformized series one term at a
    time: u_k = v P^k, the weight w_k, and the closing check after each;
    k is the closing term, so the series makes k products."""
    sigma = float((-gen.Q.diagonal()).max())
    PT = gen.Q.T.tocsr()
    PT.data /= sigma
    PT.setdiag(PT.diagonal() + 1.0)
    m = np.array([sigma * t])
    mass = 0.0
    row = np.zeros(gen.nstates)
    u = v
    k = 0
    while True:
        if k:
            u = PT @ u
        a = float(u.sum())
        w = np.exp(-m + k * np.log(m) - math.lgamma(k + 1))
        mass += w[0] * a
        row += w[0] * u
        if k and not _tail_bound(w, m, k)[0] * a > cpqsd.spectral._RTOL * mass:
            return mass, row, k
        k += 1


class TestSemigroup:

    def test_one_state_survival_is_exponential(self):
        gen = build_generator(1, 0.5)
        times = [0.0, 0.5, 1.7, 3.0]
        got = survival_curve(gen, 1, times)
        for t, p in zip(times, got):
            assert p == pytest.approx(math.exp(-t), rel=1e-11)

    def test_survival_at_zero_is_one(self):
        gen = build_generator(6, 0.5)
        assert survival_curve(gen, 5, [0.0]) == [1.0]

    def test_nu_start_decays_at_rate_alpha(self):
        # at (12, 0.05) the solver's nu has 259 rounding entries below 0,
        # down to -2.7e-17, which must be clipped
        for L, lam in ((8, 0.5), (12, 0.05)):
            res = spectral(L, lam)
            assert np.all(res.nu >= 0)
            gen = build_generator(L, lam)
            got = survival_curve(gen, res.nu, [1.0, 5.0, 10.0])
            for t, p in zip([1.0, 5.0, 10.0], got):
                assert abs(p - math.exp(-res.alpha * t)) < 1e-8

    def test_survival_monotone_in_time_and_state(self):
        gen = build_generator(8, 0.5)
        p1 = survival_curve(gen, 1, [1.0, 2.0, 4.0])
        assert p1[0] > p1[1] > p1[2] > 0
        p3 = survival_curve(gen, 3, [1.0, 2.0, 4.0])
        assert all(b > a for a, b in zip(p1, p3))

    def test_scaled_survival_converges_to_h(self):
        res = spectral(10)
        gen = build_generator(10, 0.5)
        t = 30.0 / res.alpha
        for key in (1, 3, 341):
            (p,) = survival_curve(gen, key, [t])
            assert math.exp(res.alpha * t) * p == pytest.approx(
                res.h[key_to_index(key)], rel=0.01)

    def test_one_pass_matches_single_time_calls(self):
        gen = build_generator(8, 0.5, POLICY_KILL)
        times = [4.0, 0.0, 1.0, 4.0, 2.5]
        got = survival_curve(gen, 1, times)
        assert got == [survival_curve(gen, 1, [t])[0] for t in times]
        assert got[1] == 1.0
        assert got[0] == got[3]

    @pytest.mark.parametrize("policy", [POLICY_CLIP, POLICY_KILL])
    @pytest.mark.parametrize("L", [8, 12])
    def test_law_pass_matches_the_loop_by_term(self, L, policy, monkeypatch):
        # the blocked law pass adds the same terms in the same order as
        # one power and one closing check per term, so its mass and row
        # are the same to the bit, its products split by rows or not; the
        # paired survival masses are not
        gen = build_generator(L, 0.5, policy)
        v = np.eye(1, gen.nstates)[0]
        for split, t in itertools.product((False, True), (0.3, 8.0)):
            _force_split(monkeypatch, split)
            mass, row, _ = _series_by_term(gen, v, t)
            got_mass, got_row = cpqsd.spectral._series(gen, v, [t], law=True)
            assert got_mass == {t: mass}
            assert np.array_equal(got_row, row)
            assert np.array_equal(yaglom_exact(gen, 1, t), row / row.sum())
            (p,) = survival_curve(gen, 1, [t])
            assert abs(p - mass) <= cpqsd.spectral._RTOL * mass

    def test_mixture_survival_at_zero_is_one(self):
        gen = build_generator(6, 0.5)
        start = np.arange(1.0, gen.nstates + 1.0)
        assert survival_curve(gen, start, [0.0, 1.0])[0] == 1.0

    def test_yaglom_at_zero_is_point_mass(self):
        gen = build_generator(6, 0.5)
        row = yaglom_exact(gen, 9, 0.0)
        want = np.zeros(gen.nstates)
        want[key_to_index(9)] = 1.0
        assert np.array_equal(row, want)

    def test_yaglom_converges_to_nu(self):
        res = spectral(8)
        gen = build_generator(8, 0.5)
        row = yaglom_exact(gen, 1, 50.0 / res.alpha)
        assert 0.5 * np.abs(row - res.nu).sum() <= 1e-6

    def test_nu_is_quasi_stationary(self):
        res = spectral(8)
        gen = build_generator(8, 0.5)
        row = yaglom_exact(gen, res.nu, 3.0)
        assert 0.5 * np.abs(row - res.nu).sum() <= 1e-9

    def test_distribution_wrappers(self):
        res = spectral(6)
        gen = build_generator(6, 0.5)
        row = yaglom_exact(gen, 1, 40.0 / res.alpha)
        assert tv_distance(vector_distribution(gen, row),
                           vector_distribution(gen, res.nu)) <= 1e-6

    def test_time_validation(self):
        gen = build_generator(4, 0.5)
        with pytest.raises(ParameterError):
            survival_curve(gen, 1, [-1.0])
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                survival_curve(gen, 1, [1.0, 2.0, bad])
        for bad in (-0.5, math.nan, math.inf):
            with pytest.raises(ParameterError):
                yaglom_exact(gen, 1, bad)
        with pytest.raises(ParameterError):
            survival_curve(gen, np.ones(3), [1.0])
        with pytest.raises(ParameterError):
            survival_curve(gen, -np.ones(gen.nstates), [1.0])
        # a NaN entry gave a NaN survival and an infinite one a NaN law
        for bad in (math.nan, math.inf):
            v = np.ones(gen.nstates)
            v[1] = bad
            with pytest.raises(ParameterError):
                survival_curve(gen, v, [1.0])
            with pytest.raises(ParameterError):
                yaglom_exact(gen, v, 1.0)

    @pytest.mark.parametrize("start", [3.9, 17, math.inf],
                             ids=["fraction", "beyond-depth", "inf"])
    def test_scalar_start_must_be_a_key(self, start):
        # at depth 4 the keys are the odd numbers 1..15; 3.9 used to give
        # key 3's survival, 17 an IndexError and inf an OverflowError
        gen = build_generator(4, 0.5)
        with pytest.raises(ParameterError):
            survival_curve(gen, start, [1.0])
        with pytest.raises(ParameterError):
            yaglom_exact(gen, start, 1.0)

    @pytest.mark.parametrize("m", [0.5, 16.5, 264.0])
    def test_tail_bound_covers_the_exact_poisson_tail(self, m):
        # the exact tail P(Poisson(m) > k) is the math.fsum of the weights
        # past k; the weights carry a relative rounding error near 1e-13
        # at m = 264, which the 1e-12 allows for where the bound is 1
        w = [math.exp(-m + j * math.log(m) - math.lgamma(j + 1))
             for j in range(int(m + 60.0 * math.sqrt(m + 1) + 1000))]
        bounds, exacts = [], []
        while not exacts or exacts[-1] >= 1e-20:
            k = len(bounds)
            bounds.append(float(_tail_bound(np.array([w[k]]), np.array([m]),
                                            k)[0]))
            exacts.append(math.fsum(w[k + 1:]))
        for k, (bound, exact) in enumerate(zip(bounds, exacts)):
            assert bound >= exact * (1 - 1e-12), k
        # and a series closes at most one term later than the exact tail
        # would let it
        for eps in (1e-6, 1e-12, 1e-16):
            first = next(k for k, bound in enumerate(bounds) if bound < eps)
            assert first <= 1 + next(k for k, exact in enumerate(exacts)
                                     if exact < eps)

    def test_import_leaves_scipy_special_out(self):
        # scipy.special costs several MB of resident memory, and the
        # Poisson weights need only math.lgamma
        run_fresh(
            "import sys\n"
            "import cpqsd, cpqsd.edge, cpqsd.graphical, cpqsd.yaglom\n"
            "from cpqsd import spectral as S\n"
            "gen = S.build_generator(6, 0.5)\n"
            "S.survival_curve(gen, 1, [1.0, 2.0])\n"
            "S.yaglom_exact(gen, 1, 1.0)\n"
            "assert 'scipy.special' not in sys.modules\n")


class TestSemigroupAgainstExpm:
    """survival_curve and yaglom_exact against rows of the dense matrix
    exponential scipy.linalg.expm(Q t), which shares no code with the
    uniformized series."""

    # unsorted, with a repeat and t = 0 twice
    TIMES = [2.5, 0.0, 0.3, 2.5, 6.0, 1.0, 0.0]

    @pytest.mark.parametrize("lam", [0.5, 1.3])
    @pytest.mark.parametrize("policy", [POLICY_CLIP, POLICY_KILL])
    @pytest.mark.parametrize("L", [4, 6, 8])
    def test_matches_dense_expm(self, L, policy, lam):
        gen = build_generator(L, lam, policy)
        n = gen.nstates
        Q = gen.Q.toarray()
        expm = {t: scipy.linalg.expm(Q * t) for t in set(self.TIMES)}
        mixture = np.linspace(1.0, 2.0, n)
        starts = [(1, np.eye(n)[0]), (index_to_key(n - 1), np.eye(n)[n - 1]),
                  (mixture, mixture / mixture.sum())]
        for start, v in starts:
            got = survival_curve(gen, start, self.TIMES)
            for t, p in zip(self.TIMES, got):
                row = v @ expm[t]
                want = float(row.sum())
                assert abs(p - want) <= 1e-11 * want, (start, t)
                # the truncated series lies below the exact value; 1e-14
                # allows for expm's own rounding
                assert p <= want * (1 + 1e-14), (start, t)
                law = yaglom_exact(gen, start, t)
                assert np.abs(law - row / want).sum() <= 1e-11, (start, t)

    @pytest.mark.parametrize("policy", [POLICY_CLIP, POLICY_KILL])
    @pytest.mark.parametrize("L", [8, 10])
    def test_benchmark_curve_matches_dense_expm(self, L, policy):
        # the benchmark's sixteen times close in different blocks of the
        # paired pass
        gen = build_generator(L, 0.5, policy)
        Q = gen.Q.toarray()
        got = survival_curve(gen, 1, _TIMES16)
        for t, p in zip(_TIMES16, got):
            want = float(scipy.linalg.expm(Q * t)[0].sum())
            assert abs(p - want) <= 1e-11 * want, t
            assert p <= want * (1 + 1e-14), t


class TestTruncationOrder:
    """Under the graphical coupling a truncated chain only loses infected
    sites, so it dies no later than the untruncated edge process, and kill
    (which absorbs where clip drops one site) no later than clip.  Both
    survivals lie below the untruncated one; neither brackets it.  That
    clip survival rises with L is measured, not proved."""

    RTOL = cpqsd.spectral._RTOL

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5])
    def test_clip_rises_in_L_and_stays_above_kill(self, lam):
        times = [1.0, 4.0, 12.0]
        prev = None
        for L in range(4, 13):
            clip = survival_curve(build_generator(L, lam, POLICY_CLIP), 1,
                                  times)
            kill = survival_curve(build_generator(L, lam, POLICY_KILL), 1,
                                  times)
            # each value lies within relative rtol below the exact one, so
            # an ordering of exact values can invert by rtol on each side;
            # the worst drop seen in L was 1.6e-14
            for t, c, k in zip(times, clip, kill):
                assert k <= c * (1 + self.RTOL), (L, t, k, c)
                if prev is not None:
                    assert c >= prev[t] * (1 - 2 * self.RTOL), (L, t)
            prev = dict(zip(times, clip))
        alphas = [spectral(L, lam).alpha for L in range(4, 13)]
        assert all(a > b for a, b in zip(alphas, alphas[1:])), alphas
