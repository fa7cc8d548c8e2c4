"""Tests for the truncated-generator spectral machinery.

The generator is checked rate-for-rate against a brute-force enumerator
written directly over sets of offsets, with none of the bit arithmetic the
implementation uses.  At lambda = 0.5 every rate is a small multiple of
0.5, so sums of at most two coinciding events are exact in binary64 and
the comparison is literal equality.
"""

import itertools
import math
import os
import subprocess
import sys

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
    targets = {}
    for tkey, rate in gen.row_of(key):
        targets[frozenset(decode_key(tkey, gen.L))] = rate
    return targets, gen.absorption_rate_of(key)


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
        assert clip.row_of(1) == []
        assert clip.absorption_rate_of(1) == 1.0
        kill = build_generator(1, 0.5, POLICY_KILL)
        assert kill.absorption_rate_of(1) == 2.0

    def test_exit_rates(self):
        gen = build_generator(5, 0.5)
        exits = gen.exit_rates()
        assert np.all(exits > 0)
        assert exits[key_to_index(1)] == 1.0 + 2 * 0.5

    def test_row_of_returns_python_numbers(self):
        row = build_generator(6, 0.5, POLICY_KILL).row_of(5)
        assert row
        for key, rate in row:
            assert type(key) is int and type(rate) is float

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
        monkeypatch.setattr(cpqsd.spectral, "_MAX_ITERS", 10)
        for L in (8, 13):
            with pytest.raises(ResolutionError, match="did not converge"):
                dominant_eigenpair(build_generator(L, 0.5))

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
        res = spectral(8)
        gen = build_generator(8, 0.5)
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
