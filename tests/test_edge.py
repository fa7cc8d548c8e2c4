"""Tests for the edge-process view: recentering, canonical keys, empirical
distributions, and trajectory simulation against the spectral oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpqsd.edge import (
    EdgeConfiguration,
    EmpiricalDistribution,
    Finite,
    FreePopulation,
    FullInterval,
    _words,
    clip_key,
    cylinder_restrict,
    decode_key,
    default_beta,
    edge_evolve,
    encode_key,
    recenter,
    sample_edge_distribution,
    simulate_edge_trajectory,
    tv_distance,
)
from cpqsd.errors import ParameterError, ResolutionError
from cpqsd.graphical import SiteWindow, evolve, sample_event_log
from cpqsd.spectral import POLICY_KILL, build_generator, survival_curve


class TestRecenterAndKeys:

    def test_recenter_examples(self):
        cfg, shift = recenter({3, 5, 9})
        assert cfg == EdgeConfiguration({-6, -4, 0}) and shift == 9
        assert recenter(set()) == (EdgeConfiguration(), 0)
        assert recenter({-7}) == (EdgeConfiguration({0}), -7)

    def test_recenter_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            sites = set(rng.integers(-30, 30, size=rng.integers(1, 9)))
            cfg, _ = recenter(sites)
            again, shift = recenter(cfg)
            assert again == cfg and shift == 0

    @settings(derandomize=True, deadline=None)
    @given(sites=st.sets(st.integers(-50, 50), max_size=10),
           c=st.integers(-2**40, 2**40))
    def test_recenter_is_shift_invariant(self, sites, c):
        # shifting every site moves the edge, never the configuration
        cfg, shift = recenter(sites)
        assert recenter({x + c for x in sites}) == (
            cfg, shift + c if sites else 0)

    def test_configuration_validation(self):
        assert EdgeConfiguration() == frozenset()
        assert 0 in EdgeConfiguration({-2, 0})
        with pytest.raises(ParameterError):
            EdgeConfiguration({-1})
        with pytest.raises(ParameterError):
            EdgeConfiguration({0, 1})

    def test_encode_decode_bijection(self):
        for key in [0] + list(range(1, 16, 2)):
            assert encode_key(decode_key(key, 4), 4) == key
        assert encode_key(EdgeConfiguration(), 8) == 0
        assert encode_key(EdgeConfiguration({0, -3}), 4) == 9

    def test_encode_validation(self):
        with pytest.raises(ParameterError):
            encode_key({-4, 0}, 4)
        with pytest.raises(ParameterError):
            encode_key({-2}, 4)
        with pytest.raises(ParameterError):
            encode_key({1, 0}, 4)

    def test_decode_validation(self):
        with pytest.raises(ParameterError):
            decode_key(6, 4)
        with pytest.raises(ParameterError):
            decode_key(16, 4)
        with pytest.raises(ParameterError):
            decode_key(-1, 4)

    def test_clip_key(self):
        key, clipped = clip_key({0, -2, -9, -11}, 8)
        assert key == encode_key({0, -2}, 8) and clipped == 2
        assert clip_key({0, -7}, 8) == (encode_key({0, -7}, 8), 0)
        assert clip_key({0, -8}, 8) == (1, 1)

    def test_beta_defaults(self):
        assert default_beta(0.5) == 18.0
        assert FullInterval(0).M == 0
        with pytest.raises(ParameterError):
            FullInterval(-1)
        for bad in [math.nan, 2.5, 3.0]:
            with pytest.raises(ParameterError):
                FullInterval(bad)
        assert type(FullInterval(np.int32(4)).M) is int


class TestEmpiricalDistribution:

    def test_add_total_normalize(self):
        d = EmpiricalDistribution(6)
        d.add(1)
        d.add(3, 2.0)
        d.add(1)
        assert d.total == 4.0
        assert d.normalized() == {1: 0.5, 3: 0.5}

    def test_normalize_empty(self):
        with pytest.raises(ResolutionError):
            EmpiricalDistribution(6).normalized()

    def test_tv_examples(self):
        p = EmpiricalDistribution(6, {1: 3.0, 5: 3.0})
        assert tv_distance(p, p) == 0.0
        q = EmpiricalDistribution(6, {9: 2.0})
        assert tv_distance(p, q) == 1.0
        point = EmpiricalDistribution(6, {1: 7.0})
        assert tv_distance(p, point) == 0.5
        with pytest.raises(ParameterError):
            tv_distance(p, EmpiricalDistribution(8, {1: 1.0}))

    def test_cylinder_restrict(self):
        d = EmpiricalDistribution(6, {encode_key({0, -3}, 6): 2.0,
                                      encode_key({0, -1, -4}, 6): 1.0})
        r = cylinder_restrict(d, 2)
        assert r.depth == 2
        assert r.weights == {1: 2.0, 3: 1.0}
        assert r.total == d.total
        same = cylinder_restrict(d, 6)
        assert same.weights == d.weights
        with pytest.raises(ParameterError):
            cylinder_restrict(d, 7)


class TestSimulateTrajectory:

    def test_time_zero(self):
        traj = simulate_edge_trajectory(Finite({0}), 0.5, 0.0, 8, seed=1)
        assert traj.final == EdgeConfiguration({0})
        assert traj.survived and not traj.censored and traj.clipped == 0

    def test_empty_initial(self):
        traj = simulate_edge_trajectory(Finite(()), 0.5, 3.0, 8, seed=1)
        assert traj.final == EdgeConfiguration()
        assert not traj.survived and not traj.censored

    def test_time_zero_full_interval_clips(self):
        traj = simulate_edge_trajectory(FullInterval(10), 0.5, 0.0, 8, seed=1)
        assert traj.final == EdgeConfiguration(range(-7, 1))
        assert traj.survived and traj.clipped == 3

    def test_deterministic_streams(self):
        a = simulate_edge_trajectory(Finite({0}), 0.5, 3.0, 8, seed=7, stream=2)
        b = simulate_edge_trajectory(Finite({0}), 0.5, 3.0, 8, seed=7, stream=2)
        assert a == b
        others = [simulate_edge_trajectory(Finite({0}), 0.5, 3.0, 8,
                                           seed=7, stream=s)
                  for s in range(3, 23)]
        assert any(o.final != a.final or o.survived != a.survived
                   for o in others)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            simulate_edge_trajectory(Finite({0}), 0.0, 1.0, 8, seed=1)
        with pytest.raises(ParameterError):
            # an infinite rate used to run forever
            simulate_edge_trajectory(Finite({0}), math.inf, 1.0, 8, seed=1)
        with pytest.raises(ParameterError):
            simulate_edge_trajectory(Finite({0}), 0.5, -1.0, 8, seed=1)
        with pytest.raises(ParameterError):
            simulate_edge_trajectory(Finite({0}), 0.5, 1.0, 0, seed=1)
        # start sites are integers: {0.5, 2.7} used to run from {0, 2}
        for bad in [{0.5, 2.7}, {math.nan}, {0, "1"}]:
            with pytest.raises(ParameterError):
                Finite(bad)
            with pytest.raises(ParameterError):
                simulate_edge_trajectory(bad, 0.5, 1.0, 8, seed=1)
        with pytest.raises(ParameterError):
            sample_edge_distribution(Finite({0.5, 2.7}), 0.5, 0.0, 6, 0, 3)
        assert Finite({np.int64(-3), 0}).sites == {-3, 0}
        # seeds are unsigned 64-bit words and depths integers: seed -1 used
        # to raise numpy's ValueError, 1.5 and depth 2.5 a TypeError, and
        # 2**64 to run
        for seed, depth in [(-1, 8), (1.5, 8), (2**64, 8), (1, 2.5)]:
            with pytest.raises(ParameterError):
                simulate_edge_trajectory(Finite({0}), 0.5, 1.0, depth,
                                         seed=seed)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_times_are_rejected(self, t):
        # a NaN time used to pass the t < 0 check and return an extinct
        # trajectory
        with pytest.raises(ParameterError):
            simulate_edge_trajectory(Finite({0}), 0.5, t, 8, seed=1)

    def test_survival_matches_spectral(self):
        # free-process survival from {0} at t = 2 against the exact
        # truncated chain; depth-12 truncation bias is far below noise
        gen = build_generator(12, 0.5)
        (p,) = survival_curve(gen, 1, [2.0])
        n = 30_000
        dist = sample_edge_distribution(Finite({0}), 0.5, 2.0, 12,
                                        seed=2024, replicas=n)
        phat = 1.0 - dist.weights.get(0, 0.0) / n
        assert abs(phat - p) <= 3.0 * math.sqrt(p * (1 - p) / n)
        assert dist.meta["censored"] == 0

    def test_full_interval_survival_approaches_one(self):
        # extinction by t = 1 decays exponentially in the interval depth
        n = 1_500
        freqs = []
        for M in (2, 6, 12, 20):
            dist = sample_edge_distribution(FullInterval(M), 0.5, 1.0, 8,
                                            seed=99, replicas=n)
            freqs.append(1.0 - dist.weights.get(0, 0.0) / n)
        noise = 2.0 / math.sqrt(n)
        assert all(b >= a - noise for a, b in zip(freqs, freqs[1:]))
        logs = [math.log(1.0 - f + 0.5 / n) for f in freqs]
        slope = np.polyfit([2, 6, 12, 20], logs, 1)[0]
        assert slope <= -0.1
        assert freqs[-1] >= 0.98


class TestIndependentReference:

    def test_matches_graphical_construction(self):
        # two-sample check of the direct event simulation against evolve on
        # fresh graphical logs, which share no code with the event walk
        n_sim, n_ref = 20_000, 20_000
        sim = EmpiricalDistribution(6)
        for r in range(n_sim):
            traj = simulate_edge_trajectory(FullInterval(3), 0.5, 0.5, 6,
                                            seed=17, stream=r)
            sim.add(encode_key(traj.final, 6))
        ref = EmpiricalDistribution(6)
        window = SiteWindow(-11, 8, 0.5)
        for r in range(n_ref):
            log = sample_event_log(window, 0.5, seed=18, stream=r)
            out = evolve(range(-3, 1), log, 0.0, 0.5)
            assert not out.censored  # the window is wide enough
            ref.add(clip_key(recenter(out)[0], 6)[0])
        # under equal laws, E TV <= (1/2) sum sqrt(p(1-p) (1/n1 + 1/n2)),
        # and TV exceeds its mean by sqrt(ln(1e4) (1/n1 + 1/n2) / 2) with
        # probability below 1e-4 (McDiarmid)
        inv = 1.0 / n_sim + 1.0 / n_ref
        pooled = EmpiricalDistribution(6, sim.weights)
        for key, weight in ref.weights.items():
            pooled.add(key, weight)
        pooled = pooled.normalized()
        bound = (0.5 * sum(math.sqrt(q * (1.0 - q) * inv)
                           for q in pooled.values())
                 + math.sqrt(math.log(1e4) * inv / 2.0))
        assert tv_distance(sim, ref) < bound


def free_hits(start, target, t, n, seed):
    """Per replica of a FreePopulation of n from `start` run to t at lambda
    0.5, whether its infected set at t meets `target`, read from the
    population's absolute occupancy (occ, lo)."""
    pop = FreePopulation(sorted(start), 0.5, n, _words(seed, n))
    pop.advance_to(t)
    width = pop.occ.shape[1]
    cols = [x - pop.lo for x in target if 0 <= x - pop.lo < width]
    return pop.occ[:, cols].any(axis=1)


class TestSelfDuality:
    # P(eta_t^A meets B) = P(eta_t^B meets A) for finite A, B: the two sides
    # run the same walk from different starts, so a bias in window growth,
    # capacity doubling or thinning shows as a mismatch.  The event is read
    # from the sites, not from the rightmost one: r_t > -k is a different
    # event from eta_t meeting (-k, 0], since r_t can lie right of 0.
    @pytest.mark.parametrize("row, a, b, t", [
        (0, range(-102, 1), range(-3, 1), 4.0),
        (1, {0, 5}, {-3, 2, 4}, 1.5),
        (2, {0}, range(-2, 3), 1.0),
        (3, range(-8, 1), {2}, 2.0),
    ])
    def test_forward_and_dual_hit_alike(self, row, a, b, t):
        n = 20_000
        p = free_hits(a, b, t, n, (19, row, 0)).mean()
        q = free_hits(b, a, t, n, (19, row, 1)).mean()
        sigma = math.sqrt((p * (1 - p) + q * (1 - q)) / n)
        assert 0.01 < q < 0.99  # the bound below has power
        assert abs(p - q) <= 4.0 * sigma


class TestFullIntervalStandIn:
    def test_bulk_density_is_the_survival_from_one_site(self):
        # by self-duality the density at a bulk site x of [-400, 0] at t is
        # P(eta_t^{x} meets [-400, 0]); x is 40 or more sites from either
        # end, and an arrow path from x crosses 40 sites by t = 4 with
        # chance below sum_{n >= 40} (2 lam t)^n / n! ~ 2e-24, so this is
        # P(tau^{0} > t), which the depth-16 chain gives exactly
        n, t = 4000, 4.0
        pop = FreePopulation(range(-400, 1), 0.5, n, _words((1408, 4), n))
        pop.advance_to(t)
        per_replica = pop.occ[:, np.arange(-360, -40) - pop.lo].mean(axis=1)
        density = per_replica.mean()
        err = per_replica.std(ddof=1) / math.sqrt(n)
        (clip,) = survival_curve(build_generator(16, 0.5), 1, [t])
        (kill,) = survival_curve(build_generator(16, 0.5, POLICY_KILL), 1,
                                 [t])
        # the truncation's own spread is nothing beside the error bar
        assert abs(clip - kill) < 0.01 * err
        assert abs(density - clip) <= 4.0 * err


class TestFlowConsistency:

    def test_two_legs_equal_one(self):
        window = SiteWindow(-14, 6, 3.0)
        for seed in range(40):
            log = sample_event_log(window, 0.7, seed=seed)
            zeta = EdgeConfiguration({-2, 0})
            one = edge_evolve(zeta, -1, log, 0.0, 2.9)
            mid = edge_evolve(zeta, -1, log, 0.0, 1.3)
            two = edge_evolve(mid[0], mid[1], log, 1.3, 2.9)
            assert two[0] == one[0]
            # an extinct process has no edge position
            if one[0]:
                assert two[1] == one[1]

    @settings(derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           zeta=st.sets(st.integers(-4, -1), max_size=3),
           offset=st.integers(-8, 4), s=st.floats(0.0, 3.0))
    def test_two_steps_equal_one(self, seed, zeta, offset, s):
        # edge_evolve composes: stepping to s and on to t, from the edge
        # and offset of the first step, ends where one step to t ends
        log = sample_event_log(SiteWindow(-14, 6, 3.0), 0.7, seed)
        zeta = EdgeConfiguration(zeta | {0})
        one = edge_evolve(zeta, offset, log, 0.0, 3.0)
        mid = edge_evolve(zeta, offset, log, 0.0, s)
        two = edge_evolve(mid[0], mid[1], log, s, 3.0)
        assert two[0] == one[0]
        # an extinct process has no edge position
        if one[0]:
            assert two[1] == one[1]
        assert one[2] == (mid[2] or two[2])

    def test_shift_is_absolute_position(self):
        window = SiteWindow(-10, 10, 2.0)
        log = sample_event_log(window, 0.5, seed=3)
        zeta, offset, _ = edge_evolve(EdgeConfiguration({0}), 4, log, 0.0, 2.0)
        if zeta:
            assert -10 <= offset <= 10


class TestSampleDistribution:

    def test_time_zero_point_mass(self):
        dist = sample_edge_distribution(Finite({-5, -3}), 0.5, 0.0, 8,
                                        seed=1, replicas=10)
        assert dist.weights == {encode_key({-2, 0}, 8): 10.0}
        assert dist.replica_count == 10

    def test_meta_fields(self):
        dist = sample_edge_distribution(FullInterval(4), 0.5, 0.5, 6,
                                        seed=5, replicas=20)
        assert dist.meta["M"] == 4
        assert dist.meta["lambda"] == 0.5 and dist.meta["t"] == 0.5
        assert dist.meta["seed"] == 5
        assert dist.meta["censored"] == 0
        assert dist.total == 20.0

    # bad lambda, time or depth must raise even with no replica to notice
    @pytest.mark.parametrize("args", [
        (0.5, 1.0, 8, 0, 1), (0.5, 1.0, 8, -3, 1), (0.0, 1.0, 8, 0, 1),
        (0.5, math.nan, 8, 0, 1), (0.5, -1.0, 8, 0, 1), (0.5, 1.0, 0, 0, 1),
        (0.5, math.nan, 8, 5, 1), (math.inf, 1.0, 8, 5, 1),
        (0.5, 1.0, 8, 2.5, 1), (0.5, 1.0, 8, 5, -1), (0.5, 1.0, 8, 5, 1.5),
        (0.5, 1.0, 8, 5, 2**64),
    ], ids=["no-replicas", "negative-replicas", "zero-lambda", "nan-time",
            "negative-time", "zero-depth", "nan-time-5-replicas",
            "inf-lambda-5-replicas", "fractional-replicas", "negative-seed",
            "fractional-seed", "seed-2**64"])
    def test_parameter_validation(self, args):
        lam, t, depth, replicas, seed = args
        with pytest.raises(ParameterError):
            sample_edge_distribution(Finite({0}), lam, t, depth, seed=seed,
                                     replicas=replicas)

    def test_extinct_count_is_the_weight_of_the_empty_set(self):
        dist = sample_edge_distribution(FullInterval(2), 0.5, 3.0, 6,
                                        seed=3, replicas=200)
        assert 0 < dist.meta["extinct"] < 200
        assert dist.meta["extinct"] == dist.weights[0]

    def test_reproducible(self):
        a = sample_edge_distribution(Finite({0}), 0.5, 1.5, 8, seed=11,
                                     replicas=200)
        b = sample_edge_distribution(Finite({0}), 0.5, 1.5, 8, seed=11,
                                     replicas=200)
        assert a.weights == b.weights

    def test_surviving_replicas_match_conditioned_law(self):
        # surviving replicas at t = 4, restricted to depth 6, sit near the
        # exact conditioned law at the same t (same-time comparison, so the
        # gap is sampling noise plus a small truncation bias)
        from cpqsd.spectral import vector_distribution, yaglom_exact
        gen = build_generator(10, 0.5)
        dist = sample_edge_distribution(Finite({0}), 0.5, 4.0, 10,
                                        seed=31, replicas=20_000)
        alive = EmpiricalDistribution(10, {k: w for k, w in dist.weights.items()
                                           if k != 0})
        exact = vector_distribution(gen, yaglom_exact(gen, 1, 4.0))
        assert tv_distance(cylinder_restrict(alive, 6),
                           cylinder_restrict(exact, 6)) < 0.07
