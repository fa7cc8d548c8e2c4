"""Tests for yaglom: its module-level state, the free population's growth,
its start configurations, and its estimates checked against the exact
truncated chain."""

import math

import numpy as np
import pytest

from cpqsd import yaglom
from cpqsd.edge import (EdgeConfiguration, EmpiricalDistribution, Finite,
                        FreePopulation, FullInterval, clip_key,
                        cylinder_restrict, decode_key, encode_key, recenter,
                        sample_edge_distribution, simulate_edge_trajectory,
                        tv_distance)
from cpqsd.errors import (ParameterError, check_integer, check_positive,
                          check_time)
from cpqsd.graphical import (EventLog, SiteWindow, evolve, max_jump_count,
                             reach_backward, sample_event_log)
from cpqsd.spectral import (POLICY_CLIP, POLICY_KILL, build_generator,
                            dominant_eigenpair, key_to_index, survival_curve,
                            vector_distribution, yaglom_exact)

# statistical checks allow K_SIGMA standard deviations
K_SIGMA = 4.0


def test_rough_alpha_cache_is_bounded(monkeypatch):
    class Solved:
        def __init__(self, gen):
            self.alpha = gen

    # stand-ins return lambda itself, so no chain is built or solved
    monkeypatch.setattr(yaglom, "build_generator", lambda L, lam: lam)
    monkeypatch.setattr(yaglom, "dominant_eigenpair", Solved)
    yaglom._rough_alpha.cache_clear()
    try:
        lams = [0.3 + 1e-3 * i for i in range(500)]
        assert [yaglom._rough_alpha(lam) for lam in lams] == lams
        info = yaglom._rough_alpha.cache_info()
        assert info.currsize <= info.maxsize <= 64
        assert yaglom._rough_alpha(lams[-1]) == lams[-1]
        assert yaglom._rough_alpha.cache_info().hits == info.hits + 1
    finally:
        yaglom._rough_alpha.cache_clear()


def test_rough_alpha_is_the_depth_8_decay_rate():
    from cpqsd.spectral import build_generator, dominant_eigenpair

    want = dominant_eigenpair(build_generator(8, 0.5)).alpha
    assert yaglom._rough_alpha(0.5) == want


def test_free_population_growth_resumes_exactly():
    # 20 replicas are handed to free_run at once, and their grown site
    # lists are written back into a window and a capacity that grow to
    # hold them: the population ends exactly as one that never grows
    n = 20
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
    assert tight.sites.shape[1] > 4 and tight.occ.shape[1] > 4
    assert roomy.sites.shape == (n, 1024) and roomy.occ.shape == (n, 4096)
    assert np.array_equal(tight.counts, roomy.counts)
    assert np.array_equal(tight.tnows, roomy.tnows)
    assert np.array_equal(tight.states, roomy.states)
    for pop in (tight, roomy):
        for i in range(n):
            marked = np.nonzero(pop.occ[i])[0] + pop.lo
            assert np.array_equal(np.sort(pop.sites[i, :pop.counts[i]]),
                                  marked)
    for i in range(n):
        c = roomy.counts[i]
        assert np.array_equal(tight.sites[i, :c], roomy.sites[i, :c])


# ===== start configurations =====

def test_duplicate_start_sites_are_one_particle():
    # a site listed twice is one infected site, not two particles on it
    split = yaglom.Splitting()
    dup = yaglom.yaglom_estimate([0, 0, 1], 0.5, 2.0, 400, split, 6, 7)
    ref = yaglom.yaglom_estimate({0, 1}, 0.5, 2.0, 400, split, 6, 7)
    assert dup[0].weights == ref[0].weights and dup[1] == ref[1]
    grid = (1.0, 2.0, 3.0)
    assert (yaglom.alpha_estimate([1, 0, 1], 0.5, grid, 300, 5)
            == yaglom.alpha_estimate({0, 1}, 0.5, grid, 300, 5))


def test_empty_start_is_rejected():
    with pytest.raises(ParameterError):
        yaglom.yaglom_estimate([], 0.5, 1.0, 10, yaglom.Splitting(), 4, 0)
    with pytest.raises(ParameterError):
        yaglom.alpha_estimate(set(), 0.5, (1.0, 2.0, 3.0), 10, 0)
    # so is a start with a fractional site: {0.9} used to run from {0}
    with pytest.raises(ParameterError):
        yaglom.yaglom_estimate({0.9}, 0.5, 1.0, 10, yaglom.Splitting(), 4, 0)
    with pytest.raises(ParameterError):
        yaglom.alpha_estimate({0, 0.5}, 0.5, (1.0, 2.0, 3.0), 10, 0)
    # and a fractional chain key: 3.9 used to run from key 3
    with pytest.raises(ParameterError):
        yaglom.yaglom_estimate(3.9, 0.5, 1.0, 10, yaglom.Splitting(), 4, 0,
                               gen=build_generator(4, 0.5))


def test_start_sites_just_inside_the_bound_are_taken():
    # |x| < 2**30 is the bound; a population built there is never advanced
    words = yaglom._words((0, 0), 2)
    for x in (2**30 - 1, -(2**30 - 1)):
        pop = FreePopulation([x], 0.5, 2, words)
        assert pop.sites[:, 0].tolist() == [x, x]
        assert pop.occ[0, x - pop.lo] == 1


def test_time_zero_counts_replicas_with_clipped_offsets():
    # `clipped` counts replicas, not offsets, at t = 0 as at t > 0
    start = FullInterval(20)
    for t in (0.0, 1e-9):
        _, diag = yaglom.yaglom_estimate(start, 0.5, t, 100,
                                         yaglom.Splitting(), 8, 0)
        assert diag["clipped"] == 100
    # at t = 0 no stage runs: every replica is its start, truncated to
    # depth, and the run has weight 1 and full effective size
    gen = build_generator(8, 0.5)
    for init, depth, g, key, clipped in ((start, 8, None, 255, 100),
                                         ({0, -2}, 8, None, 5, 0),
                                         (255, 4, gen, 15, 100),
                                         (5, 8, gen, 5, 0)):
        dist, diag = yaglom.yaglom_estimate(init, 0.5, 0.0, 100,
                                            yaglom.Splitting(), depth, 0,
                                            gen=g)
        assert dist.weights == {key: 100.0} and dist.replica_count == 100
        assert diag["weight"] == 1.0 and diag["ess"] == 100.0
        assert diag["stages"] == [] and diag["survivor_counts"] == []
        assert diag["clipped"] == clipped
        assert diag["strategy"] == "Splitting(checkpoint_dt=auto)"


def test_strategy_must_be_splitting():
    # splitting is the only estimator; a one-stage run is plain rejection
    for strategy in ("Rejection", object(), None):
        with pytest.raises(ParameterError):
            yaglom.yaglom_estimate({0}, 0.5, 1.0, 10, strategy, 4, 0)


def test_chain_lambda_must_be_the_generators():
    # a lambda other than the chain's used to run the chain and record the
    # other lambda in the law's meta
    gen = build_generator(8, 0.5)
    with pytest.raises(ParameterError):
        yaglom.yaglom_estimate(1, 0.9, 2.0, 200, yaglom.Splitting(), 8, 0,
                               gen=gen)
    with pytest.raises(ParameterError):
        yaglom.alpha_estimate(1, 0.9, (1.0, 2.0, 3.0), 200, 0, gen=gen)


def test_infinite_lambda_is_rejected():
    # an infinite rate used to run forever
    with pytest.raises(ParameterError):
        yaglom.yaglom_estimate({0}, math.inf, 1.0, 10, yaglom.Splitting(1.0),
                               4, 0)
    with pytest.raises(ParameterError):
        yaglom.alpha_estimate({0}, math.inf, (1.0, 2.0, 3.0), 10, 0)


# a string or a list failed the comparison with a TypeError, a bool ran
# as a spacing of 1 and an array raised numpy's ambiguous-truth ValueError
@pytest.mark.parametrize("dt", [
    0.0, -1.0, math.nan, "1", [1.0], True,
    pytest.param(np.True_, id="numpy-True"),
    pytest.param(np.array([1.0, 2.0]), id="array")])
def test_bad_checkpoint_spacing_is_rejected(dt):
    with pytest.raises(ParameterError):
        yaglom.yaglom_estimate({0}, 0.5, 1.0, 10, yaglom.Splitting(dt), 4, 0)


@pytest.mark.parametrize("wrap", [float, np.float64, np.array])
def test_numpy_scalars_and_0d_arrays_are_numbers(wrap):
    assert check_positive(wrap(0.5), "rate") == 0.5
    assert check_time(wrap(0.0)) == 0.0
    assert check_integer(np.int64(3), "count") == 3
    assert check_integer(np.array(3), "count") == 3
    law, _ = yaglom.yaglom_estimate({0}, wrap(0.5), wrap(1.0), 10,
                                    yaglom.Splitting(wrap(0.5)), 4, 0)
    want, _ = yaglom.yaglom_estimate({0}, 0.5, 1.0, 10,
                                     yaglom.Splitting(0.5), 4, 0)
    assert law.weights == want.weights


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_times_are_rejected(bad):
    gen = build_generator(4, 0.5)
    with pytest.raises(ParameterError):
        yaglom.yaglom_estimate({0}, 0.5, bad, 10, yaglom.Splitting(), 4, 0)
    with pytest.raises(ParameterError):
        yaglom.alpha_estimate({0}, 0.5, (1.0, 2.0, bad), 10, 0)
    with pytest.raises(ParameterError):
        yaglom.h_estimate([1], 0.4, 0.5, bad, 10, 4, 0, gen=gen)


# ===== survival weights against the exact chain =====

def _log_weight_sd(diag, n):
    """Delta-method standard deviation of log(weight) for n replicas: the
    sum over stages of (1 - f) / (f n), f the stage's surviving fraction."""
    return math.sqrt(sum((n - c) / (n * c) for c in diag["survivor_counts"]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chain_splitting_weight_matches_survival_curve(seed):
    gen = build_generator(8, 0.5)
    p = survival_curve(gen, 1, [6.0])[0]
    n = 1000
    _, diag = yaglom.yaglom_estimate(1, 0.5, 6.0, n, yaglom.Splitting(), 8,
                                     seed, gen=gen)
    assert len(diag["stages"]) > 1
    z = math.log(diag["weight"] / p) / _log_weight_sd(diag, n)
    assert abs(z) < K_SIGMA


def _tv_bound(p, ess):
    """TV distance an empirical law of `ess` effective draws from p stays
    under except with probability about 1e-4: the mean bound
    (1/2) sum sqrt(p(1-p)/n) plus a McDiarmid deviation sqrt(ln(1e4)/(2n))."""
    mean = 0.5 * sum(math.sqrt(q * (1.0 - q) / ess) for q in p.values())
    return mean + math.sqrt(math.log(1e4) / (2.0 * ess))


@pytest.mark.parametrize("seed", [0, 1])
def test_chain_splitting_law_matches_yaglom_exact(seed):
    # the conditioned law of the lockstep walk at L = 8 against the exact
    # law, within the TV bound of its grouped effective sample size
    gen = build_generator(8, 0.5)
    t = 6.0
    dist, diag = yaglom.yaglom_estimate(1, 0.5, t, 2000, yaglom.Splitting(),
                                        8, seed, gen=gen)
    exact = vector_distribution(gen, yaglom_exact(gen, 1, t))
    assert diag["clipped"] == 0
    assert tv_distance(dist, exact) < _tv_bound(exact.normalized(),
                                                diag["ess"])


@pytest.mark.parametrize("seed", [0, 1])
def test_free_splitting_law_matches_yaglom_exact(seed):
    # the free process against the depth-14 chain on the depth-6 cylinder,
    # where the clip and kill laws differ by 2.8e-5 in TV, far below the
    # bound; over seeds 0-19 TV/bound averaged 0.22 and peaked at 0.28
    gen = build_generator(14, 0.5, POLICY_CLIP)
    exact = cylinder_restrict(
        vector_distribution(gen, yaglom_exact(gen, 1, 8.0)), 6)
    dist, diag = yaglom.yaglom_estimate({0}, 0.5, 8.0, 1000,
                                        yaglom.Splitting(), 12, seed)
    assert tv_distance(cylinder_restrict(dist, 6), exact) < _tv_bound(
        exact.normalized(), diag["ess"])


def test_chain_rejection_weight_matches_survival_curve():
    # a checkpoint spacing of at least t makes one stage, which is plain
    # rejection: the weight is a binomial fraction of the n replicas.  Over
    # seeds 0-29 the largest deviation was 2.57 sigma
    gen = build_generator(8, 0.5)
    p = survival_curve(gen, 1, [6.0])[0]
    dist, diag = yaglom.yaglom_estimate(1, 0.5, 6.0, 3000,
                                        yaglom.Splitting(checkpoint_dt=6.0),
                                        8, 0, gen=gen)
    assert diag["stages"] == [6.0]
    n = dist.replica_count
    assert n == 3000
    assert abs(diag["weight"] - p) < K_SIGMA * math.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("seed", [0, 1])
def test_free_splitting_weight_matches_depth_14_survival(seed):
    # both truncations lie below the untruncated survival, so [kill, clip]
    # is no bracket of it: at t = 8, kill is 3.6e-6 below clip, and clip
    # rises by 1.9e-7 from L = 14 to 18, then by about a tenth of that per
    # two further levels.  Both gaps are far below the Monte Carlo error of
    # 1000 replicas, so the band is [kill, clip] widened by K_SIGMA sd
    lo, hi = sorted(survival_curve(build_generator(14, 0.5, policy), 1,
                                   [8.0])[0]
                    for policy in (POLICY_CLIP, POLICY_KILL))
    n = 1000
    _, diag = yaglom.yaglom_estimate({0}, 0.5, 8.0, n, yaglom.Splitting(), 8,
                                     seed)
    w = diag["weight"]
    sd = w * _log_weight_sd(diag, n)
    assert lo - K_SIGMA * sd < w < hi + K_SIGMA * sd


# ===== alpha against the exact chain =====

def test_free_alpha_estimate_stderr_covers_the_decay_rate():
    # alpha_estimate from {0} on the grid 2..10 with 1000 replicas, over 40
    # seeds, against alpha of the depth-14 chain (clip and kill differ by
    # 2e-4, far below the stderr of about 0.016).  The reported stderr must
    # cover alpha at 2 stderr for at least 34 of 40 seeds (nominal 38);
    # over seeds 0-199, 200 of 200 did and 157 were within 1 stderr, so the
    # stderr is conservative (the estimates' spread is about 0.010).  The
    # fit's increments start at t = 2, where the log-survival slope still
    # exceeds alpha, so the mean estimate may sit anywhere between alpha
    # and the exact slope over [2, 10] (0.4195), up to 4 of its standard
    # errors; over seeds 0-199 it was 0.4174
    gen = build_generator(14, 0.5, POLICY_CLIP)
    alpha = dominant_eigenpair(gen).alpha
    grid = (2.0, 4.0, 6.0, 8.0, 10.0)
    p2, p10 = survival_curve(gen, 1, [grid[0], grid[-1]])
    slope = math.log(p2 / p10) / (grid[-1] - grid[0])
    fits = np.array([yaglom.alpha_estimate({0}, 0.5, grid, 1000, seed)
                     for seed in range(40)])
    est, se = fits[:, 0], fits[:, 1]
    assert np.count_nonzero(np.abs(est - alpha) <= 2.0 * se) >= 34
    sem = est.std(ddof=1) / math.sqrt(est.size)
    assert alpha - K_SIGMA * sem < est.mean() < slope + K_SIGMA * sem


def test_alpha_grid_point_just_past_a_stage_end_is_fitted():
    # the first stage after t = 1 is 1/_rough_alpha long and ends 5e-13
    # before the second grid point; the loop used to skip any grid point
    # within 1e-12 of a stage end, then raised KeyError looking it up
    grid = (1.0, 1.0 + 1.0 / yaglom._rough_alpha(0.5) + 5e-13, 10.0)
    est, se = yaglom.alpha_estimate({0}, 0.5, grid, 200, 0)
    assert math.isfinite(est) and 0 < se < math.inf
    populate = yaglom._starter(0.5, None)({0})
    times = [stage[0] for stage in yaglom._split(populate, 0.5, 200, grid,
                                                 None, (0, 1))]
    assert times[0] == 0.0 and set(grid) <= set(times)


# ===== h against the exact chain =====

# standard deviation of log h_hat at L = 8, lambda 0.5, t = 4 with 300
# replicas, measured over seeds 0-39 for the keys 1, 5 and 255 (the largest
# deviation seen was 2.5 of them)
_H_LOG_SD = {1: 0.127, 5: 0.089, 255: 0.054}


@pytest.mark.parametrize("seed", [0, 1])
def test_chain_h_estimate_matches_scaled_survival(seed):
    gen = build_generator(8, 0.5)
    alpha = dominant_eigenpair(gen).alpha
    keys = sorted(_H_LOG_SD)
    got = yaglom.h_estimate(keys, alpha, 0.5, 4.0, 300, 8, seed, gen=gen)
    for key, h in zip(keys, got):
        want = math.exp(alpha * 4.0) * survival_curve(gen, key, [4.0])[0]
        assert abs(math.log(h / want)) < K_SIGMA * _H_LOG_SD[key]


def test_free_h_estimate_matches_the_depth_14_chain():
    # free-process h for keys 1, 3 and 5 at t = 12 against h of the depth-14
    # clip chain, whose spectral gap of about 0.49 leaves a transient of
    # order exp(-0.49 * 12) = 0.003, below the 2 % standard error of the
    # mean over 20 seeds (each estimate is off by about 10 %)
    gen = build_generator(14, 0.5, POLICY_CLIP)
    res = dominant_eigenpair(gen)
    keys = [1, 3, 5]
    want = np.array([res.h[key_to_index(k)] for k in keys])
    got = np.array([yaglom.h_estimate(keys, res.alpha, 0.5, 12.0, 1000, 14,
                                      seed)
                    for seed in range(20)])
    sem = got.std(axis=0, ddof=1) / math.sqrt(len(got))
    assert np.all(np.abs(got.mean(axis=0) - want) < K_SIGMA * sem)


def test_h_estimate_nu_rescaling():
    gen = build_generator(8, 0.5)
    keys = [1, 5, 255]
    nu = {1: 0.4, 5: 0.3, 255: 0.1, 7: 0.2}
    # the rescaling holds for any alpha passed in, here one 10 % off
    alpha = 1.1 * dominant_eigenpair(gen).alpha
    got = yaglom.h_estimate(keys, alpha, 0.5, 2.0, 100, 8, 0, gen=gen, nu=nu)
    assert sum(nu[k] * h for k, h in zip(keys, got)) == pytest.approx(0.8)
    raw = yaglom.h_estimate(keys, alpha, 0.5, 2.0, 100, 8, 0, gen=gen)
    assert np.allclose(got / raw, got[0] / raw[0])


@pytest.mark.parametrize("args", [
    dict(replicas=0),
    dict(replicas=0, t=0.0),
    dict(alpha=math.nan),
    dict(alpha=math.inf),
    dict(gen=None, lam=0.0, depth=8, t=0.0),
    dict(gen=None, lam=math.nan, depth=8, t=0.0),
    dict(gen=None, lam=math.inf, depth=8, t=0.0),
    dict(gen=None, lam=0.5, depth=0, t=0.0),
    dict(lam=0.6),
    dict(depth=5),
    dict(states=[3.9]),
    dict(replicas=2.5),
    dict(seed=-1, t=0.0),
    dict(alpha=0.0),
], ids=["no-replicas", "no-replicas-time-0", "nan-alpha", "inf-alpha",
        "zero-lambda-time-0", "nan-lambda-time-0", "inf-lambda-time-0",
        "zero-depth-time-0", "mismatched-lambda", "mismatched-depth",
        "fractional-key", "fractional-replicas", "negative-seed-time-0",
        "zero-alpha"])
def test_h_estimate_parameter_validation(args):
    # checked before any simulation, so also at t = 0, where no population
    # is run; 3.9 used to run from key 3 and 2.5 replicas as 2
    call = dict(states=[1], alpha=0.4, lam=0.5, t=2.0, replicas=10, depth=6,
                seed=0, gen=build_generator(6, 0.5))
    call.update(args)
    with pytest.raises(ParameterError):
        yaglom.h_estimate(**call)


# ===== input checks across the package =====

# weights that a law rejected only after counting them: -1 made tv_distance
# read 1.5, NaN a NaN total, and None and "x" raised TypeError or ValueError
_BAD_WEIGHTS = {"negative": -1.0, "nan": math.nan, "inf": math.inf,
                "none": None, "string": "x"}


def _bad_input_calls():
    """name -> a call with one bad argument, each of which ran silently,
    truncated the argument, or raised something other than ParameterError
    before every entry point took its input through cpqsd.errors."""
    g3 = build_generator(3, 0.5)
    g4 = build_generator(4, 0.5)
    log = sample_event_log(SiteWindow(-4, 4, 2.0), 0.5, 0)
    words4 = yaglom._words((0, 0), 4)

    def estimate(replicas=10, depth=4, seed=0, init=frozenset({0}), gen=None):
        return lambda: yaglom.yaglom_estimate(init, 0.5, 1.0, replicas,
                                              yaglom.Splitting(), depth, seed,
                                              gen=gen)

    return {
        "yaglom-replicas-2.5": estimate(replicas=2.5),
        "yaglom-replicas-100.7": estimate(replicas=100.7),
        "yaglom-depth-2.5": estimate(depth=2.5),
        "yaglom-seed--1": estimate(seed=-1),
        "yaglom-seed-1.5": estimate(seed=1.5),
        "yaglom-seed-2**64": estimate(seed=2**64),
        "alpha-replicas-2.5": lambda: yaglom.alpha_estimate(
            {0}, 0.5, (1.0, 2.0, 3.0), 2.5, 0),
        "build-generator-L-3.5": lambda: build_generator(3.5, 0.5),
        "recenter-fractional-sites": lambda: recenter({0.5, 1.7}),
        "cylinder-restrict-2.5": lambda: cylinder_restrict(
            EmpiricalDistribution(6, {1: 1.0}), 2.5),
        "event-log-tuple-window": lambda: EventLog((0, 3, 1.0), [], [], [],
                                                   []),
        "key-to-index-float-key": lambda: key_to_index(3.0),
        "decode-key-float-key": lambda: decode_key(3.0, 4),
        "encode-key-fractional-offset": lambda: encode_key({0, -0.5}, 4),
        "clip-key-fractional-offset": lambda: clip_key({0, -1.5}, 4),
        "edge-configuration-fractional-offset": lambda: EdgeConfiguration(
            {0, -0.5}),
        "empirical-distribution-depth-2.5": lambda: EmpiricalDistribution(
            2.5, {3: 1.0}, replica_count=1),
        "empirical-distribution-key-3.7": lambda: EmpiricalDistribution(
            4, {3.7: 1.0}, replica_count=1),
        "empirical-distribution-replicas-1.9": lambda: EmpiricalDistribution(
            4, {3: 1.0}, replica_count=1.9),
        # a non-number failed the comparison with a TypeError, or was
        # converted by float() before the check
        "build-generator-string-lambda": lambda: build_generator(4, "0.5"),
        "sample-distribution-string-time": lambda: sample_edge_distribution(
            {0}, 0.5, "1", 4, 0, 2),
        "site-window-string-horizon": lambda: SiteWindow(0, 3, "1"),
        "max-jump-count-string-time": lambda: max_jump_count(0, 0.0, log,
                                                             "0.5"),
        "h-estimate-string-alpha": lambda: yaglom.h_estimate(
            [1], "0.4", 0.5, 1.0, 10, 4, 0),
        "yaglom-none-lambda": lambda: yaglom.yaglom_estimate(
            {0}, None, 1.0, 10, yaglom.Splitting(), 4, 0),
        "survival-curve-string-time": lambda: survival_curve(g4, 1, ["1"]),
        "survival-curve-none-time": lambda: survival_curve(g4, 1, [None]),
        "yaglom-exact-string-time": lambda: yaglom_exact(g4, 1, "1"),
        "yaglom-exact-none-time": lambda: yaglom_exact(g4, 1, None),
        "alpha-string-grid": lambda: yaglom.alpha_estimate(
            {0}, 0.5, ("1", "2", "3"), 10, 0),
        "alpha-none-grid": lambda: yaglom.alpha_estimate(
            {0}, 0.5, (1.0, None, 3.0), 10, 0),
        # a start that is not a collection raised "'int' object is not
        # iterable"
        "finite-int-start": lambda: Finite(5),
        "yaglom-int-start": estimate(init=0),
        "trajectory-int-start": lambda: simulate_edge_trajectory(
            5, 0.5, 1.0, 4, 0),
        "sample-distribution-int-start": lambda: sample_edge_distribution(
            5, 0.5, 1.0, 4, 0, 2),
        "evolve-int-start": lambda: evolve(5, log, 0.0, 1.0),
        # a depth-9 law was read off a depth-4 chain
        "yaglom-chain-depth-above-L": estimate(init=1, depth=9, gen=g4),
        "vector-distribution-short-vector": lambda: vector_distribution(
            g4, [0.5, 0.5]),
        # a site set, key or log span that is not one raised TypeError, or
        # was accepted and then read wrongly
        "recenter-int-sites": lambda: recenter(5),
        "edge-configuration-int-offsets": lambda: EdgeConfiguration(5),
        "clip-key-int-offsets": lambda: clip_key(5, 4),
        "encode-key-none-offsets": lambda: encode_key(None, 4),
        "evolve-string-start-time": lambda: evolve({0}, log, "0", 1.0),
        "evolve-none-end-time": lambda: evolve({0}, log, 0.0, None),
        "reach-backward-string-time": lambda: reach_backward(log, "1"),
        "reach-query-string-time": lambda: reach_backward(log, 1.0).query(
            0, "0.5"),
        "empirical-distribution-key-beyond-depth":
            lambda: EmpiricalDistribution(4, {99: 1.0}),
        "empirical-distribution-even-key": lambda: EmpiricalDistribution(
            4, {2: 1.0}),
        "empirical-distribution-add-key-beyond-depth":
            lambda: EmpiricalDistribution(4).add(99),
        "empirical-distribution-add-even-key":
            lambda: EmpiricalDistribution(4).add(2),
        **{f"empirical-distribution-weight-{name}":
           (lambda w=w: EmpiricalDistribution(4, {1: w}))
           for name, w in _BAD_WEIGHTS.items()},
        **{f"empirical-distribution-add-weight-{name}":
           (lambda w=w: EmpiricalDistribution(4).add(1, w))
           for name, w in _BAD_WEIGHTS.items()},
        # a mass on the chain's states, or in h_estimate's nu, that is not
        # finite and >= 0 was dropped, rescaled h, or raised TypeError
        # (an infinite mass already failed the law's weight check)
        **{f"vector-distribution-mass-{name}":
           (lambda w=w: vector_distribution(g3, [w, 1.0, 0.5, 0.5]))
           for name, w in _BAD_WEIGHTS.items() if name != "inf"},
        # a vector of no mass made a law with no keys
        "vector-distribution-no-mass": lambda: vector_distribution(
            g3, [0, 0, 0, 0]),
        "survival-curve-numeric-string-start": lambda: survival_curve(
            g3, ["0.5", "1", "0", "0"], [1.0]),
        **{f"h-estimate-nu-mass-{name}":
           (lambda w=w: yaglom.h_estimate([1, 3], 0.4, 0.5, 1.0, 10, 4, 0,
                                          gen=g4, nu={1: w, 3: 2.0}))
           for name, w in _BAD_WEIGHTS.items()},
        # a fractional or zero depth was truncated or read as no depth
        "clip-key-depth-2.5": lambda: clip_key([0, -1, -2], 2.5),
        "encode-key-depth-2.5": lambda: encode_key([0, -1, -2], 2.5),
        "clip-key-depth-0": lambda: clip_key([0], 0),
        # a bool passed as the number 0 or 1, and an array with axes raised
        # numpy's ambiguous-truth ValueError
        "build-generator-array-lambda": lambda: build_generator(
            4, np.array([0.5, 0.6])),
        "build-generator-bool-lambda": lambda: build_generator(4, True),
        "build-generator-numpy-bool-lambda": lambda: build_generator(
            4, np.True_),
        "site-window-bool-horizon": lambda: SiteWindow(0, 3, True),
        "yaglom-exact-bool-time": lambda: yaglom_exact(g4, 1, True),
        "yaglom-exact-array-time": lambda: yaglom_exact(
            g4, 1, np.array([1.0, 2.0])),
        "reach-query-0d-bool-time": lambda: reach_backward(log, 1.0).query(
            0, np.array(True)),
        "yaglom-seed-True": estimate(seed=True),
        "trajectory-bool-depth": lambda: simulate_edge_trajectory(
            {0}, 0.5, 1.0, True, 0),
        # a population took its input unchecked: no sites raised numpy's
        # ValueError, a negative rate ran, a half site became 0, too few
        # words raised IndexError and int64 words UFuncTypeError
        "population-no-sites": lambda: FreePopulation([], 0.5, 4, words4),
        "population-negative-lambda": lambda: FreePopulation(
            [0], -1.0, 4, words4),
        "population-half-site": lambda: FreePopulation([0.5], 0.5, 4,
                                                       words4),
        "population-repeated-site": lambda: FreePopulation([0, 0], 0.5, 4,
                                                           words4),
        "population-replicas-2.5": lambda: FreePopulation([0], 0.5, 2.5,
                                                          words4),
        "population-2-words-for-4": lambda: FreePopulation([0], 0.5, 4,
                                                           words4[:2]),
        "population-int64-words": lambda: FreePopulation(
            [0], 0.5, 4, words4.astype(np.int64)),
        "population-list-words": lambda: FreePopulation([0], 0.5, 4,
                                                        words4.tolist()),
        # a site beyond int32 was stored wrapped, and one near its edge
        # wrapped during the walk; nothing here ever advances a population
        "population-site-2**32": lambda: FreePopulation([2**32], 0.5, 2,
                                                        words4[:2]),
        "population-sites-above-2**31": lambda: FreePopulation(
            [2**31 + 5, 2**31 + 6], 0.5, 4, words4),
        "population-site-2**31-5": lambda: FreePopulation([2**31 - 5], 1.6,
                                                          4, words4),
        "population-site--2**30": lambda: FreePopulation([-2**30], 0.5, 4,
                                                         words4),
        "yaglom-site-2**31-5": estimate(init={2**31 - 5}),
        "alpha-site-2**31-5": lambda: yaglom.alpha_estimate(
            {2**31 - 5}, 0.5, (1.0, 2.0, 3.0), 10, 0),
        # a bool passed as a mark time or site
        "event-log-bool-time": lambda: EventLog(SiteWindow(0, 3, 1.0),
                                                [True], [0], [1], [1]),
        "event-log-bool-kind": lambda: EventLog(SiteWindow(0, 3, 1.0),
                                                [0.5], [True], [1], [2]),
        "event-log-bool-source": lambda: EventLog(SiteWindow(0, 3, 1.0),
                                                  [0.5], [0], [True], [1]),
        "event-log-bool-target": lambda: EventLog(SiteWindow(0, 3, 1.0),
                                                  [0.5], [0], [1], [True]),
    }


@pytest.mark.parametrize("name", sorted(_bad_input_calls()))
def test_bad_input_raises_parameter_error(name):
    with pytest.raises(ParameterError):
        _bad_input_calls()[name]()
