"""Tests for yaglom: its module-level state, its start configurations, and
its estimates checked against the exact truncated chain."""

import math

import numpy as np
import pytest

from cpqsd import yaglom
from cpqsd.edge import FreePopulation, FullInterval, tv_distance
from cpqsd.errors import ParameterError
from cpqsd.spectral import (POLICY_CLIP, POLICY_KILL, build_generator,
                            dominant_eigenpair, survival_curve,
                            vector_distribution)

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
    # replicas whose site buffer fills mid-stage continue in the grown
    # buffer exactly as they would have run in one that never fills
    n = 100
    words = yaglom._words((3, 0, 0), n)
    tight = FreePopulation([0, 1, 2, 3], 1.2, n, words)
    roomy = FreePopulation([0, 1, 2, 3], 1.2, n, words)
    tight.sites = tight.sites[:, :4].copy()
    roomy.sites = np.zeros((n, 256), np.int32)
    roomy.sites[:, :4] = [0, 1, 2, 3]
    for t_end in (3.0, 6.0):
        tight.advance_to(t_end)
        roomy.advance_to(t_end)
    assert tight.sites.shape[1] > 4 and roomy.sites.shape[1] == 256
    assert np.array_equal(tight.counts, roomy.counts)
    assert np.array_equal(tight.tnows, roomy.tnows)
    assert np.array_equal(tight.states, roomy.states)
    for i in np.nonzero(roomy.counts > 0)[0]:
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


def test_time_zero_counts_replicas_with_clipped_offsets():
    # `clipped` counts replicas, not offsets, at t = 0 as at t > 0
    start = FullInterval(20)
    for t in (0.0, 1e-9):
        _, diag = yaglom.yaglom_estimate(start, 0.5, t, 100,
                                         yaglom.Splitting(), 8, 0)
        assert diag["clipped"] == 100


@pytest.mark.parametrize("dt", [0.0, -1.0, math.nan])
def test_bad_checkpoint_spacing_is_rejected(dt):
    with pytest.raises(ParameterError):
        yaglom.yaglom_estimate({0}, 0.5, 1.0, 10, yaglom.Splitting(dt), 4, 0)
    with pytest.raises(ParameterError):
        yaglom.alpha_estimate({0}, 0.5, (1.0, 2.0, 3.0), 10, 0,
                              checkpoint_dt=dt)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_times_are_rejected(bad):
    gen = build_generator(4, 0.5)
    with pytest.raises(ParameterError):
        yaglom.yaglom_estimate({0}, 0.5, bad, 10, yaglom.Splitting(), 4, 0)
    with pytest.raises(ParameterError):
        yaglom.alpha_estimate({0}, 0.5, (1.0, 2.0, bad), 10, 0)
    with pytest.raises(ParameterError):
        yaglom.h_estimate([1], 0.4, bad, 10, gen=gen)


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


def test_chain_rejection_weight_matches_survival_curve():
    gen = build_generator(8, 0.5)
    p = survival_curve(gen, 1, [6.0])[0]
    dist, diag = yaglom.yaglom_estimate(1, 0.5, 6.0, 200, yaglom.Rejection(),
                                        8, 0, gen=gen)
    n = dist.replica_count
    assert abs(diag["weight"] - p) < K_SIGMA * math.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("seed", [0, 1])
def test_free_splitting_weight_within_the_depth_14_bracket(seed):
    # at depth 14 the clip and kill chains differ by about 4e-6 in
    # survival, far below the Monte Carlo error of 1000 replicas
    lo, hi = sorted(survival_curve(build_generator(14, 0.5, policy), 1,
                                   [8.0])[0]
                    for policy in (POLICY_CLIP, POLICY_KILL))
    n = 1000
    _, diag = yaglom.yaglom_estimate({0}, 0.5, 8.0, n, yaglom.Splitting(), 8,
                                     seed)
    w = diag["weight"]
    sd = w * _log_weight_sd(diag, n)
    assert lo - K_SIGMA * sd < w < hi + K_SIGMA * sd


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
    got = yaglom.h_estimate(keys, alpha, 4.0, 300, seed=seed, gen=gen)
    for key, h in zip(keys, got):
        want = math.exp(alpha * 4.0) * survival_curve(gen, key, [4.0])[0]
        assert abs(math.log(h / want)) < K_SIGMA * _H_LOG_SD[key]


def test_h_estimate_nu_rescaling():
    gen = build_generator(8, 0.5)
    keys = [1, 5, 255]
    nu = {1: 0.4, 5: 0.3, 255: 0.1, 7: 0.2}
    # the rescaling holds for any alpha passed in, here one 10 % off
    alpha = 1.1 * dominant_eigenpair(gen).alpha
    got = yaglom.h_estimate(keys, alpha, 2.0, 100, seed=0, gen=gen, nu=nu)
    assert sum(nu[k] * h for k, h in zip(keys, got)) == pytest.approx(0.8)
    raw = yaglom.h_estimate(keys, alpha, 2.0, 100, seed=0, gen=gen)
    assert np.allclose(got / raw, got[0] / raw[0])


# ===== h-transformed chain =====

@pytest.mark.parametrize("seed", [0, 1])
def test_q_process_occupation_matches_nu_h(seed):
    gen = build_generator(6, 0.5)
    res = dominant_eigenpair(gen)
    nu_h = res.nu * res.h
    law = vector_distribution(gen, nu_h / nu_h.sum())
    occ = yaglom.q_process_simulate(res, gen, 20_000, seed)
    # over seeds 0-19 the TV distance averages 0.015 and peaks at 0.022;
    # nu itself sits 0.145 away from nu.h
    assert tv_distance(occ, law) < 0.04


def test_q_process_rejects_a_mismatched_generator():
    res = dominant_eigenpair(build_generator(6, 0.5))
    for other in (build_generator(7, 0.5),
                  build_generator(6, 0.5, POLICY_KILL),
                  build_generator(6, 0.6)):
        with pytest.raises(ParameterError):
            yaglom.q_process_simulate(res, other, 10, 0)
