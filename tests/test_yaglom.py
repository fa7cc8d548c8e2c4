"""Tests for yaglom's module-level state and its free population."""

import numpy as np

from cpqsd import yaglom


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
    tight = yaglom._FreePopulation([0, 1, 2, 3], 1.2, n, words)
    roomy = yaglom._FreePopulation([0, 1, 2, 3], 1.2, n, words)
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
