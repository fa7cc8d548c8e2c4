import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpqsd import _kernels as K
from cpqsd.errors import CensoredError, ParameterError
from cpqsd.graphical import (
    Configuration,
    EventLog,
    SiteWindow,
    ceil_beta_t,
    evolve,
    is_good,
    is_good_pair,
    max_jump_count,
    reach_backward,
    sample_event_log,
)

from oracles import max_jumps, open_reach, reaches_top_line


def tuples_of(log):
    """The log's marks as the oracle's tuples, in sweep order."""
    return [("R", x, t) if k == 0 else ("A", x, y, t)
            for k, x, y, t in zip(log.kinds.tolist(), log.src.tolist(),
                                  log.dst.tolist(), log.times.tolist())]


def random_small_log(rng, lo=-3, hi=3, horizon=1.0, max_marks=12):
    n = int(rng.integers(0, max_marks + 1))
    times = np.sort(rng.uniform(0.0, horizon, n))
    kinds, src, dst = [], [], []
    for _ in range(n):
        x = int(rng.integers(lo, hi + 1))
        if rng.random() < 0.35 or lo == hi:
            kinds.append(0)
            src.append(x)
            dst.append(x)
        else:
            if x == lo:
                d = x + 1
            elif x == hi:
                d = x - 1
            else:
                d = x + (1 if rng.random() < 0.5 else -1)
            kinds.append(1)
            src.append(x)
            dst.append(d)
    return EventLog(SiteWindow(lo, hi, horizon), times, kinds, src, dst)


def log_of(marks, lo=-5, hi=5, horizon=2.0):
    """EventLog of hand-written oracle tuples, ("R", site, time) or
    ("A", src, dst, time), in the order given."""
    return EventLog(SiteWindow(lo, hi, horizon), [m[-1] for m in marks],
                    [int(m[0] == "A") for m in marks], [m[1] for m in marks],
                    [m[-2] for m in marks])


# grid times make ties between marks, and queries at exact mark times
_TIMES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                   st.floats(0.0, 1.0))
# oracle tuples on the window [-3, 3]
_MARKS = st.lists(st.one_of(
    st.builds(lambda x, t: ("R", x, t), st.integers(-3, 3), _TIMES),
    st.builds(lambda x, t: ("A", x, x + 1, t), st.integers(-3, 2), _TIMES),
    st.builds(lambda x, t: ("A", x, x - 1, t), st.integers(-2, 3), _TIMES)),
    max_size=12)


# ===== sampling =====

class TestSampleEventLog:
    def test_single_site_window_has_only_recoveries(self):
        log = sample_event_log(SiteWindow(4, 4, 50.0), 0.8, seed=1)
        assert len(log) > 0
        assert np.all(log.kinds == 0)
        assert np.all(log.src == 4)

    def test_mean_mark_count_matches_poisson_formula(self):
        lo, hi, T, lam = 0, 2, 1.0, 0.7
        mean = (hi - lo + 1) * T + 2 * (hi - lo) * lam * T
        counts = [len(sample_event_log(SiteWindow(lo, hi, T), lam, seed=5,
                                       stream=k))
                  for k in range(10_000)]
        err = abs(np.mean(counts) - mean)
        assert err < 3 * math.sqrt(mean / len(counts))

    def test_counts_and_times_follow_the_poisson_law(self):
        # each family's count per log is Poisson: its sample mean and
        # variance lie within 4 sigma of the Poisson values; the pooled
        # mark times are uniform on (0, T] (KS at its 1e-4 critical value)
        lo, hi, T, lam = 0, 2, 1.0, 0.7
        n = 10_000
        logs = [sample_event_log(SiteWindow(lo, hi, T), lam, seed=6, stream=k)
                for k in range(n)]
        # per log: recoveries, right arrows, left arrows
        counts = np.array([[np.count_nonzero(log.kinds == 0),
                            np.count_nonzero(log.dst > log.src),
                            np.count_nonzero(log.dst < log.src)]
                           for log in logs])
        mu = np.array([hi - lo + 1, (hi - lo) * lam, (hi - lo) * lam]) * T
        z_mean = (counts.mean(axis=0) - mu) / np.sqrt(mu / n)
        # Poisson: the fourth central moment is mu + 3 mu^2, so the sample
        # variance has variance about (mu + 2 mu^2) / n
        z_var = (counts.var(axis=0, ddof=1) - mu) / np.sqrt((mu + 2 * mu**2) / n)
        assert np.all(np.abs(z_mean) < 4) and np.all(np.abs(z_var) < 4)
        u = np.sort(np.concatenate([log.times for log in logs])) / T
        assert u.min() > 0 and u.max() <= 1
        m = u.size
        ks = max(np.max(np.arange(1, m + 1) / m - u),
                 np.max(u - np.arange(m) / m))
        assert ks < math.sqrt(math.log(2 / 1e-4) / (2 * m))

    def test_same_seed_and_stream_bit_identical(self):
        w = SiteWindow(-10, 10, 3.0)
        a = sample_event_log(w, 0.5, seed=99, stream=7)
        b = sample_event_log(w, 0.5, seed=99, stream=7)
        assert a.times.tobytes() == b.times.tobytes()
        assert a.kinds.tobytes() == b.kinds.tobytes()
        assert a.src.tobytes() == b.src.tobytes()
        assert a.dst.tobytes() == b.dst.tobytes()

    def test_streams_differ(self):
        w = SiteWindow(-10, 10, 3.0)
        a = sample_event_log(w, 0.5, seed=99, stream=0)
        b = sample_event_log(w, 0.5, seed=99, stream=1)
        assert a.times.tobytes() != b.times.tobytes()

    def test_times_sorted_and_sites_in_window(self):
        log = sample_event_log(SiteWindow(-4, 9, 7.0), 1.2, seed=3)
        assert np.all(np.diff(log.times) >= 0)
        assert log.src.min() >= -4 and log.src.max() <= 9
        arrows = log.kinds == 1
        assert np.all(np.abs(log.src[arrows] - log.dst[arrows]) == 1)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            SiteWindow(3, 1, 1.0)
        with pytest.raises(ParameterError):
            SiteWindow(0, 1, 0.0)
        with pytest.raises(ParameterError):
            sample_event_log(SiteWindow(0, 1, 1.0), 0.0, seed=1)
        with pytest.raises(ParameterError):
            sample_event_log(SiteWindow(0, 1, 1.0), math.inf, seed=1)
        with pytest.raises(ParameterError):
            sample_event_log(SiteWindow(0, 1, 1.0), 0.5, seed=-1)
        # a fractional seed used to raise numpy's TypeError
        with pytest.raises(ParameterError):
            sample_event_log(SiteWindow(0, 1, 1.0), 0.5, seed=1.5)
        # sites are integers, the horizon is finite, a tuple is no window
        for bad in [(0, 1, math.inf), (0, 1, math.nan), (0.5, 3, 1.0),
                    (0, 3.0, 1.0)]:
            with pytest.raises(ParameterError):
                SiteWindow(*bad)
        with pytest.raises(ParameterError):
            sample_event_log((0, 3, 1.0), 0.5, seed=1)
        w = SiteWindow(np.int64(-2), np.int32(3), 1.0)
        assert (type(w.lo), type(w.hi)) == (int, int)


# ===== evolve =====

class TestEvolve:
    def test_empty_start_is_absorbing(self):
        log = sample_event_log(SiteWindow(-3, 3, 2.0), 0.5, seed=11)
        assert evolve(Configuration(), log, 0.0, 2.0) == frozenset()

    def test_no_marks_in_span_is_identity(self):
        log = log_of([("R", 0, 1.5)])
        assert evolve({0}, log, 0.0, 1.0) == {0}

    def test_two_mark_hand_trace(self):
        log = log_of([("A", 0, 1, 0.2), ("R", 0, 0.5)])
        assert evolve({0}, log, 0.0, 1.0) == {1}

    def test_matches_path_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            log = random_small_log(rng)
            marks = tuples_of(log)
            start = {int(x) for x in rng.integers(-3, 4, rng.integers(1, 4))}
            s = float(rng.uniform(0, 0.5))
            t = float(rng.uniform(s, 1.0))
            got = evolve(start, log, s, t)
            assert got == open_reach(marks, start, s, t)

    @settings(derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**64 - 1),
           a=st.sets(st.integers(-6, 6), max_size=4),
           more=st.sets(st.integers(-6, 6), max_size=4))
    def test_monotone_in_start_set(self, seed, stream, a, more):
        # attractiveness: a larger start set stays larger
        log = sample_event_log(SiteWindow(-6, 6, 1.5), 0.8, seed, stream)
        assert evolve(a, log, 0.0, 1.5) <= evolve(a | more, log, 0.0, 1.5)

    @settings(derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**64 - 1),
           a=st.sets(st.integers(-6, 6), min_size=1, max_size=4),
           s=st.floats(0.0, 2.0))
    def test_flow_property(self, seed, stream, a, s):
        log = sample_event_log(SiteWindow(-6, 6, 2.0), 0.8, seed, stream)
        one = evolve(a, log, 0.0, 2.0)
        mid = evolve(a, log, 0.0, s)
        two = evolve(mid, log, s, 2.0)
        assert one == two
        assert one.censored == (mid.censored or two.censored)

    def test_censored_flag_on_boundary_contact(self):
        log = log_of([("A", 0, 1, 0.1), ("A", 1, 2, 0.2)], lo=-2, hi=2,
                     horizon=1.0)
        out = evolve({0}, log, 0.0, 1.0)
        assert out == {0, 1, 2}
        assert out.censored
        inner = evolve({0}, log, 0.0, 0.15)
        assert inner == {0, 1}
        assert not inner.censored

    def test_arrows_after_extinction_change_nothing(self):
        # {0} dies at 0.1; the later arrows onto and off the boundary sites
        # -2 and 2 start from empty sites, so they neither revive the set
        # nor set the flag
        log = log_of([("R", 0, 0.1), ("A", 0, 1, 0.2), ("A", 1, 2, 0.3),
                      ("A", 2, 1, 0.4), ("A", -1, -2, 0.5),
                      ("A", -2, -1, 0.6)], lo=-2, hi=2, horizon=1.0)
        out = evolve({0}, log, 0.0, 1.0)
        assert out == frozenset()
        assert not out.censored

    def test_boundary_contact_before_extinction_stays_censored(self):
        # the set reaches the boundary site 2 at 0.2 and dies at 0.5; the
        # flag keeps the contact, and the arrows after 0.5 revive nothing
        log = log_of([("A", 0, 1, 0.1), ("A", 1, 2, 0.2), ("R", 0, 0.3),
                      ("R", 1, 0.4), ("R", 2, 0.5), ("A", 2, 1, 0.6),
                      ("A", 1, 0, 0.7)], lo=-2, hi=2, horizon=1.0)
        out = evolve({0}, log, 0.0, 1.0)
        assert out == frozenset()
        assert out.censored

    def test_matches_path_oracle_when_the_set_dies(self):
        # sampled logs at lambda 0.5 on a 7-site window, from one site: most
        # starts die inside the span with marks still pending, the cases in
        # which the sweep ends early
        rng = np.random.default_rng(1408)
        cases = 300
        early = 0
        for r in range(cases):
            log = sample_event_log(SiteWindow(-3, 3, 2.0), 0.5, 1408, r)
            marks = tuples_of(log)
            start = {int(rng.integers(-1, 2))}
            s = float(rng.uniform(0.0, 0.5))
            t = float(rng.uniform(1.5, 2.0))
            got = evolve(start, log, s, t)
            assert got == open_reach(marks, start, s, t)
            span = [m[-1] for m in marks if s < m[-1] <= t]
            if not got:
                dead_at = next(u for u in span
                               if not open_reach(marks, start, s, u))
                early += dead_at < span[-1]
        assert early >= cases // 2

    def test_rejects_sites_outside_window(self):
        log = log_of([], lo=0, hi=3)
        with pytest.raises(ParameterError):
            evolve({7}, log, 0.0, 1.0)
        with pytest.raises(ParameterError):
            evolve({0}, log, 0.0, 9.0)
        back = reach_backward(log, 1.0)
        for x in (0.5, math.inf):
            with pytest.raises(ParameterError):
                evolve({x}, log, 0.0, 1.0)
            with pytest.raises(ParameterError):
                back.query(x, 0.0)
            with pytest.raises(ParameterError):
                max_jump_count(x, 0.0, log, 1.0)


# ===== forward reach of space-time points =====

class TestReachForward:
    """The sites reached at time u from space-time sources (x, s) are the
    union of evolve({x}, log, s, u) over the sources with s <= u."""

    def test_single_source_empty_log(self):
        log = log_of([])
        for u in (0.0, 0.7, 2.0):
            assert evolve({0}, log, 0.0, u) == {0}

    def test_full_line_at_time_zero(self):
        log = sample_event_log(SiteWindow(-2, 2, 1.0), 0.5, seed=6)
        assert evolve(set(range(-2, 3)), log, 0.0, 0.0) == {-2, -1, 0, 1, 2}

    def test_matches_path_oracle_with_mixed_source_times(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            log = random_small_log(rng)
            marks = tuples_of(log)
            sources = [(int(rng.integers(-3, 4)), float(rng.uniform(0, 0.8)))
                       for _ in range(int(rng.integers(1, 4)))]
            queries = [0.9, 1.0] + [m[-1] for m in marks[:3]]
            for u in queries:
                got, want = set(), set()
                for site, s0 in sources:
                    if s0 <= u:
                        got |= evolve({site}, log, s0, u)
                        want |= open_reach(marks, {site}, s0, u)
                assert got == want, (marks, sources, u)

    def test_source_at_mark_time_survives_that_mark(self):
        log = log_of([("R", 0, 0.5)])
        assert evolve({0}, log, 0.5, 0.5) == {0}
        assert evolve({0}, log, 0.5, 1.0) == {0}

    def test_consistent_with_evolve(self):
        # additivity: the reach of a set is the union of its sites' reaches
        rng = np.random.default_rng(66)
        w = SiteWindow(-5, 5, 1.0)
        for k in range(20):
            log = sample_event_log(w, 0.9, seed=42, stream=k)
            a = {int(x) for x in rng.integers(-5, 6, 3)}
            union = set().union(*(evolve({x}, log, 0.0, 1.0) for x in a))
            assert union == evolve(a, log, 0.0, 1.0)


# ===== reach_backward =====

class TestReachBackward:
    def test_empty_log_everything_reaches(self):
        log = log_of([])
        back = reach_backward(log, 2.0)
        for x in range(-5, 6):
            for s in (0.0, 1.0, 2.0):
                assert back.query(x, s)

    def test_single_recovery_blocks_below(self):
        log = log_of([("R", 0, 1.0)])
        back = reach_backward(log, 2.0)
        assert not back.query(0, 0.5)
        assert back.query(0, 1.0)
        assert back.query(0, 1.5)
        assert back.query(1, 0.5)

    def test_matches_path_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            log = random_small_log(rng)
            marks = tuples_of(log)
            back = reach_backward(log, 1.0)
            for x in range(-3, 4):
                for s in (0.0, 0.3, 0.8):
                    assert back.query(x, s) == reaches_top_line(marks, x, s, 1.0)

    def test_agrees_with_evolve_survival(self):
        w = SiteWindow(-4, 4, 1.5)
        for k in range(20):
            log = sample_event_log(w, 0.7, seed=43, stream=k)
            back = reach_backward(log, 1.5)
            for x in (-4, -1, 0, 2):
                for s in (0.0, 0.6):
                    survives = len(evolve({x}, log, s, 1.5)) > 0
                    assert back.query(x, s) == survives

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(marks=_MARKS, t=_TIMES, s=_TIMES)
    def test_query_and_at_match_oracle_with_ties(self, marks, t, s):
        # sorted stably, so tied marks keep their drawn order, which is
        # the order both the log and the oracle apply them in
        marks = sorted(marks, key=lambda m: m[-1])
        back = reach_backward(log_of(marks, -3, 3, 1.0), t)
        for q in sorted({m[-1] for m in marks if m[-1] <= t}
                        | {0.0, t, min(s, t)}):
            want = {x for x in range(-3, 4)
                    if reaches_top_line(marks, x, q, t)}
            assert {x for x in range(-3, 4) if back.query(x, q)} == want
            assert set(back.at(q)) == want

    def test_at_returns_surviving_configuration(self):
        log = log_of([("R", 0, 1.0), ("R", 2, 1.2)])
        back = reach_backward(log, 2.0)
        cfg = back.at(0.0)
        assert 0 not in cfg and 2 not in cfg
        assert 1 in cfg and -5 in cfg


class TestKeptSweep:
    """A log keeps its last backward sweep, keyed by the number of marks at
    or below the top time; every predicate must still answer for its own
    top time."""

    MARKS = [("R", 0, 0.2), ("A", 1, 0, 0.3), ("R", 1, 0.5),
             ("A", 0, -1, 0.6), ("A", -1, 0, 0.7), ("R", -1, 0.8)]

    def _points(self, t):
        """Every site of [-2, 2] at 0, t and each mark time at or below t,
        and just above and below it."""
        return [(x, q) for x in range(-2, 3)
                for q in sorted({0.0, t} | {m[-1] + d for m in self.MARKS
                                            for d in (-1e-9, 0.0, 1e-9)
                                            if 0.0 <= m[-1] + d <= t})]

    def _oracle(self, t):
        return [reaches_top_line(self.MARKS, x, q, t)
                for x, q in self._points(t)]

    def _answers(self, back, t):
        return [back.query(x, q) for x, q in self._points(t)]

    def test_predicates_at_alternating_top_times_match_oracle(self):
        log = log_of(self.MARKS, -2, 2, 1.0)
        first = reach_backward(log, 0.65)
        assert self._answers(first, 0.65) == self._oracle(0.65)
        second = reach_backward(log, 0.9)
        assert self._answers(second, 0.9) == self._oracle(0.9)
        again = reach_backward(log, 0.65)
        assert self._answers(again, 0.65) == self._oracle(0.65)
        assert self._answers(first, 0.65) == self._oracle(0.65)

    def test_one_sweep_per_number_of_marks_covered(self, monkeypatch):
        covered = []
        sweep = K.backward_sweep

        def counted(kinds, src, dst, n, nsites):
            covered.append(n)
            return sweep(kinds, src, dst, n, nsites)

        monkeypatch.setattr(K, "backward_sweep", counted)
        log = log_of(self.MARKS, -2, 2, 1.0)
        for _ in range(3):
            reach_backward(log, 0.55)
        assert covered == [3]
        reach_backward(log, 0.58)
        assert covered == [3]
        reach_backward(log, 0.65)
        assert covered == [3, 4]

    def test_threads_on_one_log_get_the_oracle_answers(self):
        # 69 marks: the sweep to 3.9 covers all but three and outlasts the
        # switch interval, the sweep to 0.5 covers nine, so the short one
        # often starts and ends inside the long one; each thread queries
        # near its own top, where the two sweeps' answers differ
        log = sample_event_log(SiteWindow(-3, 3, 4.0), 1.0, seed=8)
        marks = tuples_of(log)
        tops = (0.5, 3.9)
        points = {t: [(x, t - d) for x in range(-3, 4)
                      for d in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)] for t in tops}
        want = {t: [reaches_top_line(marks, x, q, t) for x, q in points[t]]
                for t in tops}
        got = {t: [] for t in tops}
        start = threading.Barrier(2, timeout=60)

        def run(t):
            start.wait()
            for _ in range(300):
                back = reach_backward(log, t)
                got[t].append([back.query(x, q) for x, q in points[t]])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(t,)) for t in tops]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for t in tops:
            assert got[t] == [want[t]] * 300


# ===== jump counts and goodness =====

class TestJumpCounts:
    def test_no_arrows_gives_zero(self):
        log = log_of([("R", 0, 0.3), ("R", 1, 0.6)])
        assert max_jump_count(0, 0.0, log, 1.0) == (0, False)

    def test_branching_chain_counts_two(self):
        log = log_of([("A", 0, 1, 0.1), ("A", 1, 2, 0.2), ("A", 1, 0, 0.3)])
        count, cen = max_jump_count(0, 0.0, log, 1.0)
        assert count == 2 and not cen

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(88)
        for _ in range(300):
            log = random_small_log(rng)
            marks = tuples_of(log)
            z = int(rng.integers(-3, 4))
            s = float(rng.uniform(0, 0.4))
            dt = float(rng.uniform(0, 1.0 - s))
            count, _ = max_jump_count(z, s, log, dt)
            assert count == max_jumps(marks, z, s, s + dt)

    def test_boundary_contact_sets_censored(self):
        log = log_of([("A", 0, 1, 0.1), ("A", 1, 2, 0.2)], lo=-2, hi=2)
        count, cen = max_jump_count(0, 0.0, log, 1.0)
        assert cen
        assert count == 2

    def test_is_good_on_empty_log(self):
        log = log_of([])
        assert is_good(0, 0.0, log, beta=2.0, t=1.0)

    def test_saturating_chain_is_not_good(self):
        chain = [("A", k, k + 1, (k + 1) / 10) for k in range(4)]
        log = log_of(chain, lo=-10, hi=10)
        assert not is_good(0, 0.0, log, beta=2.0, t=2.0)
        assert is_good(0, 0.0, log, beta=2.5, t=2.0)

    def test_censored_is_an_error_not_a_guess(self):
        log = log_of([("A", 0, 1, 0.1), ("A", 1, 2, 0.2)], lo=-2, hi=2)
        with pytest.raises(CensoredError):
            is_good(0, 0.0, log, beta=9.0, t=1.0)

    def test_pair_needs_partner_inside_window(self):
        log = log_of([], lo=-5, hi=5)
        with pytest.raises(CensoredError):
            is_good_pair(0, 0.0, log, beta=9.0, t=1.0)
        log2 = log_of([], lo=-5, hi=5, horizon=0.5)
        assert is_good_pair(0, 0.0, log2, beta=4.0, t=0.5)

    def test_ceil_beta_t_convention(self):
        assert ceil_beta_t(18.0, 10.0) == 180
        assert ceil_beta_t(18.0, 20.0) == 360
        assert ceil_beta_t(0.35, 2.0) == 1
        assert ceil_beta_t(1.0, 2.5) == 3


# ===== log construction =====

class TestTextRoundTrip:
    """EventLog construction: the tie flag and the mark checks.  The class
    keeps the name it had when logs were also read from a text format."""

    def test_tie_sets_flag(self):
        log = log_of([("R", 0, 0.5), ("R", 1, 0.5)])
        assert log.tie_flag
        assert not log_of([("R", 0, 0.5), ("R", 1, 0.6)]).tie_flag

    def test_rejects_inconsistent_marks(self):
        with pytest.raises(ParameterError):
            log_of([("A", 0, 2, 0.5)])  # not nearest neighbour
        with pytest.raises(ParameterError):
            log_of([("R", 99, 0.5)])  # outside window
        with pytest.raises(ParameterError):
            log_of([("R", 0, 0.9), ("R", 0, 0.2)])  # unsorted
        # a NaN time anywhere, whose comparisons are all False
        window = SiteWindow(-2, 3, 1.0)
        for times in ([0.1, math.nan, 0.5], [math.nan, 0.1, 0.5],
                      [0.1, 0.5, math.nan]):
            with pytest.raises(ParameterError):
                EventLog(window, times, [1, 0, 0], [0, 1, 1], [1, 1, 1])
        # fractional marks, which a cast would turn into other marks: a
        # recovery at 1.5, an arrow 0.7 -> 1.2 and kind 1.9
        window = SiteWindow(0, 3, 1.0)
        for kinds, src, dst in (([0], [1.5], [1.5]), ([1], [0.7], [1.2]),
                                ([1.9], [0], [1])):
            with pytest.raises(ParameterError):
                EventLog(window, [0.5], kinds, src, dst)
        # a time given as a string, which a float cast would parse
        with pytest.raises(ParameterError):
            EventLog(window, ["0.5"], [0], [1], [1])


# ===== interval convention edge cases =====

class TestMarkIntervalConventions:
    def test_mark_at_exactly_s_is_excluded(self):
        log = log_of([("R", 0, 0.5)])
        assert evolve({0}, log, 0.5, 1.0) == {0}

    def test_mark_at_exactly_t_is_included(self):
        log = log_of([("R", 0, 0.5)])
        assert evolve({0}, log, 0.0, 0.5) == frozenset()

    def test_backward_query_at_mark_time_sees_state_above(self):
        log = log_of([("R", 0, 0.5)])
        back = reach_backward(log, 1.0)
        assert back.query(0, 0.5)
        assert not back.query(0, 0.49999)

    def test_oracle_agrees_on_exact_mark_times(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            log = random_small_log(rng, max_marks=8)
            if len(log) == 0:
                continue
            marks = tuples_of(log)
            u = marks[len(marks) // 2][-1]
            got = evolve({0}, log, 0.0, u)
            assert got == open_reach(marks, {0}, 0.0, u)
