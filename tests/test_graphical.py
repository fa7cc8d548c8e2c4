import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpqsd.errors import CensoredError, ParameterError
from cpqsd.graphical import (
    Configuration,
    EventLog,
    SiteWindow,
    SpaceTimePoint,
    ceil_beta_t,
    evolve,
    from_text,
    is_good,
    is_good_pair,
    load_log,
    max_jump_count,
    reach_backward,
    reach_forward,
    sample_event_log,
    save_log,
    to_text,
)

from oracles import marks_between, max_jumps, open_reach, reaches_top_line


def tuples_of(log):
    out = []
    for m in log.iter_marks():
        if m.kind == "R":
            out.append(("R", m.src, m.time))
        else:
            out.append(("A", m.src, m.dst, m.time))
    return out


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


def text_log(body, lo=-5, hi=5, horizon=2.0):
    header = f"# window {lo} {hi} {horizon}\n"
    return from_text(header + body)


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
            sample_event_log(SiteWindow(0, 1, 1.0), 0.5, seed=-1)


# ===== evolve =====

class TestEvolve:
    def test_empty_start_is_absorbing(self):
        log = sample_event_log(SiteWindow(-3, 3, 2.0), 0.5, seed=11)
        assert evolve(Configuration(), log, 0.0, 2.0) == frozenset()

    def test_no_marks_in_span_is_identity(self):
        log = text_log("R 0 1.5\n")
        assert evolve({0}, log, 0.0, 1.0) == {0}

    def test_two_mark_hand_trace(self):
        log = text_log("A 0 1 0.2\nR 0 0.5\n")
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
        log = text_log("A 0 1 0.1\nA 1 2 0.2\n", lo=-2, hi=2, horizon=1.0)
        out = evolve({0}, log, 0.0, 1.0)
        assert out == {0, 1, 2}
        assert out.censored
        inner = evolve({0}, log, 0.0, 0.15)
        assert inner == {0, 1}
        assert not inner.censored

    def test_rejects_sites_outside_window(self):
        log = text_log("", lo=0, hi=3)
        with pytest.raises(ParameterError):
            evolve({7}, log, 0.0, 1.0)
        with pytest.raises(ParameterError):
            evolve({0}, log, 0.0, 9.0)


# ===== reach_forward =====

class TestReachForward:
    def test_single_source_empty_log(self):
        log = text_log("")
        prof = reach_forward([SpaceTimePoint(0, 0.0)], log, 2.0)
        for u in (0.0, 0.7, 2.0):
            assert prof.at(u) == {0}

    def test_full_line_at_time_zero(self):
        log = sample_event_log(SiteWindow(-2, 2, 1.0), 0.5, seed=6)
        sources = [(x, 0.0) for x in range(-2, 3)]
        prof = reach_forward(sources, log, 1.0)
        assert prof.at(0.0) == {-2, -1, 0, 1, 2}

    def test_matches_path_oracle_with_mixed_source_times(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            log = random_small_log(rng)
            marks = tuples_of(log)
            sources = [(int(rng.integers(-3, 4)), float(rng.uniform(0, 0.8)))
                       for _ in range(int(rng.integers(1, 4)))]
            prof = reach_forward(sources, log, 1.0)
            queries = [0.9, 1.0] + [m[-1] for m in marks[:3]]
            for u in queries:
                want = set()
                for site, s0 in sources:
                    if s0 <= u:
                        want |= open_reach(marks, {site}, s0, u)
                assert prof.at(u) == want, (marks, sources, u)

    def test_source_at_mark_time_survives_that_mark(self):
        log = text_log("R 0 0.5\n")
        prof = reach_forward([(0, 0.5)], log, 1.0)
        assert prof.at(0.5) == {0}
        assert prof.at(1.0) == {0}

    def test_consistent_with_evolve(self):
        rng = np.random.default_rng(66)
        w = SiteWindow(-5, 5, 1.0)
        for k in range(20):
            log = sample_event_log(w, 0.9, seed=42, stream=k)
            a = {int(x) for x in rng.integers(-5, 6, 3)}
            prof = reach_forward([(x, 0.0) for x in a], log, 1.0)
            assert prof.final == evolve(a, log, 0.0, 1.0)


# ===== reach_backward =====

class TestReachBackward:
    def test_empty_log_everything_reaches(self):
        log = text_log("")
        back = reach_backward(log, 2.0)
        for x in range(-5, 6):
            for s in (0.0, 1.0, 2.0):
                assert back.query(x, s)

    def test_single_recovery_blocks_below(self):
        log = text_log("R 0 1.0\n")
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

    def test_at_returns_surviving_configuration(self):
        log = text_log("R 0 1.0\nR 2 1.2\n")
        back = reach_backward(log, 2.0)
        cfg = back.at(0.0)
        assert 0 not in cfg and 2 not in cfg
        assert 1 in cfg and -5 in cfg


# ===== jump counts and goodness =====

class TestJumpCounts:
    def test_no_arrows_gives_zero(self):
        log = text_log("R 0 0.3\nR 1 0.6\n")
        assert max_jump_count(0, 0.0, log, 1.0) == (0, False)

    def test_branching_chain_counts_two(self):
        log = text_log("A 0 1 0.1\nA 1 2 0.2\nA 1 0 0.3\n")
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
        log = text_log("A 0 1 0.1\nA 1 2 0.2\n", lo=-2, hi=2)
        count, cen = max_jump_count(0, 0.0, log, 1.0)
        assert cen
        assert count == 2

    def test_is_good_on_empty_log(self):
        log = text_log("")
        assert is_good(0, 0.0, log, beta=2.0, t=1.0)

    def test_saturating_chain_is_not_good(self):
        body = "".join(f"A {k} {k + 1} 0.{k + 1}\n" for k in range(4))
        log = text_log(body, lo=-10, hi=10)
        assert not is_good(0, 0.0, log, beta=2.0, t=2.0)
        assert is_good(0, 0.0, log, beta=2.5, t=2.0)

    def test_censored_is_an_error_not_a_guess(self):
        log = text_log("A 0 1 0.1\nA 1 2 0.2\n", lo=-2, hi=2)
        with pytest.raises(CensoredError):
            is_good(0, 0.0, log, beta=9.0, t=1.0)

    def test_pair_needs_partner_inside_window(self):
        log = text_log("", lo=-5, hi=5)
        with pytest.raises(CensoredError):
            is_good_pair(0, 0.0, log, beta=9.0, t=1.0)
        log2 = text_log("", lo=-5, hi=5, horizon=0.5)
        assert is_good_pair(0, 0.0, log2, beta=4.0, t=0.5)

    def test_ceil_beta_t_convention(self):
        assert ceil_beta_t(18.0, 10.0) == 180
        assert ceil_beta_t(18.0, 20.0) == 360
        assert ceil_beta_t(0.35, 2.0) == 1
        assert ceil_beta_t(1.0, 2.5) == 3


# ===== serialization =====

class TestTextRoundTrip:
    def test_round_trip_is_bit_exact(self):
        log = sample_event_log(SiteWindow(-7, 7, 4.0), 0.6, seed=12, stream=3)
        back = from_text(to_text(log))
        assert back.times.tobytes() == log.times.tobytes()
        assert back.kinds.tobytes() == log.kinds.tobytes()
        assert back.src.tobytes() == log.src.tobytes()
        assert back.dst.tobytes() == log.dst.tobytes()
        assert back.window == log.window
        assert back.lam == log.lam
        assert back.seed_record == log.seed_record

    def test_file_round_trip(self, tmp_path):
        log = sample_event_log(SiteWindow(0, 4, 2.0), 1.1, seed=2)
        p = tmp_path / "log.txt"
        save_log(log, p)
        again = load_log(p)
        assert again.times.tobytes() == log.times.tobytes()

    def test_tie_sets_flag(self):
        log = text_log("R 0 0.5\nR 1 0.5\n")
        assert log.tie_flag

    def test_rejects_garbage_lines(self):
        with pytest.raises(ParameterError):
            text_log("X 0 0.5\n")
        with pytest.raises(ParameterError):
            from_text("R 0 0.5\n")  # no window header
        # short headers and sites or times that are not numbers
        for bad in ("# window 0 1\n", "# window\n", "# lambda\n", "# seed 3\n",
                    "# ties\n", "# lambda x\n", "R x 0.5\n", "A 0 1 nope\n",
                    "R 0\n"):
            with pytest.raises(ParameterError):
                from_text("# window -5 5 2.0\n" + bad)

    def test_rejects_inconsistent_marks(self):
        with pytest.raises(ParameterError):
            text_log("A 0 2 0.5\n")  # not nearest neighbour
        with pytest.raises(ParameterError):
            text_log("R 99 0.5\n")  # outside window
        with pytest.raises(ParameterError):
            text_log("R 0 0.9\nR 0 0.2\n")  # unsorted


# ===== interval convention edge cases =====

class TestMarkIntervalConventions:
    def test_mark_at_exactly_s_is_excluded(self):
        log = text_log("R 0 0.5\n")
        assert evolve({0}, log, 0.5, 1.0) == {0}

    def test_mark_at_exactly_t_is_included(self):
        log = text_log("R 0 0.5\n")
        assert evolve({0}, log, 0.0, 0.5) == frozenset()

    def test_backward_query_at_mark_time_sees_state_above(self):
        log = text_log("R 0 0.5\n")
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
