"""Tests for the direct event kernel's site-buffer protocol."""

import numpy as np

from cpqsd import _kernels as K


def _run_growing(sites, lam, t_end, seed, cap):
    """gillespie_free from a cap-slot buffer, doubled on every -2."""
    buf = np.zeros(cap, np.int32)
    buf[:len(sites)] = sites
    state = np.random.SeedSequence(seed).generate_state(1, np.uint64)
    n, t_now = K.gillespie_free(buf, len(sites), lam, 0.0, t_end, state)
    grown = 0
    while n == -2:
        n = buf.size
        buf = np.concatenate([buf, np.zeros_like(buf)])
        n, t_now = K.gillespie_free(buf, n, lam, t_now, t_end, state)
        grown += 1
    return (buf[:n].tolist(), int(n), float(t_now), int(state[0])), grown


def test_resume_after_full_buffer_is_exact():
    # a buffer that fills must not cost the run its next event: resuming in
    # a larger buffer gives the run a buffer that never fills would give
    sites = [0, 1, 2, 3]
    overflowed = 0
    for seed in range(200):
        tight, grown = _run_growing(sites, 1.2, 6.0, seed, cap=len(sites))
        roomy, never = _run_growing(sites, 1.2, 6.0, seed, cap=256)
        assert never == 0
        assert tight == roomy, seed
        overflowed += grown > 1
    assert overflowed >= 20  # the comparison covers growth mid-run
