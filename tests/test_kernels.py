"""Tests for the direct event kernel's site-buffer protocol, and a guard
that every kernel has a caller."""

import ast
import re
from pathlib import Path

import numpy as np

from cpqsd import _kernels as K

ROOT = Path(__file__).resolve().parents[1]


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


def test_every_kernel_has_a_caller():
    # a kernel is live when another module of the package calls it through
    # `K.<name>`, the benchmark's tracer wraps it, or a live kernel calls it
    src = ROOT / "src" / "cpqsd"
    kernels_py = src / "_kernels.py"
    tree = ast.parse(kernels_py.read_text())
    jitted = {node.targets[0].id: node.value.args[0].id
              for node in tree.body
              if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Call)
              and getattr(node.value.func, "id", None) == "_jit"}
    bodies = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    users = "".join(p.read_text() for p in src.glob("*.py") if p != kernels_py)
    live = set(re.findall(r"\bK\.(\w+)", users))
    layers = (ROOT / "perfbench" / "layers.py").read_text()
    live |= set(re.findall(r'\(K, "(\w+)"', layers))
    todo = list(live & set(jitted))
    while todo:
        for node in ast.walk(bodies[jitted[todo.pop()]]):
            if (isinstance(node, ast.Name) and node.id in jitted
                    and node.id not in live):
                live.add(node.id)
                todo.append(node.id)
    assert sorted(set(jitted) - live) == []
