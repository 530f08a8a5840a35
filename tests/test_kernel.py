"""Numerical core: evaluation reuse in the multiplier searches."""

from pathlib import Path

import numpy as np

import beliefcontracts as bc
from beliefcontracts import kernel
from support import two_action_instance

DATA = Path(__file__).parent / "data"


def test_dual_start_never_evaluates_a_point_twice_in_a_row(monkeypatch):
    """The line search's accepted trial point is the next iterate as evaluated,
    so consecutive inverse_marginal calls within one pass always differ."""
    passes = []      # inverse_marginal arguments, one list per _dual_start call
    recording = []
    original_dual_start = kernel._dual_start
    original_inverse_marginal = bc.LogUtility.inverse_marginal

    def dual_start(*args):
        recording.append(True)
        passes.append([])
        try:
            return original_dual_start(*args)
        finally:
            recording.pop()

    def inverse_marginal(self, m):
        if recording:
            passes[-1].append(np.array(m, dtype=float, copy=True))
        return original_inverse_marginal(self, m)

    rng = np.random.default_rng(5)
    instances = [bc.load_problem(DATA / "log_binding.json")]
    instances += [two_action_instance(rng, S, name="log") for S in (2, 3, 4, 4, 6)]
    monkeypatch.setattr(kernel, "_dual_start", dual_start)
    monkeypatch.setattr(bc.LogUtility, "inverse_marginal", inverse_marginal)
    for inst in instances:
        bc.solve_second_best(inst, "H")

    assert len(passes) >= 3
    assert sum(len(p) for p in passes) > 30     # line searches ran and accepted
    repeats = [(i, k) for i, p in enumerate(passes) for k in range(1, len(p))
               if np.array_equal(p[k], p[k - 1])]
    assert repeats == []


def test_ir_only_returns_at_a_starting_multiplier_that_zeroes_the_residual(monkeypatch):
    """Homogeneous beliefs: the constant-wage multiplier solves risk sharing,
    so solve_ir_only evaluates inverse_marginal there once and returns."""
    calls = []
    original = bc.LogUtility.inverse_marginal

    def inverse_marginal(self, m):
        calls.append(np.array(m, dtype=float, copy=True))
        return original(self, m)

    inst = bc.load_problem(DATA / "log_binding.json")
    monkeypatch.setattr(bc.LogUtility, "inverse_marginal", inverse_marginal)
    sol = bc.solve_first_best(inst, "H")
    assert len(calls) == 1
    assert sol.wages[0] == sol.wages[1]
    assert sol.ir_residual == 0.0
