"""Numerical core: evaluation reuse in the multiplier searches and the
line-search halvings the multiplier Newton pass skips."""

from math import ldexp
from pathlib import Path

import numpy as np
import pytest

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


def plain_scan(M, theta, step):
    """Positivity part of the line search trying every halving in turn:
    (first admitted k, its alpha), or (50, 2^-50) when every halving fails."""
    alpha = 1.0
    for k in range(50):
        if (M.T @ (theta + alpha * step) > 0.0).all():
            return k, alpha
        alpha *= 0.5
    return 50, alpha


def resumed_scan(M, theta, step):
    """The same search resuming at kernel._resume_halving after the full step
    fails; also returns that resume point (None when the full step passes)."""
    k, resume = 0, None
    while k < 50:
        if kernel._positive_coefficients(M, theta + ldexp(1.0, -k) * step) is not None:
            break
        if k == 0:
            k = resume = kernel._resume_halving(M, theta, step)
        else:
            k += 1
    return k, ldexp(1.0, -k), resume


def assert_skips_only_failing_halvings(M, theta, step):
    k, alpha, resume = resumed_scan(M, theta, step)
    assert (k, alpha) == plain_scan(M, theta, step)
    if resume is not None:
        assert 1 <= resume <= 50
        for skipped in range(1, resume):
            coef = M.T @ (theta + ldexp(1.0, -skipped) * step)
            assert not (coef > 0.0).all(), (skipped, resume)
    return k, resume


def constraint_rows(rng, m, S):
    """A participation row of beliefs over incentive rows of belief differences."""
    beliefs = rng.dirichlet(np.ones(S), size=m)
    return np.vstack([beliefs[0], beliefs[0] - beliefs[1:]])


def test_resume_halving_on_random_line_searches():
    rng = np.random.default_rng(20241018)
    resumed = 0
    for _ in range(1500):
        m = int(rng.integers(1, 6))
        M = constraint_rows(rng, m, int(rng.integers(m, 11)))
        theta = np.concatenate([[rng.uniform(0.5, 5.0)], rng.normal(0.0, 0.3, m - 1)])
        if not (M.T @ theta > 0.0).all():
            continue
        step = rng.normal(0.0, 1.0, m) * 10.0 ** rng.uniform(-3.0, 6.0)
        _, resume = assert_skips_only_failing_halvings(M, theta, step)
        resumed += resume is not None
    assert resumed > 500


def test_resume_halving_on_adversarial_line_searches():
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(200):
        m = int(rng.integers(1, 6))
        S = int(rng.integers(m, 11))
        M = constraint_rows(rng, m, S)
        theta = np.concatenate([[1.0], rng.normal(0.0, 0.2, m - 1)])
        step = rng.normal(0.0, 1.0, m)
        # coefficients and steps down to 1e-300
        scale = 10.0 ** -rng.uniform(250.0, 300.0)
        cases.append((M, theta * scale, step * scale))
        cases.append((M, theta * scale, step))
        # cancellation in M^T theta: one coefficient is rounding noise, which
        # a threshold without the rounding bound gets wrong on these steps
        if m > 1:
            s = int(rng.integers(S))
            cancel = theta.copy()
            cancel[-1] = -(M[:-1, s] @ theta[:-1]) / M[-1, s]
            shrink = -cancel * rng.uniform(0.5, 2.0)
            for near in (step, step * 10.0 ** rng.uniform(-17.0, -12.0),
                         shrink + rng.normal(0.0, 1e-16, m)):
                cases.append((M, cancel, near))
            cases.append((M, cancel + 1e-15 * np.abs(cancel).max(), step))
            # the same in the subnormal range, where products underflow
            tiny = ldexp(1.0, -int(rng.integers(1020, 1070)))
            cases.append((M, cancel * tiny, (shrink + rng.normal(0.0, 1e-3, m)) * tiny))
    # d = 0 entries: integer data, so M^T step has exact zeros
    M = np.array([[1.0, 1.0, 1.0, 2.0], [1.0, -1.0, 0.0, 1.0]])
    for theta in ([1.0, 0.5], [3.0, -0.5], [1.0, 0.0]):
        for step in ([1.0, 1.0], [-1.0, -1.0], [-2.0, 2.0], [0.0, 0.0], [-8.0, 0.0]):
            cases.append((M, np.array(theta), np.array(step)))
    # crossings exactly at a halving: 1 - 2^j alpha hits 0 at alpha = 2^-j
    for j in range(0, 52):
        cases.append((np.ones((1, 3)), np.array([1.0]), np.array([-ldexp(1.0, j)])))
    # every halving fails: the boundary is closer than 2^-50
    cases.append((np.ones((1, 2)), np.array([1e-20]), np.array([-1.0])))
    cases.append((np.array([[1.0, 1.0]]), np.array([1e-300]), np.array([-1e300])))
    # a non-positive start, where every halving fails, and a NaN step, where
    # the bound proves nothing
    cases.append((np.array([[1.0, -1.0]]), np.array([1.0]), np.array([0.5])))
    cases.append((np.ones((2, 3)), np.array([1.0, 1.0]), np.array([np.nan, -1.0])))

    outcomes = [assert_skips_only_failing_halvings(M, theta, step) for M, theta, step in cases]
    assert any(k == 50 and resume == 50 for k, resume in outcomes)
    assert any(k == 50 and resume is not None and resume < 50 for k, resume in outcomes)
    assert any(resume is not None and 1 < resume < k for k, resume in outcomes)


def test_dual_start_skips_the_halvings_that_provably_fail(monkeypatch):
    """A sqrt draw whose multipliers creep to the boundary of the positive cone
    and are refused after 27 Newton steps.  Trying every halving costs 792
    exact positivity checks; the skip leaves 59, at most 3 per Newton step on
    average (late steps, where M^T theta cancels, take up to 4), and every
    skipped halving fails the exact test."""
    steps, checks, resumes = [], [], []
    original_check = kernel._positive_coefficients
    original_resume = kernel._resume_halving
    original_curvature = bc.SqrtUtility.inverse_second_derivative

    def positive_coefficients(M, theta):
        checks.append(1)
        return original_check(M, theta)

    def resume_halving(M, theta, step):
        resumes.append((M.copy(), theta.copy(), step.copy()))
        return original_resume(M, theta, step)

    def inverse_second_derivative(self, v):     # once per multiplier Newton step
        steps.append(1)
        return original_curvature(self, v)

    monkeypatch.setattr(kernel, "_positive_coefficients", positive_coefficients)
    monkeypatch.setattr(kernel, "_resume_halving", resume_halving)
    monkeypatch.setattr(bc.SqrtUtility, "inverse_second_derivative", inverse_second_derivative)
    inst = bc.load_problem(DATA / "sqrt_dual_stall.json")
    with pytest.raises(bc.KKTDegeneracy) as refused:
        bc.solve_second_best(inst, "a3")
    assert str(refused.value) == "non-positive first-order coefficient during multiplier solve"
    assert len(steps) == 27
    assert len(steps) <= len(checks) <= 3 * len(steps)
    monkeypatch.undo()
    assert len(resumes) > 20
    for M, theta, step in resumes:
        assert_skips_only_failing_halvings(M, theta, step)
