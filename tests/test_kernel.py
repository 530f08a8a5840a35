"""Numerical core: the risk-sharing multiplier against its closed forms,
evaluation reuse in the multiplier searches and the null-space polish."""

import itertools
from math import exp
from pathlib import Path

import numpy as np
import pytest

import beliefcontracts as bc
from beliefcontracts import kernel, second_best
from support import (draw_costs_and_reservation, make_family, rand_simplex,
                     two_action_instance)

DATA = Path(__file__).parent / "data"


def test_dual_ascent_never_evaluates_a_point_twice_in_a_row(monkeypatch):
    """The line search's accepted trial point is the next iterate as evaluated,
    so consecutive inverse_marginal calls within one solve always differ."""
    passes = []      # inverse_marginal arguments, one list per solve_dual call
    recording = []
    original_solve_dual = second_best.solve_dual
    original_inverse_marginal = bc.LogUtility.inverse_marginal

    def solve_dual(*args):
        recording.append(True)
        passes.append([])
        try:
            return original_solve_dual(*args)
        finally:
            recording.pop()

    def inverse_marginal(self, m):
        if recording:
            passes[-1].append(np.array(m, dtype=float, copy=True))
        return original_inverse_marginal(self, m)

    rng = np.random.default_rng(5)
    instances = [bc.load_problem(DATA / "log_binding.json")]
    instances += [two_action_instance(rng, S, name="log") for S in (2, 3, 4, 4, 6)]
    monkeypatch.setattr(second_best, "solve_dual", solve_dual)
    monkeypatch.setattr(bc.LogUtility, "inverse_marginal", inverse_marginal)
    for inst in instances:
        bc.solve_second_best(inst, "H")

    assert len(passes) == len(instances)
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


def closed_form_lam(model, delta, q, level):
    """The participation multiplier of risk sharing in closed form."""
    ratio = delta / q
    if isinstance(model, bc.LogUtility):
        return exp(level + q @ np.log(ratio))
    if isinstance(model, bc.CaraUtility):
        return -delta.sum() / (model.r * level)
    if isinstance(model, bc.CrraUtility):
        g = model.gamma
        return (level * (1.0 - g) / (q @ ratio ** ((g - 1.0) / g))) ** (g / (1.0 - g))
    assert isinstance(model, bc.SqrtUtility)
    return 2.0 * level / (q * q / delta).sum()


def closed_form_draws():
    """(scale, delta, q, model, level, lam) on S = 2..10 for every closed-form
    family: risk sharing with cost weights scale * delta, where lam is the
    closed-form multiplier.  With scale 1 these are first-best problems, and
    the multiplier lies below the constant-wage start, so the bracket search
    halves it (cara's start is exact, up to rounding); a scale up to 8 puts it
    above the start on most draws, so the search doubles.  Two log draws at
    levels -40 and -60 put lam near 1e-18 and 1e-26, where a bracket width of
    1e-12 absolute, not relative, stopped at once with a relative error of
    8e-5."""
    rng = np.random.default_rng(20261018)
    draws = []
    for name in ("cara", "log", "crra_low", "crra_high", "sqrt"):
        for S in range(2, 11):
            for scale in (1.0, 1.0, float(rng.uniform(1.0, 8.0))):
                delta, q = rand_simplex(rng, S), rand_simplex(rng, S)
                (cost,), ubar = draw_costs_and_reservation(rng, name, 1)
                model = make_family(name)
                level = ubar + cost
                lam = closed_form_lam(model, scale * delta, q, level)
                draws.append((scale, delta, q, model, level, lam))
    delta, q = np.array([0.2, 0.3, 0.5]), np.array([0.5, 0.3, 0.2])
    for level in (-40.0, -60.0):
        model = bc.LogUtility()
        draws.append((1.0, delta, q, model, level, closed_form_lam(model, delta, q, level)))
    return draws


def solve_draw(scale, delta, q, model, level):
    """(lam, wages) from solve_first_best, or from the kernel when the cost
    weights are not a probability vector."""
    if scale != 1.0:
        _, wages, lam = kernel.solve_ir_only(scale * delta, q, model, level)
        return lam, wages
    inst = bc.ProblemInstance(
        tuple(float(i + 1) for i in range(len(q))),
        (bc.ActionSpec("a", 0.0, bc.Distribution(tuple(delta)), bc.Distribution(tuple(q))),),
        level, model)
    sol = bc.solve_first_best(inst, "a")
    return sol.lam, sol.wages


def test_risk_sharing_multiplier_and_wages_match_the_closed_forms():
    draws = closed_form_draws()
    doubles = [lam > model.inverse_derivative(level)
               for _, _, _, model, level, lam in draws]
    assert 20 <= sum(doubles) <= len(draws) - 20
    for scale, delta, q, model, level, lam in draws:
        got_lam, got_wages = solve_draw(scale, delta, q, model, level)
        wages = model.inverse_marginal(scale * delta / q / lam)
        assert got_lam == pytest.approx(lam, rel=1e-12, abs=0.0)
        assert np.asarray(got_wages) == pytest.approx(wages, rel=1e-12, abs=0.0)


def test_ir_only_needs_few_residual_evaluations(monkeypatch):
    """Bracket search plus safeguarded Newton: at most 8 residual evaluations
    (one inverse_marginal call each) per solve on average; bisecting the
    bracket to 1e-12 took about 40."""
    draws = closed_form_draws()
    calls = []
    original = bc.UtilityModel.inverse_marginal

    def inverse_marginal(self, m):
        calls.append(1)
        return original(self, m)

    monkeypatch.setattr(bc.UtilityModel, "inverse_marginal", inverse_marginal)
    for scale, delta, q, model, level, _ in draws:
        solve_draw(scale, delta, q, model, level)
    assert len(calls) <= 8 * len(draws)


def test_rtsafe_newton_and_bisection_on_a_falling_function():
    """The slope is asked once per step and only at points already evaluated;
    an unusable slope (NaN, or of the wrong sign) falls back to bisection
    and still stops at the bracket width."""
    evaluated, asked = [], []

    def point(x):
        evaluated.append(x)
        value = 1.0 - x ** 3
        return x, value, value > 0.0       # lo, at x = 0, lies where value > 0

    def slope(p):
        asked.append(p[0])
        return -3.0 * p[0] ** 2

    lo, hi = point(0.0), point(3.0)
    x, value, _ = kernel.rtsafe(point, slope, lo, hi, lambda x: 1e-15 * x,
                                lambda a, b: 1e-12)
    assert abs(x - 1.0) <= 1e-15 and abs(value) <= 4e-16
    assert set(asked) <= set(evaluated) and len(asked) == len(evaluated) - 1
    assert len(evaluated) <= 12

    for bad in (lambda p: np.nan, lambda p: 3.0 * p[0] ** 2):
        evaluated.clear()
        x, _, _ = kernel.rtsafe(point, bad, point(0.0), point(3.0),
                                lambda x: 1e-15, lambda a, b: 1e-9)
        assert abs(x - 1.0) <= 1e-9 and len(evaluated) == 2 + 32


def planted_affine_draw(rng, name, m, S, spread=1.0):
    """(weights, M, r, model): a participation row of beliefs over m - 1
    incentive rows of belief differences (scaled by ``spread``), with an
    interior optimum planted at v* = u(w*): r = M v* and weights chosen so
    that weight_s h'(v*_s) = (M^T theta*)_s for a multiplier theta* whose
    coefficients M^T theta* are positive."""
    model = make_family(name)
    beliefs = rng.dirichlet(np.full(S, 3.0), size=m)
    M = np.vstack([beliefs[0], spread * (beliefs[0] - beliefs[1:])])
    while True:
        theta = np.concatenate([[rng.uniform(0.5, 3.0)], rng.normal(0.0, 0.3, m - 1)])
        if (M.T @ theta > 0.0).all():
            break
    v_star = np.asarray(model.evaluate(rng.uniform(0.5, 3.0, S)), dtype=float)
    weights = (M.T @ theta) / np.asarray(model.inverse_derivative(v_star), dtype=float)
    return weights, M, M @ v_star, model


def assert_affine_contract(weights, M, r, model):
    """Started from the dual ascent's point (every row but participation an
    equality), the returned point is feasible to rounding, strictly interior,
    and its multipliers meet the first-order conditions state by state."""
    start = second_best.solve_dual(weights, M, r, len(M) - 1, model, 1e-9)[0]
    sol = kernel.minimize_on_affine(weights, M, r, model, start)
    v, theta = np.asarray(sol.v), np.asarray(sol.multipliers)
    assert np.abs(M @ v - r).max() <= 1e-12 * max(1.0, np.abs(r).max())
    lo, hi = model.utility_range
    assert (v > lo).all() and (v < hi).all()
    target = weights * np.asarray(model.inverse_derivative(v), dtype=float)
    assert np.max(np.abs(target - M.T @ theta) / target) <= 1e-9
    return sol


@pytest.mark.parametrize("name", ["cara", "log", "crra_low", "crra_high", "sqrt"])
def test_minimize_on_affine_contract_on_planted_draws(name):
    """S = 2..10 and every m from 1 to min(5, S), so m = S on S <= 5."""
    rng = np.random.default_rng(20261019)
    square = 0
    for S in range(2, 11):
        for m in range(1, min(5, S) + 1):
            weights, M, r, model = planted_affine_draw(rng, name, m, S)
            sol = assert_affine_contract(weights, M, r, model)
            square += m == S
            assert len(sol.multipliers) == m
    assert square == 4


def test_minimize_on_affine_contract_on_nearly_dependent_rows():
    """Incentive rows of belief differences shrunk to 1e-6: every m x m
    column block of M, so any pivot block an elimination could pick, has a
    condition number above 1e6, while the null-space basis stays orthonormal."""
    rng = np.random.default_rng(31)
    for name in ("cara", "log", "crra_high"):
        weights, M, r, model = planted_affine_draw(rng, name, 3, 5, spread=1e-6)
        blocks = [M[:, list(c)] for c in itertools.combinations(range(5), 3)]
        assert min(np.linalg.cond(B) for B in blocks) > 1e6
        assert_affine_contract(weights, M, r, model)


@pytest.mark.parametrize("name", ["cara", "log", "crra_low", "crra_high", "sqrt"])
def test_sensitivity_matches_central_differences(name):
    """(dv, dtheta) of a 3-row program's optimum as the weights, one row and
    one level move, against central differences of ``minimize_on_affine``'s
    solution with the moved data."""
    rng = np.random.default_rng(61)
    weights, M, r, model = planted_affine_draw(rng, name, 3, 5)
    e = np.array([1.0, 0.0, 0.0, -1.0, 0.0])
    moved_row = np.zeros_like(M)
    moved_row[1] = 0.1 * e
    h = 1e-6
    start = np.asarray(model.evaluate(np.ones(5)))

    def solve(d_weights, d_M, d_r, t):
        sol = kernel.minimize_on_affine(weights + t * d_weights, M + t * d_M,
                                        r + t * d_r, model, start)
        return np.asarray(sol.v), np.asarray(sol.multipliers)

    v, theta = solve(0.0, 0.0, 0.0, 0.0)
    for direction in ((0.1 * weights * e, 0.0, 0.0), (0.0, moved_row, 0.0),
                      (0.0, 0.0, np.array([0.0, 0.0, 0.1]))):
        dv, dtheta = kernel.sensitivity(weights, M, theta, v, model, *direction)
        (v_hi, th_hi), (v_lo, th_lo) = (solve(*direction, t) for t in (h, -h))
        for got, hi_, lo_ in ((dv, v_hi, v_lo), (dtheta, th_hi, th_lo)):
            fd = (hi_ - lo_) / (2.0 * h)
            assert np.abs(got - fd).max() <= 1e-6 * np.abs(fd).max()
