"""Numerical core: risk sharing against its own conditions and its utility
evaluation count, evaluation reuse in the dual ascent, the solvers' use of the
closed forms in place of the checked public methods, the scalar root-finder,
the null-space polish and the sensitivity."""

import itertools
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import beliefcontracts as bc
from beliefcontracts import kernel, second_best
from support import (FAMILY_NAMES, draw_costs_and_reservation, make_family, rand_simplex,
                     two_action_instance)

DATA = Path(__file__).parent / "data"
PUBLIC_METHODS = ("evaluate", "marginal", "second_derivative", "inverse", "inverse_derivative",
                  "inverse_second_derivative", "inverse_marginal", "contains_utility")
CLOSED_FORMS = ("_u", "_u_prime", "_u_second", "_h", "_h_prime", "_h_second", "_u_prime_inv")


def spy_on(monkeypatch, cls, methods, calls: Counter):
    """Count each call of ``methods`` on ``cls`` in ``calls``."""
    for method in methods:
        def spy(self, x, original=getattr(cls, method), method=method):
            calls[method] += 1
            return original(self, x)
        monkeypatch.setattr(cls, method, spy)


def test_dual_ascent_never_evaluates_a_point_twice_in_a_row(monkeypatch):
    """The line search's accepted trial point is the next iterate as evaluated,
    so consecutive (u')^-1 calls within one solve always differ."""
    passes = []      # (u')^-1 arguments, one list per solve_dual call
    recording = []
    original_solve_dual = second_best.solve_dual
    original_u_prime_inv = bc.LogUtility._u_prime_inv

    def solve_dual(*args):
        recording.append(True)
        passes.append([])
        try:
            return original_solve_dual(*args)
        finally:
            recording.pop()

    def u_prime_inv(self, m):
        if recording:
            passes[-1].append(np.array(m, dtype=float, copy=True))
        return original_u_prime_inv(self, m)

    rng = np.random.default_rng(5)
    instances = [bc.load_problem(DATA / "log_binding.json")]
    instances += [two_action_instance(rng, S, name="log") for S in (2, 3, 4, 4, 6)]
    monkeypatch.setattr(second_best, "solve_dual", solve_dual)
    monkeypatch.setattr(bc.LogUtility, "_u_prime_inv", u_prime_inv)
    for inst in instances:
        bc.solve_second_best(inst, "H")

    assert len(passes) == len(instances)
    assert sum(len(p) for p in passes) > 30     # line searches ran and accepted
    repeats = [(i, k) for i, p in enumerate(passes) for k in range(1, len(p))
               if np.array_equal(p[k], p[k - 1])]
    assert repeats == []


def test_ir_only_pays_homogeneous_beliefs_a_constant_wage(monkeypatch):
    """Homogeneous beliefs: every state has the same marginal utility, so
    risk sharing pays one wage, from one (u')^-1 call."""
    calls = []
    original = bc.LogUtility._u_prime_inv

    def u_prime_inv(self, m):
        calls.append(np.array(m, dtype=float, copy=True))
        return original(self, m)

    inst = bc.load_problem(DATA / "log_binding.json")
    monkeypatch.setattr(bc.LogUtility, "_u_prime_inv", u_prime_inv)
    sol = bc.solve_first_best(inst, "H")
    assert len(calls) == 1
    assert sol.wages[0] == sol.wages[1]
    assert sol.ir_residual == 0.0


def closed_form_draws():
    """(scale, delta, q, model, level) on S = 2..10 for every closed-form
    family: risk sharing with cost weights scale * delta, a first-best
    problem when scale is 1 and a kernel call with weights that are not a
    probability vector when it is drawn from (1, 8).  Two log draws at
    levels -40 and -60 put the multiplier near 1e-18 and 1e-26."""
    rng = np.random.default_rng(20261018)
    draws = []
    for name in ("cara", "log", "crra_low", "crra_high", "sqrt"):
        for S in range(2, 11):
            for scale in (1.0, 1.0, float(rng.uniform(1.0, 8.0))):
                delta, q = rand_simplex(rng, S), rand_simplex(rng, S)
                (cost,), ubar = draw_costs_and_reservation(rng, name, 1)
                draws.append((scale, delta, q, make_family(name), ubar + cost))
    delta, q = np.array([0.2, 0.3, 0.5]), np.array([0.5, 0.3, 0.2])
    for level in (-40.0, -60.0):
        draws.append((1.0, delta, q, bc.LogUtility(), level))
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


def test_risk_sharing_meets_its_first_order_and_participation_conditions():
    """Each draw judged by its own conditions, not by a formula for lam:
    weights_s = lam q_s u'(w_s) state by state and q . u(w) = level, both
    within rounding."""
    for scale, delta, q, model, level in closed_form_draws():
        lam, wages = solve_draw(scale, delta, q, model, level)
        weights, wages = scale * delta, np.asarray(wages)
        foc = np.abs(weights - lam * q * model.marginal(wages)) / weights
        assert foc.max() <= 1e-13
        assert abs(q @ model.evaluate(wages) - level) <= 1e-13 * max(1.0, abs(level))


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_ir_only_makes_one_utility_evaluation_of_each_kind(monkeypatch, name):
    """The multiplier is a closed form: one (u')^-1 call for the wages and one
    u call for their utilities, both unchecked behind the kernel's own masks,
    and no search (no slope from u'', no constant-wage start from h')."""
    rng = np.random.default_rng(17)
    delta, q = rand_simplex(rng, 5), rand_simplex(rng, 5)
    (cost,), ubar = draw_costs_and_reservation(rng, name, 1)
    model = make_family(name)
    calls = Counter()
    spy_on(monkeypatch, bc.UtilityModel, PUBLIC_METHODS[:-1], calls)
    spy_on(monkeypatch, type(model), CLOSED_FORMS, calls)
    kernel.solve_ir_only(delta, q, model, ubar + cost)
    assert calls == Counter(_u_prime_inv=1, _u=1)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_binding_second_best_checks_no_point_through_the_public_methods(monkeypatch, name):
    """Every point a binding solve evaluates has passed the solver's own
    interval tests, so it calls the closed forms only: of the public methods
    just ``contains_utility``, risk sharing's test of the participation level."""
    rng = np.random.default_rng(23)
    inst = next(inst for inst in (two_action_instance(rng, 4, name=name) for _ in range(40))
                if not bc.solve_second_best(inst, "H").coincides_with_first_best)
    calls = Counter()
    spy_on(monkeypatch, bc.UtilityModel, PUBLIC_METHODS, calls)
    sol = bc.solve_second_best(inst, "H")
    assert max(sol.mu) > 0.0
    assert set(calls) == {"contains_utility"}


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_ir_only_answers_within_rounding_or_refuses_a_level_past_double_precision(name):
    """Levels where lam, a marginal utility or a wage leaves the doubles (log
    at 720, -745 and -800, sqrt at 1e-170 and 1e160, crra gamma=2 at -1e-200
    among them) raise a package error, never a numpy warning or a bare
    OverflowError; every level the family does reach is met within rounding."""
    delta, q = np.array([0.2, 0.3, 0.5]), np.array([0.5, 0.3, 0.2])
    model = make_family(name)
    answered = 0
    for level in (700.0, 720.0, -745.0, -800.0, -1e300, 1e-170, 1e160, -1e-200):
        try:
            v, wages, lam = kernel.solve_ir_only(delta, q, model, level)
        except bc.BeliefContractsError:
            continue
        answered += 1
        assert 0.0 < lam < np.inf
        assert abs(q @ v - level) <= 1e-13 * max(1.0, abs(level))
        assert np.array_equal(v, model.evaluate(wages))
    assert answered >= 2


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
    start = second_best.solve_dual(weights, M, r, len(M) - 1, model)[0]
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


def test_the_polish_never_fits_one_matrix_twice(monkeypatch):
    """A halving whose trial z + alpha dz rounds to z is the current point, and
    so is every shorter one: the line search stops there instead of fitting
    that point again; a trial that rounds onto a point fitted before reuses
    that fit.  So no polish fits the same scaled matrix twice."""
    fits = []       # the scaled matrices each polish fits
    lstsq, polish = np.linalg.lstsq, second_best.minimize_on_affine

    def fit(a, *args, **kwargs):
        fits[-1].append(a.tobytes())
        return lstsq(a, *args, **kwargs)

    def recorded_polish(*args):
        fits.append([])
        return polish(*args)

    monkeypatch.setattr(np.linalg, "lstsq", fit)
    monkeypatch.setattr(second_best, "minimize_on_affine", recorded_polish)
    for case in json.loads((DATA / "log_stalled_polish.json").read_text())["cases"]:
        inst = bc.parse_problem(json.dumps(case["problem"]))
        with pytest.raises(bc.KKTDegeneracy):       # each stalls, is polished and refused
            bc.solve_second_best(inst, case["target"])
    assert sum(map(len, fits)) > len(fits) > 1       # some polish took a step
    assert all(len(set(f)) == len(f) for f in fits)


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
