"""Brute-force grid minimizer: frozen cases, refinement, solver agreement."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import beliefcontracts as bc
from beliefcontracts.oracle import _BLOCK, _band_window
from support import (FAMILY_NAMES, brute_force_min_reference, draw_costs_and_reservation,
                     grid_around, make_family, rand_outputs, rand_simplex, ratio_ladder,
                     single_action_instance, two_action_instance)

D = lambda *p: bc.Distribution(tuple(p))
DATA = Path(__file__).parent / "data"


def log_two_state():
    return bc.ProblemInstance(
        (1.0, 2.0),
        (bc.ActionSpec("H", 1.0, D(0.25, 0.75), D(0.25, 0.75)),
         bc.ActionSpec("L", 0.0, D(0.25, 0.75), D(0.75, 0.25))),
        0.0, bc.LogUtility())


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(bc.ValidationError):
            bc.GridSpec(1.0, 0.0, 50)
        with pytest.raises(bc.ValidationError):
            bc.GridSpec(0.0, 1.0, 2)

    @pytest.mark.parametrize("v_lo, v_hi", [
        (-1.0, math.inf), (-math.inf, 2.0), (math.nan, 2.0), (-1.0, math.nan), ("-1", 2.0),
    ])
    def test_bounds_must_be_finite_numbers(self, v_lo, v_hi):
        # refused on construction, before np.linspace can warn about them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(bc.ValidationError, match="finite numbers"):
                bc.GridSpec(v_lo, v_hi, 30)

    @pytest.mark.parametrize("points", [3.5, 30.0, "30", None])
    def test_points_per_dim_must_be_an_integer(self, points):
        with pytest.raises(bc.ValidationError, match="integer points_per_dim"):
            bc.GridSpec(-1.0, 2.0, points)

    def test_numpy_scalars_are_accepted(self):
        g = bc.GridSpec(np.float64(-1.0), np.float64(2.0), np.int64(4))
        assert list(g.values()) == [-1.0, 0.0, 1.0, 2.0]

    def test_mode_must_be_a_solver_kind(self):
        inst = log_two_state()
        grid = bc.GridSpec(-1.0, 2.0, 20)
        # solve_second_best refuses this fixture; a bad mode is still what is reported
        refused = bc.load_problem(DATA / "log_lstsq_underflow.json")
        for mode in ("first_best", "second_best", None):
            with pytest.raises(bc.ValidationError):
                bc.brute_force_min(inst, "H", grid, mode=mode)
            with pytest.raises(bc.ValidationError):
                bc.oracle_audit(inst, "H", grid, mode=mode)
            with pytest.raises(bc.ValidationError):
                bc.oracle_audit(refused, "a1", grid, mode=mode)

    def test_default_tolerance_is_twice_the_step(self):
        g = bc.GridSpec(0.0, 1.0, 101)
        assert g.tol == pytest.approx(2 * 0.01)


class TestBruteForce:
    def test_homogeneous_first_best_hits_constant_wage(self):
        inst = bc.ProblemInstance(
            (1.0, 2.0),
            (bc.ActionSpec("a", 0.4, D(0.3, 0.7), D(0.3, 0.7)),),
            0.1, bc.LogUtility())
        grid = bc.GridSpec(-0.6, 1.6, 220)
        res = bc.brute_force_min(inst, "a", grid, mode=bc.SolverKind.FIRST_BEST)
        cell = bc.cell_cost_variation(inst, "a", grid)
        assert abs(res.cost - math.exp(0.5)) <= cell

    def test_hand_solved_second_best_cost(self):
        # binding system gives v = (-0.5, 1.5)
        truth = 0.25 * math.exp(-0.5) + 0.75 * math.exp(1.5)
        grid = bc.GridSpec(-1.6, 2.6, 220)
        res = bc.brute_force_min(log_two_state(), "H", grid)
        cell = bc.cell_cost_variation(log_two_state(), "H", grid)
        assert abs(res.cost - truth) <= cell

    def test_empty_feasible_box(self):
        grid = bc.GridSpec(5.0, 6.0, 50)   # far above the binding levels
        with pytest.raises(bc.NoFeasiblePoint):
            bc.brute_force_min(log_two_state(), "H", grid)

    def test_refinement_does_not_raise_cost(self):
        inst = log_two_state()
        coarse = bc.GridSpec(-1.6, 2.6, 80)
        fine = bc.GridSpec(-1.6, 2.6, 160)
        c = bc.brute_force_min(inst, "H", coarse)
        f = bc.brute_force_min(inst, "H", fine)
        assert f.cost <= c.cost + coarse.tol * 10

    def test_three_state_matches_solver(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            inst = two_action_instance(rng, 3)
            sol = bc.solve_second_best(inst, "H")
            grid = grid_around(inst, sol.utility_levels, 150)
            res = bc.brute_force_min(inst, "H", grid)
            cell = bc.cell_cost_variation(inst, "H", grid)
            assert abs(res.cost - sol.expected_cost_principal) <= cell

    def test_first_best_mode_single_action(self):
        rng = np.random.default_rng(32)
        inst = single_action_instance(rng, 3, name="log")
        sol = bc.solve_first_best(inst, "a")
        vs = np.asarray(sol.utility_levels)
        span = max(float(vs.max() - vs.min()), 0.3)
        grid = bc.GridSpec(float(vs.min() - 0.3 * span),
                           float(vs.max() + 0.3 * span), 150)
        res = bc.brute_force_min(inst, "a", grid, mode=bc.SolverKind.FIRST_BEST)
        assert abs(res.cost - sol.expected_cost_principal) <= \
            bc.cell_cost_variation(inst, "a", grid)


def oracle_outcome(fn, inst, target, grid, mode):
    """The repr of every returned float, or the error class."""
    try:
        res = fn(inst, target, grid, mode)
    except bc.BeliefContractsError as exc:
        return type(exc).__name__
    return repr((res.cost, res.v, res.wages))


def reference_draw(rng, S, A, family):
    """A actions whose agent beliefs rise in MLRP order with their cost,
    independent principal beliefs (a third of the time uniform, so that
    symmetric tail costs tie exactly) and a grid around the second-best
    utilities (around the participation level if that solve is refused),
    clamped to the utility range."""
    costs, ubar = draw_costs_and_reservation(rng, family, A)
    uniform = rng.random() < 0.3
    agent = [rand_simplex(rng, S)]
    for _ in range(A - 1):
        agent.append(ratio_ladder(rng, agent[-1], lo=1.05, hi=1.6))
    actions = tuple(
        bc.ActionSpec(f"a{i}", costs[i],
                      D(*(np.full(S, 1.0 / S) if uniform else rand_simplex(rng, S))),
                      D(*agent[i]))
        for i in range(A))
    inst = bc.ProblemInstance(rand_outputs(rng, S), actions, ubar, make_family(family))
    levels = [ubar + costs[-1] - 2.0, ubar + costs[-1] + 2.0]
    try:
        solved = bc.solve_second_best(inst, f"a{A - 1}").utility_levels
    except bc.BeliefContractsError:
        solved = levels
    if max(map(abs, solved)) < 50.0:     # keeps every grid wage finite
        levels = solved
    return inst, grid_around(inst, levels, REFERENCE_POINTS[S], pad=rng.uniform(0.1, 0.5))


REFERENCE_POINTS = {2: 80, 3: 40, 4: 14}


class TestReferenceLoop:
    """``brute_force_min`` returns what the per-head loop it replaced returns
    (``support.brute_force_min_reference``), bit for bit."""

    @pytest.mark.parametrize("S", [2, 3, 4])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_seeded_draws(self, S, family):
        rng = np.random.default_rng([S, FAMILY_NAMES.index(family)])
        outcomes = []
        for A in (2, 3) * 4:
            inst, grid = reference_draw(rng, S, A, family)
            target = f"a{A - 1}"
            # constraint_tol: the default 2 * step, none at all, a quarter step
            for tol in (None, 0.0, 0.25 * grid.step):
                g = bc.GridSpec(grid.v_lo, grid.v_hi, grid.points_per_dim, tol)
                for mode in bc.SolverKind:
                    expected = oracle_outcome(brute_force_min_reference, inst, target, g, mode)
                    assert oracle_outcome(bc.brute_force_min, inst, target, g, mode) == expected
                    outcomes.append(expected)
        assert sum(o.startswith("(") for o in outcomes) >= 16
        assert "NoFeasiblePoint" in outcomes

    @pytest.mark.parametrize("S", [2, 3, 4])
    def test_zero_tolerance_on_exact_sums(self, S):
        # dyadic agent beliefs on a grid of eighths make every q . v exact, so
        # points on the participation hyperplane pass with no tolerance at all
        agent = {2: (0.25, 0.75), 3: (0.25, 0.25, 0.5), 4: (0.125, 0.125, 0.25, 0.5)}[S]
        rng = np.random.default_rng(S)
        inst = bc.ProblemInstance(
            rand_outputs(rng, S),
            (bc.ActionSpec("H", 1.0, D(*rand_simplex(rng, S)), D(*agent)),
             bc.ActionSpec("L", 0.0, D(*rand_simplex(rng, S)), D(*agent[::-1]))),
            0.0, bc.LogUtility())
        grid = bc.GridSpec(-2.0, 2.0, 33, 0.0)
        for mode in bc.SolverKind:
            expected = oracle_outcome(brute_force_min_reference, inst, "H", grid, mode)
            assert expected.startswith("(")
            assert oracle_outcome(bc.brute_force_min, inst, "H", grid, mode) == expected

    @pytest.mark.parametrize("S", [2, 3, 4])
    def test_grid_with_no_feasible_point(self, S):
        inst, grid = reference_draw(np.random.default_rng(S), S, 2, "log")
        far = bc.GridSpec(grid.v_hi + 5.0, grid.v_hi + 6.0, REFERENCE_POINTS[S])
        for mode in bc.SolverKind:
            assert oracle_outcome(brute_force_min_reference, inst, "a1", far, mode) == \
                oracle_outcome(bc.brute_force_min, inst, "a1", far, mode) == "NoFeasiblePoint"

    def test_nan_cost_drops_only_its_point(self):
        # a zero principal probability times an overflowed wage makes some
        # feasible costs NaN; those points are no contracts and are dropped,
        # while the per-head loop passed over every head holding one and
        # returned v = (-390, -720, 480) at a cost of 2.1e-170
        inst = bc.ProblemInstance(
            (1.0, 2.0, 3.0),
            (bc.ActionSpec("H", 0.5, D(0.5, 0.5, 0.0), D(0.2, 0.3, 0.5)),
             bc.ActionSpec("L", 0.0, D(0.4, 0.3, 0.3), D(0.4, 0.3, 0.3))),
            0.5, bc.LogUtility())
        grid = bc.GridSpec(-720.0, 720.0, 49)
        for mode in bc.SolverKind:
            res = bc.brute_force_min(inst, "H", grid, mode)
            assert res.v == (-720.0, -720.0, 630.0)
            assert res.cost == pytest.approx(math.exp(-720.0), rel=1e-6)
            with np.errstate(over="ignore", invalid="ignore"):
                skipped = brute_force_min_reference(inst, "H", grid, mode)
            assert skipped.v == (-390.0, -720.0, 480.0)
            assert skipped.cost > 1e-171


def head_bounds(inst, target, grid):
    """Per head of a 3-state instance: its cost plus the least tail cost in its
    band window, the bound ``brute_force_min`` visits heads by, and the
    window's size."""
    act = inst.action(target)
    q, d = act.agent_beliefs.as_array(), act.principal_beliefs.as_array()
    vals = grid.values()
    wages = inst.utility.inverse(vals)
    tail = np.add.outer(q[1] * vals, q[2] * vals).ravel()
    order = np.argsort(tail, kind="stable")
    tail_cost = np.add.outer(d[1] * wages, d[2] * wages).ravel()[order]
    first, stop = _band_window(tail[order], q[0] * vals,
                               inst.reservation_utility + act.cost, grid.tol)
    bound = [d[0] * wages[h] + tail_cost[first[h]:stop[h]].min() for h in range(len(vals))]
    return np.array(bound), stop - first


#: the paper's regime: an unbounded-below utility range and the ordering chain
PAPER_FAMILIES = ("cara", "log", "crra_high")


class TestReferenceAtBenchmarkSize:
    """The benchmark's oracle grids (150 points at S = 3, 50 at S = 4), where
    most heads are never visited, still give the plain scan's answer."""

    @pytest.mark.parametrize("S, points", [(3, 150), (4, 50)])
    @pytest.mark.parametrize("family", PAPER_FAMILIES)
    def test_paper_regime_draws(self, S, points, family):
        rng = np.random.default_rng([S, points, PAPER_FAMILIES.index(family)])
        for _ in range(3):
            inst = two_action_instance(rng, S, name=family)
            sol = bc.solve_second_best(inst, "H")
            grid = grid_around(inst, sol.utility_levels, points, pad=0.35)
            for mode in bc.SolverKind:
                expected = oracle_outcome(brute_force_min_reference, inst, "H", grid, mode)
                assert expected.startswith("(")
                assert oracle_outcome(bc.brute_force_min, inst, "H", grid, mode) == expected

    def test_tie_found_in_a_head_visited_later(self):
        # the state-0 principal probability is 0, so every head costs 0 and
        # points sharing a tail tie exactly.  The head after the answer's has
        # the lower bound, so it is visited first, in a block of its own, and
        # holds a tying point, which must lose to the answer's smaller C-order
        # index.  The answer's head has a bound equal to the best cost, so a
        # search that stopped at such a bound would miss it.
        inst = bc.ProblemInstance(
            (1.0, 2.0, 3.0),
            (bc.ActionSpec("H", 0.5, D(0.0, 0.5, 0.5), D(0.25, 0.6, 0.15)),
             bc.ActionSpec("L", 0.0, D(0.0, 0.5, 0.5), D(0.5, 0.3, 0.2))),
            0.0, bc.LogUtility())
        grid = bc.GridSpec(-2.0, 2.0, 81, 0.97)
        expected = brute_force_min_reference(inst, "H", grid)
        vals = grid.values()
        h = int(np.flatnonzero(vals == expected.v[0])[0])
        bound, size = head_bounds(inst, "H", grid)
        assert bound[h + 1] < bound[h] == expected.cost and min(size[h], size[h + 1]) > _BLOCK
        # the same tail under head h + 1 passes both tests, at the same cost
        # (the participation level and the incentive right-hand side are 0.5)
        v = (vals[h + 1],) + expected.v[1:]
        q = inst.action("H").agent_beliefs.as_array()
        dq = q - inst.action("L").agent_beliefs.as_array()
        assert abs(q[0] * v[0] + (q[1] * v[1] + q[2] * v[2]) - 0.5) <= grid.tol
        assert dq[0] * v[0] + (dq[1] * v[1] + dq[2] * v[2]) - 0.5 >= -grid.tol
        assert 0.0 * math.exp(v[0]) + (0.5 * math.exp(v[1]) + 0.5 * math.exp(v[2])) == expected.cost
        assert oracle_outcome(bc.brute_force_min, inst, "H", grid, bc.SolverKind.SECOND_BEST) == \
            repr((expected.cost, expected.v, expected.wages))

    def test_heads_whose_cost_is_infinite_or_nan(self):
        # wages overflow above v = 709: a head with v_1 = 720 costs inf, and a
        # head with v_0 = 720 costs 0 * inf = NaN; the NaN heads would hold
        # the cheapest points, as the principal does not pay in state 0
        inst = bc.ProblemInstance(
            (1.0, 2.0, 3.0, 4.0),
            (bc.ActionSpec("H", 0.5, D(0.0, 0.25, 0.25, 0.5), D(0.1, 0.2, 0.3, 0.4)),
             bc.ActionSpec("L", 0.0, D(0.25, 0.25, 0.25, 0.25), D(0.4, 0.3, 0.2, 0.1))),
            0.0, bc.LogUtility())
        grid = bc.GridSpec(-720.0, 720.0, 25)
        for mode in bc.SolverKind:
            with np.errstate(over="ignore", invalid="ignore"):
                expected = oracle_outcome(brute_force_min_reference, inst, "H", grid, mode)
            res = bc.brute_force_min(inst, "H", grid, mode)
            assert repr((res.cost, res.v, res.wages)) == expected and res.v[0] < 720.0


class TestBandWindow:
    """Every tail sum left out of a head's window fails the exact band test."""

    @pytest.mark.parametrize("scale_exp", [(-300, 300), (-320, -308)])
    def test_sums_at_the_rounding_edge(self, scale_exp):
        # tail sums within a few dozen ulps of each head's band edges and
        # centre, where a window with no rounding margin loses passing points;
        # the second range reaches into the subnormals
        rng = np.random.default_rng(-scale_exp[0])
        passed = 0
        for trial in range(300):
            scale = 10.0 ** rng.uniform(*scale_exp)
            level = scale * rng.uniform(-2.0, 2.0)
            heads = scale * rng.uniform(-2.0, 2.0, 6)
            tol = [0.0, scale * rng.uniform(0.0, 1e-15), scale * rng.uniform(0.0, 1.0)][trial % 3]
            centres = np.concatenate([level - heads - tol, level - heads, level - heads + tol])
            ulps = np.spacing(np.abs(centres))
            tail = np.sort((centres[:, None] + np.arange(-24, 25) * ulps[:, None]).ravel())
            first, stop = _band_window(tail, heads, level, tol)
            for a, lo, hi in zip(heads, first, stop):
                inside = np.flatnonzero(np.abs(a + tail - level) <= tol)
                passed += inside.size
                assert inside.size == 0 or (lo <= inside[0] and inside[-1] < hi)
        assert passed > 0


class TestAudit:
    def test_audit_agrees(self):
        inst = log_two_state()
        report = bc.oracle_audit(inst, "H", bc.GridSpec(-1.6, 2.6, 200))
        assert report.within_tolerance

    def test_overflowing_grid_is_refused(self):
        # exp overflows above v = 709, so the cell cost is inf and every gap
        # would pass; the grid is refused instead, with no numpy warning
        inst = bc.ProblemInstance(
            (1.0, 2.0, 3.0),
            (bc.ActionSpec("H", 0.5, D(0.3, 0.3, 0.4), D(0.2, 0.3, 0.5)),
             bc.ActionSpec("L", 0.0, D(0.4, 0.3, 0.3), D(0.4, 0.3, 0.3))),
            0.5, bc.LogUtility())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for hi in (720.0, 760.0):     # one overflowed wage, then several
                grid = bc.GridSpec(-720.0, hi, 49)
                with pytest.raises(bc.ValidationError, match=r"grid \[-720.0, .*overflows"):
                    bc.cell_cost_variation(inst, "H", grid)
                with pytest.raises(bc.ValidationError, match="overflows"):
                    bc.oracle_audit(inst, "H", grid)

    @pytest.mark.parametrize("name, grid", [
        # driver_mix draws: the incentive multiplier is large, and the oracle
        # point sits at incentive slack -0.053 and -0.469 against tol 0.056
        # and 0.550, so the relaxation saves far more than one cell
        ("crra_oracle_ic_relaxation", bc.GridSpec(-4.340165687268751, -0.1603671762515266, 150)),
        ("cara_oracle_ic_relaxation", bc.GridSpec(-13.990562695758024, -0.5115623696708836, 50)),
    ])
    def test_cell_prices_the_incentive_relaxation(self, name, grid):
        inst = bc.load_problem(DATA / f"{name}.json")
        sol = bc.solve_second_best(inst, "H")
        assert bc.kkt_certificate(inst, "H", sol).passed
        report = bc.oracle_audit(inst, "H", grid)
        band_only = bc.cell_cost_variation(inst, "H", grid)
        assert abs(report.delta) > band_only
        assert report.cell_variation == band_only + grid.tol * sum(sol.mu)
        assert report.within_tolerance

    def test_audit_flags_coarse_grid(self):
        inst = log_two_state()
        # a grid band nowhere near the binding constraints
        with pytest.raises(bc.GridTooCoarse):
            bc.oracle_audit(inst, "H", bc.GridSpec(6.0, 7.0, 60))
