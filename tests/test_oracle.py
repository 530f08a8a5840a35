"""Brute-force grid minimizer: frozen cases, refinement, solver agreement."""

import math
from pathlib import Path

import numpy as np
import pytest

import beliefcontracts as bc
from support import grid_around, single_action_instance, two_action_instance

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


class TestAudit:
    def test_audit_agrees(self):
        inst = log_two_state()
        report = bc.oracle_audit(inst, "H", bc.GridSpec(-1.6, 2.6, 200))
        assert report.within_tolerance

    def test_audit_flags_coarse_grid(self):
        inst = log_two_state()
        # a grid band nowhere near the binding constraints
        with pytest.raises(bc.GridTooCoarse):
            bc.oracle_audit(inst, "H", bc.GridSpec(6.0, 7.0, 60))
