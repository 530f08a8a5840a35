"""Hidden-action solver: hand-solved cases, KKT certificates, diagnostics."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import beliefcontracts as bc
from beliefcontracts import Monotonicity
from support import two_action_instance

DATA = Path(__file__).parent / "data"

D = lambda *p: bc.Distribution(tuple(p))


def log_two_state():
    # both constraints bind: v = (-0.5, 1.5) by hand
    return bc.ProblemInstance(
        (1.0, 2.0),
        (bc.ActionSpec("H", 1.0, D(0.25, 0.75), D(0.25, 0.75)),
         bc.ActionSpec("L", 0.0, D(0.25, 0.75), D(0.75, 0.25))),
        0.0, bc.LogUtility())


def red_line_instance():
    # principal very optimistic about the low state: incentives come free
    return bc.ProblemInstance(
        (1.0, 2.0),
        (bc.ActionSpec("H", 1.0, D(0.95, 0.05), D(0.25, 0.75)),
         bc.ActionSpec("L", 0.0, D(0.75, 0.25), D(0.75, 0.25))),
        0.0, bc.LogUtility())


class TestSolveSecondBest:
    def test_hand_solved_log_two_state(self):
        sol = bc.solve_second_best(log_two_state(), "H")
        assert sol.utility_levels == pytest.approx((-0.5, 1.5), abs=1e-12)
        assert sol.wages[0] == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert sol.wages[1] == pytest.approx(math.exp(1.5), rel=1e-12)
        assert not sol.coincides_with_first_best
        assert sol.mu[0] > 0
        assert abs(sol.ir_residual) <= 1e-9
        assert sol.ic_slacks[0] == pytest.approx(0.0, abs=1e-9)

    def test_slack_incentives_return_first_best(self):
        inst = red_line_instance()
        sol = bc.solve_second_best(inst, "H")
        fb = bc.solve_first_best(inst, "H")
        assert sol.coincides_with_first_best
        assert sol.mu == (0.0,)
        assert sol.wages == pytest.approx(fb.wages, abs=1e-9)
        assert min(sol.ic_slacks) > 0

    def test_grossman_hart_benchmark_against_oracle(self):
        # homogeneous beliefs within each action, MLRP across actions
        inst = bc.ProblemInstance(
            (1.0, 2.0, 3.0),
            (bc.ActionSpec("H", 0.7, D(0.15, 0.3, 0.55), D(0.15, 0.3, 0.55)),
             bc.ActionSpec("L", 0.0, D(0.5, 0.3, 0.2), D(0.5, 0.3, 0.2))),
            0.1, bc.LogUtility())
        sol = bc.solve_second_best(inst, "H")
        assert sol.mu[0] > 0
        assert bc.classify_monotonicity(sol.wages) is Monotonicity.INCREASING
        vs = np.asarray(sol.utility_levels)
        span = float(vs.max() - vs.min())
        grid = bc.GridSpec(float(vs.min()) - 0.3 * span, float(vs.max()) + 0.3 * span, 180)
        res = bc.brute_force_min(inst, "H", grid)
        assert abs(res.cost - sol.expected_cost_principal) <= \
            bc.cell_cost_variation(inst, "H", grid)

    def test_cost_dominates_first_best(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            inst = two_action_instance(rng, int(rng.integers(2, 5)))
            sol = bc.solve_second_best(inst, "H")
            fb = bc.solve_first_best(inst, "H")
            assert sol.expected_cost_principal >= fb.expected_cost_principal - 1e-9
            if sol.coincides_with_first_best:
                assert sol.expected_cost_principal == pytest.approx(
                    fb.expected_cost_principal, abs=1e-9)

    def test_two_state_binding_contract_ignores_principal_tilts(self):
        # with both constraints binding the two-state contract is pinned
        inst = log_two_state()
        base = bc.solve_second_best(inst, "H")
        tilted = inst.tilted(bc.Party.PRINCIPAL, "H", 0, 1, 1e-3)
        moved = bc.solve_second_best(tilted, "H")
        assert moved.wages == pytest.approx(base.wages, abs=1e-8)

    def test_contract_independent_of_principal_low_beliefs(self):
        rng = np.random.default_rng(22)
        inst = two_action_instance(rng, 3)
        base = bc.solve_second_best(inst, "H")
        low = inst.action("L")
        swapped = bc.ProblemInstance(
            inst.outputs,
            (inst.action("H"),
             bc.ActionSpec("L", low.cost, D(0.6, 0.25, 0.15), low.agent_beliefs)),
            inst.reservation_utility, inst.utility)
        moved = bc.solve_second_best(swapped, "H")
        assert moved.wages == pytest.approx(base.wages, abs=0.0)

    def test_kkt_certificate_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            inst = two_action_instance(rng, int(rng.integers(2, 5)), chain=False)
            sol = bc.solve_second_best(inst, "H")
            assert bc.kkt_certificate(inst, "H", sol, tol=1e-8).passed

    def test_three_actions_active_set(self):
        inst = bc.ProblemInstance(
            (1.0, 2.0, 3.0),
            (bc.ActionSpec("high", 1.0, D(0.1, 0.3, 0.6), D(0.1, 0.3, 0.6)),
             bc.ActionSpec("mid", 0.45, D(0.3, 0.4, 0.3), D(0.3, 0.4, 0.3)),
             bc.ActionSpec("low", 0.0, D(0.6, 0.3, 0.1), D(0.6, 0.3, 0.1))),
            0.1, bc.LogUtility())
        sol = bc.solve_second_best(inst, "high")
        assert len(sol.mu) == 2
        assert min(sol.mu) >= -1e-9
        assert min(sol.ic_slacks) >= -1e-9
        assert bc.kkt_certificate(inst, "high", sol).passed

    def test_infeasible_is_reported(self):
        # exponential family: huge cost gap leaves no incentive-compatible contract
        inst = bc.ProblemInstance(
            (1.0, 2.0),
            (bc.ActionSpec("H", 5.0, D(0.5, 0.5), D(0.45, 0.55)),
             bc.ActionSpec("L", 0.0, D(0.5, 0.5), D(0.55, 0.45))),
            -6.0, bc.CaraUtility(r=1.0))
        with pytest.raises((bc.Infeasible, bc.KKTDegeneracy)):
            bc.solve_second_best(inst, "H")

    def test_underflowing_first_order_scale_is_kkt_degeneracy(self):
        # weights * h'(v) underflows to 0 during the reduced Newton; lstsq
        # would raise LinAlgError on the resulting non-finite rows
        inst = bc.load_problem(DATA / "log_lstsq_underflow.json")
        with pytest.raises(bc.KKTDegeneracy, match="stationarity scale"):
            bc.solve_second_best(inst, "a1")

    @pytest.mark.parametrize("name, target, boxed", [
        ("log_overflow_warning.json", "a3", False),
        ("log_overflow_wage_box.json", "a4", True),
    ])
    def test_overflowing_first_order_scale_is_refused_without_a_warning(
            self, name, target, boxed):
        # weight_s h'(v_s) = weight_s exp(v_s) overflows to inf on these log
        # draws (the second only inside a wage box cut from its free wages);
        # the refusal is the only signal, no numpy RuntimeWarning leaks
        inst = bc.load_problem(DATA / name)
        box = None
        if boxed:
            free = bc.solve_second_best(inst, target)
            lo, hi = min(free.wages), max(free.wages)
            box = (lo + 0.3 * (hi - lo), hi + 1.0)
        message = ("stationarity scale weight_s h'(v_s) left (0, inf): the first-order "
                   "conditions are conditioned beyond double precision")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(bc.KKTDegeneracy) as refused:
                bc.solve_second_best(inst, target, wage_box=box)
        assert str(refused.value) == message

    def test_wage_box_pins_and_reports(self):
        # slack incentives: capping the top wage re-optimizes along participation
        inst = red_line_instance()
        free = bc.solve_second_best(inst, "H")
        assert free.wages[1] > 5.0
        sol = bc.solve_second_best(inst, "H", wage_box=(0.05, 5.0))
        assert sol.wages[1] == pytest.approx(5.0, rel=1e-9)
        assert 1 in sol.upper_bound_states
        # participation still binds and the low wage absorbs the cap
        assert abs(sol.ir_residual) <= 1e-9
        assert sol.wages[0] == pytest.approx(math.exp(4.0 - 3.0 * math.log(5.0)), rel=1e-9)

    def test_wage_box_below_the_binding_corner_is_infeasible(self):
        # both constraints bind at the corner; no contract exists under the cap
        inst = log_two_state()
        free = bc.solve_second_best(inst, "H")
        with pytest.raises(bc.Infeasible):
            bc.solve_second_best(inst, "H", wage_box=(1e-3, free.wages[1] - 1.0))


class TestChooseAction:
    def test_large_output_gap_prefers_high(self):
        inst = bc.ProblemInstance(
            (1.0, 60.0),
            (bc.ActionSpec("H", 1.0, D(0.25, 0.75), D(0.25, 0.75)),
             bc.ActionSpec("L", 0.0, D(0.75, 0.25), D(0.75, 0.25))),
            0.0, bc.LogUtility())
        report = bc.choose_action(inst)
        assert report.chosen == "H"

    def test_flat_output_prefers_low(self):
        # equal revenue per action up to beliefs: outputs nearly flat
        inst = bc.ProblemInstance(
            (1.0, 1.0 + 1e-9),
            (bc.ActionSpec("H", 1.0, D(0.25, 0.75), D(0.25, 0.75)),
             bc.ActionSpec("L", 0.0, D(0.75, 0.25), D(0.75, 0.25))),
            0.0, bc.LogUtility())
        report = bc.choose_action(inst)
        assert report.chosen == "L"

    def test_red_line_regime_matches_first_best_choice(self):
        # incentive constraint slack and revenue gap small: first-best logic rules
        inst = bc.ProblemInstance(
            (1.0, 1.05),
            (bc.ActionSpec("H", 1.0, D(0.80, 0.20), D(0.25, 0.75)),
             bc.ActionSpec("L", 0.0, D(0.75, 0.25), D(0.75, 0.25))),
            0.0, bc.LogUtility())
        report = bc.choose_action(inst)
        entry_h = next(e for e in report.entries if e.action == "H")
        assert entry_h.coincides_with_first_best
        assert report.matches_first_best_choice
        assert report.chosen == report.first_best_choice == "L"
        assert report.fb_cost_high_exceeds_low


class TestReports:
    def test_monotonicity_asserts_under_agent_dominance(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            inst = two_action_instance(rng, 3, chain=True)
            sol = bc.solve_second_best(inst, "H")
            rep = bc.monotonicity_report(sol, inst, "H")
            assert rep.agent_dominates_principal
            assert rep.asserted is Monotonicity.INCREASING
            assert rep.satisfied

    def test_monotonicity_silent_under_principal_dominance(self):
        # principal more optimistic about the top state than the agent
        inst = bc.ProblemInstance(
            (1.0, 2.0),
            (bc.ActionSpec("H", 1.0, D(0.10, 0.90), D(0.25, 0.75)),
             bc.ActionSpec("L", 0.0, D(0.75, 0.25), D(0.75, 0.25))),
            0.0, bc.LogUtility())
        sol = bc.solve_second_best(inst, "H")
        rep = bc.monotonicity_report(sol, inst, "H")
        assert rep.principal_dominates_agent
        assert not rep.agent_dominates_principal
        assert rep.asserted is None and rep.satisfied is None

    def test_principal_payoff_increasing_for_constant_wages(self):
        inst = bc.ProblemInstance(
            (1.0, 2.0),
            (bc.ActionSpec("H", 1.0, D(0.6, 0.4), D(0.25, 0.75)),
             bc.ActionSpec("L", 0.0, D(0.75, 0.25), D(0.75, 0.25))),
            0.0, bc.LogUtility())
        sol = bc.solve_second_best(inst, "H")
        if bc.classify_monotonicity(sol.wages) is Monotonicity.FLAT:
            assert bc.principal_payoff_monotonicity(sol, inst) is Monotonicity.INCREASING

    def test_principal_payoff_can_be_non_monotone(self):
        # steep wage at the top overturns the output ordering in the middle
        inst = bc.ProblemInstance(
            (1.0, 1.6, 1.9),
            (bc.ActionSpec("H", 0.8, D(0.05, 0.55, 0.40), D(0.09, 0.26, 0.65)),
             bc.ActionSpec("L", 0.0, D(0.27, 0.38, 0.35), D(0.27, 0.38, 0.35))),
            -0.27, bc.LogUtility())
        sol = bc.solve_second_best(inst, "H")
        net = np.asarray(inst.outputs) - np.asarray(sol.wages)
        assert net[1] > net[0] and net[2] < net[1]
        assert bc.principal_payoff_monotonicity(sol, inst) is Monotonicity.NON_MONOTONE

    def test_wages_rising_slower_than_output(self):
        inst = bc.ProblemInstance(
            (1.0, 8.0, 15.0),
            (bc.ActionSpec("H", 0.4, D(0.2, 0.3, 0.5), D(0.2, 0.3, 0.5)),
             bc.ActionSpec("L", 0.0, D(0.5, 0.3, 0.2), D(0.5, 0.3, 0.2))),
            0.1, bc.LogUtility())
        sol = bc.solve_second_best(inst, "H")
        assert bc.principal_payoff_monotonicity(sol, inst) is Monotonicity.INCREASING


class TestFigureData:
    def test_homogeneous_contract_sits_at_the_corner(self):
        bundle = bc.figure_data(log_two_state(), grid=33)
        assert bundle.corner == pytest.approx(bundle.contract, abs=1e-8)
        assert not bundle.coincides_with_first_best
        # contract point lies on the target indifference locus
        inst = log_two_state()
        q = inst.action("H").agent_beliefs.probs
        level = 1.0
        got = q[0] * math.log(bundle.contract[0]) + q[1] * math.log(bundle.contract[1])
        assert got == pytest.approx(level, abs=1e-9)

    def test_red_line_contract_leaves_the_corner(self):
        bundle = bc.figure_data(red_line_instance(), grid=33)
        assert bundle.coincides_with_first_best
        gap = max(abs(a - b) for a, b in zip(bundle.corner, bundle.contract))
        assert gap > 1e-3
        inst = red_line_instance()
        q = inst.action("H").agent_beliefs.probs
        got = q[0] * math.log(bundle.contract[0]) + q[1] * math.log(bundle.contract[1])
        assert got == pytest.approx(1.0, abs=1e-8)   # on the H indifference locus

    def test_grid_two_gives_endpoints_only(self):
        bundle = bc.figure_data(log_two_state(), grid=2)
        assert len(bundle.indifference_target) == 2
        assert len(bundle.isocost_through_contract) == 2
        ts = [p[0] for p in bundle.indifference_target]
        assert ts[0] < ts[1]

    def test_dimension_errors(self):
        rng = np.random.default_rng(25)
        inst3 = two_action_instance(rng, 3)
        with pytest.raises(bc.DimensionError):
            bc.figure_data(inst3, grid=5)
