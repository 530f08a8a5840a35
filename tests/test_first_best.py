"""Risk-sharing solver: closed forms, order properties, comparative statics."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import beliefcontracts as bc
from beliefcontracts import MlrpOrder, Monotonicity
from support import single_action_instance

D = lambda *p: bc.Distribution(tuple(p))
DATA = Path(__file__).parent / "data"


def one_action(principal, agent, cost, ubar, model, outputs=None):
    S = len(principal)
    outputs = outputs or tuple(float(i + 1) for i in range(S))
    return bc.ProblemInstance(
        outputs, (bc.ActionSpec("a", cost, D(*principal), D(*agent)),), ubar, model)


class TestSolveFirstBest:
    def test_homogeneous_beliefs_pay_constant(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            inst = single_action_instance(rng, int(rng.integers(2, 5)), order="homogeneous")
            sol = bc.solve_first_best(inst, "a")
            target = inst.utility.inverse(inst.reservation_utility + inst.actions[0].cost)
            assert max(sol.wages) - min(sol.wages) <= 1e-8
            assert sol.wages[0] == pytest.approx(float(target), abs=1e-8)
            assert bc.classify_monotonicity(sol) is Monotonicity.FLAT

    def test_answer_outside_a_tightened_wage_domain_is_refused(self):
        # the free first-best of log_wage_domain.json pays 0.5946 in its
        # lowest state; a lower end 1e-3 above that wage leaves the answer
        # outside the domain, while risk sharing itself runs on the family's;
        # both solvers refuse it by one wage test, with one class and message
        doc = json.loads((DATA / "log_wage_domain.json").read_text())
        doc["utility"]["wage_domain"] = None
        low = min(bc.solve_first_best(bc.parse_problem(json.dumps(doc)), "H").wages)
        doc["utility"]["wage_domain"] = [low + 1e-3, 20.0]
        tight = bc.parse_problem(json.dumps(doc))
        refusals = []
        for solve in (bc.solve_first_best, bc.solve_second_best):
            with pytest.raises(bc.KKTDegeneracy,
                               match="optimum at the utility-range boundary") as exc:
                solve(tight, "H")
            refusals.append((type(exc.value), str(exc.value)))
        assert refusals[0] == refusals[1]

    def test_cara_two_state_closed_form(self):
        # e^{-w_s} = -(principal_s / agent_s)(ubar + c)
        inst = one_action((0.5, 0.5), (0.25, 0.75), 0.0, -math.exp(-3.0),
                          bc.CaraUtility(r=1.0))
        sol = bc.solve_first_best(inst, "a")
        assert sol.wages[0] == pytest.approx(3.0 - math.log(2.0), abs=1e-9)
        assert sol.wages[1] == pytest.approx(3.0 + math.log(1.5), abs=1e-9)

    def test_log_two_state_against_grid_oracle(self):
        inst = one_action((0.5, 0.5), (0.25, 0.75), 1.0, 0.0, bc.LogUtility())
        sol = bc.solve_first_best(inst, "a")
        # wages proportional to agent/principal likelihood, scaled to meet IR
        lam = math.exp(1.0 - 0.25 * math.log(0.5) - 0.75 * math.log(1.5))
        assert sol.wages[0] == pytest.approx(lam * 0.5, rel=1e-9)
        assert sol.wages[1] == pytest.approx(lam * 1.5, rel=1e-9)
        grid = bc.GridSpec(-2.5, 3.5, 240)
        res = bc.brute_force_min(inst, "a", grid, mode=bc.SolverKind.FIRST_BEST)
        cell = bc.cell_cost_variation(inst, "a", grid)
        assert abs(res.cost - sol.expected_cost_principal) <= cell

    def test_ir_binds_and_foc_satisfied(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            inst = single_action_instance(rng, int(rng.integers(2, 5)))
            sol = bc.solve_first_best(inst, "a")
            assert abs(sol.ir_residual) <= 1e-9
            assert max(abs(r) for r in sol.foc_residuals) <= 1e-9
            assert sol.lam > 0

    def test_borch_ratios(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            inst = single_action_instance(rng, 3)
            act = inst.actions[0]
            sol = bc.solve_first_best(inst, "a")
            u_prime = [float(inst.utility.marginal(w)) for w in sol.wages]
            p = act.principal_beliefs.probs
            q = act.agent_beliefs.probs
            for s in range(3):
                for t in range(3):
                    lhs = p[s] / p[t]
                    rhs = (q[s] / q[t]) * (u_prime[s] / u_prime[t])
                    assert lhs == pytest.approx(rhs, rel=1e-7)

    def test_heterogeneity_is_cheaper_than_constant(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            inst = single_action_instance(rng, int(rng.integers(2, 5)))
            act = inst.actions[0]
            if act.principal_beliefs.probs == act.agent_beliefs.probs:
                continue
            sol = bc.solve_first_best(inst, "a")
            constant = float(inst.utility.inverse(inst.reservation_utility + act.cost))
            assert sol.expected_cost_principal < constant - 1e-10
            # under the agent's own measure the contract costs more (Jensen)
            assert sol.expected_cost_agent_beliefs >= constant - 1e-9

    def test_positive_beliefs_required(self):
        inst = one_action((1.0, 0.0), (0.5, 0.5), 0.5, 0.1, bc.LogUtility())
        with pytest.raises(bc.ValidationError):
            bc.solve_first_best(inst, "a")


class TestMonotonicity:
    def test_agent_dominates_gives_increasing(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            inst = single_action_instance(rng, int(rng.integers(2, 5)),
                                          order="agent_dominates")
            sol = bc.solve_first_best(inst, "a")
            cls = bc.classify_monotonicity(sol)
            assert cls is Monotonicity.INCREASING
            act = inst.actions[0]
            order = bc.mlrp_compare(act.principal_beliefs, act.agent_beliefs)
            assert bc.check_prop1(cls, order)

    def test_principal_dominates_gives_decreasing(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            inst = single_action_instance(rng, int(rng.integers(2, 5)),
                                          order="principal_dominates")
            sol = bc.solve_first_best(inst, "a")
            cls = bc.classify_monotonicity(sol)
            assert cls is Monotonicity.DECREASING
            assert bc.check_prop1(
                cls, bc.mlrp_compare(inst.actions[0].principal_beliefs,
                                     inst.actions[0].agent_beliefs))

    def test_check_prop1_rules(self):
        assert bc.check_prop1(Monotonicity.DECREASING, MlrpOrder.F_DOMINATES_G)
        assert not bc.check_prop1(Monotonicity.INCREASING, MlrpOrder.F_DOMINATES_G)
        assert bc.check_prop1(Monotonicity.INCREASING, MlrpOrder.G_DOMINATES_F)
        assert bc.check_prop1(Monotonicity.FLAT, MlrpOrder.EQUAL)
        assert bc.check_prop1(Monotonicity.NON_MONOTONE, MlrpOrder.INCOMPARABLE)


class TestCompstat:
    def test_cara_shift_moves_only_the_perturbed_states(self):
        inst = one_action((0.4, 0.35, 0.25), (0.2, 0.3, 0.5), 0.3, -1.5,
                          bc.CaraUtility(r=1.0))
        base, pert, report = bc.first_best_compstat(inst, "a", 1, 2, 0.05)
        assert pert.wages[1] < base.wages[1] - 1e-6
        assert pert.wages[2] > base.wages[2] + 1e-6
        assert pert.wages[0] == pytest.approx(base.wages[0], abs=1e-8)
        assert report.satisfied and report.n_strict == 2

    def test_zero_eps_identical(self):
        inst = one_action((0.4, 0.35, 0.25), (0.2, 0.3, 0.5), 0.3, -1.5,
                          bc.CaraUtility(r=1.0))
        base, pert, report = bc.first_best_compstat(inst, "a", 1, 2, 0.0)
        assert base.wages == pytest.approx(pert.wages, abs=1e-12)
        assert report.satisfied

    def test_log_random_instances_hold_the_pattern(self):
        # with wealth effects the full pattern needs the likelihood ratio of
        # the gaining state to weakly exceed the losing state's
        rng = np.random.default_rng(8)
        for _ in range(15):
            inst = single_action_instance(rng, 3, name="log", order="principal_dominates")
            pair = rng.choice(3, size=2, replace=False)
            s, s_prime = int(min(pair)), int(max(pair))
            base, pert, report = bc.first_best_compstat(inst, "a", s, s_prime, 0.01)
            assert report.satisfied
            # grid-oracle check on the base solve
            vs = np.asarray(base.utility_levels)
            span = max(float(vs.max() - vs.min()), 0.2)
            grid = bc.GridSpec(float(vs.min()) - 0.3 * span,
                               float(vs.max()) + 0.3 * span, 160)
            res = bc.brute_force_min(inst, "a", grid, mode=bc.SolverKind.FIRST_BEST)
            assert abs(res.cost - base.expected_cost_principal) <= \
                bc.cell_cost_variation(inst, "a", grid)

    def test_bystander_wage_can_fall_outside_exponential_family(self):
        # wealth effects move unperturbed states through the participation
        # multiplier: with symmetric log-utility beliefs any tilt strictly
        # lowers the remaining state's wage
        third = 1.0 / 3.0
        inst = one_action((third, third, third), (third, third, third), 0.5, 0.2,
                          bc.LogUtility())
        base, pert, report = bc.first_best_compstat(inst, "a", 1, 2, 0.05)
        expected = math.exp(0.7) * ((1 + 0.15) * (1 - 0.15)) ** (1.0 / 3.0)
        assert pert.wages[0] == pytest.approx(expected, rel=1e-10)
        assert pert.wages[0] < base.wages[0] - 1e-3
        assert not report.satisfied

    def test_eps_too_large(self):
        inst = one_action((0.4, 0.35, 0.25), (0.2, 0.3, 0.5), 0.3, -1.5,
                          bc.CaraUtility(r=1.0))
        with pytest.raises(bc.EpsilonTooLarge):
            bc.first_best_compstat(inst, "a", 1, 2, 0.3)

    def test_eps_may_exceed_the_gaining_probability(self):
        # p_s <= eps < p_s' keeps the open simplex: 0.25 + 0.3 and 0.4 - 0.3
        inst = one_action((0.4, 0.35, 0.25), (0.2, 0.3, 0.5), 0.3, -1.5,
                          bc.CaraUtility(r=1.0))
        base, pert, report = bc.first_best_compstat(inst, "a", 2, 0, 0.3)
        assert pert.wages[2] < base.wages[2] and pert.wages[0] > base.wages[0]
        assert report.satisfied

    @pytest.mark.parametrize("eps", [0.4, 0.5, -0.01])
    def test_eps_leaving_the_simplex_or_negative_is_refused(self, eps):
        inst = one_action((0.4, 0.35, 0.25), (0.2, 0.3, 0.5), 0.3, -1.5,
                          bc.CaraUtility(r=1.0))
        with pytest.raises(bc.EpsilonTooLarge):
            bc.first_best_compstat(inst, "a", 2, 0, eps)
