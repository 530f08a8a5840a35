"""Hidden-action solver: hand-solved cases, KKT certificates, diagnostics."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import beliefcontracts as bc
from beliefcontracts import Monotonicity
from beliefcontracts.second_best import risk_sharing
from support import FAMILY_NAMES, make_family, rand_outputs, rand_simplex, two_action_instance

DATA = Path(__file__).parent / "data"
BENCH = Path(__file__).resolve().parents[1] / "bench"

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

    def test_log_draw_that_overflowed_the_first_order_scale_is_certified(self):
        # weight_s h'(v_s) = weight_s exp(v_s) overflowed to inf in the null-space
        # Newton on this log draw, which was refused; the dual ascent reaches
        # the optimum (an LP finds the program strictly feasible), and no numpy
        # RuntimeWarning leaks on the way
        inst = bc.load_problem(DATA / "log_overflow_warning.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = bc.solve_second_best(inst, "a3")
        assert sol.expected_cost_principal == pytest.approx(30.9370594355, rel=1e-9)
        assert bc.kkt_certificate(inst, "a3", sol, tol=1e-8).passed

    def test_sqrt_optimum_at_the_utility_floor_is_refused(self):
        # the multipliers of this sqrt draw push a wage to the floor w = 0 (the
        # limited-liability corner): refused as a boundary optimum
        inst = bc.load_problem(DATA / "sqrt_dual_stall.json")
        with pytest.raises(bc.KKTDegeneracy, match="optimum at the utility-range boundary"):
            bc.solve_second_best(inst, "a3")


class TestThreeActionFixtures:
    """H of ``choose_action_3`` draws (driver_mix seed 424243) that a
    working-set search refused although an LP finds them strictly feasible:
    op 5 (S = 2, three rows in two states, "inconsistent levels"), op 149
    (S = 3, "meets the utility range at its boundary") and op 176 (S = 3,
    "multiplier iteration diverged").  Reference costs are SLSQP minima
    (scipy, ftol 1e-15, in promised utility); the dual value at the returned
    multipliers matches each to a gap of at most 2e-15."""

    @pytest.mark.parametrize("name, cost", [
        ("cara_choose3_dependent_rows.json", -1.135308318204435),
        ("crra_choose3_range_exit.json", 0.6559647075656659),
        ("cara_choose3_diverged.json", -1.0012676120871988),
    ])
    def test_certified_at_the_reference_cost(self, name, cost):
        inst = bc.load_problem(DATA / name)
        sol = bc.solve_second_best(inst, "H")
        report = bc.kkt_certificate(inst, "H", sol, tol=1e-8)
        assert report.passed
        assert sol.expected_cost_principal == pytest.approx(cost, rel=1e-9, abs=0.0)
        assert abs(report.duality_gap) <= 1e-12 * abs(cost)

    def test_lp_infeasible_draw_is_infeasible(self):
        # op 14: the LP finds no strictly feasible point; refused with
        # KKTDegeneracy by the working-set search
        inst = bc.load_problem(DATA / "cara_choose3_infeasible.json")
        with pytest.raises(bc.Infeasible, match="the multipliers certify"):
            bc.solve_second_best(inst, "H")


def test_log_contract_that_fails_its_certificate_is_refused_by_name():
    # driver_mix seed 9109 op 2156, H: a working set whose solve never became
    # stationary returned lam = 1.3e-268 and wages up to 4.8e278.  The dual
    # stalls here, and its polish reaches the SLSQP minimum 4.248758307940313
    # (scipy, ftol 1e-15) with a duality gap at rounding level, but at a
    # stationarity of 1.7e-8 in the state paid 1.1e-8: over the certificate's
    # 1e-8, so no point is returned (a gap-based certificate would pass it)
    inst = bc.load_problem(DATA / "log_unstationary_working_set.json")
    with pytest.raises(bc.KKTDegeneracy,
                       match="the polished point fails stationarity; the dual point fails"):
        bc.solve_second_best(inst, "H")


def test_duality_gap_is_small_on_certified_contracts():
    # the dual ascent stops at a constraint residual of 1e-12 max(1, |r|), so
    # the gap cost - g, which includes theta . (r - M v), is a few times
    # 1e-12 relative at most
    rng = np.random.default_rng(26)
    for _ in range(40):
        inst = two_action_instance(rng, int(rng.integers(2, 6)), chain=False)
        sol = bc.solve_second_best(inst, "H")
        report = bc.kkt_certificate(inst, "H", sol, tol=1e-8)
        assert report.passed
        assert abs(report.duality_gap) <= 1e-10 * max(1.0, abs(sol.expected_cost_principal))


def test_wage_domain_tightened_around_the_free_answer_keeps_it(monkeypatch):
    # solve_mix draws 1..300 of seed 777, each one the free solve answers (213)
    # re-solved with its wage domain tightened around the free wages: lower end
    # min w / 2 (min w - 1 for cara), upper end 2 |max w| + max w + 1.  Risk
    # sharing and the dual both compute on the family's own domain, so a
    # probe leaving the tightened one neither raises DomainError (22 did) nor
    # steers the answer: every re-solve returns the free wages.
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    answered = refused = 0
    for i in range(1, 301):
        doc = workloads.solve_mix_doc(777, i)
        inst = bc.parse_problem(json.dumps(doc))
        target = max(inst.actions, key=lambda a: a.cost).name
        try:
            free = bc.solve_second_best(inst, target)
        except bc.BeliefContractsError:
            continue
        w = free.wages
        lo = min(w) - 1.0 if doc["utility"]["family"] == "cara" else 0.5 * min(w)
        doc["utility"]["wage_domain"] = [lo, 2 * abs(max(w)) + max(w) + 1.0]
        tight = bc.parse_problem(json.dumps(doc))
        try:
            sol = bc.solve_second_best(tight, target)
        except bc.KKTDegeneracy:
            refused += 1
            continue
        answered += 1
        assert bc.kkt_certificate(tight, target, sol, tol=1e-8).passed, i
        assert max(abs(a - b) for a, b in zip(sol.wages, w)) <= 1e-9 * max(map(abs, w)), i
    assert answered + refused == 213 and refused == 0


@pytest.mark.parametrize("model", [bc.LogUtility(), bc.CaraUtility(r=1.0),
                                   bc.CrraUtility(gamma=2.0)], ids=lambda m: m.family)
@pytest.mark.parametrize("theta", [(1.0, 1.0), (1.0, 2.0)], ids=["c_0=0", "c_0<0"])
def test_dual_point_refuses_a_nonpositive_coefficient_before_any_closed_form(monkeypatch,
                                                                             model, theta):
    # on a family unbounded below a state with c_s = (M^T theta)_s <= 0 sits at
    # v_s = -inf, so the point is None before (u')^-1 or u runs
    from beliefcontracts.second_best import _dual_point
    M = np.array([[0.25, 0.25, 0.5], [-0.25, 0.0, 0.25]])
    theta = np.array(theta)
    assert (M.T @ theta <= 0.0).any()

    def refuse(self, x):
        raise AssertionError("a closed form ran")

    monkeypatch.setattr(type(model), "_u_prime_inv", refuse)
    monkeypatch.setattr(type(model), "_u", refuse)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        assert _dual_point(theta, np.array([0.3, 0.3, 0.4]), M, np.array([-1.0, 0.1]),
                           model) is None


def test_dual_value_at_a_floor_clamped_state_is_a_finite_lower_bound():
    # sqrt, two states: at (lam, 3 mu) of the certified contract, c_0 =
    # lam q_0 + 3 mu (q_0 - q^L_0) < 0, so state 0's term is its floor value
    # delta_0 w_lo - c_0 v_lo = 0 and state 1's is -c_1^2 / (4 delta_1)
    inst = bc.load_problem(DATA / "sqrt_two_state.json")
    sol = bc.solve_second_best(inst, "H")
    assert bc.kkt_certificate(inst, "H", sol, tol=1e-8).passed
    lam, mu = sol.lam, 3.0 * sol.mu[0]
    q, q_low, delta = np.array([0.3, 0.7]), np.array([0.6, 0.4]), np.array([0.35, 0.65])
    c = lam * q + mu * (q - q_low)
    assert c[0] < 0.0
    g = bc.second_best.dual_value(inst, "H", lam, [mu])
    assert g == pytest.approx(lam * 1.3 + mu * 0.5 - c[1] ** 2 / (4.0 * delta[1]), rel=1e-12)
    assert g <= sol.expected_cost_principal


@pytest.mark.parametrize("seed, i, target", [
    (12001, 287, None), (12001, 527, None), (12002, 247, None), (12003, 1337, None),
    (5151, 1418, "M"),
])
def test_stalled_log_draws_refuse_or_pass_their_certificate(monkeypatch, seed, i, target):
    # log draws of the benchmark (solve_mix ops, and driver_mix op 1418's
    # choose_action_3 instance with target M) on which the dual stalls and
    # the stalled iterate fails complementary slackness alone (max |mu slack|
    # 1.1e-8 to 5.3e-4, mu up to 1.9e7): a returned contract must pass its
    # certificate, so each is now refused
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    doc = workloads.driver_op(seed, i)["problem"] if target else workloads.solve_mix_doc(seed, i)
    inst = bc.parse_problem(workloads.dumps(doc))
    target = target or max(inst.actions, key=lambda a: a.cost).name
    try:
        sol = bc.solve_second_best(inst, target)
    except bc.KKTDegeneracy:
        return
    assert bc.kkt_certificate(inst, target, sol, tol=1e-8).passed


@pytest.mark.parametrize("i", [324, 354, 462, 509, 624, 824, 869, 934, 1037, 1139, 1272])
def test_tightened_domain_with_the_free_optimum_inside_keeps_it(monkeypatch, i):
    # solve_mix draws of seed 777 (log and crra gamma = 2) that pay one state
    # far less than the rest; with the domain's floor at half that wage, a dual
    # run on the tightened domain clamped there on the way and was refused
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    doc = workloads.solve_mix_doc(777, i)
    inst = bc.parse_problem(workloads.dumps(doc))
    target = max(inst.actions, key=lambda a: a.cost).name
    w = bc.solve_second_best(inst, target).wages
    doc["utility"]["wage_domain"] = [0.5 * min(w), 2 * abs(max(w)) + max(w) + 1.0]
    tight = bc.parse_problem(workloads.dumps(doc))
    sol = bc.solve_second_best(tight, target)
    assert max(abs(a - b) for a, b in zip(sol.wages, w)) <= 1e-9 * max(map(abs, w))


def many_action_draw(k: int):
    """Draw k of a fixed cycle over S = 2..10, A = 2..5 and the five families:
    independent beliefs (the principal's equal to the agent's 40% of the
    time) and increasing costs; the target is the costliest action."""
    rng = np.random.default_rng([20261018, k])
    S, A = 2 + k % 9, 2 + (k // 9) % 4
    name = FAMILY_NAMES[(k // 36) % 5]
    costs = np.cumsum(np.concatenate([[rng.uniform(0.0, 0.2)], rng.uniform(0.1, 0.45, A - 1)]))
    if name in ("cara", "crra_high"):
        ubar = float(rng.uniform(-3.0, -costs[-1] - 0.4))
    elif name == "log":
        ubar = float(rng.uniform(-1.0, 1.0))
    else:   # utility range bounded below at 0: keep the level well above it
        ubar = float(rng.uniform(2.0, 4.0))
    actions = []
    for j, cost in enumerate(costs):
        agent = rand_simplex(rng, S, min_p=0.01)
        principal = agent if rng.random() < 0.4 else rand_simplex(rng, S, min_p=0.01)
        actions.append(bc.ActionSpec(f"a{j}", float(cost), D(*principal), D(*agent)))
    return bc.ProblemInstance(rand_outputs(rng, S), tuple(actions), ubar,
                              make_family(name)), f"a{A - 1}"


class TestRiskSharingSlack:
    def test_flag_is_the_coincidence_flag(self):
        # the identity risk_sharing states: exact, no tolerance
        seen = {True: 0, False: 0}
        for k in range(1440):
            inst, target = many_action_draw(k)
            try:
                sol = bc.solve_second_best(inst, target)
            except bc.BeliefContractsError:
                continue
            v, lam, slacks = risk_sharing(inst, target)
            assert (not min(slacks) < -1e-9) == sol.coincides_with_first_best, k
            if sol.coincides_with_first_best:
                assert slacks == sol.ic_slacks, k
                assert tuple(v) == sol.utility_levels and lam == sol.lam, k
            seen[sol.coincides_with_first_best] += 1
        assert seen[True] + seen[False] >= 1000
        assert min(seen.values()) >= 100


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
