"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.
"""

import math
from pathlib import Path

import numpy as np

import beliefcontracts as bc
from beliefcontracts import Monotonicity, Party, SolverKind
from support import (cara_system_draw, four_state_spread_draw, grid_around,
                     mlrp_pair, single_action_instance, two_action_instance)

DATA = Path(__file__).parent / "data"


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_homogeneous_first_best_pays_constant():
    rng = np.random.default_rng(101)
    worst_spread = worst_level = 0.0
    for _ in range(200):
        inst = single_action_instance(rng, int(rng.integers(2, 5)), order="homogeneous")
        sol = bc.solve_first_best(inst, "a")
        constant = float(inst.utility.inverse(inst.reservation_utility
                                              + inst.actions[0].cost))
        worst_spread = max(worst_spread, max(sol.wages) - min(sol.wages))
        worst_level = max(worst_level, max(abs(w - constant) for w in sol.wages))
    ok = worst_spread <= 1e-8 and worst_level <= 1e-8
    _report(1, "homogeneous-first-best", ok,
            f"max spread {worst_spread:.2e}, max level error {worst_level:.2e}")


def test_criterion_02_belief_exploitation_strict_gap():
    rng = np.random.default_rng(102)
    min_cheaper = min_agent_gap = math.inf
    for _ in range(200):
        inst = single_action_instance(rng, int(rng.integers(2, 5)), min_gap=0.02)
        sol = bc.solve_first_best(inst, "a")
        constant = float(inst.utility.inverse(inst.reservation_utility
                                              + inst.actions[0].cost))
        min_cheaper = min(min_cheaper, constant - sol.expected_cost_principal)
        min_agent_gap = min(min_agent_gap,
                            sol.expected_cost_agent_beliefs - sol.expected_cost_principal)
    ok = min_cheaper > 1e-10 and min_agent_gap > 1e-10
    _report(2, "belief-exploitation-gap", ok,
            f"min cheaper-than-constant margin {min_cheaper:.2e}, "
            f"min agent-measure gap {min_agent_gap:.2e}")


def test_criterion_03_first_best_monotone_under_mlrp():
    rng = np.random.default_rng(103)
    ok = True
    for order, want in (("agent_dominates", 1.0), ("principal_dominates", -1.0)):
        for _ in range(200):
            inst = single_action_instance(rng, int(rng.integers(2, 5)), order=order)
            sol = bc.solve_first_best(inst, "a")
            diffs = want * np.diff(np.asarray(sol.wages))
            if not np.all(diffs > 1e-8):
                ok = False
    _report(3, "first-best-mlrp-monotonicity", ok, "200 draws each direction")


def test_criterion_04_first_best_reallocation_pattern():
    # exponential utility: the proposition's pattern is exact (bystanders flat)
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(100):
        S = int(rng.integers(2, 5))
        inst = single_action_instance(rng, S, name="cara")
        s, s_prime = (int(x) for x in rng.choice(S, size=2, replace=False))
        p = inst.actions[0].principal_beliefs.probs
        eps = float(rng.uniform(0.2, 0.8) * min(p[s], p[s_prime]))
        _, _, report = bc.first_best_compstat(inst, "a", s, s_prime, eps)
        if not (report.satisfied and report.n_strict >= 2):
            ok = False
    _report(4, "first-best-reallocation-pattern", ok, "100 draws")


def test_criterion_05_cara_first_best_closed_form():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(200):
        inst = single_action_instance(rng, 3, name="cara")
        act = inst.actions[0]
        sol = bc.solve_first_best(inst, "a")
        level = inst.reservation_utility + act.cost
        closed = [-math.log(-(p / q) * level)
                  for p, q in zip(act.principal_beliefs.probs, act.agent_beliefs.probs)]
        worst = max(worst, max(abs(a - b) for a, b in zip(sol.wages, closed)))
    _report(5, "cara-first-best-closed-form", worst <= 1e-8, f"max wage delta {worst:.2e}")


def test_criterion_06_second_best_kkt_certificates():
    rng = np.random.default_rng(106)
    worst = 0.0
    ok = True
    for _ in range(500):
        inst = two_action_instance(rng, int(rng.integers(2, 5)), chain=False)
        sol = bc.solve_second_best(inst, "H")
        rep = bc.kkt_certificate(inst, "H", sol, tol=1e-8)
        worst = max(worst, rep.stationarity_max)
        ok = ok and rep.passed
    _report(6, "second-best-kkt-certificate", ok,
            f"500 instances, worst stationarity {worst:.2e}")


def test_criterion_07_oracle_equivalence():
    rng = np.random.default_rng(107)
    ok = True
    worst_ratio = 0.0
    for k in range(50):
        S = 2 if k % 2 == 0 else 3
        inst = two_action_instance(rng, S)
        sol = bc.solve_second_best(inst, "H")
        grid = grid_around(inst, sol.utility_levels, 200)
        res = bc.brute_force_min(inst, "H", grid)
        cell = bc.cell_cost_variation(inst, "H", grid)
        ratio = abs(res.cost - sol.expected_cost_principal) / cell
        worst_ratio = max(worst_ratio, ratio)
        ok = ok and ratio <= 1.0
    _report(7, "oracle-equivalence", ok,
            f"50 instances at 200 pts/dim, worst delta/cell {worst_ratio:.3f}")


def test_criterion_08_slack_incentive_regime():
    inst = bc.load_problem(DATA / "log_two_state.json")
    tilt = bc.BeliefTilt(Party.PRINCIPAL, "H", 0, 1)
    eps_star = bc.detect_regime_change(inst, tilt, 0.45, target="H", tol=1e-7)
    ok = eps_star is not None
    worst = 0.0
    if ok:
        for eps in (eps_star + 1e-3, eps_star + 0.05, 0.44):
            tilted = bc.ProblemInstance.tilted(inst, Party.PRINCIPAL, "H", 0, 1, eps)
            sb = bc.solve_second_best(tilted, "H")
            fb = bc.solve_first_best(tilted, "H")
            gap = abs(sb.expected_cost_principal - fb.expected_cost_principal)
            worst = max(worst, gap)
            ok = ok and sb.coincides_with_first_best and gap <= 1e-8
    _report(8, "slack-incentive-regime", ok,
            f"eps* = {eps_star}, max |SB-FB| cost gap beyond it {worst:.2e}")


def test_criterion_09_second_best_monotone_when_agent_dominates():
    rng = np.random.default_rng(109)
    ok = True
    for _ in range(200):
        inst = two_action_instance(rng, int(rng.integers(2, 5)), chain=True)
        act = inst.action("H")
        if not bc.mlrp_strict(act.agent_beliefs, act.principal_beliefs):
            ok = False
            continue
        sol = bc.solve_second_best(inst, "H")
        if not np.all(np.diff(np.asarray(sol.wages)) > 1e-9):
            ok = False
    _report(9, "second-best-monotone-agent-dominant", ok, "200 draws")


def test_criterion_10_cara_closed_form_vs_numeric():
    rng = np.random.default_rng(110)
    worst_wage = worst_resid = 0.0
    for _ in range(1000):
        sys_ = cara_system_draw(rng)
        sol = bc.solve_system(sys_)
        sb = bc.solve_second_best(bc.to_problem_instance(sys_), "H")
        worst_wage = max(worst_wage,
                         max(abs(a - b) for a, b in zip(sol.wages, sb.wages)))
        worst_resid = max(worst_resid, abs(sol.ir_residual), abs(sol.ic_residual),
                          max(abs(r) for r in sol.foc_residuals))
    ok = worst_wage <= 1e-6 and worst_resid <= 1e-8
    _report(10, "cara-closed-form-vs-numeric", ok,
            f"1000 draws, worst wage delta {worst_wage:.2e}, "
            f"worst residual {worst_resid:.2e}")


def test_criterion_11_incentives_move_with_disagreement():
    rng = np.random.default_rng(111)
    ok = True
    third = 0
    done = 0
    attempts = 0
    while done < 100 and attempts < 2000:
        attempts += 1
        sys_ = cara_system_draw(rng)
        p = sys_.principal.probs
        eps_hi = 0.45 * min(p[1], p[2])
        grid = np.linspace(0.0, eps_hi, 20)
        try:
            sweep_cf = bc.cara_compstat(sys_, 1, 2, grid)
        except bc.BeliefContractsError:
            continue   # regime flips inside the grid: redraw
        done += 1
        if not (sweep_cf.s_non_increasing and sweep_cf.s_prime_non_decreasing
                and sweep_cf.strict_steps >= 1):
            ok = False
        inst = bc.to_problem_instance(sys_)
        fb = bc.sweep(inst, "H", Party.PRINCIPAL, "H", 1, 2, grid,
                      SolverKind.FIRST_BEST)
        if fb.verdicts[third] is not Monotonicity.FLAT:
            ok = False
        if sweep_cf.third_direction == "flat":
            ok = False
    ok = ok and done == 100
    _report(11, "incentives-move-with-disagreement", ok,
            f"{done} draws, first-best low state flat, second-best low state moves")


def test_criterion_12_spread_decomposition_equivalence():
    rng = np.random.default_rng(112)
    worst_cost = worst_wage = worst_env = 0.0
    for _ in range(100):
        sp = four_state_spread_draw(rng)
        rep = bc.equivalence_report(sp)
        worst_cost = max(worst_cost, abs(rep.cost_delta))
        worst_wage = max(worst_wage, rep.max_wage_delta)
        m0 = max(rep.m_star * 0.5, 1e-3)
        inner = bc.inner_cost(sp, m0)
        eps = 1e-4
        fd = (bc.inner_cost(sp, m0 + eps).cost
              - bc.inner_cost(sp, m0 - eps).cost) / (2 * eps)
        worst_env = max(worst_env, abs(fd - bc.envelope_derivative(sp, inner)))
    ok = worst_cost <= 1e-8 and worst_wage <= 1e-6 and worst_env <= 1e-5
    _report(12, "spread-decomposition-equivalence", ok,
            f"100 draws, worst cost delta {worst_cost:.2e}, worst wage delta "
            f"{worst_wage:.2e}, worst envelope gap {worst_env:.2e}")


def test_criterion_13_reduction_preserves_mlrp():
    rng = np.random.default_rng(113)
    violations = 0
    for _ in range(1000):
        S = int(rng.integers(3, 8))
        f, g = mlrp_pair(rng, S)
        for keep in range(2, S + 1):
            rf = bc.reduce_distribution(f, keep)
            rg = bc.reduce_distribution(g, keep)
            if bc.mlrp_compare(rf, rg) not in (bc.MlrpOrder.F_DOMINATES_G,
                                               bc.MlrpOrder.EQUAL):
                violations += 1
    _report(13, "reduction-preserves-mlrp", violations == 0,
            f"1000 pairs, {violations} violations")


def test_criterion_14_cli_determinism(tmp_path):
    jobs = [
        ("solve-first-best", "log_binding.json", ["--action", "H"]),
        ("solve-second-best", "log_binding.json", []),
        ("solve-second-best", "cara_three_state.json", []),
        ("solve-second-best", "sqrt_two_state.json", []),
        ("choose-action", "log_two_state.json", []),
        ("compstat", "cara_three_state.json",
         ["--states", "1,2", "--eps-grid", "0:0.08:7"]),
        ("detect-regime", "log_two_state.json",
         ["--states", "0,1", "--eps-max", "0.44"]),
        ("iterate4", "cara_four_state.json", []),
        ("oracle-audit", "log_binding.json", ["--points", "120"]),
        ("figure-data", "log_binding.json", ["--grid", "21"]),
        ("mlrp", None, ["--f", "0.1,0.3,0.6", "--g", "0.6,0.3,0.1"]),
        ("reduce", None, ["--p", "0.1,0.2,0.3,0.4", "--keep", "2"]),
    ]
    ok = True
    for i, (cmd, problem, extra) in enumerate(jobs):
        outputs = []
        for run in range(2):
            out = tmp_path / f"{i}_{run}.out"
            argv = [cmd] + (["--problem", str(DATA / problem)] if problem else [])
            argv += extra + ["--out", str(out)]
            from beliefcontracts.cli import main
            code = main(argv)
            if code != 0:
                ok = False
                break
            outputs.append(out.read_bytes())
        if len(outputs) == 2 and outputs[0] != outputs[1]:
            ok = False
    _report(14, "cli-determinism", ok, f"{len(jobs)} command runs byte-compared")
