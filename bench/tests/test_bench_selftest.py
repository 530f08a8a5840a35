"""Self-tests of the benchmark: generator determinism, checks, span and clock arithmetic.

Run with ``python -m pytest bench/tests``; they take a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import beliefcontracts as bc  # noqa: E402
import checks  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402


def _texts(seed):
    return ([W.dumps(W.solve_mix_doc(seed, i)) for i in range(60)]
            + [W.dumps(W.driver_op(seed, i)) for i in range(27)]
            + [W.dumps(W.cli_op(seed, i)) for i in range(16)])


def test_same_seed_gives_byte_identical_problems():
    assert _texts(7) == _texts(7)
    assert _texts(7) != _texts(8)


def test_ops_of_one_kind_get_fresh_instances():
    solve = [W.dumps(W.solve_mix_doc(1, i)) for i in range(1, 1 + 30 * 20, 30)]
    driver = [W.dumps(W.driver_op(1, i)) for i in range(0, 9 * 20, 9)]
    assert len(set(solve)) == len(solve)
    assert len(set(driver)) == len(driver)


def test_every_generated_problem_parses():
    for workload in run.WORKLOADS:
        for i in range(60):
            doc = W.op_problem(workload, 3, i)
            if doc is not None:
                bc.parse_problem(W.dumps(doc))


@pytest.mark.parametrize("S", [2, 4, 10])
def test_ordering_chain_is_strict_at_every_size(S):
    rng = np.random.default_rng(S)
    for _ in range(50):
        eta, principal_h, pi_h = (bc.Distribution(tuple(x)) for x in W.chain_beliefs(rng, S))
        assert bc.mlrp_strict(pi_h, principal_h)
        assert bc.mlrp_strict(principal_h, eta)


def test_solve_mix_cycles_shapes_and_families():
    docs = [W.solve_mix_doc(1, i) for i in range(1, 61)]
    shapes = [(len(d["outputs"]), len(d["actions"])) for d in docs]
    assert shapes[:6] == list(W.SOLVE_SHAPES)
    families = {(d["utility"]["family"], d["utility"]["parameters"].get("gamma")) for d in docs}
    assert families == {("cara", None), ("log", None), ("crra", 0.5), ("crra", 2.0), ("sqrt", None)}
    assert {run.group_key("solve_mix", i).split("/")[1] for i in range(1, 61)} == {
        "cara", "log", "crra0.5", "crra2.0", "sqrt"}


# -- checks reject planted wrong answers ------------------------------------

def _two_state():
    return bc.parse_problem(json.dumps({
        "schema_version": "1", "outputs": [1.0, 2.0], "reservation_utility": 0.0,
        "utility": {"family": "log", "parameters": {}},
        "actions": [
            {"name": "L", "cost": 0.0, "principal_beliefs": [0.6, 0.4], "agent_beliefs": [0.6, 0.4]},
            {"name": "H", "cost": 0.2, "principal_beliefs": [0.4, 0.6], "agent_beliefs": [0.3, 0.7]},
        ]}))


def test_check_solve_accepts_a_certified_contract_and_rejects_a_perturbed_wage():
    inst = _two_state()
    sol = bc.solve_second_best(inst, "H")
    assert checks.check_solve(inst, "H", sol, lp_feasible=True) == "certified"
    bumped = dataclasses.replace(sol, wages=(sol.wages[0] * (1 + 1e-4), sol.wages[1]))
    assert checks.check_solve(inst, "H", bumped, lp_feasible=True) not in checks.PASS_LABELS
    claimed = dataclasses.replace(sol, foc_residuals=(1e-3, 0.0))
    assert checks.check_solve(inst, "H", claimed, lp_feasible=True) == "uncertified"


def test_check_solve_judges_the_error_class():
    inst = _two_state()
    assert checks.check_solve(inst, "H", bc.Infeasible("x"), lp_feasible=False) == "infeasible_confirmed"
    assert checks.check_solve(inst, "H", bc.Infeasible("x"), lp_feasible=True) not in checks.PASS_LABELS
    assert checks.check_solve(inst, "H", bc.Infeasible("x"), lp_feasible=None) == checks.LP_PENDING
    assert checks.check_solve(inst, "H", bc.KKTDegeneracy("x"), lp_feasible=False) == "KKTDegeneracy"
    assert checks.check_solve(inst, "H", ValueError("x"), lp_feasible=True) == "escaped:ValueError"


def test_lp_reference_on_feasible_and_infeasible_programs():
    import lpref

    doc = json.loads(W.dumps(W.chain_problem(np.random.default_rng(0), 3, 0)))
    assert lpref.interior_feasible(doc, "H")
    # cara utilities are negative, so with q_H.v = -10 the incentive term
    # (q_H - q_L).v stays below 10 * max q_L/q_H: a gap of 1000 cannot be met
    doc["actions"][1]["cost"] = 1000.0
    doc["reservation_utility"] = -1010.0
    assert not lpref.interior_feasible(doc, "H")


def test_driver_checks_reject_planted_answers():
    sweep = bc.SweepResult((0.0,), ((1.0,),), (1.0,), (0.0,), (0.0,), (0.0,), (), (), (True,), ())
    assert checks.check_sweep(sweep) == "ok"
    assert checks.check_sweep(dataclasses.replace(sweep, failed_rows=(0,))) not in checks.PASS_LABELS

    def flag(eps):
        return eps > 0.3

    assert checks.check_detect(0.3, flag, 0.5) == "ok"
    assert checks.check_detect(0.1, flag, 0.5) not in checks.PASS_LABELS
    assert checks.check_detect(None, flag, 0.5) not in checks.PASS_LABELS
    assert checks.check_detect(None, flag, 0.2) == "no_flip_confirmed"

    report = bc.EquivalenceReport(1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.1, 0.0)
    assert checks.check_equivalence(report, 1.0) == "ok"
    assert checks.check_equivalence(report, 1.0 + 1e-6) not in checks.PASS_LABELS

    class Cara:
        wages = ((1.0, 2.0, 3.0),)

    assert checks.check_cara(Cara, [((1.0, 2.0, 3.0 + 1e-7), False)]) == "ok"
    assert checks.check_cara(Cara, [((1.0, 2.0, 3.0 + 1e-5), False)]) not in checks.PASS_LABELS
    assert checks.check_cara(bc.NegativeMu("x"), [((1.0, 2.0, 3.0), True)]) in checks.PASS_LABELS
    assert checks.check_cara(bc.NegativeMu("x"), [((1.0, 2.0, 3.0), False)]) not in checks.PASS_LABELS
    # a refusal of the reference solve gives no verdict on NegativeMu or on wages
    failed_ref = bc.KKTDegeneracy("x")
    assert checks.check_cara(bc.NegativeMu("x"), failed_ref) == "reference_failed"
    assert checks.check_cara(Cara, failed_ref) == "reference_failed"
    assert checks.check_cara(bc.NoRootInBranch("x"), failed_ref) == "NoRootInBranch"

    audit = bc.AuditReport(1.0, 1.0, 0.0, 0.1, True)
    assert checks.check_oracle(audit) == "ok"
    assert checks.check_oracle(dataclasses.replace(audit, within_tolerance=False)) not in checks.PASS_LABELS


def test_check_choose_rejects_a_wrong_choice_and_a_wrong_cost():
    inst = _two_state()
    report = bc.choose_action(inst)
    ref = checks.choose_reference(inst)
    assert checks.check_choose(report, inst, ref) == "ok"
    other = "L" if report.chosen == "H" else "H"
    assert checks.check_choose(dataclasses.replace(report, chosen=other), inst, ref) == "wrong_choice"
    entry = dataclasses.replace(report.entries[0], expected_cost=report.entries[0].expected_cost + 1e-3)
    wrong = dataclasses.replace(report, entries=(entry,) + report.entries[1:])
    assert checks.check_choose(wrong, inst, ref) == "cost_mismatch"


def test_check_cli_wants_the_in_process_exit_code_and_identical_bytes():
    assert checks.check_cli(0, b"{}\n", (0, b"{}\n")) == "ok"
    assert checks.check_cli(1, b"", (1, b"")) == "ok"
    assert checks.check_cli(0, b"{ }\n", (0, b"{}\n")) == "stdout_mismatch"
    assert checks.check_cli(1, b"", (0, b"{}\n")) == "exit1_expected0"
    assert checks.check_cli(0, b"{}\n", (1, b"{}\n")) == "exit0_expected1"
    assert checks.check_cli(-9, b"", (0, b"{}\n")) == "escaped:exit-9"


def test_only_unjudged_ops_are_the_benchmarks_failures():
    assert checks.is_unjudged("unchecked:TypeError")
    assert checks.is_unjudged(checks.LP_PENDING)
    for label in ("KKTDegeneracy", "uncertified", "hang", "escaped:LinAlgError", "certified"):
        assert not checks.is_unjudged(label)


# -- span arithmetic ---------------------------------------------------------

def test_self_times_on_a_hand_built_tree():
    #  0 op      [0, 10]
    #  1  driver [1, 9]
    #  2   solve [2, 5]
    #  3    kern [3, 4]
    #  4   solve [6, 8]
    #  5  leaf   [9.5, 12]   overhangs its parent by 2
    parent = [-1, 0, 1, 2, 1, 0]
    start = [0.0, 1.0, 2.0, 3.0, 6.0, 9.5]
    end = [10.0, 9.0, 5.0, 4.0, 8.0, 12.0]
    assert spans.self_times(parent, start, end) == pytest.approx([1.5, 3.0, 2.0, 1.0, 2.0, 2.5])


def test_self_times_merge_overlapping_children():
    parent = [-1, 0, 0]
    start = [0.0, 1.0, 2.0]
    end = [10.0, 4.0, 6.0]
    assert spans.self_times(parent, start, end) == pytest.approx([5.0, 3.0, 4.0])


def test_top_level_solves_skip_nested_kernel_calls():
    names = ["op", "drivers.sweep", "active_set", "kernel.affine", "drivers.outer_minimize"]
    #  op > sweep > (active_set > kernel) x2 ; op > outer_minimize > kernel x3
    name = [0, 1, 2, 3, 2, 3, 4, 3, 3, 3]
    parent = [-1, 0, 1, 2, 1, 4, 0, 6, 6, 6]
    assert spans.top_level_solves(names, name, parent) == {1: 2, 6: 3}


def test_reference_factor_is_nominal_over_the_local_median():
    kind = "kernel"
    nominal, w = refclock.NOMINAL_S[kind], refclock.WINDOW_S[kind]
    samples = [(0.0, 2 * nominal), (0.1, 2 * nominal), (0.2, 4 * nominal), (10.0, nominal)]
    assert refclock.factor(samples, 0.1, kind) == pytest.approx(0.5)
    assert refclock.factor(samples, 10.0, kind) == pytest.approx(1.0)
    # no sample within the window: the nearest one
    assert refclock.factor(samples, 5.0 + w, kind) == pytest.approx(1.0)


def test_scaled_latencies_and_layer_times_use_each_op_factor():
    fake = {"ops": {0: (0.0, 0.010, "ok"), 1: (None, None, "hang"), 2: (5.0, 0.020, "ok")},
            "refs": [(0.0, 2e-3), (5.0, 1e-3)],
            "counts": {0: {"self|kernel.affine": 0.004, "count|kernel.affine": 3}}}
    factors = {0: refclock.NOMINAL_S["kernel"] / 2e-3, 2: refclock.NOMINAL_S["kernel"] / 1e-3}
    assert run.scale_factors(fake, "kernel") == pytest.approx(factors)
    assert run.latencies(fake) == {0: 0.010, 2: 0.020}
    assert run.latencies(fake, factors) == pytest.approx({0: 0.010 * factors[0], 2: 0.020 * factors[2]})
    counts = run.layer_counts(fake, factors)
    assert counts["self|kernel.affine"] == pytest.approx(0.004 * factors[0])
    assert counts["count|kernel.affine"] == 3


def test_tracer_reaches_names_imported_by_callers_and_uninstalls():
    inst = _two_state()
    original = bc.second_best.minimize_on_affine
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("op"):
            bc.solve_second_best(inst, "H")
    finally:
        tracer.uninstall()
    assert bc.second_best.minimize_on_affine is original
    assert bc.kernel.minimize_on_affine is original
    assert "evaluate" in vars(bc.utility.UtilityModel)
    assert vars(bc.utility.UtilityModel)["evaluate"].__name__ == "evaluate"
    seen = {tracer.names[i] for i in tracer.name}
    assert {"op", "active_set", "kernel.ir_only"} <= seen
    assert any(n.startswith("utility.") for n in seen)


def test_benchmark_json_declares_what_run_reports():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end, per_layer = run.declared_units()
    fake = {"ops": {0: (0.0, 0.1, "ok"), 1: (None, None, "hang")}, "rss_kib": [1024]}
    metrics = run.end_to_end(fake, run.latencies(fake), 1.0)
    assert set(metrics) == set(end_to_end)
    assert metrics["answered_share"] == 0.5 and metrics["answers_per_s"] == pytest.approx(10.0)
    layer = run.layer_metrics(Counter(), 1)
    layer["trace.overhead_share"] = run.overhead_share({}, {})
    assert set(layer) == set(per_layer)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
