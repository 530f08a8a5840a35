"""Command-line surface tying the solvers together.

Exit codes: 0 success, 1 solver failure, 2 input error.  Outputs are
deterministic (no timestamps in payloads); when writing to a file a sidecar
``<out>.meta.json`` records how the artifact was produced.

State indices on the command line are 0-based, lowest output first.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .beliefs import Distribution, Party, SolverKind
from .compstat import BeliefTilt, detect_regime_change, sweep
from .errors import BeliefContractsError, ParseError, ValidationError
from .first_best import classify_monotonicity, solve_first_best
from .iterative import SpreadProblem, equivalence_report
from .oracle import GridSpec, oracle_audit
from .problemio import (dump_json, figure_csv, first_best_payload, load_problem,
                        second_best_payload, sweep_csv)
from .second_best import choose_action, figure_data, solve_second_best

from .beliefs import mlrp_compare, mlrp_strict, reduce_distribution


def _number(kind, text: str, flag: str):
    """``kind(text)``, with a malformed number refused as a ParseError naming the flag."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ParseError(f"{flag}: {text!r} is not {what}") from None


def _parse_states(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("--states expects two comma-separated indices, e.g. 1,2")
    return _number(int, parts[0], "--states"), _number(int, parts[1], "--states")


def _parse_grid(text: str) -> list[float]:
    """Either 'start:stop:count' (inclusive linspace) or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ParseError("--eps-grid expects start:stop:count or a comma list")
        start, stop = (_number(float, x, "--eps-grid") for x in parts[:2])
        count = _number(int, parts[2], "--eps-grid")
        if count < 1:
            raise ParseError("--eps-grid count must be >= 1")
        return [float(x) for x in np.linspace(start, stop, count)]
    return [_number(float, x, "--eps-grid") for x in text.split(",")]


def _parse_dist(text: str, flag: str) -> Distribution:
    return Distribution(tuple(_number(float, x, flag) for x in text.split(",")))


def _solver_kind(text: str) -> SolverKind:
    """--solver / --mode value ("first-best" or "second-best") as a SolverKind."""
    return SolverKind(text.replace("-", "_"))


def _emit(args, payload: str, parser_argv: list[str]) -> None:
    # run info lives in the sidecar so the artifact itself stays byte-stable
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
        meta = {
            "tool": "beliefcontracts",
            "version": __version__,
            "command": parser_argv,
            "artifact": str(args.out),
            "created_utc": datetime.now(timezone.utc).isoformat(),
        }
        Path(str(args.out) + ".meta.json").write_text(dump_json(meta) + "\n",
                                                      encoding="utf-8")
    else:
        sys.stdout.write(payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefcontracts",
        description="Solve wage contracts for moral-hazard problems with "
                    "heterogeneous beliefs (state indices are 0-based).")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, action_flag=True):
        p.add_argument("--problem", required=True, help="path to a problem JSON file")
        if action_flag:
            p.add_argument("--action", help="action name (default: highest-cost)")
        p.add_argument("--out", help="write the artifact here instead of stdout")

    p = sub.add_parser("solve-first-best", help="risk-sharing contract for one action")
    add_common(p)

    p = sub.add_parser("solve-second-best", help="incentive contract for one action")
    add_common(p)

    p = sub.add_parser("choose-action", help="profit-maximizing action to implement")
    add_common(p, action_flag=False)

    p = sub.add_parser("compstat", help="eps-reallocation sweep of a belief vector")
    add_common(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--solver", choices=["first-best", "second-best"],
                   default="second-best")
    p.add_argument("--party", choices=["principal", "agent"], default="principal")
    p.add_argument("--which-action", help="whose beliefs to tilt (default: --action)")
    p.add_argument("--states", required=True, help="s,s_prime (mass moves onto s)")
    p.add_argument("--eps-grid", required=True, help="start:stop:count or comma list")

    p = sub.add_parser("detect-regime",
                       help="eps at which the incentive constraint starts or stops binding")
    add_common(p)
    p.add_argument("--party", choices=["principal", "agent"], default="principal")
    p.add_argument("--which-action", help="whose beliefs to tilt (default: --action)")
    p.add_argument("--states", required=True)
    p.add_argument("--eps-max", type=float, required=True)

    p = sub.add_parser("mlrp", help="likelihood-ratio ordering of two distributions")
    p.add_argument("--f", required=True, help="comma-separated probabilities")
    p.add_argument("--g", required=True)
    p.add_argument("--out")

    p = sub.add_parser("reduce", help="lump the top states of a distribution")
    p.add_argument("--p", required=True, help="comma-separated probabilities")
    p.add_argument("--keep", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("iterate4",
                       help="4-state spread decomposition vs the direct solve")
    add_common(p)

    p = sub.add_parser("oracle-audit", help="brute-force grid check of a solve")
    add_common(p)
    p.add_argument("--mode", choices=["first-best", "second-best"],
                   default="second-best")
    p.add_argument("--v-lo", type=float, help="grid lower bound in utility space")
    p.add_argument("--v-hi", type=float, help="grid upper bound in utility space")
    p.add_argument("--points", type=int, default=200)

    p = sub.add_parser("figure-data", help="two-state picture geometry as CSV")
    add_common(p, action_flag=False)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--grid", type=int, default=101)
    return parser


def _default_action(inst, name):
    if name:
        return name
    return max(inst.actions, key=lambda a: a.cost).name


def _run(args, argv) -> int:
    cmd = args.command
    if cmd == "mlrp":
        f, g = _parse_dist(args.f, "--f"), _parse_dist(args.g, "--g")
        payload = dump_json({
            "ordering": mlrp_compare(f, g).value,
            "strict": mlrp_strict(f, g) or mlrp_strict(g, f),
        }) + "\n"
        _emit(args, payload, argv)
        return 0
    if cmd == "reduce":
        reduced = reduce_distribution(_parse_dist(args.p, "--p"), args.keep)
        _emit(args, dump_json({"probs": list(reduced.probs)}) + "\n", argv)
        return 0

    inst = load_problem(args.problem)

    if cmd == "solve-first-best":
        action = _default_action(inst, args.action)
        sol = solve_first_best(inst, action)
        payload = first_best_payload(sol)
        payload["monotonicity"] = classify_monotonicity(sol).value
        _emit(args, dump_json(payload) + "\n", argv)
        return 0

    if cmd == "solve-second-best":
        action = _default_action(inst, args.action)
        sol = solve_second_best(inst, action)
        _emit(args, dump_json(second_best_payload(sol, inst)) + "\n", argv)
        return 0

    if cmd == "choose-action":
        report = choose_action(inst)
        payload = {
            "chosen": report.chosen,
            "first_best_choice": report.first_best_choice,
            "matches_first_best_choice": report.matches_first_best_choice,
            "fb_cost_high_exceeds_low": report.fb_cost_high_exceeds_low,
            "actions": [
                {
                    "action": e.action,
                    "revenue": e.revenue,
                    "expected_cost": e.expected_cost,
                    "profit": e.profit,
                    "coincides_with_first_best": e.coincides_with_first_best,
                    "first_best_cost": e.first_best_cost,
                }
                for e in report.entries
            ],
        }
        _emit(args, dump_json(payload) + "\n", argv)
        return 0

    if cmd == "compstat":
        action = _default_action(inst, args.action)
        which = args.which_action or action
        s, s_prime = _parse_states(args.states)
        result = sweep(inst, action, Party(args.party), which, s, s_prime,
                       _parse_grid(args.eps_grid), _solver_kind(args.solver))
        if args.format == "json":
            payload = {
                "eps_values": list(result.eps_values),
                "wage_paths": [list(r) for r in result.wage_paths],
                "lambda_path": list(result.lambda_path),
                "mu_path": list(result.mu_path),
                "power_agent_beliefs": list(result.power_path),
                "power_principal_beliefs": list(result.power_path_principal),
                "verdicts": [v.value for v in result.verdicts],
                "regime_changes": list(result.regime_changes),
                "failed_rows": list(result.failed_rows),
            }
            _emit(args, dump_json(payload) + "\n", argv)
        else:
            _emit(args, sweep_csv(result, inst.n_states), argv)
        return 0

    if cmd == "detect-regime":
        action = _default_action(inst, args.action)
        which = args.which_action or action
        s, s_prime = _parse_states(args.states)
        tilt = BeliefTilt(Party(args.party), which, s, s_prime)
        eps = detect_regime_change(inst, tilt, args.eps_max, target=action)
        _emit(args, dump_json({"eps_star": eps}) + "\n", argv)
        return 0

    if cmd == "iterate4":
        action = _default_action(inst, args.action)
        report = equivalence_report(SpreadProblem(inst, action))
        payload = {
            "m_star": report.m_star,
            "cost_iterative": report.cost_iterative,
            "cost_direct": report.cost_direct,
            "cost_delta": report.cost_delta,
            "max_wage_delta": report.max_wage_delta,
            "lambda_delta": report.lam_delta,
            "mu_delta": report.mu_delta,
            "outer_foc_residual": report.outer_foc_residual,
        }
        _emit(args, dump_json(payload) + "\n", argv)
        return 0

    if cmd == "oracle-audit":
        action = _default_action(inst, args.action)
        mode = _solver_kind(args.mode)
        if args.v_lo is None or args.v_hi is None:
            sol = (solve_first_best(inst, action) if mode is SolverKind.FIRST_BEST
                   else solve_second_best(inst, action))
            vs = np.asarray(sol.utility_levels)
            span = max(float(vs.max() - vs.min()), 0.1)
            v_lo = float(vs.min() - 0.35 * span)
            v_hi = float(vs.max() + 0.35 * span)
            lo_r, hi_r = inst.utility.utility_range
            v_lo = max(v_lo, lo_r + 0.05 * span) if np.isfinite(lo_r) else v_lo
            v_hi = min(v_hi, hi_r - 0.05 * span) if np.isfinite(hi_r) else v_hi
        else:
            v_lo, v_hi = args.v_lo, args.v_hi
        report = oracle_audit(inst, action, GridSpec(v_lo, v_hi, args.points), mode)
        payload = {
            "solver_cost": report.solver_cost,
            "oracle_cost": report.oracle_cost,
            "delta": report.delta,
            "cell_cost_variation": report.cell_variation,
            "within_tolerance": report.within_tolerance,
        }
        _emit(args, dump_json(payload) + "\n", argv)
        return 0

    if cmd == "figure-data":
        bundle = figure_data(inst, args.grid)
        if args.format == "json":
            payload = {
                "target": bundle.target,
                "indifference_target": [list(p) for p in bundle.indifference_target],
                "indifference_other": [list(p) for p in bundle.indifference_other],
                "isocost_through_contract": [list(p) for p in bundle.isocost_through_contract],
                "isocost_through_corner": [list(p) for p in bundle.isocost_through_corner],
                "corner": list(bundle.corner) if bundle.corner else None,
                "contract": list(bundle.contract),
                "coincides_with_first_best": bundle.coincides_with_first_best,
                "expected_cost": bundle.expected_cost,
            }
            _emit(args, dump_json(payload) + "\n", argv)
        else:
            _emit(args, figure_csv(bundle), argv)
        return 0

    raise ParseError(f"unknown command {cmd!r}")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _run(args, argv)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except BeliefContractsError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
