"""Verdict transitions between two source trees on benchmark ops.

    python tests/outcome_diff.py OLD_SRC NEW_SRC --solve-mix 8101 8202 --ops 3000
    python tests/outcome_diff.py OLD_SRC NEW_SRC --driver-mix 6262 --ops 3276 \\
        --kinds choose_action_3
    python tests/outcome_diff.py OLD_SRC NEW_SRC --driver-mix 5151 --ops 2700 \\
        --kinds equivalence_report,cara_compstat

OLD_SRC and NEW_SRC are ``src`` directories (say, of a ``git archive`` of
the parent commit and of the working tree).  Each side runs in its own
subprocess with its tree first on ``sys.path``; both build their inputs with
``bench/workloads.py``, run the ops as ``bench/run.py``'s workload classes do
and take their verdicts from ``bench/checks.py``, all read from this
checkout.  Ops are 0 .. OPS-1 of each seed: every solve_mix op, and the
driver_mix ops whose kind is in ``--kinds``.  A solve that raised
Infeasible is judged by ``bench/lpref.interior_feasible`` on its problem
document, so a transition into or out of Infeasible reads
``infeasible_confirmed`` or ``Infeasible_but_lp_feasible``.

Beside each op's verdict, a refusal records its message up to the first
colon (the check that refused, without the numbers after it), a choose_action
op records one direct
``solve_second_best`` per action (``i/action``) with the ``check_solve``
verdict of solve_mix, every returned contract records its wages and
``kkt_certificate``'s stationarity_max, a detect_regime_change op that
returned an eps records it, an equivalence_report op that returned
records its m* and iterative cost, a sweep or cara_compstat op that
returned records its wage, lambda and mu paths (a sweep also its failed
rows and coincides path), an oracle_audit op that returned records its
solver cost, oracle cost and cell variation, and a choose_action op that
returned records its chosen action and each entry's expected cost.  The report prints every
verdict transition, every change in a refusal's message and every change
in a sweep's failed rows or coincides path or a choose_action's chosen
action, with stationarity_max before and
after when both sides returned a contract, the count of message changes and
the certified count of each side, the largest relative wage move
max_s |w'_s - w_s| / max_s |w_s| among the solves both sides certify (and,
over a whole wage path, among the sweep and the cara_compstat ops both sides
answer, on the rows both sides solved), the largest relative lambda, mu
(of sweeps and of cara_compstat) and choose_action entry-cost move
|x' - x| / |x| among the entries both sides give (a 0 on both sides moves
by 0), and the largest |eps*' - eps*| and relative move |x' - x| / |x| of
m*, the iterative cost and oracle_audit's solver cost, oracle cost and cell
variation among the answers both sides give.  Not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "bench"
DRIVER_KINDS = ("sweep_second_best", "sweep_first_best", "choose_action_2", "choose_action_3",
                "oracle_audit_3", "oracle_audit_4", "detect_regime_change", "cara_compstat",
                "equivalence_report")


def _refusal(rec: dict, outcome) -> dict:
    """``rec`` with a refusal's message up to its first colon, if ``outcome`` is one."""
    if isinstance(outcome, Exception):
        rec["message"] = str(outcome).split(":", 1)[0]
    return rec


def _solve_record(checks, bc, doc, inst, target, outcome) -> dict:
    """Verdict of one second-best solve, with its wages and stationarity or
    its refusal's message; an Infeasible is judged by the strict-interior LP
    on ``doc``."""
    import lpref

    lp = lpref.interior_feasible(doc, target) if isinstance(outcome, bc.Infeasible) else None
    rec = _refusal({"verdict": checks.check_solve(inst, target, outcome, lp_feasible=lp)},
                   outcome)
    if isinstance(outcome, bc.SecondBestSolution):
        rec["wages"] = list(outcome.wages)
        rec["stationarity_max"] = bc.kkt_certificate(inst, target, outcome).stationarity_max
    return rec


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:     # judged by the checks like any other outcome
        return exc


def worker(workload: str, seed: int, ops: int, kinds: list[str]) -> dict:
    """{op id: record} for one seed, computed with whatever package is on sys.path."""
    import beliefcontracts as bc
    import checks
    import run
    import workloads as W

    out = {}
    if workload == "solve_mix":
        wl = run.SolveMix(seed)
        for i in range(ops):
            case = wl.case(i)
            out[str(i)] = _solve_record(checks, bc, W.solve_mix_doc(seed, i), case["inst"],
                                        case["target"], _attempt(wl.op, case))
        return out
    wl = run.DriverMix(seed)
    for i in range(ops):
        if W.DRIVER_KINDS[i % len(W.DRIVER_KINDS)] not in kinds:
            continue
        case = wl.case(i)
        outcome = _attempt(wl.op, case)
        try:
            out[str(i)] = {"verdict": wl.check(case, outcome)}
        except Exception as exc:     # as bench/run.py labels a check that raised
            out[str(i)] = {"verdict": "unchecked:" + type(exc).__name__}
        _refusal(out[str(i)], outcome)
        if isinstance(outcome, float):
            out[str(i)]["eps_star"] = outcome
        if isinstance(outcome, bc.EquivalenceReport):
            out[str(i)].update(m_star=outcome.m_star, cost=outcome.cost_iterative)
        if isinstance(outcome, bc.CaraSweep):
            out[str(i)].update(cara_wages=[list(row) for row in outcome.wages],
                               cara_lambda_path=list(outcome.lam_path),
                               cara_mu_path=list(outcome.mu_path))
        if isinstance(outcome, bc.AuditReport):
            out[str(i)].update(solver_cost=outcome.solver_cost, oracle_cost=outcome.oracle_cost,
                               cell_variation=outcome.cell_variation)
        if isinstance(outcome, bc.SweepResult):
            out[str(i)].update(sweep_wages=[list(row) for row in outcome.wage_paths],
                               failed_rows=list(outcome.failed_rows),
                               lambda_path=list(outcome.lambda_path),
                               mu_path=list(outcome.mu_path),
                               coincides_path=list(outcome.coincides_path))
        if isinstance(outcome, bc.ActionChoiceReport):
            out[str(i)].update(chosen=outcome.chosen,
                               entry_costs=[e.expected_cost for e in outcome.entries])
        if case["kind"].startswith("choose_action"):
            inst = case["inst"]
            for act in inst.actions:
                sol = _attempt(bc.solve_second_best, inst, act.name)
                out[f"{i}/{act.name}"] = _solve_record(checks, bc, case["problem"], inst,
                                                       act.name, sol)
    return out


def run_side(src: Path, workload: str, seed: int, ops: int, kinds: list[str],
             dest: Path) -> subprocess.Popen:
    code = ("import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2], sys.argv[3]]; "
            "import outcome_diff as od; "
            "json.dump(od.worker(sys.argv[4], int(sys.argv[5]), int(sys.argv[6]), "
            "sys.argv[7].split(',')), open(sys.argv[8], 'w'))")
    argv = [sys.executable, "-c", code, str(src), str(BENCH), str(Path(__file__).parent),
            workload, str(seed), str(ops), ",".join(kinds), str(dest)]
    return subprocess.Popen(argv, stdout=subprocess.DEVNULL)


def _largest(moves: list) -> str:
    """The largest of (move, op) pairs, naming its op only when it is above 0."""
    move, where = max(moves, default=(0.0, None))
    return f"{move:.3g}" + (f" (op {where})" if move > 0.0 else "")


def compare(label: str, old: dict, new: dict) -> None:
    """Print the transitions, message changes, certified counts and largest
    wage move of one seed."""
    print(f"== {label}: {len(old)} records")
    messages = 0
    for key in old:
        a, b = old[key], new[key]
        if a["verdict"] != b["verdict"]:
            stat = ""
            if "stationarity_max" in a and "stationarity_max" in b:
                stat = f"  stationarity_max {a['stationarity_max']:.3g} -> {b['stationarity_max']:.3g}"
            print(f"  {key}: {a['verdict']} -> {b['verdict']}{stat}")
        if a.get("message") != b.get("message"):
            messages += 1
            print(f"  {key}: message {a.get('message')!r} -> {b.get('message')!r}")
        for field, what in (("failed_rows", "failed rows"), ("coincides_path", "coincides path"),
                            ("chosen", "chosen action")):
            if field in a and field in b and a[field] != b[field]:
                print(f"  {key}: {what} {a[field]} -> {b[field]}")
    print(f"  refusal message changes: {messages}")
    for side, recs in (("old", old), ("new", new)):
        counts = Counter(r["verdict"] for r in recs.values())
        print(f"  {side}: " + ", ".join(f"{v} {n}" for v, n in sorted(counts.items())))
    moves = []
    for key in old:
        if old[key]["verdict"] == new[key]["verdict"] == "certified":
            w0, w1 = np.asarray(old[key]["wages"]), np.asarray(new[key]["wages"])
            moves.append((float(np.max(np.abs(w1 - w0)) / np.max(np.abs(w0))), key))
    print(f"  largest relative wage move among solves both certify: {_largest(moves)}")
    for field, kind in (("sweep_wages", "sweep"), ("cara_wages", "cara_compstat")):
        paths = []
        for key in old:
            if field in old[key] and field in new[key]:
                w0, w1 = (np.asarray(side[key][field], dtype=float) for side in (old, new))
                both = np.isfinite(w0).all(axis=1) & np.isfinite(w1).all(axis=1)
                if both.any():
                    w0, w1 = w0[both], w1[both]
                    paths.append((float(np.max(np.abs(w1 - w0)) / np.max(np.abs(w0))), key))
        if paths:
            print(f"  largest relative {kind} wage-path move among {len(paths)} answers both "
                  f"sides give: {_largest(paths)}")
    for field, what in (("lambda_path", "lambda"), ("mu_path", "mu"),
                        ("cara_lambda_path", "cara_compstat lambda"),
                        ("cara_mu_path", "cara_compstat mu"),
                        ("entry_costs", "choose_action cost")):
        paths = []
        for key in old:
            if field in old[key] and field in new[key]:
                p0, p1 = (np.asarray(side[key][field], dtype=float) for side in (old, new))
                both = np.isfinite(p0) & np.isfinite(p1)
                if both.any():
                    paths.append((float(np.max(np.abs(p1[both] - p0[both])
                                               / np.maximum(np.abs(p0[both]), 1e-300))), key))
        if paths:
            print(f"  largest relative {what} move among {len(paths)} answers both sides "
                  f"give: {_largest(paths)}")
    for field, what, relative in (("eps_star", "eps*", False), ("m_star", "relative m*", True),
                                  ("cost", "relative cost", True),
                                  ("solver_cost", "relative oracle_audit solver cost", True),
                                  ("oracle_cost", "relative oracle_audit oracle cost", True),
                                  ("cell_variation", "relative oracle_audit cell variation",
                                   True)):
        moves = [(abs(new[key][field] - old[key][field])
                  / ((abs(old[key][field]) or 1.0) if relative else 1.0), key)
                 for key in old if field in old[key] and field in new[key]]
        if moves:
            print(f"  largest {what} move among {len(moves)} answers both sides give: "
                  f"{_largest(moves)}")


class _Once(argparse.Action):
    """Store the flag's value; a second use of the flag is an error, not a
    silent override of the first (one value holds for every seed)."""

    def __call__(self, parser, namespace, values, option_string=None):
        if self.dest in vars(namespace).setdefault("_given", set()):
            parser.error(f"{option_string} given more than once")
        namespace._given.add(self.dest)
        setattr(namespace, self.dest, values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_src", type=Path)
    p.add_argument("new_src", type=Path)
    p.add_argument("--solve-mix", type=int, nargs="*", default=[], metavar="SEED",
                   action=_Once)
    p.add_argument("--driver-mix", type=int, nargs="*", default=[], metavar="SEED",
                   action=_Once)
    p.add_argument("--ops", type=int, default=3000, action=_Once)
    p.add_argument("--kinds", default=",".join(DRIVER_KINDS), action=_Once,
                   help="comma-separated driver_mix kinds (default: %(default)s)")
    args = p.parse_args(argv)
    kinds = args.kinds.split(",")
    jobs = [("solve_mix", s) for s in args.solve_mix] + [("driver_mix", s) for s in args.driver_mix]
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed in jobs:
            dests = [Path(tmp) / f"{workload}-{seed}-{side}.json" for side in ("old", "new")]
            procs = [run_side(src, workload, seed, args.ops, kinds, dest)
                     for src, dest in zip((args.old_src, args.new_src), dests)]
            if any([proc.wait() != 0 for proc in procs]):
                print(f"{workload} seed {seed}: a side exited non-zero", file=sys.stderr)
                return 1
            old, new = (json.loads(d.read_text()) for d in dests)
            compare(f"{workload} seed {seed}, ops 0-{args.ops - 1}", old, new)
    return 0


if __name__ == "__main__":
    sys.exit(main())
