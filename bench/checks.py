"""Independent checks of each op's answer, run after the timed region.

Every check returns a verdict label; ``PASS_LABELS`` holds the ones that
count as a correct answer.  Any other judged label is an answer that did not
pass (a refusal, a wrong answer, a hang), and the label names why, so
``failed_share`` can be broken down by cause.  An exception outside the
package's error hierarchy is the program escaping its own error contract:
it is labelled ``escaped:<class>``.  An op whose check could not reach a
verdict (``is_unjudged``) is the benchmark's own failure, not the program's.
"""

from __future__ import annotations

import numpy as np

import beliefcontracts as bc

KKT_TOL = 1e-8
EQUIVALENCE_COST_TOL = 1e-8
CARA_WAGE_TOL = 1e-6
CHOOSE_COST_RTOL = 1e-9

PASS_LABELS = frozenset({"certified", "infeasible_confirmed", "ok", "no_flip_confirmed",
                         "negative_mu_confirmed"})
#: an Infeasible refusal waiting for the LP reference (see ``lp_verdict``)
LP_PENDING = "infeasible_unverified"


def outcome_label(outcome) -> str | None:
    """Label for an op that raised: its error class, or None for a return."""
    if isinstance(outcome, bc.BeliefContractsError):
        return type(outcome).__name__
    if isinstance(outcome, BaseException):
        return "escaped:" + type(outcome).__name__
    return None


def _u_and_marginal(utility, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u(w) and u'(w) from the textbook closed forms, not the package's."""
    family = utility.family
    with np.errstate(all="ignore"):
        if family == "cara":
            r = utility.r
            return -np.exp(-r * w), r * np.exp(-r * w)
        if family == "log":
            return np.log(w), 1.0 / w
        if family == "sqrt":
            return np.sqrt(w), 0.5 / np.sqrt(w)
        if family == "crra":
            g = utility.gamma
            return w ** (1.0 - g) / (1.0 - g), w ** (-g)
    raise ValueError(f"no reference closed form for family {family!r}")


def kkt_from_wages(inst, target: str, sol, tol: float = KKT_TOL) -> bool:
    """KKT conditions recomputed from the returned wages and multipliers.

    ``kkt_certificate`` reads the residuals the solver reports; this check
    recomputes them from the wages, so a contract whose wages disagree with
    its own residuals fails here.  Wage-box-free solutions only.
    """
    act = inst.action(target)
    q = act.agent_beliefs.as_array()
    delta = act.principal_beliefs.as_array()
    others = inst.other_actions(target)
    w = np.asarray(sol.wages, dtype=float)
    v, uprime = _u_and_marginal(inst.utility, w)
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(uprime))):
        return False
    rows = [q - o.agent_beliefs.as_array() for o in others]
    gaps = [act.cost - o.cost for o in others]
    coef = sol.lam * q + sum((m * row for m, row in zip(sol.mu, rows)), np.zeros_like(q))
    stationarity = np.max(np.abs(delta - coef * uprime) / delta)
    ir = abs(float(q @ v) - (inst.reservation_utility + act.cost))
    slacks = [float(row @ v) - gap for row, gap in zip(rows, gaps)]
    return bool(stationarity <= tol and ir <= tol
                and all(s >= -tol for s in slacks) and all(m >= -tol for m in sol.mu)
                and all(abs(m * s) <= tol for m, s in zip(sol.mu, slacks)))


def lp_verdict(lp_feasible: bool | None) -> str:
    """Verdict on an Infeasible refusal from the strict-interior LP reference;
    ``LP_PENDING`` while the reference has not been asked yet."""
    if lp_feasible is None:
        return LP_PENDING
    return "Infeasible_but_lp_feasible" if lp_feasible else "infeasible_confirmed"


def check_solve(inst, target: str, outcome, lp_feasible: bool | None) -> str:
    """solve_mix: a certified contract, or an Infeasible that the LP confirms."""
    if isinstance(outcome, bc.Infeasible):
        return lp_verdict(lp_feasible)
    err = outcome_label(outcome)
    if err is not None:
        return err
    if not bc.kkt_certificate(inst, target, outcome, tol=KKT_TOL).passed:
        return "uncertified"
    return "certified" if kkt_from_wages(inst, target, outcome) else "wages_fail_kkt"


def check_sweep(result) -> str:
    if isinstance(result, BaseException):
        return outcome_label(result)
    return "failed_rows" if result.failed_rows else "ok"


def tilt_principal(inst, action: str, s: int, s_prime: int, eps: float):
    """Copy of ``inst`` with eps of the principal's mass for ``action`` moved from s_prime onto s."""
    actions = []
    for act in inst.actions:
        if act.name == action:
            probs = list(act.principal_beliefs.probs)
            probs[s] += eps
            probs[s_prime] -= eps
            act = bc.ActionSpec(act.name, act.cost, bc.Distribution(tuple(probs)), act.agent_beliefs)
        actions.append(act)
    return bc.ProblemInstance(inst.outputs, tuple(actions), inst.reservation_utility, inst.utility)


def coincides(inst, target: str, s: int, s_prime: int, eps: float) -> bool:
    """First-best coincidence flag at one tilt of the target's principal beliefs."""
    tilted = tilt_principal(inst, target, s, s_prime, eps)
    return bc.solve_second_best(tilted, target).coincides_with_first_best


def check_detect(eps_star, flag, eps_max: float, tol: float = 1e-6) -> str:
    """The flag must flip across eps*; with no eps* it must agree at both ends.

    ``flag(eps)`` evaluates the coincidence flag by a direct solve.
    """
    if isinstance(eps_star, BaseException):
        return outcome_label(eps_star)
    if eps_star is None:
        return "no_flip_confirmed" if flag(0.0) == flag(eps_max) else "missed_flip"
    lo, hi = max(eps_star - tol, 0.0), min(eps_star + tol, eps_max)
    return "ok" if flag(lo) != flag(hi) else "no_flip_at_eps_star"


def check_equivalence(report, direct_cost: float) -> str:
    if isinstance(report, BaseException):
        return outcome_label(report)
    return "ok" if abs(report.cost_iterative - direct_cost) <= EQUIVALENCE_COST_TOL else "cost_mismatch"


def check_cara(result, reference) -> str:
    """Closed-form wages must match the numeric second-best solve row by row.

    ``reference`` holds (wages, coincides_with_first_best) of the numeric
    solve at each grid point, or the exception a numeric solve raised.  The
    closed form covers only the binding regime, so its NegativeMu refusal is
    correct when the numeric solve finds the incentive constraint slack
    somewhere on the grid.
    """
    if isinstance(reference, BaseException):
        if isinstance(result, BaseException) and not isinstance(result, bc.NegativeMu):
            return outcome_label(result)
        return "reference_failed"
    if isinstance(result, bc.NegativeMu):
        return "negative_mu_confirmed" if any(c for _, c in reference) else "NegativeMu"
    if isinstance(result, BaseException):
        return outcome_label(result)
    got = np.asarray(result.wages, dtype=float)
    ref = np.asarray([w for w, _ in reference], dtype=float)
    if got.shape != ref.shape or not np.all(np.isfinite(ref)):
        return "wage_mismatch"
    return "ok" if float(np.max(np.abs(got - ref))) <= CARA_WAGE_TOL else "wage_mismatch"


def check_oracle(report) -> str:
    if isinstance(report, BaseException):
        return outcome_label(report)
    return "ok" if report.within_tolerance else "outside_cell_tolerance"


def choose_reference(inst) -> dict:
    """Per action: certified second-best cost from a direct solve, or the error."""
    ref = {}
    for act in inst.actions:
        try:
            sol = bc.solve_second_best(inst, act.name)
        except Exception as exc:     # a refusal or a program error: no reference
            ref[act.name] = exc
            continue
        if not (bc.kkt_certificate(inst, act.name, sol, tol=KKT_TOL).passed
                and kkt_from_wages(inst, act.name, sol)):
            ref[act.name] = "uncertified"
        else:
            ref[act.name] = sol.expected_cost_principal
    return ref


def check_choose(report, inst, reference: dict) -> str:
    """Each entry's cost matches a certified direct solve; the choice maximizes profit."""
    if isinstance(report, BaseException):
        return outcome_label(report)
    for entry in report.entries:
        ref = reference.get(entry.action)
        if not isinstance(ref, float):
            return "uncertified_entry"
        if abs(entry.expected_cost - ref) > CHOOSE_COST_RTOL * max(1.0, abs(ref)):
            return "cost_mismatch"
    y = np.asarray(inst.outputs, dtype=float)
    profit = {a.name: float(a.principal_beliefs.as_array() @ y) - reference[a.name]
              for a in inst.actions}
    top = max(profit.values())
    tied = [a for a in inst.actions if profit[a.name] >= top - 1e-12]
    best = min(tied, key=lambda a: a.cost).name
    return "ok" if report.chosen == best else "wrong_choice"


def check_cli(exit_code: int, stdout: bytes, expected: tuple[int, bytes]) -> str:
    """The command must exit with the code in-process cli.main returned and
    print exactly what it printed; ``expected`` is that (code, stdout)."""
    if exit_code not in (0, 1, 2):
        return f"escaped:exit{exit_code}"
    expected_code, expected_stdout = expected
    if exit_code != expected_code:
        return f"exit{exit_code}_expected{expected_code}"
    return "ok" if stdout == expected_stdout else "stdout_mismatch"


def is_unjudged(label: str) -> bool:
    """True when the op has no verdict: its check raised, or its Infeasible
    still waits for the LP reference."""
    return label.startswith("unchecked:") or label == LP_PENDING
