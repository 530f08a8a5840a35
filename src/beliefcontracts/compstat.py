"""Generic eps-reallocation sweeps over belief vectors.

Re-solves the contract along a grid of two-coordinate belief tilts (either
party, either action), recording wage paths, multipliers, the wage-variance
"power" of incentives, per-state direction verdicts, and the spots where the
incentive constraint stops binding.  ``detect_regime_change`` locates one such
spot as the root of the risk-sharing contract's incentive slack, by Newton
steps on its exact slope in eps (``kernel.sensitivity``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beliefs import Monotonicity, Party, ProblemInstance, SolverKind
from .errors import BeliefContractsError, ValidationError
from .first_best import VERDICT_TOL, classify_monotonicity, solve_first_best
from .kernel import _interior, rtsafe, sensitivity, sharing_stack
from .second_best import _FEASIBILITY_TOL, _solve_each, risk_sharing, solve_second_best


@dataclass(frozen=True)
class SweepResult:
    """Wage paths and verdicts along an eps grid.

    Rows align with eps_values; failed solves carry NaN wages and appear in
    ``failed_rows``.  ``power_path`` is the wage variance under the agent's
    beliefs for the implemented action, ``power_path_principal`` under the
    principal's.  ``regime_changes`` lists each eps at which the
    first-best-coincidence flag differs from the previous solved row.
    """

    eps_values: tuple[float, ...]
    wage_paths: tuple[tuple[float, ...], ...]
    lambda_path: tuple[float, ...]
    mu_path: tuple[float, ...]
    power_path: tuple[float, ...]
    power_path_principal: tuple[float, ...]
    verdicts: tuple[Monotonicity, ...]
    regime_changes: tuple[float, ...]
    coincides_path: tuple[bool, ...]
    failed_rows: tuple[int, ...]


def _variance(wages: np.ndarray, probs: np.ndarray) -> float:
    mean = float(probs @ wages)
    return float(probs @ (wages - mean) ** 2)


def sweep(inst: ProblemInstance, action: str, party: Party, which_action: str,
          s: int, s_prime: int, eps_grid, solver: SolverKind) -> SweepResult:
    """Re-solve the contract for ``action`` at every eps in the grid.

    Each eps moves that much probability from state s_prime onto state s in
    the beliefs of ``party`` about ``which_action``; a second-best row
    counts an incentive constraint as satisfied at slack >= -1e-9, the
    solver's own tolerance.  Per-row solver failures are recorded, not fatal.
    """
    eps_values = [float(e) for e in eps_grid]
    S = inst.n_states
    if not (0 <= s < S and 0 <= s_prime < S):
        raise ValidationError("state indices out of range")
    if not isinstance(solver, SolverKind):
        raise ValidationError(f"unknown solver {solver!r}")

    tilted = [inst.tilted(party, which_action, s, s_prime, eps) for eps in eps_values]
    rows, lams, mus, power_a, power_p, coincides, failed = [], [], [], [], [], [], []
    solve = _first_best_each if solver is SolverKind.FIRST_BEST else _second_best_each
    for i, (t, sol) in enumerate(zip(tilted, solve(tilted, action))):
        if isinstance(sol, BeliefContractsError):
            rows.append((float("nan"),) * S)
            lams.append(float("nan"))
            mus.append(float("nan"))
            power_a.append(float("nan"))
            power_p.append(float("nan"))
            coincides.append(False)
            failed.append(i)
            continue
        w, lam, mu, coin = sol
        t_act = t.action(action)
        rows.append(tuple(float(x) for x in w))
        lams.append(float(lam))
        mus.append(float(mu))
        power_a.append(_variance(w, t_act.agent_beliefs.as_array()))
        power_p.append(_variance(w, t_act.principal_beliefs.as_array()))
        coincides.append(bool(coin))

    ok = [i for i in range(len(eps_values)) if i not in failed]
    verdicts = [classify_monotonicity([rows[i][state] for i in ok], tol=VERDICT_TOL)
                for state in range(S)]

    regime = [eps_values[j] for i, j in zip(ok, ok[1:])
              if coincides[i] != coincides[j]]

    return SweepResult(
        eps_values=tuple(eps_values),
        wage_paths=tuple(rows),
        lambda_path=tuple(lams),
        mu_path=tuple(mus),
        power_path=tuple(power_a),
        power_path_principal=tuple(power_p),
        verdicts=tuple(verdicts),
        regime_changes=tuple(regime),
        coincides_path=tuple(coincides),
        failed_rows=tuple(failed),
    )


def _second_best_each(tilted, action: str) -> list:
    """(wages, lam, mu, coincides) of ``solve_second_best`` on each tilted
    instance, or its refusal: one program stack (``second_best._solve_each``);
    mu is the lone incentive multiplier, or the sum of several."""
    out = []
    for sol in _solve_each(tilted, action):
        if not isinstance(sol, BeliefContractsError):
            mu = sol.mu[0] if len(sol.mu) == 1 else float(sum(sol.mu))
            sol = (np.asarray(sol.wages), sol.lam, mu, sol.coincides_with_first_best)
        out.append(sol)
    return out


def _first_best_each(tilted, action: str) -> list:
    """(wages, lam, 0, True) of ``solve_first_best`` on each tilted instance,
    or its refusal.  The rows whose beliefs pass share one
    ``kernel.sharing_stack`` call, bit for bit ``solve_ir_only``; a row it
    refuses, or whose wages leave a tightened domain, is solved alone, so
    ``solve_first_best`` raises its refusal."""
    out, rows, acts = [], [], []
    for t in tilted:
        try:
            t.require_positive_beliefs()
            acts.append(t.action(action))
        except BeliefContractsError as exc:
            out.append(exc)
            continue
        rows.append(len(out))
        out.append(None)
    if rows:
        model = tilted[rows[0]].utility
        _, w, lam, ok = sharing_stack(
            np.array([a.principal_beliefs.as_array() for a in acts]),
            np.array([a.agent_beliefs.as_array() for a in acts]), model,
            tilted[rows[0]].reservation_utility + acts[0].cost)
        ok &= _interior(w, model)
        for j, i in enumerate(rows):
            if ok[j]:
                out[i] = (w[j], lam[j], 0.0, True)
                continue
            try:
                sol = solve_first_best(tilted[i], action)
                out[i] = (np.asarray(sol.wages), sol.lam, 0.0, True)
            except BeliefContractsError as exc:
                out[i] = exc
    return out


@dataclass(frozen=True)
class BeliefTilt:
    """A parameterized two-coordinate belief tilt."""

    party: Party
    action: str
    s: int
    s_prime: int


def detect_regime_change(inst: ProblemInstance, tilt: BeliefTilt, eps_max: float,
                         target: str | None = None,
                         tol: float = 1e-6) -> float | None:
    """Find the eps at which the incentive constraint starts or stops binding
    along the tilt, within tol/2; None when the flag agrees at both ends.

    The flag is the second best's ``coincides_with_first_best``.  Both ends,
    0 and eps_max (either sign), are solved with ``solve_second_best``, whose
    refusals propagate.  In between the flag is read from the risk-sharing
    contract alone (see ``risk_sharing``): it flips where the smallest
    incentive slack crosses -tol_s, tol_s = 1e-9 being the solver's own
    tolerance (``second_best._FEASIBILITY_TOL``, read here too).
    ``kernel.rtsafe`` roots slack + tol_s, each point's side from the
    solver's own comparison slack < -tol_s, on the slope d row_i . v +
    row_i . dv of the smallest slack's row i, dv from ``kernel.sensitivity``,
    to a Newton correction of tol/4 or a bracket of tol/2 (tol, the accuracy
    of eps, is this function's own).  The root is taken on the slack rather
    than on the multiplier mu(eps), which is identically 0 where the
    constraint is slack and has a kink at the flip.

    Args:
        eps_max: other end of the tilt range; must keep the open simplex.
        target: action whose contract is solved (defaults to the costliest).
    """
    if target is None:
        target = max(inst.actions, key=lambda a: a.cost).name

    def tilted(eps: float) -> ProblemInstance:
        return inst.tilted(tilt.party, tilt.action, tilt.s, tilt.s_prime, eps)

    ends = sorted(((eps, solve_second_best(tilted(eps), target))
                   for eps in (0.0, float(eps_max))), key=lambda end: end[0])
    binding_lo = not ends[0][1].coincides_with_first_best
    if binding_lo != ends[1][1].coincides_with_first_best:
        return None
    e = np.zeros(inst.n_states)         # d beliefs / d eps
    e[tilt.s], e[tilt.s_prime] = 1.0, -1.0

    def point(eps: float, sol=None):
        """(eps, slack + tol_s, binding as at the lower end, instance, v, lam,
        row of the smallest slack), a coinciding end read from its solution."""
        t = tilted(eps)
        if sol is not None and sol.coincides_with_first_best:
            v, lam, slacks = np.asarray(sol.utility_levels), sol.lam, sol.ic_slacks
        else:
            v, lam, slacks = risk_sharing(t, target)
        i = int(np.argmin(slacks))
        binding = slacks[i] < -_FEASIBILITY_TOL
        return eps, slacks[i] + _FEASIBILITY_TOL, binding == binding_lo, t, v, lam, i

    def slope(p) -> float:
        _, _, _, t, v, lam, i = p
        act, other = t.action(target), t.other_actions(target)[i]
        q = act.agent_beliefs.as_array()
        d_weights = d_q = d_row = 0.0 * e
        if tilt.action == target and tilt.party is Party.PRINCIPAL:
            d_weights = e
        elif tilt.action == target:
            d_q = d_row = e
        elif tilt.action == other.name and tilt.party is Party.AGENT:
            d_row = -e
        dv, _ = sensitivity(act.principal_beliefs.as_array(), q[None], [lam], v, t.utility,
                            d_weights, d_q)
        return float(d_row @ v + (q - other.agent_beliefs.as_array()) @ dv)

    return rtsafe(point, slope, point(*ends[0]), point(*ends[1]),
                  lambda x: 0.25 * tol, lambda x, y: 0.5 * tol)[0]
