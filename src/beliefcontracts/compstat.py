"""Generic eps-reallocation sweeps over belief vectors.

Re-solves the contract along a grid of two-coordinate belief tilts (either
party, either action), recording wage paths, multipliers, the wage-variance
"power" of incentives, per-state direction verdicts, and the spots where the
incentive constraint stops binding.  ``sweep`` tilts one belief vector per
eps into stacked copies of the belief arrays and solves every row's program
at once; it builds no tilted ``ProblemInstance``.  ``detect_regime_change``
locates one such spot as the root of the risk-sharing contract's incentive
slack, by Newton steps on its exact slope in eps (``kernel.sensitivity``),
whose data move is the program of the tilt's unit move: the program
(``second_best._program``) is linear in the beliefs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beliefs import SOLVER_MIN_PROB, Monotonicity, Party, ProblemInstance, SolverKind
from .errors import BeliefContractsError, KKTDegeneracy, ValidationError
from .first_best import VERDICT_TOL, classify_monotonicity
from .kernel import _interior, rtsafe, sensitivity, sharing_stack
from .second_best import (_FEASIBILITY_TOL, _beliefs, _program, _require_incentive_rows,
                          _risk_sharing, _solution, solve_dual_stack, solve_second_best)


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
    the beliefs of ``party`` about ``which_action`` (``Distribution.tilted``,
    whose ``EpsilonTooLarge`` propagates from the first eps it refuses, before
    any solve); a second-best row counts an incentive constraint as
    satisfied at slack >= -1e-9, the solver's own tolerance.  An unknown
    action, or a second best of a one-action problem, raises
    ``ValidationError`` before any solve.  The tilted vectors are written
    into stacked copies of the belief arrays, whose rows share one
    ``second_best._program`` call and one solve: ``kernel.sharing_stack``
    (first best) or ``second_best.solve_dual_stack`` (second best).  A row
    with a belief below ``SOLVER_MIN_PROB``, or refused by its solve, is
    recorded as failed, not fatal.
    """
    eps_values = [float(e) for e in eps_grid]
    K, S = len(eps_values), inst.n_states
    if not (0 <= s < S and 0 <= s_prime < S):
        raise ValidationError("state indices out of range")
    if not isinstance(solver, SolverKind):
        raise ValidationError(f"unknown solver {solver!r}")
    if solver is SolverKind.SECOND_BEST:
        _require_incentive_rows(inst)
    j, k = (inst.actions.index(inst.action(name)) for name in (action, which_action))
    act = inst.actions[k]
    beliefs = act.principal_beliefs if party is Party.PRINCIPAL else act.agent_beliefs
    P, Q = (np.repeat(x[None], K, axis=0) for x in _beliefs(inst))
    tilted = P if party is Party.PRINCIPAL else Q
    for i, eps in enumerate(eps_values):
        tilted[i, k] = beliefs.tilted(s, s_prime, eps).probs

    answers = {}        # row -> (wages, lam, mu, coincides)
    valid = np.flatnonzero((P.min((1, 2)) >= SOLVER_MIN_PROB) & (Q.min((1, 2)) >= SOLVER_MIN_PROB))
    if valid.size:
        weights, M, r = _program(inst, action, P[valid], Q[valid])
        model = inst.utility
        if solver is SolverKind.FIRST_BEST:
            _, w, lam, ok = sharing_stack(weights, M[:, 0], model, r[0])
            for n in np.flatnonzero(ok & _interior(w, model)):
                answers[int(valid[n])] = (w[n], lam[n], 0.0, True)
        else:
            for i, delta, dual in zip(valid.tolist(), weights,
                                      solve_dual_stack(weights, M, r, model)):
                if isinstance(dual, BeliefContractsError):
                    continue
                try:
                    sol = _solution(action, delta, dual)
                except KKTDegeneracy:       # its lam > 0 test
                    continue
                mu = sol.mu[0] if len(sol.mu) == 1 else float(sum(sol.mu))
                answers[i] = (dual[1], sol.lam, mu, sol.coincides_with_first_best)

    nan = float("nan")
    rows, coincides = [(nan,) * S] * K, [False] * K
    lams, mus, power_a, power_p = ([nan] * K for _ in range(4))
    for i, (w, lam, mu, coin) in answers.items():
        rows[i] = tuple(float(x) for x in w)
        lams[i], mus[i], coincides[i] = float(lam), float(mu), bool(coin)
        power_a[i], power_p[i] = _variance(w, Q[i, j]), _variance(w, P[i, j])
    solved = sorted(answers)
    verdicts = [classify_monotonicity([rows[i][state] for i in solved], tol=VERDICT_TOL)
                for state in range(S)]
    regime = [eps_values[b] for a, b in zip(solved, solved[1:]) if coincides[a] != coincides[b]]

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
        failed_rows=tuple(i for i in range(K) if i not in answers),
    )


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
    contract alone (see ``risk_sharing``), of the program built from the
    tilted belief arrays (no instance is built there): it flips where the
    smallest incentive slack crosses -tol_s, tol_s = 1e-9 being the solver's
    own tolerance (``second_best._FEASIBILITY_TOL``, read here too).
    ``kernel.rtsafe`` roots slack + tol_s, each point's side from the
    solver's own comparison slack < -tol_s, on the slope d row_i . v +
    row_i . dv of the smallest slack's row i, dv from ``kernel.sensitivity``.
    The program is linear in the beliefs, so its move (d weights, d M) is
    ``second_best._program`` of the tilt's unit move, computed once.  Newton
    stops at a correction of tol/4 or a bracket of tol/2 (tol, the accuracy
    of eps, is this function's own).  The root is taken on the slack rather
    than on the multiplier mu(eps), which is identically 0 where the
    constraint is slack and has a kink at the flip.

    Args:
        eps_max: other end of the tilt range; must keep the open simplex.
        target: action whose contract is solved (defaults to the costliest).
    """
    if target is None:
        target = max(inst.actions, key=lambda a: a.cost).name

    ends = sorted(((eps, solve_second_best(
        inst.tilted(tilt.party, tilt.action, tilt.s, tilt.s_prime, eps), target))
        for eps in (0.0, float(eps_max))), key=lambda end: end[0])
    binding_lo = not ends[0][1].coincides_with_first_best
    if binding_lo != ends[1][1].coincides_with_first_best:
        return None
    # the beliefs' move per unit eps, and the program's, which is linear in them
    P, Q = _beliefs(inst)
    dP, dQ = np.zeros((2, *P.shape))
    moved = dP if tilt.party is Party.PRINCIPAL else dQ
    moved[inst.actions.index(inst.action(tilt.action)), [tilt.s, tilt.s_prime]] = 1.0, -1.0
    d_weights, d_M, _ = _program(inst, target, dP, dQ)

    def point(eps: float, sol=None):
        """(eps, slack + tol_s, binding as at the lower end, (weights, M), v,
        lam, row of the smallest slack), a coinciding end read from its
        solution.  P + eps dP holds Distribution.tilted's p_s + eps and
        p_s' - eps, bit for bit."""
        weights, M, r = _program(inst, target, P + eps * dP, Q + eps * dQ)
        if sol is not None and sol.coincides_with_first_best:
            v, lam, slacks = np.asarray(sol.utility_levels), sol.lam, sol.ic_slacks
        else:
            v, lam, slacks = _risk_sharing(weights, M, r, inst.utility)
        i = int(np.argmin(slacks))
        binding = slacks[i] < -_FEASIBILITY_TOL
        return eps, slacks[i] + _FEASIBILITY_TOL, binding == binding_lo, (weights, M), v, lam, i

    def slope(p) -> float:
        _, _, _, (weights, M), v, lam, i = p
        dv, _ = sensitivity(weights, M[:1], [lam], v, inst.utility, d_weights, d_M[:1])
        return float(d_M[1 + i] @ v + M[1 + i] @ dv)

    return rtsafe(point, slope, point(*ends[0]), point(*ends[1]),
                  lambda x: 0.25 * tol, lambda x, y: 0.5 * tol)[0]
