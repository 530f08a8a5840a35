"""Observable-action contracting: risk sharing under belief heterogeneity.

With the action contractible the program is

    min  sum_s pi^P_s(a) w_s   s.t.   sum_s pi^A_s(a) u(w_s) - c(a) >= ubar,

whose first-order condition pi^P_s = lam * pi^A_s * u'(w_s) pins wages once
the participation multiplier lam is known; the participation constraint binds
and its residual is strictly increasing in lam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beliefs import MlrpOrder, Monotonicity, ProblemInstance
from .errors import EpsilonTooLarge, ValidationError
from .kernel import solve_ir_only

#: Wage differences below this are treated as flat when classifying schedules.
FLAT_TOL = 1e-8


@dataclass(frozen=True)
class FirstBestSolution:
    """Risk-sharing contract for one action.

    Attributes:
        wages: optimal wage per state (money).
        utility_levels: v_s = u(w_s).
        lam: participation multiplier (> 0).
        expected_cost_principal: wage bill under the principal's beliefs.
        expected_cost_agent_beliefs: wage bill under the agent's beliefs.
        ir_residual: participation slack in utils (binds: ~0).
        foc_residuals: per state, (pi^P_s - lam pi^A_s u'(w_s)) / pi^P_s.
    """

    action: str
    wages: tuple[float, ...]
    utility_levels: tuple[float, ...]
    lam: float
    expected_cost_principal: float
    expected_cost_agent_beliefs: float
    ir_residual: float
    foc_residuals: tuple[float, ...]


def solve_first_best(inst: ProblemInstance, action: str, tol: float = 1e-9) -> FirstBestSolution:
    """Solve the observable-action problem for one action.

    Args:
        inst: problem instance with strictly positive beliefs.
        action: name of the action to implement.
        tol: participation residual tolerance (utils).

    Raises:
        NoBracket: required utility level unreachable for the utility family.
        DomainError: propagated from the utility model.
    """
    inst.require_positive_beliefs()
    act = inst.action(action)
    delta = act.principal_beliefs.as_array()
    q = act.agent_beliefs.as_array()
    level = inst.reservation_utility + act.cost
    model = inst.utility

    v, w, lam = solve_ir_only(delta, q, model, level)
    ir_residual = float(q @ v) - level
    foc = (delta - lam * q * np.asarray(model.marginal(w))) / delta
    return FirstBestSolution(
        action=action,
        wages=tuple(float(x) for x in w),
        utility_levels=tuple(float(x) for x in v),
        lam=lam,
        expected_cost_principal=float(delta @ w),
        expected_cost_agent_beliefs=float(q @ w),
        ir_residual=ir_residual,
        foc_residuals=tuple(float(x) for x in foc),
    )


def classify_monotonicity(wages, tol: float = FLAT_TOL) -> Monotonicity:
    """Empirical ordering of a wage schedule across states.

    Accepts a solution object or a plain wage sequence.  Adjacent differences
    within ``tol`` count as flat.
    """
    if hasattr(wages, "wages"):
        wages = wages.wages
    diffs = np.diff(np.asarray(wages, dtype=float))
    up = diffs > tol
    down = diffs < -tol
    if not up.any() and not down.any():
        return Monotonicity.FLAT
    if not down.any():
        return Monotonicity.INCREASING
    if not up.any():
        return Monotonicity.DECREASING
    return Monotonicity.NON_MONOTONE


def check_prop1(classification: Monotonicity, order: MlrpOrder,
                principal_is_f: bool = True) -> bool:
    """Whether a wage classification is consistent with the risk-sharing
    monotonicity result: principal-dominating beliefs allow only decreasing
    or flat wages, agent-dominating beliefs only increasing or flat.

    Args:
        order: mlrp_compare(principal, agent) when principal_is_f, else
            mlrp_compare(agent, principal).
    """
    if not principal_is_f:
        flip = {MlrpOrder.F_DOMINATES_G: MlrpOrder.G_DOMINATES_F,
                MlrpOrder.G_DOMINATES_F: MlrpOrder.F_DOMINATES_G}
        order = flip.get(order, order)
    if order is MlrpOrder.F_DOMINATES_G:      # principal dominates agent
        return classification in (Monotonicity.DECREASING, Monotonicity.FLAT)
    if order is MlrpOrder.G_DOMINATES_F:      # agent dominates principal
        return classification in (Monotonicity.INCREASING, Monotonicity.FLAT)
    if order is MlrpOrder.EQUAL:
        return classification is Monotonicity.FLAT
    return True                               # incomparable: no restriction


@dataclass(frozen=True)
class DirectionReport:
    """Wage response to a two-state reallocation of principal beliefs.

    ``weak_ok[t]`` records the weak inequality for state t (down at the state
    gaining probability, up everywhere else); ``n_strict`` counts strict moves.
    """

    shifted_down: int
    shifted_up: int
    weak_ok: tuple[bool, ...]
    n_strict: int
    satisfied: bool


def perturbed_distribution(dist, s: int, s_prime: int, eps: float):
    """Move eps of probability mass from state s_prime onto state s."""
    from .beliefs import Distribution

    probs = list(dist.probs)
    if s == s_prime:
        raise ValidationError("perturbation needs two distinct states")
    if eps < 0:
        raise EpsilonTooLarge("eps must be >= 0")
    if eps >= min(probs[s], probs[s_prime]):
        raise EpsilonTooLarge(
            f"eps={eps} not below min of the two perturbed probabilities")
    probs[s] += eps
    probs[s_prime] -= eps
    return Distribution(tuple(probs))


def first_best_compstat(inst: ProblemInstance, action: str, s: int, s_prime: int,
                        eps: float, tol: float = 1e-9):
    """Re-solve after tilting principal beliefs by eps from s_prime onto s.

    The report checks the reallocation pattern: wage down at the state
    gaining probability, weakly up everywhere else, at least two strict
    moves.  Exponential utility satisfies it exactly (unperturbed states do
    not move there); families with wealth effects can push a bystander wage
    down through the participation multiplier, which the report surfaces as
    ``satisfied=False``.

    Returns:
        (base solution, perturbed solution, DirectionReport).
    """
    from .beliefs import ActionSpec, ProblemInstance as _PI

    act = inst.action(action)
    tilted = perturbed_distribution(act.principal_beliefs, s, s_prime, eps)
    new_actions = tuple(
        a if a.name != action else
        ActionSpec(a.name, a.cost, tilted, a.agent_beliefs)
        for a in inst.actions)
    tilted_inst = _PI(inst.outputs, new_actions, inst.reservation_utility, inst.utility)

    base = solve_first_best(inst, action, tol=tol)
    pert = solve_first_best(tilted_inst, action, tol=tol)

    strict_tol = max(10.0 * tol, 1e-10)
    weak, n_strict = [], 0
    for t in range(inst.n_states):
        move = pert.wages[t] - base.wages[t]
        if t == s:
            weak.append(move <= strict_tol)
            n_strict += move < -strict_tol
        else:
            weak.append(move >= -strict_tol)
            n_strict += move > strict_tol
    satisfied = all(weak) and (eps == 0.0 or n_strict >= 2)
    return base, pert, DirectionReport(
        shifted_down=s, shifted_up=s_prime,
        weak_ok=tuple(weak), n_strict=int(n_strict), satisfied=bool(satisfied))
