"""Hidden-action contracting: cost minimization under incentive constraints.

The program for implementing a target action H, written in promised-utility
space v_s = u(w_s), is

    min  sum_s pi^P_s(H) h(v_s)
    s.t. sum_s pi^A_s(H) v_s - c(H) >= ubar                    (participation)
         sum_s [pi^A_s(H) - pi^A_s(a')] v_s >= c(H) - c(a')    (one IC per a')

Participation always binds.  The solver first tries the pure risk-sharing
contract; if some incentive constraint fails, it runs an active-set loop over
binding constraint subsets, each subproblem solved by equality-constrained
Newton (see kernel).  The multipliers lam and mu are the ones the final
working set's solve returns: the risk-sharing multiplier, or the kernel's
fit of the stationarity conditions on the active rows.  The principal's
beliefs about non-target actions never enter the contract, only the action
choice.

``solve_active_set`` is that loop; the spread decomposition's inner programs
(see iterative) run on it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beliefs import (MlrpOrder, Monotonicity, ProblemInstance, mlrp_compare)
from .errors import (DimensionError, Infeasible, KKTDegeneracy,
                     NegativeMultiplier, ValidationError)
from .first_best import classify_monotonicity, solve_first_best
from .kernel import minimize_on_affine, solve_ir_only

_MAX_ACTIVE_SET = 100


@dataclass(frozen=True)
class SecondBestSolution:
    """Optimal incentive contract for a target action.

    Attributes:
        wages: wage per state.
        utility_levels: v_s = u(w_s).
        lam: participation multiplier (> 0).
        mu: incentive multiplier per non-target action (ordered as
            inst.other_actions(target)), each >= 0.
        ic_slacks: incentive slack per non-target action at the optimum.
        ir_residual: participation slack in utils.
        expected_cost_principal: wage bill under pi^P(target).
        coincides_with_first_best: no incentive constraint binds.
        foc_residuals: per state, stationarity residual divided by pi^P_s;
            for states pinned at a wage-box bound the bound multiplier is
            excluded, so the residual reports the bound's shadow price.
        lower_bound_states / upper_bound_states: states pinned at the wage
            box (empty without a box).
    """

    target: str
    wages: tuple[float, ...]
    utility_levels: tuple[float, ...]
    lam: float
    mu: tuple[float, ...]
    ic_slacks: tuple[float, ...]
    ir_residual: float
    expected_cost_principal: float
    coincides_with_first_best: bool
    foc_residuals: tuple[float, ...]
    lower_bound_states: tuple[int, ...] = ()
    upper_bound_states: tuple[int, ...] = ()

    @property
    def binding(self) -> tuple[bool, ...]:
        """Which incentive constraints bind (multiplier > 0)."""
        return tuple(m > 0.0 for m in self.mu)


def _ic_rows(inst: ProblemInstance, target: str):
    act = inst.action(target)
    q = act.agent_beliefs.as_array()
    rows, rhs, names = [], [], []
    for other in inst.other_actions(target):
        rows.append(q - other.agent_beliefs.as_array())
        rhs.append(act.cost - other.cost)
        names.append(other.name)
    return q, rows, rhs, names


def risk_sharing_slack(inst: ProblemInstance, target: str) -> float:
    """Smallest incentive slack of the risk-sharing contract for ``target``.

    This is the contract ``solve_active_set`` solves on its first, empty
    working set: the same ``solve_ir_only`` call on the same data, and the
    same slacks that it compares with -tol.  The search starts at the empty
    set and can never return to it, because the empty set is already in
    ``seen``.  So wherever ``solve_second_best(inst, target, tol)`` returns
    without a wage box, its ``coincides_with_first_best`` holds exactly when
    this slack is not below -tol.
    """
    act = inst.action(target)
    q, rows, rhs, _ = _ic_rows(inst, target)
    v, _, _ = solve_ir_only(act.principal_beliefs.as_array(), q, inst.utility,
                            inst.reservation_utility + act.cost)
    return float(min(row @ v - rv for row, rv in zip(rows, rhs)))


def solve_active_set(weights, eq_rows, eq_rhs, ineqs, model, tol: float,
                     start: frozenset[int] = frozenset()):
    """Minimize sum_s weights_s h(v_s) s.t. eq_rows v = eq_rhs (row 0 is
    participation) and row v >= rhs for each (row, rhs, ...) in ``ineqs``.

    Each working set of inequality indices is solved from scratch, its rows
    stacked as participation, active inequalities by index, eq_rows[1:]; the
    participation row alone goes to ``solve_ir_only``.  From ``start`` the
    worst violated inequality (slack < -tol) joins, else the most negative
    multiplier (< -tol) leaves.  Returns (v, wages, theta, active), theta
    ordered as the stacked rows; NegativeMultiplier if a working set recurs
    or 100 were tried.
    """
    def solve_working_set(active: frozenset[int]):
        order = sorted(active)
        if len(eq_rows) == 1 and not order:
            v, w, lam = solve_ir_only(weights, eq_rows[0], model, eq_rhs[0])
            return np.asarray(v), np.asarray(w), np.array([lam])
        M = np.vstack([eq_rows[0]] + [ineqs[i][0] for i in order] + list(eq_rows[1:]))
        r = np.array([eq_rhs[0]] + [ineqs[i][1] for i in order] + list(eq_rhs[1:]))
        sol = minimize_on_affine(weights, M, r, model)
        return np.asarray(sol.v), np.asarray(sol.wages), np.asarray(sol.multipliers)

    active = frozenset(start)
    seen = {active}
    for _ in range(_MAX_ACTIVE_SET):
        v, w, theta = solve_working_set(active)
        slacks = [row @ v - rv for row, rv, *_ in ineqs]
        violated = [i for i in range(len(ineqs)) if i not in active and slacks[i] < -tol]
        if violated:
            active = active | {min(violated, key=lambda i: slacks[i])}
        else:
            mult = dict(zip(sorted(active), theta[1:]))
            negative = [i for i in active if mult[i] < -tol]
            if not negative:
                return v, w, theta, active
            active = active - {min(negative, key=lambda i: mult[i])}
        if active in seen:
            raise NegativeMultiplier("active-set search revisited a working set")
        seen.add(active)
    raise NegativeMultiplier("active-set search did not settle on a binding pattern")


def solve_second_best(inst: ProblemInstance, target: str, tol: float = 1e-9,
                      wage_box: tuple[float, float] | None = None) -> SecondBestSolution:
    """Solve the hidden-action cost-minimization program for ``target``.

    Args:
        inst: two or more actions, strictly positive beliefs.
        target: the action to implement.
        tol: feasibility/stationarity tolerance.  An incentive constraint
            counts as satisfied at slack >= -tol.
        wage_box: optional (w_min, w_max) bounds restoring compactness; never
            applied silently.

    Raises:
        Infeasible, Unbounded, NegativeMultiplier, KKTDegeneracy: see errors.
    """
    inst.require_positive_beliefs()
    if len(inst.actions) < 2:
        raise ValidationError("second-best needs at least 2 actions")
    act = inst.action(target)
    model = inst.utility
    delta = act.principal_beliefs.as_array()
    level = inst.reservation_utility + act.cost
    q, ic_rows, ic_rhs, ic_names = _ic_rows(inst, target)
    S = inst.n_states

    # inequality pool: incentive constraints, then wage-box faces (in v-space)
    ineqs: list[tuple[np.ndarray, float, str, object]] = [
        (row, rv, "ic", name) for row, rv, name in zip(ic_rows, ic_rhs, ic_names)]
    if wage_box is not None:
        w_lo, w_hi = wage_box
        if not w_lo < w_hi:
            raise ValidationError("wage box requires w_min < w_max")
        v_lo = float(model.evaluate(w_lo))
        v_hi = float(model.evaluate(w_hi))
        for s in range(S):
            e = np.zeros(S)
            e[s] = 1.0
            ineqs.append((e, v_lo, "lo", s))          # v_s >= v_lo
            ineqs.append((-e, -v_hi, "hi", s))        # -v_s >= -v_hi
    v, w, theta, active = solve_active_set(delta, [q], [level], ineqs, model, tol)

    active_sorted = sorted(active)
    active_ics = [i for i in active_sorted if ineqs[i][2] == "ic"]
    pins = [i for i in active_sorted if ineqs[i][2] != "ic"]
    lam = float(theta[0])
    mult = dict(zip(active_sorted, theta[1:]))

    if lam <= 0.0:
        raise KKTDegeneracy(f"participation multiplier came out non-positive ({lam})")

    mu = tuple(float(mult.get(i, 0.0)) for i in range(len(ic_rows)))
    ic_slacks = tuple(float(row @ v - rv) for row, rv in zip(ic_rows, ic_rhs))

    coef = lam * q
    for i, m in enumerate(mu):
        coef = coef + m * ic_rows[i]
    uprime = np.asarray(model.marginal(w), dtype=float)
    foc = (delta - coef * uprime) / delta

    lower_states = tuple(ineqs[i][3] for i in pins if ineqs[i][2] == "lo")
    upper_states = tuple(ineqs[i][3] for i in pins if ineqs[i][2] == "hi")

    return SecondBestSolution(
        target=target,
        wages=tuple(float(x) for x in w),
        utility_levels=tuple(float(x) for x in v),
        lam=lam,
        mu=mu,
        ic_slacks=ic_slacks,
        ir_residual=float(q @ v) - level,
        expected_cost_principal=float(delta @ w),
        coincides_with_first_best=not active_ics,
        foc_residuals=tuple(float(x) for x in foc),
        lower_bound_states=lower_states,
        upper_bound_states=upper_states,
    )


@dataclass(frozen=True)
class KktReport:
    """Karush-Kuhn-Tucker certificate for a returned second-best solution."""

    stationarity_max: float
    ir_abs: float
    min_ic_slack: float
    min_mu: float
    max_complementarity: float
    passed: bool


def kkt_certificate(inst: ProblemInstance, target: str, sol: SecondBestSolution,
                    tol: float = 1e-8) -> KktReport:
    """Check stationarity, feasibility, dual feasibility and complementary
    slackness of ``sol`` at tolerance ``tol`` (wage-box-free solutions)."""
    free = [s for s in range(inst.n_states)
            if s not in sol.lower_bound_states and s not in sol.upper_bound_states]
    stat = max(abs(sol.foc_residuals[s]) for s in free)
    ir = abs(sol.ir_residual)
    min_slack = min(sol.ic_slacks) if sol.ic_slacks else 0.0
    min_mu = min(sol.mu) if sol.mu else 0.0
    comp = max((abs(m * s) for m, s in zip(sol.mu, sol.ic_slacks)), default=0.0)
    passed = (stat <= tol and ir <= tol and min_slack >= -tol
              and min_mu >= -tol and comp <= tol)
    return KktReport(stat, ir, min_slack, min_mu, comp, passed)


@dataclass(frozen=True)
class ActionEntry:
    action: str
    revenue: float
    expected_cost: float
    profit: float
    coincides_with_first_best: bool
    first_best_cost: float


@dataclass(frozen=True)
class ActionChoiceReport:
    """Which action the principal implements, and the first-best comparison."""

    chosen: str
    entries: tuple[ActionEntry, ...]
    first_best_choice: str
    matches_first_best_choice: bool
    fb_cost_high_exceeds_low: bool | None


def choose_action(inst: ProblemInstance, tol: float = 1e-9) -> ActionChoiceReport:
    """Pick the profit-maximizing action given its optimal incentive scheme.

    Profit per action is expected revenue under the principal's beliefs for
    that action minus the cost of the contract implementing it.  Ties go to
    the action with the lower effort cost.
    """
    y = np.asarray(inst.outputs, dtype=float)
    entries = []
    for act in inst.actions:
        sol = solve_second_best(inst, act.name, tol=tol)
        fb = solve_first_best(inst, act.name)
        revenue = float(act.principal_beliefs.as_array() @ y)
        entries.append(ActionEntry(
            action=act.name,
            revenue=revenue,
            expected_cost=sol.expected_cost_principal,
            profit=revenue - sol.expected_cost_principal,
            coincides_with_first_best=sol.coincides_with_first_best,
            first_best_cost=fb.expected_cost_principal,
        ))

    def best(key_profit) -> str:
        top = max(key_profit(e) for e in entries)
        tied = [e for e in entries if key_profit(e) >= top - 1e-12]
        return min(tied, key=lambda e: inst.action(e.action).cost).action

    chosen = best(lambda e: e.profit)
    fb_choice = best(lambda e: e.revenue - e.first_best_cost)

    fb_flag = None
    if len(entries) == 2:
        hi, lo = sorted(entries, key=lambda e: inst.action(e.action).cost, reverse=True)
        fb_flag = hi.first_best_cost > lo.first_best_cost
    return ActionChoiceReport(
        chosen=chosen,
        entries=tuple(entries),
        first_best_choice=fb_choice,
        matches_first_best_choice=chosen == fb_choice,
        fb_cost_high_exceeds_low=fb_flag,
    )


@dataclass(frozen=True)
class SecondBestMonotonicityReport:
    """Wage ordering next to the MLRP premises that would predict it."""

    classification: Monotonicity
    agent_dominates_principal: bool
    principal_dominates_agent: bool
    asserted: Monotonicity | None
    satisfied: bool | None


def monotonicity_report(sol: SecondBestSolution, inst: ProblemInstance,
                        target: str) -> SecondBestMonotonicityReport:
    """Empirical wage ordering plus which likelihood-ratio premises hold.

    When the agent's beliefs for the target dominate the principal's, the
    optimal wage must be (weakly) increasing; the reverse ranking admits
    non-monotone schemes, so nothing is asserted there.
    """
    if len(inst.actions) != 2:
        raise ValidationError("monotonicity report is defined for two-action instances")
    act = inst.action(target)
    order = mlrp_compare(act.agent_beliefs, act.principal_beliefs)
    agent_dom = order in (MlrpOrder.F_DOMINATES_G, MlrpOrder.EQUAL)
    principal_dom = order in (MlrpOrder.G_DOMINATES_F, MlrpOrder.EQUAL)
    classification = classify_monotonicity(sol.wages)
    asserted = Monotonicity.INCREASING if agent_dom else None
    satisfied = None
    if asserted is not None:
        satisfied = classification in (Monotonicity.INCREASING, Monotonicity.FLAT)
    return SecondBestMonotonicityReport(
        classification=classification,
        agent_dominates_principal=agent_dom,
        principal_dominates_agent=principal_dom,
        asserted=asserted,
        satisfied=satisfied,
    )


def principal_payoff_monotonicity(sol: SecondBestSolution,
                                  inst: ProblemInstance) -> Monotonicity:
    """Ordering of the principal's state payoff y_s - w_s (need not be monotone)."""
    net = np.asarray(inst.outputs, dtype=float) - np.asarray(sol.wages, dtype=float)
    return classify_monotonicity(net)


@dataclass(frozen=True)
class FigureBundle:
    """Sampled geometry of the two-state contracting picture.

    Curves are (w_low_state, w_high_state) pairs; the corner is the contract
    at which both constraints bind (None if it falls outside the wage domain).
    """

    target: str
    indifference_target: tuple[tuple[float, float], ...]
    indifference_other: tuple[tuple[float, float], ...]
    isocost_through_contract: tuple[tuple[float, float], ...]
    isocost_through_corner: tuple[tuple[float, float], ...]
    corner: tuple[float, float] | None
    contract: tuple[float, float]
    coincides_with_first_best: bool
    expected_cost: float


def _indiff_window(model, q0: float, q1: float, level: float) -> tuple[float, float]:
    """Open interval of low-state wages on which the indifference locus exists."""
    lo_u, hi_u = model.utility_range
    # level = q0 u(t) + q1 arg  =>  arg in range  <=>  u(t) in (a, b)
    a = (level - q1 * hi_u) / q0 if np.isfinite(hi_u) else -np.inf
    b = (level - q1 * lo_u) / q0 if np.isfinite(lo_u) else np.inf
    u_lo = max(lo_u, a)
    u_hi = min(hi_u, b)
    if not u_lo < u_hi:
        raise Infeasible("indifference locus empty on this wage window")
    pad = 1e-9 * max(1.0, abs(u_lo) if np.isfinite(u_lo) else 1.0,
                     abs(u_hi) if np.isfinite(u_hi) else 1.0)
    w_lo = model.inverse(u_lo + pad) if np.isfinite(u_lo) else -np.inf
    w_hi = model.inverse(u_hi - pad) if np.isfinite(u_hi) else np.inf
    return float(w_lo), float(w_hi)


def figure_data(inst: ProblemInstance, grid: int) -> FigureBundle:
    """Emit the curves behind the two-state picture: both actions'
    indifference loci, the principal's iso-cost lines, the both-binding
    corner, and the solved contract point.

    Args:
        grid: number of samples per curve (>= 2; 2 gives endpoints only).
    """
    if inst.n_states != 2:
        raise DimensionError("figure data requires exactly 2 states")
    if len(inst.actions) != 2:
        raise DimensionError("figure data requires exactly 2 actions")
    if grid < 2:
        raise ValidationError("grid must be >= 2")
    model = inst.utility
    high = max(inst.actions, key=lambda a: a.cost)
    low = min(inst.actions, key=lambda a: a.cost)
    sol = solve_second_best(inst, high.name)
    levels = {a.name: inst.reservation_utility + a.cost for a in inst.actions}

    # both-binding corner in v-space
    A = np.vstack([high.agent_beliefs.as_array(), low.agent_beliefs.as_array()])
    b = np.array([levels[high.name], levels[low.name]])
    corner = None
    try:
        v_corner = np.linalg.solve(A, b)
        if all(model.contains_utility(x) for x in v_corner):
            wc = model.inverse(v_corner)
            corner = (float(wc[0]), float(wc[1]))
    except np.linalg.LinAlgError:
        corner = None

    anchors = [float(model.inverse(levels[a.name])) for a in inst.actions]
    anchors += [sol.wages[0], sol.wages[1]]
    if corner is not None:
        anchors += list(corner)
    lo_dom, hi_dom = model.wage_domain
    if np.isfinite(lo_dom) or lo_dom == 0.0:
        win = (max(lo_dom + 1e-9, 0.35 * min(anchors)), 2.2 * max(anchors))
    else:
        win = (min(anchors) - 1.5, max(anchors) + 1.5)

    def indiff(action) -> tuple[tuple[float, float], ...]:
        q = action.agent_beliefs.as_array()
        level = levels[action.name]
        t_lo, t_hi = _indiff_window(model, q[0], q[1], level)
        a = max(win[0], t_lo)
        bnd = min(win[1], t_hi)
        ts = np.linspace(a, bnd, grid)
        pts = []
        for t in ts:
            arg = (level - q[0] * float(model.evaluate(t))) / q[1]
            pts.append((float(t), float(model.inverse(arg))))
        return tuple(pts)

    def isocost(point: tuple[float, float]) -> tuple[tuple[float, float], ...]:
        d = high.principal_beliefs.as_array()
        cost = d[0] * point[0] + d[1] * point[1]
        ts = np.linspace(win[0], win[1], grid)
        return tuple((float(t), float((cost - d[0] * t) / d[1])) for t in ts)

    contract = (sol.wages[0], sol.wages[1])
    return FigureBundle(
        target=high.name,
        indifference_target=indiff(high),
        indifference_other=indiff(low),
        isocost_through_contract=isocost(contract),
        isocost_through_corner=isocost(corner) if corner is not None else (),
        corner=corner,
        contract=contract,
        coincides_with_first_best=sol.coincides_with_first_best,
        expected_cost=sol.expected_cost_principal,
    )
