"""Two-step (inner/outer) solution of the 4-outcome problem via a utility spread.

The top two states are coupled through the spread m = u(w_4) - u(w_3).  For a
given m the inner program finds the cheapest 3-wage scheme consistent with the
shifted participation and incentive constraints; the outer program then
minimizes over the scalar m.

Two inner programs live here:

``inner_cost``
    The lumped program: weights are the reduced principal beliefs and the
    objective covers only w_1..w_3.  Its value function C(m) obeys the exact
    envelope identity C'(m) = -(lam(m) pi4 + mu(m) Delta4).

``outer_minimize``
    Uses the spread-pinned program (the 4-state problem with v_4 - v_3 = m
    added as a constraint), whose partial minimum reproduces the direct
    4-state solve exactly; the lumped program ignores the way the top payment
    responds to w_3 and its fixed point misses the optimum at first order.
    The reported outer objective is still delta4' * M(m) + C(m), which equals
    the full expected wage bill identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beliefs import (MlrpOrder, ProblemInstance, mlrp_compare,
                      reduce_distribution)
from .errors import (NegativeMultiplier, NoBracket, RangeError,
                     ValidationError)
from .kernel import minimize_on_affine, solve_ir_only
from .utility import UtilityModel

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SpreadProblem:
    """A 4-outcome, 2-action instance prepared for the spread decomposition.

    Requires the ordering chain agent-H over principal-H over agent-L in the
    likelihood-ratio sense, the setting in which the decomposition is studied.
    Reduced (3-state) beliefs lump the top two states.
    """

    base: ProblemInstance
    target: str

    def __post_init__(self):
        inst = self.base
        if inst.n_states != 4:
            raise ValidationError("spread decomposition requires exactly 4 states")
        if len(inst.actions) != 2:
            raise ValidationError("spread decomposition requires exactly 2 actions")
        # the decomposition itself runs on the reduced vectors; a degenerate
        # top state (zero probability for everyone) is legal
        for label, red in (("agent beliefs (target)", self.reduced_pi),
                           ("agent beliefs (other)", self.reduced_eta),
                           ("principal beliefs (target)", self.reduced_delta)):
            if red.min() < 1e-9:
                raise ValidationError(
                    f"reduced {label} must be strictly positive for the solver")
        act = inst.action(self.target)
        other = inst.other_actions(self.target)[0]
        if act.cost <= other.cost:
            raise ValidationError("target must be the higher-cost action")
        chain = [
            ("agent beliefs (target) vs principal beliefs (target)",
             mlrp_compare(act.agent_beliefs, act.principal_beliefs)),
            ("principal beliefs (target) vs agent beliefs (other)",
             mlrp_compare(act.principal_beliefs, other.agent_beliefs)),
        ]
        for label, order in chain:
            if order not in (MlrpOrder.F_DOMINATES_G, MlrpOrder.EQUAL):
                raise ValidationError(f"ordering chain violated: {label} is {order.value}")

    # -- full 4-state data -----------------------------------------------------
    @property
    def _act(self):
        return self.base.action(self.target)

    @property
    def _other(self):
        return self.base.other_actions(self.target)[0]

    @property
    def pi4(self) -> np.ndarray:
        return self._act.agent_beliefs.as_array()

    @property
    def eta4(self) -> np.ndarray:
        return self._other.agent_beliefs.as_array()

    @property
    def delta4(self) -> np.ndarray:
        return self._act.principal_beliefs.as_array()

    @property
    def cost_gap(self) -> float:
        return self._act.cost - self._other.cost

    @property
    def level(self) -> float:
        return self.base.reservation_utility + self._act.cost

    # -- reduced 3-state data --------------------------------------------------
    @property
    def reduced_pi(self) -> np.ndarray:
        return reduce_distribution(self._act.agent_beliefs, 3).as_array()

    @property
    def reduced_eta(self) -> np.ndarray:
        return reduce_distribution(self._other.agent_beliefs, 3).as_array()

    @property
    def reduced_delta(self) -> np.ndarray:
        return reduce_distribution(self._act.principal_beliefs, 3).as_array()


def payment_gap(model: UtilityModel, w3: float, m: float) -> float:
    """Extra payment on top of w3 that raises the agent's utility by m.

    M(m) = h(u(w3) + m) - w3; zero at m = 0, increasing and convex in m.
    """
    v3 = float(model.evaluate(w3))
    if not model.contains_utility(v3 + m):
        raise RangeError(
            f"u(w3) + m = {v3 + m} outside the utility range {model.utility_range}")
    return float(model.inverse(v3 + m)) - float(w3)


@dataclass(frozen=True)
class InnerSolution:
    """Lumped inner minimum at a given spread."""

    m: float
    cost: float                       # reduced-belief cost of w_1..w_3
    wages: tuple[float, float, float]
    utility_levels: tuple[float, float, float]
    lam: float
    mu: float
    ic_binding: bool


def _shifted_rhs(sp: SpreadProblem, m: float) -> tuple[float, float]:
    ir = sp.level - sp.pi4[3] * m
    ic = sp.cost_gap - (sp.pi4[3] - sp.eta4[3]) * m
    return ir, ic


def inner_cost(sp: SpreadProblem, m: float, tol: float = 1e-9) -> InnerSolution:
    """Solve the lumped 3-wage program at spread m.

    Participation binds; the incentive constraint is kept as an equality
    unless its multiplier turns negative, in which case the risk-sharing
    solution is returned (the incentive constraint then holds with slack).
    """
    model = sp.base.utility
    weights = sp.reduced_delta
    pi = sp.reduced_pi
    drow = sp.reduced_pi - sp.reduced_eta
    ir_rhs, ic_rhs = _shifted_rhs(sp, m)

    sol = minimize_on_affine(weights, np.vstack([pi, drow]), np.array([ir_rhs, ic_rhs]),
                             model)
    lam, mu = sol.multipliers
    if mu >= -tol:
        return InnerSolution(m=float(m), cost=sol.cost, wages=sol.wages,
                             utility_levels=sol.v, lam=float(lam), mu=float(mu),
                             ic_binding=True)
    v, w, lam = solve_ir_only(weights, pi, model, ir_rhs)
    slack = float(drow @ v) - ic_rhs
    if slack < -tol:
        raise NegativeMultiplier(
            "inner program: negative incentive multiplier yet the risk-sharing "
            "contract violates the incentive constraint")
    return InnerSolution(m=float(m), cost=float(weights @ w),
                         wages=tuple(float(x) for x in w),
                         utility_levels=tuple(float(x) for x in v),
                         lam=float(lam), mu=0.0, ic_binding=False)


def envelope_derivative(sp: SpreadProblem, inner: InnerSolution) -> float:
    """dC/dm of the lumped inner program: -(lam pi4' + mu Delta4')."""
    d4 = float(sp.pi4[3] - sp.eta4[3])
    return -(inner.lam * float(sp.pi4[3]) + inner.mu * d4)


@dataclass(frozen=True)
class _PinnedInner:
    cost_total: float
    v: tuple[float, float, float, float]
    wages: tuple[float, float, float, float]
    lam: float
    mu: float
    nu: float                         # multiplier on the spread constraint
    ic_binding: bool


def _pinned_inner(sp: SpreadProblem, m: float, tol: float) -> _PinnedInner:
    """4-state solve with the spread v_4 - v_3 = m pinned as a constraint."""
    model = sp.base.utility
    weights = sp.delta4
    spread_row = np.array([0.0, 0.0, -1.0, 1.0])
    drow = sp.pi4 - sp.eta4
    M = np.vstack([sp.pi4, drow, spread_row])
    r = np.array([sp.level, sp.cost_gap, m])
    sol = minimize_on_affine(weights, M, r, model)
    lam, mu, nu = sol.multipliers
    if mu < -tol:
        M2 = np.vstack([sp.pi4, spread_row])
        r2 = np.array([sp.level, m])
        sol2 = minimize_on_affine(weights, M2, r2, model)
        slack = float(drow @ np.asarray(sol2.v)) - sp.cost_gap
        if slack < -tol:
            raise NegativeMultiplier(
                "pinned inner: negative incentive multiplier yet risk sharing "
                "violates the incentive constraint")
        lam2, nu2 = sol2.multipliers
        return _PinnedInner(cost_total=sol2.cost, v=sol2.v, wages=sol2.wages,
                            lam=float(lam2), mu=0.0, nu=float(nu2), ic_binding=False)
    return _PinnedInner(cost_total=sol.cost, v=sol.v, wages=sol.wages,
                        lam=float(lam), mu=float(mu), nu=float(nu), ic_binding=True)


@dataclass(frozen=True)
class OuterSolution:
    """Assembled 4-wage contract from the outer minimization over the spread."""

    m_star: float
    wages: tuple[float, float, float, float]
    utility_levels: tuple[float, float, float, float]
    lam: float
    mu: float
    cost_total: float
    top_payment: float                # M(m*)
    cost_inner: float                 # reduced-belief cost of w_1..w_3
    outer_foc_residual: float
    trace: tuple[tuple[float, float, float, float], ...]


def outer_minimize(sp: SpreadProblem, tol: float = 1e-9) -> OuterSolution:
    """Minimize delta4' * M(m) + C(m) over the spread by golden section.

    The bracket starts at m = 0 and doubles upward until the objective turns;
    it extends to negative spreads if the minimum sits at the lower edge.
    The assembled contract satisfies the outer first-order condition
    delta4' M'(m) = lam pi4' + mu Delta4' (its residual equals the spread
    multiplier) and coincides with the direct 4-state solve.
    """
    from .errors import BeliefContractsError

    if float(sp.delta4[3]) == 0.0 and float(sp.pi4[3]) == 0.0 and float(sp.eta4[3]) == 0.0:
        # objective constant in the spread: return m* = 0 by convention,
        # assembled from the lumped 3-wage solve
        inner3 = inner_cost(sp, 0.0, tol=tol)
        pinned = _PinnedInner(
            cost_total=inner3.cost,
            v=inner3.utility_levels + (inner3.utility_levels[2],),
            wages=inner3.wages + (inner3.wages[2],),
            lam=inner3.lam, mu=inner3.mu, nu=0.0, ic_binding=inner3.ic_binding)
        return _assemble(sp, 0.0, pinned, trace=((0.0,) + _split(sp, pinned),))

    trace: list[tuple[float, float, float, float]] = []

    def objective(m: float) -> float:
        inner = _pinned_inner(sp, m, tol)
        trace.append((float(m),) + _split(sp, inner))
        return inner.cost_total

    def try_objective(m: float) -> float | None:
        try:
            return objective(m)
        except BeliefContractsError:
            return None

    # bracket (lo, mid, hi) with the objective lowest in the middle
    f0 = objective(0.0)
    step = 0.25
    f_up = try_objective(step)
    for _ in range(40):
        if f_up is not None:
            break
        step *= 0.5
        if step < 1e-12:
            raise NoBracket("no admissible positive spread next to m = 0")
        f_up = try_objective(step)
    if f_up < f0:
        lo, mid, hi = 0.0, step, 2.0 * step
        f_mid = f_up
        for _ in range(200):
            f_hi = try_objective(hi)
            if f_hi is None:
                hi = mid + 0.5 * (hi - mid)   # feasibility edge: shrink toward mid
                if hi - mid < 1e-12:
                    break
                continue
            if f_hi > f_mid:
                break
            lo, mid, f_mid = mid, hi, f_hi
            hi = mid + 2.0 * (mid - lo)
            if hi > 1e6:
                raise NoBracket("outer objective keeps decreasing; spread unbounded")
    else:
        f_down = try_objective(-step)
        if f_down is None or f_down >= f0:
            lo, mid, hi = (-step if f_down is not None else 0.0), 0.0, step
            if lo == mid:
                lo = -1e-12   # minimum pinned at 0 from the left
        else:
            lo, mid, hi = -2.0 * step, -step, 0.0
            f_mid = f_down
            for _ in range(200):
                f_lo = try_objective(lo)
                if f_lo is None:
                    lo = mid - 0.5 * (mid - lo)
                    if mid - lo < 1e-12:
                        break
                    continue
                if f_lo > f_mid:
                    break
                hi, mid, f_mid = mid, lo, f_lo
                lo = mid - 2.0 * (hi - mid)
                if lo < -1e6:
                    raise NoBracket("outer objective keeps decreasing; spread unbounded")

    # golden-section on [lo, hi]
    xatol = 1e-11
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(300):
        if hi - lo <= xatol:
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = objective(x2)
    m_star = 0.5 * (lo + hi)
    inner = _pinned_inner(sp, m_star, tol)
    trace.append((float(m_star),) + _split(sp, inner))
    return _assemble(sp, m_star, inner, trace=tuple(trace))


def _split(sp: SpreadProblem, inner: _PinnedInner) -> tuple[float, float, float]:
    """(lumped 3-wage cost, delta4' * M, total) for trace rows."""
    w = inner.wages
    reduced_cost = float(sp.reduced_delta @ np.array([w[0], w[1], w[2]]))
    top = float(sp.delta4[3]) * (w[3] - w[2])
    return reduced_cost, top, reduced_cost + top


def _assemble(sp: SpreadProblem, m_star: float, inner: _PinnedInner,
              trace) -> OuterSolution:
    model = sp.base.utility
    w3 = inner.wages[2]
    top = payment_gap(model, w3, m_star)
    w4 = w3 + top
    d4 = sp.pi4 - sp.eta4
    m_prime = float(model.inverse_derivative(inner.v[2] + m_star))
    residual = float(sp.delta4[3]) * m_prime - (inner.lam * float(sp.pi4[3])
                                                + inner.mu * float(d4[3]))
    reduced_cost, top_cost, total = _split(sp, inner)
    wages = (inner.wages[0], inner.wages[1], w3, w4)
    return OuterSolution(
        m_star=float(m_star),
        wages=tuple(float(x) for x in wages),
        utility_levels=tuple(float(x) for x in inner.v),
        lam=inner.lam,
        mu=inner.mu,
        cost_total=total,
        top_payment=float(top),
        cost_inner=reduced_cost,
        outer_foc_residual=float(residual),
        trace=trace,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Iterative pipeline next to the direct 4-state solve."""

    cost_iterative: float
    cost_direct: float
    cost_delta: float
    max_wage_delta: float
    lam_delta: float
    mu_delta: float
    m_star: float
    outer_foc_residual: float


def equivalence_report(sp: SpreadProblem, tol: float = 1e-9) -> EquivalenceReport:
    """Solve both ways and report the deltas (they agree at solver precision)."""
    from .second_best import solve_second_best

    outer = outer_minimize(sp, tol=tol)
    direct = solve_second_best(sp.base, sp.target, tol=tol)
    wage_delta = max(abs(a - b) for a, b in zip(outer.wages, direct.wages))
    return EquivalenceReport(
        cost_iterative=outer.cost_total,
        cost_direct=direct.expected_cost_principal,
        cost_delta=outer.cost_total - direct.expected_cost_principal,
        max_wage_delta=wage_delta,
        lam_delta=outer.lam - direct.lam,
        mu_delta=outer.mu - (direct.mu[0] if direct.mu else 0.0),
        m_star=outer.m_star,
        outer_foc_residual=outer.outer_foc_residual,
    )
