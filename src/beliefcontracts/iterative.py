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
    the full expected wage bill identically.  The outer derivative is the
    multiplier nu on the pinned spread (the envelope theorem), and its slope
    nu'(m) is the pinned solve's sensitivity to the spread level
    (``kernel.sensitivity``), so the outer step is a safeguarded Newton
    root-find on nu(m), not a search on cost values.

Both run on ``second_best.solve_dual``, the pinned spread as an equality row
whose multiplier is free in sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .beliefs import (MlrpOrder, ProblemInstance, mlrp_compare,
                      reduce_distribution)
from .errors import BeliefContractsError, NoBracket, RangeError, ValidationError
from .kernel import rtsafe, sensitivity
from .second_best import solve_dual, solve_second_best
from .utility import UtilityModel

_MAX_WALK = 200
_SPREAD_ROW = np.array([0.0, 0.0, -1.0, 1.0])     # v_4 - v_3, the pinned spread


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

    # -- full 4-state data, built once per instance (read-only arrays) --------
    @property
    def _act(self):
        return self.base.action(self.target)

    @property
    def _other(self):
        return self.base.other_actions(self.target)[0]

    @cached_property
    def pi4(self) -> np.ndarray:
        return _read_only(self._act.agent_beliefs.as_array())

    @cached_property
    def eta4(self) -> np.ndarray:
        return _read_only(self._other.agent_beliefs.as_array())

    @cached_property
    def delta4(self) -> np.ndarray:
        return _read_only(self._act.principal_beliefs.as_array())

    @cached_property
    def cost_gap(self) -> float:
        return self._act.cost - self._other.cost

    @cached_property
    def level(self) -> float:
        return self.base.reservation_utility + self._act.cost

    @cached_property
    def _pinned_rows(self) -> np.ndarray:
        """The pinned program's rows: participation, incentive, the spread."""
        return _read_only(np.vstack([self.pi4, self.pi4 - self.eta4, _SPREAD_ROW]))

    # -- reduced 3-state data --------------------------------------------------
    @cached_property
    def reduced_pi(self) -> np.ndarray:
        return _read_only(reduce_distribution(self._act.agent_beliefs, 3).as_array())

    @cached_property
    def reduced_eta(self) -> np.ndarray:
        return _read_only(reduce_distribution(self._other.agent_beliefs, 3).as_array())

    @cached_property
    def reduced_delta(self) -> np.ndarray:
        return _read_only(reduce_distribution(self._act.principal_beliefs, 3).as_array())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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


def inner_cost(sp: SpreadProblem, m: float) -> InnerSolution:
    """Solve the lumped 3-wage program at spread m.

    Participation binds; the incentive constraint binds when the
    risk-sharing contract violates it (``second_best.solve_dual``).
    """
    weights = sp.reduced_delta
    ir_rhs, ic_rhs = _shifted_rhs(sp, m)
    v, w, (lam, mu), active, _, _ = solve_dual(
        weights, np.vstack([sp.reduced_pi, sp.reduced_pi - sp.reduced_eta]),
        np.array([ir_rhs, ic_rhs]), 0, sp.base.utility)
    return InnerSolution(m=float(m), cost=float(weights @ w), wages=tuple(float(x) for x in w),
                         utility_levels=tuple(float(x) for x in v),
                         lam=float(lam), mu=float(mu), ic_binding=bool(active[1]))


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


def _pinned_inner(sp: SpreadProblem, m: float) -> _PinnedInner:
    """4-state solve with the spread v_4 - v_3 = m pinned as an equality (the
    last row)."""
    weights = sp.delta4
    v, w, (lam, mu, nu), active, _, _ = solve_dual(
        weights, sp._pinned_rows, np.array([sp.level, sp.cost_gap, m]), 1, sp.base.utility)
    return _PinnedInner(cost_total=float(weights @ w), v=tuple(float(x) for x in v),
                        wages=tuple(float(x) for x in w), lam=float(lam), mu=float(mu),
                        nu=float(nu), ic_binding=bool(active[1]))


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


def outer_minimize(sp: SpreadProblem) -> OuterSolution:
    """Minimize delta4' * M(m) + C(m) over the spread as a root of its multiplier.

    By the envelope theorem the outer derivative G'(m) is the multiplier nu on
    the pinned spread constraint, and G is convex, so the optimum is the root
    of nu(m).  From m = 0 the search walks by Newton steps -nu / nu', with
    nu' = [J^-1]_nu,nu from ``kernel.sensitivity`` (J = M diag(1 / (delta
    h''(v))) M^T over the pinned solve's own rows); only where that slope is
    unusable does it take the doubling step (0.25, then twice the last).  A
    probe the solver refuses is replaced by one halfway back toward the last
    admissible spread.  Once nu changes sign the bracket is narrowed by
    safeguarded Newton (``kernel.rtsafe``).  Both stop when the Newton correction is at
    most 1e-12 relative or the bracket is at most 1e-12 relative wide, and m*
    is the solved spread with the smallest |nu|.  The assembled contract
    satisfies the outer first-order condition delta4' M'(m) = lam pi4' +
    mu Delta4' (its residual is nu) and coincides with the direct 4-state
    solve.
    """
    if float(sp.delta4[3]) == 0.0 and float(sp.pi4[3]) == 0.0 and float(sp.eta4[3]) == 0.0:
        # objective constant in the spread: return m* = 0 by convention,
        # assembled from the lumped 3-wage solve
        inner3 = inner_cost(sp, 0.0)
        pinned = _PinnedInner(
            cost_total=inner3.cost,
            v=inner3.utility_levels + (inner3.utility_levels[2],),
            wages=inner3.wages + (inner3.wages[2],),
            lam=inner3.lam, mu=inner3.mu, nu=0.0, ic_binding=inner3.ic_binding)
        return _assemble(sp, 0.0, pinned, trace=((0.0,) + _split(sp, pinned),))

    trace: list[tuple[float, float, float, float]] = []

    def solve(m: float):
        """(m, nu, nu < 0, pinned solve), the point ``rtsafe`` takes."""
        inner = _pinned_inner(sp, m)
        trace.append((float(m),) + _split(sp, inner))
        return m, inner.nu, inner.nu < 0.0, inner

    def slope(point) -> float:
        """nu'(m) from the pinned solve's own rows (participation, the
        incentive row if it binds, the spread), only the spread's level moving."""
        inner = point[3]
        keep = [0, 1, 2] if inner.ic_binding else [0, 2]
        M = sp._pinned_rows[keep]
        theta = np.array([inner.lam, inner.mu, inner.nu])[keep]
        return float(sensitivity(sp.delta4, M, theta, inner.v, sp.base.utility,
                                 d_r=np.eye(len(keep))[-1])[1][-1])

    def step_tol(m: float) -> float:
        return 1e-12 * abs(m)

    # walk downhill from m = 0 until nu changes sign
    a = solve(0.0)
    doubling = math.copysign(0.25, -a[1])
    for _ in range(_MAX_WALK):
        if a[1] == 0.0:
            break
        d = slope(a)
        if 0.0 < d < math.inf:
            step = -a[1] / d
            if abs(step) <= step_tol(a[0]):
                break                 # converged without crossing the root
        else:
            step, doubling = doubling, 2.0 * doubling
        while True:
            try:
                b = solve(a[0] + step)
                break
            except BeliefContractsError:
                step *= 0.5           # feasibility edge: step back toward a
                if abs(step) < 1e-12:
                    raise NoBracket(f"no admissible spread beyond m = {a[0]} "
                                    "in the descent direction") from None
        if b[2] != a[2]:
            lo, hi = (a, b) if a[0] < b[0] else (b, a)
            a = rtsafe(solve, slope, lo, hi, step_tol,
                       lambda x, y: 1e-12 * max(abs(x), abs(y)))
            break
        a = b
        if abs(a[0]) > 1e6:
            raise NoBracket("outer objective keeps decreasing; spread unbounded")
    else:
        raise NoBracket(f"spread multiplier did not change sign in {_MAX_WALK} probes")
    m_star, _, _, inner = a
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


def equivalence_report(sp: SpreadProblem) -> EquivalenceReport:
    """Solve both ways and report the deltas (they agree at solver precision)."""
    outer = outer_minimize(sp)
    direct = solve_second_best(sp.base, sp.target)
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
