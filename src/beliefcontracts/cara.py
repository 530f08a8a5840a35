"""Closed-form pipeline for the 2-action, 3-state exponential-utility case.

With u(x) = -exp(-x) the binding-constraint system is linear in marginal
utilities x_s = exp(-w_s), which lets the whole contract be reduced to one
scalar equation in the low-state wage w_1:

    kappa31 x1 + kappa32 x2 = R3,        R3 = -Delta_3 ubar + c eta_3 > 0
    kappa21 x1 - kappa32 x3 = R2,        R2 = -Delta_2 ubar + c eta_2

together with the pivot equation ("the scalar equation") built from the
state-2 first-order condition, whose root ``solve_w1`` finds by safeguarded
Newton steps on its closed-form slope, between the ends of the branch on
which both eliminations are defined.  Risk aversion is fixed at r = 1;
rescale the money unit (w -> r*w, ubar and c unchanged in utils) to cover
general r.

State indices here are 0-based: states 0, 1, 2 in increasing output order.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .beliefs import (ActionSpec, Distribution, DeltaVector, ProblemInstance,
                      kappa, mlrp_strict)
from .errors import (EpsilonTooLarge, NegativeMu, NoRootInBranch, OutOfBranch,
                     ValidationError)
from .first_best import VERDICT_TOL, classify_monotonicity
from .kernel import rtsafe
from .utility import CaraUtility

_MAX_EXPAND = 200


@dataclass(frozen=True)
class CaraSystem:
    """A 2-action, 3-state exponential-utility contracting problem.

    Attributes:
        pi_high / pi_low: agent beliefs under the costly and cheap action;
            must be strictly MLRP-ordered (pi_high above pi_low).
        principal: principal beliefs for the costly action.
        cost: effort-cost gap c = c(H) - c(L) > 0 (c(L) normalized to 0).
        ubar: reservation utility, negative in the exponential family.

    The derived constants (delta, the kappas, gamma2, r2, r3) are computed
    once per instance, on first use, and reused by every gap and slope
    evaluation of the w1 root-find; ``dataclasses.replace`` builds a new
    instance with its own.  None reads ``principal``, so ``cara_compstat``
    solves each tilted principal vector on a shallow copy that keeps them.
    """

    pi_high: Distribution
    pi_low: Distribution
    principal: Distribution
    cost: float
    ubar: float

    def __post_init__(self):
        object.__setattr__(self, "cost", float(self.cost))
        object.__setattr__(self, "ubar", float(self.ubar))
        for name, dist in (("pi_high", self.pi_high), ("pi_low", self.pi_low),
                           ("principal", self.principal)):
            if len(dist) != 3:
                raise ValidationError(f"{name}: the closed form needs exactly 3 states")
            if dist.min_prob() <= 0.0:
                raise ValidationError(f"{name}: probabilities must be strictly positive")
        if not self.cost > 0:
            raise ValidationError("cost gap must be positive")
        if not self.ubar + self.cost < 0:
            raise ValidationError("ubar + cost must be negative in the exponential family")
        if not mlrp_strict(self.pi_high, self.pi_low):
            raise ValidationError("pi_high must strictly MLRP-dominate pi_low")
        if not (self.delta.values[0] < 0 and self.delta.values[2] > 0):
            raise ValidationError("strict ordering requires Delta_0 < 0 and Delta_2 > 0")
        g2 = self.gamma2
        if not 0 < g2 <= self.pi_high.probs[1] + 1e-12:
            raise ValidationError(f"gamma2 = {g2} outside (0, pi_high[1]]")
        if not g2 + self.delta.values[1] / self.delta.values[0] > 0:
            raise ValidationError("gamma2 + Delta_1/Delta_0 must be positive")

    @cached_property
    def delta(self) -> DeltaVector:
        hi = self.pi_high.as_array()
        lo = self.pi_low.as_array()
        return DeltaVector(tuple(hi - lo))

    @cached_property
    def kappa21(self) -> float:
        return kappa(self.delta, self.pi_high, 1, 0)

    @cached_property
    def kappa31(self) -> float:
        return kappa(self.delta, self.pi_high, 2, 0)

    @cached_property
    def kappa32(self) -> float:
        return kappa(self.delta, self.pi_high, 2, 1)

    @cached_property
    def gamma2(self) -> float:
        return -self.kappa21 / self.delta.values[0]

    @cached_property
    def r3(self) -> float:
        """-Delta_2 ubar + c * pi_low_2 > 0 (top-state elimination constant)."""
        return -self.delta.values[2] * self.ubar + self.cost * self.pi_low.probs[2]

    @cached_property
    def r2(self) -> float:
        """-Delta_1 ubar + c * pi_low_1 (middle-state elimination constant)."""
        return -self.delta.values[1] * self.ubar + self.cost * self.pi_low.probs[1]


#: the derived constants of a ``CaraSystem``; none reads ``principal``, so
#: ``cara_compstat``'s copies with tilted principal beliefs share them
_CONSTANTS = ("delta", "kappa21", "kappa31", "kappa32", "gamma2", "r3", "r2")


def w2_from_w1(sys: CaraSystem, w1: float) -> float:
    """Middle-state wage implied by the low-state wage on the binding branch."""
    denom = sys.r3 - sys.kappa31 * math.exp(-w1)
    if denom <= 0.0:
        raise OutOfBranch(f"w1 = {w1} too small: elimination denominator {denom} <= 0")
    return math.log(sys.kappa32) - math.log(denom)


def w3_from_w1(sys: CaraSystem, w1: float) -> float:
    """Top-state wage implied by the low-state wage on the binding branch."""
    denom = sys.kappa21 * math.exp(-w1) - sys.r2
    if denom <= 0.0:
        raise OutOfBranch(f"w1 = {w1} too large: elimination denominator {denom} <= 0")
    return math.log(sys.kappa32) - math.log(denom)


def branch_interval(sys: CaraSystem) -> tuple[float, float]:
    """Open w1-interval on which both wage eliminations are defined."""
    lo = math.log(sys.kappa31 / sys.r3)
    hi = math.log(sys.kappa21 / sys.r2) if sys.r2 > 0.0 else math.inf
    if not lo < hi:
        raise NoRootInBranch(
            "empty branch: the binding-constraint system has no interior solution")
    return lo, hi


def _pivot_gap(sys: CaraSystem, w1: float) -> float:
    """LHS minus RHS of the scalar pivot equation times D3 = kappa21 e^-w1 - r2
    = kappa32 e^-w3 > 0, which removes the pole at the upper branch end:

        p1 (1 - gamma2) D3 - (p0 a (kappa21 - r2 e^w1) + p2 gamma2 kappa32) e^-w2

    with a = gamma2 + Delta_1 / Delta_0 and e^-w2 = (r3 - kappa31 e^-w1) /
    kappa32.  At the branch floor (e^-w2 = 0) it is p1 (1 - gamma2) D3 > 0, at
    a finite upper end (D3 = 0) -p2 gamma2 (r3 - kappa31 e^-w1) < 0.
    """
    d = sys.delta.values
    p = sys.principal.probs
    g2 = sys.gamma2
    x1, r2_e_w1 = math.exp(-w1), sys.r2 * math.exp(w1)
    e_neg_w2 = (sys.r3 - sys.kappa31 * x1) / sys.kappa32
    rhs = p[0] * (g2 + d[1] / d[0]) * (sys.kappa21 - r2_e_w1) + p[2] * g2 * sys.kappa32
    return p[1] * (1.0 - g2) * (sys.kappa21 * x1 - sys.r2) - rhs * e_neg_w2


def _pivot_slope(sys: CaraSystem, w1: float) -> float:
    """d/dw1 of ``_pivot_gap`` from dD3/dw1 = -kappa21 e^-w1, d(e^-w2)/dw1 =
    kappa31 e^-w1 / kappa32 and d(kappa21 - r2 e^w1)/dw1 = -r2 e^w1: negative
    wherever the gap is positive (past the root the falling D3 can turn it)."""
    d = sys.delta.values
    p = sys.principal.probs
    g2 = sys.gamma2
    x1, r2_e_w1 = math.exp(-w1), sys.r2 * math.exp(w1)
    e_neg_w2 = (sys.r3 - sys.kappa31 * x1) / sys.kappa32
    low = p[0] * (g2 + d[1] / d[0])
    rhs = low * (sys.kappa21 - r2_e_w1) + p[2] * g2 * sys.kappa32
    return (low * r2_e_w1 * e_neg_w2 - p[1] * (1.0 - g2) * sys.kappa21 * x1
            - rhs * sys.kappa31 * x1 / sys.kappa32)


def solve_w1(sys: CaraSystem, tol: float = 1e-12) -> float:
    """Root of the scalar pivot equation on the admissible branch.

    ``_pivot_gap`` is positive at the branch floor and negative at a finite
    upper end, so ``branch_interval`` is the sign bracket; on an unbounded
    branch (r2 <= 0) doubling steps from the floor find the negative end.
    ``kernel.rtsafe`` then takes Newton steps on ``_pivot_slope`` until the
    correction is at most tol/2 * max(1, |w1|) / A or the bracket at most
    tol * max(1, |w1|) / A wide, A = max(1, |dw2/dw1|, |dw3/dw1|) (+inf at a
    branch end; the larger of the bracket's), so the tolerance bounds the
    wages, and returns the evaluated w1 with the smallest |gap|.
    NoRootInBranch when rounding leaves an end on the wrong side.
    """
    def point(w1: float):
        gap = _pivot_gap(sys, w1)
        return w1, gap, gap > 0.0

    def slope_bound(w1: float) -> float:     # A, from w2_from_w1 and w3_from_w1
        x = math.exp(-w1)
        d2, d3 = sys.r3 - sys.kappa31 * x, sys.kappa21 * x - sys.r2
        return max(1.0, sys.kappa31 * x / d2, sys.kappa21 * x / d3) if d2 > 0.0 < d3 else math.inf

    lo, hi = branch_interval(sys)
    a = point(lo)
    if math.isfinite(hi):
        b = point(hi)
    else:
        step = 1.0
        for _ in range(_MAX_EXPAND):
            b = point(lo + step)
            if b[1] < 0.0:
                break
            a, step = b, 2.0 * step
        else:
            raise NoRootInBranch("pivot equation never becomes negative")
    if not (a[2] and b[1] < 0.0):
        raise NoRootInBranch("pivot equation does not change sign on the branch")
    return rtsafe(point, lambda cur: _pivot_slope(sys, cur[0]), a, b,
                  lambda x: 0.5 * tol * max(1.0, abs(x)) / slope_bound(x),
                  lambda x, y: tol * max(1.0, abs(y)) / max(slope_bound(x), slope_bound(y)))[0]


def multipliers(sys: CaraSystem, wages) -> tuple[float, float]:
    """Participation and incentive multipliers at a wage triple.

    lam sums the principal-weighted inverse marginal utilities; mu follows
    from the low-state first-order condition.  Raises NegativeMu when the
    binding-incentive regime does not apply (fall back to risk sharing).
    """
    w = [float(x) for x in wages]
    if len(w) != 3 or any(not math.isfinite(x) for x in w):
        raise ValidationError("multipliers need 3 finite wages")
    p = sys.principal.probs
    lam = sum(p[s] * math.exp(w[s]) for s in range(3))
    mu = (p[0] * math.exp(w[0]) - lam * sys.pi_high.probs[0]) / sys.delta.values[0]
    if mu < -1e-9:
        raise NegativeMu(
            f"mu = {mu} < 0: incentive constraint slack, use the risk-sharing contract")
    return float(lam), float(mu)


@dataclass(frozen=True)
class CaraSolution:
    """Assembled closed-form contract with its multipliers and residuals."""

    wages: tuple[float, float, float]
    lam: float
    mu: float
    foc_residuals: tuple[float, float, float]
    ir_residual: float
    ic_residual: float


def residuals(sys: CaraSystem, wages, lam: float, mu: float):
    """First-order, participation and incentive residuals at a candidate.

    Nonzero values flag a wage triple that is off the optimality system.
    """
    w = np.asarray(wages, dtype=float)
    x = np.exp(-w)
    pi = sys.pi_high.as_array()
    eta = sys.pi_low.as_array()
    p = sys.principal.as_array()
    d = pi - eta
    foc = p - (lam * pi + mu * d) * x
    ir = float(pi @ (-x)) - (sys.ubar + sys.cost)
    ic = float(d @ (-x)) - sys.cost
    return tuple(float(f) for f in foc), ir, ic


def _contract(sys: CaraSystem, tol: float):
    """(wages, lam, mu): the w1 root, the wage assembly and the multipliers."""
    w1 = solve_w1(sys, tol=tol)
    wages = (w1, w2_from_w1(sys, w1), w3_from_w1(sys, w1))
    return (wages, *multipliers(sys, wages))


def solve_system(sys: CaraSystem, tol: float = 1e-12) -> CaraSolution:
    """Full closed-form solve: w1 root, wage assembly, multipliers, residuals."""
    wages, lam, mu = _contract(sys, tol)
    foc, ir, ic = residuals(sys, wages, lam, mu)
    return CaraSolution(wages=wages, lam=lam, mu=mu,
                        foc_residuals=foc, ir_residual=ir, ic_residual=ic)


def to_problem_instance(sys: CaraSystem,
                        outputs: tuple[float, float, float] = (1.0, 2.0, 3.0),
                        principal_low: Distribution | None = None) -> ProblemInstance:
    """Equivalent general problem instance (outputs only matter for revenue;
    the cost-minimizing contract ignores them)."""
    eta = principal_low if principal_low is not None else sys.pi_low
    return ProblemInstance(
        outputs=outputs,
        actions=(
            ActionSpec("H", sys.cost, sys.principal, sys.pi_high),
            ActionSpec("L", 0.0, eta, sys.pi_low),
        ),
        reservation_utility=sys.ubar,
        utility=CaraUtility(r=1.0),
    )


@dataclass(frozen=True)
class CaraSweep:
    """Closed-form wage paths along a principal-belief reallocation.

    The perturbed pair carries the asserted directions (down at the state
    gaining mass, up at the state losing it); the remaining state's direction
    is reported empirically, never asserted.
    """

    s: int
    s_prime: int
    eps_values: tuple[float, ...]
    wages: tuple[tuple[float, float, float], ...]
    lam_path: tuple[float, ...]
    mu_path: tuple[float, ...]
    s_non_increasing: bool
    s_prime_non_decreasing: bool
    strict_steps: int
    third_state: int
    third_direction: str


def cara_compstat(sys: CaraSystem, s: int, s_prime: int, eps_grid,
                  tol: float = 1e-12) -> CaraSweep:
    """Re-solve the closed form along eps reallocations pi^P_s + eps,
    pi^P_{s'} - eps and report wage directions.

    The grid must be non-empty (else ValidationError), and every eps must be
    >= 0 (the directions assume mass moves onto s) and keep the principal
    beliefs in the open simplex (see ``Distribution.tilted``); otherwise
    EpsilonTooLarge is raised.  Both checks come before any solve.

    ``sys`` is validated once, by its construction: each tilted principal
    vector (kept in the open simplex by the tilt) is solved on a copy of
    ``sys`` that shares its derived constants (``_CONSTANTS``, which read
    only the agent's beliefs, the cost gap and ubar, as the MLRP test does),
    so no per-eps ``CaraSystem`` is built or re-validated.  The residuals
    belong to ``solve_system``; the sweep reports none, so computes none.
    """
    if s == s_prime or not (0 <= s < 3 and 0 <= s_prime < 3):
        raise ValidationError("need two distinct states in {0, 1, 2}")
    eps_values = [float(e) for e in eps_grid]
    if not eps_values:
        raise ValidationError("eps grid is empty")
    if any(e < 0 for e in eps_values):
        raise EpsilonTooLarge("eps must be >= 0: the directions assume mass moves onto s")
    principals = [sys.principal.tilted(s, s_prime, e) for e in eps_values]

    for name in _CONSTANTS:
        getattr(sys, name)      # computed once, then shared by every copy
    rows, lams, mus = [], [], []
    for principal in principals:
        tilted = copy.copy(sys)
        object.__setattr__(tilted, "principal", principal)
        w, lam, mu = _contract(tilted, tol)
        rows.append(w)
        lams.append(lam)
        mus.append(mu)

    wages = np.asarray(rows, dtype=float)
    ds = np.diff(wages[:, s])
    dsp = np.diff(wages[:, s_prime])
    third = ({0, 1, 2} - {s, s_prime}).pop()
    return CaraSweep(
        s=s, s_prime=s_prime,
        eps_values=tuple(eps_values),
        wages=tuple(tuple(float(x) for x in row) for row in rows),
        lam_path=tuple(lams), mu_path=tuple(mus),
        s_non_increasing=bool(np.all(ds <= VERDICT_TOL)) if len(ds) else True,
        s_prime_non_decreasing=bool(np.all(dsp >= -VERDICT_TOL)) if len(dsp) else True,
        strict_steps=int(np.sum(ds < -VERDICT_TOL) + np.sum(dsp > VERDICT_TOL)),
        third_state=third,
        third_direction=classify_monotonicity(wages[:, third], tol=VERDICT_TOL).value,
    )
