"""Probability distributions over outputs, likelihood-ratio ordering, and problem instances.

States are indexed 0..S-1 and labelled so that higher states carry higher
output.  All types are immutable after construction and all operations are
pure functions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import (EpsilonTooLarge, IndexOrder, InvalidReduction,
                     LengthMismatch, ValidationError)
from .utility import UtilityModel

#: Simplex membership tolerance on inputs; off-simplex vectors are rejected,
#: never renormalized.
SIMPLEX_TOL = 1e-12
#: Solver-side floor: first-order conditions divide by probabilities.
SOLVER_MIN_PROB = 1e-9
#: Guard on likelihood cross-product comparisons against product rounding.
CROSS_TOL = 1e-15


class MlrpOrder(Enum):
    """Outcome of a monotone-likelihood-ratio comparison."""

    F_DOMINATES_G = "f_dominates_g"
    G_DOMINATES_F = "g_dominates_f"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


class Monotonicity(Enum):
    """Empirical ordering of a schedule across states."""

    INCREASING = "increasing"
    DECREASING = "decreasing"
    FLAT = "flat"
    NON_MONOTONE = "non_monotone"


class Party(Enum):
    """Whose beliefs a tilt moves."""

    PRINCIPAL = "principal"
    AGENT = "agent"


class SolverKind(Enum):
    """Which contract a driver solves: observable action or hidden action."""

    FIRST_BEST = "first_best"
    SECOND_BEST = "second_best"


@dataclass(frozen=True)
class Distribution:
    """A point in the S-simplex (S >= 2, entries >= 0, sum 1 within 1e-12)."""

    probs: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if len(probs) < 2:
            raise ValidationError("distribution needs at least 2 states")
        if any(not math.isfinite(p) or p < 0.0 for p in probs):
            raise ValidationError("distribution entries must be finite and >= 0")
        total = math.fsum(probs)
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ValidationError(
                f"distribution entries sum to {total!r}, not 1 within {SIMPLEX_TOL}")

    def __len__(self) -> int:
        return len(self.probs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    def min_prob(self) -> float:
        return min(self.probs)

    def tilted(self, s: int, s_prime: int, eps: float) -> Distribution:
        """Move eps of probability mass from state s_prime onto state s.

        A negative eps moves mass the other way.

        Raises:
            ValidationError: s and s_prime are equal or not states.
            EpsilonTooLarge: a moved entry leaves the open interval (0, 1).
        """
        n = len(self.probs)
        if s == s_prime or not (0 <= s < n and 0 <= s_prime < n):
            raise ValidationError(f"tilt needs two distinct states in [0, {n}), "
                                  f"got ({s}, {s_prime})")
        probs = list(self.probs)
        moved_s = probs[s] + eps
        moved_sp = probs[s_prime] - eps
        if not (0.0 < moved_s < 1.0 and 0.0 < moved_sp < 1.0):
            raise EpsilonTooLarge(
                f"eps = {eps} pushes states ({s}, {s_prime}) out of the open simplex")
        probs[s] = moved_s
        probs[s_prime] = moved_sp
        return Distribution(tuple(probs))


@dataclass(frozen=True)
class DeltaVector:
    """Componentwise agent-belief difference between two actions; sums to 0."""

    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(x) for x in self.values)
        object.__setattr__(self, "values", values)
        if abs(math.fsum(values)) > SIMPLEX_TOL:
            raise ValidationError("belief difference vector must sum to 0")

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class ActionSpec:
    """One action: its name, utility cost to the agent, and both parties' beliefs."""

    name: str
    cost: float
    principal_beliefs: Distribution
    agent_beliefs: Distribution

    def __post_init__(self):
        object.__setattr__(self, "cost", float(self.cost))
        if len(self.principal_beliefs) != len(self.agent_beliefs):
            raise ValidationError(
                f"action {self.name!r}: principal and agent beliefs have different lengths")


@dataclass(frozen=True)
class ProblemInstance:
    """A complete contracting problem.

    Attributes:
        outputs: strictly increasing output levels y_0 < ... < y_{S-1} (money).
        actions: at least one ActionSpec; belief vectors all of length S.
        reservation_utility: the agent's outside option (utils).
        utility: the agent's utility model.
    """

    outputs: tuple[float, ...]
    actions: tuple[ActionSpec, ...]
    reservation_utility: float
    utility: UtilityModel

    def __post_init__(self):
        outputs = tuple(float(y) for y in self.outputs)
        actions = tuple(self.actions)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "reservation_utility", float(self.reservation_utility))
        if len(outputs) < 2:
            raise ValidationError("outputs: need at least 2 states")
        if any(b <= a for a, b in zip(outputs, outputs[1:])):
            raise ValidationError("outputs: must be strictly increasing")
        if not actions:
            raise ValidationError("actions: need at least one action")
        S = len(outputs)
        names = [a.name for a in actions]
        if len(set(names)) != len(names):
            raise ValidationError("actions: names must be unique")
        for i, act in enumerate(actions):
            if len(act.agent_beliefs) != S:
                raise ValidationError(
                    f"actions[{i}] ({act.name!r}): belief vectors must have length {S}")
            level = self.reservation_utility + act.cost
            if not self.utility.contains_utility(level):
                raise ValidationError(
                    f"actions[{i}] ({act.name!r}): reservation utility + cost = {level} "
                    f"is outside the range {self.utility.utility_range} of the "
                    f"{self.utility.family} family")
        costs = sorted(a.cost for a in actions)
        if len(actions) > 1 and any(abs(b - a) < 1e-15 for a, b in zip(costs, costs[1:])):
            warnings.warn("tied action costs: the incentive constraint between the tied "
                          "actions may be degenerate", stacklevel=2)

    @property
    def n_states(self) -> int:
        return len(self.outputs)

    def action(self, name: str) -> ActionSpec:
        for act in self.actions:
            if act.name == name:
                return act
        raise ValidationError(f"no action named {name!r}")

    def other_actions(self, name: str) -> tuple[ActionSpec, ...]:
        self.action(name)
        return tuple(a for a in self.actions if a.name != name)

    def tilted(self, party: Party, action: str, s: int, s_prime: int,
               eps: float) -> ProblemInstance:
        """Copy with ``party``'s beliefs about ``action`` tilted by
        ``Distribution.tilted(s, s_prime, eps)``."""
        act = self.action(action)
        if party is Party.PRINCIPAL:
            new_act = replace(act, principal_beliefs=act.principal_beliefs.tilted(s, s_prime, eps))
        else:
            new_act = replace(act, agent_beliefs=act.agent_beliefs.tilted(s, s_prime, eps))
        return replace(self, actions=tuple(new_act if a is act else a for a in self.actions))

    def require_positive_beliefs(self) -> None:
        """Solvers divide by probabilities; insist on strictly positive beliefs."""
        for i, act in enumerate(self.actions):
            for label, dist in (("principal_beliefs", act.principal_beliefs),
                                ("agent_beliefs", act.agent_beliefs)):
                if dist.min_prob() < SOLVER_MIN_PROB:
                    raise ValidationError(
                        f"actions[{i}].{label}: solver requires every probability "
                        f">= {SOLVER_MIN_PROB}")


@lru_cache(maxsize=32)
def _lower_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict lower triangle of an n x n matrix."""
    rows, cols = np.tril_indices(n, k=-1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _lower_cross(f: Distribution, g: Distribution) -> np.ndarray:
    """f_s * g_t - f_t * g_s for every s > t, in ``np.tril_indices`` order."""
    if len(f) != len(g):
        raise LengthMismatch("mlrp_compare: distributions have different lengths")
    fa, ga = f.as_array(), g.as_array()
    rows, cols = _lower_index(len(f))
    return fa[rows] * ga[cols] - fa[cols] * ga[rows]


def mlrp_compare(f: Distribution, g: Distribution) -> MlrpOrder:
    """Rank two distributions by the monotone likelihood ratio order.

    Uses the division-free cross-product form, so zero probabilities are
    legal: f dominates g iff f_s * g_t >= f_t * g_s for every s > t.
    """
    lower = _lower_cross(f, g)
    f_dom = bool(np.all(lower >= -CROSS_TOL))
    g_dom = bool(np.all(lower <= CROSS_TOL))
    if f_dom and g_dom:
        return MlrpOrder.EQUAL
    if f_dom:
        return MlrpOrder.F_DOMINATES_G
    if g_dom:
        return MlrpOrder.G_DOMINATES_F
    return MlrpOrder.INCOMPARABLE


def mlrp_strict(f: Distribution, g: Distribution) -> bool:
    """True iff f weakly dominates g and at least one cross-product is strict."""
    lower = _lower_cross(f, g)
    return bool(np.all(lower >= -CROSS_TOL) and np.any(lower > CROSS_TOL))


def reduce_distribution(p: Distribution, keep: int) -> Distribution:
    """Lump the top states: return (p_0, ..., p_{keep-2}, sum of the rest)."""
    if not 2 <= keep <= len(p):
        raise InvalidReduction(
            f"keep={keep} out of range [2, {len(p)}] for a {len(p)}-state distribution")
    head = p.probs[:keep - 1]
    tail = math.fsum(p.probs[keep - 1:])
    return Distribution(head + (tail,))


def delta_vector(a_high: ActionSpec, a_low: ActionSpec) -> DeltaVector:
    """Agent-belief difference (high action minus low action) per state."""
    if len(a_high.agent_beliefs) != len(a_low.agent_beliefs):
        raise LengthMismatch("delta_vector: actions live on different state spaces")
    hi = a_high.agent_beliefs.as_array()
    lo = a_low.agent_beliefs.as_array()
    return DeltaVector(tuple(hi - lo))


def kappa(d: DeltaVector, agent_high: Distribution, s_hi: int, s_lo: int) -> float:
    """Cross term Delta_{s_hi} * q_{s_lo} - Delta_{s_lo} * q_{s_hi}.

    Strictly positive for s_hi > s_lo whenever the agent's beliefs are
    strictly MLRP-ordered across actions.
    """
    if len(d) != len(agent_high):
        raise LengthMismatch("kappa: delta vector and distribution have different lengths")
    if s_hi <= s_lo:
        raise IndexOrder(f"kappa: requires s_hi > s_lo, got ({s_hi}, {s_lo})")
    dv, q = d.values, agent_high.probs
    return dv[s_hi] * q[s_lo] - dv[s_lo] * q[s_hi]
