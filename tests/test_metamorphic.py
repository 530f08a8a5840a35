"""Metamorphic relations of the second-best solver.

Each relation maps an instance to another whose optimal contract is known in
terms of the first's, exactly in exact arithmetic, so the check needs no
certificate built from the answer itself.  On both instances the solver must
give the same verdict class (a contract, or the same error class), and the
wages must be related within 1e-9 relative to the largest wage.

1. Units of money.  crra(gamma) has u(k w) = k^(1-gamma) u(w) (sqrt is
   gamma = 1/2), so multiplying ubar and every cost by k^(1-gamma) gives
   w -> k w; cara(r) has u(w + k) = e^(-r k) u(w), so multiplying ubar and
   every cost by e^(-r k) gives w -> w + k.
2. Relabelled states.  Permuting the states in every belief vector permutes
   the wages.  The outputs stay sorted: the second best does not read them.

Draws cycle through the shapes (S, A) of the benchmark's solve_mix, S <= 10
and A <= 5, with independent beliefs, targeting the costliest action.  log
is left out: near-cancelling multipliers make some of its verdicts depend on
rounding (ROADMAP M and L), so its verdict cases wait for a certificate that
does not.
"""

import math

import numpy as np
import pytest

import beliefcontracts as bc
from support import make_family, rand_outputs, rand_simplex

SHAPES = ((2, 2), (3, 2), (4, 2), (4, 3), (6, 4), (10, 5))
FAMILIES = ("cara", "crra_high", "crra_low", "sqrt")
DRAWS = 240
K = 1.7
REL = 1e-9


def draw(rng, name, S, A):
    costs = np.cumsum(np.concatenate([[rng.uniform(0.0, 0.25)], rng.uniform(0.25, 0.7, A - 1)]))
    if name in ("cara", "crra_high"):       # utilities < 0: ubar + every cost stays below 0
        ubar = float(rng.uniform(-3.0, -0.4) - costs[-1])
    else:
        ubar = float(rng.uniform(0.3, 1.5))
    actions = tuple(bc.ActionSpec(f"a{i}", float(cost), bc.Distribution(tuple(rand_simplex(rng, S))),
                                  bc.Distribution(tuple(rand_simplex(rng, S))))
                    for i, cost in enumerate(costs))
    return bc.ProblemInstance(rand_outputs(rng, S), actions, ubar, make_family(name))


def scaled(inst, factor):
    """``inst`` with ubar and every cost multiplied by ``factor``."""
    return bc.ProblemInstance(
        inst.outputs,
        tuple(bc.ActionSpec(a.name, a.cost * factor, a.principal_beliefs, a.agent_beliefs)
              for a in inst.actions),
        inst.reservation_utility * factor, inst.utility)


def permuted(inst, perm):
    """``inst`` with state s of every belief vector moved to perm[s]'s place."""
    def move(dist):
        return bc.Distribution(tuple(dist.probs[p] for p in perm))
    return bc.ProblemInstance(
        inst.outputs,
        tuple(bc.ActionSpec(a.name, a.cost, move(a.principal_beliefs), move(a.agent_beliefs))
              for a in inst.actions),
        inst.reservation_utility, inst.utility)


def solve(inst):
    try:
        return bc.solve_second_best(inst, inst.actions[-1].name)
    except bc.BeliefContractsError as exc:
        return exc


def money_unit(model):
    """(utility factor, wage map) of relation 1 for a money unit 1/K."""
    if model.family == "cara":
        return math.exp(-model.r * K), lambda w: w + K
    gamma = 0.5 if model.family == "sqrt" else model.gamma
    return K ** (1.0 - gamma), lambda w: K * w


def assert_related(base, other, expected):
    """Same verdict class, and wages within REL of ``expected(base's wages)``."""
    assert type(other) is type(base), (base, other)
    if isinstance(base, bc.SecondBestSolution):
        want = expected(np.asarray(base.wages))
        got = np.asarray(other.wages)
        assert np.max(np.abs(got - want)) <= REL * np.max(np.abs(want)), (got, want)
        return 1
    return 0


@pytest.mark.parametrize("name", FAMILIES)
def test_units_of_money_and_relabelled_states(name):
    rng = np.random.default_rng(20261020 + FAMILIES.index(name))
    answered = 0
    for i in range(DRAWS):
        S, A = SHAPES[i % len(SHAPES)]
        inst = draw(rng, name, S, A)
        base = solve(inst)
        factor, wage_map = money_unit(inst.utility)
        answered += assert_related(base, solve(scaled(inst, factor)), wage_map)
        perm = rng.permutation(S)
        assert_related(base, solve(permuted(inst, perm)), lambda w: w[perm])
    assert answered >= DRAWS // 4       # both relations are exercised on contracts
