"""Seeded fuzzing of the second-best solver against an independent LP.

Every draw ends in one of three ways: a contract whose KKT certificate passes
at 1e-8, an Infeasible that a strict-interior LP (``scipy.optimize.linprog``,
written out here) confirms, or a named refusal whose count per family is
pinned below.  Draws cover S = 2..10, A = 2..5 and all five families, and a
quarter of them are the paper's 3-action chain (a middle action whose agent
beliefs dominate the low action's and whose cost sits close to the low
cost), where a working-set search refused most often.
"""

from collections import Counter

import numpy as np
from scipy.optimize import linprog

import beliefcontracts as bc
from support import (FAMILY_NAMES, draw_costs_and_reservation, make_family, rand_outputs,
                     rand_simplex, ratio_ladder)

D = lambda p: bc.Distribution(tuple(p))
DRAWS = 400


def paper_chain(rng, S, name):
    """L, M, H on the ordering chain agent-H over principal-H over agent-L."""
    costs, ubar = draw_costs_and_reservation(rng, name, 3)
    costs[1] = costs[0] + rng.uniform(0.1, 0.3) * (costs[2] - costs[0])
    step = 1.0 + 2.0 / S             # ladders mild enough for ten states
    eta = rand_simplex(rng, S, min_p=0.01)
    principal_h = ratio_ladder(rng, eta, lo=1.02, hi=step, min_p=0.001)
    pi_h = ratio_ladder(rng, principal_h, lo=1.02, hi=step, min_p=0.001)
    mid = ratio_ladder(rng, eta, lo=1.0, hi=1.0 + rng.uniform(0.2, 0.6) * (step - 1.0),
                       min_p=0.001)
    principal = [eta, rand_simplex(rng, S, min_p=0.01), principal_h]
    return costs, ubar, principal, [eta, mid, pi_h]


def fuzz_draw(k):
    """(family, instance, target) of draw k; the target is the costliest action."""
    rng = np.random.default_rng([20261020, k])
    name = FAMILY_NAMES[k % 5]
    S = int(rng.integers(2, 11))
    if k % 4 == 0:
        costs, ubar, principal, agent = paper_chain(rng, S, name)
    else:
        A = int(rng.integers(2, 6))
        costs, ubar = draw_costs_and_reservation(rng, name, A)
        agent = [rand_simplex(rng, S, min_p=0.01) for _ in range(A)]
        principal = [a if rng.random() < 0.4 else rand_simplex(rng, S, min_p=0.01)
                     for a in agent]
    actions = tuple(bc.ActionSpec(f"a{j}", float(c), D(p), D(q))
                    for j, (c, p, q) in enumerate(zip(costs, principal, agent)))
    inst = bc.ProblemInstance(rand_outputs(rng, S), actions, ubar, make_family(name))
    return name, inst, actions[-1].name


def strictly_feasible(inst, target) -> bool:
    """Whether some v strictly inside the utility range meets every constraint
    with margin: max t s.t. M v - t >= r, lo + t <= v <= hi - t, t <= 1."""
    act = inst.action(target)
    q = act.agent_beliefs.as_array()
    S = len(q)
    rows = [q] + [q - o.agent_beliefs.as_array() for o in inst.other_actions(target)]
    rhs = [inst.reservation_utility + act.cost] + [act.cost - o.cost
                                                   for o in inst.other_actions(target)]
    A = [np.r_[-row, 1.0] for row in rows]
    b = [-x for x in rhs]
    lo, hi = inst.utility.utility_range
    for s in range(S):
        e = np.zeros(S + 1)
        e[s], e[S] = 1.0, 1.0
        if np.isfinite(hi):
            A.append(e.copy())
            b.append(hi)
        if np.isfinite(lo):
            e[s] = -1.0
            A.append(e)
            b.append(-lo)
    objective = np.zeros(S + 1)
    objective[S] = -1.0
    res = linprog(objective, A_ub=np.array(A), b_ub=np.array(b),
                  bounds=[(None, None)] * S + [(None, 1.0)], method="highs")
    return bool(res.status == 0 and -res.fun > 1e-9)


def test_every_outcome_is_certified_lp_confirmed_or_a_counted_refusal():
    refusals = Counter()
    certified = infeasible = 0
    for k in range(DRAWS):
        name, inst, target = fuzz_draw(k)
        try:
            sol = bc.solve_second_best(inst, target)
        except bc.Infeasible:
            assert not strictly_feasible(inst, target), k
            infeasible += 1
            continue
        except bc.BeliefContractsError as exc:
            refusals[name, type(exc).__name__] += 1
            continue
        assert bc.kkt_certificate(inst, target, sol, tol=1e-8).passed, k
        certified += 1
    assert dict(refusals) == EXPECTED_REFUSALS
    assert (certified, infeasible) == (177, 82)


#: sqrt and crra(0.5) optima at the wage floor (the limited-liability corner,
#: refused as boundary optima) and log draws on which the dual stalls and
#: neither the polished point nor the stalled iterate passes the certificate's
#: checks (the polish stays above a stationarity of 1e-8)
EXPECTED_REFUSALS = {
    ("crra_low", "KKTDegeneracy"): 69,
    ("sqrt", "KKTDegeneracy"): 66,
    ("log", "KKTDegeneracy"): 6,
}
