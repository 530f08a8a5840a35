"""Bit-identity regression: solver outcomes on seeded draws must not move.

``tests/data/golden_solves.json`` records, for 60 seeded instances built
from ``support``'s generators (all five families, S in {2, 3, 4, 6},
A in {2, 3}), what ``solve_second_best`` and ``solve_first_best`` return
for the costliest action: the error class, or the wages, multipliers and
cost as ``repr`` floats.  Changes that only make the solver cheaper must
reproduce every entry exactly.  Regenerate (only when an output change is
intended) with::

    PYTHONPATH=src python tests/test_golden_solves.py --write

Before rewriting, ``--compare`` prints every leaf that would move, with
|new - old| / max(1, |old|) for floats, and every changed error class or
other non-numeric leaf; it exits non-zero above 1e-12 or on any such change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import beliefcontracts as bc
from support import (FAMILY_NAMES, draw_costs_and_reservation, golden_drift, golden_main,
                     make_family, rand_outputs, rand_simplex, ratio_ladder)

GOLDEN = Path(__file__).parent / "data" / "golden_solves.json"
SEED = 20240611
STATES = (2, 3, 4, 6)


def golden_draws():
    """(label, instance, target) for every draw, in a fixed order.

    Per (family, S) there is one 2-action ordering-chain draw and one draw
    with independent beliefs for each of A = 2 and A = 3.
    """
    rng = np.random.default_rng(SEED)
    draws = []
    for name in FAMILY_NAMES:
        for S in STATES:
            for kind, A in (("chain", 2), ("indep", 2), ("indep", 3)):
                costs, ubar = draw_costs_and_reservation(rng, name, A)
                if kind == "chain":
                    eta = rand_simplex(rng, S)
                    principal_h = ratio_ladder(rng, eta, lo=1.05, hi=1.35)
                    principal = [eta, principal_h]
                    agent = [eta, ratio_ladder(rng, principal_h, lo=1.05, hi=1.35)]
                else:
                    principal = [rand_simplex(rng, S) for _ in range(A)]
                    agent = [rand_simplex(rng, S) for _ in range(A)]
                names = [f"a{i}" for i in range(A)]
                inst = bc.ProblemInstance(
                    outputs=rand_outputs(rng, S),
                    actions=tuple(bc.ActionSpec(n, c, bc.Distribution(tuple(p)),
                                                bc.Distribution(tuple(q)))
                                  for n, c, p, q in zip(names, costs, principal, agent)),
                    reservation_utility=ubar,
                    utility=make_family(name),
                )
                draws.append((f"{name}-S{S}-A{A}-{kind}", inst, names[-1]))
    return draws


def _floats(xs) -> list[str]:
    return [repr(float(x)) for x in xs]


def outcome(solve, *args) -> dict:
    try:
        sol = solve(*args)
    except bc.BeliefContractsError as exc:
        return {"error": type(exc).__name__}
    mult = [sol.lam, *getattr(sol, "mu", ())]
    return {"wages": _floats(sol.wages), "multipliers": _floats(mult),
            "cost": repr(float(sol.expected_cost_principal))}


def outcomes() -> dict:
    return {label: {"second_best": outcome(bc.solve_second_best, inst, target),
                    "first_best": outcome(bc.solve_first_best, inst, target)}
            for label, inst, target in golden_draws()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def current():
    return outcomes()


def test_golden_covers_every_draw(golden, current):
    assert list(golden) == list(current)
    assert len(golden) == 60


def test_outcomes_are_bit_identical(golden, current):
    moved = [label for label in golden if golden[label] != current[label]]
    assert not moved, f"outcomes changed on {len(moved)} draws, e.g. {moved[:5]}"



def test_drift_report_measures_floats_and_flags_other_changes():
    old = {"x": {"wages": ["1.0", "-4.0"], "cost": "3.0"}, "y": {"error": "Infeasible"},
           "z": {"verdicts": ["flat"]}}
    new = {"x": {"wages": ["1.0", "-4.000000000001"], "cost": "nan"},
           "y": {"error": "KKTDegeneracy"}, "z": {"verdicts": ["flat", "increasing"]}}
    moved = {where: rel for where, _, _, rel in golden_drift(old, new)}
    assert moved.keys() == {"/x/wages[1]", "/x/cost", "/y/error", "/z/verdicts"}
    assert moved["/x/wages[1]"] == pytest.approx(0.25e-12)
    assert moved["/x/cost"] == moved["/y/error"] == moved["/z/verdicts"] == np.inf
    assert list(golden_drift(old, old)) == []

if __name__ == "__main__":
    sys.exit(golden_main(GOLDEN, outcomes, sys.argv[1:]))
