"""Bit-identity regression for the belief-tilt drivers on seeded draws.

``tests/data/golden_drivers.json`` records what ``sweep`` (both solver
kinds, both parties), ``detect_regime_change``, ``cara_compstat`` and
``first_best_compstat`` return on draws built from ``support``'s
generators: the error class, or every returned float as its ``repr``.  The
eps values stay inside the domain every version of the drivers accepts, plus
a few that every version refuses.  The spread decomposition's ``inner_cost``,
pinned-spread program, ``outer_minimize`` and ``equivalence_report`` follow,
on spread draws from their own generator (binding and unrestricted) and on an
instance whose incentive constraint never binds.  Regenerate (only when an output change is
intended) with::

    PYTHONPATH=src python tests/test_golden_drivers.py --write

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
from beliefcontracts import iterative
from support import (FAMILY_NAMES, cara_system_draw, four_state_spread_draw, golden_main,
                     optimistic_agent_spread, single_action_instance,
                     two_action_instance)

GOLDEN = Path(__file__).parent / "data" / "golden_drivers.json"
SEED = 20240612
SPREAD_SEED = 20240613
SPREADS = (-0.5, 0.0, 0.2, 0.5, 1.0, 2.0, 3.0)
PAIRS = ((1, 2), (0, 2), (2, 0), (1, 0))


def _floats(xs) -> list[str]:
    return [repr(float(x)) for x in xs]


def _guarded(run, *args) -> dict:
    try:
        return run(*args)
    except bc.BeliefContractsError as exc:
        return {"error": type(exc).__name__}


def _sweep(inst, party, which, s, s_prime, grid, solver) -> dict:
    res = bc.sweep(inst, "H", party, which, s, s_prime, grid, solver)
    return {"eps": _floats(res.eps_values),
            "wages": [_floats(row) for row in res.wage_paths],
            "lam": _floats(res.lambda_path), "mu": _floats(res.mu_path),
            "power": _floats(res.power_path),
            "power_principal": _floats(res.power_path_principal),
            "verdicts": [v.value for v in res.verdicts],
            "regime_changes": _floats(res.regime_changes),
            "coincides": list(res.coincides_path),
            "failed_rows": list(res.failed_rows)}


def _regime(inst, party, which, s, s_prime, eps_max) -> dict:
    tilt = bc.BeliefTilt(party, which, s, s_prime)
    eps = bc.detect_regime_change(inst, tilt, eps_max, target="H")
    return {"eps_star": None if eps is None else repr(float(eps))}


def _cara(sys_, s, s_prime, grid) -> dict:
    res = bc.cara_compstat(sys_, s, s_prime, grid)
    return {"eps": _floats(res.eps_values),
            "wages": [_floats(row) for row in res.wages],
            "lam": _floats(res.lam_path), "mu": _floats(res.mu_path),
            "s_non_increasing": res.s_non_increasing,
            "s_prime_non_decreasing": res.s_prime_non_decreasing,
            "strict_steps": res.strict_steps, "third_state": res.third_state,
            "third_direction": res.third_direction}


def _first_best(inst, s, s_prime, eps) -> dict:
    base, pert, rep = bc.first_best_compstat(inst, "a", s, s_prime, eps)
    return {"base": _floats(base.wages), "pert": _floats(pert.wages),
            "lam": _floats((base.lam, pert.lam)),
            "cost": _floats((pert.expected_cost_principal,
                             pert.expected_cost_agent_beliefs)),
            "weak_ok": list(rep.weak_ok), "n_strict": rep.n_strict,
            "satisfied": rep.satisfied}


def _inner(sp, m) -> dict:
    inner = bc.inner_cost(sp, m)
    return {"cost": repr(float(inner.cost)), "wages": _floats(inner.wages),
            "v": _floats(inner.utility_levels),
            "multipliers": _floats((inner.lam, inner.mu)),
            "ic_binding": inner.ic_binding}


def _pinned(sp, m) -> dict:
    pinned = iterative._pinned_inner(sp, m)
    return {"cost": repr(float(pinned.cost_total)), "wages": _floats(pinned.wages),
            "v": _floats(pinned.v),
            "multipliers": _floats((pinned.lam, pinned.mu, pinned.nu)),
            "ic_binding": pinned.ic_binding}


def _outer(sp) -> dict:
    out = bc.outer_minimize(sp)
    return {"m_star": repr(float(out.m_star)), "wages": _floats(out.wages),
            "v": _floats(out.utility_levels),
            "multipliers": _floats((out.lam, out.mu)),
            "cost": _floats((out.cost_total, out.top_payment, out.cost_inner)),
            "foc": repr(float(out.outer_foc_residual)),
            "trace": [_floats(row) for row in out.trace]}


def _equivalence(sp) -> dict:
    rep = bc.equivalence_report(sp)
    return {"deltas": _floats((rep.cost_iterative, rep.cost_direct, rep.cost_delta,
                               rep.max_wage_delta, rep.lam_delta, rep.mu_delta,
                               rep.m_star, rep.outer_foc_residual))}


def spread_outcomes() -> dict:
    rng = np.random.default_rng(SPREAD_SEED)
    draws = [(f"binding-{i}", four_state_spread_draw(rng)) for i in range(5)]
    draws += [(f"any-{i}", four_state_spread_draw(rng, require_binding=False))
              for i in range(5)]
    draws.append(("optimistic-agent", optimistic_agent_spread()))
    out = {}
    for tag, sp in draws:
        for m in SPREADS:
            out[f"inner-{tag}-m{m}"] = _guarded(_inner, sp, m)
            out[f"pinned-{tag}-m{m}"] = _guarded(_pinned, sp, m)
        out[f"outer-{tag}"] = _guarded(_outer, sp)
        out[f"equivalence-{tag}"] = _guarded(_equivalence, sp)
    return out


def outcomes() -> dict:
    rng = np.random.default_rng(SEED)
    out = {}
    for name in FAMILY_NAMES:
        for S in (3, 4):
            inst = two_action_instance(rng, S, name=name, chain=bool(S == 3))
            for party, which in ((bc.Party.PRINCIPAL, "H"), (bc.Party.AGENT, "L")):
                base = (inst.action(which).principal_beliefs if party is bc.Party.PRINCIPAL
                        else inst.action(which).agent_beliefs).probs
                s, s_prime = PAIRS[int(rng.integers(len(PAIRS)))]
                room = min(base[s], base[s_prime])
                grid = list(np.linspace(-0.4 * room, 0.8 * room, 7))
                for solver in bc.SolverKind:
                    label = f"sweep-{name}-S{S}-{party.value}-{solver.value}"
                    out[label] = _guarded(_sweep, inst, party, which, s, s_prime,
                                          grid, solver)
                out[f"sweep-{name}-S{S}-{party.value}-off-simplex"] = _guarded(
                    _sweep, inst, party, which, s, s_prime, [0.0, base[s_prime]],
                    bc.SolverKind.SECOND_BEST)
                out[f"regime-{name}-S{S}-{party.value}"] = _guarded(
                    _regime, inst, party, which, s, s_prime, 0.9 * room)
    for i in range(8):
        sys_ = cara_system_draw(rng)
        s, s_prime = PAIRS[i % len(PAIRS)]
        p = sys_.principal.probs
        grid = list(np.linspace(0.0, 0.45 * min(p[s], p[s_prime]), 8))
        out[f"cara-{i}-{s}{s_prime}"] = _guarded(_cara, sys_, s, s_prime, grid)
        out[f"cara-{i}-{s}{s_prime}-negative"] = _guarded(_cara, sys_, s, s_prime, [-1e-3])
        out[f"cara-{i}-{s}{s_prime}-off-simplex"] = _guarded(
            _cara, sys_, s, s_prime, [0.0, p[s_prime]])
    for name in FAMILY_NAMES:
        for S in (2, 3, 4):
            inst = single_action_instance(rng, S, name=name)
            s, s_prime = (0, 1) if S == 2 else PAIRS[int(rng.integers(len(PAIRS)))]
            p = inst.action("a").principal_beliefs.probs
            for tag, eps in (("zero", 0.0), ("half", 0.5 * min(p[s], p[s_prime])),
                             ("negative", -1e-3), ("off-simplex", p[s_prime])):
                out[f"first-best-{name}-S{S}-{tag}"] = _guarded(
                    _first_best, inst, s, s_prime, eps)
    out.update(spread_outcomes())
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def current():
    return outcomes()


def test_golden_covers_every_case(golden, current):
    assert list(golden) == list(current)


def test_driver_outcomes_are_bit_identical(golden, current):
    moved = [label for label in golden if golden[label] != current[label]]
    assert not moved, f"outcomes changed on {len(moved)} cases, e.g. {moved[:5]}"


if __name__ == "__main__":
    sys.exit(golden_main(GOLDEN, outcomes, sys.argv[1:]))
