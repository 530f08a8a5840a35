"""``solve_dual_stack`` against ``solve_dual`` program by program, and
``kernel.sharing_stack`` against ``solve_ir_only`` row by row.

A stacked program either converges inside the stack, to the point
``solve_dual`` reaches up to the rounding of the stacked products, or is
handed back to ``solve_dual``, which then decides it alone.  So per program
the outcome class and message equal ``solve_dual``'s, and wages and
multipliers agree within 1e-12 of their largest entry (see
``assert_stack_equals_single`` for the multipliers of the stalled programs
``solve_dual`` polishes).  Risk sharing is bit-identical, row by row.
"""

import json
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import beliefcontracts as bc
from beliefcontracts import kernel, second_best as sb
from support import (FAMILY_NAMES, draw_costs_and_reservation, make_family, rand_simplex,
                     ratio_ladder)

DATA = Path(__file__).parent / "data"
REL_TOL = 1e-12
POLISH_TOL = 1e-8


def _outcome(solve, *args):
    try:
        return solve(*args)
    except bc.BeliefContractsError as exc:
        return exc


def _draw(rng, name, S, A):
    """A random program for the costliest of A actions: agent beliefs that
    MLRP-dominate the cheapest action's (mostly solvable) or independent
    (often infeasible)."""
    costs = np.cumsum(rng.uniform(0.05, 0.3, A))
    ubar = (float(rng.uniform(-3.0, -costs[-1] - 0.4)) if name in ("cara", "crra_high")
            else draw_costs_and_reservation(rng, name, 1)[1])
    q = [rand_simplex(rng, S)]
    for _ in range(A - 1):
        q.append(ratio_ladder(rng, q[0], lo=1.02, hi=1.3, min_p=0.005) if rng.random() < 0.7
                 else rand_simplex(rng, S))
    M = np.vstack([q[-1]] + [q[-1] - qa for qa in q[:-1]])
    r = np.array([ubar + costs[-1]] + [costs[-1] - c for c in costs[:-1]])
    return rand_simplex(rng, S), M, r


def _stack(rng, name, K, S, A):
    """K programs of one shape: neighbours of one draw (a tilt of its
    weights, as a sweep makes) or independent draws, half and half."""
    if rng.random() < 0.5:
        return [_draw(rng, name, S, A) for _ in range(K)]
    weights, M, r = _draw(rng, name, S, A)
    step = 0.4 * min(weights[0], weights[-1]) / K
    tilted = []
    for k in range(K):
        w = weights.copy()
        w[0] += k * step
        w[-1] -= k * step
        tilted.append((w, M, r))
    return tilted


def assert_stack_equals_single(programs, model) -> list:
    """Assert each stacked outcome equals ``solve_dual``'s alone; return the
    outcome kinds.

    Where ``solve_dual``'s ascent stalls and it returns the polish (or the
    stalled iterate), the stack, rounding apart, can converge within its 20
    steps instead: both answers then pass the one acceptance test, their
    wages agree to rounding, and their multipliers within that test's
    stationarity tolerance, 1e-8 (measured up to 1.9e-10: the polish fits
    theta by least squares at fixed wages)."""
    got = sb.solve_dual_stack(*(np.stack(x) for x in zip(*programs)), model)
    assert len(got) == len(programs)
    kinds = []
    for (weights, M, r), out in zip(programs, got):
        with mock.patch.object(sb, "minimize_on_affine", wraps=sb.minimize_on_affine) as polish:
            ref = _outcome(sb.solve_dual, weights, M, r, 0, model)
        if isinstance(ref, bc.BeliefContractsError):
            assert type(out) is type(ref) and str(out) == str(ref)
            kinds.append(type(ref).__name__)
            continue
        assert not isinstance(out, bc.BeliefContractsError), out
        v, w, theta, active, foc, resid = out
        theta_tol = POLISH_TOL if polish.called else REL_TOL
        for a, b, tol in ((w, ref[1], REL_TOL), (theta, ref[2], theta_tol)):
            assert np.max(np.abs(a - b)) <= tol * np.max(np.abs(b))
        assert (active == ref[3]).all()
        assert len(foc) == len(ref[4]) and len(resid) == len(ref[5])
        kinds.append("polished" if polish.called else "returned")
    return kinds


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_stack_equals_each_program_alone(name):
    rng = np.random.default_rng(20261020 + FAMILY_NAMES.index(name))
    model = make_family(name)
    kinds = Counter()
    for K in range(1, 22):
        S, A = int(rng.integers(2, 11)), int(rng.integers(2, 6))
        kinds.update(assert_stack_equals_single(_stack(rng, name, K, S, A), model))
    assert kinds["returned"] > 0 and kinds["Infeasible"] > 0, kinds
    if name in ("sqrt", "crra_low"):     # optima on the wage floor
        assert kinds["KKTDegeneracy"] > 0, kinds


@pytest.mark.parametrize("name", ("sqrt", "crra_low"))
def test_boundary_refusals_are_solve_duals(name):
    rng = np.random.default_rng(7 + FAMILY_NAMES.index(name))
    model = make_family(name)
    boundary = 0
    for _ in range(12):
        programs = _stack(rng, name, 8, 4, 3)
        for kind, (weights, M, r) in zip(assert_stack_equals_single(programs, model), programs):
            if kind == "KKTDegeneracy":
                boundary += "utility-range boundary" in str(
                    _outcome(sb.solve_dual, weights, M, r, 0, model))
    assert boundary > 0


def test_stalled_log_programs_reach_solve_duals_polish():
    # each stalls in the dual ascent, so solve_dual polishes it and refuses
    cases = json.loads((DATA / "log_stalled_polish.json").read_text())["cases"]
    for case in cases:
        inst = bc.parse_problem(json.dumps(case["problem"]))
        weights, M, r = sb._program(inst, case["target"], *sb._beliefs(inst))
        step = 0.01 * min(weights[0], weights[-1])
        neighbours = [(weights + k * step * np.eye(len(weights))[0]
                       - k * step * np.eye(len(weights))[-1], M, r) for k in range(4)]
        kinds = assert_stack_equals_single([(weights, M, r)] + neighbours, inst.utility)
        assert kinds[0] == "KKTDegeneracy"
        assert "no candidate passes" in str(
            _outcome(sb.solve_dual, weights, M, r, 0, inst.utility))


@pytest.mark.parametrize("name, level", [("cara", 0.5), ("sqrt", -1.0), ("crra_low", -0.5)])
def test_a_level_outside_the_range_is_solve_duals_no_bracket(name, level):
    rng = np.random.default_rng(11)
    programs = _stack(rng, name, 6, 3, 2)
    weights, M, r = programs[2]
    programs[2] = (weights, M, np.concatenate([[level], r[1:]]))
    kinds = assert_stack_equals_single(programs, make_family(name))
    assert kinds[2] == "NoBracket"


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_stacked_risk_sharing_is_bit_identical(name):
    rng = np.random.default_rng(31 + FAMILY_NAMES.index(name))
    model = make_family(name)
    v_lo, v_hi = model.utility_range
    for K in (1, 2, 5, 21):
        S = int(rng.integers(2, 11))
        weights = np.array([rand_simplex(rng, S) for _ in range(K)])
        probs = np.array([rand_simplex(rng, S) for _ in range(K)])
        levels = np.array([draw_costs_and_reservation(rng, name, 1)[1] for _ in range(K)])
        levels[0] = v_hi + 1.0 if v_hi < np.inf else v_lo - 1.0     # outside the range
        for rhs in (levels, float(levels[-1])):
            v, w, lam, ok = kernel.sharing_stack(weights, probs, model, rhs)
            for k in range(K):
                level = float(np.broadcast_to(rhs, (K,))[k])
                ref = _outcome(kernel.solve_ir_only, weights[k], probs[k], model, level)
                if isinstance(ref, bc.NoBracket):
                    assert not ok[k]
                    continue
                assert ok[k]
                assert np.array_equal(v[k], ref[0]) and np.array_equal(w[k], ref[1])
                assert float(lam[k]) == ref[2]
