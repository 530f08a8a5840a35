"""Seeded problem generators and op sequences for the three workloads.

Everything here is a pure function of the seed: the same seed gives
byte-identical problem JSON.  The generator does not use the test suite's
helpers, so editing a test cannot shift a workload, and it never rejects a
draw: an ordering chain is built directly from increasing likelihood-ratio
ladders whose total log-span does not grow with the number of states, so it
stays usable at S = 10.

The op mix (which shape, family, belief kind or driver comes next) is a
fixed cycle; the seed only moves the numbers inside each op.  Op i draws
from its own generator, seeded with (seed, workload, i), so a run can go on
for as many ops as it gets through and never repeats an instance.
"""

from __future__ import annotations

import json

import numpy as np

#: (states, actions) cycle for solve_mix
SOLVE_SHAPES = ((2, 2), (3, 2), (4, 2), (4, 3), (6, 4), (10, 5))
#: utility families as they appear in problem files
FAMILIES = (
    ("cara", {"r": 1.0}),
    ("log", {}),
    ("crra", {"gamma": 0.5}),
    ("crra", {"gamma": 2.0}),
    ("sqrt", {}),
)
#: Families whose utility range is unbounded below (cara, log, crra gamma=2):
#: there the interior optimum the paper's first-order analysis assumes
#: exists.  driver_mix and cli_cold draw from these; solve_mix draws from all
#: five, so the limited-liability refusals of sqrt and crra(gamma<1) are
#: counted there.
PAPER_FAMILIES = (0, 1, 3)

#: The ill-conditioned log instance from ROADMAP item B: the agent's beliefs
#: barely differ across actions.  It is the first op of every solve_mix run.
ILL_CONDITIONED_LOG = {
    "schema_version": "1",
    "outputs": [1.5913187676424991, 2.943813897005043, 4.045293573076768],
    "reservation_utility": 0,
    "utility": {"family": "log", "parameters": {}},
    "actions": [
        {"name": "a0", "cost": 0.15164955572821037,
         "principal_beliefs": [0.41053363880243127, 0.18402762712957446, 0.4054387340679943],
         "agent_beliefs": [0.35591725583040545, 0.2908958166101962, 0.3531869275593984]},
        {"name": "a1", "cost": 0.41331112369056144,
         "principal_beliefs": [0.18605328777333163, 0.4396719861710645, 0.374274726055604],
         "agent_beliefs": [0.36241826109184333, 0.28605550669911517, 0.3515262322090415]},
    ],
}

#: driver_mix op kinds, in cycle order
DRIVER_KINDS = ("sweep_second_best", "sweep_first_best", "detect_regime_change",
                "equivalence_report", "choose_action_2", "choose_action_3",
                "cara_compstat", "oracle_audit_3", "oracle_audit_4")
#: cli_cold commands, in cycle order
CLI_COMMANDS = ("solve-second-best", "solve-first-best", "choose-action", "compstat",
                "detect-regime", "iterate4", "oracle-audit", "mlrp")

SWEEP_POINTS = 21
ORACLE_POINTS = {3: 150, 4: 50}
CLI_ORACLE_POINTS = 60


def _floats(a) -> list[float]:
    return [float(x) for x in a]


def simplex(rng: np.random.Generator, S: int) -> np.ndarray:
    """A Dirichlet draw mixed with the uniform vector, so no entry is tiny."""
    p = 0.85 * rng.dirichlet(np.full(S, 2.0)) + 0.15 / S
    return p / p.sum()


def ladder(rng: np.random.Generator, base: np.ndarray, span: float) -> np.ndarray:
    """A vector that strictly MLRP-dominates ``base``.

    The likelihood ratio to ``base`` rises by a positive random step at every
    state, with total log-rise ``span`` whatever the number of states.
    """
    steps = rng.uniform(0.5, 1.5, len(base) - 1)
    steps *= span / steps.sum()
    f = base * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
    return f / f.sum()


def outputs(rng: np.random.Generator, S: int) -> list[float]:
    return _floats(np.cumsum(rng.uniform(0.6, 2.0, S)) + rng.uniform(0.5, 2.0))


def costs_and_reservation(rng: np.random.Generator, family: int, A: int):
    """Increasing action costs and a reservation utility inside the family's range."""
    costs = np.concatenate([[rng.uniform(0.0, 0.2)], rng.uniform(0.2, 0.6, A - 1)]).cumsum()
    name, params = FAMILIES[family]
    if name == "cara" or (name == "crra" and params["gamma"] > 1.0):
        ubar = -costs[-1] - rng.uniform(1.0, 3.0)          # range (-inf, 0)
    elif name == "log":
        ubar = rng.uniform(-1.0, 1.0)                      # range R
    else:
        ubar = rng.uniform(0.3, 1.5)                       # range (0, inf)
    return _floats(costs), float(ubar)


def problem_doc(outs, costs, ubar, family: int, principal, agent, names=None) -> dict:
    name, params = FAMILIES[family]
    names = names or [f"a{i}" for i in range(len(costs))]
    return {
        "schema_version": "1",
        "outputs": _floats(outs),
        "reservation_utility": ubar,
        "utility": {"family": name, "parameters": dict(params)},
        "actions": [
            {"name": n, "cost": c, "principal_beliefs": _floats(p), "agent_beliefs": _floats(q)}
            for n, c, p, q in zip(names, costs, principal, agent)
        ],
    }


def chain_beliefs(rng: np.random.Generator, S: int):
    """Beliefs in the paper's ordering chain agent-H over principal-H over agent-L.

    Returns (eta, principal_h, pi_h); the low action's principal beliefs equal
    its agent beliefs.
    """
    eta = simplex(rng, S)
    principal_h = ladder(rng, eta, rng.uniform(0.4, 1.2))
    pi_h = ladder(rng, principal_h, rng.uniform(0.4, 1.2))
    return eta, principal_h, pi_h


def chain_problem(rng: np.random.Generator, S: int, family: int, A: int = 2) -> dict:
    """Paper-regime instance: the target (costliest action) sits on top of the chain.

    With A = 3 the middle action's agent beliefs MLRP-dominate the low
    action's, and its cost lies close to the low cost.
    """
    outs = outputs(rng, S)
    costs, ubar = costs_and_reservation(rng, family, A)
    eta, principal_h, pi_h = chain_beliefs(rng, S)
    if A == 2:
        agent = [eta, pi_h]
        principal = [eta, principal_h]
        names = ["L", "H"]
    else:
        # a middle action that costs little more than the low one, so a
        # mildly increasing wage can implement it
        agent = [eta, ladder(rng, eta, rng.uniform(0.2, 0.6)), pi_h]
        costs[1] = costs[0] + rng.uniform(0.1, 0.3) * (costs[2] - costs[0])
        principal = [eta, simplex(rng, S), principal_h]
        names = ["L", "M", "H"]
    return problem_doc(outs, costs, ubar, family, principal, agent, names)


def _op_rng(seed: int, workload: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload, i])


def solve_mix_shape(i: int) -> tuple[int, int, int]:
    """(states, actions, family) of solve_mix op i >= 1: shape SOLVE_SHAPES[j % 6]
    and family FAMILIES[j % 5], j = i - 1."""
    S, A = SOLVE_SHAPES[(i - 1) % len(SOLVE_SHAPES)]
    return S, A, (i - 1) % len(FAMILIES)


def solve_mix_doc(seed: int, i: int) -> dict:
    """Problem document of solve_mix op i; the target is always the costliest action.

    Op 0 is the ill-conditioned log instance.  2-action draws alternate in
    blocks between the ordering chain and independent Dirichlet beliefs, and
    every other draw is independent Dirichlet.
    """
    if i == 0:
        return ILL_CONDITIONED_LOG
    S, A, family = solve_mix_shape(i)
    rng = _op_rng(seed, 1, i)
    if A == 2 and ((i - 1) // len(SOLVE_SHAPES)) % 2 == 0:
        return chain_problem(rng, S, family)
    outs = outputs(rng, S)
    costs, ubar = costs_and_reservation(rng, family, A)
    principal = [simplex(rng, S) for _ in range(A)]
    agent = [simplex(rng, S) for _ in range(A)]
    return problem_doc(outs, costs, ubar, family, principal, agent)


def _paper_draw(k: int) -> tuple[int, int]:
    """(states, family) for the k-th round of a cycle: all 9 pairs, S <= 4."""
    return (2, 3, 4)[k % 3], PAPER_FAMILIES[(k // 3) % len(PAPER_FAMILIES)]


def _tilt_limit(probs, s: int, s_prime: int) -> float:
    """Largest tilt kept well inside the open simplex (mass moves onto s)."""
    return 0.8 * min(1.0 - probs[s], probs[s_prime])


def driver_op(seed: int, i: int) -> dict:
    """Op spec of driver_mix op i: kind DRIVER_KINDS[i % 9] on a fresh paper-regime draw.

    Belief tilts move the principal's mass for the target from the top state
    onto the bottom state; that turns first-best wages steeper, so the
    incentive constraint can stop binding inside the range.
    """
    rng = _op_rng(seed, 2, i)
    kind = DRIVER_KINDS[i % len(DRIVER_KINDS)]
    S, family = _paper_draw(i // len(DRIVER_KINDS))
    op = {"kind": kind}
    if kind in ("sweep_second_best", "sweep_first_best", "detect_regime_change"):
        doc = chain_problem(rng, S, family)
        lim = _tilt_limit(doc["actions"][1]["principal_beliefs"], 0, S - 1)
        op.update(problem=doc, s=0, s_prime=S - 1, eps_max=lim)
    elif kind == "equivalence_report":
        op["problem"] = chain_problem(rng, 4, 0)
    elif kind in ("choose_action_2", "choose_action_3"):
        op["problem"] = chain_problem(rng, S, family, A=2 if kind.endswith("2") else 3)
    elif kind == "cara_compstat":
        op.update(problem=cara_problem(rng), s=0, s_prime=2)
        p = op["problem"]["actions"][1]["principal_beliefs"]
        op["eps_max"] = 0.3 * min(p[0], p[2])
    else:
        S = int(kind[-1])
        op["problem"] = chain_problem(rng, S, family)
        op["points"] = ORACLE_POINTS[S]
    return op


def cara_problem(rng: np.random.Generator) -> dict:
    """2-action, 3-state cara(r=1) instance in the closed form's domain.

    The middle state loses agent probability under the costly action
    (Delta_1 < 0), which the closed form needs; b < a * eta_1 / eta_0 keeps
    the likelihood ratio to the cheap action increasing, so the agent's
    beliefs are strictly MLRP-ordered.  The cheap action costs 0.
    """
    eta = simplex(rng, 3)
    a = rng.uniform(0.3, 0.7) * eta[0]
    b = rng.uniform(0.2, 0.8) * a * eta[1] / eta[0]
    pi_h = eta + np.array([-a, -b, a + b])
    # a mixture of the two agent vectors keeps the ordering chain exactly
    principal_h = eta + rng.uniform(0.8, 1.0) * (pi_h - eta)
    cost = float(rng.uniform(0.2, 0.6))
    ubar = float(-cost - rng.uniform(1.0, 3.0))
    return problem_doc(outputs(rng, 3), [0.0, cost], ubar, 0,
                       [eta, principal_h], [eta, pi_h], ["L", "H"])


def cli_op(seed: int, i: int) -> dict:
    """Op spec of cli_cold op i: command CLI_COMMANDS[i % 8] on a fresh problem file."""
    rng = _op_rng(seed, 3, i)
    cmd = CLI_COMMANDS[i % len(CLI_COMMANDS)]
    S, family = _paper_draw(i // len(CLI_COMMANDS))
    op = {"command": cmd}
    if cmd == "mlrp":
        f = simplex(rng, S)
        op["args"] = ["--f", ",".join(repr(x) for x in _floats(f)),
                      "--g", ",".join(repr(x) for x in _floats(ladder(rng, f, 0.8)))]
        return op
    if cmd == "iterate4":
        doc = chain_problem(rng, 4, 0)
    elif cmd == "oracle-audit":
        doc = chain_problem(rng, 3, family)
    else:
        doc = chain_problem(rng, S, family)
    op["problem"] = doc
    args = []
    if cmd == "compstat":
        lim = _tilt_limit(doc["actions"][1]["principal_beliefs"], 0, S - 1)
        args = ["--states", f"0,{S - 1}", "--eps-grid", f"0:{lim!r}:{SWEEP_POINTS}"]
    elif cmd == "detect-regime":
        lim = _tilt_limit(doc["actions"][1]["principal_beliefs"], 0, S - 1)
        args = ["--states", f"0,{S - 1}", "--eps-max", repr(lim)]
    elif cmd == "oracle-audit":
        args = ["--points", str(CLI_ORACLE_POINTS)]
    op["args"] = args
    return op


def op_problem(workload: str, seed: int, i: int) -> dict | None:
    """The problem document op i of a workload hands the program, if any."""
    if workload == "solve_mix":
        return solve_mix_doc(seed, i)
    spec = (driver_op if workload == "driver_mix" else cli_op)(seed, i)
    return spec.get("problem")


def dumps(doc: dict) -> str:
    """Canonical problem-file text (shortest round-trip floats, fixed key order)."""
    return json.dumps(doc, indent=1) + "\n"
