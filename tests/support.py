"""Shared seeded instance generators for the test suite.

Generation is rejection-sampled: belief vectors keep a minimum probability so
solver conditioning stays away from the simplex boundary, and binding-regime
draws are verified by an actual solve before being handed to a test.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import beliefcontracts as bc

MIN_PROB = 0.03


def rand_simplex(rng, S, min_p=MIN_PROB):
    for _ in range(2000):
        p = rng.dirichlet(np.ones(S) * 3.0)
        if p.min() >= min_p:
            return p
    raise RuntimeError("simplex rejection sampling exhausted")


def ratio_ladder(rng, base, lo=1.08, hi=1.9, min_p=0.015):
    """A vector strictly MLRP-dominating ``base`` via an increasing ratio ladder."""
    for _ in range(2000):
        ell = np.cumprod(np.concatenate([[1.0], rng.uniform(lo, hi, len(base) - 1)]))
        f = base * ell
        f = f / f.sum()
        if f.min() >= min_p:
            return f
    raise RuntimeError("ladder rejection sampling exhausted")


FAMILY_NAMES = ("cara", "log", "crra_low", "crra_high", "sqrt")


def make_family(name: str):
    return {
        "cara": lambda: bc.CaraUtility(r=1.0),
        "log": bc.LogUtility,
        "crra_low": lambda: bc.CrraUtility(gamma=0.5),
        "crra_high": lambda: bc.CrraUtility(gamma=2.0),
        "sqrt": bc.SqrtUtility,
    }[name]()


def draw_costs_and_reservation(rng, name: str, n_actions: int = 2):
    c_lo = float(rng.uniform(0.0, 0.25))
    gaps = rng.uniform(0.25, 0.7, max(n_actions - 1, 0))
    costs = [c_lo] + list(c_lo + np.cumsum(gaps))
    c_max = costs[-1]
    if name in ("cara", "crra_high"):
        ubar = float(rng.uniform(-3.0, -c_max - 0.4))
    elif name == "log":
        ubar = float(rng.uniform(-1.0, 1.0))
    else:  # positive utility range
        ubar = float(rng.uniform(0.3, 1.5))
    return costs[:n_actions], ubar


def rand_outputs(rng, S):
    return tuple(np.cumsum(rng.uniform(0.6, 2.0, S)) + rng.uniform(0.5, 2.0))


def single_action_instance(rng, S, name=None, order=None, min_gap=0.0):
    """One-action instance for first-best tests.

    order: None (independent beliefs), "homogeneous", "agent_dominates",
    or "principal_dominates" (strict MLRP via ratio ladders).  min_gap
    forces meaningful heterogeneity on independent draws.
    """
    name = name or rng.choice(FAMILY_NAMES)
    model = make_family(name)
    (cost,), ubar = draw_costs_and_reservation(rng, name, 1)
    if order == "homogeneous":
        p = rand_simplex(rng, S)
        principal = agent = p
    elif order == "agent_dominates":
        principal = rand_simplex(rng, S)
        agent = ratio_ladder(rng, principal)
    elif order == "principal_dominates":
        agent = rand_simplex(rng, S)
        principal = ratio_ladder(rng, agent)
    else:
        principal = rand_simplex(rng, S)
        agent = rand_simplex(rng, S)
        while float(np.max(np.abs(principal - agent))) < min_gap:
            agent = rand_simplex(rng, S)
    return bc.ProblemInstance(
        outputs=rand_outputs(rng, S),
        actions=(bc.ActionSpec("a", cost, bc.Distribution(tuple(principal)),
                               bc.Distribution(tuple(agent))),),
        reservation_utility=ubar,
        utility=model,
    )


def two_action_instance(rng, S, name=None, chain=True, solvable=True):
    """Two-action instance; ``chain=True`` enforces the ordering
    agent-H over principal-H over agent-L (strict ladders)."""
    for _ in range(200):
        fam = name or rng.choice(FAMILY_NAMES)
        model = make_family(fam)
        (c_l, c_h), ubar = draw_costs_and_reservation(rng, fam, 2)
        if chain:
            eta = rand_simplex(rng, S)
            principal_h = ratio_ladder(rng, eta)
            pi_h = ratio_ladder(rng, principal_h)
        else:
            eta = rand_simplex(rng, S)
            pi_h = ratio_ladder(rng, eta)     # agent beliefs still MLRP across actions
            principal_h = rand_simplex(rng, S)
        inst = bc.ProblemInstance(
            outputs=rand_outputs(rng, S),
            actions=(
                bc.ActionSpec("H", c_h, bc.Distribution(tuple(principal_h)),
                              bc.Distribution(tuple(pi_h))),
                bc.ActionSpec("L", c_l, bc.Distribution(tuple(eta)),
                              bc.Distribution(tuple(eta))),
            ),
            reservation_utility=ubar,
            utility=model,
        )
        if not solvable:
            return inst
        try:
            sol = bc.solve_second_best(inst, "H")
        except bc.BeliefContractsError:
            continue
        # keep economies at desk scale: near-degenerate incentive geometry
        # (agent beliefs barely moving with effort) blows the multipliers and
        # wage spread past what double precision can certify
        if sol.lam > 5e3 or (sol.mu and max(sol.mu) > 5e3):
            continue
        if max(abs(w) for w in sol.wages) > 1e5:
            continue
        # certificate conditioning: the stationarity residual at a punished
        # state cancels O(lam) terms down to delta_s h'(v_s); cap the ratio
        q = np.asarray(inst.action("H").agent_beliefs.probs)
        dl = np.asarray(inst.action("H").principal_beliefs.probs)
        hp = np.asarray([float(model.inverse_derivative(v)) for v in sol.utility_levels])
        drows = [q - np.asarray(a.agent_beliefs.probs) for a in inst.other_actions("H")]
        gross = sol.lam * q
        for m, row in zip(sol.mu, drows):
            gross = gross + abs(m) * np.abs(row)
        if float(np.max(gross / (dl * hp))) > 1e6:
            continue
        return inst
    raise RuntimeError("two-action instance sampling exhausted")


def cara_system_draw(rng, require_binding=True):
    """Random 3-state exponential-utility system, optionally filtered to the
    regime where the incentive constraint binds (the closed form's domain)."""
    for _ in range(500):
        pi_l = rand_simplex(rng, 3)
        pi_h = ratio_ladder(rng, pi_l)
        principal = rand_simplex(rng, 3)
        cost = float(rng.uniform(0.25, 0.85))
        ubar = float(rng.uniform(-2.6, -cost - 0.4))
        try:
            sys_ = bc.CaraSystem(bc.Distribution(tuple(pi_h)), bc.Distribution(tuple(pi_l)),
                                 bc.Distribution(tuple(principal)), cost, ubar)
            bc.branch_interval(sys_)
        except bc.BeliefContractsError:
            continue
        if not require_binding:
            return sys_
        inst = bc.to_problem_instance(sys_)
        try:
            sol = bc.solve_second_best(inst, "H")
        except bc.BeliefContractsError:
            continue
        if not sol.coincides_with_first_best and sol.mu[0] > 1e-7:
            return sys_
    raise RuntimeError("cara system sampling exhausted")


def four_state_spread_draw(rng, require_binding=True):
    """4-state exponential-utility instance satisfying the ordering chain."""
    for _ in range(500):
        eta = rand_simplex(rng, 4)
        principal_h = ratio_ladder(rng, eta, lo=1.06, hi=1.5)
        pi_h = ratio_ladder(rng, principal_h, lo=1.06, hi=1.5)
        cost = float(rng.uniform(0.25, 0.8))
        ubar = float(rng.uniform(-2.6, -cost - 0.4))
        inst = bc.ProblemInstance(
            outputs=(1.0, 2.0, 3.0, 4.0),
            actions=(
                bc.ActionSpec("H", cost, bc.Distribution(tuple(principal_h)),
                              bc.Distribution(tuple(pi_h))),
                bc.ActionSpec("L", 0.0, bc.Distribution(tuple(eta)),
                              bc.Distribution(tuple(eta))),
            ),
            reservation_utility=ubar,
            utility=bc.CaraUtility(r=1.0),
        )
        try:
            sp = bc.SpreadProblem(inst, "H")
            sol = bc.solve_second_best(inst, "H")
        except bc.BeliefContractsError:
            continue
        if require_binding and (sol.coincides_with_first_best or sol.mu[0] <= 1e-7):
            continue
        return sp
    raise RuntimeError("4-state spread sampling exhausted")


def optimistic_agent_spread():
    """4-state chain whose agent is optimistic enough that no spread makes the
    incentive constraint bind: the second best is the risk-sharing contract."""
    D = lambda *p: bc.Distribution(tuple(p))
    inst = bc.ProblemInstance(
        outputs=(1.0, 2.0, 3.0, 4.0),
        actions=(
            bc.ActionSpec("H", 0.1, D(0.28, 0.27, 0.25, 0.20), D(0.05, 0.10, 0.25, 0.60)),
            bc.ActionSpec("L", 0.0, D(0.40, 0.30, 0.18, 0.12), D(0.40, 0.30, 0.18, 0.12)),
        ),
        reservation_utility=-1.5,
        utility=bc.CaraUtility(r=1.0),
    )
    return bc.SpreadProblem(inst, "H")


def mlrp_pair(rng, S, min_p=0.01):
    g = rand_simplex(rng, S, min_p=0.02)
    f = ratio_ladder(rng, g, min_p=min_p)
    return bc.Distribution(tuple(f)), bc.Distribution(tuple(g))


def mlrp_compare_reference(f, g):
    """``mlrp_compare`` as it was before it shared one cached triangle with
    ``mlrp_strict``, kept verbatim as the reference it must match."""
    if len(f) != len(g):
        raise bc.LengthMismatch("mlrp_compare: distributions have different lengths")
    fa, ga = f.as_array(), g.as_array()
    cross = np.outer(fa, ga)          # cross[s, t] = f_s * g_t
    diff = cross - cross.T            # >= 0 below the diagonal iff f dominates
    lower = diff[np.tril_indices(len(f), k=-1)]
    f_dom = bool(np.all(lower >= -bc.beliefs.CROSS_TOL))
    g_dom = bool(np.all(lower <= bc.beliefs.CROSS_TOL))
    if f_dom and g_dom:
        return bc.MlrpOrder.EQUAL
    if f_dom:
        return bc.MlrpOrder.F_DOMINATES_G
    if g_dom:
        return bc.MlrpOrder.G_DOMINATES_F
    return bc.MlrpOrder.INCOMPARABLE


def mlrp_strict_reference(f, g):
    """``mlrp_strict`` as it was, kept verbatim as the reference it must match."""
    if mlrp_compare_reference(f, g) not in (bc.MlrpOrder.F_DOMINATES_G, bc.MlrpOrder.EQUAL):
        return False
    fa, ga = f.as_array(), g.as_array()
    cross = np.outer(fa, ga)
    diff = cross - cross.T
    lower = diff[np.tril_indices(len(f), k=-1)]
    return bool(np.any(lower > bc.beliefs.CROSS_TOL))


def grid_around(inst, utility_levels, points, pad=0.3):
    """Oracle grid straddling a solution's promised utilities, clamped to the
    utility range of the instance's family."""
    vs = np.asarray(utility_levels, dtype=float)
    span = max(float(vs.max() - vs.min()), 0.25)
    lo = float(vs.min() - pad * span)
    hi = float(vs.max() + pad * span)
    r_lo, r_hi = inst.utility.utility_range
    if np.isfinite(r_lo):
        lo = max(lo, r_lo + 1e-6 * span)
    if np.isfinite(r_hi):
        hi = min(hi, r_hi - 1e-6 * span)
    return bc.GridSpec(lo, hi, points)


def brute_force_min_reference(inst, target, grid, mode=bc.SolverKind.SECOND_BEST):
    """The per-head enumeration ``brute_force_min`` replaced, kept verbatim as
    the reference its sorted-window search must match bit for bit."""
    if not isinstance(mode, bc.SolverKind):
        raise bc.ValidationError(f"unknown oracle mode {mode!r}")
    act = inst.action(target)
    if inst.n_states > 4:
        raise bc.ValidationError("oracle supports at most 4 states")
    model = inst.utility
    vals = grid.values()
    if not (model.contains_utility(float(vals[0])) and model.contains_utility(float(vals[-1]))):
        raise bc.ValidationError("grid leaves the utility range")
    S = inst.n_states
    q = act.agent_beliefs.as_array()
    delta = act.principal_beliefs.as_array()
    level = inst.reservation_utility + act.cost
    ctol = grid.tol
    h_vals = np.asarray(model.inverse(vals), dtype=float)

    ics = []
    if mode is bc.SolverKind.SECOND_BEST:
        for other in inst.other_actions(target):
            ics.append((q - other.agent_beliefs.as_array(), act.cost - other.cost))

    tail = np.add.outer(q[S - 2] * vals, q[S - 1] * vals)
    tail_cost = np.add.outer(delta[S - 2] * h_vals, delta[S - 1] * h_vals)
    tail_ic = [np.add.outer(row[S - 2] * vals, row[S - 1] * vals) for row, _ in ics]

    best_cost = np.inf
    best_idx = None
    head_shape = (len(vals),) * (S - 2)
    for head in np.ndindex(head_shape):
        head_v = vals[list(head)] if head else np.zeros(0)
        ir_head = float(q[:S - 2] @ head_v) if head else 0.0
        mask = np.abs(ir_head + tail - level) <= ctol
        if not mask.any():
            continue
        for k, (row, rhs) in enumerate(ics):
            ic_head = float(row[:S - 2] @ head_v) if head else 0.0
            mask &= (ic_head + tail_ic[k] - rhs) >= -ctol
            if not mask.any():
                break
        if not mask.any():
            continue
        cost_head = float(delta[:S - 2] @ np.asarray(model.inverse(head_v))) if head else 0.0
        costs = np.where(mask, cost_head + tail_cost, np.inf)
        j = np.unravel_index(int(np.argmin(costs)), costs.shape)
        if costs[j] < best_cost:
            best_cost = float(costs[j])
            best_idx = head + j

    if best_idx is None:
        raise bc.NoFeasiblePoint("no grid point satisfies the constraints at this tolerance")
    v = tuple(float(vals[i]) for i in best_idx)
    w = tuple(float(model.inverse(x)) for x in v)
    return bc.OracleResult(cost=best_cost, v=v, wages=w)


#: Largest relative move |new - old| / max(1, |old|) a golden leaf may make
#: for ``--compare`` to pass.
GOLDEN_DRIFT_TOL = 1e-12


def _as_float(leaf):
    """The float a golden leaf spells as its ``repr``, or None."""
    if not isinstance(leaf, str):
        return None
    try:
        return float(leaf)
    except ValueError:
        return None


def golden_drift(old, new, path=""):
    """Yield (path, old, new, relative move) for every leaf that differs
    between two golden outcome trees.  Numeric leaves (``repr`` floats) move
    by |new - old| / max(1, |old|); any other change (an error class, a
    verdict, a missing key or a list length) moves by inf, as does a float
    that turns non-finite or NaN."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in dict.fromkeys([*old, *new]):
            if key in old and key in new:
                yield from golden_drift(old[key], new[key], f"{path}/{key}")
            else:
                yield f"{path}/{key}", old.get(key), new.get(key), np.inf
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from golden_drift(a, b, f"{path}[{i}]")
    elif old != new:
        a, b = _as_float(old), _as_float(new)
        if a is None or b is None or not (np.isfinite(a) and np.isfinite(b)):
            yield path, old, new, np.inf
        else:
            yield path, old, new, abs(b - a) / max(1.0, abs(a))


def golden_main(path, outcomes, argv) -> int:
    """Command line of a golden test file: ``--write`` rewrites ``path`` from
    ``outcomes()``; ``--compare`` prints every leaf that moved against it and
    fails above GOLDEN_DRIFT_TOL or on any non-numeric change."""
    if argv == ["--write"]:
        path.write_text(json.dumps(outcomes(), indent=1) + "\n", encoding="utf-8")
        return 0
    if argv != ["--compare"]:
        print(f"usage: PYTHONPATH=src python {sys.argv[0]} {{--write,--compare}}")
        return 2
    golden = json.loads(path.read_text(encoding="utf-8"))
    moved = list(golden_drift(golden, outcomes()))
    for where, old, new, rel in moved:
        print(f"{where}: {old} -> {new}  rel {rel:.3g}")
    worst = max((rel for *_, rel in moved), default=0.0)
    cases = {where.split("/")[1] for where, *_ in moved}
    print(f"{len(moved)} leaves moved in {len(cases)} of {len(golden)} cases; "
          f"largest relative move {worst:.3g}; "
          f"{sum(rel == np.inf for *_, rel in moved)} non-numeric changes")
    return 1 if worst > GOLDEN_DRIFT_TOL else 0


def sweep_reference(inst, action, party, which_action, s, s_prime, eps_grid, solver):
    """``sweep`` as it was before it solved its grid as one program stack:
    one cold ``solve_first_best`` or ``solve_second_best`` per eps, kept
    verbatim as the per-row reference the stacked sweep must match."""
    from beliefcontracts.compstat import _variance
    from beliefcontracts.first_best import VERDICT_TOL

    eps_values = [float(e) for e in eps_grid]
    S = inst.n_states
    if not (0 <= s < S and 0 <= s_prime < S):
        raise bc.ValidationError("state indices out of range")
    if not isinstance(solver, bc.SolverKind):
        raise bc.ValidationError(f"unknown solver {solver!r}")

    rows, lams, mus, power_a, power_p, coincides, failed = [], [], [], [], [], [], []
    for i, eps in enumerate(eps_values):
        tilted = inst.tilted(party, which_action, s, s_prime, eps)
        try:
            if solver is bc.SolverKind.FIRST_BEST:
                sol = bc.solve_first_best(tilted, action)
                lam, mu, coin = sol.lam, 0.0, True
            else:
                sol = bc.solve_second_best(tilted, action)
                lam = sol.lam
                mu = sol.mu[0] if len(sol.mu) == 1 else float(sum(sol.mu))
                coin = sol.coincides_with_first_best
        except bc.BeliefContractsError:
            rows.append((float("nan"),) * S)
            lams.append(float("nan"))
            mus.append(float("nan"))
            power_a.append(float("nan"))
            power_p.append(float("nan"))
            coincides.append(False)
            failed.append(i)
            continue
        w = np.asarray(sol.wages, dtype=float)
        t_act = tilted.action(action)
        rows.append(tuple(float(x) for x in w))
        lams.append(float(lam))
        mus.append(float(mu))
        power_a.append(_variance(w, t_act.agent_beliefs.as_array()))
        power_p.append(_variance(w, t_act.principal_beliefs.as_array()))
        coincides.append(bool(coin))

    ok = [i for i in range(len(eps_values)) if i not in failed]
    verdicts = [bc.classify_monotonicity([rows[i][state] for i in ok], tol=VERDICT_TOL)
                for state in range(S)]

    regime = [eps_values[j] for i, j in zip(ok, ok[1:])
              if coincides[i] != coincides[j]]

    return bc.SweepResult(
        eps_values=tuple(eps_values),
        wage_paths=tuple(rows),
        lambda_path=tuple(lams),
        mu_path=tuple(mus),
        power_path=tuple(power_a),
        power_path_principal=tuple(power_p),
        verdicts=tuple(verdicts),
        regime_changes=tuple(regime),
        coincides_path=tuple(coincides),
        failed_rows=tuple(failed),
    )
