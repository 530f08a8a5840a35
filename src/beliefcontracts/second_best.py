"""Hidden-action contracting: cost minimization under incentive constraints.

The program for implementing a target action H, written in promised-utility
space v_s = u(w_s), is

    min  sum_s pi^P_s(H) h(v_s)
    s.t. sum_s pi^A_s(H) v_s - c(H) >= ubar                    (participation)
         sum_s [pi^A_s(H) - pi^A_s(a')] v_s >= c(H) - c(a')    (one IC per a')

Participation always binds.  ``solve_dual`` maximizes the program's concave
dual, one multiplier per constraint, by projected Newton ascent from the pure
risk-sharing contract, which is its answer when no incentive constraint fails
there, and returns only a point that passes ``kkt_certificate``'s checks.
Dual stationarity is the paper's first-order condition
delta_s h'(v_s) = lam q_s + sum_i mu_i (q_s - q^i_s), so lam and mu are the
dual iterate (or a polish's fit, see kernel).  The principal's beliefs about
non-target actions never enter the contract, only the action choice.  The
spread decomposition's inner programs (see iterative) run on ``solve_dual``.

The program's layout (row 0 participation, then one incentive row per other
action in order) is written once, in ``_program``, which builds (weights,
M, r) from the two parties' belief arrays, for one program or a stack of
them: ``solve_second_best``, ``risk_sharing``, ``dual_value`` and the
drivers in compstat all take their programs from it.

``solve_dual_stack`` runs the same ascent on a stack of programs of one
shape at once, each program on its own axis, for a driver whose many solves
are neighbours (``compstat.sweep``'s eps grid).  A program that leaves the
converging path is handed back to ``solve_dual`` and solved alone, so the
polish and every refusal stay there; so is a lone live program, for which
the stack is the slower path.  A single solve calls ``solve_dual``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .beliefs import (MlrpOrder, Monotonicity, ProblemInstance, mlrp_compare)
from .errors import (BeliefContractsError, DimensionError, Infeasible, KKTDegeneracy,
                     Unbounded, ValidationError)
from .first_best import classify_monotonicity, solve_first_best
from .kernel import (_interior, _require_interior, minimize_on_affine, sharing_stack,
                     solve_ir_only)

_MAX_DUAL = 20
#: the one feasibility tolerance of the second-best programs: binding rows
#: hold within it, and an incentive constraint holds at slack >= -it
_FEASIBILITY_TOL = 1e-9
_EMPTY = "the multipliers certify an empty constraint set (a Farkas certificate)"


@dataclass(frozen=True)
class SecondBestSolution:
    """Optimal incentive contract for a target action.

    Attributes:
        wages: wage per state.
        utility_levels: v_s = u(w_s).
        lam: participation multiplier (> 0).
        mu: incentive multiplier per non-target action (ordered as
            inst.other_actions(target)), each >= 0.
        ic_slacks: incentive slack per non-target action at the optimum.
        ir_residual: participation slack in utils.
        expected_cost_principal: wage bill under pi^P(target).
        coincides_with_first_best: no incentive constraint binds.
        foc_residuals: per state, stationarity residual divided by pi^P_s.
    """

    target: str
    wages: tuple[float, ...]
    utility_levels: tuple[float, ...]
    lam: float
    mu: tuple[float, ...]
    ic_slacks: tuple[float, ...]
    ir_residual: float
    expected_cost_principal: float
    coincides_with_first_best: bool
    foc_residuals: tuple[float, ...]

    @property
    def binding(self) -> tuple[bool, ...]:
        """Which incentive constraints bind (multiplier > 0)."""
        return tuple(m > 0.0 for m in self.mu)


def _beliefs(inst: ProblemInstance):
    """(P, Q): the principal's and the agent's beliefs (A, S), one row per
    action in ``inst.actions``' order."""
    return (np.array([a.principal_beliefs.probs for a in inst.actions]),
            np.array([a.agent_beliefs.probs for a in inst.actions]))


def _program(inst: ProblemInstance, target: str, P, Q):
    """(weights, M, r) of the program implementing ``target`` (module
    docstring), from belief arrays P and Q (..., A, S) laid out as
    ``_beliefs``' (one program, or a stack along the leading axes):
    weights = P[..., H, :], row 0 of M is participation, q = Q[..., H, :],
    then one incentive row q - q^a' per other action in order, and r (m,),
    the same for every program of a stack.  (weights, M) is linear in
    (P, Q), so a move (dP, dQ) of the beliefs gives their move."""
    act = inst.action(target)
    j = inst.actions.index(act)
    others = [i for i in range(len(inst.actions)) if i != j]
    q = Q[..., j:j + 1, :]
    return (P[..., j, :], np.concatenate([q, q - Q[..., others, :]], axis=-2),
            np.array([inst.reservation_utility + act.cost]
                     + [act.cost - inst.actions[i].cost for i in others]))


def risk_sharing(inst: ProblemInstance, target: str):
    """(v, lam, incentive slacks) of the risk-sharing contract for ``target``.

    This is the contract ``solve_dual`` starts from and its only candidate
    when no slack is below -tol, tol = ``_FEASIBILITY_TOL`` (the same
    ``solve_ir_only`` call and the same slacks, row by row); past that test
    some incentive multiplier stays positive, or v would be this contract.
    So wherever ``solve_second_best(inst, target)`` returns,
    ``coincides_with_first_best`` holds exactly when no slack here is below
    -tol, and then its utility levels, lam and ic_slacks are these.
    """
    return _risk_sharing(*_program(inst, target, *_beliefs(inst)), inst.utility)


def _risk_sharing(weights, M, r, model):
    """``risk_sharing`` of the program (weights, M, r)."""
    v, _, lam = solve_ir_only(weights, M[0], model, r[0])
    return v, lam, tuple(float(row @ v - rv) for row, rv in zip(M[1:], r[1:]))


def _dual_point(theta, weights, M, r, model):
    """(theta, w, v, low, high, grad = r - M v, dual value weights.w + theta.grad)
    at theta: v_s = u((u')^-1(weights_s / c_s)), c = M^T theta, clamped (low,
    high) to a finite end of ``model``'s range; None past an infinite end, or
    when an unclamped v_s rounds onto or past an end of the open range.

    The masks are the domain tests: (u')^-1 runs only on marginal utilities
    in (0, inf) and u only on wages strictly inside the wage domain, so both
    are the family's closed forms, and every unclamped v_s of a returned point
    lies strictly inside the utility range, where h'' needs no check either.
    The positivity test runs first: on a family unbounded below (log, cara,
    crra gamma > 1) a marginal utility outside (0, inf), as every c_s <= 0
    gives, clamps v_s to -inf, so the point is None before (u')^-1 or u runs.
    The caller holds ``np.errstate(divide="ignore", over="ignore",
    invalid="ignore")``: past double precision the masks refuse."""
    (w_lo, w_hi), (v_lo, v_hi) = model.wage_domain, model.utility_range
    marg = weights / (M.T @ theta)
    ok = (marg > 0.0) & (marg < np.inf)
    if ok.all():
        w = model._u_prime_inv(marg)
    elif v_lo == -np.inf:
        return None
    else:
        w = np.where(ok, model._u_prime_inv(np.where(ok, marg, 1.0)), w_lo)
    low, high = ~ok | (w <= w_lo), w >= w_hi
    clamped = low | high
    if not clamped.any():
        v = model._u(w)
    elif (low.any() and v_lo == -np.inf) or (high.any() and v_hi == np.inf):
        return None
    else:
        w[low], w[high] = w_lo, w_hi
        v = np.where(low, v_lo, v_hi)
        v[~clamped] = model._u(w[~clamped])
    if not (clamped | ((v > v_lo) & (v < v_hi))).all():
        return None
    grad = r - M @ v
    return theta, w, v, low, high, grad, float(weights @ w + theta @ grad)


def _kkt_tests(numbers, tol: float, kkt_tol: float):
    """(name, passed) of each check on ``_kkt_checks``' five numbers, in
    order; on a stack of numbers, ``passed`` is one flag per program."""
    stat, resid, min_slack, min_mu, comp = numbers
    return (("a binding-row residual", resid <= tol), ("incentive feasibility", min_slack >= -tol),
            ("stationarity", stat <= kkt_tol), ("multiplier sign", min_mu >= -kkt_tol),
            ("complementary slackness", comp <= kkt_tol))


def _kkt_checks(foc, binding, slacks, mu, tol: float, kkt_tol: float):
    """``KktReport``'s first five numbers and the first check failed (None if
    none): binding rows (participation, equalities) within tol, incentive
    slacks >= -tol, then stationarity, multipliers >= 0 and |mu slack| within
    kkt_tol.  Sequences of floats: few enough that numpy would only add cost."""
    numbers = (max(map(abs, foc)), max(map(abs, binding)), min(slacks, default=0.0),
               min(mu, default=0.0), max((abs(m * s) for m, s in zip(mu, slacks)), default=0.0))
    return numbers, next((name for name, ok in _kkt_tests(numbers, tol, kkt_tol) if not ok),
                         None)


def solve_dual(weights, M, r, n_eq: int, model):
    """Minimize sum_s weights_s h(v_s) s.t. M_i v >= r_i on the first
    m - n_eq rows (row 0 is participation), M_i v = r_i on the last n_eq and
    wages in ``model.wage_domain``, by projected Newton ascent on the concave
    dual (Bertsekas, *SIAM J. Control Optim.* 20, 1982) on the family's own
    domain (h is strictly convex, so the tightened optimum is the family's).

    At theta (>= 0 on the inequality rows) each state takes ``_dual_point``'s
    v_s, so only M v >= r is iterated, from the risk-sharing multiplier of
    ``solve_ir_only``.  A step solves (M_F D M_F^T + tau I) d = grad_F,
    grad = r - M v, D = 1 / (weights h''(v)) on unclamped states (each
    strictly inside the utility range, the start's by ``solve_ir_only``'s
    test and every other iterate's by ``_dual_point``'s, so h'' is unchecked),
    tau = 1e-10 min(1, |pg|) max diag, off the binding set (theta_i <= eps
    with grad_i <= 0, or 0 with d_i < 0; there d_i = -theta_i); the unclamped
    columns of M and the free rows of J and grad are gathered only when some
    state is clamped or some row binds (M is C-contiguous, so the ungathered
    products round as the gathered copies do).  It halves alpha in
    P(theta + alpha d) until the dual value rises by Armijo's rule (at its
    rounding level: until the projected gradient pg shrinks), each trial
    refused by ``_dual_point``'s positivity test before any closed form runs
    where the family is unbounded below.  It
    stops at |pg| <= 1e-12 max(1, |r|) with sum |theta pg| <= tol, tol =
    ``_FEASIBILITY_TOL``, trying full steps only below that |pg|.  The
    candidates are the risk-sharing contract when no incentive slack is below
    -tol, else the converged point, else (after 20 steps)
    ``minimize_on_affine``'s polish of v(theta) on the active rows and then
    the stalled iterate; the first that passes ``kkt_certificate``'s checks
    at (tol, 1e-8), on the expressions
    ``solve_second_best`` reports, is returned as (v, wages, theta, active rows,
    foc residuals, row residuals M_i v - r_i), the last two as lists of floats.

    Infeasible when d = theta or a Newton step, >= 0 on the inequality rows,
    has d.r > sum_s max(c_s lo, c_s hi), c = M^T d, above the d.r <= c.v of
    any feasible v (Farkas; Boyd & Vandenberghe, *Convex Optimization*,
    section 5.8), or at |theta| > 1e12 (divergence).  KKTDegeneracy for a
    candidate wage at an end of ``model.wage_domain`` (a boundary optimum,
    ``solve_first_best``'s test too), or when no candidate passes: the
    polish's own if it raised one, else one naming each candidate's failed
    check.
    """
    weights = np.asarray(weights, dtype=float)
    M = np.ascontiguousarray(M, dtype=float)    # products round as on M[:, free]'s copy
    r = np.asarray(r, dtype=float)
    m, S = M.shape
    n_ineq = m - n_eq
    sign = np.arange(m) < n_ineq
    family = replace(model, domain=None) if model.domain is not None else model
    v_lo, v_hi = family.utility_range

    def checked(v, w, theta):
        """(foc, row residuals, the first check the candidate fails or None);
        u' runs on wages its first test admitted."""
        _require_interior(w, model)
        resid = [float(row @ v - rv) for row, rv in zip(M, r)]
        foc = ((weights - (theta @ M) * np.asarray(model._u_prime(w), dtype=float))
               / weights).tolist()
        return foc, resid, _kkt_checks(foc, resid[:1] + resid[n_ineq:], resid[1:n_ineq],
                                       theta[1:n_ineq].tolist(), _FEASIBILITY_TOL, 1e-8)[1]

    v, w, lam = solve_ir_only(weights, M[0], model, r[0])
    theta = np.zeros(m)
    theta[0] = lam
    grad = r - M @ v
    no = np.zeros(S, bool)
    cur = (theta, w, v, no, no, grad, float(weights @ w + theta @ grad))
    # the risk-sharing contract is the candidate when nothing else fails by over tol
    converged = n_eq == 0 and all(row @ v - rv >= -_FEASIBILITY_TOL
                                  for row, rv in zip(M[1:], r[1:]))

    abs_MT = np.abs(M.T)
    floor = np.where(sign, 0.0, -np.inf)     # theta >= 0 on the inequality rows
    r_scale = max(1.0, float(np.abs(r).max()))

    def certifies(d) -> bool:
        """The Farkas test above; entries of c within rounding of 0 count as 0."""
        if (v_lo <= 0.0 <= v_hi and d @ r <= 0.0) or (d[sign] < 0.0).any():
            return False
        c = M.T @ d
        c[np.abs(c) <= 1e-12 * (abs_MT @ np.abs(d))] = 0.0
        if (v_hi == np.inf and (c > 0.0).any()) or (v_lo == -np.inf and (c < 0.0).any()):
            return False        # the bound is +inf
        with np.errstate(invalid="ignore"):     # 0 * inf is NaN, read as 0
            bound = float(np.nansum(np.fmax(c * v_lo, c * v_hi)))
        return float(d @ r) - bound > 1e-12 * (np.abs(d) @ np.abs(r) + abs(bound))

    def projected(cur):
        theta, grad = cur[0], cur[5]
        return np.where(sign & (theta <= 0.0) & (grad <= 0.0), 0.0, grad)

    for step in range(0 if converged else _MAX_DUAL + 1):
        theta, w, v, low, high, grad, value = cur
        pg = projected(cur)
        pg_norm = float(np.abs(pg).max())
        # large multipliers can leave theta_i * slack_i above tol: full steps go on
        small = pg_norm <= 1e-12 * r_scale
        converged = small and float(np.abs(theta) @ np.abs(pg)) <= _FEASIBILITY_TOL
        if converged or step == _MAX_DUAL:
            break
        if np.abs(theta).max() > 1e12:
            raise Infeasible("multiplier iteration diverged: constraint set is empty "
                             "or touches the utility-range boundary")
        if v_hi < np.inf and certifies(theta):     # else c > 0 makes its bound +inf
            raise Infeasible(_EMPTY)
        free = ~(low | high)
        if free.all():      # no state clamped: no gathers, the same products
            J = (M / (weights * family._h_second(v))) @ M.T
        else:
            Mf = M[:, free]
            J = (Mf / (weights[free] * family._h_second(v[free]))) @ Mf.T
        binding = sign & (theta <= min(1e-3, pg_norm)) & (grad <= 0.0)
        try:
            while True:     # a row at 0 that the step would push below joins the binding set
                rows = ~binding
                partial = binding.any()
                H = J[rows][:, rows] if partial else J.copy()
                H.flat[::len(H) + 1] += 1e-10 * min(1.0, pg_norm) * H.diagonal().max(initial=0.0)
                if partial:
                    d = np.where(binding, -theta, 0.0)      # a continuous path to 0
                    d[rows] = np.linalg.solve(H, grad[rows])
                else:
                    d = np.linalg.solve(H, grad)
                out = rows & sign & (theta <= 0.0) & (d < 0.0)
                if not out.any():
                    break
                binding |= out
        except np.linalg.LinAlgError:
            break
        if v_hi == np.inf and certifies(d):        # the ray theta may never show
            raise Infeasible(_EMPTY)
        alpha = 1.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for _ in range(1 if small else 60):
                trial = np.maximum(theta + alpha * d, floor)
                nxt = _dual_point(trial, weights, M, r, family)
                if nxt is not None:
                    # Armijo, or at the dual value's rounding level a smaller |pg|
                    gain = nxt[6] - value
                    if gain >= 1e-4 * float(grad @ (trial - theta)) or (
                            gain >= -1e-14 * (weights @ np.abs(w) + np.abs(theta) @ (
                                np.abs(r) + abs_MT.T @ np.abs(v)))
                            and np.abs(projected(nxt)).max() < pg_norm):
                        break
                alpha *= 0.5
            else:
                break
        cur = nxt

    theta, w, v = cur[:3]
    active = ~sign | (theta > 0.0)
    active[0] = True
    candidates, error = [("dual", v, w, theta)], None
    if not converged:
        try:
            sol = minimize_on_affine(weights, M[active], r[active], family, v)
            theta_p = np.zeros(m)
            theta_p[active] = sol.multipliers
            candidates.insert(0, ("polished", np.asarray(sol.v), np.asarray(sol.wages), theta_p))
        except (Unbounded, KKTDegeneracy) as exc:
            error = exc
    failures = []
    for name, *cand in candidates:
        foc, resid, failed = checked(*cand)
        if failed is None:
            return (*cand, active, foc, resid)
        failures.append(f"the {name} point fails {failed}")
    if isinstance(error, KKTDegeneracy):
        raise error
    raise KKTDegeneracy("no candidate passes the KKT checks: " + "; ".join(failures))


def _dual_points(theta, weights, M, r, model):
    """``_dual_point`` on a stack, theta (K, m), weights (K, S), M (K, m, S),
    r (K, m): (w, v, free, grad, dual value, ok), free the unclamped states
    and ok false on each row where ``_dual_point`` returns None.  Under the
    caller's ``np.errstate`` too; clamped entries are replaced by ``np.where``."""
    (w_lo, w_hi), (v_lo, v_hi) = model.wage_domain, model.utility_range
    marg = weights / (theta[:, None, :] @ M)[:, 0]
    ok = (marg > 0.0) & (marg < np.inf)
    if ok.all():
        w = model._u_prime_inv(marg)
        low = w <= w_lo
    else:
        w = np.where(ok, model._u_prime_inv(np.where(ok, marg, 1.0)), w_lo)
        low = ~ok | (w <= w_lo)
    high = w >= w_hi
    free = ~(low | high)
    if free.all():
        v = model._u(w)
        ok = ((v > v_lo) & (v < v_hi)).all(-1)
    else:
        w = np.where(low, w_lo, np.where(high, w_hi, w))
        v = np.where(low, v_lo, np.where(high, v_hi, model._u(w)))
        ok = ~((low.any(-1) & (v_lo == -np.inf)) | (high.any(-1) & (v_hi == np.inf)))
        ok &= (~free | ((v > v_lo) & (v < v_hi))).all(-1)
    grad = r - np.vecdot(M, v[:, None, :])
    return w, v, free, grad, np.vecdot(weights, w) + np.vecdot(theta, grad), ok


def _farkas(d, M, r, v_lo, v_hi):
    """``solve_dual``'s Farkas test on each row of a stack of d (K, m): true
    where d >= 0 certifies M v >= r empty on the utility range."""
    dr = np.vecdot(d, r)
    ok = ~(d < 0.0).any(-1) & ~((v_lo <= 0.0 <= v_hi) & (dr <= 0.0))
    if not ok.any():
        return ok
    c = (d[:, None, :] @ M)[:, 0]
    c = np.where(np.abs(c) <= 1e-12 * (np.abs(d)[:, None, :] @ np.abs(M))[:, 0], 0.0, c)
    if v_hi == np.inf:
        ok &= ~(c > 0.0).any(-1)
    if v_lo == -np.inf:
        ok &= ~(c < 0.0).any(-1)
    bound = np.nansum(np.fmax(c * v_lo, c * v_hi), -1)     # 0 * inf is NaN, read as 0
    return ok & (dr - bound > 1e-12 * (np.vecdot(np.abs(d), np.abs(r)) + np.abs(bound)))


def solve_dual_stack(weights, M, r, model):
    """``solve_dual`` on K programs of inequality rows at once: weights (K, S),
    M (K, m, S), r (K, m) or one (m,) for all, participation and m - 1 >= 1
    incentive rows.

    Each program runs ``solve_dual``'s projected Newton ascent with its own
    theta, binding set, tau, line search and stop rule, every reduction along
    its own axis; the risk sharing is ``kernel.sharing_stack``, bit for bit
    ``solve_ir_only``.  The stack keeps only the converging path: a program
    that trips the divergence or Farkas test, fails its line search, reaches
    20 steps or converges to a point that fails ``_require_interior`` or
    ``_kkt_checks`` is handed back, solved alone by ``solve_dual``, so the
    polish and every refusal message live there; a singular Newton system
    (rare) hands back every live program.  The acceptance is ``_kkt_tests``
    on ``_kkt_checks``' numbers, taken per program along its own axis.  One
    program costs more here than in ``solve_dual``, so a lone live program
    is handed back from the start; many share the numpy calls.

    Returns one entry per program: ``solve_dual``'s tuple, or the
    BeliefContractsError it raises.  A returned point is rounded as the
    stacked products round, so within 1e-12 of ``solve_dual``'s where both
    converge; where ``solve_dual`` stalls and returns its polish, the stack
    may converge to a point that passes the same checks instead.
    """
    weights, M, r = (np.asarray(x, dtype=float) for x in (weights, M, r))
    K, m, S = M.shape
    r = np.broadcast_to(r, (K, m))
    family = replace(model, domain=None) if model.domain is not None else model
    v_lo, v_hi = family.utility_range
    v, w, lam, ok = sharing_stack(weights, M[:, 0], model, r[:, 0])
    theta = np.zeros((K, m))
    theta[:, 0] = lam
    # the risk-sharing contract is the candidate when nothing else fails by over tol
    with np.errstate(invalid="ignore"):     # a refused row's utilities may be inf
        slack = np.vecdot(M[:, 1:], v[:, None, :]) - r[:, 1:]
    done = ok & (slack >= -_FEASIBILITY_TOL).all(-1)
    back, live = ~ok, ok & ~done
    if np.count_nonzero(live) == 1:     # alone, solve_dual is the faster path
        back, live = back | live, ~live
    final = [theta, w, v]       # each program's point as it leaves the live set
    free = np.ones((K, S), bool)
    small_pg = 1e-12 * np.maximum(1.0, np.abs(r).max(-1))
    MT, diagonal = M.transpose(0, 2, 1), np.arange(m)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        grad = r - np.vecdot(M, v[:, None, :])
        value = np.vecdot(weights, w) + np.vecdot(theta, grad)
        for step in range(_MAX_DUAL + 1 if np.count_nonzero(live) else 0):
            pg = np.where((theta <= 0.0) & (grad <= 0.0), 0.0, grad)
            abs_pg = np.abs(pg)
            pg_norm = abs_pg.max(-1)
            small = pg_norm <= small_pg
            converged = live & small & (np.vecdot(np.abs(theta), abs_pg) <= _FEASIBILITY_TOL)
            leave = np.abs(theta).max(-1) > 1e12 if step < _MAX_DUAL else live.copy()
            if v_hi < np.inf:       # else c > 0 makes its bound +inf
                leave |= _farkas(theta, M, r, v_lo, v_hi)
            leave &= live & ~converged
            if np.count_nonzero(converged):
                done |= converged
                final = [np.where(converged[:, None], x, y) for x, y in zip((theta, w, v), final)]
            back |= leave
            live &= ~(converged | leave)
            if not np.count_nonzero(live):
                break
            scaled = M / (weights * family._h_second(v))[:, None, :]
            if not free.all():
                scaled = np.where(free[:, None, :], scaled, 0.0)
            J = scaled @ MT
            J_diag = J[:, diagonal, diagonal]
            tau = 1e-10 * np.minimum(1.0, pg_norm)
            # off the live set every row binds: H = I there, never singular
            binding = ((theta <= np.minimum(1e-3, pg_norm)[:, None]) & (grad <= 0.0)
                       | ~live[:, None])
            try:
                while True:     # a row at 0 that the step would push below joins the binding set
                    rows = ~binding
                    H = np.where(rows[:, :, None] & rows[:, None, :], J, 0.0)
                    H[:, diagonal, diagonal] = np.where(
                        rows, J_diag + (tau * np.where(rows, J_diag, 0.0).max(-1))[:, None], 1.0)
                    d = np.linalg.solve(H, np.where(rows, grad, 0.0)[..., None])[..., 0]
                    d = np.where(binding, -theta, d)       # a continuous path to 0
                    out = rows & (theta <= 0.0) & (d < 0.0)
                    if not np.count_nonzero(out):
                        break
                    binding |= out
            except np.linalg.LinAlgError:       # a live program's system is singular
                back |= live
                break
            if v_hi == np.inf:      # the ray theta may never show
                leave = live & _farkas(d, M, r, v_lo, v_hi)
                back |= leave
                live &= ~leave
            searching, moved, alpha = live.copy(), np.zeros(K, bool), 1.0
            for t in range(60):     # each live program halves its own alpha until it moves
                trial = np.maximum(theta + alpha * d, 0.0)
                *point, ok = _dual_points(trial, weights, M, r, family)
                gain = point[4] - value
                accept = searching & ok & (gain >= 1e-4 * np.vecdot(grad, trial - theta))
                flat = searching & ok & ~accept
                if np.count_nonzero(flat):  # at the dual value's rounding level: a smaller |pg|
                    rounding = -1e-14 * (np.vecdot(weights, np.abs(w)) + np.vecdot(
                        np.abs(theta), np.abs(r) + np.vecdot(np.abs(M), np.abs(v)[:, None, :])))
                    shrinks = np.abs(np.where((trial <= 0.0) & (point[3] <= 0.0), 0.0,
                                              point[3])).max(-1) < pg_norm
                    accept |= flat & (gain >= rounding) & shrinks
                if (accept == live).all():
                    theta, (w, v, free, grad, value) = trial, point
                elif np.count_nonzero(accept):
                    theta, w, v, free, grad, value = (
                        np.where(accept.reshape(-1, *[1] * (x.ndim - 1)), x, y)
                        for x, y in zip((trial, *point), (theta, w, v, free, grad, value)))
                moved |= accept
                # below the stop's |pg| a program tries the full step only
                searching &= ~accept & ~small if t == 0 else ~accept
                if not np.count_nonzero(searching):
                    break
                alpha *= 0.5
            back |= live & ~moved       # the line search failed
            live &= moved
    out = [None] * K
    idx = np.flatnonzero(done)
    theta, w, v = (x[idx] for x in final)
    resid = np.vecdot(M[idx], v[:, None, :]) - r[idx]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):   # not interior: back
        c = (theta[:, None, :] @ M[idx])[:, 0]
        foc = (weights[idx] - c * model._u_prime(w)) / weights[idx]
        # _kkt_checks' numbers per program; a NaN fails its test, so its program is handed back
        numbers = (np.abs(foc).max(-1), np.abs(resid[:, 0]), resid[:, 1:].min(-1),
                   theta[:, 1:].min(-1), np.abs(theta[:, 1:] * resid[:, 1:]).max(-1))
    passed = _interior(w, model)
    for _, ok in _kkt_tests(numbers, _FEASIBILITY_TOL, 1e-8):
        passed &= ok
    back[idx[~passed]] = True
    active = theta > 0.0
    active[:, 0] = True
    for j in np.flatnonzero(passed):
        out[idx[j]] = (v[j], w[j], theta[j], active[j], foc[j].tolist(), resid[j].tolist())
    for k in np.flatnonzero(back):
        try:
            out[k] = solve_dual(weights[k], M[k], r[k], 0, model)
        except BeliefContractsError as exc:
            out[k] = exc
    return out


def _require_incentive_rows(inst: ProblemInstance) -> None:
    """A second best needs an action to deter: one incentive row or more."""
    if len(inst.actions) < 2:
        raise ValidationError("second-best needs at least 2 actions")


def _solution(target: str, delta, dual) -> SecondBestSolution:
    """The contract of ``solve_dual``'s answer, after its lam > 0 test."""
    v, w, theta, active, foc, resid = dual
    lam = float(theta[0])
    if lam <= 0.0:
        raise KKTDegeneracy(f"participation multiplier came out non-positive ({lam})")
    return SecondBestSolution(
        target=target,
        wages=tuple(w.tolist()),
        utility_levels=tuple(v.tolist()),
        lam=lam,
        mu=tuple(theta[1:].tolist()),
        ic_slacks=tuple(resid[1:]),
        ir_residual=resid[0],
        expected_cost_principal=float(delta @ w),
        coincides_with_first_best=not active[1:].any(),
        foc_residuals=tuple(foc),
    )


def solve_second_best(inst: ProblemInstance, target: str) -> SecondBestSolution:
    """Solve the hidden-action cost-minimization program for ``target``.

    An incentive constraint counts as satisfied at slack >= -1e-9
    (``_FEASIBILITY_TOL``), and participation holds within it.  Wages are
    bounded by the utility model's (possibly tightened) open wage domain.

    Args:
        inst: two or more actions, strictly positive beliefs.
        target: the action to implement.

    Raises:
        ValidationError: fewer than 2 actions, a belief below
            ``SOLVER_MIN_PROB`` or an unknown target.
        NoBracket: the risk-sharing start cannot be reached (see
            ``solve_ir_only``).
        Infeasible, KKTDegeneracy: see errors and ``solve_dual``.
    """
    inst.require_positive_beliefs()
    _require_incentive_rows(inst)
    weights, M, r = _program(inst, target, *_beliefs(inst))
    return _solution(target, weights, solve_dual(weights, M, r, 0, inst.utility))


@dataclass(frozen=True)
class KktReport:
    """KKT certificate of a second-best solution: the checks ``solve_dual``
    accepts a point by, at one tolerance (``passed`` ignores the gap)."""

    stationarity_max: float
    ir_abs: float
    min_ic_slack: float
    min_mu: float
    max_complementarity: float
    passed: bool
    duality_gap: float


def dual_value(inst: ProblemInstance, target: str, lam: float, mu) -> float:
    """The Lagrange dual g(lam, mu) = theta . r + sum_s min_v [delta_s h(v) - c_s v],
    c = M^T theta, v over the family's closed utility range: a lower bound on
    the optimal cost for theta >= 0 (Boyd & Vandenberghe, *Convex
    Optimization*, section 5.2), at ``solve_dual``'s ``_dual_point`` (a state
    clamped at a finite end takes that end's term); -inf where it has no point
    (past an infinite end, or a utility rounded onto an end).
    """
    weights, M, r = _program(inst, target, *_beliefs(inst))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cur = _dual_point(np.array([lam, *mu], dtype=float), weights, M, r,
                          replace(inst.utility, domain=None))
    return -np.inf if cur is None else cur[6]


def kkt_certificate(inst: ProblemInstance, target: str, sol: SecondBestSolution,
                    tol: float = 1e-8) -> KktReport:
    """Check stationarity in every state, feasibility, dual feasibility and
    complementary slackness of ``sol``'s reported residuals at tolerance
    ``tol``, and report the duality gap cost - g(lam, mu) (see ``dual_value``)."""
    numbers, failed = _kkt_checks(sol.foc_residuals, (sol.ir_residual,), sol.ic_slacks,
                                  sol.mu, tol, tol)
    gap = sol.expected_cost_principal - dual_value(inst, target, sol.lam, sol.mu)
    return KktReport(*numbers, failed is None, gap)


@dataclass(frozen=True)
class ActionEntry:
    action: str
    revenue: float
    expected_cost: float
    profit: float
    coincides_with_first_best: bool
    first_best_cost: float


@dataclass(frozen=True)
class ActionChoiceReport:
    """Which action the principal implements, and the first-best comparison."""

    chosen: str
    entries: tuple[ActionEntry, ...]
    first_best_choice: str
    matches_first_best_choice: bool
    fb_cost_high_exceeds_low: bool | None


def choose_action(inst: ProblemInstance) -> ActionChoiceReport:
    """Pick the profit-maximizing action given its optimal incentive scheme.

    Profit per action is expected revenue under the principal's beliefs for
    that action minus the cost of the contract implementing it.  Ties go to
    the action with the lower effort cost.
    """
    y = np.asarray(inst.outputs, dtype=float)
    entries = []
    for act in inst.actions:
        sol = solve_second_best(inst, act.name)
        fb = solve_first_best(inst, act.name)
        revenue = float(act.principal_beliefs.as_array() @ y)
        entries.append(ActionEntry(
            action=act.name,
            revenue=revenue,
            expected_cost=sol.expected_cost_principal,
            profit=revenue - sol.expected_cost_principal,
            coincides_with_first_best=sol.coincides_with_first_best,
            first_best_cost=fb.expected_cost_principal,
        ))

    def best(key_profit) -> str:
        top = max(key_profit(e) for e in entries)
        tied = [e for e in entries if key_profit(e) >= top - 1e-12]
        return min(tied, key=lambda e: inst.action(e.action).cost).action

    chosen = best(lambda e: e.profit)
    fb_choice = best(lambda e: e.revenue - e.first_best_cost)

    fb_flag = None
    if len(entries) == 2:
        hi, lo = sorted(entries, key=lambda e: inst.action(e.action).cost, reverse=True)
        fb_flag = hi.first_best_cost > lo.first_best_cost
    return ActionChoiceReport(
        chosen=chosen,
        entries=tuple(entries),
        first_best_choice=fb_choice,
        matches_first_best_choice=chosen == fb_choice,
        fb_cost_high_exceeds_low=fb_flag,
    )


@dataclass(frozen=True)
class SecondBestMonotonicityReport:
    """Wage ordering next to the MLRP premises that would predict it."""

    classification: Monotonicity
    agent_dominates_principal: bool
    principal_dominates_agent: bool
    asserted: Monotonicity | None
    satisfied: bool | None


def monotonicity_report(sol: SecondBestSolution, inst: ProblemInstance,
                        target: str) -> SecondBestMonotonicityReport:
    """Empirical wage ordering plus which likelihood-ratio premises hold.

    When the agent's beliefs for the target dominate the principal's, the
    optimal wage must be (weakly) increasing; the reverse ranking admits
    non-monotone schemes, so nothing is asserted there.
    """
    if len(inst.actions) != 2:
        raise ValidationError("monotonicity report is defined for two-action instances")
    act = inst.action(target)
    order = mlrp_compare(act.agent_beliefs, act.principal_beliefs)
    agent_dom = order in (MlrpOrder.F_DOMINATES_G, MlrpOrder.EQUAL)
    principal_dom = order in (MlrpOrder.G_DOMINATES_F, MlrpOrder.EQUAL)
    classification = classify_monotonicity(sol.wages)
    asserted = Monotonicity.INCREASING if agent_dom else None
    satisfied = None
    if asserted is not None:
        satisfied = classification in (Monotonicity.INCREASING, Monotonicity.FLAT)
    return SecondBestMonotonicityReport(
        classification=classification,
        agent_dominates_principal=agent_dom,
        principal_dominates_agent=principal_dom,
        asserted=asserted,
        satisfied=satisfied,
    )


def principal_payoff_monotonicity(sol: SecondBestSolution,
                                  inst: ProblemInstance) -> Monotonicity:
    """Ordering of the principal's state payoff y_s - w_s (need not be monotone)."""
    net = np.asarray(inst.outputs, dtype=float) - np.asarray(sol.wages, dtype=float)
    return classify_monotonicity(net)


@dataclass(frozen=True)
class FigureBundle:
    """Sampled geometry of the two-state contracting picture.

    Curves are (w_low_state, w_high_state) pairs; the corner is the contract
    at which both constraints bind (None if it falls outside the wage domain).
    """

    target: str
    indifference_target: tuple[tuple[float, float], ...]
    indifference_other: tuple[tuple[float, float], ...]
    isocost_through_contract: tuple[tuple[float, float], ...]
    isocost_through_corner: tuple[tuple[float, float], ...]
    corner: tuple[float, float] | None
    contract: tuple[float, float]
    coincides_with_first_best: bool
    expected_cost: float


def _indiff_window(model, q0: float, q1: float, level: float) -> tuple[float, float]:
    """Open interval of low-state wages on which the indifference locus exists."""
    lo_u, hi_u = model.utility_range
    # level = q0 u(t) + q1 arg  =>  arg in range  <=>  u(t) in (a, b)
    a = (level - q1 * hi_u) / q0 if np.isfinite(hi_u) else -np.inf
    b = (level - q1 * lo_u) / q0 if np.isfinite(lo_u) else np.inf
    u_lo = max(lo_u, a)
    u_hi = min(hi_u, b)
    if not u_lo < u_hi:
        raise Infeasible("indifference locus empty on this wage window")
    pad = 1e-9 * max(1.0, abs(u_lo) if np.isfinite(u_lo) else 1.0,
                     abs(u_hi) if np.isfinite(u_hi) else 1.0)
    w_lo = model.inverse(u_lo + pad) if np.isfinite(u_lo) else -np.inf
    w_hi = model.inverse(u_hi - pad) if np.isfinite(u_hi) else np.inf
    return float(w_lo), float(w_hi)


def figure_data(inst: ProblemInstance, grid: int) -> FigureBundle:
    """Emit the curves behind the two-state picture: both actions'
    indifference loci, the principal's iso-cost lines, the both-binding
    corner, and the solved contract point.

    Args:
        grid: number of samples per curve (>= 2; 2 gives endpoints only).
    """
    if inst.n_states != 2:
        raise DimensionError("figure data requires exactly 2 states")
    if len(inst.actions) != 2:
        raise DimensionError("figure data requires exactly 2 actions")
    if grid < 2:
        raise ValidationError("grid must be >= 2")
    model = inst.utility
    high = max(inst.actions, key=lambda a: a.cost)
    low = min(inst.actions, key=lambda a: a.cost)
    sol = solve_second_best(inst, high.name)
    levels = {a.name: inst.reservation_utility + a.cost for a in inst.actions}

    # both-binding corner in v-space
    A = np.vstack([high.agent_beliefs.as_array(), low.agent_beliefs.as_array()])
    b = np.array([levels[high.name], levels[low.name]])
    corner = None
    try:
        v_corner = np.linalg.solve(A, b)
        if all(model.contains_utility(x) for x in v_corner):
            wc = model.inverse(v_corner)
            corner = (float(wc[0]), float(wc[1]))
    except np.linalg.LinAlgError:
        corner = None

    anchors = [float(model.inverse(levels[a.name])) for a in inst.actions]
    anchors += [sol.wages[0], sol.wages[1]]
    if corner is not None:
        anchors += list(corner)
    lo_dom, hi_dom = model.wage_domain
    if np.isfinite(lo_dom) or lo_dom == 0.0:
        win = (max(lo_dom + 1e-9, 0.35 * min(anchors)), 2.2 * max(anchors))
    else:
        win = (min(anchors) - 1.5, max(anchors) + 1.5)

    def indiff(action) -> tuple[tuple[float, float], ...]:
        q = action.agent_beliefs.as_array()
        level = levels[action.name]
        t_lo, t_hi = _indiff_window(model, q[0], q[1], level)
        a = max(win[0], t_lo)
        bnd = min(win[1], t_hi)
        ts = np.linspace(a, bnd, grid)
        pts = []
        for t in ts:
            arg = (level - q[0] * float(model.evaluate(t))) / q[1]
            pts.append((float(t), float(model.inverse(arg))))
        return tuple(pts)

    def isocost(point: tuple[float, float]) -> tuple[tuple[float, float], ...]:
        d = high.principal_beliefs.as_array()
        cost = d[0] * point[0] + d[1] * point[1]
        ts = np.linspace(win[0], win[1], grid)
        return tuple((float(t), float((cost - d[0] * t) / d[1])) for t in ts)

    contract = (sol.wages[0], sol.wages[1])
    return FigureBundle(
        target=high.name,
        indifference_target=indiff(high),
        indifference_other=indiff(low),
        isocost_through_contract=isocost(contract),
        isocost_through_corner=isocost(corner) if corner is not None else (),
        corner=corner,
        contract=contract,
        coincides_with_first_best=sol.coincides_with_first_best,
        expected_cost=sol.expected_cost_principal,
    )
