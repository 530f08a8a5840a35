"""Shared numerical core for the cost-minimization solvers.

Everything here works in promised-utility space (v_s = u(w_s)), where the
participation and incentive constraints are linear and the objective
sum_s weight_s * h(v_s) is convex because h = u^-1 is convex.

Four entry points: risk sharing (one row or a stack), the one scalar
root-finder, one sensitivity and the null-space polish.

``solve_ir_only``
    Risk sharing against a single binding expected-utility constraint: its
    multiplier is the family's closed form, with no search; every
    first-best and second-best solve starts here.  ``sharing_stack`` is the
    same computation on a stack of rows, bit for bit each row's
    ``solve_ir_only``: the closed forms are elementwise or reduce along the
    last axis only, by ``np.vecdot`` and ``.sum(-1)``.

``rtsafe``
    Newton's method safeguarded by bisection on a sign bracket, for every
    scalar root of the package, each on an exact slope.

``sensitivity``
    The derivative of a KKT point in the program's data, the slope of the
    roots in ``outer_minimize`` and ``detect_regime_change``.

``minimize_on_affine``
    min sum_s weight_s h(v_s)  subject to  M v = r from a given start, the
    polish of ``second_best.solve_dual``: Newton's method in the null space
    of M (Nocedal & Wright, *Numerical Optimization*, section 16.2).  One
    complete QR factorization M^T = [Y N] [R1; 0] gives an orthonormal basis
    N of that null space and the particular point v^ = Y R1^-T r, so every
    iterate v^ + N z satisfies M v = r up to rounding.

None takes a tolerance: the cut-offs are fixed.  The reduced Newton stops
at a relative stationarity of 1e-13 or when a step no longer lowers it; its
line search stops halving at the fixed point z + alpha dz == z, where the
trial and every shorter one is the current iterate and cannot lower it,
and it fits each point it meets once.
The polish does not judge its point: ``solve_dual`` accepts or refuses it
by ``kkt_certificate``'s checks.

``sharing_stack`` and ``minimize_on_affine`` call the family's closed forms
directly and keep only values their own interval tests admit: the marginal
utilities, wages and utilities of risk sharing (by its masks), and the
polish's iterates that passed ``in_range``.  Risk sharing works on the
family's own wage
domain, so a tightened ``domain`` bounds the answer, not the computation;
``_require_interior`` is that test of the answer, for both solvers.
``sensitivity`` keeps the checked public ``UtilityModel`` methods.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import KKTDegeneracy, NoBracket, Unbounded
from .utility import UtilityModel

_MAX_ROOT = 200
_MAX_NEWTON = 80


@dataclass(frozen=True)
class AffineSolution:
    """Interior minimum of a linearly constrained expected-wage cost."""

    v: tuple[float, ...]
    wages: tuple[float, ...]
    multipliers: tuple[float, ...]
    iterations: int


def solve_ir_only(weights: np.ndarray, probs: np.ndarray, model: UtilityModel,
                  rhs: float):
    """Minimize sum weights_s w_s subject to sum probs_s u(w_s) = rhs.

    The first-order condition is weights_s = lam * probs_s * u'(w_s), so
    w_s = (u')^-1(m_s) with m_s = weights_s / (probs_s lam), and the
    constraint is a power, a log or a reciprocal in lam: the family's closed
    form gives lam, and the closed forms (u')^-1 and u give the wages and
    utilities, on the family's own domain (``domain`` dropped), so each
    caller checks the answer against ``model`` itself.  ``sharing_stack``
    is the computation, on one row.

    Raises:
        NoBracket: rhs outside ``model``'s utility range, or not reachable in
            double precision (lam, a marginal utility m_s or a wage overflows
            or underflows out of the family's domain, or a utility rounds
            onto or past an end of the family's range).

    Returns:
        (v, wages, lam) with v_s = u(w_s) strictly inside the family's
        utility range.
    """
    if not model.contains_utility(rhs):
        raise NoBracket(
            f"required expected utility {rhs} is outside the range "
            f"{model.utility_range} of the {model.family} family")
    v, w, lam, ok = sharing_stack(weights, probs, model, rhs)
    if not ok:
        raise NoBracket(f"required expected utility {rhs} is not reachable in double "
                        f"precision by the {model.family} family")
    return v, w, float(lam)


def sharing_stack(weights, probs, model: UtilityModel, rhs):
    """``solve_ir_only`` on the rows of a stack: weights and probs (..., S),
    rhs a scalar or one level per row.  Returns (v, wages, lam, ok), ok
    false on each row ``solve_ir_only`` refuses: its level outside
    ``model``'s utility range, or a marginal utility, wage or utility
    outside the family's open interval (which holds 0 < lam < inf too).
    Every closed form is elementwise or reduces along the last axis only
    (``_sharing_multiplier``), so each row has the bits of the 1-D call.
    """
    weights = np.asarray(weights, dtype=float)
    probs = np.asarray(probs, dtype=float)
    v_lo, v_hi = model.utility_range
    reachable = (v_lo < rhs) & (rhs < v_hi)
    if model.domain is not None:
        model = replace(model, domain=None)
    ratio = weights / probs
    with np.errstate(all="ignore"):       # past double precision: refused by the masks
        lam = model._sharing_multiplier(ratio, probs, rhs)
        m = ratio / lam[..., None]
        w = np.asarray(model._u_prime_inv(m), dtype=float)
        v = np.asarray(model._u(w), dtype=float)
    (lo, hi), (v_lo, v_hi) = model.wage_domain, model.utility_range
    ok = reachable & ((m > 0.0) & (m < np.inf) & (w > lo) & (w < hi)
                      & (v > v_lo) & (v < v_hi)).all(-1)
    return v, w, lam, ok


def _interior(w, model: UtilityModel):
    """Per row of ``w`` (..., S): every wage strictly inside ``model``'s
    (possibly tightened) wage domain."""
    lo, hi = model.wage_domain
    return ((w > lo) & (w < hi)).all(-1)


def _require_interior(w, model: UtilityModel) -> None:
    """Refuse an answer that pays a wage at or past an end of ``model``'s
    (possibly tightened) wage domain: the cost is strictly convex, so the
    optimum on that domain then lies at its end, where the interior
    first-order conditions fail."""
    if not _interior(w, model):
        raise KKTDegeneracy("optimum at the utility-range boundary: interior first-order "
                            "conditions fail (no interior solution exists)")


def rtsafe(f, slope, lo, hi, step_tol, width):
    """Newton's method safeguarded by bisection on a sign bracket (Numerical
    Recipes' ``rtsafe``, Press et al., section 9.4).

    Points are tuples (x, value, side, ...) as ``f(x)`` returns them, with
    lo[0] < hi[0]; ``side`` is true on lo's side of the root and decides which
    end an iterate replaces.  ``slope(point)`` is d value / dx at the current
    iterate, asked once per step and never at any other point; it is usable
    when it is finite, non-zero and has the sign of hi's value minus lo's.
    From the end with the smaller |value| each step goes to the Newton point
    when that lies strictly inside the bracket and to the midpoint otherwise.
    Stops when the Newton correction at x is at most step_tol(x), when the
    bracket is at most width(lo[0], hi[0]) wide or after 200 iterates, and
    returns the evaluated point with the smallest |value|.
    """
    sign = 1.0 if hi[1] > lo[1] else -1.0
    best = cur = lo if abs(lo[1]) <= abs(hi[1]) else hi
    for _ in range(_MAX_ROOT):
        d = slope(cur)
        if 0.0 < sign * d < np.inf:
            step = cur[1] / d
            if abs(step) <= step_tol(cur[0]):
                break
        else:
            step = np.nan                 # no usable slope: bisect
        if hi[0] - lo[0] <= width(lo[0], hi[0]):
            break
        cand = cur[0] - step
        if not lo[0] < cand < hi[0]:
            cand = 0.5 * (lo[0] + hi[0])
        cur = f(cand)
        if abs(cur[1]) < abs(best[1]):
            best = cur
        if cur[2]:
            lo = cur
        else:
            hi = cur
    return best


def sensitivity(weights, M, theta, v, model: UtilityModel, d_weights=0.0, d_M=0.0,
                d_r=0.0):
    """Derivative (dv, dtheta) of a KKT point (v, theta) of min sum_s
    weights_s h(v_s) s.t. M v = r (the active rows) along a move (d_weights,
    d_M, d_r) of its data, each broadcast against its data, so 0 holds it.

    Differentiating weights_s h'(v_s) = (M^T theta)_s and M v = r gives, with
    C = 1 / (weights h''(v)) and J = M diag(C) M^T (Fiacco, *Introduction to
    Sensitivity and Stability Analysis in Nonlinear Programming*, 1983),
    J dtheta = d_r - d_M v - M C g and dv = C (g + M^T dtheta), where
    g = d_M^T theta - d_weights h'(v).  NaN where J cannot be formed or solved.
    """
    weights, M, theta, v = (np.asarray(x, dtype=float) for x in (weights, M, theta, v))
    d_M = np.broadcast_to(np.asarray(d_M, dtype=float), M.shape)
    unusable = np.full(v.shape, np.nan), np.full(theta.shape, np.nan)
    with np.errstate(divide="ignore", over="ignore"):
        curv = 1.0 / (weights * np.asarray(model.inverse_second_derivative(v), dtype=float))
    if not np.isfinite(curv).all():
        return unusable
    g = d_M.T @ theta
    if np.any(d_weights):
        g = g - d_weights * np.asarray(model.inverse_derivative(v), dtype=float)
    try:
        dtheta = np.linalg.solve(M @ (curv[:, None] * M.T), d_r - d_M @ v - M @ (curv * g))
    except np.linalg.LinAlgError:
        return unusable
    return curv * (g + M.T @ dtheta), dtheta


def _independent_rows(M: np.ndarray):
    """Indices of a maximal set of linearly independent rows, in order."""
    keep: list[int] = []
    basis = np.zeros((0, M.shape[1]))
    for i, row in enumerate(M):
        resid = row - basis.T @ (basis @ row)
        if np.linalg.norm(resid) > 1e-12 * max(1.0, np.linalg.norm(row)):
            keep.append(i)
            basis = np.vstack([basis, resid / np.linalg.norm(resid)])
    return keep


def minimize_on_affine(weights, M, r, model: UtilityModel, start):
    """Minimize sum weights_s h(v_s) over {v : M v = r} inside the utility range.

    Args:
        weights: strictly positive cost weights (the principal's beliefs).
        M: (m x S) constraint matrix.
        r: right-hand sides.
        start: a point inside the utility range; its projection onto
            {M v = r} is the first iterate.

    Each Newton step halves alpha until the trial z + alpha dz lies in the
    range and lowers the relative stationarity, and gives up (ending the
    iteration) once alpha falls below 1e-12 or z + alpha dz == z elementwise:
    that trial, and every shorter one, is the current iterate, which cannot
    lower its own stationarity.  A trial whose v rounds onto a point fitted
    before (a tiny step of a nearby iterate) reuses that fit, so no
    least-squares fit runs twice on one matrix.

    Returns:
        AffineSolution at the iterate of smallest relative stationarity, with
        multipliers theta solving M^T theta = weights*h'(v) in the least-squares
        sense (exact at an interior optimum), one per row of M: a dependent row
        gets 0, its level unchecked.  The caller judges the point;
        KKTDegeneracy only for a start projected out of range, a stationarity
        scale outside (0, inf) or a singular Hessian.
    """
    weights, M_all, r = (np.asarray(x, dtype=float) for x in (weights, M, r))
    keep = _independent_rows(M_all)
    M, r = M_all[keep], r[keep]
    m, S = M.shape
    lo, hi = model.utility_range

    # null-space method: M^T = [Y N] [R1; 0] and {v : M v = r} = {vhat + N z}
    Q, R = np.linalg.qr(M.T, mode="complete")
    N = Q[:, m:]
    vhat = Q[:, :m] @ np.linalg.solve(R[:m].T, r)

    def in_range(v: np.ndarray) -> bool:
        return bool(np.all(v > lo) and np.all(v < hi))

    z = N.T @ (np.asarray(start, dtype=float) - vhat)
    v = vhat + N @ z
    if not in_range(v):
        # the interior dual point, projected onto the constraint set, should
        # remain interior; if not the optimum hugs the boundary
        raise KKTDegeneracy("constraint set only meets the utility range at its boundary")

    fitted = {}     # v's bytes -> its fit, for a trial that rounds onto a point fitted before

    def relative_stationarity(vv):
        """Residual of weight_s h'(v_s) = (M^T theta)_s, scaled per state.

        The fit minimizes the per-state relative residual so tiny-target
        states (steep marginal utility) do not drown in the large ones.
        """
        key = vv.tobytes()
        if key in fitted:
            return fitted[key]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):   # refused below
            target = weights * np.asarray(model._h_prime(vv), dtype=float)
            scaled = M.T / target[:, None]
        if not (((target > 0.0) & (target < np.inf)).all() and np.isfinite(scaled).all()):
            # lstsq would fail, or never return, on non-finite scaled rows
            raise KKTDegeneracy(
                "stationarity scale weight_s h'(v_s) left (0, inf), or the rows M^T / "
                "(weight_s h'(v_s)) overflowed: the first-order conditions are "
                "conditioned beyond double precision")
        theta_fit, *_ = np.linalg.lstsq(scaled, np.ones(S), rcond=None)
        resid = target - M.T @ theta_fit
        fitted[key] = theta_fit, resid, float(np.max(np.abs(resid) / target))
        return fitted[key]

    theta, resid, rel = relative_stationarity(v)
    for iterations in range(1, _MAX_NEWTON + 1):
        if rel <= 1e-13:
            break
        hpp = np.asarray(model._h_second(v), dtype=float)
        H = N.T @ ((weights * hpp)[:, None] * N)
        grad = N.T @ resid            # equals N^T (weights h') up to roundoff
        try:
            dz = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:
            raise KKTDegeneracy("singular reduced Hessian")
        alpha = 1.0         # halved until the trial is inside the range and better
        improved = False
        for _ in range(60):
            z_new = z + alpha * dz
            if (z_new == z).all():      # the current point, and so is every shorter trial
                break
            v_new = vhat + N @ z_new
            if in_range(v_new):
                theta_new, resid_new, rel_new = relative_stationarity(v_new)
                if rel_new < rel:
                    z = z_new
                    v, theta, resid, rel = v_new, theta_new, resid_new, rel_new
                    improved = True
                    break
            alpha *= 0.5
            if alpha < 1e-12:
                break
        if not improved:
            break
        if np.max(np.abs(v)) > 1e14:
            raise Unbounded("iterates diverge along the feasible subspace")

    wages = np.asarray(model._h(v), dtype=float)
    multipliers = np.zeros(len(M_all))
    multipliers[keep] = theta
    return AffineSolution(
        v=tuple(float(x) for x in v),
        wages=tuple(float(x) for x in wages),
        multipliers=tuple(float(x) for x in multipliers),
        iterations=iterations,
    )
