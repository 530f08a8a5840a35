"""Shared numerical core for the cost-minimization solvers.

Everything here works in promised-utility space (v_s = u(w_s)), where the
participation and incentive constraints are linear and the objective
sum_s weight_s * h(v_s) is convex because h = u^-1 is convex.

Two entry points:

``solve_ir_only``
    Risk sharing against a single binding expected-utility constraint,
    solved by bracketing + bisecting the multiplier (the constraint residual
    is strictly increasing in it) with one Newton polish.

``minimize_on_affine``
    min sum_s weight_s h(v_s)  subject to  M v = r  for a full-row-rank M.
    A short damped Newton pass on the multiplier system produces a strictly
    interior start; the minimum is then located by equality-constrained
    Newton after eliminating m coordinates through the constraints, so every
    iterate satisfies M v = r exactly.

Neither takes a tolerance: the cut-offs are fixed.  Bisection stops at a
relative bracket width of 1e-12, the reduced Newton at a relative
stationarity of 1e-13, and a relative stationarity above 1e-9 next to the
utility-range boundary is refused as a boundary optimum.

Every utility evaluation goes through the checked public ``UtilityModel``
methods, and none is repeated at a point already evaluated: the multiplier
Newton pass takes the line search's accepted trial point, as evaluated
there, for its next iterate, and the polish in ``solve_ir_only`` evaluates
the residual and the wages at the bisected multiplier once (and is skipped
when the starting multiplier already zeroes the residual).

The multiplier line search tries alpha = 2^-k for k = 0, ..., 49 and admits
a step only where the computed coefficients M^T (theta + alpha step) are all
positive.  When the full step fails that test, the halvings that provably
fail it too are skipped instead of tried.  With c = M^T theta and
d = M^T step as computed, the computed entry s of the trial coefficients
exceeds c_s + alpha d_s by at most e (a_s + alpha b_s) + t_s, where
a = |M|^T |theta|, b = |M|^T |step|, e = 4 (m + 2) u for m rows and
u = 2^-53, and t_s = 4 (3 m + sum_i |M_is|) 2^-1074.  These are over twice
the (2m + 1) u that the three matrix-vector products and the sum
theta + alpha step can lose (Higham, *Accuracy and Stability of Numerical
Algorithms*, section 3.5) and 8 times what underflow can lose; the excess
covers the rounding of the thresholds that follow.  For each state with
d_s + e b_s < 0 the computed entry is non-positive at every
alpha >= (c_s + e a_s + t_s) / -(d_s + e b_s), so the search resumes at the
first halving below the smallest such threshold.  The exact test still
decides every halving that is tried, so the accepted step, every iterate
and every output are bit-identical to trying all halvings in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import frexp, ldexp

import numpy as np

from .errors import Infeasible, KKTDegeneracy, NoBracket, Unbounded
from .utility import UtilityModel

_MAX_BRACKET = 200
_MAX_BISECT = 200
_MAX_NEWTON = 80
_MAX_HALVINGS = 50
_UNIT_ROUNDOFF = 2.0 ** -53
_SMALLEST_SUBNORMAL = 2.0 ** -1074


@dataclass(frozen=True)
class AffineSolution:
    """Interior minimum of a linearly constrained expected-wage cost."""

    v: tuple[float, ...]
    wages: tuple[float, ...]
    multipliers: tuple[float, ...]
    cost: float
    stationarity: tuple[float, ...]   # weight_s h'(v_s) - (M^T theta)_s, per state
    iterations: int


def solve_ir_only(weights: np.ndarray, probs: np.ndarray, model: UtilityModel,
                  rhs: float):
    """Minimize sum weights_s w_s subject to sum probs_s u(w_s) = rhs.

    The first-order condition is weights_s = lam * probs_s * u'(w_s); the
    constraint residual R(lam) is strictly increasing, so lam is found by
    doubling/halving from the constant-wage multiplier until R changes sign,
    bisection, and a final Newton step.

    Returns:
        (v, wages, lam) with v_s = u(w_s).
    """
    weights = np.asarray(weights, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if not model.contains_utility(rhs):
        raise NoBracket(
            f"required expected utility {rhs} is outside the range "
            f"{model.utility_range} of the {model.family} family")

    ratio = weights / probs

    def wages_at(lam: float) -> np.ndarray:
        return model.inverse_marginal(ratio / lam)

    def residual(lam: float) -> float:
        return float(probs @ model.evaluate(wages_at(lam))) - rhs

    lam0 = float(model.inverse_derivative(rhs))   # 1/u' at the constant wage h(rhs)
    w0 = wages_at(lam0)
    v0 = model.evaluate(w0)
    r0 = float(probs @ v0) - rhs
    if r0 < 0.0:
        lo, hi = lam0, lam0
        for _ in range(_MAX_BRACKET):
            hi *= 2.0
            if residual(hi) >= 0.0:
                break
        else:
            raise NoBracket("participation residual never becomes non-negative")
    elif r0 > 0.0:
        lo, hi = lam0, lam0
        for _ in range(_MAX_BRACKET):
            lo *= 0.5
            if residual(lo) <= 0.0:
                break
        else:
            raise NoBracket("participation residual never becomes non-positive")
    else:
        # lam0 zeroes the residual: the polish would return it unchanged
        return np.asarray(v0, dtype=float), np.asarray(w0, dtype=float), lam0

    for _ in range(_MAX_BISECT):
        if hi - lo <= 1e-12 * max(1.0, abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)

    # one Newton polish: R'(lam) = -(1/lam) sum probs_s m_s^2 / u''(w_s) > 0
    w = wages_at(lam)
    m = model.marginal(w)
    rprime = -(probs @ (m * m / model.second_derivative(w))) / lam
    v = model.evaluate(w)
    if rprime > 0.0:
        r_lam = float(probs @ v) - rhs
        cand = lam - r_lam / rprime
        if cand > 0.0:
            w_cand = wages_at(cand)
            v_cand = model.evaluate(w_cand)
            if lo <= cand <= hi or abs(float(probs @ v_cand) - rhs) < abs(r_lam):
                lam, w, v = cand, w_cand, v_cand
    return np.asarray(v, dtype=float), np.asarray(w, dtype=float), float(lam)


def _independent_rows(M: np.ndarray, r: np.ndarray):
    """Drop linearly dependent rows; raise Infeasible if they are inconsistent."""
    m, S = M.shape
    keep: list[int] = []
    basis = np.zeros((0, S))
    for i in range(m):
        row = M[i]
        resid = row - basis.T @ (basis @ row) if keep else row.copy()
        if np.linalg.norm(resid) > 1e-12 * max(1.0, np.linalg.norm(row)):
            keep.append(i)
            basis = np.vstack([basis, resid / np.linalg.norm(resid)])
        else:
            # dependent row: its level must match the combination it repeats
            if keep:
                coeffs, *_ = np.linalg.lstsq(M[keep].T, row, rcond=None)
                implied = float(coeffs @ r[keep])
            else:
                implied = 0.0
            if abs(implied - r[i]) > 1e-9 * max(1.0, abs(r[i])):
                raise Infeasible("linearly dependent constraints with inconsistent levels")
    return M[keep], r[keep]


def _pivot_columns(M: np.ndarray) -> list[int]:
    """Greedy well-conditioned column choice for eliminating m coordinates."""
    m, S = M.shape
    E = M.astype(float).copy()
    cols: list[int] = []
    for _ in range(m):
        norms = np.linalg.norm(E, axis=0)
        for j in cols:
            norms[j] = -1.0
        j = int(np.argmax(norms))
        if norms[j] <= 1e-13:
            raise Infeasible("constraint rows are not linearly independent")
        cols.append(j)
        u = E[:, j] / np.linalg.norm(E[:, j])
        E = E - np.outer(u, u @ E)
    return cols


def _positive_coefficients(M: np.ndarray, theta: np.ndarray):
    """M^T theta when every entry is positive, else None.

    The only test that admits a step of the multiplier line search.
    """
    coef = M.T @ theta
    return coef if (coef > 0.0).all() else None


def _resume_halving(M: np.ndarray, theta: np.ndarray, step: np.ndarray) -> int:
    """First halving k >= 1 that the rounding bound does not prove to fail the
    positivity test at theta + 2^-k step (see the module docstring); every
    earlier halving fails it in floating point too."""
    m = M.shape[0]
    absMT = np.abs(M.T)
    e = 4.0 * (m + 2) * _UNIT_ROUNDOFF
    upper = (M.T @ theta + e * (absMT @ np.abs(theta))
             + 4.0 * (absMT.sum(axis=1) + 3 * m) * _SMALLEST_SUBNORMAL)
    slope = M.T @ step + e * (absMT @ np.abs(step))
    falling = slope < 0.0
    with np.errstate(over="ignore"):      # an infinite threshold proves nothing
        thresholds = upper[falling] / -slope[falling]
    alpha_star = np.fmin.reduce(thresholds, initial=np.inf)   # skips a NaN threshold
    if alpha_star <= 0.0:
        return _MAX_HALVINGS
    # 2^(E-1) <= alpha_star < 2^E, so 2^-k >= 2^E > alpha_star for every k < 1 - E
    return min(_MAX_HALVINGS, max(1, 1 - frexp(alpha_star)[1]))


def _dual_start(weights, M, r, model, lam0):
    """Damped Newton on the multiplier system; yields a strictly interior v.

    v(theta) solves weight_s h'(v_s) = (M^T theta)_s, which keeps every
    component inside the utility range by construction as long as the
    coefficients stay positive.
    """
    m = M.shape[0]
    theta = np.zeros(m)
    theta[0] = lam0
    best_v, best_res = None, np.inf
    res_tol = 1e-11 * max(1.0, float(np.abs(r).max()))
    v = None
    for _ in range(_MAX_NEWTON):
        if v is None:
            coef = M.T @ theta
            if np.any(coef <= 0.0):
                raise KKTDegeneracy("non-positive first-order coefficient during multiplier solve")
            w = model.inverse_marginal(weights / coef)
            v = np.asarray(model.evaluate(w), dtype=float)
            g = M @ v - r
        res = float(np.abs(g).max())
        if res < best_res:
            best_v, best_res = v, res
        if res < res_tol:
            break
        curv = 1.0 / (weights * model.inverse_second_derivative(v))
        J = M @ (curv[:, None] * M.T)
        try:
            step = np.linalg.solve(J, -g)
        except np.linalg.LinAlgError:
            break
        # an accepted trial point becomes the next iterate as evaluated here
        k, v = 0, None
        while k < _MAX_HALVINGS:
            alpha = ldexp(1.0, -k)
            coef2 = _positive_coefficients(M, theta + alpha * step)
            if coef2 is None:
                k = _resume_halving(M, theta, step) if k == 0 else k + 1
                continue
            w2 = model.inverse_marginal(weights / coef2)
            v2 = np.asarray(model.evaluate(w2), dtype=float)
            g2 = M @ v2 - r
            if np.abs(g2).max() < res or alpha < 1e-8:
                v, g = v2, g2
                break
            k += 1
        theta = theta + ldexp(1.0, -k) * step
        if np.abs(theta).max() > 1e12:
            raise Infeasible("multiplier iteration diverged: constraint set is empty "
                             "or touches the utility-range boundary")
    if best_v is None:
        raise Infeasible("could not locate an interior point of the constraint set")
    return best_v, theta


def minimize_on_affine(weights, M, r, model: UtilityModel):
    """Minimize sum weights_s h(v_s) over {v : M v = r} inside the utility range.

    Args:
        weights: strictly positive cost weights (the principal's beliefs).
        M: (m x S) constraint matrix; row 0 must be strictly positive (the
           participation row), so a starting multiplier exists.
        r: right-hand sides.

    Returns:
        AffineSolution with multipliers theta solving M^T theta = weights*h'(v)
        in the least-squares sense (exact at an interior optimum).
    """
    weights = np.asarray(weights, dtype=float)
    M = np.atleast_2d(np.asarray(M, dtype=float))
    r = np.asarray(r, dtype=float)
    M, r = _independent_rows(M, r)
    m, S = M.shape
    if m > S:
        raise Infeasible(f"{m} independent equality constraints in {S} states")
    if np.any(M[0] <= 0.0):
        raise ValueError("minimize_on_affine: row 0 must be strictly positive")

    lo, hi = model.utility_range
    # participation row gives a necessary range condition on a convex combination
    scale = float(M[0].sum())
    if not model.contains_utility(r[0] / scale):
        raise Infeasible(
            f"participation level {r[0] / scale} outside utility range {model.utility_range}")

    lam0 = float(model.inverse_derivative(r[0] / scale)) / scale
    v0, _ = _dual_start(weights, M, r, model, lam0)

    cols = _pivot_columns(M)
    free = [j for j in range(S) if j not in cols]
    B = M[:, cols]
    Binv = np.linalg.inv(B)
    k = len(free)

    # v(z): free coordinates z, pivot coordinates forced by the constraints
    N = np.zeros((S, k))
    vhat = np.zeros(S)
    vhat[cols] = Binv @ r
    if k:
        F = M[:, free]
        N[free, :] = np.eye(k)
        N[cols, :] = -Binv @ F

    def assemble(z: np.ndarray) -> np.ndarray:
        v = vhat.copy()
        if k:
            v += N @ z
        return v

    def in_range(v: np.ndarray) -> bool:
        return bool(np.all(v > lo) and np.all(v < hi))

    z = v0[free].copy() if k else np.zeros(0)
    v = assemble(z)
    if not in_range(v):
        # the interior dual point, pushed exactly onto the constraint set,
        # should remain interior; if not the optimum hugs the boundary
        raise KKTDegeneracy("constraint set only meets the utility range at its boundary")

    def relative_stationarity(vv):
        """Residual of weight_s h'(v_s) = (M^T theta)_s, scaled per state.

        The fit minimizes the per-state relative residual so tiny-target
        states (steep marginal utility) do not drown in the large ones.
        """
        with np.errstate(over="ignore"):     # an overflow is refused just below
            hp = np.asarray(model.inverse_derivative(vv), dtype=float)
        target = weights * hp
        if not ((target > 0.0) & (target < np.inf)).all():
            # lstsq would fail or loop forever on the non-finite scaled rows
            raise KKTDegeneracy(
                "stationarity scale weight_s h'(v_s) left (0, inf): the first-order "
                "conditions are conditioned beyond double precision")
        scaled = M.T / target[:, None]
        theta_fit, *_ = np.linalg.lstsq(scaled, np.ones(S), rcond=None)
        resid = target - M.T @ theta_fit
        return theta_fit, resid, float(np.max(np.abs(resid) / target))

    iterations = 0
    theta, resid, rel = relative_stationarity(v)
    if k:
        for iterations in range(1, _MAX_NEWTON + 1):
            if rel <= 1e-13:
                break
            hpp = np.asarray(model.inverse_second_derivative(v), dtype=float)
            H = N.T @ ((weights * hpp)[:, None] * N)
            grad = N.T @ resid            # equals N^T (weights h') up to roundoff
            try:
                dz = np.linalg.solve(H, -grad)
            except np.linalg.LinAlgError:
                raise KKTDegeneracy("singular reduced Hessian")
            # largest step keeping v strictly inside the utility range
            dv = N @ dz
            alpha = 1.0
            pos = dv > 0
            neg = dv < 0
            if np.isfinite(hi) and np.any(pos):
                alpha = min(alpha, 0.95 * float(np.min((hi - v[pos]) / dv[pos])))
            if np.isfinite(lo) and np.any(neg):
                alpha = min(alpha, 0.95 * float(np.min((lo - v[neg]) / dv[neg])))
            if alpha <= 0.0:
                break
            improved = False
            for _ in range(60):
                v_new = assemble(z + alpha * dz)
                if in_range(v_new):
                    theta_new, resid_new, rel_new = relative_stationarity(v_new)
                    if rel_new < rel:
                        z = z + alpha * dz
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

    if rel > 1e-9:
        # stationarity failed: either the optimum sits on the utility-range
        # boundary (no interior solution, e.g. h' -> 0 there) or the problem
        # is conditioned beyond double precision
        near_lo = np.isfinite(lo) and bool(np.any(v - lo <= 1e-9 * (1.0 + np.abs(v))))
        near_hi = np.isfinite(hi) and bool(np.any(hi - v <= 1e-9 * (1.0 + np.abs(v))))
        if near_lo or near_hi:
            raise KKTDegeneracy(
                "optimum at the utility-range boundary: interior first-order "
                "conditions fail (no interior solution exists)")

    stationarity = resid
    wages = np.asarray(model.inverse(v), dtype=float)
    cost = float(weights @ wages)
    return AffineSolution(
        v=tuple(float(x) for x in v),
        wages=tuple(float(x) for x in wages),
        multipliers=tuple(float(x) for x in theta),
        cost=cost,
        stationarity=tuple(float(x) for x in stationarity),
        iterations=iterations,
    )
