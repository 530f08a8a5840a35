"""Brute-force grid minimizer over promised-utility space.

Independent ground truth for the Newton-based solvers on small instances:
it enumerates a regular grid in v-space, where the constraints are linear,
keeps the points inside the participation band (the true optimum always has
that constraint binding) and, in second-best mode, the incentive-feasible
ones, and returns the cheapest survivor.  No cleverness in what is decided:
every point is admitted by the plain band and incentive tests and priced by
the plain cost sum, so its errors stay uncorrelated with the solvers'.

The enumeration splits a point into a head (the first S - 2 states) and a
tail (the last two).  Only the points that can pass the participation band
are handed to those tests.  The tail sums t = q_{S-2} v_j + q_{S-1} v_k are
sorted once, and each head's window of candidates is found by binary search
around level - a, where a is the head's share of expected utility (one dot
product per head).  A point passes the band when the computed
|(a + t) - level| <= tol.  For finite a and t, the two roundings there, of
relative size at most u = 2^-53, then give
|t - (level - a)| <= tol + 2u (tol + |a| + |t|) to first order in u.  The
three roundings of each window end add at most 3u (|level| + |a| + tol) more.
The window is widened by 8u (|level| + |a| + tol + max|t|) + 4 * 2^-1074,
which exceeds both together; the subnormal term covers underflow in that
product, the only operation here that can lose an absolute amount.  So every
point outside the window fails the band in floating point too, and inside it
the plain tests decide.

The search then visits the heads cheapest first and stops early.  A point's
cost is fl(c + t), with c the head's cost and t its tail cost, so each head
has the lower bound b = fl(c + min t), the least t over its window.
Rounding is monotone: min t <= t gives fl(c + min t) <= fl(c + t) for every
t in the window (a NaN t gives a NaN cost, which is dropped).  The heads
whose bound is below +inf are visited in ascending order of bound, a block
of whole heads at a time, and the search stops at the first head whose
bound exceeds the best cost found; neither that head nor any after it holds
a point that beats or ties that cost.  A head whose bound is +inf or NaN
holds no point cheaper than +inf.  Ties in cost go to the point first in C
order, across blocks too, as a plain scan with a strict comparison would
choose.  The returned point and its cost are the ones the full enumeration
returns, bit for bit.  A point whose cost is NaN (a zero principal
probability times a wage that overflowed to inf) is dropped, as an infinite
wage is no contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .beliefs import ProblemInstance, SolverKind
from .errors import GridTooCoarse, NoFeasiblePoint, ValidationError

#: Candidate points tested together.  The working arrays of a block take a
#: few dozen bytes per candidate, and the block size sets the process's peak
#: RSS: blocks of 32,768 raised a benchmark run's from 42.7 MiB to 45.1 MiB,
#: past the benchmark's 5% bound.
_BLOCK = 4096


@dataclass(frozen=True)
class GridSpec:
    """Regular promised-utility grid shared by every state dimension.

    The bounds must be finite numbers with v_lo < v_hi and points_per_dim an
    integer >= 3; anything else raises ValidationError on construction.
    constraint_tol defaults to twice the per-step utility change, so the
    binding participation hyperplane always crosses the discrete band.
    """

    v_lo: float
    v_hi: float
    points_per_dim: int
    constraint_tol: float | None = None

    def __post_init__(self):
        if not all(isinstance(x, Real) and math.isfinite(x) for x in (self.v_lo, self.v_hi)):
            raise ValidationError(
                f"grid bounds must be finite numbers, got [{self.v_lo}, {self.v_hi}]")
        if not isinstance(self.points_per_dim, Integral):
            raise ValidationError(
                f"grid requires an integer points_per_dim, got {self.points_per_dim!r}")
        if not self.v_lo < self.v_hi:
            raise ValidationError("grid requires v_lo < v_hi")
        if self.points_per_dim < 3:
            raise ValidationError("grid requires points_per_dim >= 3")

    @property
    def step(self) -> float:
        return (self.v_hi - self.v_lo) / (self.points_per_dim - 1)

    @property
    def tol(self) -> float:
        return self.constraint_tol if self.constraint_tol is not None else 2.0 * self.step

    def values(self) -> np.ndarray:
        return np.linspace(self.v_lo, self.v_hi, self.points_per_dim)


@dataclass(frozen=True)
class OracleResult:
    cost: float
    v: tuple[float, ...]
    wages: tuple[float, ...]


def _validate(inst: ProblemInstance, target: str, grid: GridSpec):
    if inst.n_states > 4:
        raise ValidationError("oracle supports at most 4 states")
    model = inst.utility
    vals = grid.values()
    if not (model.contains_utility(float(vals[0])) and model.contains_utility(float(vals[-1]))):
        raise ValidationError(
            f"grid [{grid.v_lo}, {grid.v_hi}] leaves the utility range "
            f"{model.utility_range}")
    return inst.action(target), vals


def _band_window(sorted_tail: np.ndarray, head: np.ndarray, level: float, tol: float):
    """Per head sum a, the range [first, stop) of the sorted tail sums t that
    can pass the band test |(a + t) - level| <= tol; every t outside it fails
    the test in floating point too (module docstring)."""
    reach = max(-sorted_tail[0], sorted_tail[-1])
    slack = (4.0 * np.finfo(float).eps * (abs(level) + np.abs(head) + abs(tol) + reach)
             + 4.0 * np.finfo(float).smallest_subnormal)
    first = np.searchsorted(sorted_tail, level - head - tol - slack, "left")
    stop = np.searchsorted(sorted_tail, level - head + tol + slack, "right")
    return first, np.maximum(stop, first)


def brute_force_min(inst: ProblemInstance, target: str, grid: GridSpec,
                    mode: SolverKind = SolverKind.SECOND_BEST) -> OracleResult:
    """Enumerate the grid and return the cheapest constraint-satisfying point.

    Participation is kept as a band |residual| <= constraint_tol; incentive
    constraints (second-best mode) one-sidedly at slack >= -constraint_tol.
    Guaranteed within one grid cell's cost variation of the optimum for the
    convex programs solved here.
    """
    if not isinstance(mode, SolverKind):
        raise ValidationError(f"unknown oracle mode {mode!r}")
    act, vals = _validate(inst, target, grid)
    model = inst.utility
    S = inst.n_states
    q = act.agent_beliefs.as_array()
    delta = act.principal_beliefs.as_array()
    level = inst.reservation_utility + act.cost
    ctol = grid.tol
    with np.errstate(over="ignore"):      # an overflowed wage is inf
        h_vals = np.asarray(model.inverse(vals), dtype=float)
    n = len(vals)

    ics = []
    if mode is SolverKind.SECOND_BEST:
        for other in inst.other_actions(target):
            ics.append((q - other.agent_beliefs.as_array(), act.cost - other.cost))

    # one dot product per head: vecdot calls the 1-D dot a plain loop over
    # heads would, where a matrix product rounds the head sums differently
    heads = np.indices((n,) * (S - 2)).reshape(S - 2, n ** (S - 2)).T

    def per_head(weights, x):
        return np.vecdot(x[heads], weights[:S - 2])

    # the tail arrays in the order of the sorted tail sums
    tail = np.add.outer(q[S - 2] * vals, q[S - 1] * vals).ravel()     # IR part
    order = np.argsort(tail, kind="stable")
    tail = tail[order]
    tail_ic = [np.add.outer(row[S - 2] * vals, row[S - 1] * vals).ravel()[order]
               for row, _ in ics]
    ir_head = per_head(q, vals)
    ic_head = [per_head(row, vals) for row, _ in ics]
    with np.errstate(invalid="ignore"):   # 0 * inf is NaN, passed over below
        tail_cost = np.add.outer(delta[S - 2] * h_vals, delta[S - 1] * h_vals).ravel()[order]
        cost_head = per_head(delta, h_vals)
    first, stop = _band_window(tail, ir_head, level, ctol)

    # each head's bound: its cost plus the least tail cost in its window, the
    # even entries of one reduceat over the pairs (first, stop); the appended
    # NaN lets a window end at the last tail, and fmin passes over it
    seg = np.fmin.reduceat(np.append(tail_cost, np.nan), np.stack([first, stop], 1).ravel())
    bound = cost_head + seg[::2]
    visit = np.flatnonzero((stop > first) & (bound < np.inf))
    visit = visit[np.argsort(bound[visit], kind="stable")]
    bound = bound[visit]

    # candidate r of the run of windows in visiting order lies at sorted
    # position r + shift[its head]
    counts = (stop - first)[visit]
    ends = np.cumsum(counts)
    shift = first[visit] - (ends - counts)

    best_cost = np.inf
    best = None
    h0 = 0
    # a head whose bound exceeds the best cost can neither beat nor tie it
    while h0 < len(visit) and bound[h0] <= best_cost:
        lo = int(ends[h0] - counts[h0])
        h1 = min(max(int(np.searchsorted(ends, lo + _BLOCK, "right")), h0 + 1),
                 int(np.searchsorted(bound, best_cost, "right")))
        slot = np.repeat(np.arange(h0, h1), counts[h0:h1])
        hid = visit[slot]
        pos = np.arange(lo, lo + slot.size) + shift[slot]
        h0 = h1
        keep = np.abs(ir_head[hid] + tail[pos] - level) <= ctol
        for k, (_, rhs) in enumerate(ics):
            keep &= (ic_head[k][hid] + tail_ic[k][pos] - rhs) >= -ctol
        hid, pos = hid[keep], pos[keep]
        costs = cost_head[hid] + tail_cost[pos]
        # fmin passes over a NaN cost, 0 times an overflowed wage: an
        # infinite wage is no contract, and NaN never equals the minimum
        low = np.fmin.reduce(costs, initial=np.inf)
        if low < best_cost or low == best_cost < np.inf:
            tied = np.flatnonzero(costs == low)
            flat = hid[tied] * n * n + order[pos[tied]]
            i = int(np.argmin(flat))
            if low < best_cost or flat[i] < best:
                best_cost, best = float(costs[tied[i]]), int(flat[i])

    if best is None:
        raise NoFeasiblePoint("no grid point satisfies the constraints at this tolerance")
    v = tuple(float(vals[i]) for i in np.unravel_index(best, (n,) * S))
    w = tuple(float(model.inverse(x)) for x in v)
    return OracleResult(cost=best_cost, v=v, wages=w)


def cell_cost_variation(inst: ProblemInstance, target: str, grid: GridSpec) -> float:
    """Cost scale of one grid cell: the largest single-step change of the
    wage function along the grid, plus the slack the participation band
    admits (band width times the steepest local shadow price).

    Raises ValidationError when a wage on the grid overflows, as the scale
    is then infinite."""
    act, vals = _validate(inst, target, grid)
    model = inst.utility
    # an overflowed wage is inf, and two of them differ by NaN: refused below
    with np.errstate(over="ignore", invalid="ignore"):
        h_vals = np.asarray(model.inverse(vals), dtype=float)
        max_step = float(np.max(np.abs(np.diff(h_vals))))
    max_slope = max_step / grid.step
    cell = max_step + grid.tol * max_slope
    if not math.isfinite(cell):
        raise ValidationError(
            f"grid [{grid.v_lo}, {grid.v_hi}] has a wage that overflows, so no "
            f"cell cost bounds an audit; narrow the grid")
    return cell


@dataclass(frozen=True)
class AuditReport:
    """Solver and oracle costs; cell_variation is the gap allowed between
    them, the incentive relaxation included (see ``oracle_audit``)."""

    solver_cost: float
    oracle_cost: float
    delta: float
    cell_variation: float
    within_tolerance: bool


def oracle_audit(inst: ProblemInstance, target: str, grid: GridSpec,
                 mode: SolverKind = SolverKind.SECOND_BEST) -> AuditReport:
    """Run solver and oracle side by side and compare costs.

    The oracle relaxes every incentive row by constraint_tol too, so in
    second-best mode its optimum may undercut the solver's by more than one
    cell.  The least cost V(c) is convex in the incentive levels c, and the
    solver's incentive multipliers mu are a subgradient of V there, so
    V(c - tol) >= V(c) - tol * sum_i mu_i: the relaxation saves at most
    tol * sum(mu), which the second-best cell adds.

    Raises:
        ValidationError: a wage on the grid overflows, so the cell cost is
            infinite and would pass any gap.
        GridTooCoarse: the solver found a contract but the grid band is empty.
    """
    from .first_best import solve_first_best
    from .second_best import solve_second_best

    if mode is SolverKind.FIRST_BEST:
        solver_cost = solve_first_best(inst, target).expected_cost_principal
        relaxation = 0.0
    elif mode is SolverKind.SECOND_BEST:
        sol = solve_second_best(inst, target)
        solver_cost = sol.expected_cost_principal
        relaxation = grid.tol * sum(sol.mu)
    else:
        raise ValidationError(f"unknown oracle mode {mode!r}")
    cell = cell_cost_variation(inst, target, grid) + relaxation
    try:
        oracle = brute_force_min(inst, target, grid, mode)
    except NoFeasiblePoint as exc:
        raise GridTooCoarse(
            "solver found a contract but the oracle grid has no feasible point; "
            "refine the grid or widen constraint_tol") from exc
    delta = solver_cost - oracle.cost
    return AuditReport(
        solver_cost=float(solver_cost),
        oracle_cost=oracle.cost,
        delta=float(delta),
        cell_variation=cell,
        within_tolerance=bool(abs(delta) <= cell),
    )
