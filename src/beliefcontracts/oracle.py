"""Brute-force grid minimizer over promised-utility space.

Independent ground truth for the Newton-based solvers on small instances:
it enumerates a regular grid in v-space, where the constraints are linear,
keeps the points inside the participation band (the true optimum always has
that constraint binding) and, in second-best mode, the incentive-feasible
ones, and returns the cheapest survivor.  No cleverness on purpose: its
errors must stay uncorrelated with the solvers'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beliefs import ProblemInstance, SolverKind
from .errors import GridTooCoarse, NoFeasiblePoint, ValidationError


@dataclass(frozen=True)
class GridSpec:
    """Regular promised-utility grid shared by every state dimension.

    constraint_tol defaults to twice the per-step utility change, so the
    binding participation hyperplane always crosses the discrete band.
    """

    v_lo: float
    v_hi: float
    points_per_dim: int
    constraint_tol: float | None = None

    def __post_init__(self):
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
    h_vals = np.asarray(model.inverse(vals), dtype=float)

    ics = []
    if mode is SolverKind.SECOND_BEST:
        for other in inst.other_actions(target):
            ics.append((q - other.agent_beliefs.as_array(), act.cost - other.cost))

    # enumerate the first S-2 dims with explicit loops, vectorize the last two
    tail = np.add.outer(q[S - 2] * vals, q[S - 1] * vals)            # IR part
    tail_cost = np.add.outer(delta[S - 2] * h_vals, delta[S - 1] * h_vals)
    tail_ic = [np.add.outer(row[S - 2] * vals, row[S - 1] * vals) for row, _ in ics]

    best_cost = np.inf
    best_idx: tuple[int, ...] | None = None
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
        raise NoFeasiblePoint("no grid point satisfies the constraints at this tolerance")
    v = tuple(float(vals[i]) for i in best_idx)
    w = tuple(float(model.inverse(x)) for x in v)
    return OracleResult(cost=best_cost, v=v, wages=w)


def cell_cost_variation(inst: ProblemInstance, target: str, grid: GridSpec) -> float:
    """Cost scale of one grid cell: the largest single-step change of the
    wage function along the grid, plus the slack the participation band
    admits (band width times the steepest local shadow price)."""
    act, vals = _validate(inst, target, grid)
    model = inst.utility
    h_vals = np.asarray(model.inverse(vals), dtype=float)
    max_step = float(np.max(np.abs(np.diff(h_vals))))
    max_slope = max_step / grid.step
    return max_step + grid.tol * max_slope


@dataclass(frozen=True)
class AuditReport:
    solver_cost: float
    oracle_cost: float
    delta: float
    cell_variation: float
    within_tolerance: bool


def oracle_audit(inst: ProblemInstance, target: str, grid: GridSpec,
                 mode: SolverKind = SolverKind.SECOND_BEST,
                 tol: float = 1e-9) -> AuditReport:
    """Run solver and oracle side by side and compare costs.

    Raises:
        GridTooCoarse: the solver found a contract but the grid band is empty.
    """
    from .first_best import solve_first_best
    from .second_best import solve_second_best

    if mode is SolverKind.FIRST_BEST:
        solver_cost = solve_first_best(inst, target).expected_cost_principal
    elif mode is SolverKind.SECOND_BEST:
        solver_cost = solve_second_best(inst, target, tol=tol).expected_cost_principal
    else:
        raise ValidationError(f"unknown oracle mode {mode!r}")
    try:
        oracle = brute_force_min(inst, target, grid, mode)
    except NoFeasiblePoint as exc:
        raise GridTooCoarse(
            "solver found a contract but the oracle grid has no feasible point; "
            "refine the grid or widen constraint_tol") from exc
    cell = cell_cost_variation(inst, target, grid)
    delta = solver_cost - oracle.cost
    return AuditReport(
        solver_cost=float(solver_cost),
        oracle_cost=oracle.cost,
        delta=float(delta),
        cell_variation=cell,
        within_tolerance=bool(abs(delta) <= cell),
    )
