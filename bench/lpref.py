"""Strict-interior feasibility reference for second-best programs.

Reads a JSON list of ``{"problem": <problem document>, "target": <name>}``
from stdin and writes a JSON list of booleans to stdout: whether some
promised-utility vector v strictly inside the family's utility range meets
participation and every incentive constraint of ``target``.  It solves

    max t  s.t.  q.v >= ubar + c,  (q - q_a).v >= c - c_a,
                 lo + t <= v_s <= hi - t (finite ends only),  t <= 1

with scipy's HiGHS and calls the point interior when t* > 1e-9.  It reads the
problem documents directly and runs in its own process, so it shares no
code with the solver under test and scipy stays out of the benchmarked
process.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np
from scipy.optimize import linprog

INTERIOR_MARGIN = 1e-9


def utility_range(utility: dict) -> tuple[float, float]:
    family = utility["family"]
    if family == "log":
        return -math.inf, math.inf
    if family == "cara":
        return -math.inf, 0.0
    if family == "crra":
        return (0.0, math.inf) if utility["parameters"]["gamma"] < 1.0 else (-math.inf, 0.0)
    if family == "sqrt":
        return 0.0, math.inf
    raise ValueError(f"unknown family {family!r}")


def interior_feasible(doc: dict, target: str) -> bool:
    actions = {a["name"]: a for a in doc["actions"]}
    act = actions[target]
    q = np.asarray(act["agent_beliefs"], dtype=float)
    S = len(q)
    rows, rhs = [], []
    rows.append(np.r_[-q, 0.0])
    rhs.append(-(doc["reservation_utility"] + act["cost"]))
    for name, other in actions.items():
        if name != target:
            rows.append(np.r_[-(q - np.asarray(other["agent_beliefs"], dtype=float)), 0.0])
            rhs.append(-(act["cost"] - other["cost"]))
    lo, hi = utility_range(doc["utility"])
    for s in range(S):
        if math.isfinite(lo):
            row = np.zeros(S + 1)
            row[s], row[S] = -1.0, 1.0
            rows.append(row)
            rhs.append(-lo)
        if math.isfinite(hi):
            row = np.zeros(S + 1)
            row[s], row[S] = 1.0, 1.0
            rows.append(row)
            rhs.append(hi)
    objective = np.zeros(S + 1)
    objective[S] = -1.0
    res = linprog(objective, A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=[(None, None)] * S + [(None, 1.0)], method="highs")
    return bool(res.status == 0 and -res.fun > INTERIOR_MARGIN)


def main() -> int:
    items = json.load(sys.stdin)
    json.dump([interior_feasible(it["problem"], it["target"]) for it in items], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
