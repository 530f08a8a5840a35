"""In-memory span tracing around the public functions of each layer.

``Tracer.install`` wraps the functions in ``LAYER_FUNCTIONS`` and the public
``UtilityModel`` methods.  The callers import most of these names directly
(``from .kernel import minimize_on_affine`` in ``second_best``, ``iterative``
and ``first_best``), so a wrapper on the defining module alone would catch
nothing: every ``beliefcontracts`` module attribute bound to a wrapped
function is replaced, and ``uninstall`` puts the originals back.

A span is (name, start, end, parent span, op id) plus one integer of layer
detail (values evaluated, Newton iterations, grid points, 1 for a
second-best contract that passes its KKT certificate).  Spans are kept in
flat arrays and written out once, when the run ends.  Self time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: module attribute -> span name, for the public functions of each layer
LAYER_FUNCTIONS = (
    ("kernel", "solve_ir_only", "kernel.ir_only"),
    ("kernel", "minimize_on_affine", "kernel.affine"),
    ("second_best", "solve_second_best", "active_set"),
    ("first_best", "solve_first_best", "first_best"),
    ("compstat", "sweep", "drivers.sweep"),
    ("compstat", "detect_regime_change", "drivers.detect_regime_change"),
    ("iterative", "outer_minimize", "drivers.outer_minimize"),
    ("second_best", "choose_action", "drivers.choose_action"),
    ("oracle", "brute_force_min", "oracle"),
    ("cara", "solve_system", "cara.solve_system"),
    ("cara", "cara_compstat", "cara.cara_compstat"),
    ("problemio", "parse_problem", "problemio.parse"),
    ("problemio", "dump_json", "problemio.dump"),
)
UTILITY_METHODS = ("evaluate", "marginal", "second_derivative", "inverse",
                   "inverse_derivative", "inverse_second_derivative",
                   "inverse_marginal", "contains_utility")

#: spans that count as one solve when a driver calls them
SOLVER_SPANS = ("active_set", "first_best", "kernel.ir_only", "kernel.affine")
DRIVER_SPANS = ("drivers.sweep", "drivers.detect_regime_change",
                "drivers.outer_minimize", "drivers.choose_action")


def _layer_detail(span: str):
    """How to read the integer detail of a span from its arguments or result."""
    if span.startswith("utility."):
        return lambda args, kwargs, result: int(np.size(args[1])) if len(args) > 1 else 1
    if span == "kernel.affine":
        return lambda args, kwargs, result: int(result.iterations)
    if span == "active_set":
        from beliefcontracts import kkt_certificate

        def certified(args, kwargs, result):
            if (args[3] if len(args) > 3 else kwargs.get("wage_box")) is not None:
                return 0
            target = args[1] if len(args) > 1 else kwargs["target"]
            return int(kkt_certificate(args[0], target, result, tol=1e-8).passed)
        return certified
    if span == "oracle":
        def grid_points(args, kwargs, result):
            inst = args[0]
            grid = args[2] if len(args) > 2 else kwargs["grid"]
            return int(grid.points_per_dim) ** inst.n_states
        return grid_points
    return None


class Tracer:
    """Records spans for one traced pass; single-threaded by design."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.detail = array("q")
        self.errors: dict[int, str] = {}
        self._stack = [-1]
        self.op_id = -1
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.detail.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name))
        try:
            yield idx
        except BaseException as exc:
            self.errors[idx] = type(exc).__name__
            raise
        finally:
            self._close(idx)

    def truncate(self, n: int) -> None:
        """Forget every span from index n on (work the benchmark did itself)."""
        for col in (self.name, self.parent, self.op, self.start, self.end, self.detail):
            del col[n:]
        for idx in [k for k in self.errors if k >= n]:
            del self.errors[idx]

    def wrap(self, fn, span: str):
        nid = self.name_id(span)
        detail = _layer_detail(span)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx)
                tracer.errors[idx] = type(exc).__name__
                raise
            tracer._close(idx)
            if detail is not None:
                tracer.detail[idx] = detail(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer function wherever a beliefcontracts module binds it."""
        import beliefcontracts
        from beliefcontracts import utility

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "beliefcontracts" or n.startswith("beliefcontracts."))]
        wrappers = {}
        for mod_name, attr, span in LAYER_FUNCTIONS:
            fn = getattr(sys.modules[f"{beliefcontracts.__name__}.{mod_name}"], attr)
            wrappers[id(fn)] = self.wrap(fn, span)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        for meth in UTILITY_METHODS:
            fn = vars(utility.UtilityModel)[meth]
            self._patched.append((utility.UtilityModel, meth, fn))
            setattr(utility.UtilityModel, meth, self.wrap(fn, f"utility.{meth}"))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "detail": np.frombuffer(self.detail, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        cols = self.columns()
        err_idx = np.fromiter(self.errors.keys(), dtype=np.int64, count=len(self.errors))
        err_names = np.array(list(self.errors.values()), dtype=str)
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            error_index=err_idx, error_class=err_names, **cols)


def self_times(parent, start, end) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval, so an overlapping or
    overhanging child never counts twice or outside its parent.
    """
    n = len(start)
    covered = [0.0] * n
    reach: dict[int, float] = {}
    for i in sorted(range(n), key=lambda k: start[k]):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def top_level_solves(names: list[str], name, parent) -> dict[int, int]:
    """Solves each driver span made: solver spans whose nearest solver or
    driver ancestor is that driver (a solve's own kernel calls do not count)."""
    solver = {i for i, n in enumerate(names) if n in SOLVER_SPANS}
    driver = {i for i, n in enumerate(names) if n in DRIVER_SPANS}
    counts: dict[int, int] = {}
    for i in range(len(name)):
        if name[i] not in solver:
            continue
        p = parent[i]
        while p >= 0 and name[p] not in solver and name[p] not in driver:
            p = parent[p]
        if p >= 0 and name[p] in driver:
            counts[p] = counts.get(p, 0) + 1
    return counts
