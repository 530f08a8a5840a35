"""Problem-file parsing and solution serialization.

Problem files are JSON with a versioned schema::

    {
      "schema_version": "1",
      "outputs": [1.0, 2.0],
      "reservation_utility": 0.0,
      "utility": {"family": "log", "parameters": {}},
      "actions": [
        {"name": "H", "cost": 1.0,
         "principal_beliefs": [0.25, 0.75], "agent_beliefs": [0.25, 0.75]},
        ...
      ]
    }

``utility`` optionally carries ``"wage_domain": [lo, hi]`` (may tighten, never
widen, the family default; null keeps the family's endpoint).  Families:
cara (parameter r), log, crra (parameter gamma), sqrt.

Numbers are serialized with 17 significant digits so parse/serialize round
trips are exact at double precision, and payloads carry no timestamps, so
identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import json
import math

from .beliefs import ActionSpec, Distribution, ProblemInstance
from .errors import ParseError, ValidationError
from .second_best import _FEASIBILITY_TOL
from .utility import utility_from_name

SCHEMA_VERSION = "1"


def _fmt(x) -> str:
    if isinstance(x, float) or hasattr(x, "dtype"):
        v = float(x)
        if math.isnan(v):
            return "NaN"
        if math.isinf(v):
            return "Infinity" if v > 0 else "-Infinity"
        return format(v, ".17g")
    raise TypeError(f"not a float: {x!r}")


def dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {dump_json(v, indent + 2)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(not isinstance(x, (dict, list, tuple)) for x in obj)
        if flat:
            return "[" + ", ".join(dump_json(x) for x in obj) + "]"
        items = [inner + dump_json(x, indent + 2) for x in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    return _fmt(obj)


def _need(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ParseError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _numbers(seq, where: str) -> tuple[float, ...]:
    if not isinstance(seq, (list, tuple)):
        raise ParseError(f"{where}: expected an array of numbers")
    out = []
    for i, x in enumerate(seq):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ParseError(f"{where}[{i}]: expected a number, got {x!r}")
        out.append(float(x))
    return tuple(out)


def parse_problem(text: str) -> ProblemInstance:
    """Parse and validate a problem file.

    Raises:
        ParseError: malformed document or unknown utility family.
        ValidationError: well-formed but violates an invariant; the message
            names the invariant and its location.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    version = str(_need(doc, "schema_version", "document"))
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version!r} (supported: {SCHEMA_VERSION!r})")

    outputs = _numbers(_need(doc, "outputs", "document"), "outputs")
    reservation = _need(doc, "reservation_utility", "document")
    if isinstance(reservation, bool) or not isinstance(reservation, (int, float)):
        raise ParseError("reservation_utility: expected a number")

    uspec = _need(doc, "utility", "document")
    if not isinstance(uspec, dict):
        raise ParseError("utility: expected an object with 'family'")
    family = str(_need(uspec, "family", "utility"))
    params = uspec.get("parameters", {})
    if not isinstance(params, dict):
        raise ParseError("utility.parameters: expected an object")
    wage_domain = None
    if uspec.get("wage_domain") is not None:
        wd = uspec["wage_domain"]
        if not isinstance(wd, (list, tuple)) or len(wd) != 2:
            raise ParseError("utility.wage_domain: expected [lo, hi]")
        wage_domain = tuple(None if x is None else float(x) for x in wd)
    model = utility_from_name(family, params, wage_domain)

    raw_actions = _need(doc, "actions", "document")
    if not isinstance(raw_actions, list) or not raw_actions:
        raise ParseError("actions: expected a non-empty array")
    actions = []
    for i, entry in enumerate(raw_actions):
        where = f"actions[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: expected an object")
        name = str(_need(entry, "name", where))
        cost = _need(entry, "cost", where)
        if isinstance(cost, bool) or not isinstance(cost, (int, float)):
            raise ParseError(f"{where}.cost: expected a number")
        try:
            principal = Distribution(_numbers(_need(entry, "principal_beliefs", where),
                                              f"{where}.principal_beliefs"))
        except ValidationError as exc:
            raise ValidationError(f"{where}.principal_beliefs: {exc}") from exc
        try:
            agent = Distribution(_numbers(_need(entry, "agent_beliefs", where),
                                          f"{where}.agent_beliefs"))
        except ValidationError as exc:
            raise ValidationError(f"{where}.agent_beliefs: {exc}") from exc
        try:
            actions.append(ActionSpec(name, float(cost), principal, agent))
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from exc

    return ProblemInstance(outputs, tuple(actions), float(reservation), model)


def load_problem(path) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def serialize_problem(inst: ProblemInstance) -> str:
    """Inverse of parse_problem; parse(serialize(inst)) == inst field for field."""
    model = inst.utility
    params = {}
    if model.family == "cara":
        params["r"] = model.r
    elif model.family == "crra":
        params["gamma"] = model.gamma
    uspec = {"family": model.family, "parameters": params}
    if model.domain is not None:        # None: the family's default domain
        uspec["wage_domain"] = [None if math.isinf(x) else x for x in model.domain]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "outputs": list(inst.outputs),
        "reservation_utility": inst.reservation_utility,
        "utility": uspec,
        "actions": [
            {
                "name": a.name,
                "cost": a.cost,
                "principal_beliefs": list(a.principal_beliefs.probs),
                "agent_beliefs": list(a.agent_beliefs.probs),
            }
            for a in inst.actions
        ],
    }
    return dump_json(doc) + "\n"


def first_best_payload(sol) -> dict:
    return {
        "solver": "first-best",
        "action": sol.action,
        "wages": list(sol.wages),
        "utility_levels": list(sol.utility_levels),
        "lambda": sol.lam,
        "expected_cost_principal": sol.expected_cost_principal,
        "expected_cost_agent_beliefs": sol.expected_cost_agent_beliefs,
        "ir_residual": sol.ir_residual,
        "foc_residuals": list(sol.foc_residuals),
    }


def second_best_payload(sol, inst: ProblemInstance) -> dict:
    others = [a.name for a in inst.other_actions(sol.target)]
    return {
        "solver": "second-best",
        "action": sol.target,
        "tolerance": _FEASIBILITY_TOL,
        "wages": list(sol.wages),
        "utility_levels": list(sol.utility_levels),
        "lambda": sol.lam,
        "mu": {name: m for name, m in zip(others, sol.mu)},
        "ic_slacks": {name: s for name, s in zip(others, sol.ic_slacks)},
        "binding": {name: bool(b) for name, b in zip(others, sol.binding)},
        "coincides_with_first_best": sol.coincides_with_first_best,
        "expected_cost_principal": sol.expected_cost_principal,
        "ir_residual": sol.ir_residual,
        "foc_residuals": list(sol.foc_residuals),
    }


def sweep_csv(result, n_states: int) -> str:
    """Columnar sweep table: one row per eps, state-indexed wage columns."""
    cols = (["eps"] + [f"wage_{s}" for s in range(n_states)]
            + ["lambda", "mu", "power_agent_beliefs", "power_principal_beliefs",
               "coincides_with_first_best", "status"])
    lines = [",".join(cols)]
    for i, eps in enumerate(result.eps_values):
        failed = i in result.failed_rows
        row = [_fmt(eps)]
        row += [_fmt(w) for w in result.wage_paths[i]]
        row += [_fmt(result.lambda_path[i]), _fmt(result.mu_path[i]),
                _fmt(result.power_path[i]), _fmt(result.power_path_principal[i]),
                "true" if result.coincides_path[i] else "false",
                "failed" if failed else "ok"]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def figure_csv(bundle) -> str:
    """Figure geometry as a long-form series table."""
    lines = ["series,w_low,w_high"]

    def emit(name: str, pts):
        for (a, b) in pts:
            lines.append(f"{name},{_fmt(a)},{_fmt(b)}")

    emit("indifference_target", bundle.indifference_target)
    emit("indifference_other", bundle.indifference_other)
    emit("isocost_through_contract", bundle.isocost_through_contract)
    emit("isocost_through_corner", bundle.isocost_through_corner)
    if bundle.corner is not None:
        emit("corner", [bundle.corner])
    emit("contract", [bundle.contract])
    return "\n".join(lines) + "\n"
