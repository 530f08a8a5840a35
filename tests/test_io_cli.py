"""Problem-file schema, serialization round trips, and the CLI surface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beliefcontracts as bc
from beliefcontracts.cli import main
from beliefcontracts.problemio import (dump_json, parse_problem,
                                       serialize_problem)

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def cli_process(*argv):
    """The CLI in a fresh interpreter that imports the package from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "beliefcontracts.cli", *argv],
                          capture_output=True, text=True, env=env)

MINIMAL = """
{
  "schema_version": "1",
  "outputs": [1.0, 2.0],
  "reservation_utility": 0.0,
  "utility": {"family": "log", "parameters": {}},
  "actions": [
    {"name": "H", "cost": 1.0,
     "principal_beliefs": [0.25, 0.75], "agent_beliefs": [0.25, 0.75]},
    {"name": "L", "cost": 0.0,
     "principal_beliefs": [0.75, 0.25], "agent_beliefs": [0.75, 0.25]}
  ]
}
"""


class TestParse:
    def test_minimal_round_trip(self):
        inst = parse_problem(MINIMAL)
        assert inst.n_states == 2
        assert inst.action("H").cost == 1.0
        again = parse_problem(serialize_problem(inst))
        assert again == inst

    def test_round_trip_preserves_every_field(self):
        inst = bc.ProblemInstance(
            (1.0, 2.5, 3.75),
            (bc.ActionSpec("work", 0.6180339887498949,
                           bc.Distribution((0.1, 0.2, 0.7)),
                           bc.Distribution((0.2, 0.3, 0.5))),
             bc.ActionSpec("shirk", 0.0,
                           bc.Distribution((0.5, 0.25, 0.25)),
                           bc.Distribution((0.6, 0.3, 0.1)))),
            -1.2345678901234567, bc.CaraUtility(r=1.5))
        assert parse_problem(serialize_problem(inst)) == inst

    def test_off_simplex_beliefs_name_the_location(self):
        bad = MINIMAL.replace("[0.25, 0.75]", "[0.25, 0.74]", 1)
        with pytest.raises(bc.ValidationError, match=r"actions\[0\].principal_beliefs"):
            parse_problem(bad)

    def test_unknown_family_lists_supported(self):
        bad = MINIMAL.replace('"log"', '"quadratic"')
        with pytest.raises(bc.ParseError, match="sqrt"):
            parse_problem(bad)

    def test_malformed_json(self):
        with pytest.raises(bc.ParseError):
            parse_problem("{not json")

    def test_missing_key(self):
        doc = json.loads(MINIMAL)
        del doc["outputs"]
        with pytest.raises(bc.ParseError, match="outputs"):
            parse_problem(json.dumps(doc))

    def test_dump_json_17_digits(self):
        assert dump_json(0.1) == "0.10000000000000001"
        assert float(dump_json(math.pi)) == math.pi


class TestCli:
    def run(self, *argv):
        import contextlib
        import io
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
        return code, buf.getvalue()

    def test_solve_second_best_hand_values(self):
        code, out = self.run("solve-second-best", "--problem",
                             str(DATA / "log_binding.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["wages"][0] == pytest.approx(math.exp(-0.5), rel=1e-10)
        assert doc["wages"][1] == pytest.approx(math.exp(1.5), rel=1e-10)
        assert doc["binding"]["L"] is True

    def test_mlrp_command(self):
        code, out = self.run("mlrp", "--f", "0.1,0.3,0.6", "--g", "0.6,0.3,0.1")
        assert code == 0
        assert json.loads(out)["ordering"] == "f_dominates_g"

    def test_reduce_command(self):
        code, out = self.run("reduce", "--p", "0.1,0.2,0.3,0.4", "--keep", "3")
        assert code == 0
        assert json.loads(out)["probs"] == [0.1, 0.2, 0.7]

    def test_iterate4_cost_delta(self):
        code, out = self.run("iterate4", "--problem", str(DATA / "cara_four_state.json"))
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["cost_delta"]) <= 1e-8
        assert doc["max_wage_delta"] <= 1e-6

    def test_oracle_audit(self):
        code, out = self.run("oracle-audit", "--problem", str(DATA / "log_binding.json"),
                             "--points", "150")
        assert code == 0
        assert json.loads(out)["within_tolerance"] is True

    def test_compstat_csv(self):
        code, out = self.run("compstat", "--problem", str(DATA / "cara_three_state.json"),
                             "--states", "1,2", "--eps-grid", "0:0.08:5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("eps,wage_0,wage_1,wage_2,lambda,mu")
        assert len(lines) == 6

    def test_detect_regime(self):
        code, out = self.run("detect-regime", "--problem", str(DATA / "log_two_state.json"),
                             "--states", "0,1", "--eps-max", "0.44")
        assert code == 0
        assert json.loads(out)["eps_star"] == pytest.approx(0.2112, abs=1e-3)

    def test_input_error_exit_code(self):
        code, _ = self.run("solve-second-best", "--problem", "/nonexistent.json")
        assert code == 2

    def test_solver_error_exit_code(self, tmp_path):
        doc = {
            "schema_version": "1",
            "outputs": [1.0, 2.0],
            "reservation_utility": -6.0,
            "utility": {"family": "cara", "parameters": {"r": 1.0}},
            "actions": [
                {"name": "H", "cost": 5.0,
                 "principal_beliefs": [0.5, 0.5], "agent_beliefs": [0.45, 0.55]},
                {"name": "L", "cost": 0.0,
                 "principal_beliefs": [0.5, 0.5], "agent_beliefs": [0.55, 0.45]},
            ],
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, _ = self.run("solve-second-best", "--problem", str(p))
        assert code == 1

    def test_out_writes_artifact_and_sidecar(self, tmp_path):
        out = tmp_path / "solution.json"
        code, _ = self.run("solve-second-best", "--problem",
                           str(DATA / "log_binding.json"), "--out", str(out))
        assert code == 0
        assert out.exists()
        meta = json.loads((tmp_path / "solution.json.meta.json").read_text())
        assert meta["tool"] == "beliefcontracts"

    def test_entry_point_smoke(self):
        proc = cli_process("mlrp", "--f", "0.5,0.5", "--g", "0.5,0.5")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ordering"] == "equal"

    def test_underflowing_first_order_scale_is_a_solver_error(self):
        # weight_s h'(v_s) underflows to 0 on this log draw; the refusal must be
        # KKTDegeneracy (exit 1), not a numpy error escaping with a traceback
        proc = cli_process("solve-second-best", "--problem",
                           str(DATA / "log_lstsq_underflow.json"))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error[KKTDegeneracy]: stationarity scale")

    def test_figure_data_csv(self):
        code, out = self.run("figure-data", "--problem", str(DATA / "log_binding.json"),
                             "--grid", "11")
        assert code == 0
        assert out.splitlines()[0] == "series,w_low,w_high"
        assert any(line.startswith("contract,") for line in out.splitlines())
