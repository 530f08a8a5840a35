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


def child(*args):
    """A fresh interpreter that imports the package from this checkout.

    A numpy RuntimeWarning in the child is an error there, as it is in this
    test process, so a leaked warning cannot pass unnoticed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                          capture_output=True, text=True, env=env)


def cli_process(*argv):
    """The CLI in a fresh interpreter (see ``child``)."""
    return child("-m", "beliefcontracts.cli", *argv)

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

    @pytest.mark.parametrize("family, ends, domain", [
        ("log", [None, 20], (0.0, 20.0)),
        ("log", [0.5, None], (0.5, math.inf)),
        ("log", [None, None], (0.0, math.inf)),
        ("cara", [None, 20], (-math.inf, 20.0)),
        ("cara", [0.5, None], (0.5, math.inf)),
        ("cara", [None, None], (-math.inf, math.inf)),
    ])
    def test_null_wage_domain_end_keeps_the_family_end(self, family, ends, domain):
        doc = json.loads(MINIMAL)
        doc["reservation_utility"] = -0.5
        doc["actions"][0]["cost"] = 0.1
        doc["utility"] = {"family": family, "parameters": {}, "wage_domain": ends}
        inst = parse_problem(json.dumps(doc))
        assert inst.utility.wage_domain == domain
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


#: arguments on which each command exits 0
CLI_ARGS = {
    "solve-first-best": ("--problem", str(DATA / "log_binding.json")),
    "solve-second-best": ("--problem", str(DATA / "log_binding.json")),
    "choose-action": ("--problem", str(DATA / "log_two_state.json")),
    "compstat": ("--problem", str(DATA / "cara_three_state.json"), "--states", "1,2",
                 "--eps-grid", "0:0.08:3"),
    "detect-regime": ("--problem", str(DATA / "log_two_state.json"), "--states", "0,1",
                      "--eps-max", "0.44"),
    "mlrp": ("--f", "0.1,0.3,0.6", "--g", "0.6,0.3,0.1"),
    "reduce": ("--p", "0.1,0.2,0.3,0.4", "--keep", "2"),
    "iterate4": ("--problem", str(DATA / "cara_four_state.json")),
    "oracle-audit": ("--problem", str(DATA / "log_binding.json"), "--points", "120"),
    "figure-data": ("--problem", str(DATA / "log_binding.json")),
}


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

    def test_first_best_switches(self):
        # --mode and --solver both name a SolverKind
        code, out = self.run("oracle-audit", "--problem", str(DATA / "log_binding.json"),
                             "--points", "150", "--mode", "first-best")
        assert code == 0
        doc = json.loads(out)
        fb = bc.solve_first_best(bc.load_problem(DATA / "log_binding.json"), "H")
        assert doc["solver_cost"] == fb.expected_cost_principal
        assert doc["within_tolerance"] is True
        code, out = self.run("compstat", "--problem", str(DATA / "cara_three_state.json"),
                             "--states", "1,2", "--eps-grid", "0:0.08:3",
                             "--solver", "first-best", "--format", "json")
        assert code == 0
        assert json.loads(out)["mu_path"] == [0.0, 0.0, 0.0]

    def test_only_the_second_best_solution_reports_the_tolerance(self):
        # first-best applies no feasibility tolerance, so its artifact names none
        argv = ("--problem", str(DATA / "log_binding.json"))
        first = json.loads(self.run("solve-first-best", *argv)[1])
        second = json.loads(self.run("solve-second-best", *argv)[1])
        assert "tolerance" not in first
        assert second["tolerance"] == 1e-9

    def test_compstat_csv(self):
        code, out = self.run("compstat", "--problem", str(DATA / "cara_three_state.json"),
                             "--states", "1,2", "--eps-grid", "0:0.08:5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("eps,wage_0,wage_1,wage_2,lambda,mu")
        assert len(lines) == 6

    @pytest.mark.parametrize("argv", [
        ("solve-first-best",), ("solve-second-best",), ("choose-action",),
        ("detect-regime", "--states", "2,0", "--eps-max", "0.2"),
    ])
    def test_tightened_wage_domain_answers_as_the_free_file(self, tmp_path, argv):
        # every optimal wage of this log instance lies inside its wage domain
        # [0.5, 20]; the solvers compute on the family's own domain and check
        # only the answer against the tightened one, so the bytes are the free
        # file's
        tight = DATA / "log_wage_domain.json"
        doc = json.loads(tight.read_text())
        del doc["utility"]["wage_domain"]
        free = tmp_path / "free.json"
        free.write_text(json.dumps(doc))
        code, out = self.run(*argv, "--problem", str(tight))
        assert code == 0
        assert (code, out) == self.run(*argv, "--problem", str(free))

    def test_detect_regime(self):
        code, out = self.run("detect-regime", "--problem", str(DATA / "log_two_state.json"),
                             "--states", "0,1", "--eps-max", "0.44")
        assert code == 0
        assert json.loads(out)["eps_star"] == pytest.approx(0.2112, abs=1e-3)

    @pytest.mark.parametrize("cmd, flag", [
        *[(cmd, ("--tol", "1e-9")) for cmd in (
            "solve-first-best", "solve-second-best", "choose-action", "compstat",
            "iterate4", "oracle-audit")],
        ("detect-regime", ("--tol", "1e-3")), ("figure-data", ("--tol", "1e-3")),
        *[(cmd, ("--format", "json")) for cmd in (
            "solve-first-best", "solve-second-best", "choose-action", "detect-regime",
            "mlrp", "reduce", "iterate4", "oracle-audit")],
        ("choose-action", ("--action", "H")),
    ])
    def test_removed_flag_is_refused(self, capsys, cmd, flag):
        # the solvers have one tolerance, these commands write only JSON and
        # choose-action solves every action: argparse refuses each such flag
        argv = (cmd, *CLI_ARGS[cmd])
        code, out = self.run(*argv, *flag)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert self.run(*argv)[0] == 0

    @pytest.mark.parametrize("argv, error", [
        (("reduce", "--p", "0.2,0.3,0.5", "--keep", "7"), "InvalidReduction"),
        (("mlrp", "--f", "0.5,0.5", "--g", "0.2,0.3,0.5"), "LengthMismatch"),
        (("figure-data", "--problem", str(DATA / "cara_three_state.json")), "DimensionError"),
        (("compstat", "--problem", str(DATA / "cara_three_state.json"), "--states", "1,2",
          "--eps-grid", "0:0.9:3"), "EpsilonTooLarge"),
        (("detect-regime", "--problem", str(DATA / "log_two_state.json"), "--states", "0,1",
          "--eps-max", "0.99"), "EpsilonTooLarge"),
        # an unknown action and a one-action second best were every row failed, exit 0
        (("compstat", "--problem", str(DATA / "cara_three_state.json"), "--action", "Z",
          "--which-action", "H", "--states", "1,2", "--eps-grid", "0:0.05:3"),
         "ValidationError"),
        (("compstat", "--problem", str(DATA / "cara_one_action.json"), "--states", "1,2",
          "--eps-grid", "0:0.05:3"), "ValidationError"),
    ])
    def test_invalid_input_is_an_input_error(self, capsys, argv, error):
        code, out = self.run(*argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith(f"error[{error}]: ")

    def test_input_error_exit_code(self):
        code, _ = self.run("solve-second-best", "--problem", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize("argv, flag", [
        (("compstat", "--states", "1,x", "--eps-grid", "0:0.08:3"), "--states"),
        (("compstat", "--states", "1,2", "--eps-grid", "0:0.1:x"), "--eps-grid"),
        (("compstat", "--states", "1,2", "--eps-grid", "0:0.1:3.5"), "--eps-grid"),
        (("mlrp", "--f", "0.1,x,0.6", "--g", "0.6,0.3,0.1"), "--f"),
        (("mlrp", "--f", "0.1,0.3,0.6", "--g", "0.6,0.3,"), "--g"),
    ])
    def test_malformed_number_is_a_parse_error(self, capsys, argv, flag):
        # an input error (exit 2), not an escaped ValueError read as a solver error
        if argv[0] == "compstat":
            argv = argv + ("--problem", str(DATA / "cara_three_state.json"))
        code, out = self.run(*argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith(f"error[ParseError]: {flag}: ")

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

    def test_cli_solves_without_scipy(self):
        # scipy is a test dependency only: with it unimportable the CLI imports
        # and solves one instance of each family
        script = ("import sys\n"
                  "sys.modules['scipy'] = None\n"
                  "from beliefcontracts.cli import main\n"
                  "for path in sys.argv[1:]:\n"
                  "    assert main(['solve-second-best', '--problem', path]) == 0, path\n")
        files = ("cara_three_state", "log_binding", "crra_oracle_ic_relaxation", "sqrt_two_state")
        proc = child("-c", script, *(str(DATA / f"{name}.json") for name in files))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count('"solver": "second-best"') == len(files)

    def test_underflowing_first_order_scale_is_a_solver_error(self):
        # weight_s h'(v_s) underflows to 0 on this log draw; the refusal must be
        # KKTDegeneracy (exit 1), not a numpy error escaping with a traceback
        proc = cli_process("solve-second-best", "--problem",
                           str(DATA / "log_lstsq_underflow.json"))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error[KKTDegeneracy]: stationarity scale")

    @pytest.mark.parametrize("bound", ["inf", "nan"])
    def test_non_finite_oracle_grid_is_refused_without_a_warning(self, bound):
        proc = cli_process("oracle-audit", "--problem", str(DATA / "log_binding.json"),
                           "--v-lo", "-1", "--v-hi", bound)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error[ValidationError]: grid bounds must be finite")
        assert "Warning" not in proc.stderr

    def test_overflowing_oracle_grid_is_refused_without_a_warning(self):
        # exp overflows above v = 709: the cell cost would be inf, and every
        # audit would pass whatever its gap
        proc = cli_process("oracle-audit", "--problem", str(DATA / "log_binding.json"),
                           "--v-lo", "-720", "--v-hi", "720", "--points", "49")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(
            "error[ValidationError]: grid [-720.0, 720.0] has a wage that overflows")
        assert "Warning" not in proc.stderr

    def test_figure_data_csv(self):
        code, out = self.run("figure-data", "--problem", str(DATA / "log_binding.json"),
                             "--grid", "11")
        assert code == 0
        assert out.splitlines()[0] == "series,w_low,w_high"
        assert any(line.startswith("contract,") for line in out.splitlines())
