"""Sweep engine: wage paths, verdicts, power series, regime detection."""

from pathlib import Path

import numpy as np
import pytest

import beliefcontracts as bc
from beliefcontracts import Monotonicity, Party, SolverKind, compstat
from support import FAMILY_NAMES, sweep_reference, two_action_instance

DATA = Path(__file__).parent / "data"

D = lambda *p: bc.Distribution(tuple(p))


def cara_three_state():
    return bc.ProblemInstance(
        (1.0, 2.0, 3.0),
        (bc.ActionSpec("H", 0.6, D(0.4, 0.35, 0.25), D(0.2, 0.3, 0.5)),
         bc.ActionSpec("L", 0.0, D(0.5, 0.3, 0.2), D(0.5, 0.3, 0.2))),
        -1.5, bc.CaraUtility(r=1.0))


def log_two_state():
    return bc.ProblemInstance(
        (1.0, 2.0),
        (bc.ActionSpec("H", 1.0, D(0.5, 0.5), D(0.25, 0.75)),
         bc.ActionSpec("L", 0.0, D(0.75, 0.25), D(0.75, 0.25))),
        0.0, bc.LogUtility())


class TestSweep:
    def test_first_best_cara_pattern(self):
        res = bc.sweep(cara_three_state(), "H", Party.PRINCIPAL, "H", 1, 2,
                       np.linspace(0.0, 0.1, 8), SolverKind.FIRST_BEST)
        assert res.verdicts == (Monotonicity.FLAT, Monotonicity.DECREASING,
                                Monotonicity.INCREASING)
        assert res.failed_rows == ()
        assert res.regime_changes == ()

    def test_second_best_cara_moves_the_low_state(self):
        res = bc.sweep(cara_three_state(), "H", Party.PRINCIPAL, "H", 1, 2,
                       np.linspace(0.0, 0.1, 8), SolverKind.SECOND_BEST)
        assert res.verdicts[1] is Monotonicity.DECREASING
        assert res.verdicts[2] is Monotonicity.INCREASING
        assert res.verdicts[0] is not Monotonicity.FLAT
        assert all(m > 0 for m in res.mu_path)

    def test_single_point_grid_is_flat(self):
        res = bc.sweep(cara_three_state(), "H", Party.PRINCIPAL, "H", 1, 2,
                       [0.0], SolverKind.SECOND_BEST)
        assert res.verdicts == (Monotonicity.FLAT,) * 3
        assert len(res.eps_values) == 1

    def test_two_state_binding_paths_are_flat(self):
        inst = log_two_state()
        res = bc.sweep(inst, "H", Party.PRINCIPAL, "H", 0, 1,
                       np.linspace(0.0, 0.05, 6), SolverKind.SECOND_BEST)
        assert res.verdicts == (Monotonicity.FLAT, Monotonicity.FLAT)
        assert all(not c for c in res.coincides_path)

    def test_power_is_translation_invariant(self):
        from beliefcontracts.compstat import _variance
        w = np.array([1.0, 2.5, 4.0])
        p = np.array([0.2, 0.3, 0.5])
        assert _variance(w, p) == pytest.approx(_variance(w + 7.3, p))

    def test_power_paths_reported_under_both_measures(self):
        res = bc.sweep(cara_three_state(), "H", Party.PRINCIPAL, "H", 1, 2,
                       np.linspace(0.0, 0.1, 5), SolverKind.SECOND_BEST)
        assert len(res.power_path) == 5
        assert len(res.power_path_principal) == 5
        assert all(p > 0 for p in res.power_path)

    def test_eps_leaving_simplex(self):
        with pytest.raises(bc.EpsilonTooLarge):
            bc.sweep(cara_three_state(), "H", Party.PRINCIPAL, "H", 1, 2,
                     [0.0, 0.5], SolverKind.SECOND_BEST)

    def test_solver_must_be_a_solver_kind(self):
        # a string used to fall through to the second-best solver
        with pytest.raises(bc.ValidationError):
            bc.sweep(cara_three_state(), "H", Party.PRINCIPAL, "H", 1, 2,
                     [0.0, 0.02], "first_best")

    def test_agent_side_sweep_runs(self):
        res = bc.sweep(cara_three_state(), "H", Party.AGENT, "L", 0, 2,
                       np.linspace(0.0, 0.05, 5), SolverKind.SECOND_BEST)
        assert res.failed_rows == ()


def assert_sweeps_equal(got, ref, rel_tol):
    """Field by field: the discrete fields exactly, the float paths within
    rel_tol of each path's largest entry (NaN on the same rows)."""
    for field in ("eps_values", "verdicts", "regime_changes", "coincides_path", "failed_rows"):
        assert getattr(got, field) == getattr(ref, field), field
    for field in ("wage_paths", "lambda_path", "mu_path", "power_path",
                  "power_path_principal"):
        a, b = (np.asarray(getattr(x, field), dtype=float) for x in (got, ref))
        assert a.shape == b.shape and (np.isnan(a) == np.isnan(b)).all(), field
        solved = ~np.isnan(b)
        if solved.any():
            scale = max(1.0, float(np.abs(b[solved]).max()))
            assert np.abs(a - b)[solved].max() <= rel_tol * scale, field


class TestStackedSweep:
    """The stacked sweep against its per-eps reference (``support.sweep_reference``):
    first-best bit for bit, second-best within 1e-12."""

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_matches_the_per_row_reference(self, name):
        rng = np.random.default_rng(404 + FAMILY_NAMES.index(name))
        for S in (3, 4):
            inst = two_action_instance(rng, S, name=name, chain=S == 3)
            for party in Party:
                for which in ("H", "L"):
                    base = (inst.action(which).principal_beliefs if party is Party.PRINCIPAL
                            else inst.action(which).agent_beliefs).probs
                    s, s_prime = (0, S - 1) if rng.random() < 0.5 else (S - 1, 1)
                    room = min(base[s], base[s_prime])
                    grid = np.linspace(-0.4 * room, 0.8 * room, 9)
                    for solver, tol in ((SolverKind.FIRST_BEST, 0.0),
                                        (SolverKind.SECOND_BEST, 1e-12)):
                        args = (inst, "H", party, which, s, s_prime, grid, solver)
                        assert_sweeps_equal(bc.sweep(*args), sweep_reference(*args), tol)

    @pytest.mark.parametrize("solver", list(SolverKind))
    def test_a_row_below_the_solver_floor_fails_as_in_the_reference(self, solver):
        # eps leaves 5e-10 on s': inside the open simplex, below SOLVER_MIN_PROB
        inst = cara_three_state()
        p = inst.action("H").principal_beliefs.probs
        grid = [0.0, 0.05, p[2] - 5e-10, 0.1]
        args = (inst, "H", Party.PRINCIPAL, "H", 1, 2, grid, solver)
        got = bc.sweep(*args)
        assert got.failed_rows == (2,)
        assert_sweeps_equal(got, sweep_reference(*args), 0.0 if solver is SolverKind.FIRST_BEST
                            else 1e-12)

    @pytest.mark.parametrize("solver", list(SolverKind))
    def test_eps_off_the_simplex_mid_grid_raises_as_in_the_reference(self, solver):
        inst = cara_three_state()
        p = inst.action("H").agent_beliefs.probs
        args = (inst, "H", Party.AGENT, "H", 1, 2, [0.0, 0.05, p[2] + 0.01, 0.1], solver)
        with pytest.raises(bc.EpsilonTooLarge) as ref:
            sweep_reference(*args)
        with pytest.raises(bc.EpsilonTooLarge) as got:
            bc.sweep(*args)
        assert str(got.value) == str(ref.value)


class TestSweepInputs:
    """Input errors raise before any solve; a grid's rows only fail in solving."""

    @pytest.mark.parametrize("action, which, solver", [
        ("Z", "H", SolverKind.SECOND_BEST), ("Z", "H", SolverKind.FIRST_BEST),
        ("H", "Z", SolverKind.SECOND_BEST), ("H", "H", SolverKind.SECOND_BEST)])
    def test_unknown_action_or_one_action_second_best_raises(self, monkeypatch, action, which,
                                                             solver):
        inst = cara_three_state()
        if action == which == "H":      # a one-action problem has no incentive rows
            inst = bc.load_problem(DATA / "cara_one_action.json")

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the input check")

        monkeypatch.setattr(compstat, "solve_dual_stack", no_solve)
        monkeypatch.setattr(compstat, "sharing_stack", no_solve)
        with pytest.raises(bc.ValidationError):
            bc.sweep(inst, action, Party.PRINCIPAL, which, 1, 2, [0.0, 0.05], solver)

    def test_one_action_first_best_sweeps(self):
        inst = bc.load_problem(DATA / "cara_one_action.json")
        args = (inst, "H", Party.AGENT, "H", 1, 2, np.linspace(0.0, 0.1, 5),
                SolverKind.FIRST_BEST)
        got = bc.sweep(*args)
        assert got.failed_rows == ()
        assert got == sweep_reference(*args)

    @pytest.mark.parametrize("solver", list(SolverKind))
    def test_empty_grid_gives_an_empty_result(self, solver):
        res = bc.sweep(cara_three_state(), "H", Party.PRINCIPAL, "H", 1, 2, [], solver)
        assert res == bc.SweepResult((), (), (), (), (), (), (Monotonicity.FLAT,) * 3, (), (), ())

    @pytest.mark.parametrize("solver", list(SolverKind))
    def test_builds_no_tilted_instance(self, monkeypatch, solver):
        # the tilt moves one belief vector in stacked belief arrays
        calls = []
        real = bc.ProblemInstance.tilted
        monkeypatch.setattr(bc.ProblemInstance, "tilted",
                            lambda *args: calls.append(args) or real(*args))
        res = bc.sweep(cara_three_state(), "H", Party.AGENT, "L", 1, 2,
                       np.linspace(0.0, 0.1, 6), solver)
        assert res.failed_rows == () and calls == []


class TestRegimeDetection:
    def test_tilt_toward_low_state_finds_a_flip(self):
        inst = log_two_state()
        tilt = bc.BeliefTilt(Party.PRINCIPAL, "H", 0, 1)
        eps = bc.detect_regime_change(inst, tilt, 0.45, target="H")
        assert eps is not None
        # beyond the flip the incentive constraint is slack and costs agree
        above = inst.tilted(Party.PRINCIPAL, "H", 0, 1, eps + 5e-3)
        below = inst.tilted(Party.PRINCIPAL, "H", 0, 1, eps - 5e-3)
        assert bc.solve_second_best(above, "H").coincides_with_first_best
        assert not bc.solve_second_best(below, "H").coincides_with_first_best

    def test_tilt_away_returns_none(self):
        inst = log_two_state()
        tilt = bc.BeliefTilt(Party.PRINCIPAL, "H", 1, 0)
        assert bc.detect_regime_change(inst, tilt, 0.2, target="H") is None

    def test_crossing_stable_under_refinement(self):
        inst = log_two_state()
        tilt = bc.BeliefTilt(Party.PRINCIPAL, "H", 0, 1)
        coarse = bc.detect_regime_change(inst, tilt, 0.45, target="H", tol=1e-6)
        fine = bc.detect_regime_change(inst, tilt, 0.45, target="H", tol=1e-9)
        assert abs(coarse - fine) <= 1e-6

    def test_two_second_best_solves_per_answer(self, monkeypatch):
        # the ends are solved in full; inside the bracket only the
        # risk-sharing contract is, and the non-coinciding end's counts too
        calls = {"second_best": 0, "risk_sharing": 0}

        def counted(name, fn):
            def spy(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return spy

        monkeypatch.setattr(compstat, "solve_second_best",
                            counted("second_best", compstat.solve_second_best))
        monkeypatch.setattr(compstat, "_risk_sharing",
                            counted("risk_sharing", compstat._risk_sharing))
        inst = bc.load_problem(DATA / "log_two_state.json")
        eps = bc.detect_regime_change(inst, bc.BeliefTilt(Party.PRINCIPAL, "H", 0, 1),
                                      0.45, target="H")
        assert eps is not None
        assert calls["second_best"] == 2
        assert calls["risk_sharing"] <= 4

    def test_mirrored_tilt_gives_the_negated_root(self):
        # (s, s'), E and (s', s), -E tilt through the same instances with
        # eps negated, so every iterate, and the root, is negated exactly
        inst = log_two_state()
        eps = bc.detect_regime_change(inst, bc.BeliefTilt(Party.PRINCIPAL, "H", 0, 1),
                                      0.44, target="H")
        mirrored = bc.detect_regime_change(inst, bc.BeliefTilt(Party.PRINCIPAL, "H", 1, 0),
                                           -0.44, target="H")
        assert eps is not None and 0.0 < eps < 0.44
        assert mirrored == -eps

    def test_end_refusal_propagates(self):
        # driver_mix seed 5151 op 497: both ends are Infeasible, while the
        # risk-sharing slack alone reads "binding" at both ends (no flip)
        inst = bc.load_problem(DATA / "cara_detect_infeasible_ends.json")
        tilt = bc.BeliefTilt(Party.PRINCIPAL, "H", 0, 2)
        with pytest.raises(bc.Infeasible):
            bc.detect_regime_change(inst, tilt, 0.1018470635233914, target="H")

    def test_sweep_records_the_regime_change(self):
        inst = log_two_state()
        eps_star = bc.detect_regime_change(
            inst, bc.BeliefTilt(Party.PRINCIPAL, "H", 0, 1), 0.45, target="H")
        grid = np.linspace(0.0, 0.44, 23)
        res = bc.sweep(inst, "H", Party.PRINCIPAL, "H", 0, 1, grid,
                       SolverKind.SECOND_BEST)
        assert len(res.regime_changes) == 1
        assert abs(res.regime_changes[0] - eps_star) <= grid[1] - grid[0] + 1e-9


class TestRegimeSlope:
    """The slope ``detect_regime_change`` hands ``rtsafe``, d row_i . v +
    row_i . dv with dv from ``kernel.sensitivity``, against central
    differences of the slack it roots, for the four tilt kinds."""

    H = 1e-6

    def test_slope_matches_central_differences(self, monkeypatch):
        captured = []
        real = compstat.rtsafe

        def spy(f, slope, lo, hi, *rest):
            captured.append((f, slope, lo[0], hi[0]))
            return real(f, slope, lo, hi, *rest)

        monkeypatch.setattr(compstat, "rtsafe", spy)
        rng = np.random.default_rng(71)
        checked = {}
        for k in range(120):
            inst = two_action_instance(rng, 3, name=FAMILY_NAMES[k % 5], chain=False)
            party = Party.PRINCIPAL if k % 2 else Party.AGENT
            which = "H" if k % 4 < 2 else "L"
            s, s_prime = (int(x) for x in rng.choice(3, 2, replace=False))
            act = inst.action(which)
            beliefs = act.principal_beliefs if party is Party.PRINCIPAL else act.agent_beliefs
            captured.clear()
            try:
                bc.detect_regime_change(inst, bc.BeliefTilt(party, which, s, s_prime),
                                        0.9 * beliefs.probs[s_prime], target="H")
            except bc.BeliefContractsError:
                continue
            if (party, which) == (Party.PRINCIPAL, "L"):
                # the principal's beliefs about L never enter the contract:
                # the flag cannot flip, and no slope is asked for
                assert not captured
                checked[party, which] = checked.get((party, which), 0) + 1
                continue
            if not captured:
                continue
            f, slope, lo, hi = captured[0]
            for x in np.linspace(lo, hi, 7)[1:-1]:
                below, at, above = (f(x + dx) for dx in (-self.H, 0.0, self.H))
                if not below[6] == at[6] == above[6]:
                    continue          # the smallest slack changes row here
                fd = (above[1] - below[1]) / (2.0 * self.H)
                assert slope(at) == pytest.approx(fd, rel=1e-6), (k, x)
                checked[party, which] = checked.get((party, which), 0) + 1
        assert len(checked) == 4 and min(checked.values()) >= 20, checked
