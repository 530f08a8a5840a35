"""Closed-form 2-action 3-state exponential pipeline."""

import copy
import math

import numpy as np
import pytest

import beliefcontracts as bc
from support import cara_system_draw

D = lambda *p: bc.Distribution(tuple(p))


def toy_system():
    return bc.CaraSystem(
        pi_high=D(0.2, 0.3, 0.5),
        pi_low=D(0.5, 0.3, 0.2),
        principal=D(0.4, 0.35, 0.25),
        cost=0.6,
        ubar=-1.5,
    )


class TestConstruction:
    def test_requires_strict_order(self):
        with pytest.raises(bc.ValidationError):
            bc.CaraSystem(D(0.5, 0.3, 0.2), D(0.2, 0.3, 0.5), D(1 / 3, 1 / 3, 1 / 3),
                          0.5, -1.5)

    def test_requires_negative_level(self):
        with pytest.raises(bc.ValidationError):
            bc.CaraSystem(D(0.2, 0.3, 0.5), D(0.5, 0.3, 0.2), D(1 / 3, 1 / 3, 1 / 3),
                          2.0, -1.5)

    def test_derived_quantities(self):
        sys_ = toy_system()
        assert sys_.delta.values == pytest.approx((-0.3, 0.0, 0.3))
        assert sys_.kappa21 == pytest.approx(0.0 * 0.2 - (-0.3) * 0.3)
        assert sys_.kappa31 == pytest.approx(0.3 * 0.2 - (-0.3) * 0.5)
        assert sys_.kappa32 == pytest.approx(0.3 * 0.3 - 0.0 * 0.5)
        assert 0 < sys_.gamma2 <= sys_.pi_high.probs[1]
        assert sys_.r3 > 0


class TestWageChain:
    def test_elimination_matches_linear_solve(self):
        # given w1, participation + incentive are linear in the marginal
        # utilities of the other two states: solve the 2x2 directly
        sys_ = toy_system()
        lo, hi = bc.branch_interval(sys_)
        top = hi if np.isfinite(hi) else lo + 3.0
        for w1 in lo + (top - lo) * np.linspace(0.08, 0.92, 7):
            x1 = math.exp(-w1)
            pi = sys_.pi_high.as_array()
            d = sys_.delta.as_array()
            A = np.array([[pi[1], pi[2]], [d[1], d[2]]])
            b = np.array([-(sys_.ubar + sys_.cost) - pi[0] * x1,
                          -sys_.cost - d[0] * x1])
            x2, x3 = np.linalg.solve(A, b)
            assert bc.w2_from_w1(sys_, w1) == pytest.approx(-math.log(x2), abs=1e-10)
            assert bc.w3_from_w1(sys_, w1) == pytest.approx(-math.log(x3), abs=1e-10)

    def test_w2_limit_at_large_w1(self):
        sys_ = toy_system()
        limit = math.log(sys_.kappa32 / sys_.r3)
        assert bc.w2_from_w1(sys_, 60.0) == pytest.approx(limit, abs=1e-12)

    def test_out_of_branch(self):
        sys_ = toy_system()
        lo, hi = bc.branch_interval(sys_)
        with pytest.raises(bc.OutOfBranch):
            bc.w2_from_w1(sys_, lo - 0.5)
        if math.isfinite(hi):
            with pytest.raises(bc.OutOfBranch):
                bc.w3_from_w1(sys_, hi + 0.5)


class TestSolve:
    def test_assembled_solution_zeroes_the_system(self):
        sol = bc.solve_system(toy_system())
        assert max(abs(r) for r in sol.foc_residuals) <= 1e-8
        assert abs(sol.ir_residual) <= 1e-8
        assert abs(sol.ic_residual) <= 1e-8
        assert sol.lam > 0 and sol.mu >= 0

    def test_derived_constants_are_built_once_per_system(self, monkeypatch):
        # the w1 root-find evaluates the pivot gap and its slope many times; the
        # belief-derived constants are built once, however many steps it takes
        from beliefcontracts import cara
        built = {"DeltaVector": 0, "kappa": 0}

        def counted(name, fn):
            def wrapper(*args):
                built[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(cara, "DeltaVector", counted("DeltaVector", cara.DeltaVector))
        monkeypatch.setattr(cara, "kappa", counted("kappa", cara.kappa))
        for tol in (1e-6, 1e-12, 1e-15):
            built.update(DeltaVector=0, kappa=0)
            bc.solve_system(toy_system(), tol=tol)
            assert built == {"DeltaVector": 1, "kappa": 3}

    def test_pivot_slope_matches_central_differences(self):
        from beliefcontracts.cara import _pivot_gap, _pivot_slope
        rng = np.random.default_rng(43)
        systems = [toy_system()] + [cara_system_draw(rng, require_binding=False)
                                    for _ in range(10)]
        # the gap carries the pole factor D3 = kappa21 e^-w1 - r2, so it and
        # its slope are finite on the closed branch, ends included: there it
        # is p1 (1 - gamma2) D3 > 0 at the floor and -p2 gamma2 (r3 - kappa31
        # e^-w1) < 0 at a finite upper end; it falls wherever it is positive
        h = 1e-6
        ends = 0
        for sys_ in systems:
            lo, hi = bc.branch_interval(sys_)
            top = hi if math.isfinite(hi) else lo + 4.0
            p, g2 = sys_.principal.probs, sys_.gamma2
            floor = p[1] * (1.0 - g2) * (sys_.kappa21 * math.exp(-lo) - sys_.r2)
            assert _pivot_gap(sys_, lo) == pytest.approx(floor, rel=1e-9)
            if math.isfinite(hi):
                end = -p[2] * g2 * (sys_.r3 - sys_.kappa31 * math.exp(-hi))
                assert end < 0.0
                assert _pivot_gap(sys_, hi) == pytest.approx(end, rel=1e-9)
                ends += 1
            for w1 in lo + (top - lo) * np.linspace(0.0, 1.0, 11):
                fd = (_pivot_gap(sys_, w1 + h) - _pivot_gap(sys_, w1 - h)) / (2.0 * h)
                slope = _pivot_slope(sys_, w1)
                assert math.isfinite(slope)
                if _pivot_gap(sys_, w1) > 0.0:
                    assert slope < 0.0
                assert slope == pytest.approx(fd, rel=1e-6)
        assert ends >= 3

    def test_root_in_few_gap_evaluations_within_tol(self, monkeypatch):
        # Newton on the closed-form slope from the branch ends, both ends
        # included: at tol 1e-12, 6.0 gap evaluations per solve on these
        # draws and at most 8, where the bisection it replaced took about
        # 40; at every tol, w1 stays within tol * max(1, |w1|) of the root
        from beliefcontracts import cara
        gap = cara._pivot_gap
        calls = []
        monkeypatch.setattr(cara, "_pivot_gap", lambda *a: calls.append(a[1]) or gap(*a))
        rng = np.random.default_rng(44)
        counts = []
        for _ in range(60):
            sys_ = cara_system_draw(rng)
            ref = bc.solve_w1(sys_, tol=1e-15)
            for tol in (1e-6, 1e-9, 1e-12):
                calls.clear()
                w1 = bc.solve_w1(sys_, tol=tol)
                assert abs(w1 - ref) <= tol * max(1.0, abs(ref))
            counts.append(len(calls))
        assert np.mean(counts) <= 6.5
        assert max(counts) <= 8

    def test_wages_within_tol_of_the_root(self):
        # w2 and w3 follow from w1 with slopes up to about 950 near the branch
        # floor, so the stop rule divides its tolerances by the larger slope:
        # every wage stays within tol * max(1, max |w|) of the tol = 1e-15
        # contract (at most 0.5 tol on these draws; up to 9.4 tol when only
        # w1 was bounded)
        rng = np.random.default_rng(44)
        for _ in range(60):
            sys_ = cara_system_draw(rng)
            ref = np.array(bc.solve_system(sys_, tol=1e-15).wages)
            for tol in (1e-6, 1e-9, 1e-12):
                w = np.array(bc.solve_system(sys_, tol=tol).wages)
                assert np.abs(w - ref).max() <= tol * max(1.0, np.abs(ref).max())

    def test_matches_numeric_second_best(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            sys_ = cara_system_draw(rng)
            sol = bc.solve_system(sys_)
            sb = bc.solve_second_best(bc.to_problem_instance(sys_), "H")
            assert max(abs(a - b) for a, b in zip(sol.wages, sb.wages)) <= 1e-6

    def test_homogeneous_within_action_limit(self):
        # principal's beliefs equal to the agent's: classic exponential case
        sys_ = bc.CaraSystem(D(0.2, 0.3, 0.5), D(0.5, 0.3, 0.2), D(0.2, 0.3, 0.5),
                             0.6, -1.5)
        sol = bc.solve_system(sys_)
        sb = bc.solve_second_best(bc.to_problem_instance(sys_), "H")
        assert max(abs(a - b) for a, b in zip(sol.wages, sb.wages)) <= 1e-6
        assert bc.classify_monotonicity(sol.wages).value == "increasing"


class TestMultipliers:
    def test_equal_wages_formula(self):
        # principal weight on the low state below the agent's so the formula
        # value is non-negative and gets returned rather than raised
        sys_ = bc.CaraSystem(D(0.2, 0.3, 0.5), D(0.5, 0.3, 0.2), D(0.15, 0.35, 0.5),
                             0.6, -1.5)
        w = 1.3
        lam, mu = bc.multipliers(sys_, (w, w, w))
        assert lam == pytest.approx(math.exp(w))
        p, pi = sys_.principal.probs, sys_.pi_high.probs
        expect = math.exp(w) * (p[0] - pi[0]) / sys_.delta.values[0]
        assert mu == pytest.approx(expect)

    def test_homogeneous_beliefs_give_zero_mu(self):
        sys_ = bc.CaraSystem(D(0.2, 0.3, 0.5), D(0.5, 0.3, 0.2), D(0.2, 0.3, 0.5),
                             0.6, -1.5)
        lam, mu = bc.multipliers(sys_, (1.0, 1.0, 1.0))
        assert mu == pytest.approx(0.0, abs=1e-12)

    def test_off_solution_wages_are_flagged(self):
        sys_ = toy_system()
        sol = bc.solve_system(sys_)
        bad = (sol.wages[0] + 0.2, sol.wages[1], sol.wages[2])
        lam, mu = bc.multipliers(sys_, bad)
        foc, ir, ic = bc.cara.residuals(sys_, bad, lam, mu)
        assert max(abs(ir), abs(ic), max(abs(f) for f in foc)) > 1e-3

    def test_negative_mu_regime_raises(self):
        # principal extremely optimistic about the low state: incentive
        # constraint slack, binding closed form does not apply
        sys_ = bc.CaraSystem(D(0.2, 0.3, 0.5), D(0.5, 0.3, 0.2), D(0.9, 0.06, 0.04),
                             0.3, -1.5)
        sb = bc.solve_second_best(bc.to_problem_instance(sys_), "H")
        if sb.coincides_with_first_best:
            w1 = bc.solve_w1(sys_)
            wages = (w1, bc.w2_from_w1(sys_, w1), bc.w3_from_w1(sys_, w1))
            with pytest.raises(bc.NegativeMu):
                bc.multipliers(sys_, wages)


class TestCompstat:
    def test_zero_eps_is_baseline(self):
        sys_ = toy_system()
        sweep = bc.cara_compstat(sys_, 1, 2, [0.0])
        baseline = bc.solve_system(sys_)
        assert sweep.wages[0] == pytest.approx(baseline.wages, abs=1e-10)

    def test_middle_top_reallocation_directions(self):
        sys_ = toy_system()
        sweep = bc.cara_compstat(sys_, 1, 2, np.linspace(0.0, 0.12, 10))
        assert sweep.s_non_increasing
        assert sweep.s_prime_non_decreasing
        assert sweep.strict_steps >= 1
        assert sweep.third_state == 0

    def test_first_best_control_keeps_low_state_flat(self):
        sys_ = toy_system()
        inst = bc.to_problem_instance(sys_)
        grid = np.linspace(0.0, 0.12, 10)
        fb = bc.sweep(inst, "H", bc.Party.PRINCIPAL, "H", 1, 2, grid,
                      bc.SolverKind.FIRST_BEST)
        sb = bc.sweep(inst, "H", bc.Party.PRINCIPAL, "H", 1, 2, grid,
                      bc.SolverKind.SECOND_BEST)
        assert fb.verdicts[0].value == "flat"
        assert sb.verdicts[0].value != "flat"

    def test_eps_leaving_simplex(self):
        with pytest.raises(bc.EpsilonTooLarge):
            bc.cara_compstat(toy_system(), 1, 2, [0.3])

    def test_eps_may_exceed_the_gaining_probability(self):
        # principal (0.4, 0.35, 0.25): moving 0.3 from state 0 onto state 2
        # keeps the open simplex, so the sweep runs
        sys_ = toy_system()
        sweep = bc.cara_compstat(sys_, 2, 0, [0.0, 0.25, 0.3])
        assert len(sweep.wages) == 3
        tilted = bc.CaraSystem(sys_.pi_high, sys_.pi_low, sys_.principal.tilted(2, 0, 0.3),
                               sys_.cost, sys_.ubar)
        numeric = bc.solve_second_best(bc.to_problem_instance(tilted), "H")
        assert sweep.wages[-1] == pytest.approx(numeric.wages, abs=1e-6)

    def test_empty_grid_is_refused_before_any_solve(self, monkeypatch):
        from beliefcontracts import cara
        monkeypatch.setattr(cara, "solve_w1", None)   # any solve would fail
        with pytest.raises(bc.ValidationError):
            bc.cara_compstat(toy_system(), 1, 2, [])

    @pytest.mark.parametrize("eps", [0.4, 0.5, -0.01])
    def test_eps_leaving_the_simplex_or_negative_is_refused(self, eps):
        with pytest.raises(bc.EpsilonTooLarge):
            bc.cara_compstat(toy_system(), 2, 0, [0.0, eps])

    def test_the_system_is_validated_once_and_no_residual_is_computed(self, monkeypatch):
        # each eps solves on the validated system's constants; the sweep reports no residuals
        from beliefcontracts import cara
        sys_ = toy_system()
        grid = np.linspace(0.0, 0.2, 21)
        reference = [bc.solve_system(bc.CaraSystem(sys_.pi_high, sys_.pi_low,
                                                   sys_.principal.tilted(1, 2, e),
                                                   sys_.cost, sys_.ubar))
                     for e in grid]

        def refuse(*args):
            raise AssertionError("cara_compstat re-validated a system or computed residuals")

        monkeypatch.setattr(cara.CaraSystem, "__post_init__", refuse)
        monkeypatch.setattr(cara, "residuals", refuse)
        sweep = bc.cara_compstat(sys_, 1, 2, grid)
        assert sweep.wages == tuple(sol.wages for sol in reference)
        assert sweep.lam_path == tuple(sol.lam for sol in reference)
        assert sweep.mu_path == tuple(sol.mu for sol in reference)

    def test_no_derived_constant_reads_the_principal(self):
        # cara_compstat's tilted copies share these constants, so none may read principal
        from functools import cached_property

        from beliefcontracts import cara

        class Unreadable:
            def __getattr__(self, name):
                raise AssertionError(f"a derived constant read principal.{name}")

        sys_ = toy_system()
        cached = {name for name, attr in vars(cara.CaraSystem).items()
                  if isinstance(attr, cached_property)}
        assert cached == set(cara._CONSTANTS)
        blind = copy.copy(sys_)
        for name in cached:
            blind.__dict__.pop(name, None)
        object.__setattr__(blind, "principal", Unreadable())
        for name in cara._CONSTANTS:
            assert getattr(blind, name) == getattr(sys_, name)
