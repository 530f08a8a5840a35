"""Spread decomposition of the 4-outcome problem."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beliefcontracts as bc
from support import four_state_spread_draw, grid_around, optimistic_agent_spread

D = lambda *p: bc.Distribution(tuple(p))


def chain_instance():
    return bc.ProblemInstance(
        outputs=(1.0, 2.0, 3.0, 4.0),
        actions=(
            bc.ActionSpec("H", 0.6, D(0.28, 0.27, 0.25, 0.20), D(0.16, 0.22, 0.28, 0.34)),
            bc.ActionSpec("L", 0.0, D(0.40, 0.30, 0.18, 0.12), D(0.40, 0.30, 0.18, 0.12)),
        ),
        reservation_utility=-1.5,
        utility=bc.CaraUtility(r=1.0),
    )


def degenerate_top_instance():
    # the 4th state carries no probability for anyone
    return bc.ProblemInstance(
        outputs=(1.0, 2.0, 3.0, 4.0),
        actions=(
            bc.ActionSpec("H", 0.6, D(0.35, 0.33, 0.32, 0.0), D(0.2, 0.3, 0.5, 0.0)),
            bc.ActionSpec("L", 0.0, D(0.5, 0.3, 0.2, 0.0), D(0.5, 0.3, 0.2, 0.0)),
        ),
        reservation_utility=-1.5,
        utility=bc.CaraUtility(r=1.0),
    )


class TestSpreadProblem:
    def test_requires_four_states(self):
        inst = bc.ProblemInstance(
            (1.0, 2.0),
            (bc.ActionSpec("H", 1.0, D(0.25, 0.75), D(0.25, 0.75)),
             bc.ActionSpec("L", 0.0, D(0.75, 0.25), D(0.75, 0.25))),
            0.0, bc.LogUtility())
        with pytest.raises(bc.ValidationError):
            bc.SpreadProblem(inst, "H")

    def test_requires_ordering_chain(self):
        inst = bc.ProblemInstance(
            outputs=(1.0, 2.0, 3.0, 4.0),
            actions=(
                bc.ActionSpec("H", 0.6, D(0.12, 0.40, 0.20, 0.28), D(0.16, 0.22, 0.28, 0.34)),
                bc.ActionSpec("L", 0.0, D(0.4, 0.3, 0.18, 0.12), D(0.4, 0.3, 0.18, 0.12)),
            ),
            reservation_utility=-1.5,
            utility=bc.CaraUtility(r=1.0),
        )  # agent and principal target beliefs incomparable
        with pytest.raises(bc.ValidationError):
            bc.SpreadProblem(inst, "H")

    def test_reduction_lumps_the_top(self):
        sp = bc.SpreadProblem(chain_instance(), "H")
        assert sp.reduced_pi == pytest.approx((0.16, 0.22, 0.62))
        assert sp.reduced_delta == pytest.approx((0.28, 0.27, 0.45))

    def test_derived_data_is_built_once_per_instance(self, monkeypatch):
        # the walk reads the beliefs at every probe and trace row; construction builds them
        from beliefcontracts import iterative
        sp = bc.SpreadProblem(chain_instance(), "H")

        def refuse(*args):
            raise AssertionError("a reduced belief vector was rebuilt")

        monkeypatch.setattr(iterative, "reduce_distribution", refuse)
        out = bc.outer_minimize(sp)
        assert len(out.trace) > 2
        assert not sp.pi4.flags.writeable and not sp.reduced_delta.flags.writeable


class TestPaymentGap:
    def test_zero_spread(self):
        assert bc.payment_gap(bc.CaraUtility(r=1.0), 1.2, 0.0) == pytest.approx(0.0)

    def test_exponential_exact_inversion(self):
        m = math.exp(-1.0) - math.exp(-2.0)   # u(2) - u(1)
        assert bc.payment_gap(bc.CaraUtility(r=1.0), 1.0, m) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(bc.RangeError):
            bc.payment_gap(bc.CaraUtility(r=1.0), 1.0, 1.0)   # u(1)+1 > 0

    @given(st.floats(0.4, 3.0), st.floats(0.01, 0.2), st.floats(0.01, 0.2))
    @settings(max_examples=60, deadline=None)
    def test_increasing_and_convex_in_spread(self, w3, m1, dm):
        model = bc.CaraUtility(r=1.0)
        m2 = m1 + dm
        cap = -float(model.evaluate(w3))
        if m2 >= 0.95 * cap:
            return
        lo = bc.payment_gap(model, w3, m1)
        hi = bc.payment_gap(model, w3, m2)
        mid = bc.payment_gap(model, w3, 0.5 * (m1 + m2))
        assert hi > lo
        assert mid <= 0.5 * (lo + hi) + 1e-12


class TestInnerCost:
    def test_degenerate_top_state_equals_plain_three_state(self):
        inst = degenerate_top_instance()
        sp = bc.SpreadProblem(inst, "H")
        inner = bc.inner_cost(sp, 0.0)
        three = bc.ProblemInstance(
            outputs=(1.0, 2.0, 3.0),
            actions=(
                bc.ActionSpec("H", 0.6, D(0.35, 0.33, 0.32), D(0.2, 0.3, 0.5)),
                bc.ActionSpec("L", 0.0, D(0.5, 0.3, 0.2), D(0.5, 0.3, 0.2)),
            ),
            reservation_utility=-1.5,
            utility=bc.CaraUtility(r=1.0),
        )
        sol = bc.solve_second_best(three, "H")
        assert inner.wages == pytest.approx(sol.wages, abs=1e-6)
        assert inner.cost == pytest.approx(sol.expected_cost_principal, abs=1e-7)

    def test_cost_decreasing_with_envelope_slope(self):
        sp = bc.SpreadProblem(chain_instance(), "H")
        ms = np.linspace(0.0, 0.6, 7)
        costs = [bc.inner_cost(sp, m).cost for m in ms]
        assert all(b < a for a, b in zip(costs, costs[1:]))
        for m in ms[1:-1]:
            inner = bc.inner_cost(sp, float(m))
            assert bc.envelope_derivative(sp, inner) < 0

    def test_envelope_matches_finite_differences(self):
        sp = bc.SpreadProblem(chain_instance(), "H")
        eps = 1e-4
        for m in (0.05, 0.2, 0.45):
            inner = bc.inner_cost(sp, m)
            fd = (bc.inner_cost(sp, m + eps).cost - bc.inner_cost(sp, m - eps).cost) / (2 * eps)
            assert abs(fd - bc.envelope_derivative(sp, inner)) <= 1e-5


class TestOuter:
    def test_degenerate_top_state_returns_zero_spread(self):
        # the 4th state carries no probability for anyone: objective constant
        sp = bc.SpreadProblem(degenerate_top_instance(), "H")
        out = bc.outer_minimize(sp)
        assert out.m_star == 0.0
        assert out.wages[3] == pytest.approx(out.wages[2])
        three = bc.solve_second_best(
            bc.ProblemInstance(
                (1.0, 2.0, 3.0),
                (bc.ActionSpec("H", 0.6, D(0.35, 0.33, 0.32), D(0.2, 0.3, 0.5)),
                 bc.ActionSpec("L", 0.0, D(0.5, 0.3, 0.2), D(0.5, 0.3, 0.2))),
                -1.5, bc.CaraUtility(r=1.0)), "H")
        assert out.cost_total == pytest.approx(three.expected_cost_principal, abs=1e-7)

    def test_matches_direct_solve(self):
        sp = bc.SpreadProblem(chain_instance(), "H")
        rep = bc.equivalence_report(sp)
        assert abs(rep.cost_delta) <= 1e-8
        assert rep.max_wage_delta <= 1e-6
        assert abs(rep.lam_delta) <= 1e-6
        assert abs(rep.mu_delta) <= 1e-6
        assert abs(rep.outer_foc_residual) <= 1e-6

    def test_slack_incentive_constraint_at_every_spread(self):
        # an agent sufficiently more optimistic than the principal: risk
        # sharing already gives incentives, in both inner programs and in the
        # direct solve, and the decomposition still reproduces the latter
        from beliefcontracts.iterative import _pinned_inner
        sp = optimistic_agent_spread()
        for m in (0.0, 0.2, 0.5, 1.0):
            for inner in (bc.inner_cost(sp, m), _pinned_inner(sp, m)):
                assert inner.ic_binding is False
                assert inner.mu == 0.0
        rep = bc.equivalence_report(sp)
        assert abs(rep.cost_delta) <= 1e-8
        assert rep.max_wage_delta <= 1e-6
        assert abs(rep.lam_delta) <= 1e-6
        assert abs(rep.mu_delta) <= 1e-6
        assert abs(rep.outer_foc_residual) <= 1e-6
        assert bc.solve_second_best(sp.base, "H").coincides_with_first_best

    def test_random_draws_match_direct(self):
        rng = np.random.default_rng(51)
        for _ in range(8):
            sp = four_state_spread_draw(rng)
            rep = bc.equivalence_report(sp)
            assert abs(rep.cost_delta) <= 1e-8
            assert rep.max_wage_delta <= 1e-6

    def test_root_of_the_spread_multiplier_in_few_solves(self, monkeypatch):
        # G'(m) is the spread multiplier nu: Newton steps on it with the exact
        # slope nu'(m) need at most 6 pinned solves on these draws (the step
        # doubling and Illinois search they replaced took 8 to 11), log one
        # trace row per solve and leave the outer first-order residual (which
        # is nu) at rounding level
        from beliefcontracts import iterative
        solves = []
        pinned = iterative._pinned_inner
        monkeypatch.setattr(iterative, "_pinned_inner",
                            lambda *a: solves.append(a[1]) or pinned(*a))
        rng = np.random.default_rng(51)
        draws = [bc.SpreadProblem(chain_instance(), "H")]
        draws += [four_state_spread_draw(rng) for _ in range(8)]
        for sp in draws:
            solves.clear()
            out = bc.outer_minimize(sp)
            assert [row[0] for row in out.trace] == solves
            assert len(out.trace) <= 6
            assert abs(out.outer_foc_residual) <= 1e-10

    def test_refused_probe_steps_back_toward_the_last_feasible_spread(self, monkeypatch):
        # pretend the pinned program is infeasible beyond an edge placed
        # between m* and the first Newton probe -nu(0) / nu'(0), on the first
        # seeded draw whose first probe overshoots m*
        from beliefcontracts import iterative
        pinned = iterative._pinned_inner
        rng = np.random.default_rng(51)
        for _ in range(20):
            sp = four_state_spread_draw(rng)
            direct = bc.solve_second_best(sp.base, "H")
            m_direct = direct.utility_levels[3] - direct.utility_levels[2]
            first_probe = bc.outer_minimize(sp).trace[1][0]     # m = 0, then the probe
            if first_probe > m_direct > 0.0:
                break
        else:
            pytest.fail("no draw whose first Newton probe overshoots m*")
        edge = 0.5 * (m_direct + first_probe)
        refused = []

        def edged(sp, m):
            if m > edge:
                refused.append(m)
                raise bc.Infeasible("beyond the test's feasibility edge")
            return pinned(sp, m)

        monkeypatch.setattr(iterative, "_pinned_inner", edged)
        out = bc.outer_minimize(sp)
        assert refused and abs(out.m_star - m_direct) <= 1e-9 and out.m_star < edge
        assert max(row[0] for row in out.trace) <= edge
        assert abs(out.cost_total - direct.expected_cost_principal) <= 1e-12
        assert abs(out.outer_foc_residual) <= 1e-10

    def test_no_admissible_spread_is_no_bracket(self, monkeypatch):
        from beliefcontracts import iterative
        pinned = iterative._pinned_inner

        def only_zero(sp, m):
            if m != 0.0:
                raise bc.Infeasible("only m = 0 is admissible here")
            return pinned(sp, m)

        monkeypatch.setattr(iterative, "_pinned_inner", only_zero)
        with pytest.raises(bc.NoBracket):
            bc.outer_minimize(bc.SpreadProblem(chain_instance(), "H"))

    def test_cost_decomposition_identity(self):
        sp = bc.SpreadProblem(chain_instance(), "H")
        out = bc.outer_minimize(sp)
        w = out.wages
        lumped = float(sp.reduced_delta @ np.array([w[0], w[1], w[2]]))
        top = float(sp.delta4[3]) * out.top_payment
        full = float(sp.delta4 @ np.asarray(w))
        assert lumped + top == pytest.approx(full, abs=1e-12)
        assert out.cost_total == pytest.approx(full, abs=1e-9)

    def test_direct_solve_cross_checked_by_grid_oracle(self):
        sp = bc.SpreadProblem(chain_instance(), "H")
        sol = bc.solve_second_best(sp.base, "H")
        grid = grid_around(sp.base, sol.utility_levels, 70)
        res = bc.brute_force_min(sp.base, "H", grid)
        assert abs(res.cost - sol.expected_cost_principal) <= \
            bc.cell_cost_variation(sp.base, "H", grid)

    def test_trace_rows_are_consistent(self):
        sp = bc.SpreadProblem(chain_instance(), "H")
        out = bc.outer_minimize(sp)
        for m, lumped, top, total in out.trace:
            assert total == pytest.approx(lumped + top, abs=1e-9)

    def test_outer_objective_midpoint_convexity(self):
        from beliefcontracts.iterative import _pinned_inner
        sp = bc.SpreadProblem(chain_instance(), "H")
        rng = np.random.default_rng(52)
        for _ in range(10):
            m1, m2 = sorted(rng.uniform(0.0, 0.8, 2))
            g1 = _pinned_inner(sp, float(m1)).cost_total
            g2 = _pinned_inner(sp, float(m2)).cost_total
            mid = _pinned_inner(sp, float(0.5 * (m1 + m2))).cost_total
            assert mid <= 0.5 * (g1 + g2) + 1e-10


def nu_slope(sp, inner) -> float:
    """nu'(m) from ``kernel.sensitivity`` on the pinned solve's own rows, the
    spread's level moving, as ``outer_minimize`` takes it."""
    from beliefcontracts.iterative import _SPREAD_ROW
    keep = [0, 1, 2] if inner.ic_binding else [0, 2]
    M = np.vstack([sp.pi4, sp.pi4 - sp.eta4, _SPREAD_ROW])[keep]
    theta = np.array([inner.lam, inner.mu, inner.nu])[keep]
    _, dtheta = bc.kernel.sensitivity(sp.delta4, M, theta, inner.v, sp.base.utility,
                                      d_r=np.eye(len(keep))[-1])
    return float(dtheta[-1])


class TestSpreadMultiplierSlope:
    """nu'(m) = [J^-1]_nu,nu from the pinned solve's own rows, against a
    central difference of nu across the same working set."""

    H = 1e-5

    def _compare(self, sp, ms):
        from beliefcontracts.iterative import _pinned_inner
        checked = {True: 0, False: 0}
        for m in ms:
            try:
                lo, mid, hi = (_pinned_inner(sp, m + dm) for dm in (-self.H, 0.0, self.H))
            except bc.BeliefContractsError:
                continue              # outside the admissible spreads of this draw
            assert lo.ic_binding is mid.ic_binding is hi.ic_binding
            fd = (hi.nu - lo.nu) / (2.0 * self.H)
            assert nu_slope(sp, mid) == pytest.approx(fd, rel=1e-6)
            checked[mid.ic_binding] += 1
        return checked

    def test_binding_incentive_row(self):
        rng = np.random.default_rng(53)
        checked = 0
        for _ in range(6):
            counts = self._compare(four_state_spread_draw(rng), (-0.2, 0.0, 0.3, 0.8))
            assert counts[False] == 0
            checked += counts[True]
        assert checked >= 18

    def test_slack_incentive_row(self):
        # a small effort cost leaves the incentive row slack at every spread
        import dataclasses
        rng = np.random.default_rng(54)
        draws = [optimistic_agent_spread()]
        for _ in range(5):
            inst = four_state_spread_draw(rng, require_binding=False).base
            cheap = dataclasses.replace(inst.action("H"), cost=0.02)
            draws.append(bc.SpreadProblem(
                dataclasses.replace(inst, actions=(cheap,) + inst.actions[1:]), "H"))
        for sp in draws:
            assert self._compare(sp, (0.0, 0.3, 0.8)) == {True: 0, False: 3}
