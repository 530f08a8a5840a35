"""Distribution types, likelihood-ratio ordering, reduction, and cross terms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beliefcontracts as bc
from beliefcontracts import MlrpOrder
from support import mlrp_compare_reference, mlrp_pair, mlrp_strict_reference

D = lambda *p: bc.Distribution(tuple(p))


class TestDistribution:
    def test_rejects_short(self):
        with pytest.raises(bc.ValidationError):
            bc.Distribution((1.0,))

    def test_rejects_negative(self):
        with pytest.raises(bc.ValidationError):
            D(-0.1, 1.1)

    def test_rejects_off_simplex_without_renormalizing(self):
        with pytest.raises(bc.ValidationError):
            D(0.5, 0.49)

    def test_accepts_zeros(self):
        D(0.0, 1.0)


class TestTilt:
    def test_moves_mass_onto_s(self):
        p = D(0.2, 0.3, 0.5)
        assert p.tilted(0, 2, 0.1).probs == (0.2 + 0.1, 0.3, 0.5 - 0.1)
        assert p.tilted(0, 2, -0.1).probs == (0.2 - 0.1, 0.3, 0.5 + 0.1)

    def test_open_simplex_is_the_only_eps_limit(self):
        p = D(0.2, 0.3, 0.5)
        assert p.tilted(0, 2, 0.45).probs[0] == pytest.approx(0.65)
        for eps in (0.5, 0.6, -0.2, float("nan")):
            with pytest.raises(bc.EpsilonTooLarge):
                p.tilted(0, 2, eps)

    @pytest.mark.parametrize("s, s_prime", [(1, 1), (0, 3), (-1, 2)])
    def test_needs_two_distinct_states(self, s, s_prime):
        with pytest.raises(bc.ValidationError):
            D(0.2, 0.3, 0.5).tilted(s, s_prime, 0.01)

    def test_instance_tilt_touches_one_vector(self):
        inst = bc.ProblemInstance(
            (1.0, 2.0, 3.0),
            (bc.ActionSpec("H", 0.5, D(0.2, 0.3, 0.5), D(0.1, 0.3, 0.6)),
             bc.ActionSpec("L", 0.0, D(0.4, 0.3, 0.3), D(0.5, 0.3, 0.2))),
            -1.0, bc.CaraUtility(r=1.0))
        agent = inst.tilted(bc.Party.AGENT, "L", 1, 0, 0.05)
        assert agent.action("L").agent_beliefs == D(0.5, 0.3, 0.2).tilted(1, 0, 0.05)
        assert agent.action("L").principal_beliefs == inst.action("L").principal_beliefs
        assert agent.action("H") == inst.action("H")
        principal = inst.tilted(bc.Party.PRINCIPAL, "H", 2, 0, 0.1)
        assert principal.action("H").principal_beliefs.probs == pytest.approx((0.1, 0.3, 0.6))
        assert principal.action("H").agent_beliefs == inst.action("H").agent_beliefs
        with pytest.raises(bc.ValidationError):
            inst.tilted(bc.Party.AGENT, "M", 1, 0, 0.05)

    def test_enums_live_next_to_the_tilt(self):
        from beliefcontracts import beliefs, compstat
        assert compstat.Party is beliefs.Party is bc.Party
        assert compstat.SolverKind is beliefs.SolverKind is bc.SolverKind
        assert not hasattr(bc.oracle, "FIRST_BEST")


class TestMlrpCompare:
    def test_increasing_ratios_dominate(self):
        assert bc.mlrp_compare(D(0.1, 0.3, 0.6), D(0.6, 0.3, 0.1)) is MlrpOrder.F_DOMINATES_G

    def test_identical_are_equal(self):
        assert bc.mlrp_compare(D(0.5, 0.5), D(0.5, 0.5)) is MlrpOrder.EQUAL

    def test_cross_products_fail_both_ways(self):
        assert bc.mlrp_compare(D(0.5, 0.0, 0.5), D(0.0, 1.0, 0.0)) is MlrpOrder.INCOMPARABLE

    def test_length_mismatch(self):
        with pytest.raises(bc.LengthMismatch):
            bc.mlrp_compare(D(0.5, 0.5), D(0.2, 0.3, 0.5))

    def test_strict_flag(self):
        assert bc.mlrp_strict(D(0.1, 0.3, 0.6), D(0.6, 0.3, 0.1))
        assert not bc.mlrp_strict(D(0.5, 0.5), D(0.5, 0.5))

    def test_random_pairs_ordered_and_imply_fosd(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            f, g = mlrp_pair(rng, int(rng.integers(2, 6)))
            assert bc.mlrp_compare(f, g) is MlrpOrder.F_DOMINATES_G
            # MLRP implies first-order stochastic dominance: lower cdf everywhere
            cf = np.cumsum(f.as_array())
            cg = np.cumsum(g.as_array())
            assert np.all(cf <= cg + 1e-12)

    def test_matches_the_reference(self):
        # seeded pairs of every kind at S = 2..10: ordered both ways, equal,
        # equal up to one rounding, independent, and with zero entries
        rng = np.random.default_rng(101)
        kinds = set()
        for k in range(900):
            S = 2 + k % 9
            g_arr = rng.dirichlet(np.ones(S))
            f_arr = g_arr * np.cumprod(rng.uniform(1.0, 1.5, S))
            f, g = D(*(f_arr / f_arr.sum())), D(*g_arr)
            case = k // 9 % 5
            if case == 1:
                f, g = g, f
            elif case == 2:
                g = f if k % 2 else D(*f.probs[:-1], 1.0 - sum(f.probs[:-1]))
            elif case == 3:
                f = D(*rng.dirichlet(np.ones(S)))
            elif case == 4:
                p = rng.dirichlet(np.ones(S)) * (rng.random(S) < 0.6)
                f = D(*(p / p.sum())) if p.sum() > 0 else f
                g = D(*rng.dirichlet(np.ones(S))) if k % 2 else f
            order = bc.mlrp_compare(f, g)
            kinds.add(order)
            assert order is mlrp_compare_reference(f, g), k
            assert bc.mlrp_strict(f, g) is mlrp_strict_reference(f, g), k
            assert bc.mlrp_strict(g, f) is mlrp_strict_reference(g, f), k
        assert kinds == set(MlrpOrder)
        with pytest.raises(bc.LengthMismatch):
            bc.mlrp_strict(D(0.5, 0.5), D(0.2, 0.3, 0.5))


@st.composite
def simplex_pairs(draw):
    S = draw(st.integers(2, 5))
    raw_f = draw(st.lists(st.floats(0.01, 1.0), min_size=S, max_size=S))
    raw_g = draw(st.lists(st.floats(0.01, 1.0), min_size=S, max_size=S))
    f = np.asarray(raw_f) / np.sum(raw_f)
    g = np.asarray(raw_g) / np.sum(raw_g)
    return bc.Distribution(tuple(f)), bc.Distribution(tuple(g))


@given(simplex_pairs())
@settings(max_examples=200, deadline=None)
def test_mlrp_antisymmetric(pair):
    f, g = pair
    fwd = bc.mlrp_compare(f, g)
    bwd = bc.mlrp_compare(g, f)
    flip = {MlrpOrder.F_DOMINATES_G: MlrpOrder.G_DOMINATES_F,
            MlrpOrder.G_DOMINATES_F: MlrpOrder.F_DOMINATES_G}
    assert bwd is flip.get(fwd, fwd)


class TestReduce:
    def test_lumps_tail(self):
        assert bc.reduce_distribution(D(0.1, 0.2, 0.3, 0.4), 3).probs == (0.1, 0.2, 0.7)

    def test_identity_at_full_length(self):
        assert bc.reduce_distribution(D(0.5, 0.5), 2).probs == (0.5, 0.5)

    def test_lump_to_two(self):
        assert bc.reduce_distribution(D(0.25, 0.25, 0.25, 0.25), 2).probs == (0.25, 0.75)

    @pytest.mark.parametrize("keep", [1, 5, 0])
    def test_out_of_range(self, keep):
        with pytest.raises(bc.InvalidReduction):
            bc.reduce_distribution(D(0.25, 0.25, 0.25, 0.25), keep)

    def test_preserves_order_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            S = int(rng.integers(3, 7))
            f, g = mlrp_pair(rng, S)
            for keep in range(2, S + 1):
                rf = bc.reduce_distribution(f, keep)
                rg = bc.reduce_distribution(g, keep)
                assert bc.mlrp_compare(rf, rg) in (MlrpOrder.F_DOMINATES_G, MlrpOrder.EQUAL)


class TestDeltaAndKappa:
    A = lambda self, cost, p, q: bc.ActionSpec("x", cost, D(*p), D(*q))

    def test_delta_two_state(self):
        d = bc.delta_vector(self.A(1, (0.5, 0.5), (0.25, 0.75)),
                            self.A(0, (0.5, 0.5), (0.75, 0.25)))
        assert d.values == (-0.5, 0.5)

    def test_delta_zero_for_identical(self):
        d = bc.delta_vector(self.A(1, (0.5, 0.5), (0.3, 0.7)),
                            self.A(0, (0.5, 0.5), (0.3, 0.7)))
        assert d.values == (0.0, 0.0)

    def test_delta_three_state(self):
        d = bc.delta_vector(self.A(1, (0.3, 0.3, 0.4), (0.2, 0.3, 0.5)),
                            self.A(0, (0.3, 0.3, 0.4), (0.5, 0.3, 0.2)))
        assert d.values == pytest.approx((-0.3, 0.0, 0.3))

    def test_kappa_two_state(self):
        hi = D(0.25, 0.75)
        d = bc.DeltaVector((-0.5, 0.5))
        assert bc.kappa(d, hi, 1, 0) == pytest.approx(0.5)

    def test_kappa_zero_for_equal_beliefs(self):
        assert bc.kappa(bc.DeltaVector((0.0, 0.0)), D(0.3, 0.7), 1, 0) == 0.0

    def test_kappa_three_state(self):
        hi = D(0.2, 0.3, 0.5)
        d = bc.DeltaVector((-0.3, 0.0, 0.3))
        assert bc.kappa(d, hi, 2, 0) == pytest.approx(0.21)

    def test_kappa_index_order(self):
        with pytest.raises(bc.IndexOrder):
            bc.kappa(bc.DeltaVector((-0.5, 0.5)), D(0.25, 0.75), 0, 1)

    def test_kappa_positive_under_strict_order(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            S = int(rng.integers(2, 6))
            f, g = mlrp_pair(rng, S)
            hi = bc.ActionSpec("h", 1.0, f, f)
            lo = bc.ActionSpec("l", 0.0, g, g)
            d = bc.delta_vector(hi, lo)
            for s_lo in range(S):
                for s_hi in range(s_lo + 1, S):
                    assert bc.kappa(d, f, s_hi, s_lo) > 0


class TestProblemInstance:
    def test_outputs_must_increase(self):
        with pytest.raises(bc.ValidationError):
            bc.ProblemInstance((2.0, 1.0),
                               (bc.ActionSpec("a", 0.0, D(0.5, 0.5), D(0.5, 0.5)),),
                               0.0, bc.LogUtility())

    def test_reservation_outside_family_range(self):
        with pytest.raises(bc.ValidationError):
            bc.ProblemInstance((1.0, 2.0),
                               (bc.ActionSpec("a", 0.5, D(0.5, 0.5), D(0.5, 0.5)),),
                               -0.2, bc.CaraUtility())  # ubar + c = 0.3 >= 0

    def test_tied_costs_warn_but_pass(self):
        with pytest.warns(UserWarning):
            bc.ProblemInstance(
                (1.0, 2.0),
                (bc.ActionSpec("a", 0.5, D(0.5, 0.5), D(0.5, 0.5)),
                 bc.ActionSpec("b", 0.5, D(0.5, 0.5), D(0.25, 0.75))),
                0.1, bc.LogUtility())
