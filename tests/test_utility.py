"""Closed-form utility families: exact values, inverses, derivatives, shape."""

import math

import numpy as np
import pytest

import beliefcontracts as bc

ALL_MODELS = [
    bc.CaraUtility(r=1.0),
    bc.CaraUtility(r=2.5),
    bc.LogUtility(),
    bc.CrraUtility(gamma=0.5),
    bc.CrraUtility(gamma=2.0),
    bc.SqrtUtility(),
]


def sample_wages(model, n=25):
    lo, hi = model.wage_domain
    a = lo + 0.05 if np.isfinite(lo) else -3.0
    b = min(hi, 8.0) if np.isfinite(hi) else 8.0
    if lo == 0.0:
        a = 0.05
    return np.linspace(a, b, n)


def sample_utils(model, n=25):
    """Utility levels comfortably inside the range (h is steep at its edges)."""
    lo, hi = model.utility_range
    a = lo + 0.3 if np.isfinite(lo) else -4.0
    b = hi - 0.3 if np.isfinite(hi) else 4.0
    return np.linspace(a, b, n)


def test_cara_evaluate_matches_formula():
    m = bc.CaraUtility(r=1.0)
    assert m.evaluate(3.0) == pytest.approx(-math.exp(-3.0), abs=1e-15)


def test_log_inverse_at_zero():
    assert bc.LogUtility().inverse(0.0) == pytest.approx(1.0, abs=1e-15)


def test_cara_inverse_marginal():
    m = bc.CaraUtility(r=1.0)
    assert m.inverse_marginal(math.exp(-2.0)) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: repr(m))
class TestFamilyShape:
    def test_inverse_round_trip(self, model):
        for w in sample_wages(model):
            v = model.evaluate(w)
            assert model.inverse(v) == pytest.approx(w, abs=1e-10)
            assert model.inverse_marginal(model.marginal(w)) == pytest.approx(w, abs=1e-10)

    def test_marginal_matches_finite_differences(self, model):
        eps = 1e-5
        for w in sample_wages(model)[1:-1]:
            fd = (model.evaluate(w + eps) - model.evaluate(w - eps)) / (2 * eps)
            mval = model.marginal(w)
            assert abs(mval - fd) <= 1e-6 * max(1.0, abs(mval))

    def test_inverse_derivative_matches_finite_differences(self, model):
        eps = 1e-5
        for v in sample_utils(model):
            fd = (model.inverse(v + eps) - model.inverse(v - eps)) / (2 * eps)
            hp = model.inverse_derivative(v)
            assert abs(hp - fd) <= 1e-6 * max(1.0, abs(hp))

    def test_concave_u_convex_h(self, model):
        ws = sample_wages(model)
        for a, b in zip(ws[:-5], ws[5:]):
            mid_u = model.evaluate(0.5 * (a + b))
            assert mid_u >= 0.5 * (model.evaluate(a) + model.evaluate(b)) - 1e-12
            va, vb = model.evaluate(a), model.evaluate(b)
            mid_h = model.inverse(0.5 * (va + vb))
            assert mid_h >= model.inverse(0.5 * va + 0.5 * vb) - 1e-12
            assert 0.5 * (model.inverse(va) + model.inverse(vb)) >= mid_h - 1e-12

    def test_curvature_signs(self, model):
        for w in sample_wages(model):
            assert model.marginal(w) > 0
            assert model.second_derivative(w) < 0
            v = model.evaluate(w)
            assert model.inverse_derivative(v) > 0
            assert model.inverse_second_derivative(v) > 0


class TestDomainErrors:
    def test_log_rejects_nonpositive_wage(self):
        with pytest.raises(bc.DomainError):
            bc.LogUtility().evaluate(0.0)

    def test_cara_inverse_rejects_nonnegative_utility(self):
        with pytest.raises(bc.DomainError):
            bc.CaraUtility().inverse(0.0)

    def test_sqrt_rejects_negative_utility(self):
        with pytest.raises(bc.DomainError):
            bc.SqrtUtility().inverse(-1.0)

    def test_inverse_marginal_rejects_nonpositive(self):
        with pytest.raises(bc.DomainError):
            bc.LogUtility().inverse_marginal(0.0)


class TestDomainTightening:
    def test_tightened_domain_enforced(self):
        m = bc.LogUtility(domain=(1.0, 5.0))
        with pytest.raises(bc.DomainError):
            m.evaluate(0.5)
        assert m.utility_range == (0.0, math.log(5.0))

    def test_cannot_widen(self):
        with pytest.raises(bc.ValidationError):
            bc.LogUtility(domain=(-1.0, 5.0))


class TestFactory:
    def test_round_trip_names(self):
        assert bc.utility_from_name("cara", {"r": 2.0}).r == 2.0
        assert bc.utility_from_name("crra", {"gamma": 3.0}).gamma == 3.0
        assert bc.utility_from_name("log").family == "log"
        assert bc.utility_from_name("sqrt").family == "sqrt"

    def test_unknown_family_lists_supported(self):
        with pytest.raises(bc.ParseError, match="cara"):
            bc.utility_from_name("quadratic")


class TestTabulated:
    def make(self):
        w = np.linspace(0.5, 6.0, 40)
        return bc.TabulatedUtility(w, np.log(w))

    def test_tracks_samples(self):
        # interpolation accuracy only: the hatch is for experimentation
        m = self.make()
        assert m.evaluate(2.0) == pytest.approx(math.log(2.0), abs=1e-4)
        assert m.inverse(m.evaluate(3.0)) == pytest.approx(3.0, abs=1e-3)

    def test_requires_concavity(self):
        w = np.linspace(0.5, 6.0, 40)
        with pytest.raises(bc.ValidationError):
            bc.TabulatedUtility(w, w ** 2)


GUARDED_MODELS = ALL_MODELS + [
    bc.LogUtility(domain=(1.0, 5.0)),
    bc.CaraUtility(r=1.0, domain=(-1.0, 2.0)),
    bc.CrraUtility(gamma=2.0, domain=(0.5, 4.0)),
]
WAGE_METHODS = ("evaluate", "marginal", "second_derivative")
UTILITY_METHODS = ("inverse", "inverse_derivative", "inverse_second_derivative")
SHAPES = {
    "float": float,
    "0-d": lambda x: np.array(x),
    "1-d": lambda x: np.array([x]),
}


def interior(lo, hi):
    if np.isfinite(lo) and np.isfinite(hi):
        return 0.5 * (lo + hi)
    if np.isfinite(lo):
        return lo + 1.0
    if np.isfinite(hi):
        return hi - 1.0
    return 0.5


def outside_points(lo, hi):
    """NaN, both infinities and both endpoints: none lies in the open (lo, hi)."""
    return [math.nan, math.inf, -math.inf, lo, hi]


def guarded_methods(model):
    """(bound method, lo, hi) for every method checked against an open interval."""
    for methods, (lo, hi) in ((WAGE_METHODS, model.wage_domain),
                              (UTILITY_METHODS, model.utility_range)):
        for name in methods:
            yield getattr(model, name), lo, hi


@pytest.mark.parametrize("model", GUARDED_MODELS, ids=lambda m: repr(m))
def test_one_bad_entry_fails_the_whole_vector(model):
    for method, lo, hi in guarded_methods(model):
        good = interior(lo, hi)
        for bad in outside_points(lo, hi):
            with pytest.raises(bc.DomainError):
                method(np.array([good, bad, good]))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("model", GUARDED_MODELS, ids=lambda m: repr(m))
class TestOpenIntervalGuard:
    def test_interior_points_pass(self, model, shape):
        for method, lo, hi in guarded_methods(model):
            assert np.isfinite(method(SHAPES[shape](interior(lo, hi))))

    def test_nan_infinities_and_endpoints_raise(self, model, shape):
        for method, lo, hi in guarded_methods(model):
            for bad in outside_points(lo, hi):
                with pytest.raises(bc.DomainError):
                    method(SHAPES[shape](bad))

    def test_inverse_marginal_rejects_zero_negative_nan_inf(self, model, shape):
        assert np.isfinite(model.inverse_marginal(SHAPES[shape](0.5)))
        for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(bc.DomainError):
                model.inverse_marginal(SHAPES[shape](bad))
