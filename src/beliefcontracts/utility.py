"""Parametric agent utility families with exact inverses and derivatives.

Each family supplies u, u', u'', the inverse h = u^-1 with h' and h'', and the
inverse marginal (u')^-1.  All of these are hard-coded closed forms so results
are bit-reproducible; ``TabulatedUtility`` is an interpolation escape hatch for
experimentation only.

Every method accepts a float or an ndarray and enforces the open wage domain /
utility range, raising :class:`DomainError` outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParseError, ValidationError

_INF = float("inf")


def _in_open_interval(x, lo: float, hi: float) -> bool:
    """lo < x < hi elementwise; NaN fails both comparisons and +-inf fails one."""
    if isinstance(x, float):
        return lo < x < hi
    a = np.asarray(x, dtype=float)
    return bool(((a > lo) & (a < hi)).all())


def _check_open_interval(x, lo: float, hi: float, what: str, name: str) -> None:
    if not _in_open_interval(x, lo, hi):
        raise DomainError(f"{name}: {what} must lie in the open interval ({lo}, {hi})")


@dataclass(frozen=True)
class UtilityModel:
    """Base class; concrete families override the closed forms.

    Attributes:
        wage_domain: open interval of admissible wages (money units).
        utility_range: open interval u(wage_domain) (utils).
    """

    wage_domain: tuple[float, float] = field(init=False, default=(-_INF, _INF))
    utility_range: tuple[float, float] = field(init=False, default=(-_INF, _INF))

    @property
    def family(self) -> str:
        raise NotImplementedError

    # -- closed forms, implemented by subclasses on pre-validated input ------
    def _u(self, w): raise NotImplementedError
    def _u_prime(self, w): raise NotImplementedError
    def _u_second(self, w): raise NotImplementedError
    def _h(self, v): raise NotImplementedError
    def _h_prime(self, v): raise NotImplementedError
    def _h_second(self, v): raise NotImplementedError
    def _u_prime_inv(self, m): raise NotImplementedError

    # -- public surface with domain checks ------------------------------------
    def evaluate(self, w):
        """u(w)."""
        self._require_wage(w)
        return self._u(np.asarray(w, dtype=float) if np.ndim(w) else float(w))

    def marginal(self, w):
        """u'(w) > 0."""
        self._require_wage(w)
        return self._u_prime(np.asarray(w, dtype=float) if np.ndim(w) else float(w))

    def second_derivative(self, w):
        """u''(w) < 0."""
        self._require_wage(w)
        return self._u_second(np.asarray(w, dtype=float) if np.ndim(w) else float(w))

    def inverse(self, v):
        """h(v) = u^-1(v): the wage delivering utility v."""
        self._require_utility(v)
        return self._h(np.asarray(v, dtype=float) if np.ndim(v) else float(v))

    def inverse_derivative(self, v):
        """h'(v) = 1 / u'(h(v)) > 0."""
        self._require_utility(v)
        return self._h_prime(np.asarray(v, dtype=float) if np.ndim(v) else float(v))

    def inverse_second_derivative(self, v):
        """h''(v) > 0; h is convex because u is concave."""
        self._require_utility(v)
        return self._h_second(np.asarray(v, dtype=float) if np.ndim(v) else float(v))

    def inverse_marginal(self, m):
        """(u')^-1(m): the wage at which marginal utility equals m."""
        if not _in_open_interval(m, 0.0, _INF):
            raise DomainError(f"{self.family}: marginal utility must be positive")
        return self._u_prime_inv(np.asarray(m, dtype=float) if np.ndim(m) else float(m))

    # -- guards ---------------------------------------------------------------
    def _require_wage(self, w) -> None:
        lo, hi = self.wage_domain
        _check_open_interval(w, lo, hi, "wage", self.family)

    def _require_utility(self, v) -> None:
        lo, hi = self.utility_range
        _check_open_interval(v, lo, hi, "utility level", self.family)

    def contains_utility(self, v: float) -> bool:
        lo, hi = self.utility_range
        return lo < v < hi

    def _restrict_domain(self, default: tuple[float, float],
                         requested: tuple[float, float] | None) -> tuple[float, float]:
        """Instance files may tighten the wage domain but never widen it."""
        if requested is None:
            return default
        lo, hi = float(requested[0]), float(requested[1])
        if not (default[0] <= lo < hi <= default[1]):
            raise ValidationError(
                f"{self.family}: wage domain [{lo}, {hi}] must be a sub-interval "
                f"of the family default {default}")
        return (lo, hi)

    def _set_intervals(self, domain: tuple[float, float]) -> None:
        object.__setattr__(self, "wage_domain", domain)
        lo, hi = domain
        object.__setattr__(self, "utility_range", (self._limit(lo), self._limit(hi)))

    def _limit(self, w: float) -> float:
        """u extended to the (possibly infinite) domain endpoint."""
        raise NotImplementedError


@dataclass(frozen=True)
class CaraUtility(UtilityModel):
    """Constant absolute risk aversion: u(x) = -exp(-r x), r > 0.

    Utilities are negative throughout; the default wage domain is all of R.
    """

    r: float = 1.0
    domain: tuple[float, float] | None = None

    def __post_init__(self):
        if not self.r > 0:
            raise ValidationError("cara: risk aversion r must be > 0")
        self._set_intervals(self._restrict_domain((-_INF, _INF), self.domain))

    @property
    def family(self) -> str:
        return "cara"

    def _limit(self, w):
        if w == -_INF:
            return -_INF
        if w == _INF:
            return 0.0
        return -math.exp(-self.r * w)

    def _u(self, w): return -np.exp(-self.r * w)
    def _u_prime(self, w): return self.r * np.exp(-self.r * w)
    def _u_second(self, w): return -(self.r ** 2) * np.exp(-self.r * w)
    def _h(self, v): return -np.log(-v) / self.r
    def _h_prime(self, v): return -1.0 / (self.r * v)
    def _h_second(self, v): return 1.0 / (self.r * v * v)
    def _u_prime_inv(self, m): return -np.log(m / self.r) / self.r


@dataclass(frozen=True)
class LogUtility(UtilityModel):
    """u(x) = ln(x) on (0, inf); h(v) = exp(v) on all of R."""

    domain: tuple[float, float] | None = None

    def __post_init__(self):
        self._set_intervals(self._restrict_domain((0.0, _INF), self.domain))

    @property
    def family(self) -> str:
        return "log"

    def _limit(self, w):
        if w == 0.0:
            return -_INF
        if w == _INF:
            return _INF
        return math.log(w)

    def _u(self, w): return np.log(w)
    def _u_prime(self, w): return 1.0 / w
    def _u_second(self, w): return -1.0 / (w * w)
    def _h(self, v): return np.exp(v)
    def _h_prime(self, v): return np.exp(v)
    def _h_second(self, v): return np.exp(v)
    def _u_prime_inv(self, m): return 1.0 / m


@dataclass(frozen=True)
class CrraUtility(UtilityModel):
    """u(x) = x^(1-gamma) / (1-gamma) on (0, inf), gamma > 0, gamma != 1.

    For gamma < 1 utilities are positive, for gamma > 1 negative.
    """

    gamma: float = 2.0
    domain: tuple[float, float] | None = None

    def __post_init__(self):
        if not (self.gamma > 0 and self.gamma != 1.0):
            raise ValidationError("crra: need gamma > 0 and gamma != 1 (use log for gamma = 1)")
        self._set_intervals(self._restrict_domain((0.0, _INF), self.domain))

    @property
    def family(self) -> str:
        return "crra"

    def _limit(self, w):
        g = self.gamma
        if w == 0.0:
            return 0.0 if g < 1 else -_INF
        if w == _INF:
            return _INF if g < 1 else 0.0
        return w ** (1 - g) / (1 - g)

    def _u(self, w): return w ** (1 - self.gamma) / (1 - self.gamma)
    def _u_prime(self, w): return w ** (-self.gamma)
    def _u_second(self, w): return -self.gamma * w ** (-self.gamma - 1)

    def _h(self, v):
        return ((1 - self.gamma) * v) ** (1.0 / (1 - self.gamma))

    def _h_prime(self, v):
        g = self.gamma
        return ((1 - g) * v) ** (g / (1 - g))

    def _h_second(self, v):
        g = self.gamma
        return g * ((1 - g) * v) ** ((2 * g - 1) / (1 - g))

    def _u_prime_inv(self, m): return m ** (-1.0 / self.gamma)


@dataclass(frozen=True)
class SqrtUtility(UtilityModel):
    """u(x) = sqrt(x) on (0, inf); h(v) = v^2 on (0, inf)."""

    domain: tuple[float, float] | None = None

    def __post_init__(self):
        self._set_intervals(self._restrict_domain((0.0, _INF), self.domain))

    @property
    def family(self) -> str:
        return "sqrt"

    def _limit(self, w):
        if w == 0.0:
            return 0.0
        if w == _INF:
            return _INF
        return math.sqrt(w)

    def _u(self, w): return np.sqrt(w)
    def _u_prime(self, w): return 0.5 / np.sqrt(w)
    def _u_second(self, w): return -0.25 * w ** -1.5
    def _h(self, v): return v * v
    def _h_prime(self, v): return 2.0 * v
    def _h_second(self, v): return 2.0 * np.ones_like(np.asarray(v, dtype=float)) if np.ndim(v) else 2.0
    def _u_prime_inv(self, m): return 0.25 / (m * m)


class TabulatedUtility(UtilityModel):
    """u sampled on a wage grid with monotone (PCHIP) interpolation.

    Experimentation escape hatch: not bit-reproducible across library versions
    and excluded from the acceptance suite.  Requires strictly increasing,
    strictly concave samples.
    """

    def __init__(self, wages, utilities):
        w = np.asarray(wages, dtype=float)
        u = np.asarray(utilities, dtype=float)
        if w.ndim != 1 or w.shape != u.shape or len(w) < 4:
            raise ValidationError("tabulated: need matching 1-d grids with >= 4 points")
        if np.any(np.diff(w) <= 0) or np.any(np.diff(u) <= 0):
            raise ValidationError("tabulated: wages and utilities must be strictly increasing")
        if np.any(np.diff(np.diff(u) / np.diff(w)) >= 0):
            raise ValidationError("tabulated: samples must be strictly concave")
        from scipy.interpolate import PchipInterpolator

        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "_u_grid", u)
        object.__setattr__(self, "_fwd", PchipInterpolator(w, u))
        object.__setattr__(self, "_inv", PchipInterpolator(u, w))
        object.__setattr__(self, "_fwd_d", self._fwd.derivative())
        object.__setattr__(self, "_fwd_dd", self._fwd.derivative(2))
        object.__setattr__(self, "_inv_d", self._inv.derivative())
        object.__setattr__(self, "_inv_dd", self._inv.derivative(2))
        object.__setattr__(self, "wage_domain", (float(w[0]), float(w[-1])))
        object.__setattr__(self, "utility_range", (float(u[0]), float(u[-1])))

    @property
    def family(self) -> str:
        return "tabulated"

    def _require_wage(self, w) -> None:
        lo, hi = self.wage_domain
        arr = np.asarray(w, dtype=float)
        if np.any(arr < lo) or np.any(arr > hi):
            raise DomainError(f"tabulated: wage must lie in [{lo}, {hi}]")

    def _require_utility(self, v) -> None:
        lo, hi = self.utility_range
        arr = np.asarray(v, dtype=float)
        if np.any(arr < lo) or np.any(arr > hi):
            raise DomainError(f"tabulated: utility level must lie in [{lo}, {hi}]")

    def _u(self, w): return self._fwd(w)
    def _u_prime(self, w): return self._fwd_d(w)
    def _u_second(self, w): return self._fwd_dd(w)
    def _h(self, v): return self._inv(v)
    def _h_prime(self, v): return self._inv_d(v)
    def _h_second(self, v): return self._inv_dd(v)

    def _u_prime_inv(self, m):
        # marginal is decreasing on the grid; invert by bisection per entry
        def _one(target):
            lo, hi = self.wage_domain
            flo, fhi = self._fwd_d(lo), self._fwd_d(hi)
            if not (fhi <= target <= flo):
                raise DomainError("tabulated: marginal utility outside the sampled range")
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if self._fwd_d(mid) > target:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        if np.ndim(m):
            return np.array([_one(t) for t in np.asarray(m, dtype=float)])
        return _one(float(m))


_FAMILIES = {"cara": CaraUtility, "log": LogUtility, "crra": CrraUtility, "sqrt": SqrtUtility}


def utility_from_name(family: str, parameters: dict | None = None,
                      wage_domain: tuple[float, float] | None = None) -> UtilityModel:
    """Instantiate a closed-form family by name, as used in problem files."""
    params = dict(parameters or {})
    key = family.lower()
    if key == "cara":
        return CaraUtility(r=float(params.pop("r", 1.0)), domain=wage_domain)
    if key == "log":
        return LogUtility(domain=wage_domain)
    if key == "crra":
        if "gamma" not in params:
            raise ParseError("utility family 'crra': missing parameter 'gamma'")
        return CrraUtility(gamma=float(params.pop("gamma")), domain=wage_domain)
    if key == "sqrt":
        return SqrtUtility(domain=wage_domain)
    raise ParseError(
        f"unknown utility family {family!r}; supported families: {sorted(_FAMILIES)}")
