"""Parametric agent utility families with exact inverses and derivatives.

Each family supplies u, u', u'', the inverse h = u^-1 with h' and h'', and the
inverse marginal (u')^-1.  All of these are hard-coded closed forms so results
are bit-reproducible.

Every public method accepts a float or an ndarray and checks the open wage
domain / utility range, raising :class:`DomainError` outside it.  The closed
forms behind them (``_u``, ``_u_prime``, ``_h``, ``_h_prime``, ``_h_second``,
``_u_prime_inv``) check nothing: the solvers use their values only where
their own named interval tests admit the points (``kernel.sharing_stack``'s
marginal-utility, wage and utility masks, ``minimize_on_affine``'s ``in_range``,
``second_best._dual_point``'s and ``_dual_points``' masks and the candidate
wage tests of ``solve_dual`` and ``solve_dual_stack``).  A masked
computation evaluates every entry under ``np.errstate`` and discards, by
its mask, each value the test refuses.
A family's ``domain`` may tighten its default wage domain (a None end keeps
the default's); the solvers search on the family's own domain and check each
answer against the tightened one.
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

    def _sharing_multiplier(self, ratio, probs, rhs):
        """The lam with sum_s probs_s u((u')^-1(ratio_s / lam)) = rhs, in closed
        form (the HARA risk-sharing rules, Wilson, *Econometrica* 36, 1968);
        numpy values, so past double precision it is inf or 0, not an error.
        On a stack (ratio and probs (K, S), rhs scalar or (K,)) it is one lam
        per row, by ``np.vecdot`` and ``.sum(-1)``, which give each row the
        bits of the 1-D call."""
        raise NotImplementedError

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

    def _restrict_domain(self, default: tuple[float, float]) -> None:
        """Set the intervals from ``domain``, which may tighten the family's
        default wage domain but never widen it; a None end keeps the default's.
        ``domain`` itself is normalised to None when it equals the default, and
        to floats otherwise, so a serialized model parses back equal."""
        lo, hi = default
        if self.domain is not None:
            lo, hi = (d if x is None else float(x) for x, d in zip(self.domain, default))
            if not (default[0] <= lo < hi <= default[1]):
                raise ValidationError(
                    f"{self.family}: wage domain [{lo}, {hi}] must be a sub-interval "
                    f"of the family default {default}")
        object.__setattr__(self, "domain", None if (lo, hi) == default else (lo, hi))
        object.__setattr__(self, "wage_domain", (lo, hi))
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
    domain: tuple[float | None, float | None] | None = None

    def __post_init__(self):
        if not self.r > 0:
            raise ValidationError("cara: risk aversion r must be > 0")
        self._restrict_domain((-_INF, _INF))

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
    def _sharing_multiplier(self, ratio, probs, rhs):
        return -np.vecdot(probs, ratio) / (self.r * rhs)


@dataclass(frozen=True)
class LogUtility(UtilityModel):
    """u(x) = ln(x) on (0, inf); h(v) = exp(v) on all of R."""

    domain: tuple[float | None, float | None] | None = None

    def __post_init__(self):
        self._restrict_domain((0.0, _INF))

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

    def _sharing_multiplier(self, ratio, probs, rhs):
        return np.exp((rhs + np.vecdot(probs, np.log(ratio))) / probs.sum(-1))


@dataclass(frozen=True)
class CrraUtility(UtilityModel):
    """u(x) = x^(1-gamma) / (1-gamma) on (0, inf), gamma > 0, gamma != 1.

    For gamma < 1 utilities are positive, for gamma > 1 negative.
    """

    gamma: float = 2.0
    domain: tuple[float | None, float | None] | None = None

    def __post_init__(self):
        if not (self.gamma > 0 and self.gamma != 1.0):
            raise ValidationError("crra: need gamma > 0 and gamma != 1 (use log for gamma = 1)")
        self._restrict_domain((0.0, _INF))

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

    def _sharing_multiplier(self, ratio, probs, rhs):
        g = self.gamma
        base = (1 - g) * rhs / np.vecdot(probs, ratio ** ((g - 1) / g))
        if np.ndim(base) == 0:
            return base ** (g / (1 - g))
        # numpy's scalar power rounds apart from its array power: each row takes the scalar's
        return np.array([b ** (g / (1 - g)) for b in base])


@dataclass(frozen=True)
class SqrtUtility(UtilityModel):
    """u(x) = sqrt(x) on (0, inf); h(v) = v^2 on (0, inf)."""

    domain: tuple[float | None, float | None] | None = None

    def __post_init__(self):
        self._restrict_domain((0.0, _INF))

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
    def _sharing_multiplier(self, ratio, probs, rhs): return 2.0 * rhs / (probs / ratio).sum(-1)


_FAMILIES = {"cara": CaraUtility, "log": LogUtility, "crra": CrraUtility, "sqrt": SqrtUtility}


def utility_from_name(family: str, parameters: dict | None = None,
                      wage_domain: tuple[float | None, float | None] | None = None
                      ) -> UtilityModel:
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
