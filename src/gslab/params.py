"""Problem definition: the scalar field equation families and their parameters.

The lab solves radial ground states of

    -u'' - (N-1)/r u' + lin*u - u^(p-1) + qc*u^(q-1) = 0,   r > 0,

where the pair (lin, qc) selects one of four families:

    P_eps : lin = eps, qc = 1            (original equation, eps >= 0)
    P_zero: lin = 0,   qc = 1            (eps = 0 limit, supercritical p)
    R_eps : lin = 1,   qc = eps^((q-p)/(p-2))   (canonically rescaled)
    R_zero: lin = 1,   qc = 0            (rescaled limit, subcritical p)

All downstream modules treat a family through its nonlinearity
f(u) = u^(p-1) - qc*u^(q-1) - lin*u and potential F(u) = int_0^u f.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass


class Family(enum.Enum):
    P_EPS = "P_eps"
    P_ZERO = "P_zero"
    R_ZERO = "R_zero"
    R_EPS = "R_eps"


class Regime(enum.Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"


_CRITICAL_MATCH_TOL = 1e-9


class InvalidParams(ValueError):
    """Parameter tuple violates a family invariant."""


@dataclass(frozen=True)
class ProblemParams:
    """Immutable problem tuple (N, p, q, eps, family).

    The coefficients the solve reads on every shot and root probe
    (linear_coeff, q_coeff, decay_rate) are computed once per instance, on
    first read.
    """

    N: int
    p: float
    q: float
    eps: float
    family: Family

    def __post_init__(self):
        # Python floats: numpy scalars give the same bits but slow ode.integrate
        for name in ("p", "q", "eps"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise InvalidParams(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.N < 3 or int(self.N) != self.N:
            raise InvalidParams(f"dimension must be an integer >= 3, got {self.N}")
        if not (self.q > self.p > 2.0):
            raise InvalidParams(f"need q > p > 2, got p={self.p}, q={self.q}")
        if self.eps < 0.0:
            raise InvalidParams(f"eps must be >= 0, got {self.eps}")
        ps = self.p_star()
        if self.family is Family.P_ZERO:
            if self.eps != 0.0:
                raise InvalidParams("family P_zero requires eps = 0")
            if self.p <= ps:
                raise InvalidParams(f"family P_zero requires p > p* = {ps}")
        if self.family is Family.R_ZERO:
            if self.eps != 0.0:
                raise InvalidParams("family R_zero requires eps = 0")
            if self.p >= ps:
                raise InvalidParams(f"family R_zero requires p < p* = {ps}")

    def p_star(self) -> float:
        return critical_exponent(self.N)

    def regime(self) -> Regime:
        if is_critical(self.N, self.p):
            return Regime.CRITICAL
        return Regime.SUBCRITICAL if self.p < self.p_star() else Regime.SUPERCRITICAL

    @functools.cached_property
    def linear_coeff(self) -> float:
        """Coefficient of the linear term in -Delta u + lin*u = ..."""
        if self.family in (Family.P_EPS, Family.P_ZERO):
            return self.eps if self.family is Family.P_EPS else 0.0
        return 1.0

    @functools.cached_property
    def q_coeff(self) -> float:
        """Coefficient of the defocusing u^(q-1) term."""
        if self.family in (Family.P_EPS, Family.P_ZERO):
            return 1.0
        if self.family is Family.R_ZERO:
            return 0.0
        return self.eps ** ((self.q - self.p) / (self.p - 2.0))

    @functools.cached_property
    def decay_rate(self) -> float:
        """sqrt(linear_coeff): exponential tail rate, 0 for algebraic tails."""
        return math.sqrt(self.linear_coeff)

    def norm_factors(self, amp: float, lam_sq: float) -> tuple[float, float, float, float]:
        """(L2^2, Lp^p, Lq^q, dirichlet^2) of amp*u(lam y) over those of u: amp^s
        lam^-N, and lam^(2-N) for u'^2; lam_sq = lam^2 is passed, not lam."""
        N = self.N
        vol = lam_sq ** (-N / 2.0)
        return (amp**2 * vol, amp**self.p * vol, amp**self.q * vol,
                amp**2 * lam_sq ** (-(N - 2.0) / 2.0))

    def is_algebraic(self) -> bool:
        return self.linear_coeff == 0.0

    def f(self, u: float) -> float:
        """Nonlinearity f(u) = u^(p-1) - qc*u^(q-1) - lin*u (u >= 0)."""
        if u == 0.0:
            return 0.0
        au = abs(u)
        return (
            u * au ** (self.p - 2.0)
            - self.q_coeff * u * au ** (self.q - 2.0)
            - self.linear_coeff * u
        )

    def F(self, u: float) -> float:
        """Potential F(u) = u^p/p - qc*u^q/q - lin*u^2/2 (u >= 0)."""
        au = abs(u)
        return (
            au**self.p / self.p
            - self.q_coeff * au**self.q / self.q
            - 0.5 * self.linear_coeff * u * u
        )

def critical_exponent(N: int) -> float:
    """The critical Sobolev exponent p* = 2N/(N-2) in R^N; InvalidParams for N < 3."""
    if N < 3:
        raise InvalidParams(f"dimension must be an integer >= 3, got {N}")
    return 2.0 * N / (N - 2.0)


def is_critical(N: int, p: float) -> bool:
    """Whether p is p* to within _CRITICAL_MATCH_TOL relative: the critical regime."""
    ps = critical_exponent(N)
    return abs(p - ps) <= _CRITICAL_MATCH_TOL * ps


def sphere_area(N: int) -> float:
    """Surface area of the unit sphere S^(N-1) in R^N."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)
