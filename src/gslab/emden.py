"""Closed-form Aubin-Talenti / Emden-Fowler profiles and Sobolev constants.

The critical equation -Delta U = U^(p*-1) has the explicit radial ground
states

    U_1(r)      = (1 + r^2/(N(N-2)))^(-(N-2)/2),
    U_lam(r)    = lam^(-(N-2)/2) U_1(r/lam),
    W_lam(r)    = U_lam(sqrt(S*) r),

with ||W_lam||_{p*} = 1 and ||grad W_lam||_2^2 = S* for every lam.  These
profiles are the analytic oracle for the critical regime: everything here
is evaluated in closed form, with norms computed by a tan-substitution
Gauss quadrature that resolves the algebraic tail exactly.

``radial_quad`` evaluates every tan panel in one numpy pass and adds the
panel totals in panel order as Python floats (``_panel_sum``).  That sum,
and the map from panel edges to Gauss nodes (``_gauss_panels``), are the
package's only ones: ``shooting`` evaluates an exponential far field once
on its own geometric Gauss panels (TailModel.far_field) and sums every
tail norm with them too.  U_lam and its slope share x = r/lam and
1 + x^2/(N(N-2)) (_U_base), so EmdenFowlerProfile.evaluate reads both on a
node set from one pass, with the bits of value and slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergentNormError, InternalConsistencyError
from .params import critical_exponent, sphere_area

__all__ = [
    "eval_U",
    "eval_U_slope",
    "sobolev_constant",
    "q_star",
    "q0_of_lambda",
    "EmdenFowlerProfile",
]


def _U_base(N: int, lam: float, r):
    """(x, 1 + x^2/(N(N-2))) at x = r/lam: what U_lam and its slope share."""
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    x = np.asarray(r, dtype=float) / lam
    return x, 1.0 + x * x / (N * (N - 2.0))


def _U_value(N: int, lam: float, b):
    """U_lam from _U_base's b."""
    return lam ** (-(N - 2.0) / 2.0) * b ** (-(N - 2.0) / 2.0)


def _U_slope(N: int, lam: float, x, b):
    """d/dr U_lam from _U_base's (x, b)."""
    return lam ** (-N / 2.0) * (-(N - 2.0) * x / (N * (N - 2.0))) * b ** (-N / 2.0)


def eval_U(N: int, lam: float, r) -> float:
    """U_lam(r), exact."""
    out = _U_value(N, lam, _U_base(N, lam, r)[1])
    return float(out) if np.isscalar(r) or np.ndim(r) == 0 else out


def eval_U_slope(N: int, lam: float, r) -> float:
    """d/dr U_lam(r), exact."""
    out = _U_slope(N, lam, *_U_base(N, lam, r))
    return float(out) if np.isscalar(r) or np.ndim(r) == 0 else out


@lru_cache(maxsize=32)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _gauss_panels(edges: np.ndarray, nodes: int):
    """Gauss-Legendre nodes on the panels between consecutive ``edges``:
    (nodes, shape (panels, nodes); half-widths, (panels,); weights on
    [-1, 1], (nodes,)).  A panel's integral is its half-width times the
    weighted sum over its nodes (_panel_sum)."""
    x, w = _leggauss(nodes)
    a, b = edges[:-1], edges[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid[:, None] + half[:, None] * x, half, w


def _panel_sum(terms, half) -> float:
    """sum_i half_i * sum_j terms_ij: each panel's (weighted) node terms
    summed in one numpy pass, the panel totals added in panel order, as
    Python floats (the IEEE operations of numpy scalars, at a fraction of
    their cost).  The total is a numpy float, the type of a per-panel Gauss
    loop's, or 0.0 when there are no panels."""
    total = 0.0
    for h, s in zip(half.tolist(), np.sum(terms, axis=1).tolist()):
        total += h * s
    return np.float64(total) if len(half) else total


# radial_quad's tan panels, and the Gauss nodes on each
_TAN_PANELS = 12
_TAN_NODES = 48


def radial_quad(g, N: int, r_lo: float = 0.0, r_hi: float = math.inf,
                scale: float = 1.0) -> float:
    """int_{r_lo}^{r_hi} g(r) r^(N-1) dr via r = scale*tan(theta) panels:
    _TAN_PANELS equal panels in theta, _TAN_NODES Gauss nodes each.

    The substitution maps [0, inf) to [0, pi/2) and turns algebraic tails
    into smooth integrands; `g` must accept numpy arrays of any shape.  It
    may return a stack of k rows (shape (k,) + r.shape), several integrands
    on one node set: the result is then a list of k integrals, each the bits
    of its row's integrand summed alone.  Every panel runs in one numpy
    pass, and the panel totals are added in panel order, so each sum is the
    same, bit for bit, as one Gauss sum per panel accumulated in a loop.
    An empty range has no panels, and each integral is 0.0.
    """
    th_lo = math.atan2(r_lo, scale)
    th_hi = math.pi / 2.0 if math.isinf(r_hi) else math.atan2(r_hi, scale)
    edges = np.linspace(th_lo, th_hi, _TAN_PANELS + 1) if th_hi > th_lo else np.array([th_lo])
    th, half, w = _gauss_panels(edges, _TAN_NODES)
    r = scale * np.tan(th)
    terms = w * g(r) * r ** (N - 1) * (scale / np.cos(th) ** 2)
    if terms.ndim == 2:
        return _panel_sum(terms, half)
    return [_panel_sum(row, half) for row in terms]


@lru_cache(maxsize=32)
def sobolev_constant(N: int) -> float:
    """Best Sobolev constant S* from the Dirichlet norm of U_1.

    Cross-checked against the independent ||U_1||_{p*}^{p*} route; both
    equal S*^(N/2).
    """
    if N < 3:
        raise ValueError(f"need N >= 3, got {N}")
    ps = critical_exponent(N)
    c = math.sqrt(N * (N - 2.0))
    omega = sphere_area(N)
    dir_sq = omega * radial_quad(lambda r: eval_U_slope(N, 1.0, r) ** 2, N, scale=c)
    lp = omega * radial_quad(lambda r: eval_U(N, 1.0, r) ** ps, N, scale=c)
    s_dir = dir_sq ** (2.0 / N)
    s_lp = lp ** (2.0 / N)
    if abs(s_dir - s_lp) > 1e-6 * s_dir:
        raise InternalConsistencyError(
            f"S* routes disagree for N={N}: dirichlet {s_dir!r} vs L^p* {s_lp!r}"
        )
    return s_dir


@lru_cache(maxsize=32)
def q_star(N: int) -> float:
    """Q* = unit-ball p*-mass of W_1, strictly inside (0, 1)."""
    q = q0_of_lambda(N, 1.0)
    if not 0.0 < q < 1.0:
        raise InternalConsistencyError(f"Q*({N}) = {q} outside (0, 1)")
    return q


def q0_of_lambda(N: int, lam: float) -> float:
    """Q0(lam) = int_{B_1} |W_lam|^{p*} dx; strictly decreasing in lam."""
    ps = critical_exponent(N)
    s_ast = sobolev_constant(N)
    rt = math.sqrt(s_ast)
    c = math.sqrt(N * (N - 2.0)) * lam
    # W_lam(r)^{p*} integrated over the unit ball = S*^{-N/2} * U_lam mass in B_rt
    mass = radial_quad(lambda r: eval_U(N, lam, r) ** ps, N, r_hi=rt, scale=c)
    return sphere_area(N) * mass * s_ast ** (-N / 2.0)


@dataclass(frozen=True)
class EmdenFowlerProfile:
    """Closed-form profile U_lam (frame='U') or W_lam = U_lam(sqrt(S*) .) (frame='W')."""

    N: int
    lam: float = 1.0
    frame: str = "W"

    def __post_init__(self):
        if self.frame not in ("U", "W"):
            raise ValueError(f"frame must be 'U' or 'W', got {self.frame!r}")
        if self.lam <= 0.0:
            raise ValueError(f"lambda must be positive, got {self.lam}")

    @property
    def p_star(self) -> float:
        return critical_exponent(self.N)

    def _stretch(self) -> float:
        return math.sqrt(sobolev_constant(self.N)) if self.frame == "W" else 1.0

    def tan_scale(self) -> float:
        """sqrt(N(N-2)) lam / stretch: the radius where the profile turns from
        its core to its algebraic tail, the scale of radial_quad's panels."""
        return math.sqrt(self.N * (self.N - 2.0)) * self.lam / self._stretch()

    def value(self, r):
        return eval_U(self.N, self.lam, np.asarray(r, dtype=float) * self._stretch())

    def slope(self, r):
        k = self._stretch()
        return k * eval_U_slope(self.N, self.lam, np.asarray(r, dtype=float) * k)

    def evaluate(self, r: np.ndarray):
        """(value, slope) on the radii r, with the bits of value(r) and
        slope(r), from one evaluation of what the two share."""
        k = self._stretch()
        x, b = _U_base(self.N, self.lam, np.asarray(r, dtype=float) * k)
        return _U_value(self.N, self.lam, b), k * _U_slope(self.N, self.lam, x, b)

    def amplitude(self) -> float:
        return float(self.value(0.0))

    def norm_s(self, s: float, r_hi: float = math.inf) -> float:
        """int |profile|^s dx (over B_{r_hi} if finite); diverges unless s(N-2) > N."""
        if math.isinf(r_hi) and s * (self.N - 2.0) <= self.N:
            raise DivergentNormError(
                f"s*(N-2) = {s * (self.N - 2.0):g} <= N = {self.N}: "
                f"the algebraic tail makes the L^{s:g} norm diverge"
            )
        mass = radial_quad(lambda r: np.abs(self.value(r)) ** s, self.N,
                           r_hi=r_hi, scale=self.tan_scale())
        return sphere_area(self.N) * mass

    def dirichlet_sq(self) -> float:
        """||grad profile||_2^2; equals S*^{N/2} in U frame, S* in W frame."""
        mass = radial_quad(lambda r: self.slope(r) ** 2, self.N, scale=self.tan_scale())
        return sphere_area(self.N) * mass
