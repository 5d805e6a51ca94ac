"""Concentration rescaling, parameter sweeps, and exponent fits.

In the critical case the minimizer w_eps concentrates: the radius
lambda_eps at which the ball-mass of |w_eps|^p reaches Q* defines the
rescaling v_eps(x) = lambda^((N-2)/2) w_eps(lambda x), which converges to
the Sobolev minimizer W_1; it and the minimizer frame are both
RadialProfile.scaled.  Q* is emden.q_star(N).  The ball mass of a solved
profile at its grid points sums the w |u|^p row of its node rows (a
closed-form W_lam reads its own, EmdenFowlerProfile.norm_s up to r_hi), and
Brent's method (shooting._bracket_root) finds lambda inside the grid panel
that holds it, evaluating that panel's cubic Hermite (or the series
piece) at each probe.  The W_1 distances run
on the profile's own node rows (RadialProfile.quad) and past the grid on
tan panels (emden.radial_quad), where v is TailModel.evaluate; both
distances are the two rows of one stack there, so W_1 and the tail model
are evaluated once per node set.  Sweeps solve a
geometric grid of eps (or delta) values, collect the regime's observables,
and confront fitted log-log slopes with the predicted exponents; a fit
carries the log(1/eps) factor where predict_exponents gives one.  What each
regime solves, predicts, observes and fits is its row of one table (_ROWS).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import functionals as fn
from .emden import EmdenFowlerProfile, _leggauss, q_star, sobolev_constant
from .errors import (
    BracketNotFound,
    DivergentNormError,
    IllConditionedFit,
    InconsistentSolution,
    InternalConsistencyError,
    NotInAsymptoticRegime,
)
from .ode import IntegrationFailure, series_piece
from .params import Family, ProblemParams, critical_exponent, is_critical, sphere_area
from .shooting import RadialProfile, ShootControls, _bracket_root, _hermite

__all__ = [
    "concentration_lambda",
    "rescale_to_v",
    "profile_distances",
    "predict_exponents",
    "REGIMES",
    "RegimeRow",
    "regime_row",
    "fit_exponent",
    "FitResult",
    "SweepSpec",
    "SweepPoint",
    "ScalingReport",
    "sweep",
]


def concentration_lambda(w: RadialProfile) -> float:
    """Unique lambda with int_{B_lambda} |w|^p dx = Q* = q_star(N) of a solved
    profile w, by Brent's method.

    The grid panel that holds the root, and the mass below it, come from the
    mass at the grid radii (Trajectory.cumulative of the w |u|^p row that
    analyze's L^p norm and the identities sum, scaled exactly by
    RadialProfile.scaled); inside that panel
    the mass is a 24-point Gauss sum of that panel's cubic Hermite
    (shooting._hermite on its end points; the series piece below the first
    grid radius), and _bracket_root closes the panel to a relative width of
    1e-13.  The tail past the grid is read only when the grid mass falls
    short of Q*, to tell which NotInAsymptoticRegime to raise.
    """
    N = w.params.N
    p = w.params.p
    Qstar = q_star(N)
    omega = sphere_area(N)
    cum = omega * w.grid.cumulative(5)   # cum[i]: the mass of B_{rg[i]} (row 5: w |u|^p)
    if cum[-1] < Qstar:
        total = float(cum[-1]) + omega * w.norm_tail(p)
        if total <= Qstar:
            raise NotInAsymptoticRegime(
                f"total |w|^p mass {total:.6g} <= Q* = {Qstar:.6g}; eps too large "
                "for the concentration rescaling"
            )
        raise NotInAsymptoticRegime("concentration radius lies beyond the stored grid")
    idx = int(np.searchsorted(cum, Qstar))
    rg = w.grid.radii
    start = 0.0 if idx == 0 else float(rg[idx - 1])
    f_start = (0.0 if idx == 0 else float(cum[idx - 1])) - Qstar
    x, gw = _leggauss(24)
    if idx == 0:
        def piece(rr):
            return series_piece(w.grid.series, rr)[0]
    else:   # the cubic Hermite of the one grid panel [start, rg[idx]]
        h = rg[idx] - rg[idx - 1]
        ug, vg = w.grid.values, w.grid.slopes
        ends = (ug[idx - 1], ug[idx], vg[idx - 1], vg[idx])

        def piece(rr):
            return _hermite((rr - start) / h, h, *ends, deriv=False)

    def excess(r: float) -> float:
        """Mass of B_r minus Q*: the panel's own mass up to r plus f_start,
        so it keeps its precision where the panel adds little mass."""
        mid, half = 0.5 * (start + r), 0.5 * (r - start)
        rr = mid + half * x
        return f_start + omega * half * float(np.sum(gw * np.abs(piece(rr)) ** p
                                                     * rr ** (N - 1)))

    if idx == 0:
        # |w| <= a, so the mass of B_r is at most omega a^p r^N / N
        lo = (N * Qstar / (omega * w.amplitude ** p)) ** (1.0 / N)
        f_lo = excess(lo)
    else:
        lo, f_lo = start, f_start
    lo, hi, _ = _bracket_root(excess, lo, f_lo, float(rg[idx]), float(cum[idx]) - Qstar, 1e-13)
    return 0.5 * (lo + hi)


def rescale_to_v(w: RadialProfile, lam: float) -> RadialProfile:
    """v(x) = lam^((N-2)/2) w(lam x): w.scaled(lam^((N-2)/2), lam ** 2).

    lam ** 2 is the square the tail correction always took, and its square
    root is lam exactly (pow is within 0.52 ulp, and sqrt maps anything
    within 0.7 ulp of lam^2 back to lam), so every field keeps the bits of
    the transform written in lam except the node rows' weights and norm
    terms: their factor (lam ** 2) ** (-N/2) replaces lam ** -N, an ulp or
    two apart.
    """
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if lam == 1.0:
        return w
    return w.scaled(lam ** ((w.params.N - 2.0) / 2.0), lam ** 2)


def profile_distances(v: RadialProfile, ref: EmdenFowlerProfile) -> tuple[float, float]:
    """(||grad(v - ref)||_2, ||v - ref||_p) on v's node rows plus ref tails.

    Both integrands are rows of one stack on each node set: v's node rows
    (RadialProfile.quad), then the tan panels past the grid
    (emden.radial_quad), where v is its tail model.  ref's (value,
    slope) and the tail model's are each one evaluation per node set
    (EmdenFowlerProfile.evaluate, TailModel.evaluate).
    """
    N = v.params.N
    p = v.params.p
    omega = sphere_area(N)

    def gaps(r, u, du):
        w, dw = ref.evaluate(r)
        return np.stack(((du - dw) ** 2, np.abs(u - w) ** p))

    d1_sq, lp = v.quad(gaps)
    # beyond the grid: v is exponentially small, ref keeps algebraic mass
    R = float(v.grid.radii[-1])
    from .emden import radial_quad   # at call time: a wrapper on emden.radial_quad sees it

    def tail_gaps(r):
        return gaps(r, *v.tail.evaluate(r))

    d1_far, lp_far = radial_quad(tail_gaps, N, r_lo=R, scale=max(ref.tan_scale(), R / 10.0))
    d1_sq += d1_far
    lp += lp_far
    return math.sqrt(omega * d1_sq), (omega * lp) ** (1.0 / p)


# --- the regime table -------------------------------------------------------
# One row per sweep regime, read by predict_exponents, SweepSpec, the sweep and
# the CLI.  Row code looks the module's functions up at call time, so a wrapper
# set on asymptotics.concentration_lambda (say) sees its calls.


def _subcritical_exponents(N: int, p: float, q: float) -> dict[str, tuple[float, float]]:
    if p >= (ps := critical_exponent(N)):
        raise ValueError(f"subcritical regime needs p < p* = {ps}, got {p}")
    return {"amplitude": (1.0 / (p - 2.0), 0.0)}


def _critical_exponents(N: int, p: float, q: float) -> dict[str, tuple[float, float]]:
    if not is_critical(N, p):
        raise ValueError(f"critical regime needs p = p* = {critical_exponent(N)}, got {p}")
    if N >= 5:
        return {"amplitude": (1.0 / (q - 2.0), 0.0),
                "lambda": (-(p - 2.0) / (2.0 * q - 4.0), 0.0),
                "sigma": ((q - p) / (q - 2.0), 0.0)}
    if N == 4:
        return {"amplitude": (1.0 / (q - 2.0), 1.0 / (q - 2.0)),
                "lambda": (-1.0 / (q - 2.0), -1.0 / (q - 2.0)),
                "sigma": ((q - 4.0) / (q - 2.0), (q - 4.0) / (q - 2.0))}
    return {"amplitude": (1.0 / (2.0 * q - 8.0), 0.0),
            "lambda": (-1.0 / (q - 4.0), 0.0),
            "sigma": ((q - 6.0) / (2.0 * q - 8.0), 0.0)}


def _supercritical_exponents(N: int, p: float, q: float) -> dict[str, tuple[float, float]]:
    if p <= (ps := critical_exponent(N)):
        raise ValueError(f"supercritical regime needs p > p* = {ps}, got {p}")
    return {"amplitude": (0.0, 0.0)}


def _delta_supercritical_exponents(N: int, p: float, q: float) -> dict[str, tuple[float, float]]:
    # the paper's law holds for q > N(N+2)/(2(N-2)); q = 7 at N = 3 is exploratory
    if q <= (ps := critical_exponent(N)):
        raise ValueError(f"delta sweep needs q > p* = {ps}, got {q}")
    return {"amplitude": (1.0 / (q - ps), 0.0)}


def _p_up_subcritical_exponents(N: int, p: float, q: float) -> dict[str, tuple[float, float]]:
    if N >= 5:
        return {"amplitude": (-(N - 2.0) / 4.0, 0.0)}
    return {"amplitude": (-0.5, 1.0 if N == 4 else 0.0)}


def _subcritical_columns(pt, sol, refs) -> None:
    scaled = pt.x ** (-1.0 / (sol.params.p - 2.0)) * sol.amplitude
    pt.amp_gap = abs(scaled - refs["v0_amp"]) / refs["v0_amp"]


def _critical_columns(pt, sol, refs) -> None:
    N = sol.params.N
    pt.sigma = sol.level_S - sobolev_constant(N)
    w_sol = sol.rescaled_to_frame()
    pt.kappa_res = fn.kappa_identities(w_sol, pt.x).lq_residual
    lam = pt.lam = concentration_lambda(w_sol.profile)
    v = rescale_to_v(w_sol.profile, lam)
    l2, _, lq, _ = sol.params.norm_factors(lam ** ((N - 2.0) / 2.0), lam ** 2)
    pt.v_l2_sq = w_sol.norm_L2_sq * l2
    pt.v_lq_q = w_sol.norm_Lq_q * lq
    pt.dist_D1, pt.dist_Lp = profile_distances(v, EmdenFowlerProfile(N, 1.0, "W"))


def _supercritical_columns(pt, sol, refs) -> None:
    pt.amp_gap = abs(sol.amplitude - refs["u0_amp"])


def _delta_supercritical_columns(pt, sol, refs) -> None:
    pt.sigma = sol.level_S - sobolev_constant(sol.params.N)


@dataclass(frozen=True)
class RegimeRow:
    """What one sweep regime means; ``grid`` and ``fits`` are by N, None for any other N."""

    family: Family   # solved at each grid value x
    # (N, p, q) -> {observable: (power, log power)}; ValueError outside the regime
    exponents: Callable[[int, float, float], dict[str, tuple[float, float]]]
    grid: dict      # a spec's default (grid_min, grid_max, ratio)
    delta_sign: int = 0   # 0: x = eps (a point gets eps_l2).  +-1: x = delta, p = p* +- delta
    observe: Callable | None = None   # (point, solution, references): the row's columns
    # (limit family, {reference entry: attribute}): solved once at the spec's p
    reference: tuple[Family, dict[str, str]] | None = None
    # (name, SweepPoint attribute, predicted entry or None) beyond amplitude; a
    # fit named after its entry takes its log(1/x) factor, others are pure
    # powers and predict the entry's power with log power 0
    fits: dict = field(default_factory=lambda: {None: ()})
    fit_window: tuple[float, float] | None = None   # the sweep's, as fit_points takes it


_DELTA_RATIO = 100.0 ** 0.1   # ten grid points per factor 100
_CRITICAL_FITS = (("lambda", "lam", "lambda"), ("sigma", "sigma", "sigma"))
# The default grids and fit window sit inside the asymptotic range the
# regression suite established.
_ROWS = {
    "subcritical": RegimeRow(
        Family.P_EPS, _subcritical_exponents, {None: (9e-5, 5e-2, 2.0)},
        observe=_subcritical_columns, reference=(Family.R_ZERO, {"v0_amp": "amplitude"})),
    "critical": RegimeRow(
        Family.P_EPS, _critical_exponents,
        {3: (1.5e-9, 3e-6, 2.0), 4: (1e-9, 3e-5, 2.0), None: (1e-5, 1e-2, 2.0)},
        observe=_critical_columns,
        fits={None: _CRITICAL_FITS,
              4: (*_CRITICAL_FITS, ("lambda_pure_power", "lam", "lambda"),
                  ("amplitude_pure_power", "amplitude", "amplitude"))}),
    "supercritical": RegimeRow(
        Family.P_EPS, _supercritical_exponents, {None: (5e-9, 2e-2, 2.0)},
        observe=_supercritical_columns,
        reference=(Family.P_ZERO, {"u0_amp": "amplitude", "u0_S": "level_S"}),
        fits={None: (("eps_l2", "eps_l2", None), ("amp_gap", "amp_gap", None))}),
    "delta_supercritical": RegimeRow(
        Family.P_ZERO, _delta_supercritical_exponents, {None: (5e-3, 0.5, _DELTA_RATIO)},
        delta_sign=1, observe=_delta_supercritical_columns, fit_window=(0.01, 0.3)),
    "p_up_subcritical": RegimeRow(
        Family.R_ZERO, _p_up_subcritical_exponents, {None: (5e-3, 0.2, _DELTA_RATIO)},
        delta_sign=-1),
}
REGIMES = tuple(_ROWS)


def regime_row(regime: str) -> RegimeRow:
    """The row of ``regime``; ValueError naming the known regimes if there is none."""
    if regime not in _ROWS:
        raise ValueError(f"unknown regime {regime!r}; known: {', '.join(REGIMES)}")
    return _ROWS[regime]


def predict_exponents(regime: str, N: int, p: float, q: float) -> dict[str, tuple[float, float]]:
    """Paper-predicted (power, log_power) per observable, y ~ x^b log(1/x)^c.

    ValueError on an unknown regime, or on a p or q outside the regime.
    """
    return regime_row(regime).exponents(N, p, q)


@dataclass
class FitResult:
    exponent: float
    log_power: float
    r2: float
    rms_residual: float
    predicted_exponent: float = math.nan
    predicted_log_power: float = 0.0
    window: tuple[float, float] = (math.nan, math.nan)
    n_points: int = 0
    intercept: float = math.nan   # a of log y = a + b log x (+ c log log(1/x))


def fit_exponent(points, with_log: bool = False) -> FitResult:
    """Least squares for log y = a + b log x (+ c log log(1/x)).

    Requires >= 4 positive points spanning a ratio of at least 4.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 4:
        raise IllConditionedFit(f"need >= 4 points, got {len(pts)}")
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise IllConditionedFit("power-law fit needs strictly positive data")
    if xs.max() / xs.min() < 4.0:
        raise IllConditionedFit(
            f"abscissa spread {xs.max() / xs.min():.3g} < 4 is too narrow"
        )
    lx, ly = np.log(xs), np.log(ys)
    cols = [np.ones_like(lx), lx]
    if with_log:
        if np.any(xs >= 1.0):
            raise IllConditionedFit("log-corrected fit needs x < 1")
        cols.append(np.log(np.log(1.0 / xs)))
    A = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FitResult(
        exponent=float(coef[1]),
        log_power=float(coef[2]) if with_log else 0.0,
        r2=r2,
        rms_residual=math.sqrt(ss_res / len(xs)),
        window=(float(xs.min()), float(xs.max())),
        n_points=len(xs),
        intercept=float(coef[0]),
    )


# --- sweeps ----------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """A geometric eps- (or delta-) sweep for one regime of REGIMES.

    A grid bound or ratio left None is set at construction to the regime
    row's grid for N.  ValueError on an unknown regime, or on a p given to a
    delta regime.
    """

    regime: str
    N: int
    q: float
    p: float | None = None
    grid_min: float | None = None
    grid_max: float | None = None
    ratio: float | None = None
    shoot: ShootControls = field(default_factory=ShootControls)

    def __post_init__(self):
        row = regime_row(self.regime)
        if row.delta_sign and self.p is not None:
            raise ValueError(f"regime {self.regime!r} sets p = p* +- delta itself; "
                             f"p must not be given, got {self.p}")
        defaults = row.grid.get(self.N, row.grid[None])
        for name, value in zip(("grid_min", "grid_max", "ratio"), defaults):
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)

    def p_value(self) -> float:
        return critical_exponent(self.N) if self.p is None else self.p

    def params(self, x: float) -> ProblemParams:
        """The problem solved at grid value x: eps, or delta = |p - p*|."""
        row = _ROWS[self.regime]
        eps = 0.0 if row.delta_sign else x
        return ProblemParams(self.N, self.p_value() + row.delta_sign * x, self.q, eps, row.family)

    def grid(self) -> list[float]:
        """The grid values, largest first; ValueError on a bad ratio, bounds or
        count, or where the problem at either end is invalid (InvalidParams)."""
        if not (1.0 < self.ratio <= 4.0):
            raise ValueError(f"grid ratio must be in (1, 4], got {self.ratio}")
        if not (0.0 < self.grid_min and self.grid_max < math.inf):
            raise ValueError(f"grid bounds must be positive and finite, "
                             f"got [{self.grid_min}, {self.grid_max}]")
        vals = []
        x = self.grid_max
        while x >= self.grid_min * (1.0 - 1e-12):
            vals.append(x)
            x /= self.ratio
        if len(vals) < 8:
            raise ValueError(f"grid has {len(vals)} < 8 points; widen the range")
        for x in (vals[0], vals[-1]):   # p and eps move monotonically with x
            self.params(x)
        return vals


@dataclass
class SweepPoint:
    x: float                      # eps, or delta for the delta-regimes
    converged: bool = False
    failure: str = ""
    amplitude: float = math.nan
    S: float = math.nan
    sigma: float = math.nan
    lam: float = math.nan
    dist_D1: float = math.nan
    dist_Lp: float = math.nan
    nehari_res: float = math.nan
    pokh_res: float = math.nan
    kappa_res: float = math.nan
    eps_l2: float = math.nan      # eps * ||u||_2^2
    v_l2_sq: float = math.nan
    v_lq_q: float = math.nan
    amp_gap: float = math.nan     # regime-specific comparison column


@dataclass
class ScalingReport:
    regime: str
    N: int
    p: float
    q: float
    points: list[SweepPoint]
    fits: dict[str, FitResult]
    reference: dict[str, float]
    predicted: dict[str, tuple[float, float]]
    fit_window: tuple[float, float] | None = None   # the regime row's, as fit_points takes it

    @property
    def fitted_exponent(self) -> float:
        return self.fits["amplitude"].exponent

    @property
    def predicted_exponent(self) -> float:
        return self.predicted["amplitude"][0]

    def converged_points(self) -> list[SweepPoint]:
        return [pt for pt in self.points if pt.converged]


def _trusted(pt: SweepPoint) -> bool:
    return (pt.converged and pt.nehari_res < fn.TRUSTED_RESIDUAL
            and pt.pokh_res < fn.TRUSTED_RESIDUAL)


def fit_points(points: list[SweepPoint],
               window: tuple[float, float] | None = None) -> list[SweepPoint]:
    """The points an exponent fit reads, in the order given.

    Converged points whose identity residuals are both below
    functionals.TRUSTED_RESIDUAL (1e-5); of those, the ones with
    window[0] <= x <= window[1] if a window is given, else all but the
    first two (the largest x of a sweep, pre-asymptotic).  The sweep and
    the refit of a saved sweep record both use this rule.
    """
    ok = [pt for pt in points if _trusted(pt)]
    if window is not None:
        return [pt for pt in ok if window[0] <= pt.x <= window[1]]
    return ok[2:]


def fit_data(window: list[SweepPoint], attr: str) -> list[tuple[float, float]]:
    """(x, y) of the window's points whose ``attr`` value y is finite and positive."""
    return [(pt.x, y) for pt in window if math.isfinite(y := getattr(pt, attr)) and y > 0]


# Failures a sweep point records instead of raising: the solver's own error
# types and rejected parameters.  Anything else (a TypeError, say) is a bug
# and propagates out of the sweep.
_POINT_FAILURES = (
    BracketNotFound,
    DivergentNormError,
    IllConditionedFit,
    InconsistentSolution,
    InternalConsistencyError,
    NotInAsymptoticRegime,
    IntegrationFailure,
    ValueError,  # InvalidParams and the solver's argument checks
)


def _solve_point(spec: SweepSpec, row: RegimeRow, x: float,
                 hint: tuple[float, float] | None, refs: dict) -> SweepPoint:
    """The solve at grid value x, hinted if ``hint``, with ``row``'s columns."""
    pt = SweepPoint(x=x)
    try:
        params = spec.params(x)
        ctrl = spec.shoot if hint is None else replace(spec.shoot, bracket_hint=hint)
        sol = fn.solve_ground_state(params, ctrl)
        pt.amplitude = sol.amplitude
        pt.S = sol.level_S
        pt.nehari_res = sol.nehari_residual
        pt.pokh_res = sol.pokhozhaev_residual
        if row.observe is not None:
            row.observe(pt, sol, refs)
        if not row.delta_sign:
            pt.eps_l2 = x * sol.norm_L2_sq
        pt.converged = True
    except _POINT_FAILURES as exc:  # per-point failures are recorded, not fatal
        pt.failure = f"{type(exc).__name__}: {exc}"
    return pt


# The relative half-width w of a serial sweep point's bracket hint is three
# times the relative miss of the previous point's hint centre, within
# [_HINT_FLOOR, _HINT_CAP], and _HINT_CAP before any hint has missed.
# Replayed offline on 21 sweeps (the seven test-suite sweeps, the
# benchmark's sweep_chain seeds 1-5, and N=3 subcritical, N=5 critical and
# N=3 supercritical sweeps at grid ratios 1.5 and 3), a cap of 0.1 leaves 4
# of 206 hinted amplitudes outside their hint and 0.25 one (the third point
# of the ratio-3 supercritical sweep, 5e-3 off at the floor).  The floor
# keeps hints wide enough to pay: hinted at its exact amplitude, a critical
# N=5 point costs 5.8k RHS evaluations at w = 1e-2 and 14.3k at 1e-4, where
# loose shots near a* read their class below the loose atol and 4 of 9
# solves run again all tight (subcritical N=3: 3.9k and 5.5k).
_HINT_FLOOR = 3e-3
_HINT_CAP = 0.25


def _amplitude_hint(seen, x: float, b: float) -> tuple[float, float] | None:
    """(a (1 - w), a (1 + w)): the bracket hint of the serial sweep point at x.

    ``seen`` holds (x, amplitude, bracket hint or None) of the converged
    points since the sweep's last failure, in sweep order; without one the
    point runs unhinted.  a extrapolates log(amplitude x^-b) against log x
    through the last three points, by the polynomial of one degree less than
    their count: with one point, a follows the paper's law x^b (b is
    predict_exponents' amplitude power); with two, the secant of log
    amplitude; with three, its quadratic.  w is three times the relative
    miss of the last point's hint centre, within [_HINT_FLOOR, _HINT_CAP],
    and _HINT_CAP if that point ran unhinted.
    """
    if not seen:
        return None
    pts = seen[-3:]
    lx = math.log(x)
    logs = [math.log(xi) for xi, _, _ in pts]
    la = 0.0
    for i, (_, ai, _) in enumerate(pts):
        weight = math.prod((lx - lj) / (logs[i] - lj) for j, lj in enumerate(logs) if j != i)
        la += weight * (math.log(ai) - b * logs[i])
    a = math.exp(la + b * lx)
    _, a_last, last_hint = seen[-1]
    w = _HINT_CAP
    if last_hint is not None:
        mid = 0.5 * (last_hint[0] + last_hint[1])
        w = min(max(3.0 * abs(a_last / mid - 1.0), _HINT_FLOOR), _HINT_CAP)
    return a * (1.0 - w), a * (1.0 + w)


def sweep(spec: SweepSpec) -> ScalingReport:
    """Run the sweep, assemble observables, and fit the regime's exponents.

    The points are solved in one process, in grid order (largest x first),
    each after the first with the bracket hint its converged predecessors
    predict (_amplitude_hint); a failed point clears them.  The fits read the
    points fit_points keeps under the regime row's fit window.
    """
    row = _ROWS[spec.regime]
    p_val = spec.p_value()
    predicted = row.exponents(spec.N, p_val, spec.q)
    xs = spec.grid()
    refs: dict[str, float] = {}
    if row.reference is not None:
        family, entries = row.reference
        ref = fn.solve_ground_state(ProblemParams(spec.N, p_val, spec.q, 0.0, family), spec.shoot)
        refs = {entry: getattr(ref, attr) for entry, attr in entries.items()}

    points: list[SweepPoint] = []
    b = predicted["amplitude"][0]
    seen = []   # (x, amplitude, bracket hint) of the converged points since the last failure
    for x in xs:
        hint = _amplitude_hint(seen, x, b)
        pt = _solve_point(spec, row, x, hint, refs)
        points.append(pt)
        seen = [*seen[-2:], (x, pt.amplitude, hint)] if pt.converged else []

    n_ok = sum(map(_trusted, points))
    if n_ok < 6:
        raise RuntimeError(
            f"only {n_ok} of {len(points)} sweep points converged; need >= 6"
        )
    window = fit_points(points, row.fit_window)

    fits: dict[str, FitResult] = {}
    for name, attr, entry in (("amplitude", "amplitude", "amplitude"),
                              *row.fits.get(spec.N, row.fits[None])):
        data = fit_data(window, attr)
        if len(data) < 4:
            continue
        b_fit, c_fit = predicted.get(entry, (math.nan, 0.0))
        if name != entry:   # a pure power
            c_fit = 0.0
        res = fit_exponent(data, with_log=c_fit != 0.0)
        res.predicted_exponent, res.predicted_log_power = b_fit, c_fit
        fits[name] = res

    return ScalingReport(
        regime=spec.regime,
        N=spec.N,
        p=p_val,
        q=spec.q,
        points=points,
        fits=fits,
        reference=refs,
        predicted=predicted,
        fit_window=row.fit_window,
    )
