"""Radial ODE integration with adaptive Dormand-Prince 4(5) stepping.

Integrates u'' = -(N-1)/r u' - f(u) outward from a series hand-off radius
r0 > 0, with event detection (zero crossing, slope sign flip, underflow,
r_max) refined on the dense-output interpolant.  Norm integrands
(u^2, |u|^p, |u|^q, u'^2 against r^(N-1) dr) can be accumulated alongside
the trajectory using per-step Gauss panels on the same interpolant, so the
quadrature grid is exactly the integrator's accepted-step grid.  The
interpolant is built only for those two readers: on the step where an event
is refined, and on every step when quadrature is on.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .params import ProblemParams

__all__ = [
    "TerminalEvent",
    "StepControls",
    "Trajectory",
    "IntegrationFailure",
    "rhs_eval",
    "series_start",
    "default_handoff_radius",
    "integrate",
]


class TerminalEvent(enum.Enum):
    ZERO_CROSSING = "ZeroCrossing"
    SLOPE_SIGN_FLIP = "SlopeSignFlip"
    REACHED_RMAX = "ReachedRmax"
    UNDERFLOW = "Underflow"


@dataclass(frozen=True)
class StepControls:
    """Tolerances for the embedded RK pair and its event machinery."""

    atol: float = 1e-10
    rtol: float = 1e-8
    event_tol: float = 1e-10      # event radius refinement, relative to max(1, r)
    min_step: float = 1e-13       # failure threshold, relative to max(1, r)
    max_steps: int = 5_000_000
    underflow_factor: float = 1e-14   # floor = underflow_factor * amplitude
    with_quadrature: bool = False

    def halved(self) -> "StepControls":
        return replace(self, atol=0.5 * self.atol, rtol=0.5 * self.rtol)


@dataclass
class Trajectory:
    """Accepted-step grid of one outward integration.

    ``norm_*`` arrays are cumulative integrals of the corresponding
    integrand from 0 to radii[i] (without the sphere-area factor); they are
    populated only when the integration ran with quadrature enabled.
    """

    radii: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    terminal_event: TerminalEvent
    terminal_radius: float
    norm_l2: np.ndarray | None = None
    norm_lp: np.ndarray | None = None
    norm_lq: np.ndarray | None = None
    norm_dir: np.ndarray | None = None
    rhs_evals: int = 0

    def __len__(self) -> int:
        return len(self.radii)

    def truncated(self, n: int) -> "Trajectory":
        """Keep the first n grid points (terminal event becomes ReachedRmax)."""
        if n >= len(self.radii):
            return self
        cut = slice(0, n)
        return Trajectory(
            radii=self.radii[cut],
            values=self.values[cut],
            slopes=self.slopes[cut],
            terminal_event=TerminalEvent.REACHED_RMAX,
            terminal_radius=float(self.radii[n - 1]),
            norm_l2=None if self.norm_l2 is None else self.norm_l2[cut],
            norm_lp=None if self.norm_lp is None else self.norm_lp[cut],
            norm_lq=None if self.norm_lq is None else self.norm_lq[cut],
            norm_dir=None if self.norm_dir is None else self.norm_dir[cut],
            rhs_evals=self.rhs_evals,
        )


class IntegrationFailure(RuntimeError):
    """Step size collapsed (or step budget exhausted); carries the partial grid."""

    def __init__(self, message: str, partial: Trajectory):
        super().__init__(message)
        self.partial = partial


def rhs_eval(params: ProblemParams, r: float, u: float, du: float) -> float:
    """Second derivative u'' of the selected family at (r, u, u')."""
    if not (math.isfinite(r) and math.isfinite(u) and math.isfinite(du)) or r <= 0.0:
        raise ValueError(f"rhs_eval needs finite inputs with r > 0, got r={r}, u={u}, du={du}")
    au = abs(u)
    nonlin = 0.0
    if au > 0.0:
        nonlin = u * au ** (params.p - 2.0) - params.q_coeff * u * au ** (params.q - 2.0)
    return -(params.N - 1.0) / r * du + params.linear_coeff * u - nonlin


def series_start(params: ProblemParams, a: float, r0: float) -> tuple[float, float]:
    """Second-order Taylor hand-off at r0 for u(0) = a, u'(0) = 0.

    u(r) = a - f(a) r^2/(2N) + O(r^4), so the 1/r term never gets evaluated
    at the singular origin.
    """
    if a <= 0.0 or not math.isfinite(a):
        raise ValueError(f"amplitude must be positive, got {a}")
    if r0 <= 0.0:
        raise ValueError(f"hand-off radius must be positive, got {r0}")
    fa = params.f(a)
    u = a - fa * r0 * r0 / (2.0 * params.N)
    du = -fa * r0 / params.N
    return u, du


def default_handoff_radius(params: ProblemParams, a: float, r_max: float) -> float:
    """r0 = 1e-4 * sqrt(a/|f(a)|), capped away from r_max.

    sqrt(a/|f(a)|) is the curvature radius of the profile at the origin: the
    neglected O((r0/scale)^4) Taylor remainder stays below ~1e-12 * a both
    at the blow-up amplitudes of the nearly-critical rescaled family (tiny
    scale) and at the nearly-flat starts close to eps* (huge scale, where a
    small r0 would make the first steps vanish below the float resolution).
    """
    fa = abs(params.f(a))
    scale = 1e6 if fa == 0.0 else min(1e6, math.sqrt(a / fa))
    return min(1e-4 * scale, 1e-3 * r_max)


# Dormand-Prince 4(5) tableau (FSAL), error weights, and the Shampine
# dense-output matrix P (interpolant is 4th order accurate).
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)
_P = (
    (1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0, -12715105075.0 / 11282082432.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0, 87487479700.0 / 32700410799.0),
    (0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0, -10690763975.0 / 1880347072.0),
    (0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0, 701980252875.0 / 199316789632.0),
    (0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0, -1453857185.0 / 822651844.0),
    (0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0, 69997945.0 / 29380423.0),
)

# 5-point Gauss-Legendre on [0, 1] for per-step norm panels.
_GX = (
    0.046910077030668004,
    0.23076534494715845,
    0.5,
    0.7692346550528415,
    0.953089922969332,
)
_GW = (
    0.11846344252809454,
    0.23931433524968324,
    0.28444444444444444,
    0.23931433524968324,
    0.11846344252809454,
)


class _DenseStep:
    """Quartic dense-output polynomial over one accepted step."""

    __slots__ = ("r0", "h", "u0", "v0", "qu", "qv")

    def __init__(self, r0, h, u0, v0, ks_u, ks_v):
        self.r0, self.h, self.u0, self.v0 = r0, h, u0, v0
        self.qu = [sum(ks_u[j] * _P[j][m] for j in range(7)) for m in range(4)]
        self.qv = [sum(ks_v[j] * _P[j][m] for j in range(7)) for m in range(4)]

    def eval(self, r: float) -> tuple[float, float]:
        th = (r - self.r0) / self.h
        qu, qv = self.qu, self.qv
        su = th * (qu[0] + th * (qu[1] + th * (qu[2] + th * qu[3])))
        sv = th * (qv[0] + th * (qv[1] + th * (qv[2] + th * qv[3])))
        return self.u0 + self.h * su, self.v0 + self.h * sv


def _bisect_event(dense: _DenseStep, fn, lo: float, hi: float, tol: float) -> float:
    """Smallest r in (lo, hi] with fn changed from its sign at lo.

    Returns the bracket endpoint on the event side, so the terminal state
    satisfies the event condition (e.g. u <= 0 for a zero crossing).
    """
    flo = fn(*dense.eval(lo))
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fmid = fn(*dense.eval(mid))
        if (flo <= 0.0) == (fmid <= 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return hi


def integrate(
    params: ProblemParams,
    a: float,
    r_max: float,
    tol: StepControls = StepControls(),
    r0: float | None = None,
) -> Trajectory:
    """Shoot outward from amplitude a until the first terminal event.

    Halts at the first of: u crosses zero (ZeroCrossing), u' turns from
    negative to positive while u > 0 (SlopeSignFlip), r reaches r_max
    (ReachedRmax), or u drops below the underflow floor while still
    decreasing (Underflow).  The terminal radius is refined on the dense
    output to tol.event_tol relative accuracy.
    """
    if r0 is None:
        r0 = default_handoff_radius(params, a, r_max)
    if r_max <= r0:
        raise ValueError(f"r_max={r_max} must exceed the hand-off radius {r0}")

    N1 = params.N - 1.0
    lin = params.linear_coeff
    qc = params.q_coeff
    pm2 = params.p - 2.0
    qm2 = params.q - 2.0

    def rhs(r: float, u: float, v: float) -> float:
        au = abs(u)
        if au > 0.0:
            nl = u * au**pm2 - qc * u * au**qm2
        else:
            nl = 0.0
        return -N1 / r * v + lin * u - nl

    floor = tol.underflow_factor * a
    quad = tol.with_quadrature
    Nm1 = float(params.N - 1)
    p_exp, q_exp = params.p, params.q

    u, v = series_start(params, a, r0)
    r = r0

    rs = [r]
    us = [u]
    vs = [v]
    if quad:
        # in-ball contribution [0, r0] from the series polynomial
        fa = params.f(a)
        i2 = ip = iq = idir = 0.0
        for x, w in zip(_GX, _GW):
            rr = r0 * x
            uu = a - fa * rr * rr / (2.0 * params.N)
            vv = -fa * rr / params.N
            wt = w * r0 * rr**Nm1
            i2 += wt * uu * uu
            ip += wt * abs(uu) ** p_exp
            iq += wt * abs(uu) ** q_exp
            idir += wt * vv * vv
        I2 = [i2]
        Ip = [ip]
        Iq = [iq]
        Idir = [idir]

    nfev = 1
    k1 = rhs(r, u, v)
    ku1, kv1 = v, k1

    # conservative first step; the controller grows it by up to 10x per step
    h = min(max(1e-6, 0.05 * r0), 0.5 * (r_max - r0))

    event: TerminalEvent | None = None
    r_event = r_max
    steps = 0

    def partial() -> Trajectory:
        t = Trajectory(
            radii=np.array(rs),
            values=np.array(us),
            slopes=np.array(vs),
            terminal_event=TerminalEvent.REACHED_RMAX,
            terminal_radius=rs[-1],
            rhs_evals=nfev,
        )
        if quad:
            t.norm_l2 = np.array(I2)
            t.norm_lp = np.array(Ip)
            t.norm_lq = np.array(Iq)
            t.norm_dir = np.array(Idir)
        return t

    while event is None:
        steps += 1
        if steps > tol.max_steps:
            raise IntegrationFailure(f"step budget {tol.max_steps} exhausted", partial())
        if h < tol.min_step * max(1.0, r):
            raise IntegrationFailure(f"step size collapsed at r={r:.6g}", partial())
        clipped = r + h >= r_max
        if clipped:
            h = r_max - r

        # six fresh stages (k1 via FSAL)
        ru2, rv2 = u + h * _A21 * ku1, v + h * _A21 * kv1
        k = rhs(r + _C2 * h, ru2, rv2)
        ku2, kv2 = rv2, k
        ru3 = u + h * (_A31 * ku1 + _A32 * ku2)
        rv3 = v + h * (_A31 * kv1 + _A32 * kv2)
        k = rhs(r + _C3 * h, ru3, rv3)
        ku3, kv3 = rv3, k
        ru4 = u + h * (_A41 * ku1 + _A42 * ku2 + _A43 * ku3)
        rv4 = v + h * (_A41 * kv1 + _A42 * kv2 + _A43 * kv3)
        k = rhs(r + _C4 * h, ru4, rv4)
        ku4, kv4 = rv4, k
        ru5 = u + h * (_A51 * ku1 + _A52 * ku2 + _A53 * ku3 + _A54 * ku4)
        rv5 = v + h * (_A51 * kv1 + _A52 * kv2 + _A53 * kv3 + _A54 * kv4)
        k = rhs(r + _C5 * h, ru5, rv5)
        ku5, kv5 = rv5, k
        ru6 = u + h * (_A61 * ku1 + _A62 * ku2 + _A63 * ku3 + _A64 * ku4 + _A65 * ku5)
        rv6 = v + h * (_A61 * kv1 + _A62 * kv2 + _A63 * kv3 + _A64 * kv4 + _A65 * kv5)
        k = rhs(r + h, ru6, rv6)
        ku6, kv6 = rv6, k
        u_new = u + h * (_B1 * ku1 + _B3 * ku3 + _B4 * ku4 + _B5 * ku5 + _B6 * ku6)
        v_new = v + h * (_B1 * kv1 + _B3 * kv3 + _B4 * kv4 + _B5 * kv5 + _B6 * kv6)
        r_new = r_max if clipped else r + h
        k = rhs(r_new, u_new, v_new)
        ku7, kv7 = v_new, k
        nfev += 6

        eu = h * (_E1 * ku1 + _E3 * ku3 + _E4 * ku4 + _E5 * ku5 + _E6 * ku6 + _E7 * ku7)
        ev = h * (_E1 * kv1 + _E3 * kv3 + _E4 * kv4 + _E5 * kv5 + _E6 * kv6 + _E7 * kv7)
        su = tol.atol + tol.rtol * max(abs(u), abs(u_new))
        sv = tol.atol + tol.rtol * max(abs(v), abs(v_new))
        err = math.sqrt(0.5 * ((eu / su) ** 2 + (ev / sv) ** 2))

        if not math.isfinite(err):
            # overflowing state (e.g. runaway amplitude); shrink hard so the
            # min_step failure path reports cleanly
            h *= 0.2
            continue
        if err > 1.0:
            h *= max(0.2, 0.9 * err**-0.2)
            continue

        # terminal event checks, in priority order within the step; fn is the
        # event function whose sign change is refined on the dense output
        fn = None
        if u_new <= 0.0:
            event, fn = TerminalEvent.ZERO_CROSSING, lambda uu, vv: uu
        elif v_new >= 0.0 and u_new > 0.0:
            event, fn = TerminalEvent.SLOPE_SIGN_FLIP, lambda uu, vv: vv
        elif u_new < floor and v_new < 0.0:
            event, fn = TerminalEvent.UNDERFLOW, lambda uu, vv: uu - floor
        elif clipped:
            event = TerminalEvent.REACHED_RMAX
            r_event = r_max

        r_stop = r_new
        # the interpolant is built only on steps that read it: event
        # refinement and quadrature panels
        if quad or fn is not None:
            dense = _DenseStep(
                r,
                h,
                u,
                v,
                (ku1, ku2, ku3, ku4, ku5, ku6, ku7),
                (kv1, kv2, kv3, kv4, kv5, kv6, kv7),
            )
            if fn is not None:
                etol = tol.event_tol * max(1.0, r_new)
                r_event = _bisect_event(dense, fn, r, r_new, etol)
                u_new, v_new = dense.eval(r_event)
                r_stop = r_event

        if quad:
            hh = r_stop - r
            i2 = ip = iq = idir = 0.0
            for x, w in zip(_GX, _GW):
                rr = r + hh * x
                uu, vv = dense.eval(rr)
                wt = w * hh * rr**Nm1
                au = abs(uu)
                i2 += wt * uu * uu
                ip += wt * au**p_exp
                iq += wt * au**q_exp
                idir += wt * vv * vv
            I2.append(I2[-1] + i2)
            Ip.append(Ip[-1] + ip)
            Iq.append(Iq[-1] + iq)
            Idir.append(Idir[-1] + idir)

        r, u, v = r_stop, u_new, v_new
        ku1, kv1 = ku7, kv7
        rs.append(r)
        us.append(u)
        vs.append(v)

        if event is None:
            h *= min(10.0, max(0.2, 0.9 * (err + 1e-300) ** -0.2))

    t = partial()
    t.terminal_event = event
    t.terminal_radius = r_event
    return t
