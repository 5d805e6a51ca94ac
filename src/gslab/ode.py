"""Radial ODE integration with adaptive Dormand-Prince 4(5) stepping.

Integrates u'' = -(N-1)/r u' - f(u) outward from a series hand-off radius
r0 > 0, with event detection (zero crossing, slope sign flip, underflow,
r_max) refined on the dense-output interpolant.  Norm integrands
(u^2, |u|^p, |u|^q, u'^2 against r^(N-1) dr) can be accumulated alongside
the trajectory using per-step Gauss panels on the same interpolant, so the
quadrature grid is exactly the integrator's accepted-step grid.

``integrate`` is the hot loop of every solve, so it is written for CPython's
interpreter: the controls and tableau constants are locals, and the
right-hand side is written out at each of the seven stage evaluations
(calling it as a closure made a step without quadrature about 20% slower).
The interpolant is built in the loop only on the step that refines an
event.  With quadrature on, each accepted step only appends its stages to a
flat buffer, and ``_panel_norms`` builds every panel's interpolant and the
four cumulative norm arrays in one numpy pass after the loop.  The
arithmetic is the textbook one, operation for operation: each expression
keeps its order, ``max``/``min`` become comparisons that pick the same
operand, the dense-output coefficients are summed left to right from 0 as
``sum`` does, and powers stay ``**`` (``pow(x, 2.0)`` need not round like
``x * x``), or ``np.float_power``, which calls the same libm ``pow``.
Results are therefore bitwise those of the plain formulation;
``tests/test_golden.py`` pins them, and ``tests/test_ode.py`` checks the
panel pass against the per-step loop it replaced.
"""

from __future__ import annotations

import enum
import math
from array import array
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
_GAUSS = tuple(zip(_GX, _GW))
_GX_COL, _GW_COL = np.array(_GX)[:, None], np.array(_GW)[:, None]


def _dense_eval(r0: float, h: float, u0: float, v0: float, qu, qv,
                r: float) -> tuple[float, float]:
    """(u, u') at r on the quartic dense output of the step [r0, r0 + h].

    ``qu``/``qv`` are the four coefficients of u and u' (``integrate`` builds
    them from the stages and the matrix ``_P``).
    """
    th = (r - r0) / h
    su = th * (qu[0] + th * (qu[1] + th * (qu[2] + th * qu[3])))
    sv = th * (qv[0] + th * (qv[1] + th * (qv[2] + th * qv[3])))
    return u0 + h * su, v0 + h * sv


def _bisect_event(dense: tuple, fn, lo: float, hi: float, tol: float) -> float:
    """Smallest r in (lo, hi] with fn changed from its sign at lo.

    ``dense`` is ``_dense_eval``'s (r0, h, u0, v0, qu, qv).  Returns the
    bracket endpoint on the event side, so the terminal state satisfies the
    event condition (e.g. u <= 0 for a zero crossing).
    """
    flo = fn(*_dense_eval(*dense, lo))
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fmid = fn(*_dense_eval(*dense, mid))
        if (flo <= 0.0) == (fmid <= 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return hi


# _P's columns 1-3 on the rows of the stages that enter them (rows 0 and
# 2-6): the quartic's coefficients 1-3 in _panel_norms
_P_COLS = np.array([row[1:] for i, row in enumerate(_P) if i != 1])


def _panel_norms(params: ProblemParams, a: float, k1: float, stages, radii: np.ndarray,
                 values: np.ndarray, slopes: np.ndarray, v_end: float | None):
    """The four cumulative norm arrays of a grid, one numpy pass over its steps.

    The in-ball contribution [0, r0] comes from the series polynomial.  Step
    i adds a 5-node Gauss panel over [radii[i], radii[i+1]] on its quartic
    dense output.  ``stages`` holds (h, v3, v4, v5, v6, k3, k4, k5, k6, k7)
    of every accepted step, ``k1`` is the first step's k1 (each later one is
    the step before's k7), and ``v_end`` is u' at the end of the last step
    before an event moved it (None if no event did).

    Every expression is the one the per-step loop evaluated, in its order:
    the dense-output coefficients are summed left to right from 0, the nodes
    are added in order from 0 per step, the running sums are sequential
    (``np.add.accumulate``), and powers are ``np.float_power``, which calls
    libm's ``pow`` like Python's ``**`` (``np.power`` may take a SIMD path
    that rounds differently).  The arrays are therefore bitwise those of the
    loop; ``tests/test_ode.py`` checks them against it.
    """
    N1 = params.N - 1.0
    pq = np.array([params.p, params.q])[:, None, None]
    r0 = float(radii[0])
    fa = params.f(a)
    i2 = ip = iq = idir = 0.0
    for x, w in _GAUSS:
        rr = r0 * x
        uu = a - fa * rr * rr / (2.0 * params.N)
        vv = -fa * rr / params.N
        wt = w * r0 * rr**N1
        i2 += wt * uu * uu
        ip += wt * abs(uu) ** params.p
        iq += wt * abs(uu) ** params.q
        idir += wt * vv * vv
    n = len(radii) - 1
    out = np.empty((4, n + 1))   # rows l2, dir, lp, lq
    out[:, 0] = i2, idir, ip, iq
    if n:
        st = np.frombuffer(stages).reshape(n, 10).T
        h = st[0]
        r = radii[:-1]
        # y[0]: u' at the stages 1, 3-7 that enter the quartic; y[1]: u''
        y = np.empty((2, 6, n))
        y[0, 0] = slopes[:-1]
        y[0, 1:5] = st[1:5]
        y[0, 5] = slopes[1:]
        if v_end is not None:
            y[0, 5, -1] = v_end
        y[1, 0, 0] = k1
        y[1, 0, 1:] = st[9, :-1]
        y[1, 1:] = st[5:]
        # the quartic's coefficients 0-3 of u (q[0]) and of u' (q[1])
        q = np.empty((2, 4, 1, n))
        q[:, 0, 0] = 0.0 + y[:, 0]
        q[:, 1:, 0] = 0.0 + y[:, 0, None] * _P_COLS[0, :, None]
        for j in range(1, 6):
            q[:, 1:, 0] += y[:, j, None] * _P_COLS[j, :, None]
        hh = radii[1:] - r
        rr = r + hh * _GX_COL
        th = (rr - r) / h
        # (2, 5, n): u and u' at the nodes, as _dense_eval
        start = np.stack((values[:-1], slopes[:-1]))[:, None]
        uv = start + h * (th * (q[:, 0] + th * (q[:, 1] + th * (q[:, 2] + th * q[:, 3]))))
        wt = _GW_COL * hh * np.float_power(rr, N1)
        terms = np.empty((4, 5, n))
        np.multiply(wt * uv, uv, out=terms[:2])
        np.multiply(wt, np.float_power(np.abs(uv[0]), pq), out=terms[2:])
        s = out[:, 1:]
        np.add(0.0, terms[:, 0], out=s)
        for j in range(1, 5):
            s += terms[:, j]
        out = np.add.accumulate(out, axis=1)
    return out[0], out[2], out[3], out[1]


def _trajectory(rs, us, vs, nfev: int, quad: tuple | None,
                v_end: float | None = None) -> Trajectory:
    """The grid so far, as a ReachedRmax trajectory.  ``quad`` is None, or
    _panel_norms' (params, a, k1, stages) of a run with quadrature."""
    t = Trajectory(
        radii=np.array(rs),
        values=np.array(us),
        slopes=np.array(vs),
        terminal_event=TerminalEvent.REACHED_RMAX,
        terminal_radius=rs[-1],
        rhs_evals=nfev,
    )
    if quad is not None:
        t.norm_l2, t.norm_lp, t.norm_lq, t.norm_dir = _panel_norms(
            *quad, t.radii, t.values, t.slopes, v_end)
    return t


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

    # Everything the step loop reads is a local.  The RHS
    #   u'' = -N1 / r * u' + lin * u - (u |u|^(p-2) - qc u |u|^(q-2))
    # is written out at each of the seven stages below, in this order.
    N1 = params.N - 1.0
    lin = params.linear_coeff
    qc = params.q_coeff
    pm2, qm2 = params.p - 2.0, params.q - 2.0
    floor = tol.underflow_factor * a
    atol, rtol, min_step, max_steps = tol.atol, tol.rtol, tol.min_step, tol.max_steps
    C2, C3, C4, C5 = _C2, _C3, _C4, _C5
    A21 = _A21
    A31, A32 = _A31, _A32
    A41, A42, A43 = _A41, _A42, _A43
    A51, A52, A53, A54 = _A51, _A52, _A53, _A54
    A61, A62, A63, A64, A65 = _A61, _A62, _A63, _A64, _A65
    B1, B3, B4, B5, B6 = _B1, _B3, _B4, _B5, _B6
    E1, E3, E4, E5, E6, E7 = _E1, _E3, _E4, _E5, _E6, _E7
    # Column 0 of _P is (1, 0, ..., 0) and row 1 is zero.  Every stage of an
    # accepted step is finite (each one feeds the finite error estimate), so
    # those products add an exact +-0.0 to a sum that is never -0.0, and
    # leaving them out changes no bit.
    (_, P01, P02, P03), _, (_, P21, P22, P23), (_, P31, P32, P33), \
        (_, P41, P42, P43), (_, P51, P52, P53), (_, P61, P62, P63) = _P
    sqrt, isfinite = math.sqrt, math.isfinite

    u, v = series_start(params, a, r0)
    r = r0

    rs = [r]
    us = [u]
    vs = [v]
    rs_append, us_append, vs_append = rs.append, us.append, vs.append
    nfev = 1
    au = abs(u)
    k1 = -N1 / r * v + lin * u - (u * au**pm2 - qc * u * au**qm2 if au > 0.0 else 0.0)
    quad = None   # _panel_norms' (params, a, k1, stages) of a run with quadrature
    if tol.with_quadrature:
        stages = array("d")   # every accepted step appends its stages
        stages_extend = stages.extend
        quad = (params, a, k1, stages)

    # conservative first step; the controller grows it by up to 10x per step
    h = min(max(1e-6, 0.05 * r0), 0.5 * (r_max - r0))

    event: TerminalEvent | None = None
    r_event = r_max
    v_end = None   # u' at the end of the last step before an event moved it
    steps = 0

    while event is None:
        steps += 1
        if steps > max_steps:
            raise IntegrationFailure(f"step budget {max_steps} exhausted",
                                     _trajectory(rs, us, vs, nfev, quad))
        if h < min_step * (r if r > 1.0 else 1.0):
            raise IntegrationFailure(f"step size collapsed at r={r:.6g}",
                                     _trajectory(rs, us, vs, nfev, quad))
        clipped = r + h >= r_max
        if clipped:
            h = r_max - r

        # six fresh stages (k1 via FSAL); stage j has state (uj, vj), u' = vj
        # and u'' = kj
        hA = h * A21
        u2, v2 = u + hA * v, v + hA * k1
        au = abs(u2)
        k2 = (-N1 / (r + C2 * h) * v2 + lin * u2
              - (u2 * au**pm2 - qc * u2 * au**qm2 if au > 0.0 else 0.0))
        u3 = u + h * (A31 * v + A32 * v2)
        v3 = v + h * (A31 * k1 + A32 * k2)
        au = abs(u3)
        k3 = (-N1 / (r + C3 * h) * v3 + lin * u3
              - (u3 * au**pm2 - qc * u3 * au**qm2 if au > 0.0 else 0.0))
        u4 = u + h * (A41 * v + A42 * v2 + A43 * v3)
        v4 = v + h * (A41 * k1 + A42 * k2 + A43 * k3)
        au = abs(u4)
        k4 = (-N1 / (r + C4 * h) * v4 + lin * u4
              - (u4 * au**pm2 - qc * u4 * au**qm2 if au > 0.0 else 0.0))
        u5 = u + h * (A51 * v + A52 * v2 + A53 * v3 + A54 * v4)
        v5 = v + h * (A51 * k1 + A52 * k2 + A53 * k3 + A54 * k4)
        au = abs(u5)
        k5 = (-N1 / (r + C5 * h) * v5 + lin * u5
              - (u5 * au**pm2 - qc * u5 * au**qm2 if au > 0.0 else 0.0))
        u6 = u + h * (A61 * v + A62 * v2 + A63 * v3 + A64 * v4 + A65 * v5)
        v6 = v + h * (A61 * k1 + A62 * k2 + A63 * k3 + A64 * k4 + A65 * k5)
        au = abs(u6)
        k6 = (-N1 / (r + h) * v6 + lin * u6
              - (u6 * au**pm2 - qc * u6 * au**qm2 if au > 0.0 else 0.0))
        u_new = u + h * (B1 * v + B3 * v3 + B4 * v4 + B5 * v5 + B6 * v6)
        v_new = v + h * (B1 * k1 + B3 * k3 + B4 * k4 + B5 * k5 + B6 * k6)
        r_new = r_max if clipped else r + h
        au = abs(u_new)
        k7 = (-N1 / r_new * v_new + lin * u_new
              - (u_new * au**pm2 - qc * u_new * au**qm2 if au > 0.0 else 0.0))
        nfev += 6

        eu = h * (E1 * v + E3 * v3 + E4 * v4 + E5 * v5 + E6 * v6 + E7 * v_new)
        ev = h * (E1 * k1 + E3 * k3 + E4 * k4 + E5 * k5 + E6 * k6 + E7 * k7)
        au, au_new = abs(u), abs(u_new)
        av, av_new = abs(v), abs(v_new)
        su = atol + rtol * (au_new if au_new > au else au)
        sv = atol + rtol * (av_new if av_new > av else av)
        err = sqrt(0.5 * ((eu / su) ** 2 + (ev / sv) ** 2))

        if not isfinite(err):
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
        if quad:
            stages_extend((h, v3, v4, v5, v6, k3, k4, k5, k6, k7))
        if fn is not None:
            # the interpolant, built only for the step that refines an event:
            # each coefficient is the stage sum of _P's column, added left to
            # right from 0
            qu1 = 0.0 + v * P01 + v3 * P21 + v4 * P31 + v5 * P41 + v6 * P51 + v_new * P61
            qu2 = 0.0 + v * P02 + v3 * P22 + v4 * P32 + v5 * P42 + v6 * P52 + v_new * P62
            qu3 = 0.0 + v * P03 + v3 * P23 + v4 * P33 + v5 * P43 + v6 * P53 + v_new * P63
            qv1 = 0.0 + k1 * P01 + k3 * P21 + k4 * P31 + k5 * P41 + k6 * P51 + k7 * P61
            qv2 = 0.0 + k1 * P02 + k3 * P22 + k4 * P32 + k5 * P42 + k6 * P52 + k7 * P62
            qv3 = 0.0 + k1 * P03 + k3 * P23 + k4 * P33 + k5 * P43 + k6 * P53 + k7 * P63
            dense = (r, h, u, v, (0.0 + v, qu1, qu2, qu3), (0.0 + k1, qv1, qv2, qv3))
            etol = tol.event_tol * max(1.0, r_new)
            r_event = _bisect_event(dense, fn, r, r_new, etol)
            v_end = v_new
            u_new, v_new = _dense_eval(*dense, r_event)
            r_stop = r_event

        r, u, v = r_stop, u_new, v_new
        k1 = k7
        rs_append(r)
        us_append(u)
        vs_append(v)

        if event is None:
            fac = 0.9 * (err + 1e-300) ** -0.2
            h *= 10.0 if fac > 10.0 else (fac if fac > 0.2 else 0.2)

    t = _trajectory(rs, us, vs, nfev, quad, v_end)
    t.terminal_event = event
    t.terminal_radius = r_event
    return t
