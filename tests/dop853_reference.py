"""One DOP853 shot of ``gslab.ode.integrate`` in Python: the bitwise oracle
of the C kernel, ``src/gslab/_dop853.c``.

``integrate`` here is the shot the kernel is written after: the series
start (``_start``), the step loop, the refinement of the terminal event on
the dense output (``_refine``, ``_bisect_event``) and, with quadrature, the
numpy dense pass over every accepted step (``_dense_pass``).  The same float operations in the same order: Python's
``**`` where the kernel calls its copy of CPython's float_pow, Python's max
and min branches, and every dot product of the interpolant summed left to
right from 0.0 (``_dot``, on floats and on arrays alike); the dense pass's
powers are ``np.float_power`` (libm's ``pow``; ``np.power`` may take a SIMD
path that rounds differently from build to build), and no sum goes through
BLAS.  ``tests/test_kernel.py`` compares the two bit for bit.  ``Shot``
is ``gslab.ode.Shot`` on this ``integrate``, a search shot read at its end
(``shot_end``).  Where Python's ``**`` or ``/`` raises, other than on a
trial step whose stage power overflows (the step shrinks), the shot fails
with an IntegrationFailure, as the kernel's arithmetic stop does; one in
the series start has no rows.

The loop is written for CPython's interpreter: the controls and tableau
constants are locals, and each stage's sums and the right-hand side are
written out at each of the twelve stage evaluations.  The kernel forms a
stage from its row of the tableau instead, over the row's nonzero entries
in column order, so the two formulations of the step check each other.  The module-level constants it reads from
``gslab.ode`` (the series, the hand-off radius, the settled stop, the event
tolerance, the collapsed step and the underflow floor) are looked up at
call time, so a test that patches them there patches both shots.
"""

from __future__ import annotations

import functools
import math
from array import array
from operator import add, mul

import numpy as np

from gslab import ode
from gslab.ode import (
    _A,
    _B,
    _C,
    _D_DENSE,
    _E3,
    _E5,
    _BALL_W,
    _BALL_X,
    _EXTRA,
    _FRACS,
    _GW_SUB,
    _GX,
    _SUB,
    IntegrationFailure,
    ShotEnd,
    StepControls,
    TerminalEvent,
    Trajectory,
    series_piece,
)
from gslab.params import ProblemParams


def _sum(terms):
    """The terms added left to right from 0.0: floats, or arrays."""
    return functools.reduce(add, terms, 0.0)


def _dot(row: tuple, k):
    """sum(row[j] * k[j]) over the row, left to right (_sum): k is a list of
    floats, or an array whose rows are arrays of steps."""
    return _sum(map(mul, row, k))


def _dense_coefficients(params: ProblemParams, power, r, h, u, v, u1, v1,
                        ku, kv) -> tuple[tuple, tuple]:
    """The seventh-order interpolant of the step [r, r + h] from (u, u') =
    (u, v) to (u1, v1): its coefficients F0-F6 for u and for u'.

    ``ku`` and ``kv`` hold u' and u'' at the 12 dense stages (ode's
    _DENSE_STAGES), of which the step's own first nine are set; this sets
    the three extra stages.  Works on floats (the step that refines an
    event: lists, ``power`` = pow) and on arrays of steps (the final pass:
    2-d arrays, ``power`` = np.float_power, which calls libm's ``pow`` like
    ``**``; ``np.power`` may take a SIMD path that rounds differently).
    """
    N1 = params.N - 1.0
    lin, qc = params.linear_coeff, params.q_coeff
    pm2, qm2 = params.p - 2.0, params.q - 2.0
    for m, (c, row) in enumerate(_EXTRA, start=9):
        us = u + h * _dot(row, ku)
        vs = v + h * _dot(row, kv)
        au = abs(us)
        ku[m] = vs
        kv[m] = us * (lin - power(au, pm2) + qc * power(au, qm2)) - N1 / (r + c * h) * vs
    out = []
    for y0, y1, k in ((u, u1, ku), (v, v1, kv)):
        dy = y1 - y0
        out.append((dy, h * k[0] - dy, 2.0 * dy - h * (k[8] + k[0]),
                    *[h * _dot(row, k) for row in _D_DENSE]))
    return out[0], out[1]


def _dense_eval(y0, f, x):
    """y0 plus the interpolant with coefficients f[0..6] at the fraction x of
    its step: floats, or arrays that broadcast."""
    y = 1.0 - x
    return y0 + x * (f[0] + y * (f[1] + x * (f[2] + y * (f[3] + x * (f[4] + y * (
        f[5] + x * f[6]))))))


def _bisect_event(r0: float, h: float, y0: float, f, level: float, lo: float, hi: float,
                  tol: float) -> float:
    """Smallest r in (lo, hi] where the interpolant (y0, f) of the step
    [r0, r0 + h] minus level changed from its sign at lo.

    Returns the bracket endpoint on the event side, so the terminal state
    satisfies the event condition (e.g. u <= 0 for a zero crossing).
    """
    below = _dense_eval(y0, f, (lo - r0) / h) - level <= 0.0
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if (_dense_eval(y0, f, (mid - r0) / h) - level <= 0.0) == below:
            lo = mid
        else:
            hi = mid
    return hi


def _ball_nodes(N: int, r0: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes r on [0, r0] and weights w such that sum(w * g(r)) is the
    integral of g(r) r^(N-1) over [0, r0], on ode's _BALL_NODES Gauss nodes,
    as the kernel weights them."""
    rr = rn = r0 * _BALL_X
    for _ in range(N - 2):   # r^(N-1) by products, as on the panels
        rn = rn * rr
    return rr, _BALL_W * r0 * rn


def _node_rows(params: ProblemParams, r, u, v, wt) -> np.ndarray:
    """The 8 node rows of the kernel's dense pass at nodes r with (u, u') and
    weights wt (any shape, flattened in order): r, u, u', wt, then the norm
    terms wt u^2, wt |u|^p, wt |u|^q and wt u'^2."""
    au = np.abs(u)
    rows = (r, u, v, wt, wt * u * u, wt * np.float_power(au, params.p),
            wt * np.float_power(au, params.q), wt * v * v)
    return np.array([np.ravel(x) for x in rows])


def _dense_pass(params: ProblemParams, coeffs: tuple, k1: float, stages, radii: np.ndarray,
                values: np.ndarray, slopes: np.ndarray, end: tuple | None):
    """The final pass's grid and node rows, one numpy pass over its steps.

    Each step's interpolant (its three extra stages included) gives the
    grid _SUB - 1 interior points and _SUB Gauss panels, after the in-ball
    piece [0, r0] from the series polynomial.  ``stages`` holds (h, u' at
    the stages 6-12, u'' at the stages 6-13) of every accepted step, as
    ``integrate`` numbers them (stage 13 is the FSAL one); ``k1`` is the
    first step's u'' at its start (each later one is the step before's
    stage 13), and ``end`` is (u, u') at the end of the last step before an
    event moved it (None if no event did).

    Returns the dense (radii, values, slopes), the 8 node rows (_node_rows)
    of the series piece's nodes, then each sub-interval's Gauss nodes in
    order, and the RHS evaluations made: the reference of the kernel's
    dop853_dense.
    """
    n = len(radii) - 1
    rr, wt = _ball_nodes(params.N, float(radii[0]))
    ball = _node_rows(params, rr, *series_piece(coeffs, rr), wt)
    if not n:
        return (radii, values, slopes), ball, 0
    # (a refinement that failed left one step more in stages than on the grid)
    st = np.frombuffer(stages, count=16 * n).reshape(n, 16).T
    h, r = st[0], radii[:-1]
    u0, v0, u1, v1 = values[:-1], slopes[:-1], values[1:].copy(), slopes[1:].copy()
    if end is not None:
        u1[-1], v1[-1] = end
    ku, kv = np.empty((12, n)), np.empty((12, n))
    ku[0], ku[1:8], ku[8] = v0, st[1:8], v1
    kv[0, 0], kv[0, 1:], kv[1:9] = k1, st[15, :-1], st[8:16]
    fu, fv = _dense_coefficients(params, np.float_power, r, h, u0, v0, u1, v1, ku, kv)
    hh = radii[1:] - r
    rr = r + hh * _FRACS
    x = (rr - r) / h
    uv = _dense_eval(u0, fu, x), _dense_eval(v0, fv, x)

    # the grid: each step's start, then its interior points
    k = _SUB - 1
    grid = []
    for start, dense, last in ((r, rr, radii), (u0, uv[0], values), (v0, uv[1], slopes)):
        g = np.empty((_SUB, n))
        g[0], g[1:] = start, dense[:k]
        grid.append(np.append(g.T.ravel(), last[-1]))

    # (sub-interval, node, step) arrays at the Gauss nodes
    shape = (_SUB, len(_GX), n)
    rg, ug, vg = (g[k:].reshape(shape) for g in (rr, *uv))
    wt = _GW_SUB * hh * rg
    for _ in range(params.N - 2):   # r^(N-1) by products: N is an integer
        wt *= rg
    # in (step, sub-interval, node) order
    panels = _node_rows(params, *(x.transpose(2, 0, 1) for x in (rg, ug, vg, wt)))
    return tuple(grid), np.concatenate((ball, panels), axis=1), 3 * n


def _trajectory(rs, us, vs, nfev: int, quad: tuple | None,
                end: tuple | None = None) -> Trajectory:
    """The grid so far, as a ReachedRmax trajectory.  ``quad`` is None, or
    _dense_pass' (params, coeffs, k1, stages) of a run with quadrature."""
    radii, values, slopes = np.asarray(rs), np.asarray(us), np.asarray(vs)
    series, nodes = None, None
    if quad is not None:
        (radii, values, slopes), nodes, extra = _dense_pass(*quad, radii, values, slopes, end)
        nfev += extra
        series = quad[1]
    return Trajectory(
        radii=radii,
        values=values,
        slopes=slopes,
        terminal_event=TerminalEvent.REACHED_RMAX,
        rhs_evals=nfev,
        series=series,
        nodes=nodes,
    )


def _arithmetic_failure(r: float, partial: Trajectory) -> IntegrationFailure:
    """The failure of a shot whose ** or / raised at r (0 in the series start)."""
    return IntegrationFailure(
        f"arithmetic failed at r={r:.6g}: a power overflowed or a division was by zero", partial)


def _start(params: ProblemParams, a: float, r_max: float, tol: StepControls):
    """What the step loop starts from: the series coefficients, the hand-off
    radius r0, (u, u', u'') there, the first step, and the settled stop's
    (a/2, N-2, _SETTLE_MARGIN D / (u g)) where it is on (else None)."""
    if not r_max > 0.0:
        raise ValueError(f"r_max must be positive, got {r_max}")
    coeffs = ode.series_coefficients(params, a)
    r0 = ode.default_handoff_radius(coeffs, r_max)   # below r_max
    u, v = series_piece(coeffs, r0)
    au = abs(u)
    k1 = (u * (params.linear_coeff - au**(params.p - 2.0) + params.q_coeff * au**(params.q - 2.0))
          - (params.N - 1.0) / r0 * v)
    # conservative first step; the controller grows it by up to 10x per step
    h = min(max(1e-6, 0.05 * r0), 0.5 * (r_max - r0))
    # an algebraic run without quadrature ends where B has settled (_SETTLE_G)
    settle = None
    if params.is_algebraic() and not tol.with_quadrature:
        settle = 0.5 * a, params.N - 2.0, ode._SETTLE_MARGIN * ode._drift_coeff(params)
    return coeffs, r0, u, v, k1, h, settle


def _refine(params: ProblemParams, event: TerminalEvent, floor: float, r: float, h: float,
            u: float, v: float, u_new: float, v_new: float, r_new: float,
            ku: list, kv: list) -> tuple[float, float, float]:
    """(r, u, u') of the event on the step [r, r_new], refined on the step's
    dense output: the crossing of 0 by u (ZeroCrossing) or u'
    (SlopeSignFlip), or of the floor by u (Underflow).  ``ku`` and ``kv``
    as _dense_coefficients takes them."""
    fu, fv = _dense_coefficients(params, pow, r, h, u, v, u_new, v_new, ku, kv)
    i, level = ((1, 0.0) if event is TerminalEvent.SLOPE_SIGN_FLIP
                else (0, floor if event is TerminalEvent.UNDERFLOW else 0.0))
    etol = ode._EVENT_TOL * max(1.0, r_new)
    r_event = _bisect_event(r, h, (u, v)[i], (fu, fv)[i], level, r, r_new, etol)
    x = (r_event - r) / h
    return r_event, _dense_eval(u, fu, x), _dense_eval(v, fv, x)


def integrate(params: ProblemParams, a: float, r_max: float,
              tol: StepControls = StepControls()) -> Trajectory:
    """``gslab.ode.integrate`` with the step loop in Python: the reference
    the C kernel matches bit for bit."""
    try:
        coeffs, r, u, v, k1, h, settle = _start(params, a, r_max, tol)
    except ArithmeticError:
        raise _arithmetic_failure(0.0, _trajectory([], [], [], 0, None)) from None

    # Everything the step loop reads is a local.  The RHS
    #   u'' = u (lin - |u|^(p-2) + qc |u|^(q-2)) - N1 / r * u'
    # is written out at each of the twelve stages below.  Stage s has the
    # state (us, vs), so u' = vs and u'' = ks there; stage 1 is the step's
    # start and k13 the FSAL stage at its end.
    N1 = params.N - 1.0
    lin = params.linear_coeff
    qc = params.q_coeff
    pm2, qm2 = params.p - 2.0, params.q - 2.0
    floor = ode._UNDERFLOW_FACTOR * a
    atol, rtol, min_step, max_steps = tol.atol, tol.rtol, ode._MIN_STEP, tol.max_steps
    _, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, _, _, _, _, _ = _C
    _, (a2_1,), (a3_1, a3_2), (a4_1, _, a4_3), (a5_1, _, a5_3, a5_4), \
        (a6_1, _, _, a6_4, a6_5), (a7_1, _, _, a7_4, a7_5, a7_6), \
        (a8_1, _, _, a8_4, a8_5, a8_6, a8_7), (a9_1, _, _, a9_4, a9_5, a9_6, a9_7, a9_8), \
        (a10_1, _, _, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9), \
        (a11_1, _, _, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10), \
        (a12_1, _, _, a12_4, a12_5, a12_6, a12_7, a12_8, a12_9, a12_10, a12_11) = _A[:12]
    b1, _, _, _, _, b6, b7, b8, b9, b10, b11, b12 = _B
    e5_1, _, _, _, _, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11, e5_12, _ = _E5
    d1, d9, d12 = b1 - _E3[0], b9 - _E3[8], b12 - _E3[11]   # B - E3
    sqrt, isfinite = math.sqrt, math.isfinite
    if settle:
        half, n2, drift = settle

    rs = [r]
    us = [u]
    vs = [v]
    rs_append, us_append, vs_append = rs.append, us.append, vs.append
    nfev = 1
    quad = None   # _dense_pass' (params, coeffs, k1, stages) of a run with quadrature
    if tol.with_quadrature:
        stages = array("d")   # every accepted step appends what _dense_pass reads
        stages_extend = stages.extend
        quad = (params, coeffs, k1, stages)

    event: TerminalEvent | None = None
    end = None   # (u, u') at the end of the last step before an event moved it
    steps = 0

    try:
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

            # eleven fresh stages and the FSAL one (k1 is the last step's k13)
            nfev += 12
            try:
                hA = h * a2_1
                u2, v2 = u + hA * v, v + hA * k1
                au = u2 if u2 > 0.0 else -u2
                k2 = u2 * (lin - au**pm2 + qc * au**qm2) - N1 / (r + c2 * h) * v2
                u3 = u + h * (a3_1 * v + a3_2 * v2)
                v3 = v + h * (a3_1 * k1 + a3_2 * k2)
                au = u3 if u3 > 0.0 else -u3
                k3 = u3 * (lin - au**pm2 + qc * au**qm2) - N1 / (r + c3 * h) * v3
                u4 = u + h * (a4_1 * v + a4_3 * v3)
                v4 = v + h * (a4_1 * k1 + a4_3 * k3)
                au = u4 if u4 > 0.0 else -u4
                k4 = u4 * (lin - au**pm2 + qc * au**qm2) - N1 / (r + c4 * h) * v4
                u5 = u + h * (a5_1 * v + a5_3 * v3 + a5_4 * v4)
                v5 = v + h * (a5_1 * k1 + a5_3 * k3 + a5_4 * k4)
                au = u5 if u5 > 0.0 else -u5
                k5 = u5 * (lin - au**pm2 + qc * au**qm2) - N1 / (r + c5 * h) * v5
                u6 = u + h * (a6_1 * v + a6_4 * v4 + a6_5 * v5)
                v6 = v + h * (a6_1 * k1 + a6_4 * k4 + a6_5 * k5)
                au = u6 if u6 > 0.0 else -u6
                k6 = u6 * (lin - au**pm2 + qc * au**qm2) - N1 / (r + c6 * h) * v6
                u7 = u + h * (a7_1 * v + a7_4 * v4 + a7_5 * v5 + a7_6 * v6)
                v7 = v + h * (a7_1 * k1 + a7_4 * k4 + a7_5 * k5 + a7_6 * k6)
                au = u7 if u7 > 0.0 else -u7
                k7 = u7 * (lin - au**pm2 + qc * au**qm2) - N1 / (r + c7 * h) * v7
                u8 = u + h * (a8_1 * v + a8_4 * v4 + a8_5 * v5 + a8_6 * v6 + a8_7 * v7)
                v8 = v + h * (a8_1 * k1 + a8_4 * k4 + a8_5 * k5 + a8_6 * k6 + a8_7 * k7)
                au = u8 if u8 > 0.0 else -u8
                k8 = u8 * (lin - au**pm2 + qc * au**qm2) - N1 / (r + c8 * h) * v8
                u9 = u + h * (a9_1 * v + a9_4 * v4 + a9_5 * v5 + a9_6 * v6 + a9_7 * v7 + a9_8 * v8)
                v9 = v + h * (a9_1 * k1 + a9_4 * k4 + a9_5 * k5 + a9_6 * k6 + a9_7 * k7 + a9_8 * k8)
                au = u9 if u9 > 0.0 else -u9
                k9 = u9 * (lin - au**pm2 + qc * au**qm2) - N1 / (r + c9 * h) * v9
                u10 = u + h * (a10_1 * v + a10_4 * v4 + a10_5 * v5 + a10_6 * v6 + a10_7 * v7
                               + a10_8 * v8 + a10_9 * v9)
                v10 = v + h * (a10_1 * k1 + a10_4 * k4 + a10_5 * k5 + a10_6 * k6 + a10_7 * k7
                               + a10_8 * k8 + a10_9 * k9)
                au = u10 if u10 > 0.0 else -u10
                k10 = u10 * (lin - au**pm2 + qc * au**qm2) - N1 / (r + c10 * h) * v10
                u11 = u + h * (a11_1 * v + a11_4 * v4 + a11_5 * v5 + a11_6 * v6 + a11_7 * v7
                               + a11_8 * v8 + a11_9 * v9 + a11_10 * v10)
                v11 = v + h * (a11_1 * k1 + a11_4 * k4 + a11_5 * k5 + a11_6 * k6 + a11_7 * k7
                               + a11_8 * k8 + a11_9 * k9 + a11_10 * k10)
                au = u11 if u11 > 0.0 else -u11
                k11 = u11 * (lin - au**pm2 + qc * au**qm2) - N1 / (r + c11 * h) * v11
                u12 = u + h * (a12_1 * v + a12_4 * v4 + a12_5 * v5 + a12_6 * v6 + a12_7 * v7
                               + a12_8 * v8 + a12_9 * v9 + a12_10 * v10 + a12_11 * v11)
                v12 = v + h * (a12_1 * k1 + a12_4 * k4 + a12_5 * k5 + a12_6 * k6 + a12_7 * k7
                               + a12_8 * k8 + a12_9 * k9 + a12_10 * k10 + a12_11 * k11)
                au = u12 if u12 > 0.0 else -u12
                k12 = u12 * (lin - au**pm2 + qc * au**qm2) - N1 / (r + h) * v12
                su = (b1 * v + b6 * v6 + b7 * v7 + b8 * v8 + b9 * v9 + b10 * v10 + b11 * v11
                      + b12 * v12)
                sv = (b1 * k1 + b6 * k6 + b7 * k7 + b8 * k8 + b9 * k9 + b10 * k10 + b11 * k11
                      + b12 * k12)
                u_new = u + h * su
                v_new = v + h * sv
                r_new = r_max if clipped else r + h
                au = u_new if u_new > 0.0 else -u_new
                k13 = u_new * (lin - au**pm2 + qc * au**qm2) - N1 / r_new * v_new
            except OverflowError:
                # a trial step so long that a stage's power overflows; shrink it
                # hard, as for a non-finite error below
                h *= 0.2
                continue

            # the error norm of DOP853: the 5th-order estimate, damped where the
            # 3rd-order one is much smaller; the step exponent is 1/8.  E3 is B
            # but at stages 1, 9 and 12, so its sums reuse those of B
            au, an = abs(u), abs(u_new)
            scale_u = atol + rtol * (an if an > au else au)
            au, an = abs(v), abs(v_new)
            scale_v = atol + rtol * (an if an > au else au)
            x = (e5_1 * v + e5_6 * v6 + e5_7 * v7 + e5_8 * v8 + e5_9 * v9 + e5_10 * v10
                 + e5_11 * v11 + e5_12 * v12) / scale_u
            y = (e5_1 * k1 + e5_6 * k6 + e5_7 * k7 + e5_8 * k8 + e5_9 * k9 + e5_10 * k10
                 + e5_11 * k11 + e5_12 * k12) / scale_v
            err5 = x * x + y * y
            x = (su - (d1 * v + d9 * v9 + d12 * v12)) / scale_u
            y = (sv - (d1 * k1 + d9 * k9 + d12 * k12)) / scale_v
            den = err5 + 0.01 * (x * x + y * y)
            err = h * err5 / sqrt(2.0 * den) if den != 0.0 else 0.0

            if not isfinite(err):
                # overflowing state (e.g. runaway amplitude); shrink hard so the
                # min_step failure path reports cleanly
                h *= 0.2
                continue
            if err > 1.0:
                h *= max(0.2, 0.9 * err**-0.125)
                continue

            # terminal event checks, in priority order within the step; all but
            # ReachedRmax are refined on the dense output
            if u_new <= 0.0:
                event = TerminalEvent.ZERO_CROSSING
            elif v_new >= 0.0 and u_new > 0.0:
                event = TerminalEvent.SLOPE_SIGN_FLIP
            elif u_new < floor and v_new < 0.0:
                event = TerminalEvent.UNDERFLOW
            elif clipped:
                event = TerminalEvent.REACHED_RMAX

            r_stop = r_new
            if quad:
                stages_extend((h, v6, v7, v8, v9, v10, v11, v12,
                               k6, k7, k8, k9, k10, k11, k12, k13))
            if event is not None and event is not TerminalEvent.REACHED_RMAX:
                # the interpolant, built only for the step that refines an event
                end = u_new, v_new
                r_stop, u_new, v_new = _refine(
                    params, event, floor, r, h, u, v, u_new, v_new, r_new,
                    [v, v6, v7, v8, v9, v10, v11, v12, v_new, 0.0, 0.0, 0.0],
                    [k1, k6, k7, k8, k9, k10, k11, k12, k13, 0.0, 0.0, 0.0])
                nfev += 3

            r, u, v = r_stop, u_new, v_new
            k1 = k13
            rs_append(r)
            us_append(u)
            vs_append(v)

            if settle and event is None and 0.0 < u < half and v < 0.0:
                g = u**pm2 * r * r
                if g < ode._SETTLE_G and abs(u + r * v / n2) > drift * u * g:
                    event = TerminalEvent.REACHED_RMAX

            if event is None:
                fac = 0.9 * (err + 1e-300) ** -0.125
                h *= 10.0 if fac > 10.0 else (fac if fac > 0.2 else 0.2)
    except ArithmeticError:   # a ** or / raised where no trial step shrinks
        raise _arithmetic_failure(r, _trajectory(rs, us, vs, nfev, quad)) from None

    t = _trajectory(rs, us, vs, nfev, quad, end)
    t.terminal_event = event
    return t


def shot_end(t: Trajectory) -> ShotEnd:
    """What ``gslab.ode.Shot.end`` returns of the run t: its last two rows
    as floats, its terminal event and its RHS evaluations."""
    return ShotEnd(*(tuple(x[-2:].tolist()) for x in (t.radii, t.values, t.slopes)),
                   t.terminal_event, t.rhs_evals)


class Shot:
    """``gslab.ode.Shot`` on this module's ``integrate``: ``end`` is the
    reference run read by shot_end, a failure's partial too."""

    def __init__(self, params: ProblemParams, r_max: float, tol: StepControls = StepControls()):
        self.params, self.r_max, self.tol = params, r_max, tol

    def end(self, a: float) -> ShotEnd:
        try:
            return shot_end(integrate(self.params, a, self.r_max, self.tol))
        except IntegrationFailure as exc:
            raise IntegrationFailure(str(exc), shot_end(exc.partial)) from None
