"""The Dormand-Prince 4(5) shooting integrator gslab used before DOP853.

A tolerance oracle for ``gslab.ode.integrate``: the same hand-off, first
step, step controller (exponent 1/5), events and event refinement (bisection
on Shampine's quartic dense output), with the tableau of Dormand & Prince
(1980).  It returns (radii, values, slopes, terminal event, terminal
radius, RHS evaluations); norms are not co-integrated.
"""

import math

from gslab import TerminalEvent, ode
from gslab.ode import _EVENT_TOL, default_handoff_radius, series_coefficients, series_piece

C = (0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0)
A = (
    (),
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
)
B = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0)
E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0,
     22.0 / 525.0, -1.0 / 40.0)
P = (
    (1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0,
     -12715105075.0 / 11282082432.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0,
     87487479700.0 / 32700410799.0),
    (0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0,
     -10690763975.0 / 1880347072.0),
    (0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0,
     701980252875.0 / 199316789632.0),
    (0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0,
     -1453857185.0 / 822651844.0),
    (0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0, 69997945.0 / 29380423.0),
)


def _dot(row, ks):
    return sum((c * k for c, k in zip(row, ks)), 0.0)


def integrate(params, a, r_max, tol):
    """Shoot outward from amplitude a under the StepControls tol."""
    N1, lin, qc = params.N - 1.0, params.linear_coeff, params.q_coeff
    pm2, qm2 = params.p - 2.0, params.q - 2.0

    def rhs(r, u, v):
        au = abs(u)
        return -N1 / r * v + lin * u - (u * au**pm2 - qc * u * au**qm2 if au > 0.0 else 0.0)

    coeffs = series_coefficients(params, a)
    r0 = default_handoff_radius(coeffs, r_max)
    u, v = series_piece(coeffs, r0)
    r = r0
    rs, us, vs = [r], [u], [v]
    k1, nfev = rhs(r, u, v), 1
    h = min(max(1e-6, 0.05 * r0), 0.5 * (r_max - r0))
    floor = ode._UNDERFLOW_FACTOR * a
    event, r_event, steps = None, r_max, 0
    while event is None:
        steps += 1
        if steps > tol.max_steps or h < ode._MIN_STEP * max(1.0, r):
            raise RuntimeError(f"the oracle failed at r={r:.6g}")
        clipped = r + h >= r_max
        if clipped:
            h = r_max - r
        uk, vk = [v], [k1]   # u' and u'' at the stages
        for c, row in zip(C[1:], A[1:]):
            us_, vs_ = u + h * _dot(row, uk), v + h * _dot(row, vk)
            uk.append(vs_)
            vk.append(rhs(r + c * h, us_, vs_))
        u_new, v_new = u + h * _dot(B, uk), v + h * _dot(B, vk)
        r_new = r_max if clipped else r + h
        uk.append(v_new)
        vk.append(rhs(r_new, u_new, v_new))
        nfev += 6
        su = tol.atol + tol.rtol * max(abs(u), abs(u_new))
        sv = tol.atol + tol.rtol * max(abs(v), abs(v_new))
        err = math.sqrt(0.5 * ((h * _dot(E, uk) / su) ** 2 + (h * _dot(E, vk) / sv) ** 2))
        if not math.isfinite(err):
            h *= 0.2
            continue
        if err > 1.0:
            h *= max(0.2, 0.9 * err**-0.2)
            continue
        fn = None
        if u_new <= 0.0:
            event, fn = TerminalEvent.ZERO_CROSSING, lambda uu, vv: uu
        elif v_new >= 0.0 and u_new > 0.0:
            event, fn = TerminalEvent.SLOPE_SIGN_FLIP, lambda uu, vv: vv
        elif u_new < floor and v_new < 0.0:
            event, fn = TerminalEvent.UNDERFLOW, lambda uu, vv: uu - floor
        elif clipped:
            event = TerminalEvent.REACHED_RMAX
        if fn is not None:
            qu = [_dot(col, uk) for col in zip(*P)]
            qv = [_dot(col, vk) for col in zip(*P)]

            def dense(rr, u0=u, v0=v, r0_=r, h_=h, qu=qu, qv=qv):
                th = (rr - r0_) / h_
                return (u0 + h_ * th * (qu[0] + th * (qu[1] + th * (qu[2] + th * qu[3]))),
                        v0 + h_ * th * (qv[0] + th * (qv[1] + th * (qv[2] + th * qv[3]))))

            lo, hi = r, r_new
            flo = fn(*dense(lo))
            while hi - lo > _EVENT_TOL * max(1.0, r_new):
                mid = 0.5 * (lo + hi)
                if (flo <= 0.0) == (fn(*dense(mid)) <= 0.0):
                    lo = mid
                else:
                    hi = mid
            r_event = r_new = hi
            u_new, v_new = dense(hi)
        r, u, v, k1 = r_new, u_new, v_new, vk[-1]
        rs.append(r)
        us.append(u)
        vs.append(v)
        if event is None:
            h *= min(10.0, max(0.2, 0.9 * (err + 1e-300) ** -0.2))
    return rs, us, vs, event, r_event, nfev
