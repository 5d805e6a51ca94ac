"""Radial ODE integration with adaptive Dormand-Prince 8(5,3) stepping.

The solution with u(0) = a, u'(0) = 0 is analytic in r^2.  On [0, r0] it is
the series piece, u = sum_k c_k r^(2k) to k = K (series_coefficients), and
r0 is where the first term the piece leaves out falls below 1e-16 a
(default_handoff_radius): 0.08 to 0.4 times the curvature radius
sqrt(a/|f(a)|), so the steps do not have to grow out of the origin, where
the (N-1)/r term holds them to h ~ r.  From r0
``integrate`` shoots u'' = -(N-1)/r u' - f(u) outward with DOP853 (Hairer,
Norsett & Wanner, Solving ODEs I, II.10): twelve stages per step, the FSAL
one included, and the 5th/3rd-order error norm with step exponent 1/8.
Events (zero crossing, slope sign flip, underflow, r_max) are refined on the
seventh-order dense output, whose three extra stages are paid only on the
step that refines one.  A run of an algebraic family without quadrature (a
P_zero search shot) also ends, as ReachedRmax at its own radius, once the
far-field constant B of u ~ B + A r^-(N-2) has settled (_SETTLE_MARGIN):
its class and B are those of the run to r_max, at a fraction of the steps.
Norm integrands (u^2, |u|^p, |u|^q, u'^2 against r^(N-1) dr) can be
accumulated alongside the trajectory on the same interpolant: such a run
(the final pass of a solve) stores every step as _SUB sub-intervals, so the
grid that the cubic Hermite read side sees stays as dense as the steps are
long, and each sub-interval is one Gauss panel; the norms over [0, r0] come
from the series piece.

``integrate`` is the hot loop of every solve, and each shot is one call of
a C kernel, ``_dop853.c``: the series start (``_start``), the step loop
(the twelve stages, the error norm, step control, event detection, the
stage buffer of a run with quadrature and the settled stop) and the
refinement of the terminal event (``_refine``), written line by line like
those two and the Python loop ``_py_loop``, which stay the reference; a
run with quadrature makes one more call, for its dense pass
(``_dense_pass``, the reference there).  The same float operations in the
same order: ``**`` as CPython's float_pow (an overflowing power shrinks a
trial step as Python's OverflowError does, and the start and the
refinement raise what Python raises), Python's max and min branches, and
every dot product of the interpolant summed left to right from 0.0
(``_dot``, on floats and on arrays alike), so the two give the same bits.
At import ``_native.build`` compiles the file once into the cache
directory (the compiler CPython was built with, -O2 -ffp-contract=off);
``ode`` loads it with ctypes and uses it only if its self-check shots
match the Python bit for bit (``STEP_LOOP`` names the loop in use).
Without a compiler, with an unwritable cache or on a failed check,
``_py_loop`` runs, the same bits about 3.7x slower on solve_mix; nothing
else chooses between the two.  ``_py_loop`` is written for CPython's
interpreter: the controls and tableau constants are locals, and the
right-hand side is written out at each of the twelve stage evaluations
(calling it as a closure made a step without quadrature about 20% slower).
With quadrature on, each accepted step only appends its stages to a flat
buffer, and the dense pass builds every step's interpolant, the interior
grid points and the four cumulative norm arrays after the loop.  Its
powers are libm's ``pow`` (``np.float_power`` in numpy; ``np.power`` may
take a SIMD path that rounds differently from build to build), and no sum
goes through BLAS, whose kernels add in an order that depends on the CPU.
``tests/test_golden.py`` pins the results, ``tests/test_kernel.py`` checks
the kernel against the Python bit for bit, and ``tests/test_ode.py`` checks
the stepper against the Dormand-Prince 4(5) loop it replaced and the tables
against scipy's.
"""

from __future__ import annotations

import ctypes
import enum
import errno
import functools
import math
import os
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from operator import add, mul
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _native
from .params import Family, ProblemParams

__all__ = [
    "TerminalEvent",
    "StepControls",
    "Trajectory",
    "IntegrationFailure",
    "rhs_eval",
    "series_coefficients",
    "series_piece",
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
    min_step: float = 1e-13       # failure threshold, relative to max(1, r)
    max_steps: int = 5_000_000
    underflow_factor: float = 1e-14   # floor = underflow_factor * amplitude
    with_quadrature: bool = False


_EVENT_TOL = 1e-10   # an event radius is refined to this, relative to max(1, r)


@dataclass
class Trajectory:
    """Accepted-step grid of one outward integration.

    A run with quadrature also holds the dense output at _SUB - 1 interior
    points of every step.  ``norm_*`` arrays are cumulative integrals of the
    corresponding integrand from 0 to radii[i] (without the sphere-area
    factor); they are populated only when the integration ran with
    quadrature enabled, and so is ``series``, the coefficients c_0..c_K of
    the series piece u = sum c_k r^(2k) on [0, radii[0]].
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
    series: tuple[float, ...] | None = None

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
            series=self.series,
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


# The series piece on [0, r0] keeps the terms c_0..c_K of u = sum c_k r^(2k).
# A solve_mix solve (seeds 1-3) takes 8.94k RHS evaluations at K = 6, 8.67k
# at 8 and 8.44k at 12, while the coefficients cost ~K^2 (18 us at 8)
_SERIES_ORDER = 8


# The settled stop of an algebraic run without quadrature (a P_zero search
# shot).  Past the core u ~ B + A r^-(N-2), and dB/dr = -r f(u)/(N-2) leaves
# B = u + r u'/(N-2) the drift -D still to come, D = u g / ((N-2)((N-2)(p-1)
# - 2)) with g = u^(p-2) r^2; shooting._far_field_B reads B less D.  The run
# ends, as ReachedRmax at its own radius, once 0 < u < a/2, u' < 0,
# g < _SETTLE_G and |B| > _SETTLE_MARGIN D.  Undershoots on the Emden decay
# u ~ c r^(-2/(p-2)) keep g at c^(p-2) (2/9 at (3, 8)) and run to r_max.
# Measured on solve_mix's 12 P_zero solves (seeds 1-3), RHS evaluations per
# solve (16,974 with every shot run to r_max): _SETTLE_G 1e-1 or 3e-2 within
# 0.1% of 1e-2, 3e-3 0.7% more; _SETTLE_MARGIN 1e2 / 1e3 / 1e4 11,233 /
# 11,577 / 12,514.  1e3 keeps B within 1e-3 of the run to r_max
# (tests/test_settled_stop.py); without the drift taken off B, a margin of
# 1e6 took 13,023 and 1e3 ended the golden solve on its class stop (16,982)
_SETTLE_G = 1e-2
_SETTLE_MARGIN = 1e3


def _drift_coeff(params: ProblemParams) -> float:
    """D / (u g) = 1 / ((N-2)((N-2)(p-1) - 2)): the drift B still takes on
    past r, per u g (_SETTLE_MARGIN)."""
    n2 = params.N - 2.0
    return 1.0 / (n2 * (n2 * (params.p - 1.0) - 2.0))


def series_coefficients(params: ProblemParams, a: float) -> tuple[float, ...]:
    """c_0..c_K (K = _SERIES_ORDER) of u = sum_k c_k r^(2k), the solution with
    u(0) = a, u'(0) = 0.

    u'' + (N-1)/r u' = sum_k 2(k+1)(2k+N) c_(k+1) r^(2k) = -f(u), so
    c_(k+1) = -g_k / (2(k+1)(2k+N)), g_k being the r^(2k) coefficient of
    f(u) = u^(p-1) - qc u^(q-1) - lin u.  The powers w = u^m come from J.C.P.
    Miller's recurrence, w_0 = a^m and
    w_n = sum_(j=1..n) ((m+1) j - n) c_j w_(n-j) / (n a).
    """
    if a <= 0.0 or not math.isfinite(a):
        raise ValueError(f"amplitude must be positive, got {a}")
    N, p, q = params.N, params.p, params.q
    lin, qc = params.linear_coeff, params.q_coeff
    c = [a, -params.f(a) / (2.0 * N)]
    wp, wq = [a ** (p - 1.0)], [a ** (q - 1.0)]
    for n in range(1, _SERIES_ORDER):
        sp = sq = 0.0
        for j in range(1, n + 1):
            sp += (p * j - n) * c[j] * wp[n - j]
            sq += (q * j - n) * c[j] * wq[n - j]
        wp.append(sp / (n * a))
        wq.append(sq / (n * a))
        c.append((qc * wq[n] + lin * c[n] - wp[n]) / (2.0 * (n + 1) * (2 * n + N)))
    return tuple(c)


def series_piece(coeffs: tuple[float, ...], r):
    """(u, u') of u = sum_k coeffs[k] r^(2k) at r: floats, or arrays of radii."""
    x = r * r
    u, du = coeffs[-1], 0.0
    for k in range(len(coeffs) - 1, 0, -1):
        du = du * x + 2.0 * k * coeffs[k]
        u = u * x + coeffs[k - 1]
    return u, du * r


def series_start(params: ProblemParams, a: float, r0: float) -> tuple[float, float]:
    """(u, u') at r0 of the series piece for u(0) = a, u'(0) = 0
    (series_coefficients): the 1/r term is never evaluated at the origin."""
    if r0 <= 0.0:
        raise ValueError(f"hand-off radius must be positive, got {r0}")
    return series_piece(series_coefficients(params, a), r0)


def default_handoff_radius(coeffs: tuple[float, ...], r_max: float) -> float:
    """r0 where the first term the series piece leaves out falls to 1e-16 u(0),
    capped at 1e-3 r_max.

    That term, c_(K+1) r^(2K+2), is estimated as a (r / rho)^(2K+2) with
    rho^(-2) = max |c_k / a|^(1/k) over k = 1..K, the growth the kept
    coefficients show, so that no single coefficient that happens to vanish
    moves r0.  Where every c_k with k >= 1 is 0 (f(a) = 0: u is constant)
    only the cap binds.
    """
    a = coeffs[0]
    growth = max(abs(c / a) ** (1.0 / k) for k, c in enumerate(coeffs) if k)
    r0 = 1e-3 * r_max
    if growth > 0.0:
        r0 = min(r0, (1e-16 ** (1.0 / len(coeffs)) / growth) ** 0.5)
    return r0


# Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner, Solving ODEs I, II.10):
# nodes C, stage matrix A (row i holds A[i][0..i-1]; row 12 is the 8th-order
# weights B, rows 13-15 the three extra stages of the dense output), the 5th-
# and 3rd-order error weights E5 and E3 (13 entries, the last on the FSAL
# stage), and the rows D of the interpolant's coefficients 3-6.
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778,
)
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
     0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
_B = _A[12]
_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0.0,
)
_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0.0,
)
_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)


# The dense output reads the stages 0 and 5-15 only (1-4 have no weight in
# the extra stages' rows or in D): _DENSE_STAGES, with the extra stages'
# (node, row) and D restricted to them.  The first nine are the step's own,
# the ninth the FSAL stage at its end (``integrate`` numbers the stages
# from 1: these are its 1, 6-13, then the extra 14-16).
_DENSE_STAGES = (0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
_EXTRA = tuple((_C[s], tuple(_A[s][j] for j in _DENSE_STAGES if j < s)) for s in (13, 14, 15))
_D_DENSE = tuple(tuple(row[j] for j in _DENSE_STAGES) for row in _D)

# 4-point Gauss-Legendre on [0, 1] for the norm panels (exact to degree 7;
# 5 points move the golden norms by less than 1e-15 relative)
_GX = (0.06943184420297371, 0.33000947820757187, 0.6699905217924281, 0.9305681557970262)
_GW = (0.17392742256872679, 0.3260725774312732, 0.3260725774312732, 0.17392742256872679)

# Gauss-Legendre on [0, 1] for the series piece [0, r0] of the norms.  With
# r0 at a tenth of the curvature radius or more, 4 nodes (exact to degree 7)
# are off by up to 1e-4 of the piece and 6 by 3e-9; 10 nodes are within
# 1.1e-15 of 100 on draws over all four families
_BALL_NODES = 10
_BALL_X, _BALL_W = np.polynomial.legendre.leggauss(_BALL_NODES)
_BALL_X, _BALL_W = 0.5 * (_BALL_X + 1.0), 0.5 * _BALL_W


def _ball_nodes(N: int, r0: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes r on [0, r0] and weights w such that sum(w * g(r)) is the
    integral of g(r) r^(N-1) over [0, r0], on _BALL_NODES Gauss nodes."""
    rr = rn = r0 * _BALL_X
    for _ in range(N - 2):   # r^(N-1) by products, as on the panels
        rn = rn * rr
    return rr, _BALL_W * r0 * rn

# The final pass stores each step as _SUB sub-intervals: the grid gains the
# interpolant at the _SUB - 1 interior points, and each sub-interval is one
# Gauss panel.  _FRACS are the fractions of the step at which the pass reads
# the interpolant: the interior grid points, then the Gauss nodes of each
# sub-interval in order.
_SUB = 3
_FRACS = np.concatenate((np.arange(1, _SUB) / _SUB,
                         ((np.arange(_SUB)[:, None] + np.array(_GX)) / _SUB).ravel()))[:, None]
_GW_SUB = np.array(_GW)[:, None] / _SUB


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

    ``ku`` and ``kv`` hold u' and u'' at the 12 _DENSE_STAGES, of which the
    step's own first nine are set; this sets the three extra stages.  Works
    on floats (the step that refines an event: lists, ``power`` = pow) and
    on arrays of steps (the final pass: 2-d arrays, ``power`` =
    np.float_power, which calls libm's ``pow`` like ``**``; ``np.power``
    may take a SIMD path that rounds differently).
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


def _series_norms(params: ProblemParams, coeffs: tuple[float, ...], r0: float) -> tuple:
    """(l2, dir, lp, lq) over [0, r0] from the series piece, by Gauss-Legendre
    on _BALL_NODES nodes, each summed left to right (_sum)."""
    rr, wt = _ball_nodes(params.N, r0)
    u, v = series_piece(coeffs, rr)
    au = np.abs(u)
    return tuple(_sum(x.tolist()) for x in (wt * u * u, wt * v * v,
                                            wt * np.float_power(au, params.p),
                                            wt * np.float_power(au, params.q)))


def _dense_pass(params: ProblemParams, coeffs: tuple, k1: float, stages, radii: np.ndarray,
                values: np.ndarray, slopes: np.ndarray, end: tuple | None):
    """The final pass's grid and norms, one numpy pass over its steps.

    Each step's interpolant (its three extra stages included) gives the
    grid _SUB - 1 interior points and _SUB Gauss panels, and the four
    cumulative norm arrays are summed over those panels after the in-ball
    piece [0, r0] from the series polynomial.  ``stages`` holds (h, u' at
    the stages 6-12, u'' at the stages 6-13) of every accepted step, as
    ``integrate`` numbers them (stage 13 is the FSAL one); ``k1`` is the
    first step's u'' at its start (each later one is the step before's
    stage 13), and ``end`` is (u, u') at the end of the last step before an
    event moved it (None if no event did).

    Returns the dense (radii, values, slopes), the norms (l2, lp, lq, dir)
    on it, and the RHS evaluations made.  The pass of _py_loop, and the
    reference of the kernel's dop853_dense (_c_loop).
    """
    n = len(radii) - 1
    out = np.empty((4, _SUB * n + 1))   # rows l2, dir, lp, lq
    out[:, 0] = _series_norms(params, coeffs, float(radii[0]))
    if not n:
        return (radii, values, slopes), (out[0], out[2], out[3], out[1]), 0
    st = np.frombuffer(stages).reshape(n, 16).T
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
    pq = np.array([params.p, params.q])[:, None, None, None]
    terms = np.empty((4,) + shape)
    np.multiply(wt * ug, ug, out=terms[0])
    np.multiply(wt * vg, vg, out=terms[1])
    np.multiply(wt, np.float_power(np.abs(ug), pq), out=terms[2:])
    # summed over the nodes as ((t0 + t1) + t2) + t3, then cumulatively
    out[:, 1:] = terms.sum(axis=2).transpose(0, 2, 1).reshape(4, _SUB * n)
    out = np.add.accumulate(out, axis=1)
    return tuple(grid), (out[0], out[2], out[3], out[1]), 3 * n


def _trajectory(rs, us, vs, nfev: int, quad: tuple | None,
                end: tuple | None = None) -> Trajectory:
    """The grid so far (lists, or arrays the kernel filled), as a
    ReachedRmax trajectory.  ``quad`` is None, or _dense_pass' (params,
    coeffs, k1, stages) of a run with quadrature."""
    radii, values, slopes = np.asarray(rs), np.asarray(us), np.asarray(vs)
    norms, series = (None,) * 4, None
    if quad is not None:
        (radii, values, slopes), norms, extra = _dense_pass(*quad, radii, values, slopes, end)
        nfev += extra
        series = quad[1]
    t = Trajectory(
        radii=radii,
        values=values,
        slopes=slopes,
        terminal_event=TerminalEvent.REACHED_RMAX,
        terminal_radius=float(rs[-1]),
        rhs_evals=nfev,
        series=series,
    )
    t.norm_l2, t.norm_lp, t.norm_lq, t.norm_dir = norms
    return t


def integrate(
    params: ProblemParams,
    a: float,
    r_max: float,
    tol: StepControls = StepControls(),
) -> Trajectory:
    """Shoot outward from amplitude a until the first terminal event.

    Halts at the first of: u crosses zero (ZeroCrossing), u' turns from
    negative to positive while u > 0 (SlopeSignFlip), r reaches r_max
    (ReachedRmax), or u drops below the underflow floor while still
    decreasing (Underflow).  The terminal radius is refined on the dense
    output to _EVENT_TOL relative accuracy.  An algebraic run without
    quadrature also ends as ReachedRmax where B has settled (_SETTLE_G).
    With tol.with_quadrature the grid also holds _SUB - 1 interior points of
    every step, and the norm arrays are filled.
    """
    return _step_loop(params, a, r_max, tol)


def _start(params: ProblemParams, a: float, r_max: float, tol: StepControls):
    """What both step loops start from: the series coefficients, the hand-off
    radius r0, (u, u', u'') there, the first step, and the settled stop's
    (a/2, N-2, _SETTLE_MARGIN D / (u g)) where it is on (else None)."""
    if not r_max > 0.0:
        raise ValueError(f"r_max must be positive, got {r_max}")
    coeffs = series_coefficients(params, a)
    r0 = default_handoff_radius(coeffs, r_max)   # below r_max
    u, v = series_piece(coeffs, r0)
    au = abs(u)
    k1 = (u * (params.linear_coeff - au**(params.p - 2.0) + params.q_coeff * au**(params.q - 2.0))
          - (params.N - 1.0) / r0 * v)
    # conservative first step; the controller grows it by up to 10x per step
    h = min(max(1e-6, 0.05 * r0), 0.5 * (r_max - r0))
    # an algebraic run without quadrature ends where B has settled (_SETTLE_G)
    settle = None
    if params.is_algebraic() and not tol.with_quadrature:
        settle = 0.5 * a, params.N - 2.0, _SETTLE_MARGIN * _drift_coeff(params)
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
    etol = _EVENT_TOL * max(1.0, r_new)
    r_event = _bisect_event(r, h, (u, v)[i], (fu, fv)[i], level, r, r_new, etol)
    x = (r_event - r) / h
    return r_event, _dense_eval(u, fu, x), _dense_eval(v, fv, x)


def _py_loop(params: ProblemParams, a: float, r_max: float, tol: StepControls) -> Trajectory:
    """``integrate`` with the step loop in Python: the reference the C
    kernel (_c_loop) matches bit for bit, and the loop that runs where the
    kernel cannot be built."""
    coeffs, r, u, v, k1, h, settle = _start(params, a, r_max, tol)

    # Everything the step loop reads is a local.  The RHS
    #   u'' = u (lin - |u|^(p-2) + qc |u|^(q-2)) - N1 / r * u'
    # is written out at each of the twelve stages below.  Stage s has the
    # state (us, vs), so u' = vs and u'' = ks there; stage 1 is the step's
    # start and k13 the FSAL stage at its end.
    N1 = params.N - 1.0
    lin = params.linear_coeff
    qc = params.q_coeff
    pm2, qm2 = params.p - 2.0, params.q - 2.0
    floor = tol.underflow_factor * a
    atol, rtol, min_step, max_steps = tol.atol, tol.rtol, tol.min_step, tol.max_steps
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
    r_event = r_max
    end = None   # (u, u') at the end of the last step before an event moved it
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
            r_event = r_max

        r_stop = r_new
        if quad:
            stages_extend((h, v6, v7, v8, v9, v10, v11, v12,
                           k6, k7, k8, k9, k10, k11, k12, k13))
        if event is not None and event is not TerminalEvent.REACHED_RMAX:
            # the interpolant, built only for the step that refines an event
            end = u_new, v_new
            r_event, u_new, v_new = _refine(
                params, event, floor, r, h, u, v, u_new, v_new, r_new,
                [v, v6, v7, v8, v9, v10, v11, v12, v_new, 0.0, 0.0, 0.0],
                [k1, k6, k7, k8, k9, k10, k11, k12, k13, 0.0, 0.0, 0.0])
            nfev += 3
            r_stop = r_event

        r, u, v = r_stop, u_new, v_new
        k1 = k13
        rs_append(r)
        us_append(u)
        vs_append(v)

        if settle and event is None and 0.0 < u < half and v < 0.0:
            g = u**pm2 * r * r
            if g < _SETTLE_G and abs(u + r * v / n2) > drift * u * g:
                event, r_event = TerminalEvent.REACHED_RMAX, r

        if event is None:
            fac = 0.9 * (err + 1e-300) ** -0.125
            h *= 10.0 if fac > 10.0 else (fac if fac > 0.2 else 0.2)

    t = _trajectory(rs, us, vs, nfev, quad, end)
    t.terminal_event = event
    t.terminal_radius = r_event
    return t


# --- the C kernel -------------------------------------------------------------

# The tableau as _dop853.c reads it: C (16), A (16 rows of 16), B, E5, E3, then
# the dense output's extra nodes and rows (_EXTRA) and D (_D_DENSE), then the
# dense pass's _FRACS and _GW_SUB and the series piece's _BALL_X and _BALL_W
_TABLEAU = (ctypes.c_double * 429)(
    *_C, *(x for row in _A for x in row + (0.0,) * (16 - len(row))), *_B, *_E5, *_E3,
    *(c for c, _ in _EXTRA), *(x for _, row in _EXTRA for x in row),
    *(x for row in _D_DENSE for x in row),
    *_FRACS.ravel().tolist(), *_GW_SUB.ravel().tolist(), *_BALL_X.tolist(), *_BALL_W.tolist())
_TAB = ctypes.addressof(_TABLEAU)

# what the kernel returns (the STOP_ codes of _dop853.c)
_ROOM = 0   # 1 and 2 are ReachedRmax: at r_max, and where B has settled
_REFINED = {3: TerminalEvent.ZERO_CROSSING, 4: TerminalEvent.SLOPE_SIGN_FLIP,
            5: TerminalEvent.UNDERFLOW}
_BUDGET, _COLLAPSE = 6, 7
_RAISED = {8: (ZeroDivisionError, ("float division by zero",)),   # where the Python raises
           9: (ZeroDivisionError, ("0.0 cannot be raised to a negative power",)),
           10: (ValueError, ("libm pow failed in **",)),
           11: (OverflowError, (errno.ERANGE, os.strerror(errno.ERANGE)))}   # as ** raises it
_BAD_RMAX, _BAD_AMP = 12, 13
# the state (the S_ slots of _dop853.c): r, u, u', u'', h; (u, u') at the end
# of the step a refined event moved (5, 6); u'' at r0 (7); the settled
# stop's constants (8-10); then the series coefficients
_S_COEFFS = 11
_GRID0 = 256   # grid points the first call has room for; each refill doubles it
_SOURCE = Path(__file__).with_name("_dop853.c")
_ZEROS = array("d", [0.0])


class _Kernel(NamedTuple):
    """The entry points of the loaded _dop853.c."""

    loop: Callable[..., int]     # dop853_loop: one shot
    dense: Callable[..., None]   # dop853_dense: its dense pass, with quadrature


@functools.lru_cache(maxsize=256)
def _shot_constants(params: ProblemParams) -> tuple[float, ...]:
    """(N-1, lin, qc, p-2, q-2, p, q, N) of params, as the kernel reads them."""
    return (params.N - 1.0, params.linear_coeff, params.q_coeff, params.p - 2.0,
            params.q - 2.0, params.p, params.q, float(params.N))


def _c_loop(params: ProblemParams, a: float, r_max: float, tol: StepControls,
            kernel: _Kernel | None = None) -> Trajectory:
    """``integrate`` as one call of the C kernel (``kernel``, the loaded
    _dop853.c; the module's own by default), which matches _py_loop bit
    for bit: the series start, the step loop and the event refinement, and
    for a run with quadrature one more call for its dense pass."""
    quad = tol.with_quadrature
    ncoef = max(_SERIES_ORDER, 1) + 1   # as many as series_coefficients returns
    prm = array("d", (*_shot_constants(params), a, r_max, tol.underflow_factor, tol.atol,
                      tol.rtol, tol.min_step, _SETTLE_G, _SETTLE_MARGIN, _EVENT_TOL))
    st = _ZEROS * (_S_COEFFS + ncoef)
    budget = math.floor(max(min(tol.max_steps, 2**62), -1))   # steps > budget fails
    cnt = array("q", (0, 0, 0, budget, quad, ncoef, 0))
    cap = _GRID0
    grid = _ZEROS * (3 * cap)   # rows: radii, values, slopes
    stages = _ZEROS * (16 * cap) if quad else None   # h, u' and u'' at the stages, per step
    kernel = kernel or _kernel
    while (code := kernel.loop(_TAB, prm.buffer_info()[0], st.buffer_info()[0],
                               cnt.buffer_info()[0], grid.buffer_info()[0], cap,
                               stages.buffer_info()[0] if quad else None)) == _ROOM:
        n = cnt[0]
        grown = _ZEROS * (6 * cap)
        for i in range(3):
            grown[2 * i * cap:2 * i * cap + n] = grid[i * cap:i * cap + n]
        grid, cap = grown, 2 * cap
        if quad:
            stages.extend(_ZEROS * (8 * cap))

    if code in _RAISED:
        exc, args = _RAISED[code]
        raise exc(*args)
    if code == _BAD_RMAX:
        raise ValueError(f"r_max must be positive, got {r_max}")
    if code == _BAD_AMP:
        raise ValueError(f"amplitude must be positive, got {a}")
    n, nfev = cnt[0], cnt[1]
    # the grid ends at the terminal radius: r_max, the settled stop's or the
    # refined event's, or where a failure stopped
    t = _trajectory(*(np.frombuffer(grid, count=n, offset=8 * i * cap) for i in range(3)),
                    nfev, None)
    if quad:   # _dense_pass as one more call, into the rows of out
        out = np.empty((7, _SUB * (n - 1) + 1))
        kernel.dense(_TAB, prm.buffer_info()[0], st.buffer_info()[0], cnt.buffer_info()[0],
                     grid.buffer_info()[0], cap, stages.buffer_info()[0], code in _REFINED,
                     out.ctypes.data)
        t.radii, t.values, t.slopes, t.norm_l2, t.norm_lp, t.norm_lq, t.norm_dir = out
        t.rhs_evals += 3 * (n - 1)
        t.series = tuple(st[_S_COEFFS:])
    if code in (_BUDGET, _COLLAPSE):
        raise IntegrationFailure(f"step budget {tol.max_steps} exhausted" if code == _BUDGET
                                 else f"step size collapsed at r={st[0]:.6g}", t)
    t.terminal_event = _REFINED.get(code, TerminalEvent.REACHED_RMAX)
    return t


# The self-check shots: a tight P_eps shot with quadrature to its zero
# crossing (refined on u), a P_eps undershoot to its slope sign flip
# (refined on u'), and a P_zero search shot to its settled stop
_CHECK_SHOTS = (
    (ProblemParams(3, 4.0, 6.0, 1e-2, Family.P_EPS), 0.75, 500.0,
     StepControls(atol=1e-14, rtol=1e-12, with_quadrature=True)),
    (ProblemParams(3, 4.0, 6.0, 1e-2, Family.P_EPS), 0.4, 500.0,
     StepControls(atol=1e-14, rtol=1e-12)),
    (ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO), 0.98, 1e6,
     StepControls(atol=1e-14, rtol=1e-12)),
)


def _same(t: Trajectory, ref: Trajectory) -> bool:
    """Whether two trajectories hold the same bits (norm arrays included)."""
    return (t.terminal_event is ref.terminal_event
            and t.terminal_radius.hex() == ref.terminal_radius.hex()
            and t.rhs_evals == ref.rhs_evals
            and all((x is None and y is None)
                    or (x is not None and y is not None and x.tobytes() == y.tobytes())
                    for x, y in zip((t.radii, t.values, t.slopes, t.norm_l2, t.norm_lp,
                                     t.norm_lq, t.norm_dir),
                                    (ref.radii, ref.values, ref.slopes, ref.norm_l2,
                                     ref.norm_lp, ref.norm_lq, ref.norm_dir))))


def _load_kernel() -> _Kernel | None:
    """The entry points of _dop853.c, built into the cache directory, or
    None where it cannot be built or loaded, or where the self-check shots
    do not match _py_loop bit for bit."""
    path = _native.build(_SOURCE)
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(str(path))
        kernel = _Kernel(lib.dop853_loop, lib.dop853_dense)
        kernel.loop.restype = ctypes.c_int
        kernel.loop.argtypes = (ctypes.c_void_p,) * 5 + (ctypes.c_int64, ctypes.c_void_p)
        kernel.dense.restype = None   # the loop's arguments, a refined event's flag, out
        kernel.dense.argtypes = kernel.loop.argtypes + (ctypes.c_int, ctypes.c_void_p)
        if all(_same(_c_loop(*shot, kernel=kernel), _py_loop(*shot))
               for shot in _CHECK_SHOTS):
            return kernel
    # a library that does not load or lacks an entry point (OSError,
    # AttributeError), or a self-check shot that raises: keep the Python
    # loop.  Anything else (a TypeError from mis-declared argtypes) is a bug
    # and fails the import
    except (OSError, AttributeError, ArithmeticError, ValueError, IntegrationFailure):
        pass
    return None


def _select_loop():
    """(kernel, step loop): the C kernel and _c_loop where it loads and
    passes its self-check, else (None, _py_loop)."""
    kernel = _load_kernel()
    return kernel, (_c_loop if kernel else _py_loop)


_kernel, _step_loop = _select_loop()
STEP_LOOP = "C kernel" if _kernel else "Python"   # the step loop integrate runs
