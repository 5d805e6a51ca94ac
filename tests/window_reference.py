"""The admissible window of an amplitude search in Python: the reference the
C kernel's ``admissible_window`` (src/gslab/_dop853.c) is written after.

``f_positive_roots`` is ``shooting._f_positive_roots`` as it ran in Python:
the closed forms where lin = 0 or qc = 0, else three Brent loops to 1e-15
relative (``_f_root``, through ``shooting._bracket_root`` and its
``_zeroin``, read at call time, as is ``shooting._MAX_PROBES``).
Where a ``**`` or ``/`` of those loops raises, the window raises
BracketNotFound instead, as the kernel's arithmetic stop does, with what
Python raised as its cause.  ``tests/test_roots.py`` checks the kernel
against it bit for bit, the exceptions included.
"""

from gslab import shooting
from gslab.errors import BracketNotFound, InternalConsistencyError
from gslab.params import ProblemParams


def _f_root(fun, a: float, fa: float, b: float, fb: float) -> float:
    """Root of fun in [a, b], 0 < a < b, to 1e-15 relative (_bracket_root);
    fa and fb are fun(a) and fun(b), as the caller already has them.

    Its bisection steps are geometric, so the tens of decades a bracket can
    span with p close to 2 take about 60 of them (a hundred decades at
    p = 2.02 took 113 Brent steps).  A bracket without a sign change, or one
    not closed in _MAX_PROBES steps, raises InternalConsistencyError.
    """
    if fa != 0.0 and fb != 0.0 and (fa > 0.0) == (fb > 0.0):
        raise InternalConsistencyError(
            f"root bracket [{a!r}, {b!r}] has no sign change: f = {fa!r}, {fb!r}")
    lo, hi, _ = shooting._bracket_root(fun, a, fa, b, fb, 1e-15)
    if hi / lo - 1.0 > 1e-15:
        raise InternalConsistencyError(
            f"root of f in [{a!r}, {b!r}] not found in {shooting._MAX_PROBES} steps: "
            f"[{lo!r}, {hi!r}]")
    return 0.5 * (lo + hi)


def f_positive_roots(params: ProblemParams) -> tuple[float, float | None]:
    """(u_F0, u_hi): first positive zero of F and largest root of f (None = scan up)."""
    lin, qc = params.linear_coeff, params.q_coeff
    p, q = params.p, params.q

    if lin == 0.0:
        # P_zero-like: f > 0 on (0, u_hi), F > 0 immediately
        u_hi = qc ** (-1.0 / (q - p)) if qc > 0.0 else None
        return 0.0, u_hi

    if qc == 0.0:
        # R_zero-like: single root of f at lin^(1/(p-2)); F-zero in closed form
        u_f0 = (p * lin / 2.0) ** (1.0 / (p - 2.0))
        return u_f0, None

    try:
        return _brent_window(params)
    except ArithmeticError as exc:
        raise BracketNotFound(
            f"arithmetic failed in the admissible window of {params.family.value} "
            f"(N={params.N}, p={params.p}, q={params.q}, eps={params.eps}): "
            "a power overflowed or a division was by zero") from exc


def _brent_window(params: ProblemParams) -> tuple[float, float]:
    """(u_F0, u_hi) where lin > 0 and qc > 0: three Brent loops on f and F."""
    lin, qc = params.linear_coeff, params.q_coeff
    p, q = params.p, params.q

    def g(u):
        return u ** (p - 2.0) - qc * u ** (q - 2.0) - lin

    u_peak = ((p - 2.0) / (qc * (q - 2.0))) ** (1.0 / (q - p))
    g_peak = g(u_peak)
    if g_peak <= 0.0:
        raise BracketNotFound(
            f"f has no positive roots for {params.family.value} "
            f"(N={params.N}, p={params.p}, q={params.q}, eps={params.eps}); "
            "no ground state in this regime"
        )
    u_lo = u_peak * 1e-14
    g_lo = g(u_lo)
    if g_lo > 0.0:
        # p close to 2: u^(p-2) > lin still holds there, and g < 0 wherever
        # u^(p-2) < lin, so take the lower end from lin instead
        u_lo = (0.5 * lin) ** (1.0 / (p - 2.0))
        g_lo = g(u_lo)
    m1 = _f_root(g, u_lo, g_lo, u_peak, g_peak)
    hi, g_hi = u_peak, g_peak
    while g_hi > 0.0:
        hi *= 2.0
        g_hi = g(hi)
    m2 = _f_root(g, u_peak, g_peak, hi, g_hi)
    F_m2 = params.F(m2)
    if F_m2 <= 0.0:
        raise BracketNotFound("potential F has no positive zero below the largest root of f")
    u_f0 = _f_root(params.F, m1, params.F(m1), m2, F_m2)
    return u_f0, m2
