"""f's roots: the C kernel's admissible window against its Python reference
bit for bit, and the root loop against scipy.optimize.brentq.

gslab finds the window (u_F0, u_hi) of every eps-family search in the C
kernel (``ode.admissible_window``, through ``shooting._f_positive_roots``),
by the three Brent loops of ``tests/window_reference.py`` operation for
operation, so importing it leaves scipy.optimize unimported (test_bessel.py
checks that no scipy module is loaded).  The oracle: on every eps-family
input of the benchmark's solve_mix seeds 1-3 and sweep_chain seed 1 and on
thousands of random draws, p down to 2.02 and qc down to 1e-300 among them,
the kernel returns the reference's window to the bit, or raises the
reference's exception with its message: BracketNotFound or
InternalConsistencyError, the BracketNotFound of the kernel's arithmetic
stop included where a power overflows or a division is by zero, so no
builtin arithmetic error escapes the window.  scipy's brentq, which f's
roots came from before (retried in log u where it did not converge in u),
is the oracle of the loop itself (``shooting._bracket_root``, the
reference's and the amplitude search's): the roots must agree within 5e-15
relative, and the same inputs must raise, gslab's with its own
InternalConsistencyError.
"""

import math
import random

import pytest
from scipy.optimize import brentq

from gslab import (BracketNotFound, Family, InternalConsistencyError, ProblemParams,
                   epsilon_star)
from gslab import shooting

import window_reference


def _draw_params(rng: random.Random) -> ProblemParams:
    """Random (N, p, q, eps) for the two families whose roots take Brent's method."""
    N = rng.choice((3, 4, 5, 6))
    p = rng.uniform(2.2, 9.0)
    q = p + rng.uniform(0.2, 8.0)
    if rng.random() < 0.7:
        eps = epsilon_star(p, q) * math.exp(rng.uniform(math.log(1e-9), math.log(0.999)))
        return ProblemParams(N, p, q, eps, Family.P_EPS)
    return ProblemParams(N, p, q, math.exp(rng.uniform(math.log(1e-6), math.log(0.9))),
                         Family.R_EPS)


def _scipy_f_root(fun, a: float, b: float) -> float:
    """f's root as scipy's brentq found it: in u, in log u if that did not converge."""
    try:
        return brentq(fun, a, b, xtol=1e-300, rtol=1e-15)
    except RuntimeError:
        return math.exp(brentq(lambda t: fun(math.exp(t)), math.log(a), math.log(b),
                               xtol=1e-15))


def _outcome(solver, *args):
    """The root, or the name of the exception raised."""
    try:
        return solver(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__


def _same(got, want, rel: float) -> bool:
    """Roots within rel of each other, or gslab's error where scipy raised."""
    if isinstance(want, str):
        return got == "InternalConsistencyError"
    return isinstance(got, float) and abs(got - want) <= rel * abs(want)


def _f_root(fun, a: float, b: float) -> float:
    """The reference's _f_root with the end values it is passed computed here."""
    return window_reference._f_root(fun, a, fun(a), b, fun(b))


def test_f_positive_roots_match_scipy_brentq(monkeypatch):
    # every root the reference's loops find, found by scipy too; the end
    # values the reference passes are f's values there, bit for bit, so
    # Brent's steps are the ones _f_root took when it evaluated them itself.
    # The kernel's (u_F0, u_hi) is within the same bound of scipy's zero of
    # F and largest root of f, and raises where the reference raises
    rng = random.Random(20261018)
    port = window_reference._f_root
    calls = []

    def both(fun, a, fa, b, fb):
        assert (fa, fb) == (fun(a), fun(b)), (a, b)
        calls.append((_outcome(port, fun, a, fa, b, fb), _outcome(_scipy_f_root, fun, a, b)))
        assert _same(*calls[-1], 5e-15), (a, b, calls[-1])
        return port(fun, a, fa, b, fb)

    monkeypatch.setattr(window_reference, "_f_root", both)
    windows = 0
    for _ in range(300):
        params = _draw_params(rng)
        try:
            window_reference.f_positive_roots(params)
        except (BracketNotFound, InternalConsistencyError) as exc:
            # no ground state, or no root found
            with pytest.raises(type(exc)):
                shooting._f_positive_roots(params)
            continue
        u_f0, u_hi = shooting._f_positive_roots(params)
        assert _same(u_hi, calls[-2][1], 5e-15) and _same(u_f0, calls[-1][1], 5e-15), params
        windows += 1
    assert len(calls) > 600 and windows > 250


def _smooth(rng: random.Random):
    """(f, a, b): a random smooth f with one sign change in [a, b], 0 < a."""
    root = math.exp(rng.uniform(-5.0, 5.0))
    a = root * math.exp(-math.exp(rng.uniform(-8.0, 1.0)))
    b = root * math.exp(math.exp(rng.uniform(-8.0, 1.0)))
    c1, c2, k = rng.uniform(0.1, 3.0), rng.uniform(-2.0, 2.0), rng.uniform(0.5, 4.0)
    kind = rng.randrange(4)
    sign = rng.choice((-1.0, 1.0))

    def f(x):
        d = (x - root) / root
        if kind == 0:
            g = d * (c1 + math.sin(k * x) ** 2)
        elif kind == 1:
            g = math.tanh(c1 * d) + 0.1 * c2 * c2 * d ** 3
        elif kind == 2:
            g = math.exp(c1 * d) - 1.0 + c2 * c2 * d * d * d
        else:
            g = d ** 3 * c1 + d * 1e-3 * (1.0 + c2 * c2)
        return sign * g

    return f, a, b


@pytest.mark.parametrize("rtol", [1e-15, 1e-13], ids=["rtol1e-15", "rtol1e-13"])
def test_smooth_roots_match_scipy_brentq(rtol):
    # both brackets hold the root: the mid of a bracket of relative width
    # rtol is within rtol/2 of it, and scipy's end point within rtol, so the
    # two are within 1.5 * rtol of each other (0.47 * rtol at most here)
    rng = random.Random(7)
    for _ in range(1500):
        f, a, b = _smooth(rng)
        lo, hi, n = shooting._bracket_root(f, a, f(a), b, f(b), rtol)
        assert hi / lo - 1.0 <= rtol and n < 100, (a, b)
        want = brentq(f, a, b, xtol=1e-300, rtol=rtol)
        assert abs(0.5 * (lo + hi) - want) <= 1.5 * rtol * want, (a, b)


def test_brentq_edge_cases_match_scipy(monkeypatch):
    def cubic(x):
        return x ** 3 - 2.0

    def line(x):
        return x - 2.0

    # a root at an end point is returned as given
    for a, b in ((2.0, 3.0), (1.0, 2.0)):
        assert _f_root(line, a, b) == brentq(line, a, b) == 2.0
    # no sign change and a NaN value: scipy raises ValueError
    for args in ((cubic, 2.0, 3.0), (lambda x: math.nan, 1.0, 2.0)):
        with pytest.raises(ValueError):
            brentq(*args)
        with pytest.raises(InternalConsistencyError, match="no sign change"):
            _f_root(*args)
    # too few steps: scipy raises RuntimeError; _f_root reaches its cap of 200
    # steps when Brent's steps are replaced by ones that cut 0.1% of the bracket
    with pytest.raises(RuntimeError):
        brentq(cubic, 1.0, 3.0, maxiter=3)

    def creeping(lo, f_lo, hi, f_hi, rtol):
        while True:
            x, fx = yield lo + 1e-3 * (hi - lo)
            if (fx > 0.0) == (f_lo > 0.0):
                lo = x
            else:
                hi = x

    monkeypatch.setattr(shooting, "_zeroin", creeping)
    with pytest.raises(InternalConsistencyError, match="not found in 200 steps"):
        _f_root(cubic, 1.0, 3.0)


def test_f_positive_roots_raise_only_bracket_not_found():
    # admissible draws with p in (2.2, 9): with p close to 2 the lower end of
    # f's first root bracket comes from eps, and the bracket spans tens of
    # decades, which the geometric bisection steps of _bracket_root cross
    rng = random.Random(20261019)
    found = 0
    for _ in range(2000):
        params = _draw_params(rng)
        try:
            u_f0, u_hi = shooting._f_positive_roots(params)
        except BracketNotFound:
            continue
        assert 0.0 < u_f0 < u_hi, params
        found += 1
    assert found > 1800


def test_f_positive_roots_with_p_close_to_2():
    # u_peak * 1e-14 still has g > 0 here, so the lower bracket end comes from eps
    params = ProblemParams(3, 2.58, 6.33, 1.65e-9, Family.P_EPS)
    u_f0, u_hi = shooting._f_positive_roots(params)
    assert 0.0 < u_f0 < u_hi < 1.0
    assert abs(params.F(u_f0)) <= 1e-12 * u_f0 ** 2
    assert params.F(u_f0 * (1.0 - 1e-9)) < 0.0 < params.F(u_f0 * (1.0 + 1e-9))


def test_roots_below_the_square_root_of_the_smallest_float():
    # p = 2.05 and eps = 1e-8 eps*: f's roots lie near 1e-161, where the
    # geometric mid sqrt(lo * hi) underflowed to 0 (then hi / lo raised a bare
    # ZeroDivisionError); as sqrt(lo) * sqrt(hi) it does not, and the roots
    # are found.  The solve refuses the window, below sqrt(float min), with
    # the solver's own error type (it used to run and fail its identities,
    # residuals of order 1 on a grid of 7 steps)
    from gslab import solve_ground_state

    params = ProblemParams(3, 2.05, 6.0, 1e-8 * epsilon_star(2.05, 6.0), Family.P_EPS)
    u_f0, u_hi = shooting._f_positive_roots(params)
    assert 0.0 < u_f0 < 1e-150 and u_f0 < u_hi < 1.0
    with pytest.raises(BracketNotFound, match=rf"starts at u_F0 = {u_f0:.6g}, below"):
        solve_ground_state(params)


# P_eps at p near 2 and eps ~ 1e-7 eps*: u_F0 = 1.9e-207, below sqrt(float min),
# where the lower scan's geometric step sqrt(lo u_F0) underflowed to 0 and the
# solve raised a bare ValueError for its shot at amplitude 0.0
TINY_WINDOW = ProblemParams(5, 2.0409218385713364, 2.4277106147499805, 3.4748803381085748e-09,
                            Family.P_EPS)


def test_window_below_the_float_range_is_refused_as_bracket_not_found():
    from gslab import solve_ground_state

    u_f0 = shooting._f_positive_roots(TINY_WINDOW)[0]
    assert 0.0 < u_f0 < 1e-200
    with pytest.raises(BracketNotFound, match=r"^the admissible window of P_eps \(N=5, "
                       rf"p=2.0409218385713364, .*u_F0 = {u_f0:.6g}.*R_eps"):
        solve_ground_state(TINY_WINDOW)


def _window(find, params):
    """A window's bits, or the exception raised: its type and message."""
    try:
        u_f0, u_hi = find(params)
    except (BracketNotFound, InternalConsistencyError) as exc:
        return type(exc).__name__, str(exc)
    return "window", u_f0.hex(), None if u_hi is None else u_hi.hex()


def _arithmetic_cause(params) -> str:
    """What the reference's ** or / raised under its arithmetic BracketNotFound."""
    with pytest.raises(BracketNotFound, match="^arithmetic failed") as exc:
        window_reference.f_positive_roots(params)
    return type(exc.value.__cause__).__name__


def _assert_window_bits(draws):
    """The kernel's outcome on each draw is the reference's, bit for bit;
    returns how many of each kind there were (an arithmetic stop counted
    by what Python raised)."""
    kinds = {}
    for params in draws:
        got = _window(shooting._f_positive_roots, params)
        assert got == _window(window_reference.f_positive_roots, params), params
        kind = got[0] if got[0] != "BracketNotFound" else got[1].split(" ")[0]
        if kind == "arithmetic":
            kind = _arithmetic_cause(params)
        kinds[kind] = kinds.get(kind, 0) + 1
    return kinds


def test_window_matches_reference_on_benchmark_inputs():
    # every eps-family problem of the benchmark's solve_mix seeds 1-3 and
    # every point of its sweep_chain seed 1
    import sys
    from pathlib import Path

    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    draws = [params for seed in (1, 2, 3) for params in workloads.SolveMix(seed, None).inputs]
    draws += [spec.params(x) for spec, _, _ in workloads.SweepChain(1, None).sweeps
              for x in spec.grid()]
    eps_family = [d for d in draws if d.family in (Family.P_EPS, Family.R_EPS)]
    assert len(eps_family) == 80   # 20 per solve_mix cycle, 10 per sweep
    assert _assert_window_bits(eps_family) == {"window": len(eps_family)}


def _wide_draw(rng: random.Random) -> ProblemParams:
    """(N, p, q, eps) of an eps family over a wider range than _draw_params:
    p from 2.02 (a fifth of the draws within 0.2 of it), P_eps with eps up
    to 3 eps* (where F, then f, has no positive root) and R_eps with
    qc = eps^((q-p)/(p-2)) down to 1e-300 (where the loops' powers overflow)."""
    N = rng.choice((3, 4, 5, 6, 7, 8))
    if rng.random() < 0.2:
        p = 2.02 + math.exp(rng.uniform(math.log(1e-6), math.log(0.2)))
    else:
        p = rng.uniform(2.02, 9.0)
    q = p + math.exp(rng.uniform(math.log(0.05), math.log(10.0)))
    if rng.random() < 0.5:
        eps = epsilon_star(p, q) * math.exp(rng.uniform(math.log(1e-12), math.log(3.0)))
        return ProblemParams(N, p, q, eps, Family.P_EPS)
    eps = math.exp(rng.uniform(math.log(1e-300), 0.0) * (p - 2.0) / (q - p))
    return ProblemParams(N, p, q, eps, Family.R_EPS)


def test_window_matches_reference_on_random_draws():
    # the 300 draws of the scipy test above, then 6000 wider ones
    rng = random.Random(20261018)
    assert _assert_window_bits([_draw_params(rng) for _ in range(300)])["window"] > 250
    rng = random.Random(20261020)
    draws = [_wide_draw(rng) for _ in range(6000)]
    assert min(d.p for d in draws) < 2.0201
    assert min(d.q_coeff for d in draws if d.family is Family.R_EPS) <= 1e-30
    kinds = _assert_window_bits(draws)
    # a window, no root of f, no zero of F, the arithmetic stop of an
    # overflowing power or a division by zero, a bracket without a sign change
    assert kinds == {"window": 4704, "f": 85, "potential": 40, "OverflowError": 965,
                     "ZeroDivisionError": 205, "InternalConsistencyError": 1}


@pytest.mark.parametrize("params", [
    # the lower end (0.5 eps)^(1/(p-2)) underflows to 0, and a bracket
    # divides by it; qc = 5.8e-257, and F overflows at the largest root of f
    ProblemParams(6, 2.020001478, 2.7591, 1.88e-7, Family.P_EPS),
    ProblemParams(7, 2.0268, 3.5115, 2.37e-5, Family.R_EPS),
], ids=["P_eps-zero-division", "R_eps-overflow"])
def test_window_arithmetic_stop_fails_the_solve_as_bracket_not_found(params):
    # admissible inputs whose window leaves the float range: the solve
    # raises the solver's own BracketNotFound, naming the input
    from gslab import solve_ground_state

    with pytest.raises(BracketNotFound, match=r"^arithmetic failed in the admissible window "
                       rf"of {params.family.value} \(N={params.N}, p={params.p}"):
        solve_ground_state(params)


def test_window_raises_as_the_reference(monkeypatch):
    # one draw on each raising path, the kernel's exception the reference's
    cases = {
        "f": ProblemParams(3, 4.0, 6.0, 1.0, Family.P_EPS),              # g_peak <= 0
        "potential": ProblemParams(3, 4.0, 6.0, 0.2, Family.P_EPS),      # F(m2) <= 0
        "OverflowError": ProblemParams(3, 4.0, 6.0, 1e-250, Family.R_EPS),   # g(u_peak)
        # qc (q - 2) underflows to 0: (p - 2) / (qc (q - 2)) divides by zero
        "ZeroDivisionError": ProblemParams(3, 2.1, 2.3, 2e-162, Family.R_EPS),
        # (p - 2) / (qc (q - 2)) overflows to inf: g is NaN at both ends of m1's bracket
        "InternalConsistencyError": ProblemParams(3, 4.0, 6.0, 1e-310, Family.R_EPS),
    }
    for kind, params in cases.items():
        assert _assert_window_bits([params]) == {kind: 1}, kind
    assert "no sign change" in _window(shooting._f_positive_roots,
                                       cases["InternalConsistencyError"])[1]
    # a root loop that does not close: both read the cap at call time
    monkeypatch.setattr(shooting, "_MAX_PROBES", 5)
    rng = random.Random(20261021)
    kinds = _assert_window_bits([_draw_params(rng) for _ in range(200)])
    assert kinds.get("InternalConsistencyError", 0) > 100
    got = _window(shooting._f_positive_roots, ProblemParams(3, 4.0, 6.0, 1e-3, Family.P_EPS))
    assert got[0] == "InternalConsistencyError" and "not found in 5 steps" in got[1]
