"""shooting._brentq against scipy.optimize.brentq, its oracle, bit for bit.

gslab carries its own port of scipy's brentq loop so that importing it
leaves scipy.optimize unimported; the port must return the same float on
every call, and raise the same exception types.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.optimize import brentq

import gslab
from gslab import BracketNotFound, Family, ProblemParams, epsilon_star
from gslab import shooting


def _draw_params(rng: random.Random) -> ProblemParams:
    """Random (N, p, q, eps) for the two families whose roots take brentq."""
    N = rng.choice((3, 4, 5, 6))
    p = rng.uniform(2.2, 9.0)
    q = p + rng.uniform(0.2, 8.0)
    if rng.random() < 0.7:
        eps = epsilon_star(p, q) * math.exp(rng.uniform(math.log(1e-9), math.log(0.999)))
        return ProblemParams(N, p, q, eps, Family.P_EPS)
    return ProblemParams(N, p, q, math.exp(rng.uniform(math.log(1e-6), math.log(0.9))),
                         Family.R_EPS)


def _outcome(solver, *args, **kw) -> str:
    """float.hex of the root, or the name of the exception raised."""
    try:
        return solver(*args, **kw).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__


def test_f_positive_roots_match_scipy_brentq_bitwise(monkeypatch):
    # every root-finder call _f_positive_roots makes, run through both
    rng = random.Random(20261018)
    port = shooting._brentq
    calls = []

    def both(f, xa, xb, **kw):
        calls.append(_outcome(port, f, xa, xb, **kw))
        assert calls[-1] == _outcome(brentq, f, xa, xb, **kw), (xa, xb, kw)
        return port(f, xa, xb, **kw)

    monkeypatch.setattr(shooting, "_brentq", both)
    for _ in range(300):
        try:
            shooting._f_positive_roots(_draw_params(rng))
        except (BracketNotFound, ValueError, RuntimeError):
            pass   # raised by both: no ground state, or the root finder gave up
    assert len(calls) > 600


def _smooth(rng: random.Random):
    """(f, a, b): a random smooth f with one sign change in [a, b]."""
    root = rng.uniform(-5.0, 5.0)
    a = root - math.exp(rng.uniform(-8.0, 2.0))
    b = root + math.exp(rng.uniform(-8.0, 2.0))
    c1, c2, k = rng.uniform(0.1, 3.0), rng.uniform(-2.0, 2.0), rng.uniform(0.5, 4.0)
    kind = rng.randrange(4)
    sign = rng.choice((-1.0, 1.0))

    def f(x):
        d = x - root
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


@pytest.mark.parametrize("tols", [{}, {"xtol": 1e-14, "rtol": 1e-13}],
                         ids=["default", "xtol1e-14-rtol1e-13"])
def test_smooth_roots_match_scipy_brentq_bitwise(tols):
    rng = random.Random(7)
    for _ in range(1500):
        f, a, b = _smooth(rng)
        assert _outcome(shooting._brentq, f, a, b, **tols) == brentq(f, a, b, **tols).hex(), (a, b)


def test_brentq_edge_cases_match_scipy():
    def cubic(x):
        return x ** 3 - 2.0

    # a root at an end point is returned as given
    for a, b in ((0.0, 1.0), (-1.0, 0.0)):
        assert shooting._brentq(lambda x: x, a, b) == brentq(lambda x: x, a, b)
    # no sign change, a NaN value, and too few iterations
    for exc, args, kw in ((ValueError, (cubic, 2.0, 3.0), {}),
                          (ValueError, (lambda x: math.nan, 0.0, 1.0), {}),
                          (RuntimeError, (cubic, 0.0, 3.0), {"maxiter": 3})):
        with pytest.raises(exc):
            brentq(*args, **kw)
        with pytest.raises(exc):
            shooting._brentq(*args, **kw)


def test_cli_import_leaves_scipy_optimize_out():
    code = "import sys, gslab.cli; sys.exit('scipy.optimize' in sys.modules)"
    src = str(Path(gslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_f_positive_roots_raise_only_bracket_not_found():
    # admissible draws with p in (2.2, 9): with p close to 2 the lower end of
    # f's first root bracket comes from eps, and a root Brent's method cannot
    # reach in u within its step budget is found in log u
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
