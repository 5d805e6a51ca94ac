"""The bracket hints of a sweep (asymptotics._amplitude_hint): the predictor
on synthetic points, and the hint-independence oracle on solved sweeps."""

import math

import pytest

from gslab import SweepSpec, asymptotics, solve_ground_state, sweep
from gslab.asymptotics import (_HINT_CAP, _HINT_FLOOR, _POINT_FAILURES, SweepPoint,
                               _amplitude_hint)


def _centre_and_width(hint):
    lo, hi = hint
    mid = 0.5 * (lo + hi)
    return mid, (hi - lo) / (hi + lo)


def _power_law(x):
    return 0.7 * x ** 0.3


def _hinted(x):
    """A point on _power_law whose own hint was centred on it at the floor width."""
    a = _power_law(x)
    return x, a, (a * (1.0 - _HINT_FLOOR), a * (1.0 + _HINT_FLOOR))


@pytest.mark.parametrize("n", [2, 3])
def test_exact_power_law_is_hinted_on_the_next_amplitude_at_the_floor(n):
    # the secant (two points) and the quadratic (three) are exact on a power
    # law of any exponent, whatever the paper's b says
    xs = [1e-2 / 2.0 ** k for k in range(n)]
    hint = _amplitude_hint([_hinted(x) for x in xs], xs[-1] / 2.0, b=-5.0)
    mid, w = _centre_and_width(hint)
    assert mid == pytest.approx(_power_law(xs[-1] / 2.0), rel=1e-12)
    assert w == pytest.approx(_HINT_FLOOR, rel=1e-12)


def test_three_points_extrapolate_the_quadratic_in_log_x():
    # log a quadratic in log x: the secant of the last two would miss by ~2%
    def amp(x):
        lx = math.log(x)
        return math.exp(-0.4 + 0.3 * lx + 0.02 * lx * lx)

    xs = [1e-2 / 2.0 ** k for k in range(3)]
    seen = [(x, amp(x), None) for x in xs]
    mid, _ = _centre_and_width(_amplitude_hint(seen, xs[-1] / 2.0, b=0.0))
    assert mid == pytest.approx(amp(xs[-1] / 2.0), rel=1e-12)


def test_quadratic_reads_the_last_three_points_only():
    # an outlier before the last three points does not move the hint
    xs = [1e-2 / 2.0 ** k for k in range(4)]
    seen = [_hinted(x) for x in xs]
    seen[0] = (xs[0], 10.0 * seen[0][1], None)
    mid, _ = _centre_and_width(_amplitude_hint(seen, xs[-1] / 2.0, b=0.0))
    assert mid == pytest.approx(_power_law(xs[-1] / 2.0), rel=1e-12)


def test_second_point_follows_the_paper_exponent_at_the_cap():
    # one converged point, unhinted (the sweep's first): a (x / x_prev)^b
    b = 0.5   # the subcritical amplitude power 1/(p - 2) at p = 4
    mid, w = _centre_and_width(_amplitude_hint([(1e-2, 0.3, None)], 5e-3, b))
    assert mid == pytest.approx(0.3 * 0.5 ** b, rel=1e-14)
    assert w == pytest.approx(_HINT_CAP, rel=1e-14)


def test_first_point_is_unhinted():
    assert _amplitude_hint([], 1e-2, 0.5) is None


@pytest.mark.parametrize("miss, width", [(1e-6, _HINT_FLOOR), (1e-2, 3e-2), (0.5, _HINT_CAP)])
def test_width_is_three_misses_clamped_to_floor_and_cap(miss, width):
    # the last point's amplitude sits ``miss`` above the centre of its hint
    seen = [(1e-2, 0.3, None), (5e-3, 0.2 * (1.0 + miss), (0.2 * 0.9, 0.2 * 1.1))]
    _, w = _centre_and_width(_amplitude_hint(seen, 2.5e-3, 0.5))
    assert w == pytest.approx(width, rel=1e-9)


def test_failed_point_resets_the_history(monkeypatch):
    # a critical sweep (no reference solve) on synthetic points, the fourth
    # of which fails: the point after it runs unhinted, the next one is
    # hinted from it alone (the paper's law at the cap), and from there the
    # secant and the quadratic take over again
    spec = SweepSpec(regime="critical", N=5, q=6.0, grid_min=1e-5, grid_max=1e-2)
    b = asymptotics.predict_exponents("critical", 5, spec.p_value(), 6.0)["amplitude"][0]
    hints = []

    def solved(spec_, row, x, hint, refs):
        hints.append(hint)
        if len(hints) == 4:
            return SweepPoint(x=x, failure="BracketNotFound: synthetic")
        return SweepPoint(x=x, converged=True, amplitude=_power_law(x),
                          nehari_res=0.0, pokh_res=0.0)

    monkeypatch.setattr(asymptotics, "_solve_point", solved)
    rep = asymptotics.sweep(spec)
    xs = spec.grid()
    assert len(hints) == len(xs) == 10
    assert hints[0] is None and hints[4] is None
    assert all(h is not None for k, h in enumerate(hints) if k not in (0, 4))
    mid, w = _centre_and_width(hints[5])
    assert mid == pytest.approx(_power_law(xs[4]) * (xs[5] / xs[4]) ** b, rel=1e-13)
    assert w == pytest.approx(_HINT_CAP, rel=1e-14)
    for k in (2, 3, 6, 7, 8, 9):   # secant or quadratic from two or more points
        assert _centre_and_width(hints[k])[0] == pytest.approx(_power_law(xs[k]), rel=1e-12)
    assert not rep.points[3].converged
    assert math.isclose(rep.fitted_exponent, 0.3, rel_tol=1e-12)


@pytest.fixture(scope="module")
def sub_hinted():
    # eps from 0.18 down by 2: the first point lies past eps* and fails
    return sweep(SweepSpec(regime="subcritical", N=3, q=6.0, p=4.0,
                           grid_min=1.4e-3, grid_max=0.18, ratio=2.0))


@pytest.mark.parametrize("fixture", ["sub_hinted", "crit5_sweep"])
def test_hinted_sweep_matches_unhinted_solves(request, fixture):
    # the hint-independence oracle: a hint only narrows the amplitude
    # bracket, so every point of the hinted sweep converges exactly where an
    # unhinted solve of its problem does, to within solver precision
    report = request.getfixturevalue(fixture)
    spec = SweepSpec(regime=report.regime, N=report.N, q=report.q, p=report.p)
    for pt in report.points:
        try:
            amplitude = solve_ground_state(spec.params(pt.x), spec.shoot).amplitude
        except _POINT_FAILURES:
            amplitude = None
        assert pt.converged == (amplitude is not None), pt.x
        if pt.converged:
            assert pt.amplitude == pytest.approx(amplitude, rel=1e-9, abs=0.0), pt.x
