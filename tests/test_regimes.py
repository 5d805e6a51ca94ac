"""Pins of what each sweep regime means, with no solve: the predicted exponents,
the problem solved at a grid value, and the CLI's default grid and fit window.

Every value here is pure-Python float arithmetic, so the literals hold
exactly on any CPU and under any numpy or BLAS build.
"""

import pytest

from gslab import cli
from gslab.asymptotics import REGIMES, SweepSpec, predict_exponents, regime_row

P_STAR = {3: 6.0, 4: 4.0, 5: 3.3333333333333335, 6: 3.0, 7: 2.8, 8: 2.6666666666666665}

# (regime, N, p, q) -> predict_exponents(regime, N, p, q)
PREDICTED = {
    ("subcritical", 3, 4.0, 6.0): {"amplitude": (0.5, 0.0)},
    ("subcritical", 3, 5.0, 9.0): {"amplitude": (0.3333333333333333, 0.0)},
    ("subcritical", 4, 3.0, 6.0): {"amplitude": (1.0, 0.0)},
    ("subcritical", 4, 3.5, 5.0): {"amplitude": (0.6666666666666666, 0.0)},
    ("subcritical", 5, 3.0, 6.0): {"amplitude": (1.0, 0.0)},
    ("subcritical", 5, 2.5, 7.0): {"amplitude": (2.0, 0.0)},
    ("subcritical", 6, 2.5, 4.0): {"amplitude": (2.0, 0.0)},
    ("subcritical", 6, 2.75, 6.0): {"amplitude": (1.3333333333333333, 0.0)},
    ("subcritical", 7, 2.5, 4.0): {"amplitude": (2.0, 0.0)},
    ("subcritical", 7, 2.75, 6.0): {"amplitude": (1.3333333333333333, 0.0)},
    ("subcritical", 8, 2.5, 4.0): {"amplitude": (2.0, 0.0)},
    ("subcritical", 8, 2.25, 6.0): {"amplitude": (4.0, 0.0)},
    ("critical", 3, 6.0, 10.0): {"amplitude": (0.08333333333333333, 0.0),
                                 "lambda": (-0.16666666666666666, 0.0),
                                 "sigma": (0.3333333333333333, 0.0)},
    ("critical", 3, 6.0, 12.0): {"amplitude": (0.0625, 0.0), "lambda": (-0.125, 0.0),
                                 "sigma": (0.375, 0.0)},
    ("critical", 4, 4.0, 8.0): {"amplitude": (0.16666666666666666, 0.16666666666666666),
                                "lambda": (-0.16666666666666666, -0.16666666666666666),
                                "sigma": (0.6666666666666666, 0.6666666666666666)},
    ("critical", 4, 4.0, 6.0): {"amplitude": (0.25, 0.25), "lambda": (-0.25, -0.25),
                                "sigma": (0.5, 0.5)},
    ("critical", 5, 3.3333333333333335, 6.0): {"amplitude": (0.25, 0.0),
                                               "lambda": (-0.16666666666666669, 0.0),
                                               "sigma": (0.6666666666666666, 0.0)},
    ("critical", 5, 3.3333333333333335, 7.0): {"amplitude": (0.2, 0.0),
                                               "lambda": (-0.13333333333333336, 0.0),
                                               "sigma": (0.7333333333333333, 0.0)},
    ("critical", 6, 3.0, 4.0): {"amplitude": (0.5, 0.0), "lambda": (-0.25, 0.0),
                                "sigma": (0.5, 0.0)},
    ("critical", 6, 3.0, 6.0): {"amplitude": (0.25, 0.0), "lambda": (-0.125, 0.0),
                                "sigma": (0.75, 0.0)},
    ("critical", 7, 2.8, 4.0): {"amplitude": (0.5, 0.0), "lambda": (-0.19999999999999996, 0.0),
                                "sigma": (0.6000000000000001, 0.0)},
    ("critical", 7, 2.8, 5.0): {"amplitude": (0.3333333333333333, 0.0),
                                "lambda": (-0.1333333333333333, 0.0),
                                "sigma": (0.7333333333333334, 0.0)},
    ("critical", 8, 2.6666666666666665, 4.0): {"amplitude": (0.5, 0.0),
                                               "lambda": (-0.16666666666666663, 0.0),
                                               "sigma": (0.6666666666666667, 0.0)},
    ("critical", 8, 2.6666666666666665, 6.0): {"amplitude": (0.25, 0.0),
                                               "lambda": (-0.08333333333333331, 0.0),
                                               "sigma": (0.8333333333333334, 0.0)},
    ("supercritical", 3, 8.0, 12.0): {"amplitude": (0.0, 0.0)},
    ("supercritical", 3, 7.0, 9.0): {"amplitude": (0.0, 0.0)},
    ("supercritical", 4, 6.0, 9.0): {"amplitude": (0.0, 0.0)},
    ("supercritical", 4, 5.0, 8.0): {"amplitude": (0.0, 0.0)},
    ("supercritical", 5, 4.0, 7.0): {"amplitude": (0.0, 0.0)},
    ("supercritical", 5, 3.5, 5.0): {"amplitude": (0.0, 0.0)},
    ("supercritical", 6, 3.5, 6.0): {"amplitude": (0.0, 0.0)},
    ("supercritical", 6, 4.0, 5.0): {"amplitude": (0.0, 0.0)},
    ("supercritical", 7, 3.0, 5.0): {"amplitude": (0.0, 0.0)},
    ("supercritical", 7, 3.5, 6.0): {"amplitude": (0.0, 0.0)},
    ("supercritical", 8, 3.0, 5.0): {"amplitude": (0.0, 0.0)},
    ("supercritical", 8, 3.5, 4.0): {"amplitude": (0.0, 0.0)},
    ("delta_supercritical", 3, 6.0, 12.0): {"amplitude": (0.16666666666666666, 0.0)},
    ("delta_supercritical", 3, 6.0, 7.0): {"amplitude": (1.0, 0.0)},
    ("delta_supercritical", 4, 4.0, 8.0): {"amplitude": (0.25, 0.0)},
    ("delta_supercritical", 4, 4.0, 5.0): {"amplitude": (1.0, 0.0)},
    ("delta_supercritical", 5, 3.3333333333333335, 6.0): {"amplitude": (0.375, 0.0)},
    ("delta_supercritical", 5, 3.3333333333333335, 4.0): {"amplitude": (1.5000000000000004, 0.0)},
    ("delta_supercritical", 6, 3.0, 4.0): {"amplitude": (1.0, 0.0)},
    ("delta_supercritical", 6, 3.0, 6.0): {"amplitude": (0.3333333333333333, 0.0)},
    ("delta_supercritical", 7, 2.8, 4.0): {"amplitude": (0.8333333333333333, 0.0)},
    ("delta_supercritical", 7, 2.8, 3.5): {"amplitude": (1.4285714285714282, 0.0)},
    ("delta_supercritical", 8, 2.6666666666666665, 4.0): {"amplitude": (0.7499999999999999, 0.0)},
    ("delta_supercritical", 8, 2.6666666666666665, 3.0): {"amplitude": (2.9999999999999987, 0.0)},
    ("p_up_subcritical", 3, 6.0, 12.0): {"amplitude": (-0.5, 0.0)},
    ("p_up_subcritical", 3, 6.0, 7.0): {"amplitude": (-0.5, 0.0)},
    ("p_up_subcritical", 4, 4.0, 8.0): {"amplitude": (-0.5, 1.0)},
    ("p_up_subcritical", 4, 4.0, 5.0): {"amplitude": (-0.5, 1.0)},
    ("p_up_subcritical", 5, 3.3333333333333335, 6.0): {"amplitude": (-0.75, 0.0)},
    ("p_up_subcritical", 5, 3.3333333333333335, 4.0): {"amplitude": (-0.75, 0.0)},
    ("p_up_subcritical", 6, 3.0, 4.0): {"amplitude": (-1.0, 0.0)},
    ("p_up_subcritical", 6, 3.0, 6.0): {"amplitude": (-1.0, 0.0)},
    ("p_up_subcritical", 7, 2.8, 4.0): {"amplitude": (-1.25, 0.0)},
    ("p_up_subcritical", 7, 2.8, 3.5): {"amplitude": (-1.25, 0.0)},
    ("p_up_subcritical", 8, 2.6666666666666665, 4.0): {"amplitude": (-1.5, 0.0)},
    ("p_up_subcritical", 8, 2.6666666666666665, 3.0): {"amplitude": (-1.5, 0.0)},
}


def test_pins_cover_every_regime_and_dimension():
    for regime in REGIMES:
        for N in range(3, 9):
            assert sum(key[:2] == (regime, N) for key in PREDICTED) == 2


@pytest.mark.parametrize("key", list(PREDICTED), ids=repr)
def test_predicted_exponents(key):
    assert predict_exponents(*key) == PREDICTED[key]


@pytest.mark.parametrize("N", [3, 5])
def test_critical_band_keeps_the_strict_side_regimes(N):
    # a p within 1e-9 p* of p* is critical, and still sub- or supercritical
    # on its own side of p*
    ps = P_STAR[N]
    below, above = ps * (1.0 - 1e-10), ps * (1.0 + 1e-10)
    for p in (below, above):
        assert predict_exponents("critical", N, p, 12.0)["amplitude"] == \
            predict_exponents("critical", N, ps, 12.0)["amplitude"]
    assert predict_exponents("subcritical", N, below, 12.0) == \
        {"amplitude": (1.0 / (below - 2.0), 0.0)}
    assert predict_exponents("supercritical", N, above, 12.0) == {"amplitude": (0.0, 0.0)}
    for regime, p in (("subcritical", ps), ("supercritical", ps), ("subcritical", above),
                      ("supercritical", below), ("critical", ps * (1.0 + 2e-9))):
        with pytest.raises(ValueError):
            predict_exponents(regime, N, p, 12.0)


# (spec fields, x) -> the (N, p, q, eps, family) solved at x
PARAMS = {
    (("subcritical", 3, 4.0, 6.0), 1e-2): (3, 4.0, 6.0, 0.01, "P_eps"),
    (("subcritical", 3, 4.0, 6.0), 3e-5): (3, 4.0, 6.0, 3e-05, "P_eps"),
    (("critical", 5, None, 6.0), 1e-2): (5, 3.3333333333333335, 6.0, 0.01, "P_eps"),
    (("critical", 5, None, 6.0), 3e-5): (5, 3.3333333333333335, 6.0, 3e-05, "P_eps"),
    (("supercritical", 3, 8.0, 12.0), 1e-2): (3, 8.0, 12.0, 0.01, "P_eps"),
    (("supercritical", 3, 8.0, 12.0), 3e-5): (3, 8.0, 12.0, 3e-05, "P_eps"),
    (("delta_supercritical", 3, None, 12.0), 1e-2): (3, 6.01, 12.0, 0.0, "P_zero"),
    (("delta_supercritical", 3, None, 12.0), 0.3): (3, 6.3, 12.0, 0.0, "P_zero"),
    (("p_up_subcritical", 5, None, 7.0), 1e-2): (5, 3.3233333333333337, 7.0, 0.0, "R_zero"),
    (("p_up_subcritical", 5, None, 7.0), 0.3): (5, 3.0333333333333337, 7.0, 0.0, "R_zero"),
}


@pytest.mark.parametrize("key", list(PARAMS), ids=repr)
def test_spec_params(key):
    (regime, N, p, q), x = key
    got = SweepSpec(regime=regime, N=N, p=p, q=q).params(x)
    assert (got.N, got.p, got.q, got.eps, got.family.value) == PARAMS[key]


def test_spec_params_cover_every_regime():
    assert {key[0][0] for key in PARAMS} == set(REGIMES)


# `gslab sweep --regime R --N n --q 12` (with --p for the sub- and
# supercritical regimes) -> (grid_min, grid_max, ratio, grid points), and the
# regime row's fit window
CLI_DEFAULTS = {
    ("subcritical", 3): (9e-05, 0.05, 2.0, 10, None),
    ("subcritical", 4): (9e-05, 0.05, 2.0, 10, None),
    ("subcritical", 5): (9e-05, 0.05, 2.0, 10, None),
    ("subcritical", 6): (9e-05, 0.05, 2.0, 10, None),
    ("critical", 3): (1.5e-09, 3e-06, 2.0, 11, None),
    ("critical", 4): (1e-09, 3e-05, 2.0, 15, None),
    ("critical", 5): (1e-05, 0.01, 2.0, 10, None),
    ("critical", 6): (1e-05, 0.01, 2.0, 10, None),
    ("supercritical", 3): (5e-09, 0.02, 2.0, 22, None),
    ("supercritical", 4): (5e-09, 0.02, 2.0, 22, None),
    ("supercritical", 5): (5e-09, 0.02, 2.0, 22, None),
    ("supercritical", 6): (5e-09, 0.02, 2.0, 22, None),
    ("delta_supercritical", 3): (0.005, 0.5, 1.5848931924611136, 11, (0.01, 0.3)),
    ("delta_supercritical", 4): (0.005, 0.5, 1.5848931924611136, 11, (0.01, 0.3)),
    ("delta_supercritical", 5): (0.005, 0.5, 1.5848931924611136, 11, (0.01, 0.3)),
    ("delta_supercritical", 6): (0.005, 0.5, 1.5848931924611136, 11, (0.01, 0.3)),
    ("p_up_subcritical", 3): (0.005, 0.2, 1.5848931924611136, 9, None),
    ("p_up_subcritical", 4): (0.005, 0.2, 1.5848931924611136, 9, None),
    ("p_up_subcritical", 5): (0.005, 0.2, 1.5848931924611136, 9, None),
    ("p_up_subcritical", 6): (0.005, 0.2, 1.5848931924611136, 9, None),
}
_CLI_P = {"subcritical": {3: "4", 4: "3", 5: "3", 6: "2.5"},
          "supercritical": {3: "8", 4: "6", 5: "4", 6: "3.5"}}


def test_cli_defaults_cover_every_regime():
    assert {key[0] for key in CLI_DEFAULTS} == set(REGIMES)


@pytest.mark.parametrize("key", list(CLI_DEFAULTS), ids=repr)
def test_cli_default_grid_and_fit_window(key, monkeypatch, capsys):
    regime, N = key
    specs = []

    def stop(spec):
        specs.append(spec)
        raise RuntimeError("stopped")

    monkeypatch.setattr(cli, "sweep", stop)
    argv = ["sweep", "--regime", regime, "--N", str(N), "--q", "12"]
    if regime in _CLI_P:
        argv += ["--p", _CLI_P[regime][N]]
    assert cli.main(argv) == 1
    assert "stopped" in capsys.readouterr().err
    (spec,) = specs
    assert (spec.grid_min, spec.grid_max, spec.ratio, len(spec.grid()),
            regime_row(regime).fit_window) == CLI_DEFAULTS[key]
