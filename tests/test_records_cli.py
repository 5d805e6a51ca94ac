import json
import math

import pytest

from gslab.cli import main
from gslab.records import (
    CSV_COLUMNS,
    ParseError,
    ResultRecord,
    cache_key,
    parse,
    refit_record,
    report_record,
    serialize,
    sweep_csv,
)

from conftest import route_shots


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("GSLAB_CACHE_DIR", str(tmp_path / "cache"))


def test_record_roundtrip_byte_identity():
    rec = ResultRecord("solution", {"N": 3, "p": 4.0}, {"amplitude": 1.25, "S": 2.5},
                       {"iters": 40})
    blob = serialize(rec)
    assert serialize(parse(blob)) == blob


def test_parse_rejects_schema_mismatch():
    rec = ResultRecord("solution", {}, {"x": 1.0})
    doc = json.loads(serialize(rec))
    doc["schema_version"] = "2"
    with pytest.raises(ParseError, match="schema_version"):
        parse(json.dumps(doc).encode())


def test_parse_rejects_nonfinite_payload():
    # non-finite values are sanitized to null on write ...
    blob = serialize(ResultRecord("solution", {}, {"x": math.inf}, {}))
    assert json.loads(blob)["payload"]["x"] is None
    # ... and a hand-corrupted NaN is rejected on read, naming the field
    rec = ResultRecord("solution", {}, {"x": 1.0})
    doc = json.loads(serialize(rec))
    doc["payload"]["x"] = float("nan")
    with pytest.raises(ParseError, match="payload.x"):
        parse(json.dumps(doc).encode())
    # missing top-level fields are named too
    del doc["payload"]
    with pytest.raises(ParseError, match="payload"):
        parse(json.dumps(doc).encode())


def _record_doc(**fields) -> bytes:
    """A sweep record's bytes with ``fields`` set at the top level or, for
    the key "grid", in the payload."""
    doc = json.loads(serialize(ResultRecord("sweep", {}, {"grid": []})))
    if "grid" in fields:
        doc["payload"]["grid"] = fields.pop("grid")
    doc.update(fields)
    return json.dumps(doc).encode()


_NOT_OBJECTS = {
    "number": b"5",
    "null": b"null",
    "list": b"[]",
    "config-number": _record_doc(config=5),
    "payload-list": _record_doc(payload=[]),
    "diagnostics-null": _record_doc(diagnostics=None),
}


@pytest.mark.parametrize("blob", _NOT_OBJECTS.values(), ids=_NOT_OBJECTS.keys())
def test_parse_rejects_a_document_or_section_that_is_not_an_object(blob):
    with pytest.raises(ParseError, match="not a JSON object|not an object"):
        parse(blob)


@pytest.mark.parametrize("blob", [b"5", _record_doc(config=5), _record_doc(grid=5),
                                  _record_doc(grid=[5])],
                         ids=["number", "config-number", "grid-number", "grid-of-numbers"])
def test_cli_fit_of_a_malformed_record_exits_1(tmp_path, capsys, blob):
    # the record is read, parsed and re-fit: each malformed shape is a
    # ParseError, reported as a failed fit
    path = tmp_path / "sweep.json"
    path.write_bytes(blob)
    assert main(["fit", "--in", str(path)]) == 1
    assert "fit failed" in capsys.readouterr().err


@pytest.mark.parametrize("cell", [[1], {"v": 1}, "one"], ids=["list", "object", "string"])
def test_cli_fit_of_a_non_numeric_grid_cell_exits_1(tmp_path, capsys, cell):
    # a grid cell that is no number is a ParseError naming its column, not a
    # TypeError traceback out of the fit
    row = {col: 1.0 for col in CSV_COLUMNS}
    row["amplitude"] = cell
    path = tmp_path / "sweep.json"
    path.write_bytes(_record_doc(grid=[row]))
    assert main(["fit", "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert "fit failed" in err and "'amplitude'" in err and "Traceback" not in err


def test_sweep_csv_header_schema(sub_sweep):
    csv = sweep_csv(sub_sweep)
    header = csv.splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert header == "eps,amplitude,S,sigma,lambda,dist_D1,nehari_res,pokh_res,converged_flag"
    assert len(csv.splitlines()) == 1 + len(sub_sweep.points)


def test_refit_recovers_sweep_fit(sub_sweep):
    rec = report_record(sub_sweep, {"regime": "subcritical"})
    blob = serialize(rec)
    out = refit_record(parse(blob), "amplitude")
    assert out["exponent"] == pytest.approx(sub_sweep.fits["amplitude"].exponent, rel=1e-9)


@pytest.mark.parametrize("fixture, observable", [
    ("sub_sweep", "amplitude"),       # default rule: all but the two largest x
    ("delta_sweep", "amplitude"),     # the row's fit window (0.01, 0.3)
    ("crit3_sweep", "lambda"),
])
def test_refit_reproduces_the_sweep_fit_exactly(request, fixture, observable):
    report = request.getfixturevalue(fixture)
    out = refit_record(parse(serialize(report_record(report, {}))), observable)
    fit = report.fits[observable]
    assert (out["exponent"], out["n_points"]) == (fit.exponent, fit.n_points)


def test_cli_solve_and_cache(tmp_path, capsys):
    args = ["solve", "--family", "P_eps", "--N", "3", "--p", "6", "--q", "10",
            "--eps", "1e-3", "--out", str(tmp_path / "a.json")]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "cache hit" not in first
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "cache hit; integrations_run = 0" in second
    # identical payloads end-to-end
    rec = parse((tmp_path / "a.json").read_bytes())
    assert rec.payload["amplitude"] == pytest.approx(0.865394999155, rel=1e-9)


@pytest.mark.parametrize("argv, expected", [
    (["--family", "P_eps", "--N", "3", "--p", "6", "--q", "10", "--eps", "1e-3"], 12),
    (["--family", "P_zero", "--N", "3", "--p", "8", "--q", "12"], 13),
], ids=["P_eps", "P_zero"])
def test_cli_integrations_run_counts_every_integration(tmp_path, monkeypatch, argv, expected):
    # independent count: wrap every shot find_ground_state takes, so
    # bracket scans, the search's probes and the final pass all count
    calls = []

    def counted(real, p, a, r_max, tol):
        calls.append(a)
        return real(p, a, r_max, tol)

    route_shots(monkeypatch, counted)
    out = tmp_path / "r.json"
    assert main(["solve", *argv, "--no-cache", "--out", str(out)]) == 0
    diag = parse(out.read_bytes()).diagnostics
    assert diag["integrations_run"] == len(calls) == expected
    assert diag["bisection_iterations"] + 1 < expected


def test_cli_rhs_evals_sum_over_every_integration(tmp_path, monkeypatch):
    # independent sum: wrap every shot find_ground_state takes; the P_zero
    # solve's search shots end where B settles, its final pass at r_max
    evals = []

    def counted(real, p, a, r_max, tol):
        t = real(p, a, r_max, tol)
        evals.append(t.rhs_evals)
        return t

    route_shots(monkeypatch, counted)
    out = tmp_path / "r.json"
    assert main(["solve", "--family", "P_zero", "--N", "3", "--p", "8", "--q", "12",
                 "--no-cache", "--out", str(out)]) == 0
    diag = parse(out.read_bytes()).diagnostics
    assert diag["rhs_evals"] == sum(evals)
    assert diag["final_rhs_evals"] == evals[-1] < sum(evals)


def test_rescalings_carry_solve_counters():
    from gslab import Family, ProblemParams, rescale_to_v, solve_ground_state

    sol = solve_ground_state(ProblemParams(5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS))
    prof = sol.profile
    assert prof.rhs_evals > prof.grid.rhs_evals > 0
    for scaled in (sol.rescaled_to_frame().profile, rescale_to_v(prof, 0.7)):
        assert (scaled.integrations, scaled.rhs_evals) == (prof.integrations, prof.rhs_evals)


def test_cli_solve_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    base = ["solve", "--family", "P_eps", "--N", "3", "--p", "4", "--q", "6",
            "--eps", "1e-2", "--no-cache"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert parse(out1.read_bytes()).payload == parse(out2.read_bytes()).payload


def test_cli_exit_codes(capsys):
    # argument errors exit 2 (argparse)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--family", "bogus"])
    assert exc.value.code == 2
    # nonexistence (eps above eps*) exits 1
    assert main(["solve", "--family", "P_eps", "--N", "3", "--p", "4",
                 "--q", "6", "--eps", "0.2", "--no-cache"]) == 1


def test_cli_untrusted_solution_exits_1(capsys):
    # u(0) ~ eps^(1/(p-2)) ~ 1e-10 is of the order of the step controls'
    # atol: the profile's identity residuals are far above the trust bound
    # (they read 0.62 and 1.03 when this exited 0), so the solve fails
    # instead of printing a wrong answer
    assert main(["solve", "--family", "P_eps", "--N", "6", "--p", "2.615", "--q", "7.46",
                 "--eps", "6.9e-8", "--no-cache"]) == 1
    out = capsys.readouterr()
    assert "solve failed" in out.out + out.err
    assert "identity residuals" in out.out + out.err


def test_cli_window_below_the_float_range_exits_1(capsys):
    # u_F0 = 1.9e-207, below sqrt(float min): the solve is refused as
    # BracketNotFound, where it ended in a ValueError traceback
    assert main(["solve", "--family", "P_eps", "--N", "5", "--p", "2.0409218385713364",
                 "--q", "2.4277106147499805", "--eps", "3.4748803381085748e-09",
                 "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert "solve failed: the admissible window of P_eps" in err
    assert "Traceback" not in err


def test_cli_check_suite(capsys):
    rc = main(["check", "--suite", "pokhozhaev", "--N", "3", "--p", "8",
               "--q", "12", "--eps", "1e-3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pokhozhaev" in out and "ok" in out


def test_cli_emden_prints_references(capsys):
    assert main(["emden", "--N", "3"]) == 0
    out = capsys.readouterr().out
    assert "U1(0) = 1" in out
    assert "S* = 5.47790408953" in out
    assert "Q* = 0.683385655931" in out


def test_cli_sweep_fit_and_plot_data(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    csv = tmp_path / "sweep.csv"
    plot = tmp_path / "plot.csv"
    rc = main(["sweep", "--regime", "subcritical", "--N", "3", "--p", "4",
               "--q", "6", "--eps-min", "1.4e-3", "--eps-max", "0.18",
               "--out", str(out), "--csv", str(csv),
               "--emit-plot-data", str(plot)])
    assert rc == 0
    assert csv.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)
    assert plot.read_text().splitlines()[0] == "x,y,fit"
    assert main(["fit", "--in", str(out), "--observable", "amplitude"]) == 0
    got = capsys.readouterr().out
    assert "exponent" in got


def test_cli_plot_data_fit_column_is_the_least_squares_fit(tmp_path):
    # the sweep of test_cli_sweep_fit_and_plot_data.  One row per converged
    # point: x, its amplitude, and the amplitude fit's model at x,
    # exp(intercept + exponent log x + log_power log log(1/x)); at the points
    # the fit reads, that is exp(A @ coef) of the fit's own least squares
    import numpy as np

    from gslab import SweepSpec, sweep
    from gslab.asymptotics import fit_data, fit_points

    plot = tmp_path / "plot.csv"
    assert main(["sweep", "--regime", "subcritical", "--N", "3", "--p", "4",
                 "--q", "6", "--eps-min", "1.4e-3", "--eps-max", "0.18",
                 "--emit-plot-data", str(plot)]) == 0
    lines = plot.read_text().splitlines()
    assert lines[0] == "x,y,fit"
    table = [tuple(map(float, line.split(","))) for line in lines[1:]]
    rows = {x: fit for x, _, fit in table}
    report = sweep(SweepSpec(regime="subcritical", N=3, p=4.0, q=6.0,
                             grid_min=1.4e-3, grid_max=0.18))
    amp = report.fits["amplitude"]
    points = report.converged_points()
    assert [(x, y) for x, y, _ in table] == [(pt.x, pt.amplitude) for pt in points]
    for x, _, fit in table:
        want = math.exp(amp.intercept + amp.exponent * math.log(x)
                        + amp.log_power * math.log(math.log(1.0 / x)))
        assert fit == pytest.approx(want, rel=1e-12, abs=0.0)
    data = fit_data(fit_points(report.points, report.fit_window), "amplitude")
    xs, ys = np.array(data).T
    A = np.column_stack([np.ones_like(xs), np.log(xs)])
    coef, *_ = np.linalg.lstsq(A, np.log(ys), rcond=None)
    assert len(xs) >= 4
    assert report.fits["amplitude"].intercept == pytest.approx(coef[0], rel=1e-12, abs=0.0)
    for x, want in zip(xs, np.exp(A @ coef)):
        assert rows[x] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_cli_config_file_seeds_flags(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[solve]\nfamily = P_eps\nN = 3\np = 4\nq = 6\neps = 1e-2\nno-cache = true\n"
    )
    assert main(["--config", str(cfg), "solve"]) == 0
    out = capsys.readouterr().out
    assert "N=3 p=4 q=6" in out
    # command line overrides the config value
    assert main(["--config", str(cfg), "solve", "--eps", "2e-2", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "eps=0.02" in out


def test_cli_config_file_seeds_flags_with_defaults(tmp_path, capsys):
    # suite and tol have defaults; the config's values apply all the same,
    # and a flag given on the command line still wins
    cfg = tmp_path / "run.ini"
    cfg.write_text("[check]\nN = 3\np = 4.0\nq = 6.0\neps = 0.01\nsuite = nehari\n"
                   "tol = 1e-30\n")
    assert main(["--config", str(cfg), "check"]) == 1
    out = capsys.readouterr().out
    assert "nehari" in out and "pokhozhaev" not in out and "(tol 1.0e-30)  FAIL" in out
    assert main(["--config", str(cfg), "check", "--tol", "1e-3"]) == 0
    assert "(tol 1.0e-03)  ok" in capsys.readouterr().out
    # a value argparse would refuse as a flag is refused from the config too
    for entry in ("suite = bogus", "no-cache = maybe", "bogus = 1"):
        section = "solve" if entry.startswith("no-cache") else "check"
        cfg.write_text(f"[{section}]\n{entry}\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), section])
        assert exc.value.code == 2
        assert f"bad config entry {entry}" in capsys.readouterr().err


def test_cli_config_file_seeds_ratio_and_fit_input(tmp_path, monkeypatch, capsys):
    from gslab import cli

    specs = []

    def stop(spec):
        specs.append(spec)
        raise RuntimeError("stopped")

    monkeypatch.setattr(cli, "sweep", stop)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[sweep]\nregime = subcritical\nN = 3\np = 4\nq = 6\nratio = 1.5\n"
                   f"[fit]\nin = {tmp_path / 'missing.json'}\n")
    assert main(["--config", str(cfg), "sweep"]) == 1
    assert main(["--config", str(cfg), "sweep", "--ratio", "1.25"]) == 1
    assert [spec.ratio for spec in specs] == [1.5, 1.25]
    # fit's --in can come from the config too
    assert main(["--config", str(cfg), "fit"]) == 1
    assert "missing.json" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["fit"])
    assert exc.value.code == 2


def test_cli_delta_sweep_rejects_p(monkeypatch, capsys):
    from gslab import cli

    def solved(spec):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "sweep", solved)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--regime", "delta_supercritical", "--N", "3", "--q", "12", "--p", "4"])
    assert exc.value.code == 2
    assert "--p" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--regime", "subcritical", "--N", "3", "--q", "6"], "needs p < p*"),
    (["sweep", "--regime", "critical", "--N", "5", "--q", "6", "--p", "4"], "needs p = p*"),
    (["sweep", "--regime", "critical", "--N", "5", "--q", "6", "--ratio", "5"],
     "ratio must be in"),
    (["sweep", "--regime", "critical", "--N", "5", "--q", "6", "--eps-min", "1e-3"],
     "< 8 points"),
    (["sweep", "--regime", "critical", "--N", "5", "--q", "6", "--eps-min", "0"],
     "positive and finite"),
    (["sweep", "--regime", "critical", "--N", "2", "--q", "6"], "dimension must be"),
    (["sweep", "--regime", "subcritical", "--N", "3", "--p", "4", "--q", "3"], "need q > p"),
    (["sweep", "--regime", "critical", "--N", "5", "--q", "3"], "need q > p"),
    (["sweep", "--regime", "delta_supercritical", "--N", "3", "--q", "6.2", "--eps-max", "0.3"],
     "need q > p"),
    (["solve", "--N", "2", "--p-critical", "--q", "6", "--eps", "1e-2"], "dimension must be"),
], ids=["subcritical-without-p", "critical-off-p-star", "ratio", "short-grid", "zero-eps-min",
        "critical-N2", "q-below-p", "critical-q-below-p-star", "delta-past-q", "solve-N2"])
def test_cli_sweep_argument_errors_exit_2_before_any_solve(monkeypatch, capsys, argv, message):
    _no_solve(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_critical_sweep_with_p_critical_flag(tmp_path, capsys):
    rc = main(["sweep", "--regime", "critical", "--N", "5", "--p-critical",
               "--q", "6", "--eps-min", "2.5e-4", "--eps-max", "3.2e-2",
               "--csv", str(tmp_path / "c.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lambda" in out and "predicted -0.166" in out
    header = (tmp_path / "c.csv").read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_cache_key_sensitivity():
    base = {"family": "P_eps", "N": 3, "p": 4.0, "q": 6.0, "eps": 1e-2,
            "amp_tol": 1e-12, "rtol": 1e-10, "atol": 1e-12}
    k1 = cache_key(base)
    assert cache_key(dict(base, eps=2e-2)) != k1
    assert cache_key(dict(base, rtol=1e-8)) != k1
    assert cache_key(dict(base)) == k1


def test_cache_key_carries_solver_revision(monkeypatch, capsys):
    from gslab import records

    args = ["solve", "--family", "P_eps", "--N", "3", "--p", "4", "--q", "6",
            "--eps", "1e-2"]
    assert main(args) == 0
    assert "cache hit" not in capsys.readouterr().out
    # an unchanged revision hits the entry ...
    assert main(args) == 0
    assert "cache hit" in capsys.readouterr().out
    # ... and a changed solver source misses it
    monkeypatch.setattr(records, "solver_revision", lambda: "0" * 64)
    assert main(args) == 0
    assert "cache hit" not in capsys.readouterr().out


def test_cache_store_concurrent_writers(monkeypatch):
    # a second writer of the same key runs to completion while the first is
    # between writing its temp file and renaming it; each has its own temp
    # file, so both renames succeed, the last one wins and none is left over
    import os

    from gslab.records import cache_dir, cache_load, cache_store

    key = cache_key({"N": 3})
    first = ResultRecord("solution", {"N": 3}, {"writer": 1})
    second = ResultRecord("solution", {"N": 3}, {"writer": 2})
    real_replace = os.replace

    def interleaved(src, dst):
        monkeypatch.setattr(os, "replace", real_replace)
        cache_store(key, second)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", interleaved)
    cache_store(key, first)
    d = cache_dir()
    assert [p.name for p in d.iterdir()] == [f"{key}.json"]
    assert cache_load(key).payload == {"writer": 1}
    # a write that raises removes its temp file and keeps the old record
    with pytest.raises(TypeError):
        cache_store(key, ResultRecord("solution", {"N": object()}, {}))
    assert [p.name for p in d.iterdir()] == [f"{key}.json"]
    assert cache_load(key).payload == {"writer": 1}


def test_cli_rejects_nonpositive_tolerances():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--family", "P_eps", "--N", "3", "--p", "4", "--q", "6",
              "--eps", "1e-2", "--rtol", "-1e-8"])
    assert exc.value.code == 2



_SOLVE_ARGV = ["--family", "P_eps", "--N", "3", "--p", "4", "--q", "6", "--eps", "1e-2"]


def _no_solve(monkeypatch):
    from gslab import cli

    def solved(*args):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(cli, "sweep", solved)
    monkeypatch.setattr(cli, "solve_ground_state", solved)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--rtol", "--atol", "--amp-tol", "--r-max"])
@pytest.mark.parametrize("command", ["solve", "check", "sweep"])
def test_cli_rejects_nonfinite_tolerances_before_any_solve(monkeypatch, capsys, command,
                                                           flag, value):
    _no_solve(monkeypatch)
    args = (["--regime", "subcritical", "--N", "3", "--p", "4", "--q", "6"]
            if command == "sweep" else _SOLVE_ARGV)
    with pytest.raises(SystemExit) as exc:
        main([command, *args, flag, value])
    assert exc.value.code == 2
    assert f"{flag} must be positive and finite" in capsys.readouterr().err


_NONFINITE_PARAMS = {
    # no family: R_zero, whose eps check read nan as nonzero
    "eps-nan": (["--N", "3", "--p", "4", "--q", "6", "--eps", "nan"], "eps"),
    # P_eps: nan reached the root bracket of f as f = nan, nan
    "P_eps-eps-nan": (["--family", "P_eps", "--N", "3", "--p", "4", "--q", "6",
                       "--eps", "nan"], "eps"),
    # q = inf made eps* 0
    "P_eps-q-inf": (["--family", "P_eps", "--N", "3", "--p", "4", "--q", "inf",
                     "--eps", "1e-3"], "q"),
}


@pytest.mark.parametrize("argv, field", _NONFINITE_PARAMS.values(), ids=_NONFINITE_PARAMS.keys())
def test_cli_solve_rejects_a_nonfinite_parameter_before_any_solve(monkeypatch, capsys, argv,
                                                                  field):
    _no_solve(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["solve", *argv, "--no-cache"])
    assert exc.value.code == 2
    assert f"{field} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-6"])
def test_cli_check_rejects_a_tol_that_is_not_positive_and_finite(monkeypatch, capsys, tol):
    _no_solve(monkeypatch)
    for suite in ("identities", "kappa"):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--suite", suite, *_SOLVE_ARGV, f"--tol={tol}"])
        assert exc.value.code == 2
        assert "--tol must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("residual", [math.nan, 1.0])
def test_cli_check_exits_1_on_every_row_it_marks_fail(monkeypatch, capsys, residual):
    # a residual that is not below the tolerance, NaN among them, is a FAIL
    # row, and a FAIL row sets the exit status
    from types import SimpleNamespace

    from gslab import cli

    sol = SimpleNamespace(nehari_residual=residual, pokhozhaev_residual=0.0)
    monkeypatch.setattr(cli, "solve_ground_state", lambda params, ctrl: sol)
    assert main(["check", "--suite", "identities", *_SOLVE_ARGV]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == ["nehari", "pokhozhaev"]
    assert rows[0].endswith("FAIL") and rows[1].endswith("ok")


def _raising(exc):
    def fn(*args, **kwargs):
        raise exc
    return fn


@pytest.mark.parametrize("command", ["solve", "check"])
@pytest.mark.parametrize("error", ["InconsistentSolution", "InternalConsistencyError"])
def test_cli_solve_and_check_report_solver_failures(monkeypatch, capsys, command, error):
    from gslab import cli, errors

    monkeypatch.setattr(cli, "solve_ground_state", _raising(getattr(errors, error)("injected")))
    argv = [command] + _SOLVE_ARGV + (["--no-cache"] if command == "solve" else [])
    assert main(argv) == 1
    assert "solve failed: injected" in capsys.readouterr().err


def test_cli_sweep_and_fit_catch_only_their_failures(monkeypatch, tmp_path, capsys):
    from gslab import cli

    sweep_argv = ["sweep", "--regime", "subcritical", "--N", "3", "--p", "4", "--q", "6"]
    fit_argv = ["fit", "--in", str(tmp_path / "sweep.json")]
    # the failures these commands can raise exit 1 ...
    assert main(fit_argv) == 1   # no such file: OSError
    monkeypatch.setattr(cli, "sweep", _raising(RuntimeError("only 3 of 10 points converged")))
    assert main(sweep_argv) == 1
    assert "sweep failed: only 3" in capsys.readouterr().err
    # ... while a programming error propagates
    monkeypatch.setattr(cli, "sweep", _raising(TypeError("bug")))
    with pytest.raises(TypeError):
        main(sweep_argv)
    (tmp_path / "sweep.json").write_bytes(serialize(ResultRecord("sweep", {}, {"grid": []})))
    monkeypatch.setattr(cli, "refit_record", _raising(TypeError("bug")))
    with pytest.raises(TypeError):
        main(fit_argv)


def test_cli_cache_dir_leaves_environment_unchanged(tmp_path, capsys):
    import os

    before = dict(os.environ)
    argv = ["solve"] + _SOLVE_ARGV + ["--cache-dir", str(tmp_path / "explicit")]
    assert main(argv) == 0
    assert dict(os.environ) == before
    assert len(list((tmp_path / "explicit").glob("*.json"))) == 1
    assert not (tmp_path / "cache").exists()   # GSLAB_CACHE_DIR is not used
    assert main(argv) == 0
    assert "cache hit" in capsys.readouterr().out


def test_cli_loose_integrations_count_the_loose_model_probes(tmp_path, monkeypatch):
    # independent count: wrap every shot find_ground_state takes and count
    # the shots at the loose step controls
    from gslab import Family, ProblemParams, rescale_to_v, shooting, solve_ground_state

    loose_step = shooting._loose_step(shooting.ShootControls().step)
    steps = []

    def counted(real, p, a, r_max, tol):
        steps.append(tol)
        return real(p, a, r_max, tol)

    route_shots(monkeypatch, counted)
    out = tmp_path / "r.json"
    assert main(["solve", "--family", "P_zero", "--N", "3", "--p", "8", "--q", "12",
                 "--no-cache", "--out", str(out)]) == 0
    diag = parse(out.read_bytes()).diagnostics
    assert 0 < diag["loose_integrations"] == steps.count(loose_step) < diag["integrations_run"]
    # a cache hit runs nothing
    cached = ["solve", "--family", "P_eps", "--N", "3", "--p", "6", "--q", "10", "--eps", "1e-3",
              "--cache-dir", str(tmp_path / "cache"), "--out", str(out)]
    assert main(cached) == 0 and main(cached) == 0
    assert parse(out.read_bytes()).diagnostics["loose_integrations"] == 0

    sol = solve_ground_state(ProblemParams(5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS))
    prof = sol.profile
    assert prof.loose_integrations > 0
    for scaled in (sol.rescaled_to_frame().profile, rescale_to_v(prof, 0.7)):
        assert scaled.loose_integrations == prof.loose_integrations


def test_cli_fallbacks_report_the_all_tight_re_solve(tmp_path, misread_loose_shot, overturned):
    # independent count: the fixture wraps every shot find_ground_state
    # takes; the first loose undershoot is misread, the search closes on it
    # as an end of its bracket, its tight shot there overturns it and the
    # solve runs again all tight
    from gslab import Classification, Family, ProblemParams, rescale_to_v, solve_ground_state

    argv = ["solve", *_SOLVE_ARGV, "--no-cache"]
    out = tmp_path / "r.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert parse(out.read_bytes()).diagnostics["fallbacks"] == 0

    calls, misread = misread_loose_shot(lambda a, c: c == Classification.UNDERSHOOT)
    assert main([*argv, "--out", str(out)]) == 0
    diag = parse(out.read_bytes()).diagnostics
    assert misread and diag["fallbacks"] == 1 and overturned(calls)
    assert diag["integrations_run"] == len(calls)
    assert diag["loose_integrations"] == sum(kind == "loose" for _, kind, _, _ in calls)
    assert diag["rhs_evals"] == sum(n for _, _, n, _ in calls)

    # a cache hit runs nothing
    calls, misread = misread_loose_shot(lambda a, c: c == Classification.UNDERSHOOT)
    cached = ["solve", *_SOLVE_ARGV, "--cache-dir", str(tmp_path / "cache"), "--out", str(out)]
    assert main(cached) == 0 and main(cached) == 0
    assert parse(out.read_bytes()).diagnostics["fallbacks"] == 0

    calls, misread = misread_loose_shot(lambda a, c: c == Classification.UNDERSHOOT)
    sol = solve_ground_state(ProblemParams(5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS))
    assert misread and sol.profile.fallbacks == 1 and overturned(calls)
    for scaled in (sol.rescaled_to_frame().profile, rescale_to_v(sol.profile, 0.7)):
        assert scaled.fallbacks == 1


def test_cli_amp_error_reports_the_measured_error(tmp_path):
    # the record carries the measured relative error of a resolution stop
    # (the P_eps golden case ends on one); a cache hit runs no search and
    # reports 0.0; the rescaled frames carry the profile's value
    from gslab import (Family, ProblemParams, ShootControls, find_ground_state, rescale_to_v,
                       solve_ground_state)

    prof = find_ground_state(ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS))
    assert 0.0 < prof.amp_error <= 0.5 * ShootControls().amp_tol
    out = tmp_path / "r.json"
    cached = ["solve", "--family", "P_eps", "--N", "3", "--p", "6", "--q", "10", "--eps", "1e-3",
              "--cache-dir", str(tmp_path / "cache"), "--out", str(out)]
    assert main(cached) == 0
    assert parse(out.read_bytes()).diagnostics["amp_error"] == prof.amp_error
    assert main(cached) == 0
    assert parse(out.read_bytes()).diagnostics["amp_error"] == 0.0

    sol = solve_ground_state(ProblemParams(5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS))
    assert sol.profile.amp_error > 0.0
    for scaled in (sol.rescaled_to_frame().profile, rescale_to_v(sol.profile, 0.7)):
        assert scaled.amp_error == sol.profile.amp_error


@pytest.mark.parametrize("argv", [["emden"], ["check", "--suite", "emden"]])
@pytest.mark.parametrize("N", ["2", "0", "-1"])
def test_cli_emden_rejects_dimension_below_3(argv, N, capsys):
    # an argument error exits 2 with a usage message, for N = 0 too (it
    # used to run N = 3), and never raises out of main
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--N", N])
    assert exc.value.code == 2
    assert f"need N >= 3, got {N}" in capsys.readouterr().err
    assert main([*argv]) == 0   # no --N: N = 3
    assert "S* = 5.47790408953" in capsys.readouterr().out


def test_cli_solve_with_p_close_to_2_exits_cleanly(capsys):
    # p close to 2: f's lower root bracket comes from eps; a solver failure
    # must be a classified one (exit 1), never a traceback
    rc = main(["solve", "--family", "P_eps", "--N", "3", "--p", "2.58", "--q", "6.33",
               "--eps", "1.65e-9", "--no-cache"])
    assert rc in (0, 1)
    if rc == 1:
        assert "solve failed: " in capsys.readouterr().err


def test_cli_solve_reports_a_window_arithmetic_stop(capsys):
    # an admissible P_eps input whose admissible window divides by zero (its
    # lower end underflows to 0 with p this close to 2): "solve failed" and
    # exit 1, not a ZeroDivisionError traceback
    assert main(["solve", "--family", "P_eps", "--N", "6", "--p", "2.020001478",
                 "--q", "2.7591", "--eps", "1.88e-7", "--no-cache"]) == 1
    assert "solve failed: arithmetic failed in the admissible window" in capsys.readouterr().err


def test_cli_reused_parser_carries_no_state(tmp_path, monkeypatch, capsys):
    # main builds its parser once per process; every call must behave as with
    # a fresh parser, whatever ran before it
    from gslab import cli

    assert cli.build_parser() is not cli.build_parser()
    cfg = tmp_path / "run.ini"
    cfg.write_text("[solve]\nfamily = P_eps\nN = 3\np = 4\nq = 6\neps = 2e-2\nno-cache = true\n")
    script = [
        ["solve", *_SOLVE_ARGV],                      # cache miss
        ["solve", *_SOLVE_ARGV],                      # cache hit
        ["emden", "--N", "2"],                        # argument error: exit 2
        ["check", "--suite", "nehari", *_SOLVE_ARGV],
        ["--config", str(cfg), "solve"],              # config seeds --no-cache
        ["solve", *_SOLVE_ARGV, "--no-cache", "--amp-tol", "1e-10"],
        ["solve", *_SOLVE_ARGV],                      # cache hit again
    ]

    def run(cache):
        monkeypatch.setenv("GSLAB_CACHE_DIR", str(tmp_path / cache))
        seen = []
        for argv in script:
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = f"SystemExit {exc.code}"
            seen.append((rc, capsys.readouterr()))
        return seen

    cli._parser.cache_clear()
    reused = run("reused")
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = run("fresh")
    assert reused == fresh
    assert [rc for rc, _ in fresh] == [0, 0, "SystemExit 2", 0, 0, 0, 0]
    assert [("cache hit" in out.out) for _, out in fresh] == [
        False, True, False, False, False, False, True]


def test_cli_check_kappa_suite_of_the_readme(capsys):
    # the README's example: --p-critical sets p = p* = 10/3, and the kappa
    # suite checks the minimizer frame's two kappa identities and its
    # constraint p* int F(w) = 1
    assert main(["check", "--suite", "kappa", "--N", "5", "--p-critical", "--q", "6",
                 "--eps", "1e-3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == ["kappa_lq", "kappa_lp", "constraint"]
    assert all(row.endswith("  ok") for row in rows)


def test_cli_step_flags_reach_the_shoot_controls(tmp_path, monkeypatch):
    # --rtol, --atol and --r-max set the solve's step controls and r_max
    # (above the default 50/k = 1581 here); the record's config and
    # diagnostics carry them
    from gslab import cli

    seen = []
    real = cli.solve_ground_state

    def recorded(params, ctrl):
        seen.append(ctrl)
        return real(params, ctrl)

    monkeypatch.setattr(cli, "solve_ground_state", recorded)
    out = tmp_path / "r.json"
    assert main(["solve", "--family", "P_eps", "--N", "3", "--p", "6", "--q", "10",
                 "--eps", "1e-3", "--rtol", "1e-11", "--atol", "1e-13", "--r-max", "2000",
                 "--no-cache", "--out", str(out)]) == 0
    (ctrl,) = seen
    assert (ctrl.step.rtol, ctrl.step.atol, ctrl.r_max) == (1e-11, 1e-13, 2000.0)
    rec = parse(out.read_bytes())
    assert (rec.config["rtol"], rec.config["atol"], rec.config["r_max"]) == (1e-11, 1e-13, 2000.0)
    assert rec.diagnostics["r_max"] == 2000.0
    assert max(rec.payload["nehari_residual"], rec.payload["pokhozhaev_residual"]) < 1e-9


def test_cli_truncated_cache_entry_is_a_miss(tmp_path, capsys):
    # a cache entry cut short does not parse: the solve runs again and
    # rewrites it, and the next call hits the rewritten entry
    argv = ["solve", *_SOLVE_ARGV]
    assert main(argv) == 0
    (entry,) = (tmp_path / "cache").glob("*.json")
    whole = entry.read_bytes()
    entry.write_bytes(whole[: len(whole) // 2])
    capsys.readouterr()
    assert main(argv) == 0
    assert "cache hit" not in capsys.readouterr().out
    assert parse(entry.read_bytes()).payload == parse(whole).payload
    assert main(argv) == 0
    assert "cache hit" in capsys.readouterr().out


@pytest.mark.parametrize("entry_bytes", [b"null", b"5", _record_doc(payload=[])],
                         ids=["null", "number", "payload-list"])
def test_cli_cache_entry_that_is_not_an_object_is_a_miss(tmp_path, capsys, entry_bytes):
    # an entry that parses as JSON but is not a record object is a miss: the
    # solve runs again and rewrites it
    argv = ["solve", *_SOLVE_ARGV]
    assert main(argv) == 0
    (entry,) = (tmp_path / "cache").glob("*.json")
    whole = entry.read_bytes()
    entry.write_bytes(entry_bytes)
    capsys.readouterr()
    assert main(argv) == 0
    assert "cache hit" not in capsys.readouterr().out
    assert parse(entry.read_bytes()).payload == parse(whole).payload
