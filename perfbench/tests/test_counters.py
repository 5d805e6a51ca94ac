"""Tests of the benchmark's layer counters and of BENCHMARK.json.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run._import_program()

import spans  # noqa: E402
import workloads  # noqa: E402
from gslab import functionals  # noqa: E402
from gslab.ode import IntegrationFailure, StepControls, integrate  # noqa: E402
from gslab.params import Family, ProblemParams  # noqa: E402

COUNTER_UNITS = {"count", "count/op", "ratio", "bytes"}


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install()
    yield t
    t.uninstall()


@pytest.mark.parametrize("params, integrations, diagnostic", [
    (ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS), 44, 42),
    (ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO), 47, 44),
])
def test_integrations_per_solve_match_independent_count(tracer, params, integrations,
                                                        diagnostic):
    sol = functionals.solve_ground_state(params)
    m = spans.layer_metrics(tracer.spans, n_ops=1)
    assert m["ode.integrate_calls"] == integrations
    assert m["shooting.integrations_per_solve"] == integrations
    # the CLI's integrations_run = bisection_iterations + 1 misses the bracket
    # scans and the P_zero r_max probe
    assert sol.profile.bisection_iterations + 1 == diagnostic
    for s in tracer.spans:
        if s.name == "ode.integrate":
            attempted, rest = divmod(s.attrs["rhs_evals"] - 1, 6)
            assert rest == 0 and attempted >= s.attrs["accepted"]


def test_rhs_evals_count_six_per_attempted_step():
    # a step budget fixes the number of attempted steps independently of the
    # trajectory, so rhs_evals == 1 + 6 * (accepted + rejected) is exact here
    params = ProblemParams(3, 4.0, 6.0, 1e-3, Family.P_EPS)
    with pytest.raises(IntegrationFailure) as info:
        integrate(params, 0.1366, 1e3, StepControls(atol=1e-12, rtol=1e-10, max_steps=50))
    assert info.value.partial.rhs_evals == 1 + 6 * 50
    assert len(info.value.partial.radii) - 1 <= 50


def _traced_counters(name, seed, workdir, monkeypatch):
    # one draw per catalog entry (7 solves) keeps the solve_mix cycle short
    monkeypatch.setattr(workloads.SolveMix, "rounds", 1)
    _, wl, _, _ = run.set_up(name, seed, workdir)
    tally = workloads.Tally()
    t = spans.Tracer()
    t.install()
    try:
        ops, _, _ = run.timed_loop(wl, tally, 0.0, t)
    finally:
        t.uninstall()
    assert tally.failed == 0 and len(ops) == wl.cycle
    m = spans.layer_metrics(t.spans, len(ops))
    return {k: v for k, v in m.items() if run.LAYER_UNITS[k] in COUNTER_UNITS}


@pytest.mark.parametrize("name", ["solve_mix", "sweep_chain", "postprocess"])
def test_two_traced_runs_on_one_seed_give_identical_counters(name, tmp_path, monkeypatch):
    first = _traced_counters(name, 7, tmp_path / "a", monkeypatch)
    second = _traced_counters(name, 7, tmp_path / "b", monkeypatch)
    assert first == second
    if name == "postprocess":
        assert first["ode.integrate_calls"] == 0
    else:
        assert first["ode.integrate_calls"] > 0


def test_benchmark_json_lists_the_metrics_run_py_prints():
    doc = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve_mix",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
