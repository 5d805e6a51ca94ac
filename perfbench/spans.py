"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder wraps gslab's public functions at the module attribute the
caller looks up (``shooting.integrate`` is what ``find_ground_state``
calls, ``emden.radial_quad`` is what ``profile_distances`` imports at call
time), so the program itself is unchanged.  Every call becomes one span:
name, start, end, parent span, benchmark op id, and a few attributes read
off the call's arguments and result.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


class Span:
    """One wrapped call.

    ``net`` (wall seconds without calibration chunks) and ``scale``
    (reference seconds per such second) are set after the run; until then a
    span counts its plain wall time.
    """

    __slots__ = ("id", "name", "start", "end", "parent", "op", "attrs", "net", "scale")

    def __init__(self, id, name, start, parent, op):
        self.id, self.name, self.start, self.parent, self.op = id, name, start, parent, op
        self.end = start
        self.attrs = {}
        self.net = None
        self.scale = 1.0

    @property
    def wall(self) -> float:
        return self.end - self.start if self.net is None else self.net

    @property
    def dur(self) -> float:
        return self.wall * self.scale


def _integrate_attrs(args, kwargs, traj):
    tol = args[3] if len(args) > 3 else kwargs.get("tol")
    return {"accepted": len(traj.radii) - 1, "rhs_evals": traj.rhs_evals,
            "quad": bool(tol is not None and tol.with_quadrature)}


def _find_attrs(args, kwargs, prof):
    ctrl = args[1] if len(args) > 1 else kwargs.get("ctrl")
    return {"hinted": ctrl is not None and ctrl.bracket_hint is not None,
            "bisection": prof.bisection_iterations,
            "mismatch": prof.tail.mismatch}


def _sweep_attrs(args, kwargs, report):
    return {"converged": len(report.converged_points())}


def _sweep_label(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return {"label": f"{spec.regime}_n{spec.N}"}


def _serialize_attrs(args, kwargs, blob):
    return {"bytes": len(blob)}


# (gslab module[.class], attribute, span name, attrs from the result, attrs
# from the call)
WRAPPED = (
    ("shooting", "integrate", "ode.integrate", _integrate_attrs, None),
    ("functionals", "solve_ground_state", "functionals.solve_ground_state", None, None),
    ("functionals", "find_ground_state", "shooting.find_ground_state", _find_attrs, None),
    ("functionals", "analyze", "functionals.analyze", None, None),
    ("functionals", "radial_norm", "functionals.radial_norm", None, None),
    ("functionals", "dirichlet_norm", "functionals.dirichlet_norm", None, None),
    ("functionals.GroundStateSolution", "rescaled_to_frame",
     "functionals.rescaled_to_frame", None, None),
    ("asymptotics", "sweep", "asymptotics.sweep", _sweep_attrs, _sweep_label),
    ("asymptotics", "concentration_lambda", "asymptotics.concentration_lambda", None, None),
    ("asymptotics", "rescale_to_v", "asymptotics.rescale_to_v", None, None),
    ("asymptotics", "profile_distances", "asymptotics.profile_distances", None, None),
    ("asymptotics", "fit_exponent", "asymptotics.fit_exponent", None, None),
    ("emden", "radial_quad", "emden.radial_quad", None, None),
    ("records", "serialize", "records.serialize", _serialize_attrs, None),
    ("records", "parse", "records.parse", None, None),
    ("cli", "main", "cli.main", None, None),
)


class Tracer:
    """Records one span per wrapped call; ``op`` is set by the timed loop."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, result_attrs, call_attrs):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1].id if tracer._stack else -1
            span = Span(len(tracer.spans), name, time.perf_counter(), parent, tracer.op)
            tracer.spans.append(span)
            if call_attrs is not None:
                span.attrs.update(call_attrs(args, kwargs))
            tracer._stack.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                partial = getattr(exc, "partial", None)
                if partial is not None:  # IntegrationFailure carries its grid
                    span.attrs.update(accepted=len(partial.radii) - 1,
                                      rhs_evals=partial.rhs_evals)
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if result_attrs is not None:
                span.attrs.update(result_attrs(args, kwargs, out))
            return out

        return traced

    def install(self) -> None:
        for owner_name, attr, name, result_attrs, call_attrs in WRAPPED:
            mod_name, _, cls_name = owner_name.partition(".")
            owner = importlib.import_module(f"gslab.{mod_name}")
            if cls_name:
                owner = getattr(owner, cls_name)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, result_attrs, call_attrs))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def dump(self, path, extra: dict) -> None:
        """Write the spans (one JSON array per span) plus ``extra`` to ``path``."""
        doc = dict(extra)
        doc["span_fields"] = ["id", "name", "start", "end", "parent", "op", "attrs", "net",
                              "scale"]
        doc["spans"] = [[s.id, s.name, s.start, s.end, s.parent, s.op, s.attrs, s.net, s.scale]
                        for s in self.spans]
        path.write_text(json.dumps(doc, separators=(",", ":")))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its (sequential, nested) children cover.

    The difference is taken in wall seconds and then scaled by the span's own
    speed factor, so it never goes negative.
    """
    child = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.wall
    return {s.id: (s.wall - child[s.id]) * s.scale for s in spans}


def self_time_table(spans: list[Span], ops_s: float) -> list[str]:
    """Per span name: calls, total and self seconds, self share of `ops_s`."""
    selfs = self_times(spans)
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        r = rows[s.name]
        r[0] += 1
        r[1] += s.dur
        r[2] += selfs[s.id]
    lines = [f"{'span':38s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} {'self%':>7s}"]
    for name, (n, tot, slf) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        share = 100.0 * slf / ops_s if ops_s > 0 else 0.0
        lines.append(f"{name:38s} {n:8d} {tot:10.4f} {slf:10.4f} {share:6.2f}%")
    return lines


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def _ancestor(span: Span, by_id: dict[int, Span], name: str) -> Span | None:
    while span.parent >= 0:
        span = by_id[span.parent]
        if span.name == name:
            return span
    return None


# sweeps whose hint metrics are reported one by one (labels are regime_nN)
SWEEP_LABELS = ("critical_n5", "subcritical_n3")


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-layer metrics from the timed loop's spans.

    Counts are per benchmark op, computed as ratios of whole numbers so that
    whole-cycle runs on one seed repeat them exactly; ``*_s`` are mean
    seconds per call of that span.
    """
    n_ops = max(n_ops, 1)
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selfs = self_times(spans)
    m: dict[str, float] = {}

    # ode
    ints = by_name["ode.integrate"]
    acc = sum(s.attrs.get("accepted", 0) for s in ints)
    rhs = sum(s.attrs.get("rhs_evals", 0) for s in ints)
    steps = (rhs - len(ints)) / 6.0  # rhs_evals = 1 + 6 * (accepted + rejected)
    quad = [s for s in ints if s.attrs.get("quad")]
    quad_steps = sum((s.attrs["rhs_evals"] - 1) / 6.0 for s in quad)
    m["ode.integrate_calls"] = len(ints) / n_ops
    m["ode.integrate_s"] = _mean(s.dur for s in ints)
    m["ode.steps_accepted"] = acc / n_ops
    m["ode.steps_rejected"] = (steps - acc) / n_ops
    m["ode.rhs_evals"] = rhs / n_ops
    m["ode.us_per_step"] = 1e6 * sum(s.dur for s in ints) / steps if steps else 0.0
    m["ode.quad_us_per_step"] = (1e6 * sum(s.dur for s in quad) / quad_steps
                                 if quad_steps else 0.0)
    m["ode.failures"] = sum(s.attrs.get("error") == "IntegrationFailure"
                            for s in ints) / n_ops

    # shooting
    finds = by_name["shooting.find_ground_state"]
    ok = [s for s in finds if "error" not in s.attrs]
    n_int = defaultdict(int)
    for s in ints:
        n_int[s.parent] += 1
    m["shooting.solve_s"] = _mean(s.dur for s in ok)
    m["shooting.self_s"] = _mean(selfs[s.id] for s in ok)
    m["shooting.integrations_per_solve"] = _mean(n_int[s.id] for s in ok)
    m["shooting.bisection_iters_per_solve"] = _mean(s.attrs["bisection"] for s in ok)
    m["shooting.bracket_integrations_per_solve"] = _mean(
        n_int[s.id] - s.attrs["bisection"] - 1 for s in ok)
    m["shooting.bracket_failures"] = sum(s.attrs.get("error") == "BracketNotFound"
                                         for s in finds) / n_ops
    m["shooting.tail_mismatch_max"] = max((s.attrs["mismatch"] for s in ok), default=0.0)

    # functionals
    m["functionals.analyze_s"] = _mean(s.dur for s in by_name["functionals.analyze"])
    m["functionals.grid_norm_s"] = _mean(
        s.dur for s in by_name["functionals.radial_norm"] + by_name["functionals.dirichlet_norm"])
    m["functionals.frame_s"] = _mean(s.dur for s in by_name["functionals.rescaled_to_frame"])

    # emden
    quads = by_name["emden.radial_quad"]
    m["emden.radial_quad_calls"] = len(quads) / n_ops
    m["emden.radial_quad_s"] = _mean(s.dur for s in quads)

    # asymptotics
    sweeps = by_name["asymptotics.sweep"]
    m["asymptotics.sweep_self_s"] = _mean(selfs[s.id] for s in sweeps)
    for short in ("concentration_lambda", "rescale_to_v", "profile_distances", "fit_exponent"):
        m[f"asymptotics.{short}_s"] = _mean(s.dur for s in by_name[f"asymptotics.{short}"])
    points = sum(s.attrs.get("converged", 0) for s in sweeps)
    in_sweep = sum(1 for s in ints if _ancestor(s, by_id, "asymptotics.sweep") is not None)
    m["asymptotics.integrations_per_point"] = in_sweep / points if points else 0.0
    hinted = defaultdict(lambda: [0, 0])  # label -> [hinted solves, accepted hints]
    for s in ok:
        if not s.attrs["hinted"]:
            continue
        h = hinted[_ancestor(s, by_id, "asymptotics.sweep").attrs["label"]]
        h[0] += 1
        h[1] += n_int[s.id] - s.attrs["bisection"] - 1 == 2
    tot_h = sum(h[0] for h in hinted.values())
    m["asymptotics.hint_accept_ratio"] = (sum(h[1] for h in hinted.values()) / tot_h
                                          if tot_h else 0.0)
    n_sweeps = defaultdict(int)
    for s in sweeps:
        n_sweeps[s.attrs["label"]] += 1
    for label in SWEEP_LABELS:
        h = hinted[label]
        m[f"asymptotics.hint_accept_ratio.{label}"] = h[1] / h[0] if h[0] else 0.0
        m[f"asymptotics.hinted_solves.{label}"] = (h[0] / n_sweeps[label]
                                                   if n_sweeps[label] else 0.0)

    # records / cli
    sers = by_name["records.serialize"]
    m["records.serialize_s"] = _mean(s.dur for s in sers)
    m["records.parse_s"] = _mean(s.dur for s in by_name["records.parse"])
    m["records.record_bytes"] = _mean(s.attrs["bytes"] for s in sers if "bytes" in s.attrs)
    m["cli.cached_solve_s"] = _mean(s.dur for s in by_name["cli.main"])
    return m
