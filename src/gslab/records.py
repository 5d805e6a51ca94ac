"""Result records, serialization, sweep CSV tables, and the solve cache.

Records are canonical JSON (sorted keys, two-space indent, no NaN/Inf) so
that serialize(parse(b)) == b byte-for-byte.  Sweep grids additionally
flatten to a fixed-column CSV: eps, amplitude, S, sigma, lambda, dist_D1,
nehari_res, pokh_res, converged_flag.  The eps column holds the grid value
x, which is delta for the delta regimes; refit_record reads it by that name.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from ._native import cache_dir
from .asymptotics import ScalingReport, SweepPoint, fit_data, fit_exponent, fit_points

SCHEMA_VERSION = "1"

# The sweep grid's columns, in CSV order, and the SweepPoint attribute each
# one holds: sweep_rows writes them, refit_record reads them back.
# converged_flag holds the converged bool as 1 or 0.
_GRID_FIELDS = (
    ("eps", "x"),
    ("amplitude", "amplitude"),
    ("S", "S"),
    ("sigma", "sigma"),
    ("lambda", "lam"),
    ("dist_D1", "dist_D1"),
    ("nehari_res", "nehari_res"),
    ("pokh_res", "pokh_res"),
    ("converged_flag", "converged"),
)
CSV_COLUMNS = tuple(col for col, _ in _GRID_FIELDS)
FIT_OBSERVABLES = CSV_COLUMNS[1:5]   # amplitude, S, sigma, lambda: the ones refit_record fits


class ParseError(ValueError):
    """Record bytes violate the schema; the message names the field."""


@dataclass
class ResultRecord:
    kind: str                      # "solution" | "sweep"
    config: dict
    payload: dict
    diagnostics: dict = field(default_factory=dict)
    schema_version: str = SCHEMA_VERSION
    created: str = ""

    def __post_init__(self):
        if not self.created:
            self.created = datetime.now(timezone.utc).isoformat(timespec="seconds")


def _check_finite(obj, path: str):
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ParseError(f"non-finite numeric field at {path!r}")
    elif isinstance(obj, dict):
        for k, v in obj.items():
            _check_finite(v, f"{path}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _check_finite(v, f"{path}[{i}]")


def _sanitize(obj):
    """Replace non-finite floats by None (payload columns may be empty)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def serialize(record: ResultRecord) -> bytes:
    doc = {
        "schema_version": record.schema_version,
        "created": record.created,
        "kind": record.kind,
        "config": _sanitize(record.config),
        "payload": _sanitize(record.payload),
        "diagnostics": _sanitize(record.diagnostics),
    }
    return (json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()


def parse(data: bytes) -> ResultRecord:
    try:
        doc = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"not a record: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("not a record: the document is not a JSON object")
    for fd in ("schema_version", "kind", "config", "payload"):
        if fd not in doc:
            raise ParseError(f"missing field {fd!r}")
    for fd in ("config", "payload", "diagnostics"):
        if not isinstance(doc.get(fd, {}), dict):
            raise ParseError(f"field {fd!r} is not an object")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ParseError(
            f"schema_version mismatch: got {doc['schema_version']!r}, "
            f"expected {SCHEMA_VERSION!r}"
        )
    _check_finite(doc["payload"], "payload")
    return ResultRecord(
        kind=doc["kind"],
        config=doc["config"],
        payload=doc["payload"],
        diagnostics=doc.get("diagnostics", {}),
        schema_version=doc["schema_version"],
        created=doc.get("created", ""),
    )


def _fmt(x: float | None) -> str:
    if x is None or (isinstance(x, float) and not math.isfinite(x)):
        return ""
    return repr(float(x))


def sweep_rows(report: ScalingReport) -> list[dict]:
    return [{col: int(pt.converged) if attr == "converged" else getattr(pt, attr)
             for col, attr in _GRID_FIELDS} for pt in report.points]


def sweep_csv(report: ScalingReport) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in sweep_rows(report):
        cells = []
        for col in CSV_COLUMNS:
            v = row[col]
            cells.append(str(v) if col == "converged_flag" else _fmt(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def report_record(report: ScalingReport, config: dict) -> ResultRecord:
    fits = {
        name: {
            "exponent": fit.exponent,
            "log_power": fit.log_power,
            "r2": fit.r2,
            "rms_residual": fit.rms_residual,
            "predicted_exponent": fit.predicted_exponent,
            "predicted_log_power": fit.predicted_log_power,
            "window": list(fit.window),
            "n_points": fit.n_points,
        }
        for name, fit in report.fits.items()
    }
    payload = {
        "regime": report.regime,
        "N": report.N,
        "p": report.p,
        "q": report.q,
        "reference": report.reference,
        "predicted": {k: list(v) for k, v in report.predicted.items()},
        "fits": fits,
        "grid": sweep_rows(report),
        "fit_window": report.fit_window,
        "failures": {repr(pt.x): pt.failure for pt in report.points if not pt.converged},
    }
    return ResultRecord("sweep", config, payload)


def refit_record(record: ResultRecord, observable: str = "amplitude",
                 with_log: bool = False) -> dict:
    """Re-fit a saved sweep record's grid column; returns the fit summary.

    The fit reads the points the sweep's own fit read (asymptotics.fit_points,
    with the record's fit window), so with the sweep's with_log it gives the
    sweep's exponent exactly.
    """
    if observable not in FIT_OBSERVABLES:
        raise ParseError(f"unknown observable {observable!r}")
    attrs = dict(_GRID_FIELDS)

    def value(col: str, attr: str, v):
        if attr == "converged":
            return bool(v)
        if v is None:
            return math.nan
        try:
            return float(v)
        except (TypeError, ValueError):
            raise ParseError(f"grid column {col!r} holds {v!r}, not a number") from None

    grid = record.payload["grid"]
    if not (isinstance(grid, list) and all(isinstance(row, dict) for row in grid)):
        raise ParseError("field 'payload.grid' is not a list of objects")
    points = [SweepPoint(**{attr: value(col, attr, row[col]) for col, attr in _GRID_FIELDS})
              for row in grid]
    window = fit_points(points, record.payload.get("fit_window"))
    fit = fit_exponent(fit_data(window, attrs[observable]), with_log=with_log)
    return {
        "observable": observable,
        "with_log": with_log,
        "exponent": fit.exponent,
        "log_power": fit.log_power,
        "r2": fit.r2,
        "rms_residual": fit.rms_residual,
        "n_points": fit.n_points,
    }


# --- solve cache ------------------------------------------------------------


def _source_files(directory: Path = Path(__file__).parent) -> list[Path]:
    """The package's sources in ``directory``: its Python modules and the C
    step kernel, in name order."""
    return sorted([*directory.glob("*.py"), *directory.glob("*.c")], key=lambda p: p.name)


def _sources_digest(directory: Path = Path(__file__).parent) -> str:
    """SHA-256 over the names and bytes of _source_files(directory)."""
    h = hashlib.sha256()
    for path in _source_files(directory):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


@functools.cache
def solver_revision() -> str:
    """SHA-256 of the package's own sources (_sources_digest), read once per
    process.

    Part of the cache key, so a changed solver, its C kernel included,
    misses the entries an older one wrote even when ``__version__`` is
    unchanged.
    """
    return _sources_digest()


def cache_key(config: dict) -> str:
    blob = json.dumps(
        {"config": _sanitize(config), "version": __version__,
         "revision": solver_revision()},
        sort_keys=True,
        allow_nan=False,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def cache_load(key: str, directory: Path | None = None) -> ResultRecord | None:
    """The record stored under key in directory (default cache_dir()), or None."""
    path = (directory or cache_dir()) / f"{key}.json"
    if not path.is_file():
        return None
    try:
        return parse(path.read_bytes())
    except ParseError:
        return None


def cache_store(key: str, record: ResultRecord, directory: Path | None = None) -> None:
    """Write the record atomically into directory (default cache_dir()).

    Each writer has its own temp file.
    """
    d = directory or cache_dir()
    d.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=f".{key}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(serialize(record))
        os.replace(tmp, d / f"{key}.json")
    except BaseException:
        os.unlink(tmp)
        raise
