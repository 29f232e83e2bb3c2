"""Check orchestration and reporting.

`normality-lab check file.system` samples phase-space points from a
seeded box, runs the selected verification checks at every point, and
emits one machine-readable report (JSON or CSV). The same file, config,
and seed always produce byte-identical output; the exit status is 0
exactly when every selected check passed its tolerances.
"""

import argparse
import csv
import io
import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import expr
from .calculus import (LOWER, _curvature_relation,
                       _dynamic_curvature_relation,
                       _horizontal_transport_momentum,
                       _horizontal_transport_velocity, _paired_contexts,
                       _vertical_transport_momentum,
                       _vertical_transport_velocity)
from .errors import (DegeneratePoint, NormalityLabError, SingularMetric,
                     ValidationError)
from .experiments import (ShiftRun, _gauge_tensor, _point_rows,
                          connection_free_mode, shift_integrate)
from .normality import CROSS_FIELDS, cross_check_all, normality_residuals
from .phase import PhasePoint
from .system import legendre_forward, legendre_inverse, metric
from .sysfile import SHIFT_OPTIONS, read_system_file

CHECK_IDS = ("metric", "transport", "cross", "normality", "gauge", "shift")

DEFAULT_TOLERANCES = {
    "metric": 1e-9,
    "roundtrip": 1e-10,
    "transport": 1e-7,
    "cross": 1e-6,
    "normality": 1e-8,
    "gauge": 1e-6,          # recomputed-field rule conformance
    "gauge-exact": 1e-7,    # invariants and residual-norm rows
    "shift": 1e-6,
    "shift-start": 1e-10,
}

RESAMPLE_LIMIT = 10


@dataclass(frozen=True)
class RunConfig:
    """One check run. checks=None selects everything the file supports:
    the four point checks, plus gauge and shift when the file carries
    the sections they need. Boxes accept scalars or per-variable arrays."""

    path: str
    checks: tuple = None
    samples: int = 100
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    x_box: tuple = (-1.0, 1.0)
    fiber_box: tuple = (0.5, 1.5)
    fmt: str = "json"
    connection_free: bool = False


def _selected_checks(cfg: RunConfig, doc) -> tuple:
    if cfg.checks is not None:
        if isinstance(cfg.checks, str):
            raise ValidationError(
                f"checks must be a sequence of check names, not the "
                f"string {cfg.checks!r}")
        unknown = sorted(set(cfg.checks) - set(CHECK_IDS))
        if unknown:
            raise ValidationError(
                f"unknown checks: {', '.join(unknown)}; "
                f"known: {', '.join(CHECK_IDS)}")
        return tuple(c for c in CHECK_IDS if c in cfg.checks)
    picked = ["metric", "transport", "cross", "normality"]
    if doc.sysdef.gauge is not None:
        picked.append("gauge")
    if doc.surface is not None:
        picked.append("shift")
    return tuple(picked)


def _validate_config(cfg: RunConfig, n, checks, tolerances):
    if not checks:
        raise ValidationError("no checks selected")
    for name in ("samples", "seed"):
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    if cfg.samples < 1:
        raise ValidationError("samples must be at least 1")
    if cfg.seed < 0:
        raise ValidationError("seed must be non-negative")
    unknown = sorted(set(cfg.tolerances) - set(DEFAULT_TOLERANCES))
    if unknown:
        raise ValidationError(
            f"unknown tolerances: {', '.join(unknown)}; "
            f"known: {', '.join(DEFAULT_TOLERANCES)}")
    for name, value in tolerances.items():
        if not (isinstance(value, numbers.Real) and 0.0 < value < math.inf):
            raise ValidationError(
                f"tolerance {name!r} must be a positive finite number, "
                f"got {value!r}")
    fiber_sensitive = {"cross", "normality", "gauge"} & set(checks)
    for name, box in (("x", cfg.x_box), ("fiber", cfg.fiber_box)):
        try:
            lo, hi = (np.asarray(bound, dtype=float) for bound in box)
        except (TypeError, ValueError):
            raise ValidationError(
                f"{name} sampling box must be a (low, high) pair of numbers "
                f"or of {n}-entry arrays, got {box!r}") from None
        if lo.shape not in ((), (n,)) or hi.shape not in ((), (n,)):
            raise ValidationError(
                f"{name} sampling box bounds must be scalars or have "
                f"{n} entries")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValidationError(f"{name} sampling box bounds must be finite")
        if np.any(lo >= hi):
            raise ValidationError(f"{name} sampling box is empty")
        if (name == "fiber" and fiber_sensitive
                and np.any((lo <= 0.0) & (hi >= 0.0))):
            raise ValidationError(
                "fiber sampling box must exclude zero for the "
                + "/".join(sorted(fiber_sensitive)) + " checks")


def _row(equation, residual, tolerance, **flags):
    """One report row; a non-finite residual fails and is written as
    null, and _summarize lets it decide its check whatever its flags."""
    residual = float(residual)
    finite = math.isfinite(residual)
    row = {"equation": equation, "residual": residual if finite else None,
           "tolerance": float(tolerance),
           "pass": finite and residual <= tolerance}
    row.update(flags)
    return row


def _coefficient(w):
    """The node `({w:.6f})` parses to: the rounded magnitude, negated
    by a Unary when the text carries a minus sign (also for -0.000000)."""
    text = f"{w:.6f}"
    if text.startswith("-"):
        return expr.Unary(expr.Num(float(text[1:])))
    return expr.Num(float(text))


def _random_scalar(rng, n, kind):
    """Low-degree polynomial with one trig term, deterministic in rng:
    c0 + c1*x{a}*{kind}{b} + c2*{kind}{a}^2 + c3*sin(x{b}), with the
    coefficients rounded to six decimals. The tree is the one
    expr.parse gives for that source, built without parsing."""
    a, b = (int(i) + 1 for i in rng.integers(0, n, size=2))
    c = [_coefficient(w) for w in rng.uniform(-1.0, 1.0, size=4)]
    x_a, x_b = expr.Var("x", a), expr.Var("x", b)
    f_a, f_b = expr.Var(kind, a), expr.Var(kind, b)
    terms = (expr.Binary("*", expr.Binary("*", c[1], x_a), f_b),
             expr.Binary("*", c[2], expr.Binary("^", f_a, expr.Num(2.0))),
             expr.Binary("*", c[3], expr.Call("sin", x_b)))
    root = c[0]
    for term in terms:
        root = expr.Binary("+", root, term)
    return expr.Expression(root, n, ("x", "v", "p"), kind)


def _metric_rows(sysdef, doc, pt, rng, tol):
    pair = metric(sysdef, pt)
    image = legendre_forward(sysdef, pt)
    back = legendre_inverse(sysdef, image).point
    roundtrip = float(np.max(np.abs(back.fiber - pt.fiber)))
    return [_row("metric-product", pair.product_deviation, tol["metric"]),
            _row("fiber-roundtrip", roundtrip, tol["roundtrip"])]


def _transport_rows(sysdef, doc, pt, rng, tol):
    n = sysdef.n
    t = tol["transport"]
    scalar_v = _random_scalar(rng, n, "v")
    scalar_p = _random_scalar(rng, n, "p")
    cov_v = [_random_scalar(rng, n, "v") for _ in range(n)]
    cov_p = [_random_scalar(rng, n, "p") for _ in range(n)]
    # one context pair for all six relations, built after every draw so
    # that a point resampled for a singular metric redraws from the rng
    # state its scalars left
    pair = _paired_contexts(sysdef, pt)
    return [
        _row("vertical-transport-v",
             _vertical_transport_velocity(*pair, scalar_v), t),
        _row("vertical-transport-p",
             _vertical_transport_momentum(*pair, scalar_p), t),
        _row("horizontal-transport-v",
             _horizontal_transport_velocity(*pair, cov_v, (LOWER,)), t),
        _row("horizontal-transport-p",
             _horizontal_transport_momentum(*pair, cov_p, (LOWER,)), t),
        _row("dynamic-curvature-relation",
             _dynamic_curvature_relation(*pair).deviation, t),
        _row("curvature-relation", _curvature_relation(*pair).deviation, t),
    ]


def _cross_rows(sysdef, doc, pt, rng, tol):
    out = cross_check_all(sysdef, pt, mutate=doc.options.get("mutate"))
    return [_row(f"cross-{name}", out[name].deviation, tol["cross"])
            for name in CROSS_FIELDS]


def _normality_rows(sysdef, doc, pt, rng, tol):
    return [_row(res.check_id, res.norm, res.tolerance, decisive=res.decisive)
            for res in normality_residuals(sysdef, pt,
                                           tolerance=tol["normality"])]


def _gauge_rows(tensor, sysdef, doc, pt, rng, tol):
    rows = []
    for entry in _point_rows(sysdef, tensor, pt):
        tolerance = tol["gauge"] if entry.kind == "rule" else tol["gauge-exact"]
        flags = {}
        if entry.requires:
            # invariance of this residual norm is only promised while
            # the listed equations hold, so it decides the check only
            # when non-finite (_summarize)
            flags = {"conditional": True, "requires": list(entry.requires)}
        rows.append(_row(f"{entry.kind}-{entry.quantity}", entry.deviation,
                         tolerance, **flags))
    return rows


_BUILDERS = {
    "metric": _metric_rows,
    "transport": _transport_rows,
    "cross": _cross_rows,
    "normality": _normality_rows,
    "gauge": _gauge_rows,
}


def _sweep(check_id, cfg, sysdef, doc, tolerances):
    """Seeded point sweep. Each point gets its own substream keyed by
    (seed, check, index), so resampling one point cannot shift any
    other point's draws."""
    builder = _BUILDERS[check_id]
    if check_id == "gauge":
        # validate the gauge tensor once for every point of the check
        builder = partial(builder, _gauge_tensor(sysdef, None))
    check_index = CHECK_IDS.index(check_id)
    n = sysdef.n
    x_lo, x_hi = cfg.x_box
    f_lo, f_hi = cfg.fiber_box
    rows, resampled = [], 0
    for index in range(cfg.samples):
        rng = np.random.default_rng([cfg.seed, check_index, index])
        for attempt in range(RESAMPLE_LIMIT + 1):
            x = rng.uniform(x_lo, x_hi, n)
            v = rng.uniform(f_lo, f_hi, n)
            try:
                # a row fails a non-finite residual, so numpy need not warn
                with np.errstate(all="ignore"):
                    from_point = builder(sysdef, doc,
                                         PhasePoint.velocity(x, v), rng,
                                         tolerances)
            except (DegeneratePoint, SingularMetric):
                if attempt == RESAMPLE_LIMIT:
                    raise
                continue
            break
        point = {"rep": "v", "x": [float(c) for c in x],
                 "fiber": [float(c) for c in v]}
        for row in from_point:
            row.update(check=check_id, index=index, point=point)
        rows.extend(from_point)
        resampled += attempt
    return rows, resampled


def _shift_rows(doc, sysdef, tolerances):
    if doc.surface is None:
        raise ValidationError(
            "the shift check needs a [surface] section in the file")
    kwargs = {k: doc.options[k] for k in SHIFT_OPTIONS if k in doc.options}
    if doc.nu is not None:
        kwargs["nu"] = doc.nu
    run = ShiftRun(surface=doc.surface, **kwargs)
    result = shift_integrate(sysdef, run)
    rows = []
    for index, t in enumerate(result.times):
        key = "shift-start" if index == 0 else "shift"
        rows.append(_row(key if index == 0 else "shift-collinearity",
                         result.deviations[index], tolerances[key],
                         check="shift", index=index, point={"t": float(t)}))
    return rows


def _summarize(rows, resampled):
    residuals = [row["residual"] for row in rows]
    decisive = [row for row in rows if row["residual"] is None or (
        not row.get("conditional") and row.get("decisive", True))]
    finite = None not in residuals
    return {
        "max": max(residuals, default=0.0) if finite else None,
        "mean": ((sum(residuals) / len(residuals) if residuals else 0.0)
                 if finite else None),
        "pass_count": sum(1 for row in rows if row["pass"]),
        "rows": len(rows),
        "resampled": resampled,
        "passed": bool(rows) and all(row["pass"] for row in decisive),
    }


def _run_one(check_id, cfg, doc, sysdef, tolerances):
    try:
        if check_id == "shift":
            rows, resampled = _shift_rows(doc, sysdef, tolerances), 0
        else:
            rows, resampled = _sweep(check_id, cfg, sysdef, doc, tolerances)
    except NormalityLabError as e:
        return {"id": check_id, "rows": [],
                "error": {"type": type(e).__name__, "message": str(e)},
                "summary": _summarize([], 0)}
    return {"id": check_id, "rows": rows,
            "summary": _summarize(rows, resampled)}


def _box_list(box):
    # bound by bound: a scalar and an n-entry bound may be mixed
    return [np.asarray(bound, dtype=float).tolist() for bound in box]


def run_checks(cfg: RunConfig):
    """Load, sweep, report. Returns (report document, exit status)."""
    doc = read_system_file(cfg.path)
    sysdef = doc.sysdef
    if cfg.connection_free:
        sysdef = connection_free_mode(sysdef)
    checks = _selected_checks(cfg, doc)
    tolerances = {**DEFAULT_TOLERANCES, **cfg.tolerances}
    _validate_config(cfg, sysdef.n, checks, tolerances)

    records = [_run_one(check_id, cfg, doc, sysdef, tolerances)
               for check_id in checks]
    report = {
        "schema": 1,
        "system": {
            "path": doc.path,
            "n": sysdef.n,
            "inverse": "closed-form" if sysdef.v_inverse else "newton",
            "gauge": sysdef.gauge is not None,
            "surface": doc.surface is not None,
            "mutation": doc.options.get("mutate"),
        },
        "config": {
            "checks": list(checks),
            "samples": int(cfg.samples),
            "seed": int(cfg.seed),
            "tolerances": {k: float(v) for k, v in sorted(tolerances.items())},
            "x_box": _box_list(cfg.x_box),
            "fiber_box": _box_list(cfg.fiber_box),
            "format": cfg.fmt,
            "connection_free": cfg.connection_free,
        },
        "checks": records,
    }
    status = 0 if all(r["summary"]["passed"] for r in records) else 1
    return report, status


def render_json(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


CSV_COLUMNS = ("check", "equation", "index", "rep", "x", "fiber", "t",
               "residual", "tolerance", "verdict", "decisive",
               "conditional", "requires")


def render_csv(report) -> str:
    """Flat per-row table; summaries are a JSON-format concern."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in report["checks"]:
        for row in record["rows"]:
            point = row.get("point", {})
            writer.writerow([
                row["check"], row["equation"], row["index"],
                point.get("rep", ""),
                " ".join(repr(c) for c in point.get("x", ())),
                " ".join(repr(c) for c in point.get("fiber", ())),
                repr(point["t"]) if "t" in point else "",
                "" if row["residual"] is None else repr(row["residual"]),
                repr(row["tolerance"]),
                "pass" if row["pass"] else "fail",
                "" if "decisive" not in row else str(row["decisive"]).lower(),
                "true" if row.get("conditional") else "",
                ";".join(row.get("requires", ())),
            ])
    return buf.getvalue()


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="normality-lab",
        description="Verification checks for Newtonian systems under "
                    "generalized fiber maps.")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser(
        "check", help="run verification checks on a system definition file")
    check.add_argument("file", help="system definition file")
    check.add_argument("--checks", default=None,
                       help="comma-separated subset of " + ",".join(CHECK_IDS))
    check.add_argument("--samples", type=int, default=100,
                       help="points per sampled check (default 100)")
    check.add_argument("--seed", type=int, default=0,
                       help="sampling seed (default 0)")
    for check_id in CHECK_IDS:
        check.add_argument(f"--tol-{check_id}", type=float, default=None,
                           metavar="TOL",
                           help=f"tolerance for the {check_id} check")
    check.add_argument("--connection-free", action="store_true",
                       help="drop the connection before checking")
    check.add_argument("--format", dest="fmt", choices=("json", "csv"),
                       default="json", help="report format (default json)")
    check.add_argument("--out", default=None,
                       help="write the report here instead of stdout")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    checks = None
    if args.checks is not None:
        checks = tuple(part.strip() for part in args.checks.split(",")
                       if part.strip())
    overrides = {}
    for check_id in CHECK_IDS:
        value = getattr(args, f"tol_{check_id}")
        if value is not None:
            overrides[check_id] = value
    cfg = RunConfig(path=args.file, checks=checks, samples=args.samples,
                    seed=args.seed, tolerances=overrides, fmt=args.fmt,
                    connection_free=args.connection_free)
    try:
        report, status = run_checks(cfg)
    except NormalityLabError as e:
        _emit(render_json({"schema": 1, "error": {
            "type": type(e).__name__, "message": str(e)}}), args.out)
        return 2
    _emit(render_json(report) if cfg.fmt == "json" else render_csv(report),
          args.out)
    return status


if __name__ == "__main__":
    sys.exit(main())
