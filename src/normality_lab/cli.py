"""Check orchestration and reporting.

`normality-lab check file.system` samples phase-space points from a
seeded box, runs the selected verification checks at every point, and
emits one machine-readable report (JSON or CSV). The same file, config,
and seed always produce byte-identical output; the exit status is 0
exactly when every selected check passed its tolerances.

A JSON report (schema 2) lists each check's points once, by index, and
each equation's tolerance and flags once; a row is the list
[index, equation, residual, pass]. The CSV is the flat table of the
same rows, one a line, with their points and tolerances written out.
"""

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .calculus import (LOWER, _curvature_relation,
                       _dynamic_curvature_relation, _fiber_map_gradient,
                       _horizontal_transport_momentum,
                       _horizontal_transport_velocity, _paired_contexts,
                       _vertical_transport_momentum,
                       _vertical_transport_velocity, dynamic_curvature)
from .errors import (DegeneratePoint, MissingGaugeTensor, NormalityLabError,
                     SingularMetric, ValidationError)
from .experiments import (_count, _gauge_deviations, _real,
                          connection_free_mode, shift_integrate)
from .normality import CROSS_FIELDS, cross_check_all, normality_residuals
from .phase import PhasePoint
from .system import (FIBER_BOX, X_BOX, _samples, legendre_forward,
                     legendre_inverse, metric, sup_norm)
from .sysfile import read_system_file

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

SCHEMA = 2


@dataclass(frozen=True)
class RunConfig:
    """One check run. checks=None selects everything the file supports:
    the four point checks, plus gauge and shift when the file carries
    the sections they need, and at n = 1 metric and transport alone.
    Points are drawn from system.X_BOX and system.FIBER_BOX."""

    path: str
    checks: tuple = None
    samples: int = 100
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
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
    if doc.sysdef.n == 1:       # the other checks' fields need n >= 2
        return ("metric", "transport")
    picked = ["metric", "transport", "cross", "normality"]
    if doc.sysdef.gauge is not None:
        picked.append("gauge")
    if doc.surface is not None:
        picked.append("shift")
    return tuple(picked)


def _validate_config(cfg: RunConfig, checks, tolerances):
    if not checks:
        raise ValidationError("no checks selected")
    samples, seed = _count(cfg.samples, "samples"), _count(cfg.seed, "seed")
    if samples < 1:
        raise ValidationError("samples must be at least 1")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    if cfg.fmt not in ("json", "csv"):
        raise ValidationError(
            f"unknown report format {cfg.fmt!r}; known: json, csv")
    unknown = sorted(set(cfg.tolerances) - set(DEFAULT_TOLERANCES))
    if unknown:
        raise ValidationError(
            f"unknown tolerances: {', '.join(unknown)}; "
            f"known: {', '.join(DEFAULT_TOLERANCES)}")
    what = "a positive finite number"
    for name, value in tolerances.items():
        if not 0.0 < _real(value, f"tolerance {name!r}", what) < math.inf:
            raise ValidationError(
                f"tolerance {name!r} must be {what}, got {value!r}")


def _row(equation, residual, tolerance):
    """One row of a point, [equation, residual, pass]; a non-finite
    residual fails and is written as null, and _summarize lets it
    decide its check whatever its equation's flags."""
    residual = float(residual)
    finite = math.isfinite(residual)
    return [equation, residual if finite else None,
            finite and residual <= tolerance]


def _per_point(x, columns):
    """The equation table and the rows of the points x, (n,) or (N, n),
    from columns (equation, residuals, tolerance[, flags]) with one
    residual a point: {equation: {"tolerance": ..., **flags}} and one
    row list a point."""
    table, lists = {}, []
    for eq, res, tol, *flags in columns:
        table[eq] = {"tolerance": float(tol), **(flags[0] if flags else {})}
        lists.append((eq, np.reshape(res, -1).tolist(), tol))
    return table, [[_row(eq, res[k], tol) for eq, res, tol in lists]
                   for k in range(len(np.atleast_2d(x)))]


def _scalar_draw(rng, n, kind):
    """One random scalar of the transport check, as (kind, a, b, c):
    1-based indices a and b and four coefficients rounded to six
    decimals (-0.000000 reads as -0.0). Two scalar draws of the indices
    give the bits of one size=2 draw without its array path."""
    a, b = int(rng.integers(0, n)) + 1, int(rng.integers(0, n)) + 1
    return kind, a, b, [float(f"{w:.6f}")
                        for w in rng.uniform(-1.0, 1.0, size=4)]


class _Scalar:
    """The random scalars c0 + c1*x{a}*{kind}{b} + c2*{kind}{a}^2 +
    c3*sin(x{b}) of one slot of the transport check (_scalar_draw) at a
    point or a batch. They are evaluated step by step as the expression
    tree of their source is, so each point gets that tree's bits. At a
    lone point a and b are indices and c four floats; over a batch, a
    and b are index arrays and c a (4, N) array, and the variables of
    each point are gathered from the batch."""

    def __init__(self, draws):
        (self.kind, a, b, c), *rest = draws
        self.batched = bool(rest)
        if rest:
            a, b = (np.array([d[i] for d in draws]) - 1 for i in (1, 2))
            c = np.array([d[3] for d in draws]).T
        self.a, self.b, self.c = a, b, c

    def _pick(self, env, kind):
        if not self.batched:
            return env[f"{kind}{self.a}"], env[f"{kind}{self.b}"]
        u = jets.stack([env[f"{kind}{i + 1}"] for i in range(len(env) // 2)],
                       env["x1"].grad.shape[-1], self.a.shape)
        rows = np.arange(len(self.a))
        return tuple(jets.Dense(u.order, u.val[rows, i], u.grad[rows, i],
                                None if u.hess is None else u.hess[rows, i])
                     for i in (self.a, self.b))

    def evaluate(self, env):
        (x_a, x_b), (f_a, f_b) = self._pick(env, "x"), self._pick(env, self.kind)
        c0, c1, c2, c3 = self.c
        root = c0 + c1 * x_a * f_b
        root = root + c2 * jets.power(f_a, 2.0)
        return root + c3 * jets.sin(x_b)


def _transport_draws(rng, n):
    """The random scalars of a transport point, in the order the check
    draws them: one velocity-native and one momentum-native scalar, then
    the n components of a covector field of each kind."""
    return [_scalar_draw(rng, n, kind)
            for kind in ("v", "p") + ("v",) * n + ("p",) * n]


def _metric_rows(sysdef, doc, x, v, draws, tol):
    pt = PhasePoint.velocity(x, v)
    product = metric(sysdef, pt).product_deviation
    back = legendre_inverse(sysdef, legendre_forward(sysdef, pt)).point.fiber
    return _per_point(x, [
        ("metric-product", product, tol["metric"]),
        ("fiber-roundtrip", sup_norm(back - pt.fiber, x.shape[:-1]),
         tol["roundtrip"])])


def _transport_rows(sysdef, doc, x, v, draws, tol):
    n = sysdef.n
    t = tol["transport"]
    s = [_Scalar(slot) for slot in zip(*draws)]
    # one context pair for all six relations
    vctx, pctx = _paired_contexts(sysdef, PhasePoint.velocity(x, v))
    rows = [
        ("vertical-transport-v",
         _vertical_transport_velocity(vctx, pctx, s[0]), t),
        ("vertical-transport-p",
         _vertical_transport_momentum(vctx, pctx, s[1]), t)]
    # the velocity side's dynamic curvature and fiber-map gradient, once
    # for the two relations that read each, taken after the vertical
    # relations so that the fiber map is evaluated before the connection
    dv, grad_L = dynamic_curvature(vctx), _fiber_map_gradient(vctx)
    return _per_point(x, rows + [
        ("horizontal-transport-v", _horizontal_transport_velocity(
            vctx, pctx, s[2:2 + n], (LOWER,), grad_L), t),
        ("horizontal-transport-p",
         _horizontal_transport_momentum(vctx, pctx, s[2 + n:], (LOWER,)), t),
        ("dynamic-curvature-relation",
         _dynamic_curvature_relation(vctx, pctx, dv).deviation, t),
        ("curvature-relation",
         _curvature_relation(vctx, pctx, dv, grad_L).deviation, t),
    ])


def _cross_rows(sysdef, doc, x, v, draws, tol):
    out = cross_check_all(sysdef, PhasePoint.velocity(x, v),
                          doc.options.get("mutate"))
    return _per_point(x, [(f"cross-{name}", out[name].deviation, tol["cross"])
                          for name in CROSS_FIELDS])


def _normality_rows(sysdef, doc, x, v, draws, tol):
    return _per_point(x, [
        (r.check_id, r.norm, tol["normality"], {"decisive": r.decisive})
        for r in normality_residuals(sysdef, PhasePoint.velocity(x, v),
                                     tol["normality"])])


def _gauge_rows(sysdef, doc, x, v, draws, tol):
    columns = []
    # the tensor was validated when the file was read
    for entry in _gauge_deviations(sysdef, sysdef.gauge, x, v):
        tolerance = tol["gauge"] if entry.kind == "rule" else tol["gauge-exact"]
        flags = {}
        if entry.requires:
            # invariance of this residual norm is only promised while
            # the listed equations hold, so it decides the check only
            # when non-finite (_summarize)
            flags = {"conditional": True, "requires": list(entry.requires)}
        columns.append((f"{entry.kind}-{entry.quantity}", entry.deviation,
                        tolerance, flags))
    return _per_point(x, columns)


# Each builder takes the points x, v, of shape (n,) or (N, n), and the
# extra draws of each point (_DRAWS), and returns the check's equation
# table and one row list a point (_per_point).
_BUILDERS = {
    "metric": _metric_rows,
    "transport": _transport_rows,
    "cross": _cross_rows,
    "normality": _normality_rows,
    "gauge": _gauge_rows,
}

_DRAWS = {"transport": _transport_draws}

# The points of a check are evaluated this many at a time. It bounds
# the memory of a large sweep and changes no result.
CHUNK = 64


def _evaluate(build, draw, points, rngs):
    """(rows, resampled, x, v) of each point, in index order, from their
    first draws `points` and their substreams. A batch that raises is
    split in halves; a lone point resamples from its substream."""
    if len(points) > 1:
        try:
            with np.errstate(all="ignore"):
                out = build(np.array([p[0] for p in points]),
                            np.array([p[1] for p in points]),
                            [p[2] for p in points])
        except NormalityLabError:
            half = len(points) // 2
            return (_evaluate(build, draw, points[:half], rngs[:half])
                    + _evaluate(build, draw, points[half:], rngs[half:]))
        return [(rows, 0, x, v) for rows, (x, v, _) in zip(out, points)]
    (x, v, extra), = points
    for attempt in range(RESAMPLE_LIMIT + 1):
        if attempt:
            x, v, extra = draw(rngs[0])
        try:
            # a row fails a non-finite residual, so numpy need not warn
            with np.errstate(all="ignore"):
                rows, = build(x, v, [extra])
        except (DegeneratePoint, SingularMetric):
            if attempt == RESAMPLE_LIMIT:
                raise
            continue
        return [(rows, attempt, x, v)]


def _sweep(check_id, cfg, sysdef, doc, tolerances):
    """Seeded point sweep. Each point gets its own substream keyed by
    (seed, check, index), so resampling one point cannot shift any
    other point's draws. The first draws of CHUNK points are evaluated
    as one batch, which gives each point the rows it gets alone; a
    batch that raises is split down to lone points, which resample a
    degenerate point or raise the first failing point's error."""
    if check_id == "gauge" and sysdef.gauge is None:
        raise MissingGaugeTensor(
            "the gauge check needs a [gauge] section in the file")
    builder = _BUILDERS[check_id]
    extra = _DRAWS.get(check_id)
    check_index = CHECK_IDS.index(check_id)
    n = sysdef.n

    def draw(rng):
        x, v = (part[:, 0] for part in _samples(rng, n, 2, 1))
        return x, v, extra(rng, n) if extra else None

    equations, points, rows, resampled = {}, [], [], 0

    def build(x, v, draws):
        table, out = builder(sysdef, doc, x, v, draws, tolerances)
        equations.update(table)
        return out

    for start in range(0, cfg.samples, CHUNK):
        rngs = [np.random.default_rng([cfg.seed, check_index, index])
                for index in range(start, min(start + CHUNK, cfg.samples))]
        done = _evaluate(build, draw, [draw(rng) for rng in rngs], rngs)
        for index, (from_point, attempts, x, v) in enumerate(done, start):
            points.append({"rep": "v", "x": x.tolist(), "fiber": v.tolist()})
            rows.extend([index, *row] for row in from_point)
            resampled += attempts
    return {"equations": equations, "points": points, "rows": rows}, resampled


def _shift_rows(doc, sysdef, tolerances):
    """The shift's record: its output times as its points, and one row
    a time, shift-start at t = 0 and shift-collinearity after it."""
    if doc.shift is None:
        raise ValidationError(
            "the shift check needs a [surface] section in the file")
    result = shift_integrate(sysdef, doc.shift)
    start, later = (("shift-start", tolerances["shift-start"]),
                    ("shift-collinearity", tolerances["shift"]))
    rows = []
    for index, deviation in enumerate(result.deviations):
        equation, tolerance = later if index else start
        rows.append([index, *_row(equation, deviation, tolerance)])
    return {"equations": {eq: {"tolerance": float(tol)}
                          for eq, tol in (start, later)},
            "points": [{"t": float(t)} for t in result.times],
            "rows": rows}


def _summarize(record, resampled):
    """The check's summary. A row decides the check when its residual is
    non-finite, or its equation is neither conditional nor flagged
    non-decisive; `worst` is the first decisive row with the largest
    residual, a non-finite one before any other, and `decisive_max` its
    residual (0.0 when no row decides)."""
    rows, equations = record["rows"], record["equations"]
    decides = {eq for eq, entry in equations.items()
               if not entry.get("conditional") and entry.get("decisive", True)}
    residuals = [row[2] for row in rows]
    finite = None not in residuals
    decisive = [k for k, row in enumerate(rows)
                if row[2] is None or row[1] in decides]
    worst = max(decisive, default=None,
                key=lambda k: (rows[k][2] is None, rows[k][2] or 0.0))
    return {
        "max": max(residuals, default=0.0) if finite else None,
        "mean": ((sum(residuals) / len(residuals) if residuals else 0.0)
                 if finite else None),
        "pass_count": sum(row[3] for row in rows),
        "rows": len(rows),
        "resampled": resampled,
        "passed": bool(rows) and all(rows[k][3] for k in decisive),
        "decisive_max": 0.0 if worst is None else rows[worst][2],
        "worst": None if worst is None else {
            "row": worst, "equation": rows[worst][1], "index": rows[worst][0]},
    }


def _run_one(check_id, cfg, doc, sysdef, tolerances):
    resampled = 0
    try:
        if check_id == "shift":
            record = _shift_rows(doc, sysdef, tolerances)
        else:
            record, resampled = _sweep(check_id, cfg, sysdef, doc, tolerances)
    except NormalityLabError as e:
        record = {"equations": {}, "points": [], "rows": [],
                  "error": {"type": type(e).__name__, "message": str(e)}}
    return {"id": check_id, **record, "summary": _summarize(record, resampled)}


def run_checks(cfg: RunConfig):
    """Load, sweep, report. Returns (report document, exit status)."""
    doc = read_system_file(cfg.path)
    sysdef = doc.sysdef
    if cfg.connection_free:
        sysdef = connection_free_mode(sysdef)
    checks = _selected_checks(cfg, doc)
    tolerances = {**DEFAULT_TOLERANCES, **cfg.tolerances}
    _validate_config(cfg, checks, tolerances)

    records = [_run_one(check_id, cfg, doc, sysdef, tolerances)
               for check_id in checks]
    report = {
        "schema": SCHEMA,
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
            "x_box": list(X_BOX),
            "fiber_box": list(FIBER_BOX),
            "format": cfg.fmt,
            "connection_free": cfg.connection_free,
        },
        "checks": records,
    }
    status = 0 if all(r["summary"]["passed"] for r in records) else 1
    return report, status


def render_json(report) -> str:
    """The report as compact, strict JSON with sorted keys, plus a
    newline. A report is a tree the program builds, so no cycle check."""
    return json.dumps(report, sort_keys=True, allow_nan=False,
                      separators=(",", ":"), check_circular=False) + "\n"


CSV_COLUMNS = ("check", "equation", "index", "rep", "x", "fiber", "t",
               "residual", "tolerance", "verdict", "decisive",
               "conditional", "requires")


def render_csv(report) -> str:
    """Flat table, one row a line, with its point and its equation's
    tolerance and flags written out; summaries are a JSON-format
    concern."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in report["checks"]:
        points = [(point.get("rep", ""),
                   " ".join(repr(c) for c in point.get("x", ())),
                   " ".join(repr(c) for c in point.get("fiber", ())),
                   repr(point["t"]) if "t" in point else "")
                  for point in record["points"]]
        equations = {eq: (repr(entry["tolerance"]),
                          str(entry["decisive"]).lower()
                          if "decisive" in entry else "",
                          "true" if entry.get("conditional") else "",
                          ";".join(entry.get("requires", ())))
                     for eq, entry in record["equations"].items()}
        for index, equation, residual, passed in record["rows"]:
            tolerance, *flags = equations[equation]
            writer.writerow([
                record["id"], equation, index, *points[index],
                "" if residual is None else repr(residual), tolerance,
                "pass" if passed else "fail", *flags])
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
        text, status = render_json({"schema": SCHEMA, "error": {
            "type": type(e).__name__, "message": str(e)}}), 2
    else:
        text = render_json(report) if cfg.fmt == "json" else render_csv(report)
    try:
        _emit(text, args.out)
    except OSError as e:
        # exit 1 is a failed certificate, so an unwritable report is not
        sys.stderr.write(f"normality-lab: cannot write "
                         f"{args.out or '<stdout>'}: {e.strerror or e}\n")
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
