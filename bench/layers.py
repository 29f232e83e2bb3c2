"""Tracing and per-layer probes of the benchmark.

Nothing here edits the program. Spans come from wrapping public
functions of each module from outside for the length of a traced pass;
counts come from wrapping each parsed component of a system in a
counting object; per-layer times come from probes that call one public
function at a time on freshly built contexts.
"""

import contextlib
import dataclasses
import functools
import json
import statistics
import sys
import time
import zlib

import numpy as np

from normality_lab import (calculus, cli, experiments, expr, jets, normality,
                           system, sysfile)
from normality_lab.errors import DegeneratePoint, NonConvergence, SingularMetric
from normality_lab.phase import PhasePoint

import calibration
import workloads

# Public functions wrapped in spans during a traced pass, by module.
TRACED = {
    cli: ("run_checks", "render_json"),
    sysfile: ("read_system_file",),
    system: ("metric", "legendre_forward", "legendre_inverse",
             "theta_from_phi"),
    jets: ("invert_matrix", "compose"),
    calculus: ("curvature", "dynamic_curvature", "horizontal_derivative",
               "vertical_derivative", "curvature_relation",
               "dynamic_curvature_relation", "vertical_transport_velocity",
               "vertical_transport_momentum", "horizontal_transport_velocity",
               "horizontal_transport_momentum"),
    normality: ("velocity_bundle", "momentum_bundle", "cross_check_all",
                "normality_residuals"),
    experiments: ("gauge_invariance_report", "shift_integrate"),
}

SCALING_DIMENSIONS = (2, 3, 4, 5)

# Shift settings a system file may carry, as the CLI reads them.
SHIFT_OPTIONS = ("u_start", "u_stop", "u_samples", "periodic", "t_final",
                 "time_steps", "rtol")


class Tracer:
    """Spans kept in memory: name, start, end and parent, in seconds
    from the tracer's creation."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []     # [id, parent, name, start, end]
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        record = [len(self.spans), self._open[-1] if self._open else None,
                  name, time.perf_counter() - self.origin, None]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield record
        finally:
            self._open.pop()
            record[4] = time.perf_counter() - self.origin

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self, extra=None):
        """Route every reference to a TRACED function, in every module of
        the package, through a span for the duration of the block.
        `extra` maps (module, name) to a further wrapper applied outside
        the span wrapper."""
        package = [m for k, m in sys.modules.items()
                   if k == "normality_lab" or k.startswith("normality_lab.")]
        undo = []
        try:
            for module, names in TRACED.items():
                short = module.__name__.rsplit(".", 1)[-1]
                for name in names:
                    original = getattr(module, name)
                    wrapped = self.wrap(f"{short}.{name}", original)
                    for owner in package:
                        for attr, value in list(vars(owner).items()):
                            if value is original:
                                undo.append((owner, attr, value))
                                setattr(owner, attr, wrapped)
            for (module, name), wrapper in (extra or {}).items():
                undo.append((module, name, getattr(module, name)))
                setattr(module, name, wrapper(getattr(module, name)))
            yield
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def summary(self):
        """Per span name: count, total seconds and self seconds (total
        minus the time covered by child spans)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[1] is not None:
                child[s[1]] += s[4] - s[3]
        out = {}
        for s, covered in zip(self.spans, child):
            entry = out.setdefault(s[2], {"count": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += s[4] - s[3]
            entry["self_s"] += s[4] - s[3] - covered
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for ident, parent, name, start, end in self.spans:
                handle.write(json.dumps({"id": ident, "parent": parent,
                                         "name": name, "start": start,
                                         "end": end}) + "\n")


class Counted:
    """A system component that counts its evaluate calls. SystemDef
    accepts any object with evaluate, dimension, fiber_kind and
    variables."""

    __slots__ = ("inner", "counter")

    def __init__(self, inner, counter):
        self.inner = inner
        self.counter = counter

    @property
    def dimension(self):
        return self.inner.dimension

    @property
    def fiber_kind(self):
        return self.inner.fiber_kind

    def variables(self):
        return self.inner.variables()

    def evaluate(self, env):
        self.counter[0] += 1
        return self.inner.evaluate(env)


def counting_reader(counter):
    """Wrapper for cli.read_system_file that returns the document with
    every parsed component counted; constant zeros stay unwrapped."""
    def wrap(f):
        return f if isinstance(f, system.ConstFunc) else Counted(f, counter)

    def tensor(arr):
        n = arr.shape[0]
        return [[[wrap(arr[k, i, j]) for j in range(n)] for i in range(n)]
                for k in range(n)]

    def wrapper(read):
        def read_counted(path):
            doc = read(path)
            sd = doc.sysdef
            counted = system.SystemDef(
                sd.n, [wrap(f) for f in sd.legendre],
                [wrap(f) for f in sd.force], tensor(sd.connection),
                v_inverse=(None if sd.v_inverse is None
                           else [wrap(f) for f in sd.v_inverse]),
                gauge=None if sd.gauge is None else tensor(sd.gauge),
                newton_guess=sd.newton_guess)
            surface = (None if doc.surface is None
                       else tuple(wrap(f) for f in doc.surface))
            nu = wrap(doc.nu) if hasattr(doc.nu, "evaluate") else doc.nu
            return dataclasses.replace(doc, sysdef=counted, surface=surface,
                                       nu=nu)
        return read_counted
    return wrapper


# --- per-layer probes --------------------------------------------------

class Points(list):
    """A probe's inputs, with the workload whose systems they come from."""

    def __init__(self, items=(), home=None):
        super().__init__(items)
        self.home = home


class Probes:
    """Times one public function at a time. Every timed call is a span
    of the tracer. Inputs that a lower layer owns (for example the
    connection jets that curvature reads) are built before the span
    opens, on a context built for this call alone, so no earlier call's
    cached results hide work.

    Each probe draws its points from a generator seeded by the run's
    seed and the probe's name, so a probe whose systems do not depend
    on the traced workload times the same calls in every traced run.
    It goes over its points until it has made MIN_CALLS calls or spent
    BUDGET_S, and at least once. The calibration kernel runs
    KERNELS_PER_CALL times before every call; a metric is the median
    call time at the reference speed (see calibration.py)."""

    MIN_CALLS = 96
    BUDGET_S = 0.5
    KERNELS_PER_CALL = 2

    def __init__(self, tracer, docs, workload, seed, points=2, cap=8):
        self.tracer = tracer
        self.docs = docs            # workload -> [SystemFile]
        self.workload = workload
        self.seed = seed
        self.points = points
        self.cap = cap
        self.metrics = {}
        self.homes = {}             # metric -> workload its systems came from
        self.calls = {}             # metric -> timed calls
        self.outcomes = {"inverse": [0, 0], "bundle": [0, 0]}  # tried, failed

    def _rng(self, key):
        return np.random.default_rng([self.seed, 7, zlib.crc32(key.encode())])

    def _samples(self, key, homes, keep=lambda doc: True):
        """(doc, x, v) triples on the chosen workload's own systems,
        drawn by the generator of `key`."""
        home = self.workload if self.workload in homes else homes[0]
        rng = self._rng(key)
        out = Points(home=home)
        for doc in self.docs[home]:
            if not keep(doc):
                continue
            n = doc.sysdef.n
            for _ in range(self.points):
                out.append((doc, rng.uniform(-1.0, 1.0, n),
                            rng.uniform(0.5, 1.5, n)))
        del out[self.cap:]
        return out

    def timed(self, name, samples, prepare, call, scale=1e6, per=1):
        """Calibrated median of call(prepare(sample)) over `samples`, a
        Points list, in 1/scale seconds per `per` operations."""
        kernels, times = [], []
        start = time.perf_counter()
        with self.tracer.span(f"probe.{name}"):
            while True:
                for sample in samples:
                    arg = prepare(sample)
                    kernels += [calibration.kernel_seconds()
                                for _ in range(self.KERNELS_PER_CALL)]
                    with self.tracer.span(name) as span:
                        call(arg)
                    times.append(span[4] - span[3])
                if (len(times) >= self.MIN_CALLS
                        or time.perf_counter() - start > self.BUDGET_S):
                    break
        self.homes[name] = samples.home
        self.calls[name] = len(times)
        self.metrics[name] = (statistics.median(times)
                              * calibration.speed(kernels) * scale / per)

    def counted_failures(self, kind, errors, fn):
        def guarded(arg):
            self.outcomes[kind][0] += 1
            try:
                fn(arg)
            except errors:
                self.outcomes[kind][1] += 1
        return guarded

    def run(self):
        self.expr()
        self.jets()
        self.system()
        self.calculus()
        self.normality()
        self.experiments()
        self.sysfile()
        self.scaling()
        for name, (tried, failed) in (
                ("system.inverse_fail_frac", self.outcomes["inverse"]),
                ("normality.degenerate_frac", self.outcomes["bundle"])):
            self.metrics[name] = failed / max(tried, 1)
        return self.metrics

    # expr: one component evaluation, jets and floats
    def expr(self):
        def components(doc):
            sd = doc.sysdef
            flat = list(sd.legendre) + list(sd.force) + list(sd.connection.flat)
            if sd.gauge is not None:
                flat += list(sd.gauge.flat)
            return [f for f in flat if not isinstance(f, system.ConstFunc)]

        def jet_env(s):
            doc, x, v = s
            return components(doc), system.VContext(doc.sysdef, x, v).env

        def float_env(s):
            doc, x, v = s
            n = doc.sysdef.n
            env = {f"x{i + 1}": float(x[i]) for i in range(n)}
            env.update({f"v{i + 1}": float(v[i]) for i in range(n)})
            return components(doc), env

        def evaluate_all(arg):
            comps, env = arg
            for f in comps:
                f.evaluate(env)

        for name, homes, prepare in (
                ("expr.eval_jet.us", ("sweep-lowdim",), jet_env),
                ("expr.eval_float.us", ("shift-fronts",), float_env)):
            samples = self._samples(name, homes)
            per = statistics.median(len(prepare(s)[0]) for s in samples)
            self.timed(name, samples, prepare, evaluate_all, per=per)

    # jets: products at m = 2n = 4 and 8, matrix inversion, composition
    def jets(self):
        reps = 200
        for name, homes, n in (("jets.mul.m4.us", ("sweep-lowdim",), 2),
                               ("jets.mul.m8.us", ("sweep-highdim",), 4)):
            samples = self._samples(name, homes,
                                    lambda d, n=n: d.sysdef.n == n)

            def operands(s):
                ctx = system.VContext(s[0].sysdef, s[1], s[2])
                return ctx.L[0], ctx.L[1]

            def multiply(arg):
                a, b = arg
                for _ in range(reps):
                    a * b
            self.timed(name, samples, operands, multiply, per=reps)

        three = self._samples("jets", ("sweep-highdim",),
                              lambda d: d.sysdef.n == 3)

        def g_jets(s):
            ctx = system.VContext(s[0].sysdef, s[1], s[2])
            return ctx.g_jets
        self.timed("jets.invert_matrix.us", three, g_jets, jets.invert_matrix)

        def composable(s):
            pctx = _pcontext(s)
            return pctx.inner.L[0], pctx.transform
        self.timed("jets.compose.us", three, composable,
                   lambda arg: jets.compose(*arg))

    # system: contexts with their cached fields, the free force covector
    def system(self):
        def vcontext(s):
            ctx = system.VContext(s[0].sysdef, s[1], s[2])
            ctx.L, ctx.phi, ctx.gamma, ctx.g_inv_jets

        def pcontext(arg):
            sd, x, p = arg
            ctx = system.PContext(sd, x, p)
            ctx.gamma_p, ctx.Q

        lowdim = ("sweep-lowdim",)
        self.timed("system.vcontext.us", self._samples("vcontext", lowdim),
                   lambda s: s, vcontext)
        self.timed("system.pcontext.closed.us",
                   self._samples("pcontext.closed",
                                 ("sweep-lowdim", "shift-fronts"),
                                 lambda d: d.sysdef.v_inverse is not None),
                   _image, pcontext)
        self.timed("system.pcontext.newton.us",
                   self._samples("pcontext.newton",
                                 ("sweep-lowdim", "shift-fronts"),
                                 lambda d: d.sysdef.v_inverse is None),
                   _image, self.counted_failures(
                       "inverse", (NonConvergence, SingularMetric), pcontext))
        self.timed("system.theta_from_phi.us",
                   self._samples("theta_from_phi", ("shift-fronts",)),
                   lambda s: (s[0].sysdef, PhasePoint.velocity(s[1], s[2])),
                   lambda arg: system.theta_from_phi(*arg))

    # calculus: n=3 systems of sweep-highdim
    def calculus(self):
        three = self._samples("calculus", ("sweep-highdim",),
                              lambda d: d.sysdef.n == 3)

        def vctx(s):
            ctx = system.VContext(s[0].sysdef, s[1], s[2])
            ctx.gamma
            return ctx

        def pctx(s):
            ctx = _pcontext(s)
            ctx.gamma_p
            return ctx

        def field(rank):
            def prepare(s):
                ctx = vctx(s)
                if rank == 0:
                    return calculus.FieldValue(ctx, ctx.L[0], ())
                if rank == 1:
                    return calculus.FieldValue(
                        ctx, np.array(ctx.L, dtype=object), (calculus.LOWER,))
                return calculus.field_of(ctx, s[0].sysdef.connection[0],
                                         (calculus.LOWER, calculus.LOWER))
            return prepare

        self.timed("calculus.curvature.v.us", three, vctx, calculus.curvature)
        self.timed("calculus.curvature.p.us", three, pctx, calculus.curvature)
        self.timed("calculus.dynamic_curvature.us", three, vctx,
                   calculus.dynamic_curvature)
        for rank in range(3):
            self.timed(f"calculus.horizontal_derivative.r{rank}.us", three,
                       field(rank), calculus.horizontal_derivative)
        self.timed("calculus.curvature_relation.us", three, _velocity_point,
                   lambda arg: calculus.curvature_relation(*arg))
        self.timed("calculus.transport.us", three, _transport_inputs,
                   _transport)

    # normality: both bundles, the cross check and the residuals
    def normality(self):
        homes = ("sweep-highdim", "sweep-lowdim")
        samples = self._samples("normality", homes)

        def vctx(s):
            ctx = system.VContext(s[0].sysdef, s[1], s[2])
            ctx.L, ctx.phi, ctx.gamma, ctx.g_inv_jets, ctx.g_inv_values
            return ctx

        def pctx(s):
            ctx = _pcontext(s)
            ctx.gamma_p, ctx.Q
            return ctx

        bundle_errors = (DegeneratePoint,)
        self.timed("normality.velocity_bundle.us", samples, vctx,
                   self.counted_failures("bundle", bundle_errors,
                                         normality.velocity_bundle))
        self.timed("normality.momentum_bundle.us", samples, pctx,
                   self.counted_failures("bundle", bundle_errors,
                                         normality.momentum_bundle))
        self.timed("normality.cross_check_all.us", samples, _velocity_point,
                   self.counted_failures(
                       "bundle", bundle_errors,
                       lambda arg: normality.cross_check_all(*arg)))
        self.timed("normality.residuals.us", samples, _velocity_point,
                   self.counted_failures(
                       "bundle", bundle_errors,
                       lambda arg: normality.normality_residuals(*arg)))

    # experiments: one gauge report point, one shift per front
    def experiments(self):
        self.timed("experiments.gauge_report.us",
                   self._samples("gauge_report", ("sweep-lowdim",),
                                 lambda d: d.sysdef.gauge is not None),
                   _velocity_point,
                   lambda arg: experiments.gauge_invariance_report(
                       arg[0], [arg[1]]))
        fronts = self.docs["shift-fronts"]
        nodes = sum(_shift_run(d).u_samples ** (d.sysdef.n - 1)
                    for d in fronts)
        name = "experiments.shift_integrate.ms_per_node"
        kernels, elapsed = [], 0.0
        with self.tracer.span(f"probe.{name}"):
            for doc in fronts:
                run = _shift_run(doc)
                kernels += [calibration.kernel_seconds()
                            for _ in range(self.KERNELS_PER_CALL)]
                with self.tracer.span(name) as span:
                    experiments.shift_integrate(doc.sysdef, run)
                elapsed += span[4] - span[3]
        self.homes[name] = "shift-fronts"
        self.calls[name] = len(fronts)
        self.metrics[name] = (elapsed * calibration.speed(kernels) * 1e3
                              / nodes)

    def sysfile(self):
        paths = Points((d.path for d in self.docs[self.workload]),
                       home=self.workload)
        self.timed("sysfile.read.ms", paths, lambda p: p,
                   sysfile.read_system_file, scale=1e3)

    def scaling(self):
        """curvature and cross_check_all against n on the coupled-cubic
        family: the curve dense jets are judged by."""
        for n in SCALING_DIMENSIONS:
            doc = self.docs["scaling"][n - SCALING_DIMENSIONS[0]]
            rng = self._rng(f"scaling.n{n}")
            samples = Points(((doc, rng.uniform(-1.0, 1.0, n),
                               rng.uniform(0.5, 1.5, n)) for _ in range(3)),
                             home="scaling")

            def vctx(s):
                ctx = system.VContext(s[0].sysdef, s[1], s[2])
                ctx.gamma
                return ctx
            self.timed(f"calculus.curvature.n{n}.us", samples, vctx,
                       calculus.curvature)
            self.timed(f"normality.cross_check_all.n{n}.us", samples,
                       _velocity_point,
                       lambda arg: normality.cross_check_all(*arg))


def write_scaling_family(seed, directory):
    """One coupled-cubic file per probed dimension."""
    rng = np.random.default_rng([seed, len(workloads.WORKLOADS)])
    paths = []
    for n in SCALING_DIMENSIONS:
        path = f"{directory}/cubic-n{n}.system"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(workloads.cubic_family(rng, n))
        paths.append(path)
    return paths


def _velocity_point(s):
    return s[0].sysdef, PhasePoint.velocity(s[1], s[2])


def _image(s):
    sd = s[0].sysdef
    image = system.legendre_forward(sd, PhasePoint.velocity(s[1], s[2]))
    return sd, image.x, image.fiber


def _pcontext(s):
    return system.PContext(*_image(s))


def _transport_inputs(s):
    sd, pt = _velocity_point(s)
    n = sd.n
    scalar_v = expr.parse("0.3 + 0.2*x1*v2 + 0.1*v1^2 + 0.4*sin(x2)", n)
    scalar_p = expr.parse("0.3 + 0.2*x1*p2 + 0.1*p1^2 + 0.4*sin(x2)", n)
    cov_v = [expr.parse(f"0.2*x{i + 1}*v{i + 1} + 0.1*v1^2", n)
             for i in range(n)]
    cov_p = [expr.parse(f"0.2*x{i + 1}*p{i + 1} + 0.1*p1^2", n)
             for i in range(n)]
    return sd, pt, scalar_v, scalar_p, cov_v, cov_p


def _transport(arg):
    """The four transport identities the transport check evaluates."""
    sd, pt, scalar_v, scalar_p, cov_v, cov_p = arg
    calculus.vertical_transport_velocity(sd, pt, scalar_v)
    calculus.vertical_transport_momentum(sd, pt, scalar_p)
    calculus.horizontal_transport_velocity(sd, pt, cov_v, (calculus.LOWER,))
    calculus.horizontal_transport_momentum(sd, pt, cov_p, (calculus.LOWER,))


def _shift_run(doc):
    kwargs = {k: doc.options[k] for k in SHIFT_OPTIONS if k in doc.options}
    nu = doc.nu if doc.nu is not None else 1.0
    return experiments.ShiftRun(surface=doc.surface, nu=nu, **kwargs)
