#!/usr/bin/env python3
"""Benchmark of `normality-lab check`, run in process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the program from
`src/`. The seed generates every system file the program reads (see
workloads.py). Each job is one CLI invocation, `cli.run_checks` followed
by `cli.render_json`, on one file, one check, a fixed sample count and a
seed. A run writes its inputs and results under bench/out/ and prints,
as its last line, one JSON object with `correct`, `attempted`, `failed`
and `metrics`.

With --trace 0 the metrics are the end-to-end ones, measured with
tracing off:
  setup_s        median wall time of a fresh interpreter importing the
                 package (with numpy and scipy) and reading every system
                 file of the workload
  points_per_s   certified units per second, median over passes of the
                 job list; a unit is a sampled point of one check, or
                 one surface-node trajectory of a shift
  job_s.p50/.p90 wall time per job over every timed job (at least
                 MIN_TIMED_JOBS, so p90 has ten jobs beyond it)
  peak_rss_mb    peak resident set of this process
Times are calibrated: a fixed kernel of the benchmark's own
(calibration.py), timed next to every job, measures the machine's
current speed, and wall times are reported at the reference speed (see
Pass). setup_s is calibrated the same way by an import of standard-
library modules timed next to every setup interpreter.
With --trace 1 the metrics are the per-layer ones (layers.py) and the
tracing overhead, the drop in points_per_s of a traced pass.

A job fails when it raises, carries an error record, gives a verdict
other than the expected one, or renders different bytes than its first
run in the same invocation. Default tolerances only.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_TIMED_JOBS = 110
MIN_PASSES = 3
SETUP_REPEATS = 9
CALIBRATIONS_PER_JOB = 4
NEIGHBOURS = 5

END_TO_END_UNITS = {"setup_s": "s", "points_per_s": "1/s", "job_s.p50": "s",
                    "job_s.p90": "s", "peak_rss_mb": "MB"}

SETUP_PROBE = """
import sys, time
start = time.perf_counter()
import numpy, scipy, scipy.integrate
import normality_lab
from normality_lab.sysfile import read_system_file
for path in sys.argv[1:]:
    read_system_file(path)
print(time.perf_counter() - start)
"""

# Importing standard-library modules, byte-compiled and C-extension ones,
# in a fresh interpreter: work of the same kind as SETUP_PROBE that no
# change to the program moves. SETUP_REFERENCE_S is about its median
# time in the fast phases of the baseline machine.
SETUP_REFERENCE = """
import time
start = time.perf_counter()
import pydoc, email.mime.multipart, xml.dom.minidom, http.server
import xmlrpc.client, doctest, tarfile, zipfile, sqlite3, csv, difflib
import decimal, fractions, ipaddress
print(time.perf_counter() - start)
"""
SETUP_REFERENCE_S = 0.075


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-lowdim", "sweep-highdim",
                                 "shift-fronts"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed):
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "seed": seed, "commit": _git_commit(),
            "threads": os.environ["NORMALITY_LAB_THREADS"]}


def measure_setup(paths):
    """Median calibrated time of SETUP_REPEATS fresh interpreters, after
    one untimed run that leaves byte-compiled modules behind as any
    earlier invocation would. Each runs right after a fresh interpreter
    timing SETUP_REFERENCE, and its time is scaled by SETUP_REFERENCE_S
    over that reference time. Also returns the (raw, reference) times."""
    env = dict(os.environ, PYTHONPATH=SRC)

    def timed(code, *args):
        done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    runs = []
    for attempt in range(SETUP_REPEATS + 1):
        reference = timed(SETUP_REFERENCE)
        setup = timed(SETUP_PROBE, *paths)
        if attempt:
            runs.append((setup, reference))
    return statistics.median(setup * SETUP_REFERENCE_S / reference
                             for setup, reference in runs), runs


@dataclass
class Pass:
    """One run over the job list. Before each job the calibration kernel
    runs CALIBRATIONS_PER_JOB times. A job's speed is calibration.speed()
    of the kernels run within NEIGHBOURS jobs of it, below 1 when the
    machine ran slower than the reference; a calibrated job time is its
    wall time multiplied by that speed."""

    units: int
    times: list     # (job index, (check_s, render_s) or None, speed)

    def seconds(self, calibrated=True):
        return sum(sum(t) * (speed if calibrated else 1.0)
                   for _, t, speed in self.times if t)


class JobRunner:
    """Runs jobs as the CLI would and checks every output."""

    def __init__(self, cli, jobs, tracer=None):
        self.cli = cli
        self.jobs = jobs
        self.tracer = tracer
        self.reference = {}
        self.attempted = 0
        self.failures = []
        self.resampled = 0
        self.sampled = 0
        self.errors = 0

    def run(self, index):
        """Wall seconds of run_checks and of render_json, or None."""
        job = self.jobs[index]
        cfg = self.cli.RunConfig(path=job.path, checks=(job.check,),
                                 samples=job.samples, seed=job.seed)
        self.attempted += 1
        start = time.perf_counter()
        try:
            report, _ = self.cli.run_checks(cfg)
            checked = time.perf_counter()
            text = self.cli.render_json(report)
            rendered = time.perf_counter()
        except Exception as e:  # a job that raises is a failed job
            self.failures.append((job.system, job.check, repr(e)))
            return None
        record = report["checks"][0]
        problem = None
        if "error" in record:
            self.errors += 1
            problem = f"error record {record['error']}"
        elif record["summary"]["passed"] != job.expect_pass:
            problem = (f"verdict {record['summary']['passed']}, expected "
                       f"{job.expect_pass} (max {record['summary']['max']})")
        elif self.reference.setdefault(index, text) != text:
            problem = "output differs from the first run of this job"
        if job.check != "shift":
            self.sampled += job.samples
            self.resampled += record["summary"]["resampled"]
        if problem:
            self.failures.append((job.system, job.check, problem))
            return None
        return checked - start, rendered - checked

    def warm_up(self):
        """Runs the first job of each check untimed, so that first-call
        costs (lazy imports, numpy's first calls) fall outside the timed
        passes."""
        first = {}
        for index, job in enumerate(self.jobs):
            first.setdefault(job.check, index)
        for index in first.values():
            self.run(index)

    def one_pass(self):
        times, calibrations = [], []
        for index in range(len(self.jobs)):
            calibrations += [calibration.kernel_seconds()
                             for _ in range(CALIBRATIONS_PER_JOB)]
            if self.tracer is None:
                times.append((index, self.run(index)))
            else:
                with self.tracer.span("job"):
                    times.append((index, self.run(index)))
        per_job = CALIBRATIONS_PER_JOB
        speeds = [calibration.speed(
                      calibrations[max(0, i - NEIGHBOURS) * per_job:
                                   (i + NEIGHBOURS + 1) * per_job])
                  for i in range(len(times))]
        return Pass(sum(job.units for job in self.jobs),
                    [(index, t, speed)
                     for (index, t), speed in zip(times, speeds)])

    def passes(self, seconds, min_jobs=0, min_passes=MIN_PASSES):
        """Whole passes until `seconds` have gone, at least `min_passes`
        of them and at least `min_jobs` jobs."""
        done = []
        start = time.perf_counter()
        while (len(done) < min_passes
               or time.perf_counter() - start < seconds
               or len(done) * len(self.jobs) < min_jobs):
            done.append(self.one_pass())
        return done


def points_per_s(passes, calibrated=True):
    return statistics.median(p.units / p.seconds(calibrated) for p in passes)


def job_times(passes, calibrated=True):
    return [sum(t) * (speed if calibrated else 1.0)
            for p in passes for _, t, speed in p.times if t]


def untraced(runner, seconds):
    passes = runner.passes(seconds, min_jobs=MIN_TIMED_JOBS)
    times = job_times(passes)
    metrics = {"points_per_s": points_per_s(passes),
               "job_s.p50": statistics.median(times),
               "job_s.p90": statistics.quantiles(times, n=10)[8]}
    counts = {"passes": len(passes), "jobs": len(times),
              "units": sum(p.units for p in passes),
              "pass_points_per_s": [p.units / p.seconds(False)
                                    for p in passes],
              "job_speed": [speed for p in passes for _, _, speed in p.times],
              "uncalibrated": {
                  "points_per_s": points_per_s(passes, calibrated=False),
                  "job_s.p50": statistics.median(
                      job_times(passes, calibrated=False))}}
    return metrics, counts


def cli_metrics(runner, passes):
    """Calibrated ms per point (per node for shift) of each check and ms
    per render, over the timed jobs."""
    per_check = {}
    render = []
    for p in passes:
        for index, t, pace in p.times:
            if t:
                job = runner.jobs[index]
                per_check.setdefault(job.check, []).append(
                    t[0] * pace * 1e3 / job.units)
                render.append(t[1] * pace * 1e3)
    return per_check, render


def traced(cli, layers, runner, inputs, docs, args):
    """Probes first, on a collected and frozen heap, so that nothing the
    passes leave behind (the span list above all) slows them; then half
    of `seconds` untraced and half with spans, at least two passes each.
    Components are counted in the first traced pass only, so the
    overhead is that of the spans alone."""
    tracer = layers.Tracer()
    gc.collect()
    gc.freeze()
    probes = layers.Probes(tracer, docs, args.workload, args.seed)
    metrics = probes.run()
    gc.unfreeze()

    half = args.seconds / 2.0
    plain = runner.passes(half, min_passes=2)
    counter = [0]
    runner.tracer = tracer
    extra = {(cli, "read_system_file"): layers.counting_reader(counter)}
    with tracer.patched(extra):
        first = runner.one_pass()
    with tracer.patched():
        with_spans = runner.passes(half, min_passes=1)
    runner.tracer = None

    per_check, render = cli_metrics(runner, plain)
    borrowed = {}
    for other, jobs in inputs.items():
        # a check this workload does not run is timed on the jobs of the
        # workload that does, from the same seed
        picked = [j for j in jobs if j.check not in per_check]
        if other == args.workload or not picked:
            continue
        helper = JobRunner(cli, picked)
        helper.warm_up()
        got, _ = cli_metrics(helper, [helper.one_pass()])
        for check, values in got.items():
            per_check[check] = values
            borrowed[check] = other
        for field in ("failures", "attempted", "errors", "resampled",
                      "sampled"):
            setattr(runner, field,
                    getattr(runner, field) + getattr(helper, field))

    for check in cli.CHECK_IDS:
        unit = "ms_per_node" if check == "shift" else "ms_per_point"
        metrics[f"cli.{check}.{unit}"] = statistics.median(per_check[check])
    metrics["cli.render_json.ms"] = statistics.median(render)
    metrics["cli.resampled_frac"] = runner.resampled / max(runner.sampled, 1)
    metrics["cli.error_frac"] = runner.errors / runner.attempted
    metrics["expr.evaluate_calls"] = counter[0] / first.units
    metrics["trace.overhead_frac"] = (1.0 - points_per_s(with_spans)
                                      / points_per_s(plain))
    extras = {"borrowed_cli_checks": borrowed, "probe_inputs": probes.homes,
              "probe_calls": probes.calls,
              "evaluate_calls_total": counter[0], "units_per_pass": first.units,
              "spans": len(tracer.spans), "span_summary": tracer.summary()}
    return metrics, tracer, extras


PER_LAYER_UNITS = (("frac", "ratio"), ("evaluate_calls", "count"),
                   ("ms_per_point", "ms"), ("ms_per_node", "ms"),
                   (".ms", "ms"), (".us", "us"))


def _unit(name):
    for suffix, unit in PER_LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    raise ValueError(name)


def main(argv=None):
    args = _args(argv)
    if not os.path.isfile(os.path.join(SRC, "normality_lab", "__init__.py")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    os.environ["NORMALITY_LAB_THREADS"] = "1"
    sys.path.insert(0, SRC)

    import workloads
    inputs = {}
    for workload in workloads.WORKLOADS:
        if args.trace or workload == args.workload:
            _, inputs[workload] = workloads.write_workload(
                workload, args.seed,
                os.path.join(OUT, f"{workload}-s{args.seed}"))
    jobs = inputs[args.workload]
    if not args.trace:
        setup_s, setup_runs = measure_setup(sorted({j.path for j in jobs}))

    import normality_lab
    from normality_lab import cli
    if not os.path.abspath(normality_lab.__file__).startswith(SRC + os.sep):
        print(f"error: imported {normality_lab.__file__}, not the sources "
              f"at {SRC}", file=sys.stderr)
        return 2

    runner = JobRunner(cli, jobs)
    runner.warm_up()
    result = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "provenance": provenance(args.seed),
              "jobs_per_pass": len(jobs)}
    if args.trace:
        import layers
        docs = {w: [cli.read_system_file(p)
                    for p in sorted({j.path for j in ws})]
                for w, ws in inputs.items()}
        scaling_dir = os.path.join(OUT, f"scaling-s{args.seed}")
        os.makedirs(scaling_dir, exist_ok=True)
        docs["scaling"] = [cli.read_system_file(p) for p in
                           layers.write_scaling_family(args.seed, scaling_dir)]
        metrics, tracer, extras = traced(cli, layers, runner, inputs, docs,
                                         args)
        span_path = os.path.join(
            OUT, f"spans-{args.workload}-s{args.seed}.jsonl")
        tracer.write(span_path)
        result.update(extras, spans_file=os.path.relpath(span_path, ROOT))
        units = {name: _unit(name) for name in metrics}
    else:
        metrics, counts = untraced(runner, args.seconds)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        result.update(counts, setup_runs_raw_s=[s for s, _ in setup_runs],
                      setup_reference_s=[r for _, r in setup_runs])
        units = END_TO_END_UNITS

    failed = len(runner.failures)
    result.update(attempted=runner.attempted, failed=failed,
                  failed_frac=failed / runner.attempted,
                  failures=runner.failures[:20])
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in sorted(metrics.items())}
    result_path = os.path.join(
        OUT, f"result-{args.workload}-s{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commit {result['provenance']['commit']}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}")
    if not args.trace:
        print(f"  {result['jobs']} jobs and {result['units']} units in "
              f"{result['passes']} passes; {len(setup_runs)} setup runs; "
              f"median speed {statistics.median(result['job_speed']):.4g}")
        print("  uncalibrated: " + ", ".join(
            f"{k} {v:.6g}" for k, v in result["uncalibrated"].items()))
    print(f"  failed_frac {result['failed_frac']:.6g} "
          f"({failed}/{runner.attempted} jobs)")
    for failure in runner.failures[:5]:
        print(f"  failed: {failure}")
    print(f"  details: {os.path.relpath(result_path, ROOT)}")
    print(json.dumps({"correct": failed == 0,
                      "attempted": runner.attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
