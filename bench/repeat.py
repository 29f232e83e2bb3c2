#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise every end-to-end metric.

    python3 bench/repeat.py --runs 10 --out bench/out/repeat.json

For each workload in BENCHMARK.json (or those named with --workload):
`--runs` untraced runs on seeds 1, 2, ..., then one traced run on
seed 1. For each end-to-end metric it reports the median and the
spread, the distance between the first and third quartile as a share
of the median, next to the metric's bound. The runs are steady when
every spread is under a third of its bound and no job failed.

A probe whose systems do not depend on the traced workload times the
same calls in every traced run (see layers.Probes). For each such probe
it reports the agreement of the traced runs, max over min minus one,
and lists those beyond PROBE_TOLERANCE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

PROBE_TOLERANCE = 0.25


def _last_json(args):
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"run.py {' '.join(args)} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def agreement(probe_runs):
    """max/min - 1 of each probe over the traced runs, for the probes
    that ran on the same systems in all of them."""
    runs = list(probe_runs.values())
    out = {}
    if len(runs) < 2:
        return out
    for name, home in runs[0][0].items():
        if all(inputs.get(name) == home for inputs, _ in runs):
            values = [metrics[name]["value"] for _, metrics in runs]
            out[name] = max(values) / min(values) - 1.0
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = str(spec["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(1, args.runs + 1)
    summary = {"run_seconds": spec["run_seconds"], "seeds": list(seeds),
               "workloads": {}}
    steady = True
    probe_runs = {}
    for workload in names:
        runs = []
        for seed in seeds:
            result = _last_json(["--workload", workload, "--seed", str(seed),
                                 "--seconds", seconds, "--trace", "0"])
            runs.append(result)
            print(workload, seed, {k: round(v["value"], 6)
                                   for k, v in result["metrics"].items()},
                  flush=True)
        traced = _last_json(["--workload", workload, "--seed", "1",
                             "--seconds", seconds, "--trace", "1"])
        with open(os.path.join(HERE, "out", f"result-{workload}-s1-trace1.json"),
                  encoding="utf-8") as handle:
            details = json.load(handle)
        entry = {"provenance": details["provenance"],
                 "trace_overhead_frac":
                     traced["metrics"]["trace.overhead_frac"]["value"],
                 "correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "end_to_end": {}, "per_layer": traced["metrics"]}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            entry["end_to_end"][name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": statistics.median(values), "spread": s,
                "bound": bound, "values": values}
            steady &= s < bound / 3.0 and entry["correct"]
            print(f"  {workload:14} {name:14} median "
                  f"{statistics.median(values):.6g} spread {s:.4f} "
                  f"(bound {bound})", flush=True)
        summary["workloads"][workload] = entry
        probe_runs[workload] = (details["probe_inputs"], traced["metrics"])
    summary["steady"] = steady
    summary["probe_tolerance"] = PROBE_TOLERANCE
    summary["probe_agreement"] = agreement(probe_runs)
    summary["probes_beyond_tolerance"] = sorted(
        name for name, a in summary["probe_agreement"].items()
        if a > PROBE_TOLERANCE)
    for name, a in sorted(summary["probe_agreement"].items()):
        print(f"  probe {name:44} agreement {a:.3f}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("steady" if steady else "NOT steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
