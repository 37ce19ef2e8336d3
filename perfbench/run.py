"""Benchmark entry point: one workload per process, or all of them.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --workload all --trace 1  # per-module spans

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures with tracing off and ends with the end-to-end
metrics; ``--trace 1`` repeats the measured work once more with spans on
and ends with the per-layer metrics and the tracing overhead. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys

from common import (BLAS_ENV, BLAS_THREADS, Report, emit, host_info, median,
                    peak_rss_mb)
from tracer import Tracer, span_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("convert", "serve", "analysis")
IMPORT_REPEATS = 5
# the twelve named end-to-end metrics, summarised by --workload all
SUMMARY = {
    "all": ("setup_s", "peak_rss_mb", "fail_ratio"),
    "convert": ("convert_s", "row_acc_min"),
    "serve": ("b1_p50_ms", "b1_p99_ms", "small_row_speedup", "eval_sps"),
    "analysis": ("plan_s", "cache_sweep_s", "bounds_s"),
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="minimum length of the measured phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for the smoke test")
    return ap.parse_args(argv)


def _import_s(workload) -> float:
    """Median time a fresh interpreter takes to import the workload."""
    code = (f"import sys, time; t = time.perf_counter(); "
            f"sys.path[:0] = [{HERE!r}, {SRC!r}]; import {workload}; "
            f"print(time.perf_counter() - t)")
    return median([float(subprocess.run(
        [sys.executable, "-c", code], check=True, stdout=subprocess.PIPE,
        text=True).stdout) for _ in range(IMPORT_REPEATS)])


def run_one(args) -> int:
    for var in BLAS_ENV:  # before numpy is imported, here and in children
        os.environ[var] = str(BLAS_THREADS)
    load = os.getloadavg()
    sys.path.insert(0, SRC)
    workload = importlib.import_module(args.workload)
    if not importlib.import_module("nestslice").__file__.startswith(SRC):
        sys.exit("nestslice must be imported from this checkout's src/")
    import_s = _import_s(args.workload)
    report = Report()
    tracer = Tracer() if args.trace else None
    work_dir = os.path.join(ROOT, ".perfbench_work",
                            f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        workload.run(args, report, work_dir, import_s, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:  # another run still uses it
            pass
    rss = peak_rss_mb()
    report.name("peak_rss_mb", rss, "MB")
    report.name("fail_ratio", report.failed / max(1, report.attempted),
                "ratio")
    report.end_to_end["peak_rss_mb"] = rss
    if tracer is not None:
        layers = span_metrics(tracer)
        layers.update(report.per_layer)
        untraced, traced = layers["trace.untraced_s"], layers["trace.traced_s"]
        layers["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        report.per_layer = layers
    emit(report, host_info(load), bool(args.trace))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then the twelve named metrics."""
    named, failed, attempted = {}, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        failed += result["failed"]
        attempted += result["attempted"]
        for line in lines:
            if line.startswith("metric "):
                _, key, value, unit = line.split()
                named[(name, key)] = (float(value), unit)
    print("== summary")
    for group, keys in SUMMARY.items():
        for name in (WORKLOADS if group == "all" else (group,)):
            for key in keys:
                value, unit = named[(name, key)]
                print(f"{name:8s} {key:18s} {value:12.6g} {unit}")
    metrics = {f"{w}.{k}": {"value": v, "unit": u}
               for (w, k), (v, u) in named.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
