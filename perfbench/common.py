"""Shared pieces of the benchmark: the metric tables, the report, host facts."""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from dataclasses import dataclass, field

# BLAS threads for every workload process; fixed, and never above nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROWS = 4  # capacities 100/75/50/25 % in every workload that plans

# End-to-end metrics, printed by every workload with --trace 0. Each
# workload maps them onto its own unit of work (see README.md).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms": "ms",
}

# Per-layer metrics, printed by every workload with --trace 1. A workload
# that never calls a function reports 0 for it.
PER_LAYER = {
    "netgraph.self_s": "s",
    "netgraph.run_forward.s": "s",
    **{f"netgraph.run_forward.row{k}.{m}": u for k in range(ROWS)
       for m, u in (("p50_ms", "ms"), ("macs", "count"),
                    ("weight_bytes", "bytes"), ("ns_per_mac", "ns"))},
    "autograd.self_s": "s",
    "autograd.backward.calls": "count",
    "autograd.backward.self_s": "s",
    "autograd.accumulate_importance_grads.s": "s",
    "autograd.sgd_step.s": "s",
    "autograd.Adam.step.s": "s",
    "finetune.self_s": "s",
    "finetune.train_single.self_s": "s",
    "finetune.finetune_joint.self_s": "s",
    "finetune.finetune_joint.val_acc_min": "ratio",
    "finetune.evaluate.s": "s",
    "finetune.evaluate_rows.s": "s",
    "finetune.evaluate_rows.samples": "count",
    "importance.self_s": "s",
    "importance.score_units.s": "s",
    "importance.permute_descending.s": "s",
    "importance.permute_grad_store.s": "s",
    "planner.self_s": "s",
    "planner.make_plan.s": "s",
    "planner.plan_bottom_up.s": "s",
    "planner.plan_top_down.s": "s",
    "planner.plan_depthwise.bu.s": "s",
    "planner.plan_depthwise.td.s": "s",
    "planner.solve_exact.calls": "count",
    "planner.items": "count",
    "nest.self_s": "s",
    "nest.load_bundle.s": "s",
    "nest.save_bundle.s": "s",
    "nest.recalibrate_bn.s": "s",
    "nest.activate.calls": "count",
    "nest.activate.p50_us": "us",
    "nest.activate.p99_us": "us",
    "nest.activate.weights_copied": "count",
    "nest.infer.self_ms": "ms",
    "tensor.self_s": "s",
    "tensor.elements_copied": "count",
    "cachesim.self_s": "s",
    "cachesim.trace_matmul.s": "s",
    "cachesim.simulate.s": "s",
    "cachesim.simulate.accesses": "count",
    "cachesim.simulate.accesses_per_s": "1/s",
    "bounds.self_s": "s",
    "bounds.verify_bounds.s": "s",
    "bounds.brute_opt.calls": "count",
    "bounds.brute_opt.s": "s",
    "bounds.violations": "count",
    "datasets.self_s": "s",
    "datasets.synth_blobs.s": "s",
    "datasets.batches.s": "s",
    "cli.self_s": "s",
    "cli.main.self_s": "s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_pct": "%",
}


def median(values):
    v = sorted(values)
    n = len(v)
    if n == 0:
        raise ValueError("median of no values")
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    v = sorted(values)
    k = max(0, min(len(v) - 1, -(-len(v) * q // 100) - 1))
    return v[int(k)]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Report:
    """What one workload run measured and which of its checks failed."""

    attempted: int = 0
    failed: int = 0
    named: dict = field(default_factory=dict)      # name -> (value, unit)
    end_to_end: dict = field(default_factory=dict)  # name -> value
    per_layer: dict = field(default_factory=dict)   # name -> value
    notes: list = field(default_factory=list)

    def op(self, ok=True, what="") -> bool:
        """Count one attempted operation; a False outcome counts as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")
        return ok

    def gate(self, ok, what) -> bool:
        """A correctness check on work already counted as attempted."""
        if not ok:
            self.failed = min(self.attempted, self.failed + 1)
            self.notes.append(f"FAILED: {what}")
        return ok

    def name(self, key, value, unit):
        self.named[key] = (value, unit)


def host_info(start_load) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # the config layout differs across numpy releases
        blas = "unknown"
    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "numba_imports": have_numba,
        "loadavg_start": list(start_load),
        "loadavg_end": list(os.getloadavg()),
    }


def emit(report: Report, host: dict, trace: bool, out=sys.stdout):
    """Human lines first, then the one-line JSON result as the last line."""
    print("host " + json.dumps(host, sort_keys=True), file=out)
    for note in report.notes:
        print(note, file=out)
    for key, (value, unit) in report.named.items():
        print(f"metric {key} {value:.6g} {unit}", file=out)
    table = PER_LAYER if trace else END_TO_END
    values = report.per_layer if trace else report.end_to_end
    metrics = {}
    for key, unit in table.items():
        value = float(values.get(key, 0.0))
        metrics[key] = {"value": value, "unit": unit}
        print(f"{'layer' if trace else 'e2e'} {key} {value:.6g} {unit}",
              file=out)
    result = {"correct": report.failed == 0, "attempted": report.attempted,
              "failed": report.failed, "metrics": metrics}
    print(json.dumps(result), file=out)
    out.flush()

