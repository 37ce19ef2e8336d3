"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench/tests -q

Runs every workload untraced and traced, and checks that the result line
carries exactly the metrics BENCHMARK.json names, with their units, and
that the correctness gates run and can fail.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import analysis  # noqa: E402
import convert  # noqa: E402
import serve  # noqa: E402
from common import Report  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
           workload, "--seed", "5", "--seconds", "0.5", "--trace",
           str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    assert proc.returncode == 0
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_names_every_metric(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in table]
    for m in table:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)
    if not trace:
        for m in table:
            assert result["metrics"][m["name"]]["value"] > 0
    assert any(line.startswith("host ") for line in lines)
    assert "metric fail_ratio 0 ratio" in lines


def test_analysis_gate_rejects_a_changed_reference():
    with open(analysis.REFERENCE) as fh:
        ref = json.load(fh)
    inst = analysis.setup()
    work = analysis.units(inst, 0, "tiny")
    assert len({name for _, name, _, _ in work}) == len(work)
    assert sum(floor for _, _, _, floor in work) == 5
    out = analysis.one_pass(work, range(len(work)))
    report = Report()
    analysis._check(out, inst, ref, report)
    # six plans, eight sweep units of two rows each, every bound report
    assert report.failed == 0
    reports = sum(len(v) for v in out["bounds"].values())
    assert report.attempted == 6 + 8 + 16 + reports
    key = analysis.sweep_key(out["sweep"]["256x64/e4/s0.25"][0])
    ref["sweep"][key][1] += 1
    ref["plans"]["S.depthwise.td"][3][0] -= 1
    report = Report()
    analysis._check(out, inst, ref, report)
    assert report.failed == 2


def test_serve_gates_reject_wrong_outputs(tmp_path):
    bundle = str(tmp_path / "bundle")
    serve.build_bundle(5, "tiny", bundle)
    model, (probes, _), _ = serve._setup(5, "tiny", bundle)
    rows = model.plan.n_rows
    report = Report()
    serve._oracle_gates(model, probes, report)
    assert report.failed == 0 and report.attempted == rows

    model.plan.capacities[-1] = 1  # below the last row's MACs
    report = Report()
    serve._oracle_gates(model, probes, report)
    assert report.failed == 1

    infer = model.infer

    def shifted(x, count_macs=False):
        logits, macs = infer(x, count_macs=True)
        return (logits + 1e-3, macs) if count_macs else logits + 1e-3

    model.infer = shifted
    report = Report()
    serve._oracle_gates(model, probes, report)
    assert report.failed == rows


def test_convert_gates_reject_a_missing_bundle(tmp_path):
    report = Report()
    report.op()  # the stage whose output is inspected
    accs, _ = convert._inspect(str(tmp_path), None, report)
    assert accs is None and report.failed == 1
    assert convert._digest(str(tmp_path / "bundle")) is None
