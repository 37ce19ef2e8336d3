"""Spans around calls into the public functions of every nestslice module.

The benchmark never edits the program. Instead ``Tracer.active()`` swaps
each public function and public method of the traced modules for a
timing wrapper, and rebinds every name that other modules imported with
``from ... import`` (``cli`` holds its own references to ``make_plan`` and
``finetune_joint``, ``finetune`` to ``backward``, and the workload modules
to what they call), so that a call is timed wherever the caller looks the
name up. Leaving the context restores the originals.

Open spans sit on a stack, so each one's parent is the span below it.
Self time is a span's duration minus the time its child spans cover;
time in private helpers counts toward the nearest wrapped caller. A
closing span is folded into per-name totals (and, while a request
``tag`` is set, into that tag's durations) in memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

from common import percentile

PACKAGE = "nestslice"
MODULES = ("tensor", "netgraph", "autograd", "importance", "planner", "nest",
           "finetune", "cachesim", "bounds", "datasets", "cli")


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0  # outermost calls only, so recursion counts once
        self.self_s = 0.0
        self.durations = []


class Tracer:
    """Per-name span totals; ``tag`` labels the spans of one request."""

    def __init__(self):
        self.stats = {}
        self.tagged = {}  # (name, tag) -> durations
        self.tag = None
        self._stack = []  # [start, child_s] of the open spans, innermost last
        self._depth = {}
        self._patches = []
        self.elements_copied = 0  # tensor copy-counter delta while active

    # -- recording -------------------------------------------------------

    def _enter(self, name):
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([time.perf_counter(), 0.0])

    def _exit(self, name):
        end = time.perf_counter()
        start, child = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self._depth[name] -= 1
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        st.calls += 1
        st.self_s += dur - child
        if self._depth[name] == 0:
            st.total_s += dur
        st.durations.append(dur)
        if self.tag is not None:
            self.tagged.setdefault((name, self.tag), []).append(dur)

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    self._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(name)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name)
        return wrapper

    # -- patching --------------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, original) for every public callable."""
        out = []
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    out.append((f"{short}.{attr}", mod, attr, obj))
                elif inspect.isclass(obj):
                    for meth, fn in sorted(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            out.append((f"{short}.{attr}.{meth}", obj, meth,
                                        fn))
        return out

    @contextmanager
    def active(self):
        """Route calls through the wrappers for the duration of the block."""
        counter = importlib.import_module(f"{PACKAGE}.tensor").copy_counter
        wrapped = {}
        for name, owner, attr, fn in self._targets():
            w = self.wrap(name, fn)
            wrapped[id(fn)] = w
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, w)
        # every module that imported a traced name, the benchmark's own too
        for mod in list(sys.modules.values()):
            names = getattr(mod, "__dict__", None)
            if not isinstance(names, dict):
                continue
            for attr, obj in list(names.items()):
                w = wrapped.get(id(obj))
                if w is not None and getattr(mod, attr) is not w:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, w)
        before = counter()
        try:
            yield self
        finally:
            self.elements_copied += counter() - before
            while self._patches:
                owner, attr, fn = self._patches.pop()
                setattr(owner, attr, fn)

    # -- queries -----------------------------------------------------------

    def get(self, name) -> Stat:
        return self.stats.get(name, Stat())

    def module_self_s(self, short) -> float:
        prefix = short + "."
        return sum(st.self_s for name, st in self.stats.items()
                   if name.startswith(prefix))


def span_metrics(tr: Tracer) -> dict:
    """The per-layer metrics that follow from span totals alone."""
    out = {f"{m}.self_s": tr.module_self_s(m) for m in MODULES}
    total = {
        "netgraph.run_forward.s": "netgraph.run_forward",
        "autograd.accumulate_importance_grads.s":
            "autograd.accumulate_importance_grads",
        "autograd.sgd_step.s": "autograd.sgd_step",
        "autograd.Adam.step.s": "autograd.Adam.step",
        "finetune.evaluate.s": "finetune.evaluate",
        "finetune.evaluate_rows.s": "finetune.evaluate_rows",
        "importance.score_units.s": "importance.score_units",
        "importance.permute_descending.s": "importance.permute_descending",
        "importance.permute_grad_store.s": "importance.permute_grad_store",
        "planner.make_plan.s": "planner.make_plan",
        "planner.plan_bottom_up.s": "planner.plan_bottom_up",
        "planner.plan_top_down.s": "planner.plan_top_down",
        "nest.load_bundle.s": "nest.load_bundle",
        "nest.save_bundle.s": "nest.save_bundle",
        "nest.recalibrate_bn.s": "nest.NestedModel.recalibrate_bn",
        "cachesim.trace_matmul.s": "cachesim.trace_matmul",
        "cachesim.simulate.s": "cachesim.simulate",
        "bounds.verify_bounds.s": "bounds.verify_bounds",
        "bounds.brute_opt.s": "bounds.brute_opt",
        "datasets.synth_blobs.s": "datasets.synth_blobs",
        "datasets.batches.s": "datasets.Dataset.batches",
    }
    out.update({k: tr.get(v).total_s for k, v in total.items()})
    out.update({
        "autograd.backward.calls": tr.get("autograd.backward").calls,
        "autograd.backward.self_s": tr.get("autograd.backward").self_s,
        "finetune.train_single.self_s": tr.get("finetune.train_single").self_s,
        "finetune.finetune_joint.self_s":
            tr.get("finetune.finetune_joint").self_s,
        "planner.solve_exact.calls": tr.get("planner.solve_exact").calls,
        "bounds.brute_opt.calls": tr.get("bounds.brute_opt").calls,
        "cli.main.self_s": tr.get("cli.main").self_s,
        "tensor.elements_copied": tr.elements_copied,
    })
    for mode in ("bu", "td"):
        out[f"planner.plan_depthwise.{mode}.s"] = sum(
            tr.tagged.get(("planner.plan_depthwise", mode), []))
    act = tr.get("nest.NestedModel.activate")
    infer = tr.get("nest.NestedModel.infer")
    out.update({
        "nest.activate.calls": act.calls,
        "nest.activate.p50_us": 1e6 * _pct(act.durations, 50),
        "nest.activate.p99_us": 1e6 * _pct(act.durations, 99),
        "nest.infer.self_ms": 1e3 * infer.self_s / max(1, infer.calls),
    })
    return out


def _pct(durations, q):
    return percentile(durations, q) if durations else 0.0
