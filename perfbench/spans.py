"""Span recorder for the traced benchmark run, installed from outside the program.

Tracing replaces the names that callers look up (module globals such as
`modalsim.engine.fingerprint`, class attributes such as
`Sample.window_payload`) with thin wrappers, and puts the originals back when
uninstalled.  Nothing under `src/` is edited, so the program's outputs stay
byte-identical whether tracing is on or off.

A span records (name, start ns, end ns, parent span index, window id,
amount).  Functions called once per unit or per candidate are wrapped as
counters only, so their wrappers do not swamp the spans they sit inside.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter

SPAN = "span"
COUNT = "count"

# (metric prefix, module, attribute path, kind, amount extractor).  The
# extractor maps a call's (args, kwargs) to the work it was asked to do.
TARGETS = (
    ("core.window_payload", "modalsim.core", "Sample.window_payload", SPAN,
     lambda a, k: a[2] if len(a) > 2 else k["units_per_window"]),
    ("core.check_assignment", "modalsim.core", "check_assignment", COUNT, None),
    ("core.profile_lookup", "modalsim.core", "LatencyProfile.lookup", COUNT, None),
    ("rng.units", "modalsim.rng", "Stream.units", SPAN,
     lambda a, k: a[1] if len(a) > 1 else k["count"]),
    ("scenario_io.fingerprint", "modalsim.scenario_io", "fingerprint", SPAN, None),
    ("latency.unimodal_latency", "modalsim.latency", "unimodal_latency", SPAN, None),
    ("latency.end_to_end_latency", "modalsim.latency", "end_to_end_latency", COUNT, None),
    ("engine.run", "modalsim.engine", "run", SPAN, None),
    ("engine.aggregate_vector", "modalsim.engine", "aggregate_vector", SPAN, None),
    ("engine.prediction_head", "modalsim.engine", "prediction_head", SPAN, None),
    ("engine.apply_resource_schedule", "modalsim.engine", "apply_resource_schedule", COUNT, None),
    ("aggregation.alternating_shift", "modalsim.aggregation", "alternating_shift", SPAN, None),
    ("gating.probability", "modalsim.gating", "GateModel.probability", SPAN, None),
    ("gating.gate_train", "modalsim.gating", "gate_train", SPAN, None),
    ("predictor.predict_batch", "modalsim.predictor", "predict_batch", SPAN,
     lambda a, k: len(a[2] if len(a) > 2 else k["assignments"])),
    ("predictor.encode", "modalsim.predictor", "EncodingSpec.encode", COUNT, None),
    ("predictor.indicators", "modalsim.predictor", "indicators", SPAN, None),
    ("predictor.train", "modalsim.predictor", "train", SPAN, None),
    ("optimizer.optimizer_step", "modalsim.optimizer", "optimizer_step", SPAN, None),
    ("optimizer.greedy_search", "modalsim.optimizer", "greedy_search", SPAN, None),
    ("optimizer.probe_indicators", "modalsim.optimizer", "probe_indicators", SPAN, None),
    ("optimizer.brute_force", "modalsim.optimizer", "brute_force", SPAN, None),
    ("workload.gen_scenario", "modalsim.workload", "gen_scenario", SPAN, None),
    ("workload.gen_samples", "modalsim.workload", "gen_samples", SPAN, None),
    ("workload.predictor_dataset", "modalsim.workload", "predictor_dataset", SPAN, None),
    ("workload.gate_dataset", "modalsim.workload", "gate_dataset", SPAN, None),
    ("traceio.trace_text", "modalsim.traceio", "trace_text", SPAN, None),
    ("traceio.write_trace", "modalsim.traceio", "write_trace", SPAN, None),
    ("traceio.read_trace", "modalsim.traceio", "read_trace", SPAN, None),
    ("report.breakdown", "modalsim.report", "breakdown", SPAN, None),
)

# span record fields
NAME, START, END, PARENT, WINDOW, AMOUNT = range(6)


class Recorder:
    """In-memory spans and counts; one per traced phase."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.window = None  # id the benchmark loop assigns to the current window

    def span_wrapper(self, name, fn, amount):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.window,
                   amount(args, kwargs) if amount else 0]
            spans.append(rec)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = clock()

        return wrapper

    def count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


class Tracer:
    """Installs a recorder's wrappers over every binding of each target."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.bindings = []  # (owner, attribute, original, wrapper)
        for name, module, path, kind, amount in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = (
                recorder.span_wrapper(name, original, amount)
                if kind == SPAN
                else recorder.count_wrapper(name, original)
            )
            if outer:
                self.bindings.append((owner, attr, original, wrapper))
            else:
                # every module that imported the function holds its own name
                for mod in _package_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self.bindings.append((mod, key, original, wrapper))
        self.installed = False

    def install(self):
        for owner, attr, _, wrapper in self.bindings:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self):
        for owner, attr, original, _ in self.bindings:
            setattr(owner, attr, original)
        self.installed = False

    @contextlib.contextmanager
    def suspended(self):
        """Run benchmark-side work (checks, corpus generation) untraced."""
        was = self.installed
        if was:
            self.uninstall()
        try:
            yield
        finally:
            if was:
                self.install()


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "modalsim" or n.startswith("modalsim.")]


class Table:
    """Per-name aggregates of one recorder: calls, amount, total and self ns."""

    def __init__(self, recorder: Recorder):
        spans = recorder.spans
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_ns[rec[PARENT]] += rec[END] - rec[START]
        self.calls: Counter = Counter(recorder.counts)
        self.amount: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.self_of = [rec[END] - rec[START] - child_ns[i] for i, rec in enumerate(spans)]
        for i, rec in enumerate(spans):
            name = rec[NAME]
            self.calls[name] += 1
            self.amount[name] += rec[AMOUNT]
            self.total_ns[name] += rec[END] - rec[START]
            self.self_ns[name] += self.self_of[i]
        self.spans = spans

    def total_ms(self, name) -> float:
        return self.total_ns[name] / 1e6

    def self_ms(self, name) -> float:
        return self.self_ns[name] / 1e6

    def nearest(self, index: int, name: str) -> int:
        """Index of the closest ancestor-or-self span called `name`, or -1."""
        while index >= 0 and self.spans[index][NAME] != name:
            index = self.spans[index][PARENT]
        return index

    def amount_under(self, name: str, ancestor: str) -> int:
        return sum(
            rec[AMOUNT]
            for rec in self.spans
            if rec[NAME] == name and self.nearest(rec[PARENT], ancestor) >= 0
        )

    def subtree_coverage(self, root: str) -> float:
        """(root self + descendants' self) / root total, summed over `root` spans."""
        covered = 0
        for i, rec in enumerate(self.spans):
            if self.nearest(i, root) >= 0:
                covered += self.self_of[i]
        total = self.total_ns[root]
        return covered / total if total else float("nan")


def write_spans(recorder: Recorder, path) -> None:
    """Side file: one CSV row per span, in start order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_ns,end_ns,parent,window,amount\n")
        for i, rec in enumerate(recorder.spans):
            window = "" if rec[WINDOW] is None else rec[WINDOW]
            fh.write(f"{i},{rec[NAME]},{rec[START]},{rec[END]},{rec[PARENT]},{window},{rec[AMOUNT]}\n")
