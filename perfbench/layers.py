"""Per-layer metrics from the traced pass, named `<module>.<function>.<stat>`.

Times are totals over the traced pass in ms (`self_ms` excludes child
spans); counts are exact and repeat run to run for a given seed.  Set-up
layers (scenario and corpus generation, training) are measured over the
traced set-up.  The bases are `bench.traced_windows` and
`optimizer.optimizer_step.calls`.
"""

from __future__ import annotations

import statistics

from modalsim.engine import EventKind

from metrics import Report
from spans import Table

# The end-to-end metrics in the JSON line with --trace 0; every workload has
# them.  The host's speed shifts by up to half for tens of seconds to minutes
# at a time, longer than a run, so the window figures are scaled to a
# reference host speed (see run.py); the raw ones are printed.  A run that
# straddles a shift has a two-humped window-time distribution: its median
# jumps between the humps, while the mean and p95 move smoothly.  So
# window_p50_ms is printed but not bounded.
END_TO_END = ("windows_per_ref_s", "window_p95_ref_ms", "setup_s", "peak_rss_mb")
# Printed and checked, but left out of the JSON: it exists only where
# engine.run is called.
COVERAGE = "engine.run.span_coverage_pct"

SPAN_STATS = (
    ("core.window_payload", ("calls", "rows", "self_ms")),
    ("rng.units", ("calls", "draws", "self_ms")),
    ("scenario_io.fingerprint", ("calls_per_window", "self_ms")),
    ("latency.unimodal_latency", ("calls", "self_ms")),
    ("engine.run", ("self_ms", "total_ms")),
    ("engine.aggregate_vector", ("calls", "self_ms")),
    ("engine.prediction_head", ("calls", "self_ms")),
    ("aggregation.alternating_shift", ("calls", "self_ms")),
    ("gating.probability", ("calls", "self_ms")),
    ("predictor.predict_batch", ("calls", "rows", "self_ms")),
    ("predictor.indicators", ("self_ms",)),
    ("optimizer.optimizer_step", ("calls", "total_ms")),
    ("optimizer.greedy_search", ("self_ms",)),
    ("optimizer.probe_indicators", ("total_ms",)),
    ("optimizer.brute_force", ("calls", "total_ms")),
    ("traceio.trace_text", ("self_ms",)),
    ("traceio.read_trace", ("total_ms",)),
    ("report.breakdown", ("total_ms",)),
)
COUNTED = (
    "core.check_assignment",
    "core.profile_lookup",
    "latency.end_to_end_latency",
    "engine.apply_resource_schedule",
    "predictor.encode",
)
SETUP_SPANS = (
    "workload.gen_scenario",
    "workload.gen_samples",
    "workload.predictor_dataset",
    "workload.gate_dataset",
    "predictor.train",
    "gating.gate_train",
)


def per_layer(setup_recorder, recorder, traced, e2e):
    t = Table(recorder)
    setup = Table(setup_recorder)
    r = Report()
    windows = len(traced.window_ms)
    r.add("bench.traced_windows", windows, "count", note="base of per-window figures", exact=True)

    for name, stats in SPAN_STATS:
        for stat in stats:
            if stat == "calls":
                r.add(f"{name}.calls", t.calls[name], "count", exact=True)
            elif stat in ("rows", "draws"):
                r.add(f"{name}.{stat}", t.amount[name], "count", exact=True)
            elif stat == "calls_per_window":
                r.add(f"{name}.calls_per_window", t.calls[name] / windows, "count", windows, exact=True)
            elif stat == "self_ms":
                r.add(f"{name}.self_ms", t.self_ms(name), "ms", t.calls[name])
            elif stat == "total_ms":
                r.add(f"{name}.total_ms", t.total_ms(name), "ms", t.calls[name])
    for name in COUNTED:
        r.add(f"{name}.calls", t.calls[name], "count", exact=True)
    for name in SETUP_SPANS:
        r.add(f"{name}.total_ms", setup.total_ms(name), "ms", setup.calls[name], "set-up")

    decisions = t.calls["optimizer.optimizer_step"]
    candidates = t.amount_under("predictor.predict_batch", "optimizer.optimizer_step")
    r.add("optimizer.candidates_per_decision", candidates / decisions if decisions else 0.0,
          "count", decisions, exact=True)
    _trace_counters(r, traced, windows)

    untraced = e2e.value("windows_per_s")
    traced_rate = windows / traced.busy_s
    r.add("bench.traced_windows_per_s", traced_rate, "1/s", windows)
    r.add("bench.trace_overhead_windows_per_s", untraced - traced_rate, "1/s", note="untraced - traced")
    r.add("bench.trace_overhead_pct", 100.0 * (untraced / traced_rate - 1.0), "%")
    r.add("bench.spans", len(recorder.spans), "count", exact=True)
    if t.calls["engine.run"]:
        r.add(COVERAGE, 100.0 * t.subtree_coverage("engine.run"), "%",
              t.calls["engine.run"], "self times under engine.run / engine.run total")
    return r


def _trace_counters(r, traced, windows):
    """Exact figures read from the traced pass's own traces."""
    events = evals = commits = aborted = 0
    waiting, peaks, skipped = [], [], 0
    for trace in traced.traces:
        events += len(trace.events)
        for ev in trace.events:
            if ev.kind is EventKind.CHECKPOINT_EVAL:
                evals += 1
            elif ev.kind is EventKind.SKIP_COMMITTED:
                commits += 1
            elif ev.kind is EventKind.ENCODE_END and ev.payload_dict().get("aborted"):
                aborted += 1
        waiting.append(trace.summary.waiting_us)
        peaks.extend(trace.summary.peak_buffered_units)
        skipped += trace.summary.skipped_unit_count
    per = 1 / windows if windows else 0.0
    r.add("engine.events_per_window", events * per, "count", windows, exact=True)
    r.add("engine.sim_waiting_us_mean", statistics.fmean(waiting) if waiting else 0.0, "us",
          len(waiting), exact=True)
    r.add("engine.peak_buffered_units_mean", statistics.fmean(peaks) if peaks else 0.0, "count",
          len(peaks), "per window and modality", exact=True)
    r.add("engine.encodes_aborted", aborted, "count", exact=True)
    r.add("gating.checkpoint_evals", evals, "count", exact=True)
    r.add("gating.commits", commits, "count", exact=True)
    r.add("gating.commit_ratio", commits / evals if evals else 0.0, "ratio", evals, exact=True)
    r.add("gating.units_skipped", skipped, "count", exact=True)
    r.add("traceio.trace_bytes_per_window", traced.trace_bytes * per, "B", windows, exact=True)
