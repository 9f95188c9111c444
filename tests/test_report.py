"""Latency breakdown report: recomputable from raw traces."""

import csv
import dataclasses
import io

from modalsim import engine, report, traceio, workload
from modalsim.core import ConfigAssignment, ExecutionMode
from modalsim.workload import OracleGate


def rows_by_modality(rows, sample_id=0):
    return {r["modality"]: r for r in rows if r["sample_id"] == sample_id}


def test_breakdown_pipelined_no_skip():
    s = workload.gen_scenario("lrw-like", seed=3).without_skipping()
    sample = workload.gen_samples(s, 1, "easy", seed=0)[0]
    a = ConfigAssignment(((1, 1), (1, 1)))
    trace = engine.run(s, a, sample)
    rows = report.breakdown(trace)
    per = rows_by_modality(rows)
    # video (modality 0) is encoder bound at 25x44.8ms: no sensing stall
    assert per[0]["encode_us"] == 25 * 44_800
    assert per[0]["sensing_bound_us"] == 0
    assert per[0]["waiting_us"] == 0  # it is the slow modality
    # audio is sensing bound: stalls fill the window
    assert per[1]["encode_us"] == 16 * 8_000
    assert per[1]["sensing_bound_us"] == 1_000_000 - 16 * 8_000
    assert per[1]["waiting_us"] == trace.summary.waiting_us
    total = per["all"]
    assert total["waiting_us"] == trace.summary.waiting_us
    assert total["fusion_us"] == 12_000
    assert total["reported_latency_us"] == trace.summary.reported_latency_us


def test_breakdown_skip_savings_positive():
    s = workload.gen_scenario("lrw-like", seed=3)
    sample = workload.gen_samples(s, 1, "easy", seed=1)[0]
    assert sample.stable
    a = ConfigAssignment(((1, 1), (1, 1)))
    trace = engine.run(s, a, sample, gate=OracleGate(s, sample, a))
    assert trace.summary.skipped_unit_count > 0
    per = rows_by_modality(report.breakdown(trace))
    # no-skip aggregation would have started at 25 x 44.8ms = 1_120_000; the
    # commit happened when the fast modality finished at 1_004_800
    assert per[0]["skip_savings_us"] == 25 * 44_800 - 1_004_800 == 115_200
    assert per["all"]["skip_savings_us"] == per[0]["skip_savings_us"]


def test_csv_shape_and_parse():
    s = workload.gen_scenario("motivation-av", seed=0)
    samples = workload.gen_samples(s, 2, "easy", seed=0)
    traces = [engine.run(s, s.max_assignment(), x) for x in samples]
    text = report.to_csv(report.breakdown(traces))
    parsed = list(csv.DictReader(io.StringIO(text)))
    # two samples x (two modalities + total row)
    assert len(parsed) == 6
    assert {r["sample_id"] for r in parsed} == {"0", "1"}
    assert [r["modality"] for r in parsed if r["sample_id"] == "0"] == ["0", "1", "all"]


def test_breakdown_reads_the_same_facts_from_columns_and_from_events(tmp_path):
    # columnar traces (engine and reader) and the same events as a tuple
    # give one CSV: skip commits, cut non-blocking windows, a resource change
    s = workload.gen_scenario("lrw-like", seed=3)
    a = ConfigAssignment(((1, 1), (1, 1)))
    traces = []
    for sample in workload.gen_samples(s, 4, {"easy": 1.0, "hard": 1.0}, seed=2):
        traces.append(engine.run(s, a, sample, gate=OracleGate(s, sample, a)))
        switched = dataclasses.replace(
            s.without_skipping(),
            execution_mode=ExecutionMode.NON_BLOCKING,
            resource_schedule=((0, "high"), (s.window_us // 2, "low")),
        )
        traces.append(engine.run(switched, a, sample))
    assert any(t.summary.skipped_unit_count for t in traces)
    path = tmp_path / "t.jsonl"
    traceio.write_trace(traces, path)
    columnar = traces + traceio.read_trace(path)
    assert all(report._column_facts(t) == report._event_facts(t) for t in columnar)
    as_events = [dataclasses.replace(t, events=t.events) for t in columnar]
    assert all(report._column_facts(t) is None for t in as_events)
    assert report.to_csv(report.breakdown(columnar)) == report.to_csv(report.breakdown(as_events))
