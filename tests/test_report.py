"""Latency breakdown report: recomputable from raw traces, and held to an
event-by-event reference on engine traces, their files and hand-edited
files."""

import csv
import dataclasses
import io

import pytest

import test_traceio
from builders import event_log
from modalsim import engine, report, traceio, workload
from modalsim.core import ConfigAssignment, ExecutionMode, IncompleteTrace
from modalsim.engine import EventKind
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


def event_facts(trace):
    """The breakdown's facts read event by event, the way the report read a
    trace before it read columns: the reference for `report._facts`."""
    per = {}
    fusion_start = None
    prediction = None
    for ev in trace.events:
        if ev.kind is EventKind.FUSION_START:
            fusion_start = ev.time_us
        elif ev.kind is EventKind.PREDICTION_EMITTED:
            prediction = ev.time_us
        if ev.modality is None:
            continue
        m = per.setdefault(ev.modality, report._new_modality())
        data = ev.payload_dict()
        try:
            if ev.kind is EventKind.UNIT_SENSED:
                if m["interval_us"] is None:
                    m["interval_us"] = data["sense_end_us"] - ev.time_us
            elif ev.kind is EventKind.ENCODE_START:
                if m["first_encode_start"] is None:
                    m["first_encode_start"] = ev.time_us
                m["encode_cost"] += data["encode_cost_us"]
                m["unit_encode_us"] = data["encode_cost_us"]
            elif ev.kind is EventKind.AGGREGATION_DONE:
                m["agg_started"] = data["started_us"]
                m["agg_done"] = ev.time_us
                m["agg_prefix"] = data["prefix"]
            elif ev.kind is EventKind.SKIP_COMMITTED:
                m["skipped"] = data["units_skipped"]
        except KeyError as exc:
            raise IncompleteTrace(
                f"sample {trace.sample_id}: {ev.kind.value} event lacks payload key {exc.args[0]!r}"
            ) from None
    return per, fusion_start, prediction


def reference_csv(traces, monkeypatch) -> str:
    with monkeypatch.context() as patched:
        patched.setattr(report, "_facts", event_facts)
        return report.to_csv(report.breakdown(traces))


def corpus():
    """Pipelined windows with skip commits, and every mode with a resource
    change mid-window (non-blocking windows cut encodes short)."""
    s = workload.gen_scenario("lrw-like", seed=3)
    a = ConfigAssignment(((1, 1), (1, 1)))
    traces = []
    for sample in workload.gen_samples(s, 4, {"easy": 1.0, "hard": 1.0}, seed=2):
        traces.append(engine.run(s, a, sample, gate=OracleGate(s, sample, a)))
        for mode in ExecutionMode:
            switched = dataclasses.replace(
                s.without_skipping(),
                execution_mode=mode,
                resource_schedule=((0, "high"), (s.window_us // 2, "low")),
            )
            traces.append(engine.run(switched, a, sample))
    return traces


def test_breakdown_reads_the_same_facts_from_columns_and_from_events(tmp_path):
    # engine and reader traces, and the same events passed as `Event`s,
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
    as_events = [dataclasses.replace(t, log=event_log(t.events)) for t in columnar]
    assert report.to_csv(report.breakdown(columnar)) == report.to_csv(report.breakdown(as_events))


def test_breakdown_matches_the_event_by_event_reference(tmp_path, monkeypatch):
    traces = corpus()
    assert any(t.summary.skipped_unit_count for t in traces)
    assert {t.mode for t in traces} == set(ExecutionMode)
    assert all(t.of_kind(EventKind.RESOURCE_CHANGE) for t in traces[1:4])
    path = tmp_path / "t.jsonl"
    traceio.write_trace(traces, path)
    for batch in (traces, traceio.read_trace(path)):
        assert report.to_csv(report.breakdown(batch)) == reference_csv(batch, monkeypatch)


def dictwriter_csv(rows) -> str:
    """The CSV as `csv.DictWriter` writes it: the reference for `report.csv_lines`."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=report.CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def test_csv_lines_are_what_dictwriter_writes():
    # every mode, skip savings, and the empty cells of both row kinds
    rows = report.breakdown(corpus())
    assert {r["mode"] for r in rows} == {m.value for m in ExecutionMode}
    assert any(r["skip_savings_us"] for r in rows)
    assert {r["sensing_bound_us"] == "" for r in rows} == {r["reported_latency_us"] == "" for r in rows} == {True, False}
    lines = list(report.csv_lines(iter(rows)))
    assert len(lines) == 1 + len(rows) and all(line.find("\n") == len(line) - 1 for line in lines)
    assert "".join(lines) == report.to_csv(rows) == dictwriter_csv(rows)


# the kinds the breakdown reads, each with the payload keys it reads from an
# event with a modality
READS = {
    EventKind.UNIT_SENSED: ("sense_end_us",),
    EventKind.ENCODE_START: ("encode_cost_us",),
    EventKind.AGGREGATION_DONE: ("prefix", "started_us"),
    EventKind.SKIP_COMMITTED: ("units_skipped",),
    EventKind.FUSION_START: (),
    EventKind.PREDICTION_EMITTED: (),
}


def reads_only_integers(traces) -> bool:
    """Whether every event's modality is an int or None, and every time and
    payload value the breakdown reads is an int (a bool is not)."""
    for ev in (ev for t in traces for ev in t.events):
        if ev.modality is not None and type(ev.modality) is not int:
            return False
        keys = READS.get(ev.kind)
        if keys is None or (keys and ev.modality is None):
            continue
        if any(type(v) is not int for v in [ev.time_us] + [v for k, v in ev.payload if k in keys]):
            return False
    return True


NOT_INT_TIMES = {case: test_traceio.HOSTILE_RECORDS[case] for case in ("t-float", "t-bool")}
HAND_EDITS = {**test_traceio.PER_RECORD_EDITS, **test_traceio.OFF_SCHEMA_EDITS, **NOT_INT_TIMES}
READABLE = {"data-keys-out-of-order", "checkpoint-keys-out-of-order", "record-with-an-extra-key"}


@pytest.mark.parametrize("case", sorted(HAND_EDITS))
def test_breakdown_of_a_hand_edited_file_matches_the_reference_or_fails_typed(case, tmp_path, monkeypatch):
    # every value the breakdown reads from a file is an int: the reader
    # refuses an event off the schema, at its line
    path = test_traceio._hand_edited(tmp_path, HAND_EDITS[case])
    if case not in READABLE:
        with pytest.raises(traceio.CorruptLine) as err:
            traceio.read_trace(path)
        assert test_traceio._off_the_schema(path, err.value.line_number)
        return
    traces = traceio.read_trace(path)
    assert reads_only_integers(traces)
    assert report.to_csv(report.breakdown(traces)) == reference_csv(traces, monkeypatch)
