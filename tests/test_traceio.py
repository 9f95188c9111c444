"""Trace file round-trips, integrity checks, corruption reporting, and the
reader against the line-at-a-time reader it replaced."""

import gc
import hashlib
import io
import json
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import test_trace_bytes
from builders import sim_trace
from modalsim import engine, traceio, workload
from modalsim.core import ConfigAssignment, ExecutionMode
from modalsim.engine import Event, EventColumns, EventKind, SimTrace, TraceSummary
from modalsim.optimizer import OptimizerDecision
from modalsim.traceio import CorruptLine, SchemaVersionMismatch, TraceIntegrityError
from modalsim.workload import OracleGate


def real_trace(seed=0, checkpoints=(0.5,)):
    s = workload.gen_scenario("lrw-like", seed=3)
    if not checkpoints:
        s = s.without_skipping()
    sample = workload.gen_samples(s, 1, "hard", seed=seed)[0]
    a = ConfigAssignment(((1, 1), (1, 1)))
    gate = OracleGate(s, sample, a) if checkpoints else None
    return engine.run(s, a, sample, gate=gate)


def test_event_is_an_immutable_tuple_record_that_reads_back_equal(tmp_path):
    ev = Event(time_us=5, kind=EventKind.ENCODE_END, modality=1, unit=2)
    assert ev == Event(5, EventKind.ENCODE_END, 1, 2, ()) == (5, EventKind.ENCODE_END, 1, 2, ())
    assert (ev.payload, ev.payload_dict()) == ((), {})
    with pytest.raises(AttributeError):
        ev.time_us = 6

    s = workload.gen_scenario("lrw-like", seed=0).without_skipping()
    sample = workload.gen_samples(s, 1, "easy", seed=0)[0]
    trace = engine.run(s, s.max_assignment(), sample)
    first_encode = next(e for e in trace.events if e.kind is EventKind.ENCODE_START)
    assert repr(first_encode) == (
        "Event(time_us=0, kind=<EventKind.ENCODE_START: 'encode_start'>, modality=0, unit=0, "
        "payload=(('encode_cost_us', 64000), ('resource', 'high')))"
    )
    path = tmp_path / "t.jsonl"
    traceio.write_trace(trace, path)
    (back,) = traceio.read_trace(path)
    assert back.events == trace.events
    assert [hash(e) for e in back.events] == [hash(e) for e in trace.events]
    assert all(type(e) is Event for e in back.events)


def test_round_trip_single(tmp_path):
    trace = real_trace()
    path = tmp_path / "t.jsonl"
    traceio.write_trace(trace, path)
    assert traceio.read_trace(path) == [trace]


def test_round_trip_multiple_byte_stable(tmp_path):
    traces = [real_trace(seed=i) for i in range(3)]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    traceio.write_trace(traces, p1)
    back = traceio.read_trace(p1)
    assert back == traces
    traceio.write_trace(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_event_trace_round_trips(tmp_path):
    trace = sim_trace(
        fingerprint="0" * 64,
        sample_id=0,
        mode=ExecutionMode.PIPELINED,
        assignment=ConfigAssignment(((0, 0),)),
        window_us=1000,
        events=(),
        summary=TraceSummary(0, 0, (0,), 0),
    )
    path = tmp_path / "empty.jsonl"
    traceio.write_trace(trace, path)
    assert traceio.read_trace(path) == [trace]


def test_large_fuzzed_trace_round_trips(tmp_path):
    from modalsim import rng

    s = rng.stream(0, "fuzz")
    draw = {
        int: lambda i: int(s.u64(i) % 7) - 3,
        float: lambda i: s.unit(i),
        bool: lambda i: bool(s.u64(i) % 2),
        str: lambda i: f"r{s.u64(i) % 5}",
        "pairs": lambda i: ((1, 2),) * (1 + i % 4),
    }
    events = []
    t = 0
    for i in range(100_000):
        t += s.u64(3 * i) % 50
        kind, ids, types = test_trace_bytes.SCHEMA[s.u64(3 * i + 1) % len(test_trace_bytes.SCHEMA)]
        m, u = int(s.u64(3 * i + 2) % 3), i % 40
        payload = tuple((key, draw[value_type](i)) for key, value_type in types.items())
        events.append(Event(t, EventKind(kind), m if ids > 0 else None, u if ids > 1 else None, payload))
    trace = sim_trace(
        fingerprint="f" * 64,
        sample_id=7,
        mode=ExecutionMode.BLOCKING,
        assignment=ConfigAssignment(((1, 2), (0, 1))),
        window_us=10**6,
        events=tuple(events),
        summary=TraceSummary(123, 45, (6, 7), 8),
    )
    assert trace.events == tuple(events)
    path = tmp_path / "big.jsonl"
    traceio.write_trace(trace, path)
    assert traceio.read_trace(path) == [trace]


def test_tampered_fingerprint_detected(tmp_path):
    trace = real_trace()
    path = tmp_path / "t.jsonl"
    traceio.write_trace(trace, path)
    text = path.read_text()
    tampered = text.replace(trace.fingerprint, "deadbeef" * 8, 1)
    assert tampered != text
    path.write_text(tampered)
    with pytest.raises(SchemaVersionMismatch):
        traceio.read_trace(path)


def test_tampered_event_detected(tmp_path):
    trace = real_trace()
    path = tmp_path / "t.jsonl"
    traceio.write_trace(trace, path)
    lines = path.read_text().splitlines()
    lines[5] = lines[5].replace('"t":', '"t": 1') if '"t":' in lines[5] else lines[5] + " "
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises((TraceIntegrityError, CorruptLine)):
        traceio.read_trace(path)


def test_corrupt_line_reports_line_number(tmp_path):
    trace = real_trace()
    path = tmp_path / "t.jsonl"
    traceio.write_trace(trace, path)
    lines = path.read_text().splitlines()
    lines[2] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptLine) as err:
        traceio.read_trace(path)
    assert err.value.line_number == 3


@pytest.mark.parametrize("end", [b"\n", b"\r\n"])
def test_a_byte_that_is_not_utf8_is_named_at_its_line(tmp_path, end):
    path = tmp_path / "t.jsonl"
    traceio.write_trace(real_trace(), path)
    lines = path.read_bytes().splitlines()
    lines[2] = lines[2].replace(b'"record"', b'"rec\xffrd"')
    path.write_bytes(end.join(lines) + end)
    with pytest.raises(CorruptLine, match="^line 3: not UTF-8$") as err:
        traceio.read_trace(path)
    assert err.value.line_number == 3


def test_schema_version_mismatch(tmp_path):
    trace = real_trace()
    path = tmp_path / "t.jsonl"
    traceio.write_trace(trace, path)
    text = path.read_text().replace('"schema_version":1', '"schema_version":99')
    # recompute the checksum so only the version differs
    import hashlib
    import json

    lines = text.splitlines()[:-1]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    lines.append(json.dumps({"record": "checksum", "sha256": digest}, sort_keys=True, separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaVersionMismatch):
        traceio.read_trace(path)


def test_golden_trace_pinned():
    # frozen end-to-end fingerprint: any change to event semantics, payloads,
    # ordering, or the file format shows up here first
    import hashlib

    from modalsim import scenario_io

    s = workload.gen_scenario("motivation-av", seed=0)
    assert (
        scenario_io.fingerprint(s)
        == "7d9b6ea99e5623b22d725876145b15cc5671ce96566dd86d1a5f737d1e466ffa"
    )
    sample = workload.gen_samples(s, 1, "easy", seed=0)[0]
    trace = engine.run(s, s.max_assignment(), sample)
    digest = hashlib.sha256(traceio.trace_text(trace).encode()).hexdigest()
    assert digest == "280737b7f574b3e6935e526409d4b37e24dd8f7de5ae3768e8905e44b3fac80e"


def test_missing_checksum_detected(tmp_path):
    trace = real_trace()
    path = tmp_path / "t.jsonl"
    traceio.write_trace(trace, path)
    lines = path.read_text().splitlines()[:-1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceIntegrityError):
        traceio.read_trace(path)


# --- the reader against the line-at-a-time reader it replaced --------------

def reference_log(events) -> EventColumns:
    """`events` laid out a row at a time by the engine's own row writer
    (`engine._row`, `engine.column`), and not by `traceio._columns`, the
    reader's layout under test."""
    rows = [engine._row(t, kind, m, u, **dict(payload)) for t, kind, m, u, payload in events]
    columns = zip(*rows) if rows else [()] * len(engine.COLUMNS)
    return EventColumns(*(engine.column(c, dtype) for c, dtype in zip(columns, engine.COLUMNS.values())))


def line_reader(path):
    """The reader before the one-parse rewrite, kept as a reference: one
    `json.loads` per line, header fields read when the summary arrives, and
    each trace's events laid out by `reference_log`."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise SchemaVersionMismatch("empty trace file")
    records = []
    for i, line in enumerate(lines, start=1):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise CorruptLine(i, f"invalid JSON ({exc.msg})") from None
        if not isinstance(records[-1], dict) or "record" not in records[-1]:
            raise CorruptLine(i, "not a trace record")
    if records[-1]["record"] != "checksum":
        raise TraceIntegrityError("missing checksum record")
    expected = hashlib.sha256("\n".join(lines[:-1]).encode("utf-8")).hexdigest()
    if records[-1].get("sha256") != expected:
        raise TraceIntegrityError("trace file contents do not match their checksum")
    traces, header, events = [], None, []
    for i, rec in enumerate(records[:-1], start=1):
        kind = rec["record"]
        if kind == "header":
            if header is not None:
                raise CorruptLine(i, "header before previous trace's summary")
            if rec.get("schema_version") != traceio.TRACE_SCHEMA_VERSION:
                raise SchemaVersionMismatch("unsupported trace schema version")
            header, events = rec, []
        elif kind == "event":
            if header is None:
                raise CorruptLine(i, "event outside a trace block")
            try:
                events.append(
                    Event(
                        time_us=int(rec["t"]),
                        kind=EventKind(rec["kind"]),
                        modality=rec["m"],
                        unit=rec["u"],
                        payload=tuple(sorted((k, traceio._detuple(v)) for k, v in rec["data"].items())),
                    )
                )
            except (KeyError, ValueError) as exc:
                raise CorruptLine(i, f"bad event: {exc}") from None
        elif kind == "summary":
            if header is None:
                raise CorruptLine(i, "summary outside a trace block")
            traces.append(
                SimTrace(
                    fingerprint=header["fingerprint"],
                    sample_id=header["sample_id"],
                    mode=ExecutionMode(header["mode"]),
                    assignment=ConfigAssignment(tuple(tuple(p) for p in header["assignment"])),
                    window_us=header["window_us"],
                    log=reference_log(events),
                    summary=TraceSummary(
                        reported_latency_us=rec["reported_latency_us"],
                        waiting_us=rec["waiting_us"],
                        peak_buffered_units=tuple(rec["peak_buffered_units"]),
                        skipped_unit_count=rec["skipped_unit_count"],
                    ),
                )
            )
            header = None
        else:
            raise CorruptLine(i, f"unknown record type {kind!r}")
    if header is not None:
        raise SchemaVersionMismatch("trace file ends mid-block")
    return traces


# exceptions the line reader let escape on records of the wrong type or shape
LINE_READER_CRASHES = (TypeError, AttributeError, KeyError, ValueError, OverflowError)


def outcome(reader, path):
    try:
        return reader(path)
    except Exception as exc:
        return type(exc), getattr(exc, "line_number", None)


def _header_the_line_reader_crashes_on(path, line_number) -> bool:
    rec = json.loads(Path(path).read_text(encoding="utf-8").splitlines()[line_number - 1])
    try:
        rec["fingerprint"], rec["sample_id"], rec["window_us"]
        ExecutionMode(rec["mode"])
        ConfigAssignment(tuple(tuple(p) for p in rec["assignment"]))
    except LINE_READER_CRASHES:
        return rec["record"] == "header"
    return False


def _field_of_the_wrong_type(path, line_number) -> bool:
    """True when the record on the line has a field that the line reader
    takes as it comes, or converts, but that is not of the type the reader
    requires: an int event time; ints in a header or summary, with a list
    of ints for the peaks and int pairs for the assignment; and a str
    fingerprint."""
    rec = json.loads(Path(path).read_text(encoding="utf-8").splitlines()[line_number - 1])
    try:
        if rec["record"] == "event":
            return type(rec["t"]) is not int
        if rec["record"] == "header":
            pairs = [tuple(p) for p in rec["assignment"]]
            ints = [rec["sample_id"], rec["window_us"], *(v for p in pairs for v in p)]
            wrong = type(rec["fingerprint"]) is not str or any(len(p) != 2 for p in pairs)
        elif rec["record"] == "summary":
            peaks = rec["peak_buffered_units"]
            ints = [rec["reported_latency_us"], rec["waiting_us"], rec["skipped_unit_count"], *peaks]
            wrong = type(peaks) is not list
        else:
            return False
    except (KeyError, TypeError):
        return False
    return wrong or any(type(v) is not int for v in ints)


def _off_the_schema(path, line_number) -> bool:
    """True when the record on the line is an event the engine never
    writes, by the schema `test_trace_bytes.SCHEMA` writes out."""
    rec = json.loads(Path(path).read_text(encoding="utf-8").splitlines()[line_number - 1])
    return type(rec) is dict and rec["record"] == "event" and not test_trace_bytes.on_schema(rec)


def assert_same_outcome(path):
    old, new = outcome(line_reader, path), outcome(traceio.read_trace, path)
    if new == old:
        return
    # the intended differences: a record of the wrong shape or type is a
    # CorruptLine where the line reader crashed, or took a field of the
    # wrong type and so failed later or not at all; a header is checked at
    # its own line rather than when its summary arrives; and an event off
    # the engine's schema is a CorruptLine at its line
    assert new[0] is CorruptLine
    if _field_of_the_wrong_type(path, new[1]) or _off_the_schema(path, new[1]):
        assert isinstance(old, list) or old[1] is None or old[1] > new[1]
    else:
        assert old[0] in LINE_READER_CRASHES or _header_the_line_reader_crashes_on(path, new[1])


def _base_lines():
    # two traces, one with a config switch (a list payload) and a skip commit
    s = workload.gen_scenario("lrw-like", seed=3)
    sample = workload.gen_samples(s, 1, "hard", seed=0)[0]
    a = ConfigAssignment(((1, 1), (1, 1)))
    decision = OptimizerDecision(a, score=0.0, decision_latency_us=0)
    traces = [
        engine.run(s, a, sample, gate=OracleGate(s, sample, a), config_decision=decision),
        real_trace(seed=1),
    ]
    return traceio.trace_text(traces).splitlines()


BASE_LINES = _base_lines()


def with_checksum(lines):
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return lines + [traceio._dump({"record": "checksum", "sha256": digest})]


def mutations():
    lines = list(BASE_LINES)
    body = lines[:-1]
    n = len(lines)
    text = "\n".join(lines) + "\n"
    yield "intact", text
    for cut in (1, 17, len(text) // 2, len(text) - len(lines[-1]) - 1, len(text) - 2):
        yield f"truncated-{cut}", text[:cut]
    for k in (0, 1, n // 2, n - 2, n - 1):
        for bad in ("{not json", "[1, 2]", "5", '"x"', "{}", '{"t": 1}', "", '{"record":"x"},{"record":"y"}'):
            yield f"line-{k}-{bad}", "\n".join(lines[:k] + [bad] + lines[k + 1 :]) + "\n"
            yield f"line-{k}-{bad}-resummed", "\n".join(with_checksum(body[:k] + [bad] + body[k + 1 :])) + "\n"
    yield "crlf", "\r\n".join(lines) + "\r\n"
    yield "lone-cr", "\n".join(lines[:3]) + "\r" + "\n".join(lines[3:]) + "\n"
    yield "cr-inside-line", text.replace('"kind":', '\r"kind":', 1)
    yield "blank-line", "\n".join(lines[:4] + [""] + lines[4:]) + "\n"
    yield "blank-line-resummed", "\n".join(with_checksum(body[:4] + [""] + body[4:])) + "\n"
    yield "no-trailing-newline", "\n".join(lines)
    yield "trailing-blank-line", text + "\n"
    yield "missing-checksum", "\n".join(body) + "\n"
    yield "only-checksum", "\n".join(with_checksum([])) + "\n"
    yield "empty", ""
    for sep in ("\u2028", "\x85", "\x0b", "\x1c"):
        inside = [line.replace('"resource":"high"', f'"resource":"hi{sep}gh"', 1) for line in body]
        yield f"raw-{sep!r}-in-string", "\n".join(inside + [lines[-1]]) + "\n"
        yield f"raw-{sep!r}-in-string-resummed", "\n".join(with_checksum(inside)) + "\n"
    # an array split over two lines, made up for by two records on one line:
    # the joined parse would take as many values as there are lines
    k = next(i for i, line in enumerate(body) if '"pairs":[[' in line)
    cut = body[k].index("],[") + 1
    spliced = body[:k] + [body[k][:cut], body[k][cut + 1 :]] + body[k + 1 :]
    spliced[k + 5 : k + 7] = [spliced[k + 5] + "," + spliced[k + 6]]
    yield "split-array-and-joined-records", "\n".join(with_checksum(spliced)) + "\n"
    # a string broken by a raw line separator, with the line count kept
    k = next(i for i, line in enumerate(body) if '"resource":"high"' in line)
    broken = body[:k] + [body[k].replace('"resource":"high"', '"resource":"hi\u2028gh"', 1)] + body[k + 1 :]
    broken[k + 5 : k + 7] = [broken[k + 5] + "," + broken[k + 6]]
    yield "split-string-and-joined-records", "\n".join(with_checksum(broken)) + "\n"
    # the block structure broken, each naming its branch of the reader
    summaries = [i for i, line in enumerate(body) if '"record":"summary"' in line]
    first, last = summaries[0], summaries[-1]
    blocks = {
        "event-outside-a-block": body[1:],  # the first header dropped
        "header-before-the-summary": body[:first] + body[first + 1 :],
        "summary-outside-a-block": body[: first + 1] + [body[first]] + body[first + 1 :],
        "ends-mid-block": body[:last] + body[last + 1 :],
    }
    for name, broken in blocks.items():
        yield f"{name}-resummed", "\n".join(with_checksum(broken)) + "\n"
    # an event time written with an exponent reads as a float, which the
    # line reader converts and the reader refuses
    k = next(i for i, line in enumerate(body) if '"record":"event"' in line)
    exponent = body[:k] + [re.sub(r'"t":(\d+)', r'"t":\1e0', body[k], count=1)] + body[k + 1 :]
    yield "event-time-exponent-resummed", "\n".join(with_checksum(exponent)) + "\n"
    # an escaped quote inside a string: the exit of `_one_value_per_line`
    # that sends the file to the line-by-line parse
    quoted = [line.replace('"resource":"high"', '"resource":"hi\\"gh"') for line in body]
    yield "escaped-quote-resummed", "\n".join(with_checksum(quoted)) + "\n"
    # why that exit is needed: an object split over two lines, each line's
    # brackets balanced by brackets in strings that escaped quotes open
    k = next(i for i, line in enumerate(body) if '"pairs":[[' in line)
    cut = body[k].index('"probe_cost_us"')
    head, tail = body[k][:cut] + '"x":"\\"}}\\""', '"y":"\\"{{\\"",' + body[k][cut:]
    masked = body[:k] + [head, tail] + body[k + 1 :]
    masked[k + 5 : k + 7] = [masked[k + 5] + "," + masked[k + 6]]
    yield "split-object-and-escaped-quotes", "\n".join(with_checksum(masked)) + "\n"


MUTATIONS = dict(mutations())


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_reader_matches_line_reader_on_mutated_files(name, tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(MUTATIONS[name].encode("utf-8"))
    assert_same_outcome(path)
    if name in ("intact", "crlf", "no-trailing-newline", "escaped-quote-resummed"):
        assert isinstance(outcome(traceio.read_trace, path), list)


# the first line of the intact file's second `readlines(_CHUNK)` chunk
SECOND_CHUNK = len(io.BytesIO(MUTATIONS["intact"].encode("utf-8")).readlines(traceio._CHUNK))


def block_edges():
    """Files at the edges of the reader's runs of lines, each run a chunk of
    whole lines (`readlines(_CHUNK)`), so a trace block may span runs and a
    run may hold many blocks: blocks over chunk edges, line ends that only
    `str.splitlines` splits on, and faults of each kind on either side of
    another.  Some cases keep the edges of the block-at-a-time runs the
    reader once took, each ending at a line that held `"summary"`."""
    body = BASE_LINES[:-1]
    summaries = [i for i, line in enumerate(body) if '"record":"summary"' in line]
    one = traceio.trace_text(real_trace(seed=2)).splitlines()
    yield "one-trace", "\n".join(one) + "\n"
    yield "one-trace-crlf", "\r\n".join(one) + "\r\n"
    yield "one-trace-no-trailing-newline", "\n".join(one)
    yield "crlf-no-trailing-newline", "\r\n".join(BASE_LINES)
    # no canonical prefix marks a block's end
    reordered = list(body)
    for i in summaries:
        reordered[i] = json.dumps(dict(reversed(json.loads(body[i]).items())), separators=(",", ":"))
    yield "summary-keys-reordered", "\n".join(with_checksum(reordered)) + "\n"
    yield "summary-keys-reordered-crlf", "\r\n".join(with_checksum(reordered)) + "\r\n"
    # no line holds the mark, so the file is one run; or an event's string
    # holds it, so a run ends inside a block
    escaped = [line.replace('"record":"summary"', '"record":"\\u0073ummary"') for line in body]
    yield "summary-escaped", "\n".join(with_checksum(escaped)) + "\n"
    marked = [line.replace('"resource":"high"', '"resource":"summary"') for line in body]
    yield "summary-in-an-event-string", "\n".join(with_checksum(marked)) + "\n"
    # runs over many decoded chunks, with line ends that only `str.splitlines` splits on
    many = [line.replace('"resource":"high"', '"resource":"hi\u2028gh"') for line in body * 4]
    yield "many-chunks", "\n".join(with_checksum(body * 4)) + "\n"
    yield "many-chunks-crlf", "\r\n".join(with_checksum(body * 4)) + "\r\n"
    yield "many-chunks-raw-separators", "\n".join(with_checksum(many)) + "\n"
    # a later fault of an earlier kind still wins over a structural one
    headless = body[1:]  # the first block's events are outside a block
    k = summaries[-1] - 3  # an event line of the second block, one line up
    yield "json-error-after-a-structural-fault", "\n".join(
        with_checksum(headless[:k] + ["{not json"] + headless[k + 1 :])
    ) + "\n"
    yield "not-a-record-after-a-structural-fault", "\n".join(
        with_checksum(headless[:k] + ["[1, 2]"] + headless[k + 1 :])
    ) + "\n"
    yield "checksum-after-a-structural-fault", "\n".join(headless + [BASE_LINES[-1]]) + "\n"
    yield "checksum-after-a-bad-event", "\n".join(
        [re.sub(r'"t":\d+', '"t":[]', line, count=1) for line in body] + [BASE_LINES[-1]]
    ) + "\n"
    # a structural fault after a bad event of an open block: the bad event comes first
    bad_event = [re.sub(r'"t":\d+', '"t":[]', line, count=1) if i == 2 else line for i, line in enumerate(body)]
    yield "bad-event-then-header-before-the-summary", "\n".join(
        with_checksum(bad_event[: summaries[0]] + bad_event[summaries[0] + 1 :])
    ) + "\n"
    yield "bad-event-then-ends-mid-block", "\n".join(with_checksum(bad_event[: summaries[0]])) + "\n"
    # a block over two chunks: a bad event in its second chunk is named at its line
    k = SECOND_CHUNK
    assert summaries[0] < k < summaries[1] and '"record":"event"' in body[k]
    yield "bad-event-in-a-block-over-two-chunks", "\n".join(
        with_checksum(body[:k] + [re.sub(r'"t":\d+', '"t":[]', body[k], count=1)] + body[k + 1 :])
    ) + "\n"


BLOCK_EDGES = dict(block_edges())
# what each edge reads as: some traces, the traces of the intact file, or an
# error and a part of its message
INTACT = "reads like the intact file"
BLOCK_EDGE_OUTCOMES = {
    "one-trace": "reads",
    "one-trace-crlf": "reads",
    "one-trace-no-trailing-newline": "reads",
    "crlf-no-trailing-newline": INTACT,
    "summary-keys-reordered": INTACT,
    "summary-keys-reordered-crlf": INTACT,
    "summary-escaped": INTACT,
    "summary-in-an-event-string": "reads",
    "many-chunks": "reads",
    "many-chunks-crlf": "reads",
    "many-chunks-raw-separators": (CorruptLine, None),
    "json-error-after-a-structural-fault": (CorruptLine, "invalid JSON"),
    "not-a-record-after-a-structural-fault": (CorruptLine, "not a trace record"),
    "checksum-after-a-structural-fault": (TraceIntegrityError, "do not match their checksum"),
    "checksum-after-a-bad-event": (TraceIntegrityError, "do not match their checksum"),
    "bad-event-then-header-before-the-summary": (CorruptLine, "line 3: bad event"),
    "bad-event-then-ends-mid-block": (CorruptLine, "line 3: bad event"),
    "bad-event-in-a-block-over-two-chunks": (CorruptLine, f"line {SECOND_CHUNK + 1}: bad event"),
}


@pytest.mark.parametrize("name", sorted(BLOCK_EDGES))
def test_block_edges_read_as_the_line_reader_reads_them(name, tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(BLOCK_EDGES[name].encode("utf-8"))
    assert_same_outcome(path)
    expected = BLOCK_EDGE_OUTCOMES[name]
    if expected == INTACT:
        intact = tmp_path / "intact.jsonl"
        intact.write_bytes(MUTATIONS["intact"].encode("utf-8"))
        assert traceio.read_trace(path) == traceio.read_trace(intact)
    elif expected == "reads":
        assert isinstance(outcome(traceio.read_trace, path), list)
    else:
        error, message = expected
        with pytest.raises(error) as err:
            traceio.read_trace(path)
        assert type(err.value) is error
        assert message is None or message in str(err.value)


def test_a_byte_that_is_not_utf8_wins_over_an_earlier_bad_line(tmp_path):
    # a file's bytes are all decoded before any line counts as not JSON;
    # the bad byte's line counts every line end `str.splitlines` knows, over
    # many decoded chunks
    body = [line.replace('"resource":"high"', '"resource":"hi\u2028gh"') for line in BASE_LINES[:-1] * 4]
    body[3] = "{not json"
    raw = "\n".join(with_checksum(body)).encode("utf-8") + b"\n"
    at = raw.index(b'"record"', len(raw) * 3 // 4)
    raw = raw[:at] + b"\xff" + raw[at + 1 :]
    path = tmp_path / "t.jsonl"
    path.write_bytes(raw)
    line = len((raw[:at].decode("utf-8") + ".").splitlines())
    assert line > len(BASE_LINES) * 3
    with pytest.raises(CorruptLine, match=f"^line {line}: not UTF-8$"):
        traceio.read_trace(path)


def _peak_above_result(call) -> int:
    """The most memory `call` held at once, by tracemalloc in this process,
    beyond what it still holds when it returns (what it returns)."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    del result
    return peak - held


@pytest.mark.parametrize("preset", ["lrw-like", "uav-like"])
def test_trace_io_memory_stays_flat_in_the_number_of_traces(preset, tmp_path):
    # a file is written and read a trace at a time: the most either end
    # holds at once, beyond the traces it reads back, is about one trace's,
    # however many traces the file holds
    s = workload.gen_scenario(preset, seed=0).without_skipping()
    traces = [engine.run(s, s.max_assignment(), x) for x in workload.gen_samples(s, 36, "hard", seed=1)]
    peaks = {}
    for n in (3, 36):
        path = tmp_path / f"{n}.jsonl"
        write = _peak_above_result(lambda: traceio.write_trace(traces[:n], path))
        read = _peak_above_result(lambda: traceio.read_trace(path))
        peaks[n] = write, read
    assert peaks[36][0] <= 1.5 * peaks[3][0], peaks
    assert peaks[36][1] <= 1.5 * peaks[3][1], peaks


def _three_trace_lines() -> list[str]:
    return traceio.trace_text([real_trace(seed=k) for k in range(3)]).splitlines()


def _tampered_checksum(lines):
    return lines[:-1] + [lines[-1].replace('"sha256":"', '"sha256":"0', 1)], TraceIntegrityError, 3, None


def _bad_event_in_block_3(lines):
    body = lines[:-1]
    i = [k for k, line in enumerate(body) if '"record":"header"' in line][2] + 1  # block 3's first event
    body[i] = re.sub(r'"t":\d+', '"t":[]', body[i], count=1)
    return with_checksum(body), CorruptLine, 2, i + 1


@pytest.mark.parametrize("edit", [_tampered_checksum, _bad_event_in_block_3])
def test_the_stream_yields_every_good_trace_then_raises_the_fault(edit, tmp_path):
    # a fault is raised once the whole file is read, after the last good
    # trace is yielded; read_trace, which lists the stream, raises the same
    lines, error, good, line_number = edit(_three_trace_lines())
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    yielded = []
    with pytest.raises(error) as streamed:
        for trace in traceio.iter_traces(path):
            yielded.append(trace)
    assert len(yielded) == good
    assert getattr(streamed.value, "line_number", None) == line_number
    with pytest.raises(error) as listed:
        traceio.read_trace(path)
    assert (type(listed.value), str(listed.value)) == (type(streamed.value), str(streamed.value))


@pytest.mark.parametrize("old", [None, b"old bytes\n"])
def test_a_write_the_traces_break_leaves_the_path_as_it_was(old, tmp_path):
    path = tmp_path / "t.jsonl"
    if old is not None:
        path.write_bytes(old)

    def traces():
        yield real_trace(seed=0)
        yield real_trace(seed=1)
        raise ValueError("a window failed")

    with pytest.raises(ValueError, match="a window failed"):
        traceio.write_trace(traces(), path)
    assert (path.read_bytes() if path.exists() else None) == old
    assert [p.name for p in tmp_path.iterdir()] == ([path.name] if old is not None else [])


@pytest.mark.parametrize(
    "name, error, branch",
    [
        ("event-outside-a-block", CorruptLine, "line 1: event outside a trace block"),
        ("header-before-the-summary", CorruptLine, "header before previous trace's summary"),
        ("summary-outside-a-block", CorruptLine, "summary outside a trace block"),
        ("ends-mid-block", SchemaVersionMismatch, "trace file ends mid-block"),
    ],
)
def test_a_broken_block_structure_raises_from_its_branch(name, error, branch, tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(MUTATIONS[f"{name}-resummed"].encode("utf-8"))
    with pytest.raises(error) as err:
        traceio.read_trace(path)
    assert type(err.value) is error
    assert str(err.value).endswith(branch)


def test_an_escaped_quote_takes_the_line_by_line_parse(monkeypatch, tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(MUTATIONS["escaped-quote-resummed"].encode("utf-8"))
    exits = []
    real = traceio._one_value_per_line
    monkeypatch.setattr(traceio, "_one_value_per_line", lambda *a: exits.append(real(*a)) or exits[-1])
    traces = traceio.read_trace(path)
    with open(path, "rb") as f:
        chunks = len(list(iter(lambda: f.readlines(traceio._CHUNK), [])))
    assert chunks == 2 and exits == [False] * chunks  # one per chunk of lines, each with an escaped quote
    assert len(traces) == 2
    resources = {dict(row[-1]).get("resource") for trace in traces for row in trace.log.rows()}
    assert 'hi"gh' in resources


SHAPE_CHARS = '{}[]",:\\ \r\n\u20281aetx'


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_reader_matches_line_reader_on_fuzzed_files(data, tmp_path):
    lines = BASE_LINES
    body = "\n".join(lines[:-1])
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(body)))
        if data.draw(st.booleans()) and at < len(body):
            body = body[:at] + body[at + 1 :]
        else:
            body = body[:at] + data.draw(st.sampled_from(SHAPE_CHARS)) + body[at:]
    resum = data.draw(st.booleans())
    text = "\n".join(with_checksum(body.splitlines())) if resum else body + "\n" + lines[-1]
    path = tmp_path / "t.jsonl"
    path.write_bytes(text.encode("utf-8"))
    assert_same_outcome(path)


def _resummed_file(tmp_path, edit):
    records = [json.loads(line) for line in BASE_LINES[:-1]]
    line_number = edit(records) + 1
    path = tmp_path / "hostile.jsonl"
    path.write_text("\n".join(with_checksum([traceio._dump(r) for r in records])) + "\n")
    return path, line_number


def _first(records, kind):
    return next(i for i, r in enumerate(records) if r["record"] == kind)


def _set(kind, key, value):
    def edit(records):
        i = _first(records, kind)
        records[i][key] = value
        return i

    return edit


def _drop(kind, key):
    def edit(records):
        i = _first(records, kind)
        del records[i][key]
        return i

    return edit


def _edit_event(kind, edit):
    """Edit the first event record of one kind, returning its line index."""

    def apply(records):
        i = next(i for i, r in enumerate(records) if r["record"] == "event" and r["kind"] == kind)
        edit(records[i])
        return i

    return apply


def _put(key, value):
    return lambda rec: rec.update({key: value})


HOSTILE_RECORDS = {
    "event-t-list": _set("event", "t", []),
    "event-t-infinite": _set("event", "t", float("inf")),
    "t-float": _edit_event("unit_sensed", lambda rec: rec.update(t=rec["t"] + 0.5)),
    "t-bool": _edit_event("fusion_start", _put("t", True)),
    "event-data-list": _set("event", "data", []),
    "header-without-fingerprint": _drop("header", "fingerprint"),
    "header-bad-mode": _set("header", "mode", "sideways"),
    "header-assignment-number": _set("header", "assignment", 5),
    "summary-without-latency": _drop("summary", "reported_latency_us"),
    "summary-peak-number": _set("summary", "peak_buffered_units", 5),
    # header and summary fields of the wrong type, which `report` would write into its CSV
    "summary-latency-str": _set("summary", "reported_latency_us", "x"),
    "summary-waiting-float": _set("summary", "waiting_us", 1.5),
    "summary-waiting-bool": _set("summary", "waiting_us", True),
    "summary-skipped-list": _set("summary", "skipped_unit_count", [3]),
    "summary-peak-items": _set("summary", "peak_buffered_units", ["a", None]),
    "summary-peak-str": _set("summary", "peak_buffered_units", "12"),
    "header-sample-list": _set("header", "sample_id", [1]),
    "header-window-str": _set("header", "window_us", "long"),
    "header-fingerprint-number": _set("header", "fingerprint", 7),
    "header-assignment-str-levels": _set("header", "assignment", [["1", "1"], ["1", "1"]]),
    "header-assignment-triple": _set("header", "assignment", [[1, 1, 1], [1, 1, 1]]),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_RECORDS))
def test_hostile_record_raises_corrupt_line(case, tmp_path):
    path, line_number = _resummed_file(tmp_path, HOSTILE_RECORDS[case])
    with pytest.raises(CorruptLine) as err:
        traceio.read_trace(path)
    assert err.value.line_number == line_number


def test_a_bad_header_names_every_problem(tmp_path):
    def two_bad_fields(records):
        _set("header", "sample_id", [1])(records)
        return _set("header", "window_us", "long")(records)

    for edit, problems in [
        (_drop("header", "fingerprint"), "fingerprint is missing"),
        (two_bad_fields, "sample_id should be int, got list; window_us should be int, got str"),
    ]:
        path, line_number = _resummed_file(tmp_path, edit)
        with pytest.raises(CorruptLine) as err:
            traceio.read_trace(path)
        assert str(err.value) == f"line {line_number}: bad header: JSONTypeError {problems}"


def test_a_bad_event_in_a_later_trace_names_its_line(tmp_path):
    # the first trace's summary comes before the bad record, which must
    # still be found and named
    def edit(records):
        i = max(i for i, r in enumerate(records) if r["record"] == "event")
        records[i]["t"] = []
        return i

    path, line_number = _resummed_file(tmp_path, edit)
    with pytest.raises(CorruptLine) as err:
        traceio.read_trace(path)
    assert err.value.line_number == line_number


def test_payload_keys_out_of_order_in_a_file_read_back_in_key_order(tmp_path):
    # a parsed line keeps its keys in file order; the reader puts them in
    # key order whatever path the payload takes
    lines = []
    for line in BASE_LINES[:-1]:
        rec = json.loads(line)
        if rec["record"] == "event":
            rec["data"] = dict(reversed(rec["data"].items()))
            line = json.dumps(rec, separators=(",", ":"))
        lines.append(line)
    assert lines != BASE_LINES[:-1]
    shuffled, intact = tmp_path / "shuffled.jsonl", tmp_path / "intact.jsonl"
    shuffled.write_text("\n".join(with_checksum(lines)) + "\n")
    intact.write_text("\n".join(BASE_LINES) + "\n")
    assert traceio.read_trace(shuffled) == traceio.read_trace(intact)


# --- which path a file takes -------------------------------------------------


def spy_columns(monkeypatch):
    """Record what the bulk column builder gives: None, or an exception the
    reader catches (recorded as None), sends the file down the per-record path."""
    results = []
    real = traceio._columns

    def spied(recs):
        results.append(None)
        results[-1] = real(recs)
        return results[-1]

    monkeypatch.setattr(traceio, "_columns", spied)
    return results


@pytest.mark.parametrize("name", ["intact", "crlf", "no-trailing-newline"])
def test_files_the_writer_produced_take_the_column_path(name, tmp_path, monkeypatch):
    path = tmp_path / "t.jsonl"
    path.write_bytes(MUTATIONS[name].encode("utf-8"))
    results = spy_columns(monkeypatch)
    traces = traceio.read_trace(path)
    assert len(results) == len(traces) == 2  # one bulk layout per trace block
    assert all(isinstance(result, EventColumns) for result in results)
    assert all(isinstance(t.log, EventColumns) for t in traces)
    assert traces == line_reader(path)


def _hand_edited(tmp_path, edit):
    """BASE_LINES with one event record edited, its keys kept in the order
    the edit leaves them, and the checksum recomputed."""
    records = [json.loads(line) for line in BASE_LINES[:-1]]
    edit(records)
    path = tmp_path / "edited.jsonl"
    lines = [json.dumps(r, separators=(",", ":")) for r in records]
    path.write_text("\n".join(with_checksum(lines)) + "\n")
    return path


def _reverse_data(rec):
    rec["data"] = dict(reversed(rec["data"].items()))


PER_RECORD_EDITS = {
    "t-too-large": _edit_event("unit_sensed", _put("t", 2**70)),
    "m-float": _edit_event("encode_start", _put("m", 0.0)),
    "m-bool": _edit_event("aggregation_done", _put("m", False)),
    "m-at-the-null-id": _edit_event("encode_end", _put("m", engine.NULL)),
    "u-bool": _edit_event("unit_sensed", _put("u", True)),
    "u-string": _edit_event("encode_end", _put("u", "3")),
    "kind-unknown": _edit_event("encode_start", _put("kind", "encode_begin")),
    "kind-list": _edit_event("unit_sensed", _put("kind", ["unit_sensed"])),
    "data-list": _edit_event("unit_sensed", _put("data", [])),
    "data-keys-out-of-order": _edit_event("encode_start", _reverse_data),
    "checkpoint-keys-out-of-order": _edit_event("checkpoint_eval", _reverse_data),
    "record-with-an-extra-key": _edit_event("encode_end", _put("zz", 1)),
    "laid-out-value-float": _edit_event("unit_sensed", lambda rec: rec["data"].update(sense_end_us=1.5)),
    "laid-out-value-bool": _edit_event("aggregation_done", lambda rec: rec["data"].update(prefix=True)),
    "laid-out-value-too-large": _edit_event(
        "encode_start", lambda rec: rec["data"].update(encode_cost_us=2**64)
    ),
    "laid-out-value-not-a-string": _edit_event(
        "encode_start", lambda rec: rec["data"].update(resource=7)
    ),
}


@pytest.mark.parametrize("case", sorted(PER_RECORD_EDITS))
def test_hand_edited_files_with_a_valid_checksum_take_the_per_record_path(case, tmp_path):
    # the edits a bulk read once refused; a record of the wrong type still
    # gets its line number, and any other edit reads as the line reader reads it
    path = _hand_edited(tmp_path, PER_RECORD_EDITS[case])
    assert_same_outcome(path)
    traces = outcome(traceio.read_trace, path)
    if isinstance(traces, list):
        assert all(type(t.log) is EventColumns for t in traces)


def _set_data(key, value):
    return lambda rec: rec["data"].update({key: value})


# events the engine never writes, each a CorruptLine at its line
OFF_SCHEMA_EDITS = {
    "laid-out-kind-missing-a-key": _edit_event("encode_start", lambda rec: rec["data"].pop("resource")),
    "laid-out-kind-with-an-extra-key": _edit_event("unit_sensed", _set_data("z", [1, [2]])),
    "laid-out-kind-without-its-unit": _edit_event("unit_sensed", _put("u", None)),
    "laid-out-kind-with-a-modality": _edit_event("fusion_start", _put("m", 1)),
    "aborted-unit-sensed": _edit_event("unit_sensed", _set_data("aborted", True)),
    "checkpoint-with-both-key-sets": _edit_event("checkpoint_eval", _set_data("already_completed", True)),
    "committed-a-number": _edit_event("checkpoint_eval", _set_data("committed", 1)),
    "fraction-not-finite": _edit_event("checkpoint_eval", _set_data("fraction", float("nan"))),
    "probability-a-string": _edit_event("skip_committed", _set_data("probability", "0.5")),
    "units-skipped-a-float": _edit_event("skip_committed", _set_data("units_skipped", 2.0)),
    "pairs-a-triple": _edit_event("config_switch", _set_data("pairs", [[1, 1, 1], [1, 1]])),
    "pairs-of-bools": _edit_event("config_switch", _set_data("pairs", [[True, False]])),
    "pairs-a-number": _edit_event("config_switch", _set_data("pairs", 5)),
    "config-switch-with-a-unit": _edit_event("config_switch", _put("u", 0)),
}


@pytest.mark.parametrize("case", sorted(OFF_SCHEMA_EDITS))
def test_an_event_off_the_schema_is_refused_at_its_line(case, tmp_path):
    path, line_number = _resummed_file(tmp_path, OFF_SCHEMA_EDITS[case])
    assert _off_the_schema(path, line_number)
    with pytest.raises(CorruptLine, match=f"^line {line_number}: bad event: ") as err:
        traceio.read_trace(path)
    assert err.value.line_number == line_number
    assert_same_outcome(path)


@pytest.mark.parametrize("case", sorted(PER_RECORD_EDITS))
def test_hand_edited_files_read_back_write_their_reference_bytes(case, tmp_path):
    path = _hand_edited(tmp_path, PER_RECORD_EDITS[case])
    traces = outcome(traceio.read_trace, path)
    if isinstance(traces, list):
        test_trace_bytes.assert_reference_bytes(traces)
