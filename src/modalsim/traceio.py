"""Line-delimited trace files.

One JSON record per line: a header per sample trace, its events, its summary,
and one final checksum record covering every previous line so tampering
(including the fingerprint) is detected on read.  All numbers are integers or
repr-round-trip floats, so write -> read -> write is byte-stable.

Every line is the compact, sorted-key `json.dumps` of its record: `_dump`
over `_trace_records` is the reference for the file's bytes.  Event lines,
nearly all of a file, are formatted directly in that key order, fixed once
as `data, kind, m, record, t, u`, with the payload's keys in sorted order.
An event holding any value other than an exact int, str, bool, finite float,
None, or a tuple of those (or payload keys that are not strictly increasing
exact strs) is written by `_dump` instead.

The reader verifies the checksum once over the joined lines and parses the
whole file with one `json.loads` of its lines as a JSON array.  When that
parse fails, or cannot be shown to have taken exactly one value from each
line, the lines are parsed one by one, so an error names the first bad line.
A record with a missing or wrongly typed field raises `CorruptLine` with its
line number.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path
from typing import Iterable, Sequence

from .core import ConfigAssignment, ExecutionMode, ModalsimError
from .engine import Event, EventKind, SimTrace, TraceSummary

TRACE_SCHEMA_VERSION = 1


class SchemaVersionMismatch(ModalsimError):
    pass


class CorruptLine(ModalsimError):
    def __init__(self, line_number: int, detail: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {detail}")


class TraceIntegrityError(SchemaVersionMismatch):
    """Checksum failure; subclass of SchemaVersionMismatch so integrity and
    version problems are caught together."""


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _detuple(value):
    # JSON turns payload tuples into lists; restore them on read
    if isinstance(value, list):
        return tuple(_detuple(v) for v in value)
    return value


def _header_record(trace: SimTrace) -> dict:
    return {
        "record": "header",
        "schema_version": TRACE_SCHEMA_VERSION,
        "fingerprint": trace.fingerprint,
        "sample_id": trace.sample_id,
        "mode": trace.mode.value,
        "assignment": [list(p) for p in trace.assignment.pairs],
        "window_us": trace.window_us,
    }


def _event_record(ev: Event) -> dict:
    return {
        "record": "event",
        "t": ev.time_us,
        "kind": ev.kind.value,
        "m": ev.modality,
        "u": ev.unit,
        "data": ev.payload_dict(),
    }


def _summary_record(trace: SimTrace) -> dict:
    s = trace.summary
    return {
        "record": "summary",
        "reported_latency_us": s.reported_latency_us,
        "waiting_us": s.waiting_us,
        "peak_buffered_units": list(s.peak_buffered_units),
        "skipped_unit_count": s.skipped_unit_count,
    }


def _trace_records(trace: SimTrace) -> Iterable[dict]:
    """One trace's records in file order; `_dump` of each is its line."""
    yield _header_record(trace)
    for ev in trace.events:
        yield _event_record(ev)
    yield _summary_record(trace)


_KIND_TEXT = {kind.value: _string(kind.value) for kind in EventKind}


def _value_text(value) -> str | None:
    """`json.dumps` text of one value, or None for a value left to `_dump`."""
    t = type(value)
    if t is int:
        return int.__repr__(value)
    if t is str:
        return _string(value)
    if t is float:
        return float.__repr__(value) if value - value == 0.0 else None
    if t is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if t is tuple:
        parts = [_value_text(v) for v in value]
        return None if None in parts else "[" + ",".join(parts) + "]"
    return None


def _event_line(ev: Event) -> str | None:
    """`_dump(_event_record(ev))` when every value is one `_value_text`
    formats, else None.  Exact ints go into the line as they are: their
    `format` is their `repr`."""
    t, kind, m, u, payload = ev
    if type(t) is not int or type(kind) is not EventKind or type(payload) is not tuple:
        return None
    if m is None:
        m = "null"
    elif type(m) is not int:
        return None
    if u is None:
        u = "null"
    elif type(u) is not int:
        return None
    fields = []
    last = None
    for key, value in payload:  # the pairing dict(payload) makes
        if type(key) is not str or (last is not None and key <= last):
            return None  # json.dumps would sort, merge or convert these keys
        if type(value) is not int:
            value = _value_text(value)
            if value is None:
                return None
        fields.append(f"{_string(key)}:{value}")
        last = key
    return (
        f'{{"data":{{{",".join(fields)}}},"kind":{_KIND_TEXT[kind._value_]},'
        f'"m":{m},"record":"event","t":{t},"u":{u}}}'
    )


def trace_text(traces: Sequence[SimTrace] | SimTrace) -> str:
    if isinstance(traces, SimTrace):
        traces = [traces]
    lines = []
    append = lines.append
    for trace in traces:
        append(_dump(_header_record(trace)))
        for ev in trace.events:
            try:
                line = _event_line(ev)
            except (TypeError, ValueError, RecursionError):
                line = None  # `_dump` gives the reference result, error included
            append(line if line is not None else _dump(_event_record(ev)))
        append(_dump(_summary_record(trace)))
    body = "\n".join(lines)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return body + "\n" + _dump({"record": "checksum", "sha256": digest}) + "\n"


def write_trace(traces: Sequence[SimTrace] | SimTrace, path: str | Path) -> None:
    Path(path).write_text(trace_text(traces), encoding="utf-8")


# every byte but the ones that delimit strings, nest values and end lines
_NOT_SHAPE = bytes(b for b in range(256) if b not in b'"[]{}\n')


def _one_value_per_line(data: bytes, count: int) -> bool:
    """True when each of the `count` newline-joined lines in `data` holds
    whole JSON values only: no string in it holds an escaped quote, a
    bracket or a line end, and its brackets all close within it.  Then the
    commas joining the lines into one array sit at its top level, and each
    line alone gives exactly the value(s) the array holds for it."""
    if b"\\" in data and b'\\"' in data:
        return False
    shape = data.translate(None, _NOT_SHAPE)
    # each quote opens or closes a string, so a bracket or line end inside
    # a string leaves a run of quotes of odd length
    if shape.count(b'""') * 2 != shape.count(b'"'):
        return False
    shape = shape.translate(None, b'"')
    while True:
        inner = shape.replace(b"{}", b"").replace(b"[]", b"")
        if inner == shape:
            return shape == b"\n" * (count - 1)
        shape = inner


def _parse(lines: list[str], data: bytes) -> list[dict]:
    try:
        records = json.loads("[" + ",".join(lines) + "]")
    except (ValueError, RecursionError):
        records = None
    if records is not None and len(records) == len(lines) and _one_value_per_line(data, len(lines)):
        for i, rec in enumerate(records, start=1):
            if type(rec) is not dict or "record" not in rec:
                raise CorruptLine(i, "not a trace record")
        return records
    records = []
    for i, line in enumerate(lines, start=1):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorruptLine(i, f"invalid JSON ({exc.msg})") from None
        if type(rec) is not dict or "record" not in rec:
            raise CorruptLine(i, "not a trace record")
        records.append(rec)
    return records


_KINDS = {kind.value: kind for kind in EventKind}
# raised by a record field of the wrong shape or type
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError, OverflowError)


def _payload(data: dict) -> tuple:
    """An event's payload pairs in key order, lists back to tuples."""
    pairs = tuple(data.items())
    if len(pairs) == 1 and type(pairs[0][1]) is not list:
        return pairs  # the common payload: one key holding a scalar
    if list in map(type, data.values()):
        return tuple(sorted((k, _detuple(v)) for k, v in pairs))
    return tuple(sorted(pairs))


def read_trace(path: str | Path) -> list[SimTrace]:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise SchemaVersionMismatch("empty trace file")

    data = "\n".join(lines).encode("utf-8")
    records = _parse(lines, data)
    if records[-1]["record"] != "checksum":
        raise TraceIntegrityError("missing checksum record")
    body = data[: max(len(data) - len(lines[-1].encode("utf-8")) - 1, 0)]  # all lines before the checksum
    if records[-1].get("sha256") != hashlib.sha256(body).hexdigest():
        raise TraceIntegrityError("trace file contents do not match their checksum")

    traces: list[SimTrace] = []
    header = None
    events: list[Event] = []
    for i, rec in enumerate(records[:-1], start=1):
        kind = rec["record"]
        if kind == "event":
            if header is None:
                raise CorruptLine(i, "event outside a trace block")
            try:
                events.append(
                    Event(int(rec["t"]), _KINDS[rec["kind"]], rec["m"], rec["u"], _payload(rec["data"]))
                )
            except _MALFORMED as exc:
                raise CorruptLine(i, f"bad event: {type(exc).__name__} {exc}") from None
        elif kind == "header":
            if header is not None:
                raise CorruptLine(i, "header before previous trace's summary")
            if rec.get("schema_version") != TRACE_SCHEMA_VERSION:
                raise SchemaVersionMismatch(
                    f"unsupported trace schema version {rec.get('schema_version')!r}"
                )
            try:
                header = {
                    "fingerprint": rec["fingerprint"],
                    "sample_id": rec["sample_id"],
                    "mode": ExecutionMode(rec["mode"]),
                    "assignment": ConfigAssignment(tuple(tuple(p) for p in rec["assignment"])),
                    "window_us": rec["window_us"],
                }
            except _MALFORMED as exc:
                raise CorruptLine(i, f"bad header: {type(exc).__name__} {exc}") from None
            events = []
        elif kind == "summary":
            if header is None:
                raise CorruptLine(i, "summary outside a trace block")
            try:
                summary = TraceSummary(
                    reported_latency_us=rec["reported_latency_us"],
                    waiting_us=rec["waiting_us"],
                    peak_buffered_units=tuple(rec["peak_buffered_units"]),
                    skipped_unit_count=rec["skipped_unit_count"],
                )
            except _MALFORMED as exc:
                raise CorruptLine(i, f"bad summary: {type(exc).__name__} {exc}") from None
            traces.append(SimTrace(events=tuple(events), summary=summary, **header))
            header = None
        else:
            raise CorruptLine(i, f"unknown record type {kind!r}")
    if header is not None:
        raise SchemaVersionMismatch("trace file ends mid-block")
    return traces
