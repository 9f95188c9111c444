"""Line-delimited trace files.

One JSON record per line: a header per sample trace, its events, its summary,
and one final checksum record covering every previous line so tampering
(including the fingerprint) is detected on read.  All numbers are integers or
repr-round-trip floats, so write -> read -> write is byte-stable.

Every line is the compact, sorted-key `json.dumps` of its record: `_dump`
over `_trace_records` is the reference for the file's bytes.  A trace's
events are `EventColumns`, written a layout at a time (`engine.LAYOUTS`,
the one event schema) through the layout's %-template, whose keys are
fixed in the reference order `data, kind, m, record, t, u` with the
payload's keys in sorted order.  Each payload value is written as
`json.dumps` writes it: an int by `%d`, a finite float by
`float.__repr__`, a bool as `true` or `false`, a str escaped, and int
pairs as nested lists.

What either end holds beyond the traces stays flat however many traces
the file holds.  The writer lays out and writes each trace in turn, the
checksum a running SHA-256 over the bytes written.  The reader decodes
whole lines a 16 KiB chunk (`_CHUNK`) at a time, as `str.splitlines`
splits them, and takes each chunk as a run of lines, so it holds one run
and the open trace block (header to summary); a block may span runs and a
run may hold many blocks.  It parses a run with one `json.loads` of its
lines as a JSON array; when that fails, or cannot be shown to have taken
exactly one value from each line, the lines are parsed one by one, so an
error names the first bad line.  The checksum is a running SHA-256 of the
lines.  A bad file fails as it would if it were read whole, at its first
fault in this order: a byte that is not UTF-8 anywhere (`CorruptLine` at
its line), the first line that is not JSON or not a record, the checksum,
and then the first fault of the block structure; a fault of the last three
kinds is kept until the whole file is read.

The records are walked as they are parsed, and a block's records are
dropped once it is a `SimTrace`.  Its event records are read as their
time, which must be an int in int64 (a float or a bool is refused), the
kind, `m`, `u` and the data dict, and laid out in bulk by the schema at
its summary: a record's kind and payload key set name its layout, and each
payload value is read by `core`'s one JSON type rule (`json_value`) as its
column's type.  The reader refuses what the engine never writes: a kind
and key set without a layout, a modality or unit the layout does not
have, or a value its column cannot hold, such as a float that is not
finite.  When a record lacks a field or is refused, the block's records
are checked one by one, and the first bad one raises `CorruptLine` with
its line number, before any later fault.  A header and a summary are read
at their own lines by `core`'s one JSON type rule (`read_record`), which
names every missing or wrongly typed field; a summary is written as its
`TraceSummary`'s fields, so that dataclass names them once for writer and
reader.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from json.encoder import encode_basestring_ascii as _string
from itertools import compress, repeat
from operator import itemgetter, ne
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .core import ConfigAssignment, ExecutionMode, JSONTypeError, ModalsimError, json_value, read_record
from .engine import COLUMNS, LAYOUTS, NULL, EventColumns, SimTrace, TraceSummary, column

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


def _event_record(t, kind, m, u, payload) -> dict:
    return {"record": "event", "t": t, "kind": kind.value, "m": m, "u": u, "data": dict(payload)}


def _summary_record(trace: SimTrace) -> dict:
    return {"record": "summary", **{f.name: getattr(trace.summary, f.name) for f in fields(TraceSummary)}}


def _trace_records(trace: SimTrace) -> Iterable[dict]:
    """One trace's records in file order; `_dump` of each is its line."""
    yield _header_record(trace)
    for ev in trace.events:
        yield _event_record(*ev)
    yield _summary_record(trace)


# each payload column but an int one (`%d`) by the function that writes its
# values as `json.dumps` does; a float column holds only finite floats
_TEXT = {
    "x": float.__repr__,
    "y": float.__repr__,
    "c": ("false", "true").__getitem__,
    "s": _string,
    "p": lambda pairs: "[%s]" % ",".join("[%d,%d]" % pair for pair in pairs),
}


def _template(kind, ids: int, cols: dict) -> tuple[str, list[str]]:
    """The line of an event of one layout as a %-template, and the columns
    that fill it, in order."""
    data = ",".join(f"{_string(key)}:%{'s' if col in _TEXT else 'd'}" for key, col in cols.items())
    m, u = ("%d" if ids > 0 else "null"), ("%d" if ids > 1 else "null")
    line = f'{{"data":{{{data}}},"kind":{_string(kind.value)},"m":{m},"record":"event","t":%d,"u":{u}}}'
    return line, [*cols.values()] + ["m"] * (ids > 0) + ["t"] + ["u"] * (ids > 1)


_TEMPLATES = [_template(*layout) for layout in LAYOUTS]


def _column_lines(c: EventColumns) -> list[str]:
    """The event lines of a columnar trace, each `_dump` of its event's record."""
    lines = np.empty(len(c.t), object)
    for code in np.flatnonzero(np.bincount(c.code, minlength=len(_TEMPLATES))).tolist():
        template, cols = _TEMPLATES[code]
        rows = np.flatnonzero(c.code == code)
        args = [getattr(c, col)[rows].tolist() for col in cols]
        args = [list(map(_TEXT[col], a)) if col in _TEXT else a for a, col in zip(args, cols)]
        lines[rows] = column([template % x for x in zip(*args)], object)
    return lines.tolist()


def _pieces(traces: Iterable[SimTrace] | SimTrace) -> Iterator[bytes]:
    """The file's bytes a trace at a time, then its checksum line: the lines
    joined by line ends, and the checksum over every line before its own."""
    if isinstance(traces, SimTrace):
        traces = [traces]
    digest = hashlib.sha256()
    end = b""  # the line end before the next line, none before the first
    for trace in traces:
        lines = [_dump(_header_record(trace)), *_column_lines(trace.log), _dump(_summary_record(trace))]
        piece = end + "\n".join(lines).encode("utf-8")
        digest.update(piece)
        yield piece
        end = b"\n"
    yield end + _dump({"record": "checksum", "sha256": digest.hexdigest()}).encode("utf-8") + b"\n"


def trace_text(traces: Iterable[SimTrace] | SimTrace) -> str:
    return b"".join(_pieces(traces)).decode("utf-8")


def write_trace(traces: Iterable[SimTrace] | SimTrace, path: str | Path) -> None:
    with open(path, "wb") as f:
        f.writelines(_pieces(traces))


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


def _parse(lines: list[str], data: bytes, first: int) -> list[dict]:
    """The records of `lines`, the file's lines from line `first` on, joined
    by line ends in `data`; the first that is not JSON or not a record
    raises `CorruptLine` at its line."""
    try:
        records = json.loads("[" + ",".join(lines) + "]")
    except (ValueError, RecursionError):
        records = None
    if records is not None and len(records) == len(lines) and _one_value_per_line(data, len(lines)):
        for i, rec in enumerate(records, start=first):
            if type(rec) is not dict or "record" not in rec:
                raise CorruptLine(i, "not a trace record")
        return records
    records = []
    for i, line in enumerate(lines, start=first):
        try:
            rec = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:  # a RecursionError has no msg
            raise CorruptLine(i, f"invalid JSON ({getattr(exc, 'msg', exc)})") from None
        if type(rec) is not dict or "record" not in rec:
            raise CorruptLine(i, "not a trace record")
        records.append(rec)
    return records


_CODE = {(kind.value, frozenset(keys)): code for code, (kind, _, keys) in enumerate(LAYOUTS)}
_IDS = np.array([ids for _, ids, _ in LAYOUTS])
_JSON = {"a": int, "b": int, "x": float, "y": float, "c": bool, "s": str}  # a payload column's JSON type
# raised by a record field of the wrong shape or type
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError, OverflowError)


def _json_values(values: list, kind: type, name: str) -> list:
    """`values`, each read by `json_value` as the JSON type `kind`."""
    return values if set(map(type, values)) == {kind} else [json_value(v, kind, name) for v in values]


def _ids(values: list, name: str) -> np.ndarray:
    """Modalities or units, each an int below NULL or null, as an int64
    column with NULL for null."""
    col = np.array(_json_values([NULL if v is None else v for v in values], int, name), np.int64)
    if np.count_nonzero(col >= NULL) != values.count(None):
        raise ValueError(f"an event's {name} is not below {NULL}")
    return col


def _pairs(value, name: str) -> tuple:
    """A list of [int, int] lists, read back by `_detuple` as the tuple of
    int pairs an assignment holds."""
    seqs = (list, tuple)  # a JSON array, or the tuple an assignment holds
    if type(value) not in seqs or any(type(p) not in seqs or [*map(type, p)] != [int, int] for p in value):
        raise JSONTypeError(f"{name} should be a list of [int, int] pairs")
    return _detuple(value)


def _columns(recs: list[dict]) -> EventColumns:
    """The event records laid out by the one event schema (`engine.LAYOUTS`);
    raises for a list of records when, and only when, it raises for one of
    them alone.  `read_trace` lays out a file's records in bulk and, only
    when that raises, each record alone to name the first bad one.  A record
    whose kind and payload key set have no layout raises, as does one whose
    time is not an int in int64, whose modality and unit are not those its
    layout has, or whose payload value does not fit its column."""
    t, kind, m, u, data = (list(map(itemgetter(key), recs)) for key in ("t", "kind", "m", "u", "data"))
    codes = list(map(_CODE.get, zip(kind, map(frozenset, map(dict.keys, data)))))
    if None in codes:
        i = codes.index(None)
        raise ValueError(f"no layout for a {kind[i]!r} event with payload keys {sorted(data[i])}")
    cols = {key: np.zeros(len(recs), dtype) for key, dtype in COLUMNS.items()}
    cols.update(t=np.array(_json_values(t, int, "t"), np.int64), code=np.array(codes, np.int64))
    cols.update(m=_ids(m, "m"), u=_ids(u, "u"))
    ids = _IDS[cols["code"]]
    if np.any(((cols["m"] != NULL) != (ids > 0)) | ((cols["u"] != NULL) != (ids > 1))):
        raise ValueError("an event's modality or unit is not the one its layout has")
    for code in set(codes):
        rows = np.flatnonzero(cols["code"] == code)
        group = list(map(data.__getitem__, rows.tolist()))
        for key, col in LAYOUTS[code][2].items():
            values = list(map(itemgetter(key), group))
            values = [_pairs(v, key) for v in values] if col == "p" else _json_values(values, _JSON[col], key)
            cols[col][rows] = column(values, COLUMNS[col])
    if not (np.isfinite(cols["x"]).all() and np.isfinite(cols["y"]).all()):
        raise ValueError("an event's float payload value is not finite")
    return EventColumns(**cols)


_CHUNK = 1 << 14  # bytes of whole lines decoded at a time


def _runs(f) -> Iterator[list[str]]:
    """The lines of the binary file `f`, as `str.splitlines` splits its
    UTF-8 text, a run per `f.readlines(_CHUNK)` chunk.  A chunk is whole
    `\\n`-ended lines, so no UTF-8 sequence and no `\\r\\n` spans two runs,
    and the runs split the file's text as one `str.splitlines` would.  A
    byte that is not UTF-8 raises `CorruptLine` at its line."""
    count = 0  # the lines yielded
    while chunk := f.readlines(_CHUNK):
        data = b"".join(chunk)
        try:
            run = data.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            # the first bad byte's line: the last of the text before it and a stand-in for it
            head = data[: exc.start].decode() + "."
            raise CorruptLine(count + len(head.splitlines()), "not UTF-8") from None
        count += len(run)
        yield run


def _header(fingerprint: str, sample_id: int, mode: str, assignment: list, window_us: int) -> dict:
    """A trace's fields but its log and summary, from those of its header record."""
    return dict(
        fingerprint=fingerprint, sample_id=sample_id, mode=ExecutionMode(mode),
        assignment=ConfigAssignment(_pairs(assignment, "assignment")), window_us=window_us,
    )


class _Reader:
    """A trace file's records, taken a run of lines (a chunk from `_runs`)
    at a time in file order; an open block carries over from one run to the
    next.

    A file's first fault decides its outcome, in this order: a byte that is
    not UTF-8 anywhere in the file (raised by `_runs`), then the first line
    that is not JSON or not a record, then the checksum, then the first
    fault of its block structure.  So a fault of the latter three kinds is
    kept, and the rest of the file still read, until the end of the file.
    The records are walked as they are parsed: each block, header to
    summary, becomes a `SimTrace` at its summary, its events laid out in
    bulk by the schema and checked one by one only when that raises, and
    its records are then dropped."""

    def __init__(self):
        self.count = 0  # lines so far
        self.digest = hashlib.sha256()  # of every line before the checksum, joined by line ends
        self.bad_line: CorruptLine | None = None  # the first line that is not JSON or not a record
        self.fault: ModalsimError | None = None  # the first fault of the block structure
        self.checksum: dict = {}  # the last record
        self.traces: list[SimTrace] = []
        self.header: dict | None = None  # the open block's header fields
        self.events: list[dict] = []  # the open block's event records
        self.first = 0  # the line of the open block's first event record

    def take(self, lines: list[str], last: bool) -> None:
        """Parse and walk the next run of lines; `last` when it ends the file."""
        first, self.count = self.count + 1, self.count + len(lines)
        if self.bad_line is not None:
            return
        data = "\n".join(lines).encode("utf-8")
        try:
            records = _parse(lines, data, first)
        except CorruptLine as exc:
            self.bad_line = exc
            return
        if last:
            self.checksum = records.pop()
            data = data[: max(len(data) - len(lines[-1].encode("utf-8")) - 1, 0)]  # the lines before it
        if records:
            self.digest.update(b"\n" + data if first > 1 else data)
        if self.fault is None:
            try:
                self._walk(records, first)
            except ModalsimError as exc:  # raised once the rest of the file is read
                self.fault = exc

    def result(self) -> list[SimTrace]:
        if self.count == 0:
            raise SchemaVersionMismatch("empty trace file")
        if self.bad_line is not None:
            raise self.bad_line
        if self.checksum["record"] != "checksum":
            raise TraceIntegrityError("missing checksum record")
        if self.checksum.get("sha256") != self.digest.hexdigest():
            raise TraceIntegrityError("trace file contents do not match their checksum")
        if self.fault is not None:
            raise self.fault
        if self.header is not None:
            self._layout()  # a bad event of the open block comes first
            raise SchemaVersionMismatch("trace file ends mid-block")
        return self.traces

    def _walk(self, records: list[dict], first: int) -> None:
        """Walk `records`, the file's from line `first` on; the event
        records between two others are taken as one slice."""
        kinds = list(map(itemgetter("record"), records))
        at = 0  # the next record to walk
        for j in [*compress(range(len(kinds)), map(ne, kinds, repeat("event"))), len(kinds)]:
            if at < j:
                if self.header is None:
                    raise CorruptLine(first + at, "event outside a trace block")
                if not self.events:
                    self.first = first + at
                self.events += records[at:j]
            if j == len(kinds):
                return
            at, i, rec, kind = j + 1, first + j, records[j], kinds[j]
            if kind == "header":
                if self.header is not None:
                    self._layout()
                    raise CorruptLine(i, "header before previous trace's summary")
                if rec.get("schema_version") != TRACE_SCHEMA_VERSION:
                    raise SchemaVersionMismatch(
                        f"unsupported trace schema version {rec.get('schema_version')!r}"
                    )
                try:
                    self.header = read_record(rec, _header)
                except _MALFORMED as exc:
                    raise CorruptLine(i, f"bad header: {type(exc).__name__} {exc}") from None
            elif kind == "summary":
                if self.header is None:
                    raise CorruptLine(i, "summary outside a trace block")
                log = self._layout()
                try:
                    summary = read_record(rec, TraceSummary)
                except _MALFORMED as exc:
                    raise CorruptLine(i, f"bad summary: {type(exc).__name__} {exc}") from None
                self.traces.append(SimTrace(log=log, summary=summary, **self.header))
                self.header, self.events = None, []
            else:
                self._layout()
                raise CorruptLine(i, f"unknown record type {kind!r}")

    def _layout(self) -> EventColumns:
        """The open block's events laid out; the first bad one raises
        `CorruptLine` at its line."""
        try:
            return _columns(self.events)
        except _MALFORMED + (RecursionError,):
            for i, rec in enumerate(self.events, start=self.first):
                try:
                    _columns([rec])
                except _MALFORMED as exc:
                    raise CorruptLine(i, f"bad event: {type(exc).__name__} {exc}") from None
            raise


def read_trace(path: str | Path) -> list[SimTrace]:
    reader = _Reader()
    with open(path, "rb") as f:
        for run in _runs(f):
            reader.take(run, last=not f.peek(1))
    return reader.result()
