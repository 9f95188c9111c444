"""trace_text held to its reference: `_dump` over `_trace_records`.

`_dump` is the sorted-key, compact `json.dumps` of one record.  The writer
lays every event out by the engine's event schema, which this file writes
out for itself (`SCHEMA`), and the file it produces must be the one the
reference gives, byte for byte, and read back to the same events.
Hypothesis draws events of every layout with edge values (0, -1, the ends
of int64, signed zeros, subnormals, 1e308, both bools, escapes, non-ASCII,
pairs for 1 to 4 modalities), and any events at all (big ints, bools,
non-finite floats, nested tuples, unsorted and duplicate keys, subclasses,
numpy scalars), which the reference writes and the reader refuses at the
first line off the schema.  The window-pin corpus runs every engine path
through the reference comparison.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import test_window_pins
from builders import sim_trace
from modalsim import traceio
from modalsim.core import ConfigAssignment, ExecutionMode
from modalsim.engine import Event, EventKind, SimTrace, TraceSummary


def reference_text(traces) -> str:
    if isinstance(traces, SimTrace):
        traces = [traces]
    lines = [traceio._dump(r) for trace in traces for r in traceio._trace_records(trace)]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    lines.append(traceio._dump({"record": "checksum", "sha256": digest}))
    return "\n".join(lines) + "\n"


def assert_reference_bytes(traces):
    try:
        expected = reference_text(traces)
    except Exception as exc:  # the writer must fail the same way
        with pytest.raises(type(exc)):
            traceio.trace_text(traces)
        return
    assert traceio.trace_text(traces) == expected


class SubInt(int):
    pass


class SubStr(str):
    pass


# The engine's event schema, written out here rather than read from
# `engine`: each layout's kind, how many of (modality, unit) it has, and its
# payload keys in key order with their values' types ("pairs" for a list of
# [int, int] pairs)
SCHEMA = (
    ("unit_sensed", 2, {"sense_end_us": int}),
    ("encode_start", 2, {"encode_cost_us": int, "resource": str}),
    ("encode_end", 2, {}),
    ("encode_end", 2, {"aborted": bool}),
    ("checkpoint_eval", 1, {"already_completed": bool, "fraction": float}),
    ("checkpoint_eval", 1, {"committed": bool, "fraction": float, "probability": float}),
    ("skip_committed", 1, {"fraction": float, "prefix": int, "probability": float, "units_skipped": int}),
    ("aggregation_done", 1, {"prefix": int, "started_us": int}),
    ("fusion_start", 0, {}),
    ("prediction_emitted", 0, {"label": int}),
    ("config_switch", 0, {"pairs": "pairs", "probe_cost_us": int}),
    ("resource_change", 0, {"level": str}),
)
SCHEMA_KEYS = {(kind, frozenset(types)): (ids, types) for kind, ids, types in SCHEMA}
INT64 = range(-(2**63), 2**63)
ID_LIMIT = 2**31  # a modality or unit is below it


def _json_type(value, kind) -> bool:
    """Whether a parsed JSON value is one of `kind`, as the engine writes it."""
    if kind == "pairs":
        return type(value) is list and all(type(p) is list and [*map(type, p)] == [int, int] for p in value)
    if kind is float:  # an int reads as a float when one can hold it
        try:
            return type(value) in (int, float) and math.isfinite(float(value))
        except OverflowError:
            return False
    return type(value) is kind and (kind is not int or value in INT64)


def _id(value, present: bool) -> bool:
    return type(value) is int and value in INT64 and value < ID_LIMIT if present else value is None


def on_schema(rec) -> bool:
    """Whether a parsed event record is one the engine writes: its kind and
    payload key set name a layout, its time is an int in int64, it has the
    modality and unit the layout has, and each payload value is of its type."""
    try:
        data = rec["data"] if type(rec["data"]) is dict else None
        ids, types = SCHEMA_KEYS[rec["kind"], frozenset(data)]
        t, m, u = rec["t"], rec["m"], rec["u"]
    except (KeyError, TypeError):
        return False
    return (
        type(t) is int and t in INT64 and _id(m, ids > 0) and _id(u, ids > 1)
        and all(_json_type(data[key], kind) for key, kind in types.items())
    )


texts = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f \xe9\U0001f600'), st.characters()))
ints = st.one_of(st.integers(), st.integers(-(2**200), 2**200), st.booleans())
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, float("nan"), float("inf"), float("-inf")]),
)
scalars = st.one_of(
    st.none(),
    ints,
    floats,
    texts,
    st.builds(SubInt, st.integers()),
    st.builds(SubStr, texts),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.float64, st.floats()),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3).map(tuple), st.lists(inner, max_size=3)),
    max_leaves=8,
)
ENGINE_KEYS = sorted({key for _, _, types in SCHEMA for key in types})
keys = st.one_of(st.sampled_from(ENGINE_KEYS), texts, st.builds(SubStr, texts))
payloads = st.one_of(
    st.dictionaries(st.sampled_from(ENGINE_KEYS), values, max_size=4).map(lambda d: tuple(sorted(d.items()))),
    st.dictionaries(keys, values, max_size=4).map(lambda d: tuple(sorted(d.items()))),
    st.lists(st.tuples(keys, values), max_size=4).map(tuple),  # unsorted, duplicates
    st.lists(st.tuples(st.one_of(keys, st.integers(), st.none()), values), max_size=3).map(tuple),
)
small = st.one_of(st.none(), st.integers(0, 5))
# any event at all, mostly off the schema
events = st.builds(
    Event,
    time_us=st.one_of(st.integers(0, 10**7), ints, scalars),
    kind=st.sampled_from(EventKind),
    modality=st.one_of(small, scalars),
    unit=st.one_of(small, scalars),
    payload=payloads,
)

EDGE_INTS = [0, -1, 1, 2**63 - 1, -(2**63)]
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.5, 1.0]
int64s = st.one_of(st.sampled_from(EDGE_INTS), st.integers(-(2**63), 2**63 - 1))
schema_values = {
    int: int64s,
    float: st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)),
    bool: st.booleans(),
    str: texts,
    "pairs": st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=4).map(tuple),
}
ids = st.one_of(st.sampled_from([0, 1, -1, ID_LIMIT - 1, -(2**63)]), st.integers(-(2**63), ID_LIMIT - 1))


@st.composite
def schema_events(draw, layout=st.sampled_from(SCHEMA)):
    """An event of one of the schema's layouts, its values drawn with their edges."""
    kind, n_ids, types = draw(layout)
    m, u = (draw(ids) if n_ids > k else None for k in (0, 1))
    payload = tuple((key, draw(schema_values[value_type])) for key, value_type in types.items())
    return Event(draw(int64s), EventKind(kind), m, u, payload)


@st.composite
def near_schema_events(draw):
    """A schema event with its time, modality, unit or one payload value
    replaced by any scalar, which puts it off the schema or keeps it on."""
    ev = draw(schema_events())
    field = draw(st.integers(0, 2 + len(ev.payload)))
    if field < 3:
        return ev._replace(**{("time_us", "modality", "unit")[field]: draw(scalars)})
    payload = list(ev.payload)
    payload[field - 3] = (payload[field - 3][0], draw(st.one_of(scalars, values)))
    return ev._replace(payload=tuple(payload))


def make_trace(evs, sample_id=0) -> SimTrace:
    return sim_trace(
        fingerprint="ab" * 32,
        sample_id=sample_id,
        mode=ExecutionMode.PIPELINED,
        assignment=ConfigAssignment(((1, 2), (0, 1))),
        window_us=1_000_000,
        events=tuple(evs),
        summary=TraceSummary(12, 3, (4, 5), 6),
    )


FOUR_PAIRS = ((1, 2), (0, 0), (9, 9), (3, 4))


def assert_round_trip(blocks, path):
    """Traces of `blocks` of schema events: laid out as given, written as the
    reference writes them, and read back to equal `Event`s and the same bytes."""
    traces = [make_trace(evs, i) for i, evs in enumerate(blocks)]
    assert [trace.events for trace in traces] == [tuple(evs) for evs in blocks]
    assert_reference_bytes(traces)
    traceio.write_trace(traces, path)
    back = traceio.read_trace(path)
    assert back == traces
    assert [trace.events for trace in back] == [tuple(evs) for evs in blocks]
    assert traceio.trace_text(back) == path.read_text()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blocks=st.lists(st.lists(schema_events(), max_size=6), min_size=1, max_size=3))
@example(blocks=[])
@example(blocks=[[Event(0, EventKind.CONFIG_SWITCH, payload=(("pairs", ((1, 2),)), ("probe_cost_us", 0)))]])
@example(blocks=[[Event(-1, EventKind.CONFIG_SWITCH, payload=(("pairs", FOUR_PAIRS), ("probe_cost_us", 2**63 - 1)))]])
def test_schema_events_round_trip_to_their_reference_bytes(blocks, tmp_path):
    assert_round_trip(blocks, tmp_path / "t.jsonl")


@pytest.mark.parametrize("layout", SCHEMA, ids=lambda layout: f"{layout[0]}-{'-'.join(layout[2])}")
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_layout_round_trips(layout, data, tmp_path):
    evs = data.draw(st.lists(schema_events(st.just(layout)), min_size=1, max_size=4))
    assert_round_trip([evs], tmp_path / "t.jsonl")


any_events = st.one_of(events, schema_events(), near_schema_events())


def reference_file(blocks, path):
    """A file of one trace per block of `blocks` of any events, each line
    written by the reference writer `_dump`, which writes an event off the
    schema too.  Raises as `_dump` does for an event it cannot write."""
    lines = []
    for i, evs in enumerate(blocks):
        trace = make_trace([], i)
        records = [traceio._header_record(trace), *(traceio._event_record(*ev) for ev in evs)]
        lines += map(traceio._dump, records + [traceio._summary_record(trace)])
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    path.write_text("\n".join(lines + [traceio._dump({"record": "checksum", "sha256": digest})]) + "\n")
    return path


def parsed_event(rec) -> tuple:
    """An event record's fields as the file holds them, payload keys in key order."""
    payload = tuple(sorted((k, traceio._detuple(v)) for k, v in rec["data"].items()))
    return rec["t"], EventKind(rec["kind"]), rec["m"], rec["u"], payload


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blocks=st.lists(st.lists(any_events, max_size=3), min_size=1, max_size=3))
def test_any_events_read_back_on_the_schema_and_fail_at_the_first_line_off_it(blocks, tmp_path):
    # whatever events the reference writer writes, the reader gives them
    # back when each is on the schema, and else refuses the first one off
    # it at its line
    try:
        path = reference_file(blocks, tmp_path / "t.jsonl")
    except (TypeError, ValueError):  # an event the JSON writer cannot write
        return
    records = [json.loads(line) for line in path.read_text().splitlines()]
    off = [i for i, rec in enumerate(records, start=1) if rec["record"] == "event" and not on_schema(rec)]
    if off:
        with pytest.raises(traceio.CorruptLine) as err:
            traceio.read_trace(path)
        assert err.value.line_number == off[0]
        return
    back = traceio.read_trace(path)
    assert [ev for trace in back for ev in trace.events] == [
        parsed_event(rec) for rec in records if rec["record"] == "event"
    ]
    assert_reference_bytes(back)


@pytest.mark.parametrize("layout", SCHEMA, ids=lambda layout: f"{layout[0]}-{'-'.join(layout[2])}")
@pytest.mark.parametrize("modality, unit", [(None, None), (0, None), (None, 3), (2, 7)])
def test_every_layout_with_and_without_modality_and_unit(layout, modality, unit, tmp_path):
    # an event with the modality and unit its layout has round-trips, and
    # one with any other is refused at its line
    kind, n_ids, types = layout
    example_values = {int: -1, float: -0.0, bool: True, str: 'x"y\\z ', "pairs": ((1, 2), (0, 1))}
    ev = Event(5, EventKind(kind), modality, unit, tuple((key, example_values[t]) for key, t in types.items()))
    path = tmp_path / "t.jsonl"
    if (modality is not None, unit is not None) == (n_ids > 0, n_ids > 1):
        assert_round_trip([[ev]], path)
        return
    with pytest.raises(traceio.CorruptLine, match="^line 2: bad event: ValueError an event's modality or unit"):
        traceio.read_trace(reference_file([[ev]], path))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("key", ["fraction", "probability"])
def test_a_float_payload_value_that_is_not_finite_fails_typed(key, value, tmp_path):
    payload = {"committed": False, "fraction": 0.5, "probability": 0.25} | {key: value}
    ev = Event(5, EventKind.CHECKPOINT_EVAL, 0, None, tuple(payload.items()))
    with pytest.raises(ValueError, match="not finite"):
        make_trace([ev])
    with pytest.raises(traceio.CorruptLine, match="^line 2: bad event: ValueError .*not finite"):
        traceio.read_trace(reference_file([[ev]], tmp_path / "t.jsonl"))


def test_window_pin_corpus_matches_reference(monkeypatch):
    real = traceio.trace_text
    checked = []

    def compared(traces):
        text = real(traces)
        assert text == reference_text(traces)
        checked.append(text)
        return text

    monkeypatch.setattr(traceio, "trace_text", compared)
    for name in test_window_pins._scenarios():
        test_window_pins._trace_digest(name)
    assert len(checked) == 2 * 216
