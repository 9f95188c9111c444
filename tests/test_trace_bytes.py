"""trace_text held to its reference: `_dump` over `_trace_records`.

`_dump` is the sorted-key, compact `json.dumps` of one record.  Whatever
path the writer takes to an event line, the file it produces must be the
one the reference gives, byte for byte, or fail with the same exception.
Hypothesis draws events of every kind with awkward payloads (big ints,
bools, signed zeros, subnormals, non-finite floats, escapes, non-ASCII,
nested tuples, unsorted and duplicate keys, subclasses, numpy scalars);
the window-pin corpus runs every engine path through the same comparison.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
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


ENGINE_KEYS = (
    "aborted", "already_completed", "committed", "encode_cost_us", "fraction", "label",
    "level", "pairs", "prefix", "probability", "probe_cost_us", "resource",
    "sense_end_us", "started_us", "units_skipped",
)

texts = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f \xe9\U0001f600'), st.characters()))
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
keys = st.one_of(st.sampled_from(ENGINE_KEYS), texts, st.builds(SubStr, texts))
payloads = st.one_of(
    st.dictionaries(st.sampled_from(ENGINE_KEYS), values, max_size=4).map(lambda d: tuple(sorted(d.items()))),
    st.dictionaries(keys, values, max_size=4).map(lambda d: tuple(sorted(d.items()))),
    st.lists(st.tuples(keys, values), max_size=4).map(tuple),  # unsorted, duplicates
    st.lists(st.tuples(st.one_of(keys, st.integers(), st.none()), values), max_size=3).map(tuple),
)
small = st.one_of(st.none(), st.integers(0, 5))
events = st.builds(
    Event,
    time_us=st.one_of(st.integers(0, 10**7), ints, scalars),
    kind=st.sampled_from(EventKind),
    modality=st.one_of(small, scalars),
    unit=st.one_of(small, scalars),
    payload=payloads,
)


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


@settings(max_examples=200, deadline=None)
@given(st.lists(events, max_size=6))
def test_hypothesis_events_match_reference(evs):
    assert_reference_bytes(make_trace(evs))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(events, max_size=3), min_size=1, max_size=3))
def test_multi_trace_files_match_reference(blocks):
    assert_reference_bytes([make_trace(evs, i) for i, evs in enumerate(blocks)])


@pytest.mark.parametrize("kind", list(EventKind))
@pytest.mark.parametrize("modality, unit", [(None, None), (0, None), (None, 3), (2, 7)])
def test_every_kind_with_and_without_modality_and_unit(kind, modality, unit):
    payload = (("a", 1), ("b", -0.0), ("c", (1, (2.5, None))), ("d", "x\"y\\z "), ("e", True))
    assert_reference_bytes(make_trace([Event(5, kind, modality, unit, payload)]))


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
