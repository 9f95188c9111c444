"""Test-only builders: a trace from a list of events on the event schema,
laid out by the rule `read_trace` uses (`traceio._columns`), the label a
trace predicts, and a gate that never commits."""

import numpy as np

from modalsim import nn, traceio
from modalsim.engine import EventColumns, EventKind, SimTrace
from modalsim.gating import GateModel


def event_log(events) -> EventColumns:
    """`events`, `Event`s or plain tuples of their fields, each on the
    engine's event schema, as `EventColumns`."""
    return traceio._columns([traceio._event_record(*ev) for ev in events])


def sim_trace(*, events, **fields) -> SimTrace:
    """A `SimTrace` of the other `SimTrace` fields and `events`."""
    return SimTrace(log=event_log(events), **fields)


def predicted_label(trace: SimTrace) -> int:
    for ev in trace.of_kind(EventKind.PREDICTION_EMITTED):
        return dict(ev[4])["label"]
    raise ValueError("trace has no prediction event")


def zero_gate(fast_dim: int, slow_dim: int) -> GateModel:
    """All-zero weights over four hidden units: outputs exactly 0.5 for every input."""
    dim, hidden = fast_dim + slow_dim + 1, 4
    weights = np.zeros((dim, hidden)), np.zeros(hidden), np.zeros(hidden), 0.0
    return GateModel(fast_dim, slow_dim, nn.MLP(*weights, np.zeros(dim), np.ones(dim)), dropout=0.0)
