"""Test-only builders: a trace from a list of events, laid out by the rule
`read_trace` uses (`engine.layout`), the label a trace predicts, and a gate
that never commits."""

import numpy as np

from modalsim import engine, nn
from modalsim.engine import KINDS, EventColumns, EventKind, SimTrace
from modalsim.gating import GateModel

_ODD = {None: None}  # a payload no kind lays out


def _as_dict(pairs) -> dict:
    """Payload `pairs` as a dict when they are a tuple of (key, value) tuples
    in strictly increasing key order, the order a payload keeps; else `_ODD`."""
    try:
        d = dict(pairs)
        return d if type(pairs) is tuple and tuple(sorted(d.items())) == pairs else _ODD
    except (TypeError, ValueError):
        return _ODD


def event_log(events) -> EventColumns:
    """`events`, `Event`s or plain tuples of their fields, as `EventColumns`."""
    t, kind, m, u, payloads = [list(c) for c in zip(*events)] or [[]] * 5
    data = list(map(_as_dict, payloads))
    return engine.layout(t, list(map(KINDS.index, kind)), m, u, data, payloads.__getitem__)


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
