"""Latency breakdown reports computed purely from trace contents.

Per (sample, modality): pure encode compute, sensing-bound stall inside the
pipeline, barrier waiting, and the skip saving versus the no-skip projection;
plus a per-sample total row carrying the window-level numbers.  Everything is
recomputed from raw events so an independent script can check each cell.
The events are read from the trace's columns, and the rare rows kept whole
from their tuples.  An event without a payload key the breakdown reads
raises IncompleteTrace; an event whose modality is not an int or None, or
whose time or payload value the breakdown reads is not an int, raises
MalformedTrace.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

import numpy as np

from .core import IncompleteTrace, MalformedTrace
from .engine import KINDS, LAYOUT, NULL, EventKind, SimTrace

CSV_COLUMNS = [
    "sample_id",
    "mode",
    "modality",
    "sensing_bound_us",
    "encode_us",
    "waiting_us",
    "fusion_us",
    "skip_savings_us",
    "reported_latency_us",
]


def breakdown(traces: Sequence[SimTrace] | SimTrace) -> list[dict]:
    if isinstance(traces, SimTrace):
        traces = [traces]
    return [row for trace in traces for row in _trace_rows(trace)]


def _trace_rows(trace: SimTrace) -> list[dict]:
    per, fusion_start, prediction = _facts(trace)
    rows = []
    for mid in sorted(per):
        m = per[mid]
        pipeline_span = _gap(m["first_encode_start"], m["agg_started"])
        sensing_bound = max(pipeline_span - m["encode_cost"], 0)
        skip_savings = 0
        if m["skipped"] and m["unit_encode_us"] is not None and m["agg_started"] is not None:
            # no-skip projection from per-unit trace facts: N slots of max(L_E, L_S)
            n = (m["agg_prefix"] or 0) + m["skipped"]
            slot = max(m["unit_encode_us"], m["interval_us"] or 0)
            natural_agg_start = m["first_encode_start"] + n * slot
            skip_savings = max(natural_agg_start - m["agg_started"], 0)
        waiting = _gap(m["agg_done"], fusion_start)
        rows.append(_row(trace, mid, sensing_bound, m["encode_cost"], waiting, 0, skip_savings, ""))
    encode_us = sum(m["encode_cost"] for m in per.values())
    savings = sum(r["skip_savings_us"] for r in rows)
    fusion_us = _gap(fusion_start, prediction)
    s = trace.summary
    rows.append(_row(trace, "all", "", encode_us, s.waiting_us, fusion_us, savings, s.reported_latency_us))
    return rows


def _gap(start, end) -> int:
    """`end - start`, or 0 when the trace lacks either."""
    return end - start if start is not None and end is not None else 0


def _row(trace: SimTrace, *values) -> dict:
    """A CSV row of `trace`: its sample and mode, then `values` in column order."""
    return dict(zip(CSV_COLUMNS, (trace.sample_id, trace.mode.value, *values)))


def _new_modality() -> dict:
    facts = ("first_encode_start", "unit_encode_us", "interval_us", "agg_started", "agg_done", "agg_prefix")
    return dict.fromkeys(facts, None) | {"encode_cost": 0, "skipped": 0}


def _read(trace: SimTrace, kind: EventKind, keys=()) -> list[tuple]:
    """(modality, time, the payload values under `keys`) of each event of
    `kind` in trace order, but those without a modality when `keys` are
    read: a laid-out row's from its columns, a row kept whole from its
    tuple."""
    c, where = trace.log, f"sample {trace.sample_id}: {kind.value} event"
    at = np.flatnonzero(c.kind == KINDS.index(kind))
    cols = dict(LAYOUT.get(kind, (0, ()))[1])  # a kind without a layout has only whole rows
    values = (getattr(c, cols.get(key, "a"))[at].tolist() for key in keys)
    rows = list(zip(c.m[at].tolist(), c.t[at].tolist(), *values))
    for j in np.flatnonzero(np.not_equal(c.whole, None)[at]).tolist():
        t, _, m, _, payload = c.whole[at[j]]
        if m is None and keys:  # no modality's facts read it
            rows[j] = None
            continue
        data = dict(payload)
        if missing := [key for key in keys if key not in data]:
            raise IncompleteTrace(f"{where} lacks payload key {missing[0]!r}")
        rows[j] = (m, t, *(data[key] for key in keys))
        if set(map(type, rows[j][1:])) - {int}:
            raise MalformedTrace(f"{where} has {rows[j][1:]!r} where the report reads ints")
    return [row for row in rows if row is not None]


def _facts(trace: SimTrace):
    """Per modality the trace facts the rows are computed from, the fusion
    start and the prediction time."""
    c = trace.log
    whole = [row for row in c.whole.tolist() if row is not None]
    for _, kind, m, _, _ in whole:
        if m is not None and type(m) is not int:
            raise MalformedTrace(f"sample {trace.sample_id}: {kind.value} event has modality {m!r}")
    ids = set(c.m[np.equal(c.whole, None) & (c.m != NULL)].tolist()) | {row[2] for row in whole}
    per = {mid: _new_modality() for mid in ids - {None}}
    for mid, t, end in reversed(_read(trace, EventKind.UNIT_SENSED, ("sense_end_us",))):
        per[mid]["interval_us"] = end - t  # read backwards, the first unit's stays
    for mid, t, cost in _read(trace, EventKind.ENCODE_START, ("encode_cost_us",)):
        m = per[mid]
        if m["first_encode_start"] is None:
            m["first_encode_start"] = t
        m["encode_cost"] += cost
        m["unit_encode_us"] = cost
    for mid, t, prefix, started in _read(trace, EventKind.AGGREGATION_DONE, ("prefix", "started_us")):
        per[mid].update(agg_started=started, agg_done=t, agg_prefix=prefix)
    for mid, _, skipped in _read(trace, EventKind.SKIP_COMMITTED, ("units_skipped",)):
        per[mid]["skipped"] = skipped
    fusion, prediction = (_read(trace, k) for k in (EventKind.FUSION_START, EventKind.PREDICTION_EMITTED))
    return per, fusion[-1][1] if fusion else None, prediction[-1][1] if prediction else None


def to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
