"""Latency breakdown reports computed purely from trace contents.

Per (sample, modality): pure encode compute, sensing-bound stall inside the
pipeline, barrier waiting, and the skip saving versus the no-skip projection;
plus a per-sample total row carrying the window-level numbers.  Everything is
recomputed from raw events so an independent script can check each cell; an
event without a payload key the breakdown reads raises IncompleteTrace.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

import numpy as np

from .core import IncompleteTrace
from .engine import KINDS, NULL, EventColumns, EventKind, SimTrace

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
    rows = []
    for trace in traces:
        rows.extend(_trace_rows(trace))
    return rows


def _trace_rows(trace: SimTrace) -> list[dict]:
    per, fusion_start, prediction = _column_facts(trace) or _event_facts(trace)
    fusion_us = (prediction - fusion_start) if prediction is not None and fusion_start is not None else 0
    rows = []
    for mid in sorted(per):
        m = per[mid]
        agg_done = m["agg_done"]
        waiting = (fusion_start - agg_done) if fusion_start is not None and agg_done is not None else 0
        pipeline_span = (
            (m["agg_started"] - m["first_encode_start"])
            if m["agg_started"] is not None and m["first_encode_start"] is not None
            else 0
        )
        sensing_bound = max(pipeline_span - m["encode_cost"], 0)
        skip_savings = 0
        if m["skipped"] and m["unit_encode_us"] is not None and m["agg_started"] is not None:
            # no-skip projection from per-unit trace facts: N slots of max(L_E, L_S)
            n = (m["agg_prefix"] or 0) + m["skipped"]
            slot = max(m["unit_encode_us"], m["interval_us"] or 0)
            natural_agg_start = m["first_encode_start"] + n * slot
            skip_savings = max(natural_agg_start - m["agg_started"], 0)
        rows.append(
            {
                "sample_id": trace.sample_id,
                "mode": trace.mode.value,
                "modality": mid,
                "sensing_bound_us": sensing_bound,
                "encode_us": m["encode_cost"],
                "waiting_us": waiting,
                "fusion_us": 0,
                "skip_savings_us": skip_savings,
                "reported_latency_us": "",
            }
        )
    rows.append(
        {
            "sample_id": trace.sample_id,
            "mode": trace.mode.value,
            "modality": "all",
            "sensing_bound_us": "",
            "encode_us": sum(m["encode_cost"] for m in per.values()),
            "waiting_us": trace.summary.waiting_us,
            "fusion_us": fusion_us,
            "skip_savings_us": sum(r["skip_savings_us"] for r in rows),
            "reported_latency_us": trace.summary.reported_latency_us,
        }
    )
    return rows


def _new_modality() -> dict:
    facts = ("first_encode_start", "unit_encode_us", "interval_us", "agg_started", "agg_done", "agg_prefix")
    return dict.fromkeys(facts, None) | {"encode_cost": 0, "skipped": 0}


def _event_facts(trace: SimTrace):
    """Per modality the trace facts the rows are computed from, the fusion
    start and the prediction time, read event by event."""
    per: dict[int, dict] = {}
    fusion_start = None
    prediction = None
    for ev in trace.events:
        if ev.kind is EventKind.FUSION_START:
            fusion_start = ev.time_us
        elif ev.kind is EventKind.PREDICTION_EMITTED:
            prediction = ev.time_us
        if ev.modality is None:
            continue
        m = per.setdefault(ev.modality, _new_modality())
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
        except KeyError as exc:  # only payload keys can be missing; `m` has every key
            raise IncompleteTrace(
                f"sample {trace.sample_id}: {ev.kind.value} event lacks payload key {exc.args[0]!r}"
            ) from None
    return per, fusion_start, prediction


# the kinds whose payloads the facts read from the `a` and `b` columns
_READS = [
    KINDS.index(EventKind.UNIT_SENSED),
    KINDS.index(EventKind.ENCODE_START),
    KINDS.index(EventKind.AGGREGATION_DONE),
]


def _column_facts(trace: SimTrace):
    """`_event_facts` read from the columns without building an `Event`, or
    None when the trace has no columns, a row of a kind in `_READS` keeps its
    payload whole, or a skip commit lacks its count."""
    c = trace.log
    if not isinstance(c, EventColumns) or np.isin(c.kind[np.not_equal(c.payload, None)], _READS).any():
        return None
    skips = trace.of_kind(EventKind.SKIP_COMMITTED)
    if any("units_skipped" not in dict(ev[4]) for ev in skips):
        return None
    per = {mid: _new_modality() for mid in np.unique(c.m[c.m != NULL]).tolist()}
    for mid, m in per.items():
        sensed, starts, aggs = (np.flatnonzero((c.m == mid) & (c.kind == k)).tolist() for k in _READS)
        costs = c.a[starts].tolist()
        if sensed:
            m["interval_us"] = int(c.a[sensed[0]]) - int(c.t[sensed[0]])
        if starts:
            m.update(first_encode_start=int(c.t[starts[0]]), encode_cost=sum(costs))
            m["unit_encode_us"] = costs[-1]
        if aggs:
            last = aggs[-1]
            m.update(agg_started=int(c.b[last]), agg_done=int(c.t[last]), agg_prefix=int(c.a[last]))
    for _, _, mid, _, payload in skips:
        if mid is not None:
            per[mid]["skipped"] = dict(payload)["units_skipped"]
    fusion, prediction = (trace.of_kind(k) for k in (EventKind.FUSION_START, EventKind.PREDICTION_EMITTED))
    return per, fusion[-1][0] if fusion else None, prediction[-1][0] if prediction else None


def to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
