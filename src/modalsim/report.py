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

from .core import IncompleteTrace
from .engine import EventKind, SimTrace

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
        m = per.setdefault(
            ev.modality,
            {
                "first_encode_start": None,
                "encode_cost": 0,
                "unit_encode_us": None,
                "interval_us": None,
                "agg_started": None,
                "agg_done": None,
                "agg_prefix": None,
                "skipped": 0,
            },
        )
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


def to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
