"""Latency breakdown reports computed purely from trace contents.

Per (sample, modality): pure encode compute, sensing-bound stall inside the
pipeline, barrier waiting, and the skip saving versus the no-skip projection;
plus a per-sample total row carrying the window-level numbers.  Everything is
recomputed from raw events so an independent script can check each cell.
The events are read from the trace's columns, each kind the breakdown
reads from the columns of its one layout in the event schema
(`engine.LAYOUTS`), so every time and value it reads is an int: the trace
reader refuses an event off that schema.  The CSV is made a line at a time
(`csv_lines`), so a caller can write each line as its trace is read.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .engine import LAYOUTS, NULL, EventKind, SimTrace

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
    `kind` in trace order, from the columns of its one layout."""
    ((code, cols),) = [(code, cols) for code, (k, _, cols) in enumerate(LAYOUTS) if k is kind]
    c = trace.log
    at = np.flatnonzero(c.code == code)
    values = (getattr(c, cols[key])[at].tolist() for key in keys)
    return list(zip(c.m[at].tolist(), c.t[at].tolist(), *values))


def _facts(trace: SimTrace):
    """Per modality the trace facts the rows are computed from, the fusion
    start and the prediction time."""
    c = trace.log
    per = {mid: _new_modality() for mid in set(c.m[c.m != NULL].tolist())}
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


def csv_lines(rows: Iterable[dict]) -> Iterator[str]:
    """The CSV's header line, then one line per row as it is drawn.  Every
    value is an int, a fixed ASCII word or empty, so `str` writes each as
    `csv.DictWriter` would, and none needs quoting."""
    yield ",".join(CSV_COLUMNS) + "\n"
    for row in rows:
        yield ",".join([str(row[column]) for column in CSV_COLUMNS]) + "\n"


def to_csv(rows: Iterable[dict]) -> str:
    return "".join(csv_lines(rows))
