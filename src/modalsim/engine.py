"""Deterministic virtual-time simulator for one sample window.

Executes a scenario in blocking, non-blocking, or pipelined mode and emits an
ordered event trace.  Unit timing follows the streamed-unit model: a unit's
encode may overlap its own sensing interval but can never complete before the
unit is fully sensed, so with a constant resource level the pipelined encode
of N units finishes at exactly N * max(L_E, L_S) and the trace agrees with
the closed-form latency model to the microsecond.

`run` goes through three stages, each over one plan per modality:
  _schedule    per-unit encode timing and the aggregation after the last
               encode.  One rule serves every mode: the encoder runs the
               units back to back, each encode starting when the one
               before it ends.  A unit's sensing has always begun by then,
               since an encode never ends before its own unit is fully
               sensed, and unit u-1 is fully sensed when unit u's sensing
               begins.  Blocking mode differs only in when the first
               encode starts: at the end of the window instead of its
               start.
  _apply_skip  pipelined mode with checkpoints: asks the gate at each
               checkpoint of the slow modality and commits, through
               `gating.gate_eval`, the first that fires, aggregating the
               prefix at the evaluation time.
  _emit        the unit and aggregation events, truncated at a skip commit
               or (non-blocking) at fusion, and the peak buffer count.

Every event the engine writes has one layout in one table, `LAYOUTS`,
which its kind and payload key set pick out: the one event schema, which
the trace writer, the reader and the report share.  A window writes about
three events per unit, so every trace keeps its events as `EventColumns`,
the one form from the engine to the report: a row's layout code, int64
columns for time, modality and unit, and typed columns for the payload
values its layout names.  `_emit` fills a modality's rows with array
operations, and one stable `np.lexsort` on (time, modality, unit, the
kind's rank) puts the window in trace order.  An `Event`, a plain
`NamedTuple` record equal to a tuple of its five fields, is built only
when `SimTrace.events` is first read.

The window-feature model lives here alone, and every other module goes
through it: `feature_vector` (one modality's temporal aggregate),
`feature_widths` and `fused_label` (the prediction head over the vectors
concatenated in modality order).

Mode semantics:
  blocking      all units of all modalities are sensed first; each modality
                then encodes its window as one back-to-back block of N jobs,
                aggregates, and meets the fusion barrier.
  pipelined     per modality, unit u is sensed during [u*L_S, (u+1)*L_S) and
                encoded by a single FIFO worker as data arrives; aggregation
                follows the last encode; fusion waits for all modalities.
                Speculative skipping runs in this mode only.
  non_blocking  fusion fires when the fastest modality finishes aggregation;
                unfinished modalities contribute a zero-padded snapshot of
                whatever units they have encoded by then (snapshot costs no
                virtual time; it is the neutral baseline, not imputation).

Encode jobs pin the resource level active at their start time.  Gate
checkpoint evaluations cost zero virtual time; their wall cost is bounded
separately.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import nn, rng
from .aggregation import DiffSpec, ShiftSpec, aggregate_output_dim, aggregate_vector
from .core import (
    ConfigAssignment,
    ExecutionMode,
    GateRequiredButMissing,
    Sample,
    Scenario,
    check_assignment,
    memoized,
)
from .latency import end_to_end_latency
from .gating import checkpoints, gate_eval
from .scenario_io import fingerprint

NUM_CLASSES = 8

DEFAULT_SHIFT = ShiftSpec(n_groups=3, shift_distance=1)
DEFAULT_DIFF = DiffSpec(scales=(1, 2), encoder_width=8)

NULL = 1 << 31  # the m or u column of an event without a modality or unit; sorts after any id
_NEVER = np.iinfo(np.int64).max  # the cut of a modality without a skip commit


class EventKind(enum.Enum):
    UNIT_SENSED = "unit_sensed"
    ENCODE_START = "encode_start"
    ENCODE_END = "encode_end"
    CHECKPOINT_EVAL = "checkpoint_eval"
    SKIP_COMMITTED = "skip_committed"
    AGGREGATION_DONE = "aggregation_done"
    FUSION_START = "fusion_start"
    PREDICTION_EMITTED = "prediction_emitted"
    CONFIG_SWITCH = "config_switch"
    RESOURCE_CHANGE = "resource_change"


KINDS = tuple(EventKind)  # a kind's declaration index is its sort rank

# The one event schema: each layout of an event the engine writes, a row's
# `code` being its index here.  A layout is a kind, how many of (modality,
# unit) the event has, and its payload keys in key order, each with the
# column that holds its value (`COLUMNS`): `a`, `b` int; `x`, `y` finite
# float; `c` bool; `s` str; `p` (int, int) pairs.
LAYOUTS = (
    (EventKind.UNIT_SENSED, 2, {"sense_end_us": "a"}),
    (EventKind.ENCODE_START, 2, {"encode_cost_us": "a", "resource": "s"}),
    (EventKind.ENCODE_END, 2, {}),
    (EventKind.ENCODE_END, 2, {"aborted": "c"}),
    (EventKind.CHECKPOINT_EVAL, 1, {"already_completed": "c", "fraction": "x"}),
    (EventKind.CHECKPOINT_EVAL, 1, {"committed": "c", "fraction": "x", "probability": "y"}),
    (EventKind.SKIP_COMMITTED, 1, {"fraction": "x", "prefix": "a", "probability": "y", "units_skipped": "b"}),
    (EventKind.AGGREGATION_DONE, 1, {"prefix": "a", "started_us": "b"}),
    (EventKind.FUSION_START, 0, {}),
    (EventKind.PREDICTION_EMITTED, 0, {"label": "a"}),
    (EventKind.CONFIG_SWITCH, 0, {"pairs": "p", "probe_cost_us": "a"}),
    (EventKind.RESOURCE_CHANGE, 0, {"level": "s"}),
)
_RANK = np.array([KINDS.index(kind) for kind, _, _ in LAYOUTS])
COLUMNS = {  # each `EventColumns` column's dtype
    "t": np.int64, "code": np.int64, "m": np.int64, "u": np.int64, "a": np.int64, "b": np.int64,
    "x": np.float64, "y": np.float64, "c": bool, "s": object, "p": object,
}
# a layout's code and the slot in a row of each of its payload values, by
# its kind and payload keys in key order
_SLOTS = {
    (kind, *cols): (code, [list(COLUMNS).index(col) for col in cols.values()])
    for code, (kind, _, cols) in enumerate(LAYOUTS)
}
_NO_PAYLOAD = [0] * (len(COLUMNS) - 4)  # a row's payload columns before its values go in


class Event(NamedTuple):
    """One trace event: a plain tuple record with named fields.

    Equality, hashing, repr and immutability are the tuple's, so an event
    also compares equal to a plain tuple of the same five fields.  `payload`
    holds (key, value) pairs with exact-str keys in strictly increasing
    order, the order the trace file keeps.
    """

    time_us: int
    kind: EventKind
    modality: int | None = None
    unit: int | None = None
    payload: tuple = ()

    def payload_dict(self) -> dict:
        return dict(self.payload)


@dataclass(frozen=True, eq=False)
class EventColumns:
    """A trace's events as columns, one row per event in trace order.

    `code` is a row's layout (an index into `LAYOUTS`); `t`, `m` and `u`
    are int64, with NULL for no modality or unit.  A row keeps each payload
    value in the column its layout names, and 0 of their type in the other
    payload columns (`COLUMNS`).
    """

    t: np.ndarray
    code: np.ndarray
    m: np.ndarray
    u: np.ndarray
    a: np.ndarray
    b: np.ndarray
    x: np.ndarray
    y: np.ndarray
    c: np.ndarray
    s: np.ndarray
    p: np.ndarray

    def columns(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in COLUMNS]

    def take(self, index) -> EventColumns:
        """The rows a slice or an array of row numbers selects."""
        return EventColumns(*(c[index] for c in self.columns()))

    def rows(self) -> list[tuple]:
        """The rows in order, each as the plain tuple of its `Event`'s fields."""
        rows = [None] * len(self.t)
        for code, (kind, ids, cols) in enumerate(LAYOUTS):
            at = np.flatnonzero(self.code == code)
            m = self.m[at].tolist() if ids > 0 else [None] * len(at)
            u = self.u[at].tolist() if ids > 1 else [None] * len(at)
            values = zip(*(getattr(self, c)[at].tolist() for c in cols.values())) if cols else [()] * len(at)
            for i, t, mi, ui, v in zip(at.tolist(), self.t[at].tolist(), m, u, values):
                rows[i] = (t, kind, mi, ui, tuple(zip(cols, v)))
        return rows

    def __eq__(self, other):  # the same rows in the same columns
        return type(other) is type(self) and all(map(np.array_equal, self.columns(), other.columns()))

    def __hash__(self):
        return hash(self.events())

    @memoized
    def events(self) -> tuple[Event, ...]:
        """The rows as `Event` records, built on the first call."""
        return tuple(Event(*row) for row in self.rows())


def column(values, dtype) -> np.ndarray:
    """A 1-d array of `values`; an object column keeps tuples whole."""
    return np.fromiter(values, object, len(values)) if dtype is object else np.asarray(values, dtype)


def _row(t, kind, m=None, u=None, **payload) -> list:
    """One event's row of `EventColumns` values: its kind and payload keys,
    given in key order, name its layout, which puts each payload value in
    its column and 0 in the others."""
    code, slots = _SLOTS[(kind, *payload)]
    row = [t, code, NULL if m is None else m, NULL if u is None else u, *_NO_PAYLOAD]
    for slot, value in zip(slots, payload.values()):
        row[slot] = value
    return row


def _sorted(rows: list[list], blocks: list[dict]) -> EventColumns:
    """Single rows, and column blocks that leave out payload columns they
    have no values in, in trace order: one stable sort on (t, m, u, kind's
    rank).  Only events of one kind from one source can tie (two checkpoint
    evaluations at one time), and they keep their order here."""
    blocks = [{key: column(c, dtype) for (key, dtype), c in zip(COLUMNS.items(), zip(*rows))}, *blocks]
    log = EventColumns(*(
        np.concatenate([b[key] if key in b else np.zeros(len(b["t"]), dtype) for b in blocks])
        for key, dtype in COLUMNS.items()
    ))
    return log.take(np.lexsort((_RANK[log.code], log.u, log.m, log.t)))


@dataclass(frozen=True)
class TraceSummary:
    reported_latency_us: int
    waiting_us: int
    peak_buffered_units: tuple[int, ...]
    skipped_unit_count: int


@dataclass(frozen=True)
class SimTrace:
    """One window's trace, its events held as `EventColumns` in `log`."""

    fingerprint: str
    sample_id: int
    mode: ExecutionMode
    assignment: ConfigAssignment
    window_us: int
    log: EventColumns
    summary: TraceSummary

    @property
    def events(self) -> tuple[Event, ...]:
        return self.log.events()

    def of_kind(self, kind: EventKind) -> list[tuple]:
        """The events of one kind as tuples of `Event` fields, without
        building an `Event`."""
        return self.log.take(_RANK[self.log.code] == KINDS.index(kind)).rows()


def apply_resource_schedule(scenario: Scenario, time_us: int) -> str:
    """Resource level whose left-closed interval contains the queried time."""
    idx = bisect.bisect_right(scenario.resource_schedule, time_us, key=itemgetter(0)) - 1
    return scenario.resource_schedule[max(idx, 0)][1]


@memoized
def prediction_head(scenario: Scenario, fused_dim: int) -> np.ndarray:
    """Fixed seeded linear classifier used as the synthetic prediction stage,
    drawn once per scenario instance and read-only."""
    s = rng.stream(scenario.accuracy_surface_seed, "fusion-head", fused_dim)
    return s.symmetric(NUM_CLASSES * fused_dim).reshape(NUM_CLASSES, fused_dim)


def feature_vector(rows: np.ndarray) -> np.ndarray:
    """The vector one modality fuses: the temporal aggregate of its unit rows."""
    return aggregate_vector(rows, DEFAULT_SHIFT, DEFAULT_DIFF)


def feature_widths(scenario: Scenario) -> list[int]:
    """Per modality, the width of its `feature_vector`, for any row count."""
    return [aggregate_output_dim(m.channels, DEFAULT_DIFF) for m in scenario.modalities]


def fused_label(scenario: Scenario, vectors) -> int:
    """The predicted class of the modality vectors concatenated in modality
    order: the argmax of the prediction head over the fused vector."""
    fused = np.concatenate(vectors)
    return int(np.argmax(nn.dot(prediction_head(scenario, len(fused)), fused)))


def slow_modality(scenario: Scenario, assignment: ConfigAssignment, at_us: int) -> int:
    """The modality speculative skipping truncates: the one with the largest
    projected unimodal latency at the resource level active at `at_us`."""
    resource = apply_resource_schedule(scenario, at_us)
    return int(np.argmax(end_to_end_latency(scenario, assignment, resource).per_modality_us))


class _ModalityPlan:
    """One modality's unit timing, aggregation and fused vector within a
    window.  Per unit it keeps only the encode's end and resource level:
    unit u's sensing starts at `window_start + u * interval`, its encode at
    `first` for unit 0 and at unit u-1's encode end for any other, and the
    encode costs what `costs` holds for its level."""

    def __init__(self, scenario, assignment, modality, window_start):
        self.scenario = scenario
        self.modality = modality
        self.levels = assignment.pairs[modality.id]
        sensing = scenario.sensing(modality.id, self.levels[0])
        self.n = sensing.units_per_window
        self.interval = sensing.interval_us
        self.window_start = window_start
        self.first = window_start  # the first encode's start: the window's end in blocking mode
        if scenario.execution_mode is ExecutionMode.BLOCKING:
            self.first += scenario.window_us
        self.rows: np.ndarray | None = None  # the unit payload rows, drawn by `run`
        self.enc_end: list[int] = []
        self.enc_resource: list[str] = []
        self.costs: dict[str, int] = {}  # resource level -> unit encode cost, looked up once per window
        self.agg_start = self.agg_done = self.agg_prefix = 0
        self.fused: np.ndarray | None = None
        self.cut = _NEVER  # skip commit: units not encoded by then are dropped

    def entry(self, resource: str):
        return self.scenario.latency_profile.lookup(self.modality.id, *self.levels, resource)

    def aggregate_at(self, time_us: int, prefix: int) -> None:
        """Aggregate the first `prefix` units, starting at `time_us`."""
        resource = apply_resource_schedule(self.scenario, time_us)
        self.agg_start = time_us
        self.agg_done = time_us + self.entry(resource).aggregation_us
        self.agg_prefix = prefix


def run(
    scenario: Scenario,
    assignment: ConfigAssignment,
    sample: Sample,
    gate=None,
    *,
    config_decision=None,
) -> SimTrace:
    """Simulate one sample and return its trace.

    `gate` is any object with probability(f_fast, f_slow_prefix, fraction);
    it is required when the scenario configures skip checkpoints and the mode
    is pipelined.  `config_decision`, when given, is an optimizer decision
    record; it prepends a config_switch event and delays the window start by
    its `probe_cost_us`.
    """
    check_assignment(scenario, assignment)
    mode = scenario.execution_mode
    t_w = scenario.window_us

    rows, blocks = [], []  # single events, and each modality's unit events as column blocks
    window_start = 0
    if config_decision is not None:
        window_start = config_decision.probe_cost_us
        switch = dict(pairs=tuple(assignment.pairs), probe_cost_us=window_start)
        rows.append(_row(0, EventKind.CONFIG_SWITCH, **switch))

    skipping = mode is ExecutionMode.PIPELINED and bool(scenario.skip_checkpoints)
    if skipping and gate is None:
        raise GateRequiredButMissing("scenario configures skip checkpoints; pipelined runs need a gate")

    plans = [_schedule(scenario, assignment, m, window_start) for m in scenario.modalities]
    sample.rows(scenario.modalities)  # every modality's rows, in one draw pass
    for p in plans:
        p.rows = sample.window_payload(p.modality, p.n)
    if skipping:
        _apply_skip(scenario, assignment, plans, gate, window_start, rows)

    done = [p.agg_done for p in plans]
    fusion_start = min(done) if mode is ExecutionMode.NON_BLOCKING else max(done)
    peaks = tuple(_emit(plan, fusion_start, rows, blocks) for plan in plans)

    # resource changes up to the fusion point
    for t, level in scenario.resource_schedule:
        if t <= fusion_start:
            rows.append(_row(t, EventKind.RESOURCE_CHANGE, level=level))

    label = fused_label(scenario, [p.fused for p in plans])

    rows.append(_row(fusion_start, EventKind.FUSION_START))
    prediction_time = fusion_start + scenario.latency_profile.fusion_us
    rows.append(_row(prediction_time, EventKind.PREDICTION_EMITTED, label=label))

    summary = TraceSummary(
        reported_latency_us=(prediction_time - window_start) - t_w,
        waiting_us=fusion_start - min(done),
        peak_buffered_units=peaks,
        skipped_unit_count=sum(p.n - p.agg_prefix for p in plans),
    )
    return SimTrace(
        fingerprint=fingerprint(scenario),
        sample_id=sample.id,
        mode=mode,
        assignment=assignment,
        window_us=t_w,
        log=_sorted(rows, blocks),
        summary=summary,
    )


def _schedule(scenario, assignment, modality, window_start) -> _ModalityPlan:
    """Per-unit encode timing, then aggregation after the last encode.  The
    timeline depends only on these arguments, never on the sample.

    Unit u is sensed during [w + u*L, w + (u+1)*L) from the window start w.
    One FIFO encoder runs the units back to back from `first`, w or, in
    blocking mode, w + T_w: unit u's encode starts when unit u-1's ends,
    pins the resource level in force then, and ends at the later of its
    start plus its cost c and the end of the unit's sensing,
    end_u = max(end_{u-1} + c, w + (u+1)*L).
    """
    plan = _ModalityPlan(scenario, assignment, modality, window_start)
    end = plan.first
    for u in range(1, plan.n + 1):
        resource = apply_resource_schedule(scenario, end)
        if resource not in plan.costs:
            plan.costs[resource] = plan.entry(resource).unit_encode_us
        end = max(end + plan.costs[resource], window_start + u * plan.interval)
        plan.enc_end.append(end)
        plan.enc_resource.append(resource)
    plan.aggregate_at(end, plan.n)
    return plan


def _apply_skip(scenario, assignment, plans, gate, window_start, rows) -> None:
    """Evaluate checkpoints on the slow modality; commit the first that fires.

    A checkpoint is evaluated once its prefix is encoded and every other
    modality has aggregated.  A commit aggregates the prefix at that time
    and cuts the slow modality's remaining units there.
    """
    slow_id = slow_modality(scenario, assignment, window_start)
    slow = plans[slow_id]
    others = [p for p in plans if p is not slow]
    fast_done = max((p.agg_done for p in others), default=window_start)
    for p in others:
        p.fused = feature_vector(p.rows)
    f_fast = np.concatenate([p.fused for p in others]) if others else np.zeros(0)

    for prefix, fraction in checkpoints(scenario.skip_checkpoints, slow.n):
        t_eval = max(slow.enc_end[prefix - 1], fast_done)
        evaluated = t_eval, EventKind.CHECKPOINT_EVAL, slow_id
        if t_eval >= slow.enc_end[-1]:
            # nothing left to skip: the modality beat the checkpoint
            rows.append(_row(*evaluated, already_completed=True, fraction=fraction))
            continue
        f_slow = feature_vector(slow.rows[:prefix])
        decision = gate_eval(gate, f_fast, f_slow, fraction, scenario.tau)
        committed, p = decision.committed, decision.probability
        rows.append(_row(*evaluated, committed=committed, fraction=fraction, probability=p))
        if not committed:
            continue
        slow.aggregate_at(t_eval, prefix)
        slow.fused = f_slow
        slow.cut = t_eval
        skip = dict(fraction=fraction, prefix=prefix, probability=p, units_skipped=slow.n - prefix)
        rows.append(_row(t_eval, EventKind.SKIP_COMMITTED, slow_id, **skip))
        return


_UNIT_CODES = [0, 1, 2]  # the first three layouts: unit_sensed, encode_start and an unaborted encode_end
_ABORTED = _SLOTS[EventKind.ENCODE_END, "aborted"][0]


def _emit(plan, fusion_start, rows, blocks) -> int:
    """Add one modality's unit and aggregation events, settle the vector it
    fuses, and return its peak count of buffered units (sensing begun,
    encode not yet done).

    A modality is cut at its skip commit or at fusion, whichever is
    earlier.  One still aggregating at fusion time (non-blocking mode)
    fuses a zero-padded snapshot of the units encoded by then; the snapshot
    costs no virtual time.  Units whose sensing had not begun at the cut
    have no events.  The encodes begun before the cut, or ended at it, are
    a prefix of the units, since the encodes run back to back; only the
    last of them can still be running at the cut, and it ends there,
    aborted.
    """
    mid, n = plan.modality.id, plan.n
    cut = min(plan.cut, fusion_start)
    ends = np.array(plan.enc_end, np.int64)
    if plan.agg_done > fusion_start:
        plan.fused = feature_vector(np.where(ends[:, None] <= fusion_start, plan.rows, 0.0))
    else:
        agg = dict(prefix=plan.agg_prefix, started_us=plan.agg_start)
        rows.append(_row(plan.agg_done, EventKind.AGGREGATION_DONE, mid, **agg))
        if plan.fused is None:
            plan.fused = feature_vector(plan.rows)

    sensed = plan.window_start + plan.interval * np.arange(n)
    k = int(np.searchsorted(sensed, cut))  # units whose sensing began before the cut
    starts = np.concatenate(([plan.first], ends))[:n]
    e = max(int(np.searchsorted(ends, cut, "right")), int(np.searchsorted(starts, cut)))
    sensed, leaves, units = sensed[:k], np.minimum(ends[:k], cut), np.arange(e)
    rows_n = k + 2 * e
    code, aborted = np.repeat(_UNIT_CODES, (k, e, e)), np.zeros(rows_n, bool)
    resource = np.zeros(rows_n, object)
    resource[k : k + e] = column(plan.enc_resource[:e], object)
    costs = np.array([plan.costs[level] for level in plan.enc_resource[:e]], np.int64)
    if e and ends[e - 1] > cut:
        code[-1], aborted[-1] = _ABORTED, True
    blocks.append({
        "t": np.concatenate([sensed, starts[:e], leaves[:e]]),
        "code": code,
        "m": np.full(rows_n, mid),
        "u": np.concatenate([np.arange(k), units, units]),
        "a": np.concatenate([sensed + plan.interval, costs, np.zeros(e, np.int64)]),
        "c": aborted,
        "s": resource,
    })
    return _peak_occupancy(sensed, leaves)


def _peak_occupancy(enters: list[int], leaves: list[int]) -> int:
    """Max simultaneous [enter, leave) intervals, leaves counted before
    enters on ties.  Enter times strictly increase and leave times never
    decrease, so the count just after the k-th enter is k less the leaves
    up to and at it, and the peak is the largest of those counts."""
    after_enter = np.arange(1, len(enters) + 1) - np.searchsorted(leaves, enters, "right")
    return int(after_enter.max(initial=0))
