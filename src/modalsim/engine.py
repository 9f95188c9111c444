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

A window writes about three events per unit, so every trace keeps its
events as `EventColumns`, the one form from the engine to the report:
int64 columns for time, kind, modality, unit and the int payload values,
an object column for strings, and one for the few events kept whole as
plain tuples.  `_emit` fills a modality's rows with array operations, and
one stable `np.lexsort` on (time, modality, unit, kind) puts the window in
trace order.  A trace file's events are laid out by one rule, `layout`.
An `Event`, a plain `NamedTuple` record equal to a tuple of its five
fields, is built only when `SimTrace.events` is first read.

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
from itertools import compress, repeat
from operator import eq, itemgetter
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
_ABORTED = (("aborted", True),)  # payload of an encode cut before it finished
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


KINDS = tuple(EventKind)  # a kind's code in the `kind` column: its declaration index, its sort rank

# The kinds whose rows keep their payload in columns: how many of (modality,
# unit) such a row has, and its payload keys in key order, each with its
# column (`a`, `b`: int; `s`: str).  Any other row is kept whole (see `layout`).
LAYOUT = {
    EventKind.UNIT_SENSED: (2, (("sense_end_us", "a"),)),
    EventKind.ENCODE_START: (2, (("encode_cost_us", "a"), ("resource", "s"))),
    EventKind.ENCODE_END: (2, ()),
    EventKind.AGGREGATION_DONE: (1, (("prefix", "a"), ("started_us", "b"))),
    EventKind.FUSION_START: (0, ()),
    EventKind.PREDICTION_EMITTED: (0, (("label", "a"),)),
    EventKind.RESOURCE_CHANGE: (0, (("level", "s"),)),
}


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

    `t`, `kind` (an index into `KINDS`), `m` and `u` are int64, with NULL for
    no modality or unit.  A row `layout` lays out keeps its payload in the
    int64 columns `a` and `b` and the object column `s`, and None in `whole`.
    Any other row keeps its event whole in `whole`, as the plain tuple
    (t, kind, m, u, payload), and 0, 0 and None in `a`, `b` and `s`; its `t`,
    `m` and `u` columns hold the values that fit them, and NULL for any
    other.
    """

    t: np.ndarray
    kind: np.ndarray
    m: np.ndarray
    u: np.ndarray
    a: np.ndarray
    b: np.ndarray
    s: np.ndarray
    whole: np.ndarray

    def columns(self) -> list[np.ndarray]:
        return [self.t, self.kind, self.m, self.u, self.a, self.b, self.s, self.whole]

    def take(self, index) -> EventColumns:
        """The rows a slice or an array of row numbers selects."""
        return EventColumns(*(c[index] for c in self.columns()))

    def rows(self) -> list[tuple]:
        """The rows in order, each as the plain tuple of its `Event`'s fields."""
        rows, laid = self.whole.tolist(), np.equal(self.whole, None)
        for kind, (ids, keys) in LAYOUT.items():
            at = np.flatnonzero(laid & (self.kind == KINDS.index(kind)))
            m = self.m[at].tolist() if ids > 0 else [None] * len(at)
            u = self.u[at].tolist() if ids > 1 else [None] * len(at)
            values = zip(*(getattr(self, col)[at].tolist() for _, col in keys)) if keys else [()] * len(at)
            names = [key for key, _ in keys]
            for i, t, mi, ui, v in zip(at.tolist(), self.t[at].tolist(), m, u, values):
                rows[i] = (t, kind, mi, ui, tuple(zip(names, v)))
        return rows

    def __eq__(self, other):  # the same rows in the same columns
        return type(other) is type(self) and all(map(np.array_equal, self.columns(), other.columns()))

    def __hash__(self):
        return hash(self.events())

    @memoized
    def events(self) -> tuple[Event, ...]:
        """The rows as `Event` records, built on the first call."""
        return tuple(Event(*row) for row in self.rows())


def object_column(values) -> np.ndarray:
    """A 1-d object array of `values`, tuples and strings kept whole."""
    return np.fromiter(values, object, len(values))


_HIGH = 1 << 63  # int64 holds [-_HIGH, _HIGH)
_IDS = np.array([LAYOUT[kind][0] if kind in LAYOUT else -1 for kind in KINDS])


def _int_column(values: list, ids: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """`values` as an int64 column, and where each fits it: an exact int in
    int64, or for a modality or unit (`ids`) None (NULL in the column) or an
    exact int below NULL.  A value that does not fit is NULL in the column."""
    if set(map(type, values)) <= {int, type(None) if ids else int}:
        try:
            col = np.array([NULL if v is None else v for v in values] if ids else values, np.int64)
            if not ids or np.count_nonzero(col >= NULL) == values.count(None):
                return col, np.ones(len(values), bool)
        except OverflowError:
            pass
    top = NULL if ids else _HIGH
    fits = [(ids and v is None) or (type(v) is int and -_HIGH <= v < top) for v in values]
    col = [v if f and v is not None else NULL for v, f in zip(values, fits)]
    return np.array(col, np.int64), np.array(fits, bool)


def _laid(dicts: list[dict], keys) -> tuple[np.ndarray, list[list]]:
    """Which payload dicts have exactly the layout's `keys`, with values that
    fit their columns; and those values, a list per key."""
    names = [key for key, _ in keys]
    ok = np.fromiter(map(eq, map(dict.keys, dicts), repeat(set(names))), bool, len(dicts))
    group = list(compress(dicts, ok))
    values = [list(map(itemgetter(key), group)) for key in names]
    fits = np.ones(len(group), bool)
    for v, (_, col) in zip(values, keys):
        fits &= np.fromiter(map(type, v), object, len(v)) == str if col == "s" else _int_column(v)[1]
    ok[ok] = fits
    return ok, [list(compress(v, fits)) for v in values]


def layout(t: list, kind: list[int], m: list, u: list, data: list[dict], payload) -> EventColumns:
    """Events as columns by the one layout rule.

    Each list holds a value per row: its time, kind code, modality and unit,
    and its payload as a dict; `payload(i)` gives row i's payload pairs in
    key order.  A row is laid out when its time is an int in int64, its
    modality and unit ints below NULL or None as its kind's LAYOUT has them,
    and its payload that layout's keys with values of their columns' types,
    int in int64 or str; any other row is kept whole, and only then is its
    `payload` called.
    """
    n = len(t)
    code = np.array(kind, np.int64)
    (tc, t_fits), (mc, m_fits), (uc, u_fits) = _int_column(t), _int_column(m, True), _int_column(u, True)
    ids = _IDS[code]
    laid = t_fits & m_fits & u_fits & ((mc != NULL) == (ids > 0)) & ((uc != NULL) == (ids > 1)) & (ids >= 0)
    cols = {"a": np.zeros(n, np.int64), "b": np.zeros(n, np.int64), "s": object_column([None] * n)}
    for k, (_, keys) in LAYOUT.items():
        rows = np.flatnonzero(laid & (code == KINDS.index(k)))
        ok, values = _laid(list(map(data.__getitem__, rows.tolist())), keys)
        laid[rows[~ok]] = False
        for (_, col), v in zip(keys, values):
            cols[col][rows[ok]] = object_column(v) if col == "s" else v
    whole = object_column([None] * n)
    for i in np.flatnonzero(~laid).tolist():
        whole[i] = (t[i], KINDS[kind[i]], m[i], u[i], payload(i))
    return EventColumns(tc, code, mc, uc, cols["a"], cols["b"], cols["s"], whole)


def _row(t, kind, m=None, a=0, b=0, s=None, payload=None) -> tuple:
    """One event's row of `EventColumns` values, kept whole when it has a
    payload."""
    whole = None if payload is None else (t, kind, m, None, payload)
    return t, KINDS.index(kind), NULL if m is None else m, NULL, a, b, s, whole


def _sorted(rows: list[tuple], blocks: list[tuple]) -> EventColumns:
    """Single rows and column blocks in trace order, by one stable sort on
    (t, m, u, kind).  Only events of one kind from one source can tie (two
    checkpoint evaluations at one time), and they keep their order here."""
    blocks = [[list(c) for c in zip(*rows)], *blocks]
    ints = [np.concatenate([np.asarray(blk[j], np.int64) for blk in blocks]) for j in range(6)]
    objs = [np.concatenate([object_column(blocks[0][j]), *(blk[j] for blk in blocks[1:])]) for j in (6, 7)]
    t, kind, m, u = ints[:4]
    return EventColumns(*ints, *objs).take(np.lexsort((kind, u, m, t)))


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
        return self.log.take(self.log.kind == KINDS.index(kind)).rows()


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
        payload = (("pairs", tuple(assignment.pairs)), ("probe_cost_us", window_start))
        rows.append(_row(0, EventKind.CONFIG_SWITCH, payload=payload))

    skipping = mode is ExecutionMode.PIPELINED and bool(scenario.skip_checkpoints)
    if skipping and gate is None:
        raise GateRequiredButMissing("scenario configures skip checkpoints; pipelined runs need a gate")

    plans = [_schedule(scenario, assignment, m, window_start) for m in scenario.modalities]
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
            rows.append(_row(t, EventKind.RESOURCE_CHANGE, s=level))

    label = fused_label(scenario, [p.fused for p in plans])

    rows.append(_row(fusion_start, EventKind.FUSION_START))
    prediction_time = fusion_start + scenario.latency_profile.fusion_us
    rows.append(_row(prediction_time, EventKind.PREDICTION_EMITTED, a=label))

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
        if t_eval >= slow.enc_end[-1]:
            # nothing left to skip: the modality beat the checkpoint
            payload = (("already_completed", True), ("fraction", fraction))
            rows.append(_row(t_eval, EventKind.CHECKPOINT_EVAL, slow_id, payload=payload))
            continue
        f_slow = feature_vector(slow.rows[:prefix])
        decision = gate_eval(gate, f_fast, f_slow, fraction, scenario.tau)
        committed, p = decision.committed, decision.probability
        payload = (("committed", committed), ("fraction", fraction), ("probability", p))
        rows.append(_row(t_eval, EventKind.CHECKPOINT_EVAL, slow_id, payload=payload))
        if not committed:
            continue
        slow.aggregate_at(t_eval, prefix)
        slow.fused = f_slow
        slow.cut = t_eval
        payload = (
            ("fraction", fraction),
            ("prefix", prefix),
            ("probability", p),
            ("units_skipped", slow.n - prefix),
        )
        rows.append(_row(t_eval, EventKind.SKIP_COMMITTED, slow_id, payload=payload))
        return


_UNIT_KINDS = [
    KINDS.index(kind) for kind in (EventKind.UNIT_SENSED, EventKind.ENCODE_START, EventKind.ENCODE_END)
]


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
        rows.append(_row(plan.agg_done, EventKind.AGGREGATION_DONE, mid, a=plan.agg_prefix, b=plan.agg_start))
        if plan.fused is None:
            plan.fused = feature_vector(plan.rows)

    sensed = plan.window_start + plan.interval * np.arange(n)
    k = int(np.searchsorted(sensed, cut))  # units whose sensing began before the cut
    starts = np.concatenate(([plan.first], ends))[:n]
    e = max(int(np.searchsorted(ends, cut, "right")), int(np.searchsorted(starts, cut)))
    sensed, leaves, units = sensed[:k], np.minimum(ends[:k], cut), np.arange(e)
    resource, whole = np.full((2, k + 2 * e), None, object)
    resource[k : k + e] = object_column(plan.enc_resource[:e])
    costs = np.array([plan.costs[level] for level in plan.enc_resource[:e]], np.int64)
    if e and ends[e - 1] > cut:
        whole[-1] = (cut, EventKind.ENCODE_END, mid, e - 1, _ABORTED)
    blocks.append((
        np.concatenate([sensed, starts[:e], leaves[:e]]),
        np.repeat(_UNIT_KINDS, (k, e, e)),
        np.full(k + 2 * e, mid),
        np.concatenate([np.arange(k), units, units]),
        np.concatenate([sensed + plan.interval, costs, np.zeros(e, np.int64)]),
        np.zeros(k + 2 * e, np.int64),
        resource,
        whole,
    ))
    return _peak_occupancy(sensed, leaves)


def _peak_occupancy(enters: list[int], leaves: list[int]) -> int:
    """Max simultaneous [enter, leave) intervals, leaves counted before
    enters on ties.  Enter times strictly increase and leave times never
    decrease, so the count just after the k-th enter is k less the leaves
    up to and at it, and the peak is the largest of those counts."""
    after_enter = np.arange(1, len(enters) + 1) - np.searchsorted(leaves, enters, "right")
    return int(after_enter.max(initial=0))
