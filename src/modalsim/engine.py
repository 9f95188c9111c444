"""Deterministic virtual-time simulator for one sample window.

Executes a scenario in blocking, non-blocking, or pipelined mode and emits an
ordered event trace.  Unit timing follows the streamed-unit model: a unit's
encode may overlap its own sensing interval but can never complete before the
unit is fully sensed, so with a constant resource level the pipelined encode
of N units finishes at exactly N * max(L_E, L_S) and the trace agrees with
the closed-form latency model to the microsecond.

`run` goes through three stages, each over one plan per modality:
  _schedule    per-unit sense and encode timing and the aggregation after
               the last encode.  One formula serves every mode: a unit
               starts when its sensing has begun and the encoder is free.
               Blocking mode differs only in when the encoder is first
               free: at the end of the window instead of its start.
  _apply_skip  pipelined mode with checkpoints: asks the gate at each
               checkpoint of the slow modality and commits, through
               `gating.gate_eval`, the first that fires, aggregating the
               prefix at the evaluation time.
  _emit        the unit and aggregation events, truncated at a skip commit
               or (non-blocking) at fusion, and the peak buffer count.

A window writes about three events per unit, so an `Event` is a plain
`NamedTuple` record: tuple equality, hashing, repr and immutability, equal to
a plain tuple of its five fields.  Each payload is written as a literal tuple
of (key, value) pairs already in key order, the order the trace file keeps.

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
from typing import NamedTuple

import numpy as np

from . import rng
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
from .gating import checkpoint_indices, gate_eval
from .scenario_io import fingerprint

NUM_CLASSES = 8

DEFAULT_SHIFT = ShiftSpec(n_groups=3, shift_distance=1)
DEFAULT_DIFF = DiffSpec(scales=(1, 2), encoder_width=8)

_NO_MODALITY = 1 << 31  # sort key for events without a modality/unit
_ABORTED = (("aborted", True),)  # payload of an encode cut before it finished


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


_KIND_ORDER = {kind: i for i, kind in enumerate(EventKind)}


class Event(NamedTuple):
    """One trace event: a plain tuple record with named fields.

    Equality, hashing, repr and immutability are the tuple's, so an event
    also compares equal to a plain tuple of the same five fields.  `payload`
    holds (key, value) pairs with exact-str keys in strictly increasing
    order: the engine writes each payload as a literal already in key order.
    """

    time_us: int
    kind: EventKind
    modality: int | None = None
    unit: int | None = None
    payload: tuple = ()

    def sort_key(self):
        m = self.modality if self.modality is not None else _NO_MODALITY
        u = self.unit if self.unit is not None else _NO_MODALITY
        return (self.time_us, m, u, _KIND_ORDER[self.kind])

    def payload_dict(self) -> dict:
        return dict(self.payload)


@dataclass(frozen=True)
class TraceSummary:
    reported_latency_us: int
    waiting_us: int
    peak_buffered_units: tuple[int, ...]
    skipped_unit_count: int


@dataclass(frozen=True)
class SimTrace:
    fingerprint: str
    sample_id: int
    mode: ExecutionMode
    assignment: ConfigAssignment
    window_us: int
    events: tuple[Event, ...]
    summary: TraceSummary

    def predicted_label(self) -> int:
        for ev in self.events:
            if ev.kind is EventKind.PREDICTION_EMITTED:
                return ev.payload_dict()["label"]
        raise ValueError("trace has no prediction event")


@memoized
def _schedule_times(scenario: Scenario) -> tuple[int, ...]:
    return tuple(t for t, _ in scenario.resource_schedule)


def apply_resource_schedule(scenario: Scenario, time_us: int) -> str:
    """Resource level whose left-closed interval contains the queried time."""
    idx = bisect.bisect_right(_schedule_times(scenario), time_us) - 1
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
    return int(np.argmax(prediction_head(scenario, len(fused)) @ fused))


def slow_modality(scenario: Scenario, assignment: ConfigAssignment, at_us: int) -> int:
    """The modality speculative skipping truncates: the one with the largest
    projected unimodal latency at the resource level active at `at_us`."""
    resource = apply_resource_schedule(scenario, at_us)
    return int(np.argmax(end_to_end_latency(scenario, assignment, resource).per_modality_us))


class _ModalityPlan:
    """One modality's unit timing, aggregation and fused vector within a window."""

    def __init__(self, scenario, assignment, modality, sample):
        self.scenario = scenario
        self.modality = modality
        self.levels = assignment.pairs[modality.id]
        sensing = scenario.sensing(modality.id, self.levels[0])
        self.n = sensing.units_per_window
        self.interval = sensing.interval_us
        self.rows = sample.window_payload(modality, self.n)
        self.sense_start: list[int] = []
        self.enc_start: list[int] = []
        self.enc_end: list[int] = []
        self.enc_resource: list[str] = []
        self.enc_cost: list[int] = []
        self.agg_start = self.agg_done = self.agg_prefix = 0
        self.fused: np.ndarray | None = None
        self.cut: int | None = None  # skip commit: units not encoded by then are dropped

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

    events: list[Event] = []
    window_start = 0
    if config_decision is not None:
        window_start = config_decision.probe_cost_us
        payload = (("pairs", tuple(assignment.pairs)), ("probe_cost_us", window_start))
        events.append(Event(0, EventKind.CONFIG_SWITCH, payload=payload))

    skipping = mode is ExecutionMode.PIPELINED and bool(scenario.skip_checkpoints)
    if skipping and gate is None:
        raise GateRequiredButMissing("scenario configures skip checkpoints; pipelined runs need a gate")

    plans = [_schedule(scenario, assignment, sample, m, window_start) for m in scenario.modalities]
    if skipping:
        _apply_skip(scenario, assignment, plans, gate, window_start, events)

    done = [p.agg_done for p in plans]
    fusion_start = min(done) if mode is ExecutionMode.NON_BLOCKING else max(done)
    peaks = tuple(_emit(plan, fusion_start, events) for plan in plans)

    # resource changes up to the fusion point
    for t, level in scenario.resource_schedule:
        if t <= fusion_start:
            events.append(Event(t, EventKind.RESOURCE_CHANGE, payload=(("level", level),)))

    label = fused_label(scenario, [p.fused for p in plans])

    events.append(Event(fusion_start, EventKind.FUSION_START))
    prediction_time = fusion_start + scenario.latency_profile.fusion_us
    events.append(Event(prediction_time, EventKind.PREDICTION_EMITTED, payload=(("label", label),)))

    events.sort(key=Event.sort_key)

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
        events=tuple(events),
        summary=summary,
    )


def _schedule(scenario, assignment, sample, modality, window_start) -> _ModalityPlan:
    """Per-unit sense and encode timing, then aggregation after the last encode.

    Unit u is sensed during [u*L_S, (u+1)*L_S) from the window start.  One
    FIFO encoder starts it once sensing has begun and the encoder is free,
    and is free again when the encode is done and the unit fully sensed.
    Blocking mode differs only in that the encoder is first free at the end
    of the window.
    """
    plan = _ModalityPlan(scenario, assignment, modality, sample)
    costs = {}  # resource level -> unit encode cost, looked up once per window
    free = window_start
    if scenario.execution_mode is ExecutionMode.BLOCKING:
        free += scenario.window_us
    for u in range(plan.n):
        sense_start = window_start + u * plan.interval
        start = max(sense_start, free)
        resource = apply_resource_schedule(scenario, start)
        if resource not in costs:
            costs[resource] = plan.entry(resource).unit_encode_us
        cost = costs[resource]
        free = max(start + cost, sense_start + plan.interval)
        plan.sense_start.append(sense_start)
        plan.enc_start.append(start)
        plan.enc_end.append(free)
        plan.enc_resource.append(resource)
        plan.enc_cost.append(cost)
    plan.aggregate_at(free, plan.n)
    return plan


def _apply_skip(scenario, assignment, plans, gate, window_start, events) -> None:
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

    first_fraction: dict[int, float] = {}  # unit index -> earliest fraction naming it
    for f in scenario.skip_checkpoints:
        for idx in checkpoint_indices([f], slow.n):
            first_fraction.setdefault(idx, f)

    for idx, fraction in sorted(first_fraction.items()):
        t_eval = max(slow.enc_end[idx], fast_done)
        if t_eval >= slow.enc_end[-1]:
            # nothing left to skip: the modality beat the checkpoint
            payload = (("already_completed", True), ("fraction", fraction))
            events.append(Event(t_eval, EventKind.CHECKPOINT_EVAL, slow_id, payload=payload))
            continue
        f_slow = feature_vector(slow.rows[: idx + 1])
        decision = gate_eval(gate, f_fast, f_slow, fraction, scenario.tau)
        committed, p = decision.committed, decision.probability
        payload = (("committed", committed), ("fraction", fraction), ("probability", p))
        events.append(Event(t_eval, EventKind.CHECKPOINT_EVAL, slow_id, payload=payload))
        if not committed:
            continue
        slow.aggregate_at(t_eval, idx + 1)
        slow.fused = f_slow
        slow.cut = t_eval
        payload = (
            ("fraction", fraction),
            ("prefix", idx + 1),
            ("probability", p),
            ("units_skipped", slow.n - idx - 1),
        )
        events.append(Event(t_eval, EventKind.SKIP_COMMITTED, slow_id, payload=payload))
        return


def _emit(plan, fusion_start, events) -> int:
    """Append one modality's unit and aggregation events, settle the vector
    it fuses, and return its peak count of buffered units (sensing begun,
    encode not yet done).

    A modality still aggregating at fusion time (non-blocking mode) is cut
    there and fuses a zero-padded snapshot of the units encoded by then;
    the snapshot costs no virtual time.
    """
    mid = plan.modality.id
    cut = plan.cut
    if plan.agg_done > fusion_start:
        cut = fusion_start
        encoded = np.array(plan.enc_end)[:, None] <= fusion_start
        plan.fused = feature_vector(np.where(encoded, plan.rows, 0.0))
    else:
        payload = (("prefix", plan.agg_prefix), ("started_us", plan.agg_start))
        events.append(Event(plan.agg_done, EventKind.AGGREGATION_DONE, mid, payload=payload))
        if plan.fused is None:
            plan.fused = feature_vector(plan.rows)

    enters, leaves = [], []
    for u, s_start in enumerate(plan.sense_start):
        if cut is not None and s_start >= cut:
            break  # sensing never began, here or for any later unit
        payload = (("sense_end_us", s_start + plan.interval),)
        events.append(Event(s_start, EventKind.UNIT_SENSED, mid, u, payload))
        e_start, e_end = plan.enc_start[u], plan.enc_end[u]
        finished = cut is None or e_end <= cut
        leave = e_end if finished else cut
        if finished or e_start < cut:
            payload = (("encode_cost_us", plan.enc_cost[u]), ("resource", plan.enc_resource[u]))
            events.append(Event(e_start, EventKind.ENCODE_START, mid, u, payload))
            events.append(Event(leave, EventKind.ENCODE_END, mid, u, () if finished else _ABORTED))
        enters.append(s_start)
        leaves.append(leave)
    return _peak_occupancy(enters, leaves)


def _peak_occupancy(enters: list[int], leaves: list[int]) -> int:
    """Max simultaneous [enter, leave) intervals, leaves counted before
    enters on ties.  Enter times strictly increase and leave times never
    decrease, so the count just after the k-th enter is k less the leaves
    up to and at it, and the peak is the largest of those counts."""
    after_enter = np.arange(1, len(enters) + 1) - np.searchsorted(leaves, enters, "right")
    return int(after_enter.max(initial=0))
