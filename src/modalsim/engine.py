"""Deterministic virtual-time simulator for one sample window.

Executes a scenario in blocking, non-blocking, or pipelined mode and emits an
ordered event trace.  Unit timing follows the streamed-unit model: a unit's
encode may overlap its own sensing interval but can never complete before the
unit is fully sensed, so with a constant resource level the pipelined encode
of N units finishes at exactly N * max(L_E, L_S) and the trace agrees with
the closed-form latency model to the microsecond.

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
import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .aggregation import DiffSpec, ShiftSpec, aggregate_vector
from .core import (
    AlreadyCompleted,
    ConfigAssignment,
    ExecutionMode,
    GateRequiredButMissing,
    Sample,
    Scenario,
    check_assignment,
)
from .latency import unimodal_latency
from .gating import SkipDecision, checkpoint_indices
from .optimizer import PROBE_COST_US  # re-exported; decisions carry the probe cost
from .scenario_io import fingerprint

NUM_CLASSES = 8

DEFAULT_SHIFT = ShiftSpec(n_groups=3, shift_distance=1)
DEFAULT_DIFF = DiffSpec(scales=(1, 2), encoder_width=8)

_NO_MODALITY = 1 << 31  # sort key for events without a modality/unit


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


@dataclass(frozen=True)
class Event:
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


def _ev(time_us: int, kind: EventKind, modality=None, unit=None, **payload) -> Event:
    return Event(time_us, kind, modality, unit, tuple(sorted(payload.items())))


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


def apply_resource_schedule(scenario: Scenario, time_us: int) -> str:
    """Resource level whose left-closed interval contains the queried time."""
    times = [t for t, _ in scenario.resource_schedule]
    idx = bisect.bisect_right(times, time_us) - 1
    return scenario.resource_schedule[max(idx, 0)][1]


def prediction_head(scenario: Scenario, fused_dim: int) -> np.ndarray:
    """Fixed seeded linear classifier used as the synthetic prediction stage."""
    s = rng.stream(scenario.accuracy_surface_seed, "fusion-head", fused_dim)
    return s.symmetric(NUM_CLASSES * fused_dim).reshape(NUM_CLASSES, fused_dim)


class _ModalityPlan:
    """Scratch state for one modality's schedule within a window."""

    def __init__(self, modality, n_units, interval_us):
        self.modality = modality
        self.n = n_units
        self.interval = interval_us
        self.sense_start: list[int] = []
        self.enc_start: list[int] = []
        self.enc_end: list[int] = []
        self.enc_resource: list[str] = []
        self.enc_cost: list[int] = []
        self.rows: np.ndarray | None = None
        self.agg_start = 0
        self.agg_done = 0
        self.agg_prefix = 0
        self.fused: np.ndarray | None = None


def run(
    scenario: Scenario,
    assignment: ConfigAssignment,
    sample: Sample,
    gate=None,
    *,
    shift_spec: ShiftSpec = DEFAULT_SHIFT,
    diff_spec: DiffSpec = DEFAULT_DIFF,
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
    profile = scenario.latency_profile

    events: list[Event] = []
    window_start = 0
    if config_decision is not None:
        window_start = config_decision.probe_cost_us
        events.append(
            _ev(
                0,
                EventKind.CONFIG_SWITCH,
                pairs=tuple(assignment.pairs),
                probe_cost_us=window_start,
            )
        )

    if mode is ExecutionMode.PIPELINED and scenario.skip_checkpoints and gate is None:
        raise GateRequiredButMissing(
            "scenario configures skip checkpoints; pipelined runs need a gate"
        )

    plans: list[_ModalityPlan] = []
    for m in scenario.modalities:
        s_level, m_level = assignment.pairs[m.id]
        sensing = scenario.sensing(m.id, s_level)
        n = sensing.units_per_window
        plan = _ModalityPlan(m, n, sensing.interval_us)
        plan.rows = sample.window_payload(m, n)

        prev_end = None
        for u in range(n):
            sense_start = window_start + u * plan.interval
            sense_end = sense_start + plan.interval
            plan.sense_start.append(sense_start)
            if mode is ExecutionMode.BLOCKING:
                start = window_start + t_w if prev_end is None else prev_end
                resource = apply_resource_schedule(scenario, start)
                cost = profile.lookup(m.id, s_level, m_level, resource).unit_encode_us
                end = start + cost
            else:
                start = sense_start if prev_end is None else max(sense_start, prev_end)
                resource = apply_resource_schedule(scenario, start)
                cost = profile.lookup(m.id, s_level, m_level, resource).unit_encode_us
                end = max(start + cost, sense_end)
            plan.enc_start.append(start)
            plan.enc_end.append(end)
            plan.enc_resource.append(resource)
            plan.enc_cost.append(cost)
            prev_end = end

        plan.agg_start = plan.enc_end[-1]
        agg_resource = apply_resource_schedule(scenario, plan.agg_start)
        plan.agg_done = (
            plan.agg_start + profile.lookup(m.id, s_level, m_level, agg_resource).aggregation_us
        )
        plan.agg_prefix = n
        plans.append(plan)

    skipped_total = 0
    skip_cut: dict[int, int] = {}  # modality id -> cut time for buffered units
    checkpoint_events: list[Event] = []

    if mode is ExecutionMode.PIPELINED and scenario.skip_checkpoints and gate is not None:
        slow_id, cut = _apply_skip(
            scenario, assignment, plans, sample, gate, shift_spec, diff_spec, checkpoint_events
        )
        if cut is not None:
            skip_cut[slow_id] = cut
            skipped_total = plans[slow_id].n - plans[slow_id].agg_prefix

    if mode is ExecutionMode.NON_BLOCKING:
        fusion_start = min(p.agg_done for p in plans)
        waiting = 0
    else:
        fusion_start = max(p.agg_done for p in plans)
        waiting = fusion_start - min(p.agg_done for p in plans)

    # resolve per-modality aggregates; unfinished modalities in non-blocking
    # mode contribute a zero-padded snapshot of the units encoded so far
    for plan in plans:
        if mode is ExecutionMode.NON_BLOCKING and plan.agg_done > fusion_start:
            snapshot = np.zeros_like(plan.rows)
            for u in range(plan.n):
                if plan.enc_end[u] <= fusion_start:
                    snapshot[u] = plan.rows[u]
            plan.fused = aggregate_vector(snapshot, shift_spec, diff_spec)
        elif plan.fused is None:
            plan.fused = aggregate_vector(plan.rows[: plan.agg_prefix], shift_spec, diff_spec)

    # emit per-modality events, applying skip/non-blocking truncation
    buffer_intervals: dict[int, list[tuple[int, int]]] = {p.modality.id: [] for p in plans}
    for plan in plans:
        mid = plan.modality.id
        unfinished = mode is ExecutionMode.NON_BLOCKING and plan.agg_done > fusion_start
        cut = skip_cut.get(mid)
        if unfinished:
            cut = fusion_start
        keep_prefix = plan.agg_prefix if mid in skip_cut else plan.n

        for u in range(plan.n):
            s_start = plan.sense_start[u]
            if cut is not None and s_start >= cut:
                continue  # sensing never began
            events.append(
                _ev(
                    s_start,
                    EventKind.UNIT_SENSED,
                    mid,
                    u,
                    sense_end_us=s_start + plan.interval,
                )
            )
            leave = None
            e_start, e_end = plan.enc_start[u], plan.enc_end[u]
            if cut is None or e_end <= cut or (u < keep_prefix and mid in skip_cut):
                events.append(
                    _ev(
                        e_start,
                        EventKind.ENCODE_START,
                        mid,
                        u,
                        resource=plan.enc_resource[u],
                        encode_cost_us=plan.enc_cost[u],
                    )
                )
                events.append(_ev(e_end, EventKind.ENCODE_END, mid, u))
                leave = e_end
            elif e_start < cut:
                events.append(
                    _ev(
                        e_start,
                        EventKind.ENCODE_START,
                        mid,
                        u,
                        resource=plan.enc_resource[u],
                        encode_cost_us=plan.enc_cost[u],
                    )
                )
                events.append(_ev(cut, EventKind.ENCODE_END, mid, u, aborted=True))
                leave = cut
            else:
                leave = cut  # sensed (at least begun) but never encoded
            buffer_intervals[mid].append((s_start, leave))

        if not unfinished:
            events.append(
                _ev(
                    plan.agg_done,
                    EventKind.AGGREGATION_DONE,
                    mid,
                    prefix=plan.agg_prefix,
                    started_us=plan.agg_start,
                )
            )

    events.extend(checkpoint_events)

    # resource changes up to the fusion point
    for t, level in scenario.resource_schedule:
        if t <= fusion_start:
            events.append(_ev(t, EventKind.RESOURCE_CHANGE, level=level))

    fused_all = np.concatenate([p.fused for p in plans])
    head = prediction_head(scenario, len(fused_all))
    label = int(np.argmax(head @ fused_all))

    events.append(_ev(fusion_start, EventKind.FUSION_START))
    prediction_time = fusion_start + profile.fusion_us
    events.append(_ev(prediction_time, EventKind.PREDICTION_EMITTED, label=label))

    events.sort(key=Event.sort_key)

    peaks = tuple(_peak_occupancy(buffer_intervals[p.modality.id]) for p in plans)
    summary = TraceSummary(
        reported_latency_us=(prediction_time - window_start) - t_w,
        waiting_us=waiting,
        peak_buffered_units=peaks,
        skipped_unit_count=skipped_total,
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


def commit_skip(
    scenario: Scenario,
    assignment: ConfigAssignment,
    plan: _ModalityPlan,
    decision: SkipDecision,
    at_time: int,
    shift_spec: ShiftSpec = DEFAULT_SHIFT,
    diff_spec: DiffSpec = DEFAULT_DIFF,
) -> SkipDecision:
    """Apply a committed skip decision to one modality's schedule.

    Cancels everything past the checkpoint prefix, starts aggregation of the
    prefix at `at_time`, and returns the decision with units_skipped filled.
    Raises AlreadyCompleted when every unit has already finished encoding, so
    a late checkpoint degrades to a logged no-op.
    """
    if not decision.committed:
        raise ValueError("commit_skip needs a committed decision")
    if at_time >= plan.enc_end[-1]:
        raise AlreadyCompleted(
            f"modality {plan.modality.id} finished encoding before the "
            f"{decision.checkpoint_fraction:.0%} checkpoint took effect"
        )
    prefix = min(max(math.ceil(decision.checkpoint_fraction * plan.n), 1), plan.n)
    mid = plan.modality.id
    s_level, m_level = assignment.pairs[mid]
    resource = apply_resource_schedule(scenario, at_time)
    la = scenario.latency_profile.lookup(mid, s_level, m_level, resource).aggregation_us
    plan.agg_start = at_time
    plan.agg_done = at_time + la
    plan.agg_prefix = prefix
    plan.fused = aggregate_vector(plan.rows[:prefix], shift_spec, diff_spec)
    return dataclasses.replace(decision, units_skipped=plan.n - prefix)


def _apply_skip(scenario, assignment, plans, sample, gate, shift_spec, diff_spec, out_events):
    """Evaluate checkpoints on the slow modality; commit the first that fires.

    Returns (slow_id, cut_time or None).
    """
    r0 = apply_resource_schedule(scenario, plans[0].sense_start[0] if plans[0].sense_start else 0)
    projected = [
        unimodal_latency(scenario, assignment, p.modality.id, r0) for p in plans
    ]
    slow_id = int(np.argmax(projected))
    slow = plans[slow_id]

    others = [p for p in plans if p.modality.id != slow_id]
    fast_done = max((p.agg_done for p in others), default=slow.sense_start[0])
    for p in others:
        p.fused = aggregate_vector(p.rows[: p.n], shift_spec, diff_spec)
    f_fast = (
        np.concatenate([p.fused for p in others]) if others else np.zeros(0)
    )

    pairs = []  # (unit index, fraction), deduplicated keeping the earliest fraction
    seen = set()
    for f in scenario.skip_checkpoints:
        for idx in checkpoint_indices([f], slow.n):
            if idx not in seen:
                seen.add(idx)
                pairs.append((idx, f))
    pairs.sort()

    for idx, fraction in pairs:
        t_eval = max(slow.enc_end[idx], fast_done)
        if t_eval >= slow.enc_end[-1]:
            # nothing left to skip: the modality beat the checkpoint
            out_events.append(
                _ev(
                    t_eval,
                    EventKind.CHECKPOINT_EVAL,
                    slow_id,
                    fraction=fraction,
                    already_completed=True,
                )
            )
            continue
        prefix = idx + 1
        f_slow = aggregate_vector(slow.rows[:prefix], shift_spec, diff_spec)
        p = float(gate.probability(f_fast, f_slow, fraction))
        decision = SkipDecision(
            checkpoint_fraction=fraction, probability=p, committed=p > scenario.tau
        )
        out_events.append(
            _ev(
                t_eval,
                EventKind.CHECKPOINT_EVAL,
                slow_id,
                fraction=fraction,
                probability=p,
                committed=decision.committed,
            )
        )
        if not decision.committed:
            continue

        realized = commit_skip(
            scenario, assignment, slow, decision, t_eval, shift_spec, diff_spec
        )
        out_events.append(
            _ev(
                t_eval,
                EventKind.SKIP_COMMITTED,
                slow_id,
                fraction=fraction,
                probability=p,
                prefix=slow.agg_prefix,
                units_skipped=realized.units_skipped,
            )
        )
        return slow_id, t_eval
    return slow_id, None


def _peak_occupancy(intervals: list[tuple[int, int]]) -> int:
    """Max simultaneous [enter, leave) intervals; leaves processed first."""
    deltas = []
    for enter, leave in intervals:
        deltas.append((enter, 1))
        deltas.append((leave, -1))
    deltas.sort(key=lambda d: (d[0], d[1]))
    peak = cur = 0
    for _, d in deltas:
        cur += d
        peak = max(peak, cur)
    return peak
