"""Closed-form latency model: the analytic oracle the simulator must match.

Per modality, a window of N units sensed every L_S µs and encoded in L_E µs
per unit by a single pipelined worker completes in max(L_E, L_S) * N µs;
aggregation adds L_A.  End to end, the slowest modality plus fusion sets the
total.  The reported metric subtracts the sensing window itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigAssignment, IncompleteTrace, Scenario, check_assignment, memoized


@dataclass(frozen=True)
class LatencyBreakdown:
    total_us: int
    per_modality_us: tuple[int, ...]
    waiting_us: int


def _pair_latency(scenario: Scenario, modality_id: int, pair: tuple, resource: str) -> int:
    """max(L_E, L_S) * N + L_A for one modality at one (sensing, model) pair, in µs."""
    sensing = scenario.sensing(modality_id, pair[0])
    entry = scenario.latency_profile.lookup(modality_id, *pair, resource)
    slot = max(entry.unit_encode_us, sensing.interval_us)
    return slot * sensing.units_per_window + entry.aggregation_us


def unimodal_latency(
    scenario: Scenario, assignment: ConfigAssignment, modality_id: int, resource: str
) -> int:
    """max(L_E, L_S) * N + L_A for one modality under one assignment, in µs."""
    check_assignment(scenario, assignment)
    return _pair_latency(scenario, modality_id, assignment.pairs[modality_id], resource)


@memoized
def unimodal_table(scenario: Scenario, resource: str) -> tuple[np.ndarray, ...]:
    """Per modality, a read-only array of unimodal latencies indexed [sensing,
    model].  The budget binds each modality on its own (end-to-end latency is
    the slowest modality plus fusion), so this answers every budget query.
    Computed once per (scenario instance, resource), like the fingerprint."""
    table = []
    for i in range(len(scenario.modalities)):
        row = np.array([_pair_latency(scenario, i, p, resource) for p in scenario.level_pairs(i)])
        table.append(row.reshape(len(scenario.sensing_space[i]), len(scenario.model_space[i])))
    return tuple(table)


def end_to_end_latency(
    scenario: Scenario, assignment: ConfigAssignment, resource: str
) -> LatencyBreakdown:
    """Slowest modality plus fusion; waiting is the fastest modality's idle gap."""
    check_assignment(scenario, assignment)
    per = tuple(
        _pair_latency(scenario, i, pair, resource) for i, pair in enumerate(assignment.pairs)
    )
    total = max(per) + scenario.latency_profile.fusion_us
    waiting = max(per) - min(per)
    return LatencyBreakdown(total_us=total, per_modality_us=per, waiting_us=waiting)


def reported_latency(trace, scenario: Scenario) -> int:
    """(prediction time - first unit acquisition time) - window duration."""
    from .engine import EventKind  # local import to keep this module oracle-side

    sensed = trace.of_kind(EventKind.UNIT_SENSED)
    predictions = trace.of_kind(EventKind.PREDICTION_EMITTED)
    if not sensed or not predictions:
        raise IncompleteTrace("trace lacks unit_sensed or prediction_emitted events")
    return (predictions[-1][0] - min(ev[0] for ev in sensed)) - scenario.window_us
