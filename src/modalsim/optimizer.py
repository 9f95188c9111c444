"""Latency-constrained configuration search.

`brute_force` enumerates the whole assignment space and is the oracle;
`greedy_search` starts from the minimum-latency feasible assignment and
repeatedly applies the single-coordinate upgrade with the best predicted
accuracy gain per microsecond of added latency, staying feasible throughout.
Both score assignments with either a trained PredictorModel or any callable
(indicators, assignment) -> accuracy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .core import ConfigAssignment, NoFeasibleAssignment, Sample, Scenario
from .latency import end_to_end_latency, unimodal_latency
from .predictor import ModalityIndicators, PredictorModel, indicators, predict_batch

PROBE_COST_US = 1000


@dataclass(frozen=True)
class SearchResult:
    best: ConfigAssignment
    best_score: float
    feasible_count: int


@dataclass(frozen=True)
class OptimizerDecision:
    assignment: ConfigAssignment
    score: float
    decision_latency_us: int  # wall clock, never written into traces
    probe_cost_us: int = PROBE_COST_US


def _batch_scorer(model, ind: ModalityIndicators):
    """Scores of a list of assignments; a single score is `score_many([a])[0]`."""
    if isinstance(model, PredictorModel):
        return lambda assignments: predict_batch(model, ind, assignments)
    if callable(model):
        return lambda assignments: [float(model(ind, a)) for a in assignments]
    raise TypeError(f"cannot score assignments with {type(model)!r}")


def brute_force(
    scenario: Scenario, ind: ModalityIndicators, model, resource: str
) -> SearchResult:
    """Exhaustive search; ties break to the lexicographically smallest assignment.

    Scores one assignment per call: a batched matrix product may round a row
    differently, which could move a tie-break.
    """
    score_many = _batch_scorer(model, ind)
    best = None
    best_score = float("-inf")
    feasible = 0
    for assignment in scenario.assignments():
        if end_to_end_latency(scenario, assignment, resource).total_us > scenario.t_max_us:
            continue
        feasible += 1
        score = float(score_many([assignment])[0])
        if score > best_score:
            best, best_score = assignment, score
    if best is None:
        raise NoFeasibleAssignment(
            f"every assignment exceeds t_max={scenario.t_max_us}µs at resource {resource!r}"
        )
    return SearchResult(best=best, best_score=best_score, feasible_count=feasible)


def _moves(scenario: Scenario, assignment: ConfigAssignment):
    """Reconfigurations of one modality's (sensing, model) pair.

    Single-coordinate upgrades alone can wedge in a corner of the feasible
    staircase (a free sensing upgrade can lock out every model upgrade), so
    the move set is any change to one modality's pair; feasibility of the
    other modalities is unaffected because the budget binds each modality's
    unimodal latency independently.
    """
    for mid in range(len(scenario.modalities)):
        current = assignment.pairs[mid]
        for s2 in range(len(scenario.sensing_space[mid])):
            for m2 in range(len(scenario.model_space[mid])):
                if (s2, m2) == current:
                    continue
                pairs = list(assignment.pairs)
                pairs[mid] = (s2, m2)
                yield mid, (s2, m2), ConfigAssignment(tuple(pairs))


def _unimodal_table(scenario: Scenario, resource: str) -> list[dict[tuple[int, int], int]]:
    """Per-modality unimodal latency for every (sensing, model) pair.

    The budget binds each modality independently (end-to-end latency is the
    max of the unimodal latencies plus fusion), so this table answers every
    feasibility and latency query the search needs without enumerating the
    cross-product space.
    """
    table = []
    for mid in range(len(scenario.modalities)):
        row = {}
        for s in range(len(scenario.sensing_space[mid])):
            for m in range(len(scenario.model_space[mid])):
                probe = ConfigAssignment(
                    tuple((s, m) if i == mid else (0, 0) for i in range(len(scenario.modalities)))
                )
                row[(s, m)] = unimodal_latency(scenario, probe, mid, resource)
        table.append(row)
    return table


def greedy_search(
    scenario: Scenario, ind: ModalityIndicators, model, resource: str
) -> ConfigAssignment:
    """Marginal-gain-per-latency greedy ascent under the latency budget.

    Starts from the minimum-latency feasible assignment and repeatedly takes
    the feasible one-modality move with the best accuracy gain per added
    microsecond (free or latency-reducing gains rank highest); every step
    strictly improves the predicted accuracy, so termination is guaranteed.
    """
    score_many = _batch_scorer(model, ind)
    table = _unimodal_table(scenario, resource)
    fusion = scenario.latency_profile.fusion_us
    budget = scenario.t_max_us - fusion

    start_pairs = []
    for row in table:
        best_pair = min(row, key=lambda p: (row[p], p))
        if row[best_pair] > budget:
            raise NoFeasibleAssignment(
                f"every assignment exceeds t_max={scenario.t_max_us}µs at resource {resource!r}"
            )
        start_pairs.append(best_pair)
    current = ConfigAssignment(tuple(start_pairs))
    current_score = float(score_many([current])[0])
    current_latency = max(table[i][p] for i, p in enumerate(current.pairs)) + fusion

    while True:
        feasible = []
        for mid, pair, candidate in _moves(scenario, current):
            if table[mid][pair] > budget:
                continue
            lat = max(table[i][p] for i, p in enumerate(candidate.pairs)) + fusion
            feasible.append((mid, pair, candidate, lat))
        best_move = None
        if feasible:
            scores = score_many([c for _, _, c, _ in feasible])
            for (mid, pair, candidate, lat), score in zip(feasible, scores):
                gain = float(score) - current_score
                if gain <= 0.0:
                    continue
                ratio = gain / max(lat - current_latency, 1)
                # tie-break: ratio, then raw gain, then lower modality, lower levels
                key = (ratio, gain, -mid, (-pair[0], -pair[1]))
                if best_move is None or key > best_move[0]:
                    best_move = (key, candidate, gain, lat)
        if best_move is None:
            return current
        _, current, gain, current_latency = best_move
        current_score += gain


def probe_indicators(scenario: Scenario, sample: Sample) -> ModalityIndicators:
    """Indicators from a minimal-config probe encode of unit 0 of each modality."""
    firsts = [sample.unit_payload(m, 0, 1) for m in scenario.modalities]
    return indicators(firsts)


def optimizer_step(
    sample: Sample, scenario: Scenario, model, resource: str
) -> OptimizerDecision:
    """Full online decision: probe, predict, greedy-search; wall time measured."""
    t0 = time.perf_counter()
    ind = probe_indicators(scenario, sample)
    assignment = greedy_search(scenario, ind, model, resource)
    score = float(_batch_scorer(model, ind)([assignment])[0])
    elapsed_us = int((time.perf_counter() - t0) * 1e6)
    return OptimizerDecision(
        assignment=assignment, score=score, decision_latency_us=elapsed_us
    )
