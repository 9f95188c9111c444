"""Latency-constrained configuration search.

End-to-end latency is the slowest modality plus fusion, so the budget binds
each modality's (sensing, model) pair on its own and the feasible
assignments are the product of per-modality feasible pairs, read from one
unimodal latency table.  `brute_force` walks that feasible product and is
the oracle; `greedy_search` starts from the minimum-latency feasible
assignment and repeatedly applies the one-modality move with the best
predicted accuracy gain per microsecond of added latency, staying feasible
throughout.  Both score assignments with either a trained PredictorModel or
any callable (indicators, assignment) -> accuracy.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .core import ConfigAssignment, NoFeasibleAssignment, Sample, Scenario
from .latency import unimodal_table
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


def _feasible_pairs(scenario: Scenario, resource: str):
    """The unimodal latency table and each modality's in-budget pairs, in
    lexicographic order; raises NoFeasibleAssignment if a modality has none."""
    table = unimodal_table(scenario, resource)
    budget = scenario.t_max_us - scenario.latency_profile.fusion_us
    feasible = [[pair for pair, lat in row.items() if lat <= budget] for row in table]
    if not all(feasible):
        raise NoFeasibleAssignment(
            f"every assignment exceeds t_max={scenario.t_max_us}µs at resource {resource!r}"
        )
    return table, feasible


def brute_force(
    scenario: Scenario, ind: ModalityIndicators, model, resource: str
) -> SearchResult:
    """Exhaustive search over the feasible assignments; ties break to the
    lexicographically smallest assignment.

    Scores one assignment per call: a batched matrix product may round a row
    differently, which could move a tie-break.
    """
    score_many = _batch_scorer(model, ind)
    _, feasible = _feasible_pairs(scenario, resource)
    best = None
    best_score = float("-inf")
    for count, pairs in enumerate(itertools.product(*feasible), 1):
        assignment = ConfigAssignment(pairs)
        score = float(score_many([assignment])[0])
        if score > best_score:
            best, best_score = assignment, score
    return SearchResult(best=best, best_score=best_score, feasible_count=count)


def _moves(assignment: ConfigAssignment, feasible):
    """Feasible reconfigurations of one modality's (sensing, model) pair.

    Single-coordinate upgrades alone can wedge in a corner of the feasible
    staircase (a free sensing upgrade can lock out every model upgrade), so
    the move set is any change to one modality's pair; feasibility of the
    other modalities is unaffected because the budget binds each modality's
    unimodal latency independently.
    """
    for mid, options in enumerate(feasible):
        for pair in options:
            if pair == assignment.pairs[mid]:
                continue
            pairs = list(assignment.pairs)
            pairs[mid] = pair
            yield mid, pair, ConfigAssignment(tuple(pairs))


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
    table, feasible = _feasible_pairs(scenario, resource)
    fusion = scenario.latency_profile.fusion_us

    def latency(a: ConfigAssignment) -> int:
        return max(table[i][p] for i, p in enumerate(a.pairs)) + fusion

    current = ConfigAssignment(
        tuple(min(options, key=lambda p: (row[p], p)) for row, options in zip(table, feasible))
    )
    current_score = float(score_many([current])[0])
    current_latency = latency(current)

    while True:
        moves = [(mid, pair, c, latency(c)) for mid, pair, c in _moves(current, feasible)]
        best_move = None
        if moves:
            scores = score_many([c for _, _, c, _ in moves])
            for (mid, pair, candidate, lat), score in zip(moves, scores):
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
