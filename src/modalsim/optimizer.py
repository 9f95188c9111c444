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

Both searches hold assignments as (n, modalities, 2) integer arrays of
(sensing, model) levels and build one row per candidate by array indexing;
a callable scorer still gets one ConfigAssignment of Python ints per row.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import ConfigAssignment, ModalsimError, NoFeasibleAssignment, Sample, Scenario, memoized
from .latency import unimodal_table
from .predictor import ModalityIndicators, PredictorModel, indicators, predict_batch, score_rows

PROBE_COST_US = 1000
BRUTE_FORCE_CHUNK = 256  # assignments encoded at a time, which bounds brute_force's memory
BRUTE_FORCE_LIMIT = 1 << 20  # feasible assignments brute_force will score, which bounds its time


class SearchSpaceTooLarge(ModalsimError):
    """More feasible assignments than `brute_force` will score."""


class NonFiniteScore(ModalsimError):
    """A scorer that gives the chosen assignment, or every feasible one, a
    score that is not a finite number, as a predictor with extreme weights can."""


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


def _assignments(levels: np.ndarray) -> list[ConfigAssignment]:
    """One assignment of Python ints per row of an (n, modalities, 2) levels array."""
    return [ConfigAssignment(tuple(map(tuple, row))) for row in levels.tolist()]


def _scorer(model, ind: ModalityIndicators, row_per_product: bool = False):
    """Scores of an (n, modalities, 2) levels array, in row order.

    A PredictorModel scores all rows in one matrix product, or each row in a
    product of its own when `row_per_product` is set; a callable is called
    once per row.
    """
    if isinstance(model, PredictorModel):
        if not row_per_product:
            return lambda levels: predict_batch(model, ind, levels)

        def score_each(levels):
            x = model.encoding.encode_batch(ind, levels)
            return [float(score_rows(model, x[k : k + 1])[0]) for k in range(len(x))]

        return score_each
    if callable(model):
        return lambda levels: [float(model(ind, a)) for a in _assignments(levels)]
    raise TypeError(f"cannot score assignments with {type(model)!r}")


@dataclass(frozen=True)
class _Options:
    """Every in-budget (sensing, model) option of every modality, by modality
    and then in lexicographic order, as read-only arrays."""

    modality: np.ndarray  # (k,) modality of each option
    levels: np.ndarray  # (k, 2) its sensing and model level
    latency: np.ndarray  # (k,) its unimodal latency
    bounds: tuple[int, ...]  # modality i's options are [bounds[i], bounds[i + 1])
    fastest: np.ndarray  # per modality, its fastest option, the lowest levels on ties


@memoized
def _options(scenario: Scenario, resource: str) -> _Options:
    """The in-budget options, computed once per (scenario instance, resource)
    like the latency table; raises NoFeasibleAssignment if a modality has none."""
    budget = scenario.t_max_us - scenario.latency_profile.fusion_us
    table = unimodal_table(scenario, resource)
    within = [row <= budget for row in table]
    if not all(w.any() for w in within):
        raise NoFeasibleAssignment(
            f"every assignment exceeds t_max={scenario.t_max_us}µs at resource {resource!r}"
        )
    latency = [row[w] for row, w in zip(table, within)]
    bounds = np.cumsum([0] + [len(lat) for lat in latency])
    options = _Options(
        modality=np.repeat(np.arange(len(table)), np.diff(bounds)),
        levels=np.concatenate([np.argwhere(w) for w in within]),
        latency=np.concatenate(latency),
        bounds=tuple(bounds.tolist()),
        fastest=bounds[:-1] + [int(np.argmin(lat)) for lat in latency],
    )
    for array in (options.modality, options.levels, options.latency, options.fastest):
        array.setflags(write=False)
    return options


def brute_force(
    scenario: Scenario, ind: ModalityIndicators, model, resource: str
) -> SearchResult:
    """Exhaustive search over the feasible assignments; ties break to the
    lexicographically smallest assignment.

    The feasible product is built in lexicographic order, BRUTE_FORCE_CHUNK
    rows at a time, and a predictor scores each row in a matrix product of
    its own, exactly as a one-assignment `predict_batch` call does: a batched
    product may round a row differently, which could move a tie-break.

    Raises SearchSpaceTooLarge, before scoring anything, when there are more
    than BRUTE_FORCE_LIMIT feasible assignments, and NonFiniteScore when no
    feasible assignment scores a finite number.
    """
    score_each = _scorer(model, ind, row_per_product=True)
    feasible = _options(scenario, resource)
    bounds = feasible.bounds
    options = [feasible.levels[a:b] for a, b in zip(bounds, bounds[1:])]
    count = math.prod(len(levels) for levels in options)
    if count > BRUTE_FORCE_LIMIT:
        raise SearchSpaceTooLarge(
            f"{count} feasible assignments exceed the brute-force limit of {BRUTE_FORCE_LIMIT}"
        )
    best, best_score = None, float("-inf")
    for start in range(0, count, BRUTE_FORCE_CHUNK):
        index = np.arange(start, min(start + BRUTE_FORCE_CHUNK, count))
        levels = np.empty((len(index), len(options), 2), dtype=np.intp)
        for i in reversed(range(len(options))):  # the last modality varies fastest
            index, digit = np.divmod(index, len(options[i]))
            levels[:, i] = options[i][digit]
        with np.errstate(all="ignore"):  # a score that is not finite never becomes the best
            scores = score_each(levels)
        for k, score in enumerate(scores):
            if score > best_score:
                best, best_score = levels[k : k + 1], score
    if best is None or not math.isfinite(best_score):
        raise NonFiniteScore(f"no feasible assignment has a finite score (best {best_score})")
    return SearchResult(best=_assignments(best)[0], best_score=best_score, feasible_count=count)


def greedy_search(
    scenario: Scenario, ind: ModalityIndicators, model, resource: str
) -> ConfigAssignment:
    """Marginal-gain-per-latency greedy ascent under the latency budget.

    Starts from the minimum-latency feasible assignment and repeatedly takes
    the feasible one-modality move with the best accuracy gain per added
    microsecond (free or latency-reducing gains rank highest); every step
    strictly improves the predicted accuracy, so termination is guaranteed.

    Single-coordinate upgrades alone can wedge in a corner of the feasible
    staircase (a free sensing upgrade can lock out every model upgrade), so
    a move is any change to one modality's pair; the other modalities stay
    feasible because the budget binds each modality's unimodal latency
    independently.

    Each step scores all its moves in one call, in a fixed order: by
    modality, then by (sensing, model) level.  A matrix product's rounding
    depends only on the rows it multiplies, so the same rows in the same
    order give the same scores bit for bit however the rows are built; ties
    on (ratio, gain) go to the first move in that order, which has the
    lowest modality and then the lowest levels.
    """
    score_many = _scorer(model, ind)
    options = _options(scenario, resource)
    floor = options.latency.min()
    chosen = options.fastest.copy()  # each modality's current option
    is_move = np.ones(len(options.modality), dtype=bool)
    is_move[chosen] = False
    current = options.levels[chosen]
    current_score = float(score_many(current[None])[0])

    while True:
        moves = is_move.nonzero()[0]
        if not len(moves):
            break
        mids = options.modality[moves]
        levels = current[None].repeat(len(moves), axis=0)
        levels[np.arange(len(moves)), mids] = options.levels[moves]

        # fusion cancels in a move's added latency: max(its own, the slowest other's) - peak
        unimodal = options.latency[chosen].tolist()
        others = [max(unimodal[:i] + unimodal[i + 1 :], default=floor) for i in range(len(unimodal))]
        added = np.maximum(options.latency[moves], np.array(others)[mids]) - max(unimodal)
        gains = np.asarray(score_many(levels), dtype=np.float64) - current_score
        ratios = gains / np.maximum(added, 1)

        # the best (ratio, gain); the first such move has the lowest modality and levels
        best = gains > 0.0
        if not best.any():
            break
        best &= ratios == ratios.max(where=best, initial=-np.inf)
        best &= gains == gains.max(where=best, initial=-np.inf)
        k = int(best.argmax())
        mid = mids[k]
        is_move[chosen[mid]], is_move[moves[k]] = True, False
        chosen[mid] = moves[k]
        current = levels[k]
        current_score += float(gains[k])
    return _assignments(current[None])[0]


def probe_indicators(scenario: Scenario, sample: Sample) -> ModalityIndicators:
    """Indicators from a minimal-config probe encode of unit 0 of each modality."""
    firsts = [sample.unit_payload(m, 0, 1) for m in scenario.modalities]
    return indicators(firsts)


def optimizer_step(
    sample: Sample, scenario: Scenario, model, resource: str
) -> OptimizerDecision:
    """Full online decision: probe, predict, greedy-search; wall time measured.
    Raises NonFiniteScore when the chosen assignment's score is not finite."""
    t0 = time.perf_counter()
    ind = probe_indicators(scenario, sample)
    with np.errstate(all="ignore"):  # a non-finite score raises below
        assignment = greedy_search(scenario, ind, model, resource)
        score = float(_scorer(model, ind)(np.array([assignment.pairs]))[0])
    if not math.isfinite(score):
        raise NonFiniteScore(f"the chosen assignment {assignment.pairs} scores {score}")
    elapsed_us = int((time.perf_counter() - t0) * 1e6)
    return OptimizerDecision(
        assignment=assignment, score=score, decision_latency_us=elapsed_us
    )
