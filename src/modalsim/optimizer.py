"""Latency-constrained configuration search.

End-to-end latency is the slowest modality plus fusion, so the budget binds
each modality's (sensing, model) pair on its own and the feasible
assignments are the product of per-modality feasible pairs, read from one
unimodal latency table.  `brute_force` walks that feasible product and is
the oracle; `greedy_search` starts from the minimum-latency feasible
assignment and repeatedly applies the one-modality move with the best
predicted accuracy gain per microsecond of added latency, staying feasible
throughout.  Both score assignments with either a trained PredictorModel or
any object with a `scores(indicators, levels)` method, such as an
AccuracySurface.

Both searches build assignments as (n, modalities, 2) integer arrays of
(sensing, model) levels by array indexing; `product_levels` decodes the
k-th assignment of a product, for brute force, `sweep` and the predictor's
training picks alike.  A `scores` object scores the levels themselves; a
predictor scores rows of the assignments' encodings, standardized
(`_scorer`).  Greedy search scores each step's moves in one product from a
candidate table, a row per in-budget option, and after each step patches
only the moved modality's columns.  A scorer's table is made once per
(scenario instance, resource, scorer) and kept while both live
(`_candidates`): a predictor's rows are encoded and standardized, of which
only the two indicator columns depend on the sample, and a surface's are
the levels, of which none do; each decision copies the table and refills
those columns.  Every product greedy search runs multiplies the same rows,
in the same order, as encoding each step's moves afresh would, so its
scores, and with them its choices, keep every bit.  A decision's probe
reads the sample's one draw pass (`Sample.rows`), which its window then
shares.
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import dataclass

import numpy as np

from .core import ConfigAssignment, ModalsimError, NoFeasibleAssignment, Sample, Scenario, memoized
from .latency import unimodal_table
from .predictor import ModalityIndicators, PredictorModel, indicators, score_standardized

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


def _assignment(row: np.ndarray) -> ConfigAssignment:
    """The assignment of Python ints in one (modalities, 2) row of levels."""
    return ConfigAssignment(tuple(map(tuple, row.tolist())))


def product_levels(options: list[np.ndarray], index) -> np.ndarray:
    """The assignments at positions `index` of the product of per-modality
    options, as an (n, modalities, 2) levels array.  `options[i]` is a
    (k_i, 2) array of modality i's (sensing, model) pairs; the product is in
    `itertools.product` order, the last modality varying fastest, so an
    index is decoded in mixed radix and nothing is listed."""
    levels = np.empty((len(index), len(options), 2), dtype=np.intp)
    for i in reversed(range(len(options))):
        index, digit = np.divmod(index, len(options[i]))
        levels[:, i] = options[i][digit]
    return levels


def _scorer(model, ind: ModalityIndicators, modalities: int, row_per_product: bool = False):
    """How `model` scores assignments, as (rows, columns, score).

    `rows` maps an (n, modalities, 2) levels array to one row per assignment,
    in which modality i's pair sets only the columns [columns[i], columns[i +
    1]) of the second axis; `score` maps rows to their scores, in row order.
    For a PredictorModel a row is the assignment's encoding, standardized,
    and `score` runs all rows in one matrix product, or each row in a product
    of its own when `row_per_product` is set.  For any other object with a
    `scores(ind, levels)` method, such as an AccuracySurface, a row is the
    assignment's levels and `score` is that method.
    """
    if isinstance(model, PredictorModel):
        enc = model.encoding

        def score(x):
            if not row_per_product:
                return score_standardized(model, x)
            return [float(score_standardized(model, x[k : k + 1])[0]) for k in range(len(x))]

        return (lambda levels: model.mlp.standardize(enc.encode_batch(ind, levels))), enc.blocks(), score
    if hasattr(model, "scores"):
        return (lambda levels: levels), range(modalities + 1), (lambda levels: model.scores(ind, levels))
    raise TypeError(f"cannot score assignments with {type(model)!r}")


@dataclass(frozen=True, eq=False)
class _Options:
    """Every in-budget (sensing, model) option of every modality, by modality
    and then in lexicographic order, as read-only arrays.  Equal only to
    itself, so a predictor's tables can be kept by it (`_tables`)."""

    modality: np.ndarray  # (k,) modality of each option
    levels: np.ndarray  # (k, 2) its sensing and model level
    latency: np.ndarray  # (k,) its unimodal latency
    bounds: tuple[int, ...]  # modality i's options are [bounds[i], bounds[i + 1])
    fastest: np.ndarray  # per modality, its fastest option, the lowest levels on ties
    start: np.ndarray  # (k, modalities, 2) the fastest assignment with option k's modality set to it


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
    modality = np.repeat(np.arange(len(table)), np.diff(bounds))
    levels = np.concatenate([np.argwhere(w) for w in within])
    fastest = bounds[:-1] + [int(np.argmin(lat)) for lat in latency]
    start = levels[fastest][None].repeat(len(levels), axis=0)
    start[np.arange(len(levels)), modality] = levels
    options = _Options(modality, levels, np.concatenate(latency), tuple(bounds.tolist()), fastest, start)
    for array in (options.modality, options.levels, options.latency, options.fastest, options.start):
        array.setflags(write=False)
    return options


@memoized
def _tables(model) -> weakref.WeakKeyDictionary:
    """The scorer's candidate tables, `_scorer` rows of `options.start`, by
    `_Options`: each is kept while its scenario's options and the scorer
    both live."""
    return weakref.WeakKeyDictionary()


def _candidates(model, options: _Options, rows, fill: int) -> np.ndarray:
    """A decision's candidate table, `rows(options.start)`, as a new array.
    The rows are made once per `_tables` entry; a later decision copies
    them and sets the first `fill` columns, the only ones the sample sets,
    from `rows` of one row (a surface sets none).  A predictor standardizes
    elementwise, so the table has the bits of encoding it afresh."""
    tables = _tables(model)
    if options in tables:
        table = tables[options].copy()
        table[:, :fill] = rows(options.start[:1])[0, :fill]
        return table
    tables[options] = rows(options.start)
    tables[options].setflags(write=False)
    return tables[options].copy()


def brute_force(
    scenario: Scenario, ind: ModalityIndicators, model, resource: str
) -> SearchResult:
    """Exhaustive search over the feasible assignments; ties break to the
    lexicographically smallest assignment.

    The feasible product is decoded by `product_levels` in lexicographic
    order, BRUTE_FORCE_CHUNK rows at a time.  A predictor encodes and
    standardizes each chunk once and scores each row in a matrix product of
    its own, exactly as a one-assignment `predict_batch` call does:
    standardizing is elementwise, but a batched product may round a row
    differently, which could move a tie-break.  Each chunk's first strict
    maximum, with NaN scored as -inf, becomes the best only if it beats the
    best so far strictly.

    Raises SearchSpaceTooLarge, before scoring anything, when there are more
    than BRUTE_FORCE_LIMIT feasible assignments, and NonFiniteScore when no
    feasible assignment scores a finite number.
    """
    rows, _, score_each = _scorer(model, ind, len(scenario.modalities), row_per_product=True)
    feasible = _options(scenario, resource)
    options = np.split(feasible.levels, feasible.bounds[1:-1])
    count = math.prod(len(levels) for levels in options)
    if count > BRUTE_FORCE_LIMIT:
        raise SearchSpaceTooLarge(
            f"{count} feasible assignments exceed the brute-force limit of {BRUTE_FORCE_LIMIT}"
        )
    best, best_score = None, float("-inf")
    for start in range(0, count, BRUTE_FORCE_CHUNK):
        levels = product_levels(options, np.arange(start, min(start + BRUTE_FORCE_CHUNK, count)))
        with np.errstate(all="ignore"):  # a score that is not finite never becomes the best
            scores = np.fmax(score_each(rows(levels)), -np.inf)  # NaN as -inf
        k = int(scores.argmax())
        if scores[k] > best_score:
            best, best_score = levels[k], float(scores[k])
    if best is None or not math.isfinite(best_score):
        raise NonFiniteScore(f"no feasible assignment has a finite score (best {best_score})")
    return SearchResult(best=_assignment(best), best_score=best_score, feasible_count=count)


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
    modality, then by (sensing, model) level.  Ties on (ratio, gain) go to
    the first move in that order, which has the lowest modality and then the
    lowest levels.  The rows come from the decision's candidate table
    (`_candidates`), which `_ascend` patches after each step.
    """
    return _ascend(scenario, ind, model, resource)[0]


def _ascend(scenario: Scenario, ind: ModalityIndicators, model, resource: str):
    """`greedy_search`'s ascent.  Returns the chosen assignment, its row of
    the candidate table as a 1-row array, and the scorer of such rows.

    The candidate table (`_candidates`) has one row per in-budget option k:
    the current assignment with option k's modality set to option k, so the
    rows of the chosen options are the current assignment and the other
    rows are its moves.  When modality i moves to option k, row k's columns
    for modality i are copied into every row outside modality i's options.
    A matrix product's rounding depends only on the rows it multiplies, so
    scoring `table[moves]` in one product gives the bits that encoding the
    same rows afresh, in the same order, would give.
    """
    rows, columns, score = _scorer(model, ind, len(scenario.modalities))
    options = _options(scenario, resource)
    table = _candidates(model, options, rows, columns[0])
    modality, latency = options.modality.tolist(), options.latency.tolist()
    chosen = options.fastest.tolist()  # each modality's current option
    is_move = np.ones(len(modality), dtype=bool)
    is_move[chosen] = False
    current_score = float(score(table[chosen[:1]])[0])

    while True:
        moves = is_move.nonzero()[0]
        if not len(moves):
            break
        gains = np.asarray(score(table[moves]), dtype=np.float64) - current_score
        # a move adds max(its own, the slowest other's) - peak; fusion cancels.
        # The slowest other is at most the peak, so it matters only where the
        # added latency is at most 0, and a ratio divides by at least 1 µs
        lift = np.maximum(options.latency[moves] - max(latency[c] for c in chosen), 1)
        ratios = np.where(gains > 0.0, gains / lift, -np.inf)

        # the best (ratio, gain); the first such move has the lowest modality and levels
        k = int(ratios.argmax())
        if ratios[k] == -np.inf:  # no move gains
            break
        ties = (ratios == ratios[k]).nonzero()[0]
        if len(ties) > 1:
            k = int(ties[gains[ties].argmax()])
        new = int(moves[k])
        mid = modality[new]
        is_move[chosen[mid]], is_move[new] = True, False
        chosen[mid] = new
        cols = slice(columns[mid], columns[mid + 1])
        table[: options.bounds[mid], cols] = table[new, cols]
        table[options.bounds[mid + 1] :, cols] = table[new, cols]
        current_score += float(gains[k])
    return _assignment(options.levels[chosen]), table[chosen[:1]], score


def probe_indicators(scenario: Scenario, sample: Sample) -> ModalityIndicators:
    """Indicators from a minimal-config probe encode of unit 0 of each
    modality, whose rows are drawn in one pass, which the window shares."""
    sample.rows(scenario.modalities)
    return indicators([sample.unit_payload(m, 0, 1) for m in scenario.modalities])


def optimizer_step(
    sample: Sample, scenario: Scenario, model, resource: str
) -> OptimizerDecision:
    """Full online decision: probe, predict, greedy-search; wall time measured.
    Raises NonFiniteScore when the chosen assignment's score is not finite."""
    t0 = time.perf_counter()
    ind = probe_indicators(scenario, sample)
    with np.errstate(all="ignore"):  # a non-finite score raises below
        assignment, row, score_of = _ascend(scenario, ind, model, resource)
        score = float(score_of(row)[0])
    if not math.isfinite(score):
        raise NonFiniteScore(f"the chosen assignment {assignment.pairs} scores {score}")
    elapsed_us = int((time.perf_counter() - t0) * 1e6)
    return OptimizerDecision(
        assignment=assignment, score=score, decision_latency_us=elapsed_us
    )
