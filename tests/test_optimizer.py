"""Brute-force oracle and greedy search properties."""

import dataclasses
import gc
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalsim import latency, optimizer, predictor, workload
from modalsim.core import ModalsimError, NoFeasibleAssignment
from modalsim.predictor import ModalityIndicators

IND = ModalityIndicators(0.6)


def lrw(seed=0):
    return workload.gen_scenario("lrw-like", seed=seed)


class Constant:
    """A scorer that gives every assignment one score and keeps the levels it scored."""

    def __init__(self, value):
        self.value, self.scored = value, []

    def scores(self, ind, levels):
        self.scored.append(levels)
        return np.full(len(levels), self.value)


def test_space_is_eighty_one():
    s = lrw()
    assert sum(1 for _ in s.assignments()) == 81


def test_no_feasible_assignment():
    s = dataclasses.replace(lrw(), t_max_us=10_000)
    surface = workload.gen_accuracy_surface(s, seed=1)
    with pytest.raises(NoFeasibleAssignment):
        optimizer.brute_force(s, IND, surface, "high")
    with pytest.raises(NoFeasibleAssignment):
        optimizer.greedy_search(s, IND, surface, "high")


def test_no_finite_score_raises():
    s = lrw()
    with pytest.raises(optimizer.NonFiniteScore):
        optimizer.brute_force(s, IND, Constant(float("nan")), "high")
    sample = workload.gen_samples(s, 1, "easy")[0]
    with pytest.raises(optimizer.NonFiniteScore):
        optimizer.optimizer_step(sample, s, Constant(float("inf")), "high")


def test_unconstrained_returns_global_argmax():
    s = dataclasses.replace(lrw(), t_max_us=10**12)
    surface = workload.gen_accuracy_surface(s, seed=1)
    result = optimizer.brute_force(s, IND, surface, "high")
    want = surface.scores(IND, [a.pairs for a in s.assignments()]).max()
    assert result.best_score == want
    assert result.feasible_count == 81


def test_feasible_count_and_filter():
    s = lrw()
    surface = workload.gen_accuracy_surface(s, seed=1)
    result = optimizer.brute_force(s, IND, surface, "high")
    want = sum(
        1
        for a in s.assignments()
        if latency.end_to_end_latency(s, a, "high").total_us <= s.t_max_us
    )
    assert result.feasible_count == want
    assert latency.end_to_end_latency(s, result.best, "high").total_us <= s.t_max_us


def test_greedy_always_feasible_and_bounded_by_oracle():
    s = lrw()
    for seed in range(20):
        surface = workload.gen_accuracy_surface(s, seed=seed)
        bf = optimizer.brute_force(s, IND, surface, "high")
        greedy = optimizer.greedy_search(s, IND, surface, "high")
        assert latency.end_to_end_latency(s, greedy, "high").total_us <= s.t_max_us
        assert surface(IND, greedy) <= bf.best_score + 1e-12


def test_greedy_matches_oracle_on_additive_surfaces():
    s = lrw()
    for seed in range(50):
        surface = workload.gen_accuracy_surface(s, seed=seed, interaction_scale=0.0)
        bf = optimizer.brute_force(s, IND, surface, "high")
        greedy = optimizer.greedy_search(s, IND, surface, "high")
        assert surface(IND, greedy) == pytest.approx(bf.best_score, abs=1e-9)


def test_greedy_gap_bounded_on_interaction_surfaces():
    s = lrw()
    for seed in range(50):
        surface = workload.gen_accuracy_surface(s, seed=seed, interaction_scale=1.0)
        bf = optimizer.brute_force(s, IND, surface, "high")
        greedy = optimizer.greedy_search(s, IND, surface, "high")
        gap = (bf.best_score - surface(IND, greedy)) / bf.best_score
        assert gap <= 0.10


def test_budget_monotonicity():
    s = lrw()
    surface = workload.gen_accuracy_surface(s, seed=7)
    prev = None
    for budget in (1_050_000, 1_120_000, 1_180_000, 1_400_000, 2_500_000):
        sb = dataclasses.replace(s, t_max_us=budget)
        score = optimizer.brute_force(sb, IND, surface, "high").best_score
        if prev is not None:
            assert score >= prev - 1e-12
        prev = score


def test_resource_level_changes_feasible_set():
    s = lrw()
    surface = workload.gen_accuracy_surface(s, seed=2)
    high = optimizer.brute_force(s, IND, surface, "high")
    low = optimizer.brute_force(s, IND, surface, "low")
    assert low.feasible_count < high.feasible_count


def test_optimizer_step_deterministic_assignment():
    s = lrw()
    surface = workload.gen_accuracy_surface(s)
    sample = workload.gen_samples(s, 1, "easy", seed=0)[0]
    d1 = optimizer.optimizer_step(sample, s, surface, "high")
    d2 = optimizer.optimizer_step(sample, s, surface, "high")
    assert d1.assignment == d2.assignment
    assert d1.score == d2.score


def test_greedy_with_no_move_in_budget_stops_at_its_start():
    # covers `_ascend`'s no-move exit: the budget leaves each modality one
    # in-budget pair, so the start assignment has no move to score
    s = workload.gen_scenario("random", seed=32, modalities=3)
    table = latency.unimodal_table(s, "low")
    budget = max(row.min() for row in table)
    assert [int((row <= budget).sum()) for row in table] == [1, 1, 1]
    s = dataclasses.replace(s, t_max_us=s.latency_profile.fusion_us + int(budget))
    scorer = Constant(1.0)
    greedy = optimizer.greedy_search(s, IND, scorer, "low")
    assert [len(levels) for levels in scorer.scored] == [1]  # the start; no empty batch of moves
    result = optimizer.brute_force(s, IND, scorer, "low")
    assert result.feasible_count == 1
    assert greedy == result.best
    assert greedy.pairs == tuple(divmod(int(row.argmin()), row.shape[1]) for row in table)


def test_tie_break_lexicographic():
    s = dataclasses.replace(lrw(), t_max_us=10**12)
    result = optimizer.brute_force(s, IND, Constant(50.0), "high")
    assert result.best.pairs == ((0, 0), (0, 0))


def test_probe_indicators_reflect_difficulty():
    s = lrw()
    easy = workload.gen_samples(s, 20, "easy", seed=3)
    hard = workload.gen_samples(s, 20, "hard", seed=3)
    mean = lambda xs: sum(xs) / len(xs)
    cons_easy = mean([optimizer.probe_indicators(s, x).consistency for x in easy])
    cons_hard = mean([optimizer.probe_indicators(s, x).consistency for x in hard])
    assert cons_easy > cons_hard + 0.3


def test_brute_force_refuses_a_space_over_its_limit_before_scoring():
    # an 8-modality random preset has 6,773,760 feasible assignments at its budget
    s = workload.gen_scenario("random", seed=0, modalities=8)
    scorer = Constant(0.0)
    with pytest.raises(optimizer.SearchSpaceTooLarge, match="6773760 .* 1048576"):
        optimizer.brute_force(s, IND, scorer, "high")
    assert scorer.scored == []


def test_brute_force_limit_admits_a_space_of_exactly_its_size(monkeypatch):
    s = lrw()
    surface = workload.gen_accuracy_surface(s, seed=1)
    count = optimizer.brute_force(s, IND, surface, "high").feasible_count
    monkeypatch.setattr(optimizer, "BRUTE_FORCE_LIMIT", count)
    assert optimizer.brute_force(s, IND, surface, "high").feasible_count == count
    monkeypatch.setattr(optimizer, "BRUTE_FORCE_LIMIT", count - 1)
    with pytest.raises(optimizer.SearchSpaceTooLarge):
        optimizer.brute_force(s, IND, surface, "high")


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5), seed=st.integers(0, 10**6))
def test_product_levels_follows_itertools_product_order(sizes, seed):
    draw = np.random.default_rng(seed)
    options = [draw.integers(0, 7, (k, 2)) for k in sizes]
    count = math.prod(sizes)
    chunk = optimizer.BRUTE_FORCE_CHUNK
    # the first and last assignment, and the rows around the first chunk boundary
    index = sorted({0, count - 1, *range(max(0, chunk - 3), min(count, chunk + 3))})
    want = [
        next(itertools.islice(itertools.product(*(o.tolist() for o in options)), k, None))
        for k in index
    ]
    got = optimizer.product_levels(options, index)
    assert got.shape == (len(index), len(sizes), 2)
    assert got.tolist() == [list(map(list, pairs)) for pairs in want]


class Table:
    """A scorer that reads each assignment's score from `values`, at the
    assignment's position in the scenario's full product."""

    def __init__(self, scenario, values):
        self.pairs = [len(scenario.model_space[i]) for i in range(len(scenario.modalities))]
        self.sizes = [len(scenario.sensing_space[i]) * n for i, n in enumerate(self.pairs)]
        self.values = np.asarray(values, dtype=np.float64)

    def scores(self, ind, levels):
        position = np.zeros(len(levels), dtype=np.intp)
        for i, size in enumerate(self.sizes):
            position = position * size + levels[:, i, 0] * self.pairs[i] + levels[:, i, 1]
        return self.values[position]


def reference_brute_force(scenario, ind, model, resource):
    """`brute_force`'s selection as a loop over the feasible product, in
    order: a score becomes the best only if it is strictly greater."""
    budget = scenario.t_max_us - scenario.latency_profile.fusion_us
    tables = latency.unimodal_table(scenario, resource)
    feasible = [
        [p for p in scenario.level_pairs(i) if tables[i][p] <= budget] for i in range(len(tables))
    ]
    best, best_score = None, float("-inf")
    for pairs in itertools.product(*feasible):
        score = float(model.scores(ind, np.array([pairs]))[0])
        if score > best_score:
            best, best_score = pairs, score
    if best is None or not math.isfinite(best_score):
        raise optimizer.NonFiniteScore(best_score)
    return best, best_score.hex()


def _selection(scenario, model):
    try:
        result = optimizer.brute_force(scenario, IND, model, "high")
    except ModalsimError as exc:
        return type(exc).__name__
    return result.best.pairs, result.best_score.hex()


def _wide():
    """729 assignments, all feasible: chunks of 256, 256 and 217 rows."""
    s = workload.gen_scenario("random", seed=0, modalities=3)
    return dataclasses.replace(s, t_max_us=10**12)


@pytest.mark.parametrize(
    "planted, want",
    [
        ({255: 5.0, 256: 5.0}, 255),  # a tie across the chunk boundary goes to the first
        ({255: 5.0, 256: 6.0}, 256),
        ({3: 4.0, 300: float("nan"), 301: 5.0}, 301),  # NaN in a chunk hides nothing
        ({3: 4.0, 256: float("nan"), 600: 4.0}, 3),
        ({3: 4.0, 400: float("inf"), 401: 9.0}, "NonFiniteScore"),
        ({0: float("nan"), 728: float("nan")}, "NonFiniteScore"),
    ],
)
def test_brute_force_selection_planted(planted, want):
    s = _wide()
    values = np.full(729, -np.inf)
    for k, v in planted.items():
        values[k] = v
    got = _selection(s, Table(s, values))
    if isinstance(want, int):
        assert got == (list(s.assignments())[want].pairs, values[want].hex())
    else:
        assert got == want


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    weights=st.lists(st.integers(0, 3), min_size=6, max_size=6),
    unconstrained=st.booleans(),
)
def test_brute_force_selection_matches_the_strict_loop(seed, weights, unconstrained):
    # few distinct values, so ties within and across chunks are common
    s = _wide() if unconstrained else workload.gen_scenario("random", seed=0, modalities=3)
    pool = np.repeat([1.0, 2.0, 3.0, np.nan, np.inf, -np.inf], weights)
    if not len(pool):
        pool = np.array([np.nan])
    model = Table(s, np.random.default_rng(seed).choice(pool, 729))
    try:
        want = reference_brute_force(s, IND, model, "high")
    except ModalsimError as exc:
        want = type(exc).__name__
    assert _selection(s, model) == want


def test_a_kept_candidate_table_gives_a_fresh_tables_bits():
    # a predictor's table is encoded once per (scenario instance, resource,
    # model); a later decision refills only its indicator columns, and the
    # table goes with its scenario
    s = workload.gen_scenario("random", 3, modalities=3)
    samples = workload.gen_samples(s, 6, {"easy": 1.0, "hard": 1.0}, seed=3)
    rows = workload.predictor_dataset(s, workload.gen_accuracy_surface(s), samples, seed=3, noise_pct=1.0)
    model = predictor.train(rows, predictor.EncodingSpec.for_scenario(s), predictor.TrainConfig(seed=3, epochs=150))
    assert len({optimizer.probe_indicators(s, x) for x in samples}) == len(samples)
    kept = [optimizer.optimizer_step(x, s, model, "high") for x in samples]
    fresh = [optimizer.optimizer_step(x, dataclasses.replace(s), model, "high") for x in samples]
    assert [(d.assignment, d.score.hex()) for d in kept] == [(d.assignment, d.score.hex()) for d in fresh]
    gc.collect()
    assert len(optimizer._tables(model)) == 1  # the fresh scenarios' tables went with them


def test_a_kept_surface_table_gives_a_fresh_tables_bits():
    # the surface case of the test above: a surface's table, its levels, is
    # kept like a predictor's and refilled in no column
    s = workload.gen_scenario("random", 3, modalities=3)
    samples = workload.gen_samples(s, 6, {"easy": 1.0, "hard": 1.0}, seed=3)
    surface = workload.gen_accuracy_surface(s)
    kept = [optimizer.optimizer_step(x, s, surface, "high") for x in samples]
    fresh = [optimizer.optimizer_step(x, dataclasses.replace(s), surface, "high") for x in samples]
    assert [(d.assignment, d.score.hex()) for d in kept] == [(d.assignment, d.score.hex()) for d in fresh]
    gc.collect()
    (table,) = optimizer._tables(surface).values()  # the fresh scenarios' tables went with them
    assert table is optimizer._options(s, "high").start


@pytest.mark.parametrize("seed", [3, 7])
def test_a_ratio_tie_goes_to_the_larger_gain(seed):
    # an assignment scores its peak unimodal latency, so every move that
    # raises the peak gains exactly its added latency: all such moves tie
    # on ratio 1.0, and the larger gain, the slower option, must win; at
    # these seeds both modalities have options above the starting peak, and
    # the slowest is the last such option (3) or not (7)
    s = workload.gen_scenario("random", seed)
    s = dataclasses.replace(s, t_max_us=10**12)
    tables = latency.unimodal_table(s, "high")
    scorer = Table(s, [float(max(tables[i][p] for i, p in enumerate(a.pairs))) for a in s.assignments()])
    greedy = optimizer.greedy_search(s, IND, scorer, "high")
    slowest = max(range(len(tables)), key=lambda i: tables[i].max())
    options = optimizer._options(s, "high")
    want = [tuple(options.levels[k].tolist()) for k in options.fastest]
    want[slowest] = np.unravel_index(tables[slowest].argmax(), tables[slowest].shape)
    assert greedy.pairs == tuple(tuple(map(int, p)) for p in want)
