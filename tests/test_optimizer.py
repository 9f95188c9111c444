"""Brute-force oracle and greedy search properties."""

import dataclasses

import pytest

from modalsim import latency, optimizer, workload
from modalsim.core import NoFeasibleAssignment
from modalsim.predictor import ModalityIndicators

IND = ModalityIndicators.from_consistency(0.6)


def lrw(seed=0):
    return workload.gen_scenario("lrw-like", seed=seed)


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
        optimizer.brute_force(s, IND, lambda ind, a: float("nan"), "high")
    sample = workload.gen_samples(s, 1, "easy")[0]
    with pytest.raises(optimizer.NonFiniteScore):
        optimizer.optimizer_step(sample, s, lambda ind, a: float("inf"), "high")


def test_unconstrained_returns_global_argmax():
    s = dataclasses.replace(lrw(), t_max_us=10**12)
    surface = workload.gen_accuracy_surface(s, seed=1)
    result = optimizer.brute_force(s, IND, surface, "high")
    want = max(surface(IND, a) for a in s.assignments())
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


def test_tie_break_lexicographic():
    s = dataclasses.replace(lrw(), t_max_us=10**12)

    def flat_surface(ind, assignment):
        return 50.0

    result = optimizer.brute_force(s, IND, flat_surface, "high")
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
    scored = []

    def scorer(ind, assignment):
        scored.append(assignment)
        return 0.0

    with pytest.raises(optimizer.SearchSpaceTooLarge, match="6773760 .* 1048576"):
        optimizer.brute_force(s, IND, scorer, "high")
    assert scored == []


def test_brute_force_limit_admits_a_space_of_exactly_its_size(monkeypatch):
    s = lrw()
    surface = workload.gen_accuracy_surface(s, seed=1)
    count = optimizer.brute_force(s, IND, surface, "high").feasible_count
    monkeypatch.setattr(optimizer, "BRUTE_FORCE_LIMIT", count)
    assert optimizer.brute_force(s, IND, surface, "high").feasible_count == count
    monkeypatch.setattr(optimizer, "BRUTE_FORCE_LIMIT", count - 1)
    with pytest.raises(optimizer.SearchSpaceTooLarge):
        optimizer.brute_force(s, IND, surface, "high")
