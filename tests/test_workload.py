"""Presets, accuracy surface shape, sample corpora calibration."""

import dataclasses
import itertools

import numpy as np
import pytest
from builders import predicted_label
from hypothesis import given, settings
from hypothesis import strategies as st

from modalsim import engine, latency, rng, workload
from modalsim.core import ConfigAssignment, Difficulty, ExecutionMode, validate_scenario
from modalsim.predictor import ModalityIndicators
from modalsim.workload import UnknownPreset


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        workload.gen_scenario("lrw")


@pytest.mark.parametrize("preset", [p for p in workload.PRESETS if p != "random"])
def test_named_presets_take_no_keyword_arguments(preset):
    with pytest.raises(TypeError):
        workload.gen_scenario(preset, checkpoints=(0.5,))


def test_all_presets_validate():
    for preset in workload.PRESETS:
        s = workload.gen_scenario(preset, seed=1)
        assert validate_scenario(s) is s


def test_motivation_calibration_exact():
    s = workload.gen_scenario("motivation-av", seed=0)
    sample = workload.gen_samples(s, 1, "easy", seed=0)[0]
    a = s.max_assignment()
    pipelined = engine.run(s, a, sample)
    assert pipelined.summary.reported_latency_us == 164_000
    sb = dataclasses.replace(s, execution_mode=ExecutionMode.BLOCKING)
    blocking = engine.run(sb, a, sample)
    assert blocking.summary.reported_latency_us == 242_000
    assert blocking.summary.reported_latency_us - pipelined.summary.reported_latency_us == 78_000
    # blocking waiting time lands on the ~100ms scale
    assert blocking.summary.waiting_us == 100_000


def test_lrw_like_space_shape():
    s = workload.gen_scenario("lrw-like", seed=0)
    assert len(s.modalities) == 2
    assert all(len(x) == 3 for x in s.sensing_space)
    assert all(len(x) == 3 for x in s.model_space)
    assert sum(1 for _ in s.assignments()) == 81


def test_random_preset_deterministic():
    a = workload.gen_scenario("random", seed=9)
    b = workload.gen_scenario("random", seed=9)
    assert a == b
    c = workload.gen_scenario("random", seed=10)
    assert c != a


def test_random_preset_level_knobs():
    s = workload.gen_scenario("random", seed=2, sensing_levels=7, model_levels=7)
    assert sum(1 for _ in s.assignments()) == 7**4 // 1  # 49 * 49


def test_surface_monotone_with_diminishing_returns():
    s = workload.gen_scenario("lrw-like", seed=0)
    ind = ModalityIndicators(0.4)
    # per assignment, modality and coordinate below level 1: the levels shifted by 0, 1 and 2
    steps = []
    for a in s.assignments():
        for mid in range(2):
            for coord in range(2):
                if a.pairs[mid][coord] + 2 >= 3:
                    continue
                for delta in range(3):
                    levels = np.array(a.pairs)
                    levels[mid, coord] += delta
                    steps.append(levels)
    for seed in range(8):
        surface = workload.gen_accuracy_surface(s, seed=seed)
        v0, v1, v2 = surface.scores(ind, np.array(steps)).reshape(-1, 3).T
        assert (v1 >= v0 - 1e-12).all()  # monotone
        assert (v2 - v1 <= v1 - v0 + 1e-12).all()  # diminishing returns


def _norm_level(level: int, count: int) -> float:
    return 1.0 if count <= 1 else level / (count - 1)


def reference_surface(surface, scenario, ind, assignment) -> float:
    """The surface's score as it was computed before its normalized model
    levels were kept: each level normalized again on every call."""
    acc = surface.base + workload.CONSISTENCY_SCALE * ind.consistency
    for i, (s, m) in enumerate(assignment.pairs):
        acc += surface.sensing_gains[i][s] + surface.model_gains[i][m]
    for a, b, w in surface.pair_weights:
        na = _norm_level(assignment.pairs[a][1], len(scenario.model_space[a]))
        nb = _norm_level(assignment.pairs[b][1], len(scenario.model_space[b]))
        acc += w * min(na, nb)
    return float(acc)


SURFACE_SCENARIOS = [workload.gen_scenario("motivation-av", seed=0)] + [
    workload.gen_scenario("random", seed=seed, modalities=3, sensing_levels=2, model_levels=levels)
    for levels in (1, 2, 3, 4)
    for seed in (0, 1)
]


@pytest.mark.parametrize("scenario", SURFACE_SCENARIOS, ids=lambda s: f"{s.name}-{len(s.model_space[0])}")
def test_surface_matches_its_per_call_normalization_bitwise(scenario):
    # a modality with one model level normalizes to 1.0 (motivation-av has
    # one model level per modality)
    ind = ModalityIndicators(0.3)
    assignments = list(scenario.assignments())
    for seed in range(3):
        surface = workload.gen_accuracy_surface(scenario, seed=seed)
        scores = surface.scores(ind, [a.pairs for a in assignments]).tolist()
        for a, got in zip(assignments, scores):
            assert got.hex() == reference_surface(surface, scenario, ind, a).hex()


def reference_call(surface, ind, assignment) -> float:
    """The surface's score of one assignment as `AccuracySurface.__call__`
    computed it before `scores` took level arrays: Python floats, one
    assignment per call."""
    acc = surface.base + workload.CONSISTENCY_SCALE * ind.consistency
    for i, (s, m) in enumerate(assignment.pairs):
        acc += surface.sensing_gains[i][s] + surface.model_gains[i][m]
    norms = surface.model_norms
    for a, b, w in surface.pair_weights:
        acc += w * min(norms[a][assignment.pairs[a][1]], norms[b][assignment.pairs[b][1]])
    return float(acc)


@settings(max_examples=60, deadline=None)
@given(
    modalities=st.integers(2, 5),
    sensing=st.integers(1, 7),
    models=st.integers(1, 7),
    seed=st.integers(0, 10**6),
    interaction=st.sampled_from([0.0, 1.0]),
    consistency=st.floats(-1.0, 1.0),
    rows=st.integers(1, 300),
)
def test_surface_scores_match_the_per_call_formula_bitwise(
    modalities, sensing, models, seed, interaction, consistency, rows
):
    s = workload.gen_scenario(
        "random", seed, modalities=modalities, sensing_levels=sensing, model_levels=models
    )
    surface = workload.gen_accuracy_surface(s, seed=seed, interaction_scale=interaction)
    ind = ModalityIndicators(consistency)
    draw = np.random.default_rng(seed)
    levels = np.stack([draw.integers(0, n, (rows, modalities)) for n in (sensing, models)], axis=2)
    got = surface.scores(ind, levels)
    assert got.shape == (rows,)
    for row, score in zip(levels.tolist(), got.tolist()):
        a = ConfigAssignment(tuple(map(tuple, row)))
        want = reference_call(surface, ind, a)
        assert score.hex() == want.hex()
        assert surface(ind, a).hex() == want.hex()


def test_surface_range_and_finiteness():
    s = workload.gen_scenario("lrw-like", seed=0)
    surface = workload.gen_accuracy_surface(s, seed=3)
    draws = rng.stream(0, "surface-range")
    pairs = [a.pairs for a in s.assignments()]
    count = 100_000
    cons = draws.units(2 * count)[::2] * 2.0 - 1.0
    levels = [pairs[draws.u64(2 * i + 1) % len(pairs)] for i in range(count)]
    # a consistency array gives each row its own, as one call per row would
    arr = surface.scores(ModalityIndicators(cons), levels)
    assert np.isfinite(arr).all()
    assert arr.min() >= 40.0 and arr.max() <= 97.0


def test_surface_dominance_pair_exists():
    # a mid config that matches a bigger config's accuracy within 1% at
    # strictly lower latency, somewhere in the seed corpus
    s = workload.gen_scenario("lrw-like", seed=0)
    ind = ModalityIndicators(0.6)
    found = False
    for seed in range(10):
        surface = workload.gen_accuracy_surface(s, seed=seed)
        assignments = list(s.assignments())
        scores = surface.scores(ind, [a.pairs for a in assignments]).tolist()
        rows = [
            (a, latency.end_to_end_latency(s, a, "high").total_us, acc)
            for a, acc in zip(assignments, scores)
        ]
        for (a1, l1, acc1), (a2, l2, acc2) in itertools.permutations(rows, 2):
            levels1 = sum(x for p in a1.pairs for x in p)
            levels2 = sum(x for p in a2.pairs for x in p)
            if l1 < l2 and levels1 < levels2 and abs(acc1 - acc2) <= 1.0:
                found = True
                break
        if found:
            break
    assert found


def test_sample_regeneration_deterministic():
    s = workload.gen_scenario("lrw-like", seed=3)
    a = workload.gen_samples(s, 10, "hard", seed=4)
    b = workload.gen_samples(s, 10, "hard", seed=4)
    assert a == b
    m = s.modalities[0]
    np.testing.assert_array_equal(
        a[3].window_payload(m, 25), b[3].window_payload(m, 25)
    )


def test_easy_base_rate_within_band():
    s = workload.gen_scenario("lrw-like", seed=3)
    samples = workload.gen_samples(s, 1000, "easy", seed=11)
    rate = np.mean([x.stable for x in samples])
    assert abs(rate - 0.98) <= 0.01


def test_hard_base_rate_approx_ninety():
    s = workload.gen_scenario("lrw-like", seed=3)
    samples = workload.gen_samples(s, 1000, "hard", seed=11)
    rate = np.mean([x.stable for x in samples])
    assert abs(rate - 0.90) <= 0.02


def test_base_rate_override_for_calibrated_corpora():
    s = workload.gen_scenario("lrw-like", seed=3)
    samples = workload.gen_samples(s, 600, "easy", seed=5, base_rates={"easy": 0.762})
    rate = np.mean([x.stable for x in samples])
    assert abs(rate - 0.762) <= 0.035


def test_unstable_samples_flip_prediction_at_canonical_assignment():
    s = workload.gen_scenario("lrw-like", seed=3)
    a = s.max_assignment()
    samples = [
        x
        for x in workload.gen_samples(s, 120, "hard", seed=6)
        if not x.stable
    ]
    assert samples, "expected some unstable samples"
    for sample in samples:
        gate = workload.OracleGate(s, sample, a)
        trace = engine.run(s, a, sample, gate=gate)
        plain = engine.run(s.without_skipping(), a, sample)
        # the oracle refuses to skip (label 0) exactly because the prediction flips
        assert trace.summary.skipped_unit_count == 0
        assert predicted_label(trace) == predicted_label(plain)


def test_calibrated_skip_rate_bands():
    # corpora constructed at the reported skipping BASE rates; with the oracle
    # gate at the calibration assignment the measured skip rate tracks them
    s = workload.gen_scenario("lrw-like", seed=3)
    a = s.max_assignment()
    for target, tol in ((0.762, 0.035), (0.224, 0.035)):
        samples = workload.gen_samples(s, 300, "easy", seed=41, base_rates={"easy": target})
        skipped = sum(
            engine.run(s, a, x, gate=workload.OracleGate(s, x, a)).summary.skipped_unit_count > 0
            for x in samples
        )
        assert abs(skipped / len(samples) - target) <= tol


def test_difficulty_mix_draws_all_kinds():
    s = workload.gen_scenario("lrw-like", seed=3)
    samples = workload.gen_samples(
        s, 120, {"easy": 1.0, "medium": 1.0, "hard": 1.0}, seed=8
    )
    kinds = {x.difficulty for x in samples}
    assert kinds == {Difficulty.EASY, Difficulty.MEDIUM, Difficulty.HARD}


def test_gate_dataset_rows_and_labels():
    s = workload.gen_scenario("lrw-like", seed=3)
    samples = workload.gen_samples(s, 10, {"easy": 1.0, "hard": 1.0}, seed=9)
    rows = workload.gate_dataset(s, samples, [s.max_assignment()])
    assert len(rows) == 10 * len(s.skip_checkpoints)
    for f_fast, f_slow, fraction, label in rows:
        assert label in (0, 1)
        assert fraction in s.skip_checkpoints


def test_predictor_dataset_decodes_assignments_without_listing_them(monkeypatch):
    # 6 modalities: 531,441 assignments, which listed would take about 100 MB
    import tracemalloc

    from modalsim.core import Scenario

    s = workload.gen_scenario("random", seed=2, modalities=6)
    samples = workload.gen_samples(s, 2, "easy", seed=0)
    space = list(itertools.product(*(s.level_pairs(i) for i in range(len(s.modalities)))))
    assert len(space) >= 3**12

    def listed(self):
        raise AssertionError("predictor_dataset listed the assignment space")

    monkeypatch.setattr(Scenario, "assignments", listed)
    del space
    tracemalloc.start()
    try:
        rows = workload.predictor_dataset(s, workload.gen_accuracy_surface(s), samples, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert len(rows) == 12


def test_predictor_dataset_picks_from_the_listed_assignments():
    s = workload.gen_scenario("random", seed=1, modalities=3)
    samples = workload.gen_samples(s, 4, "easy", seed=0)
    listed = list(s.assignments())
    rows = workload.predictor_dataset(s, workload.gen_accuracy_surface(s), samples, seed=3)
    picks = [rng.stream(3, "predictor-picks", x.id).u64(t) % len(listed) for x in samples for t in range(6)]
    assert [a for _, a, _ in rows] == [listed[k] for k in picks]
