"""Work done per window, pinned by call counts rather than timings.

Each seeded quantity is computed once: a window's payload draws its base
and jump rows once per (sample, modality), and a decision's probe and its
window share that draw, a gate trains on the checkpoints a window
evaluates, each named once, a scenario is serialized for
its fingerprint once per instance however many windows it serves (and
its latency profile once, however many scenarios share it), a trace file
is parsed with one `json.loads` however many lines it has, a committed
skip fuses the prefix vector the gate was shown, calibrating an unstable
sample aggregates each modality's window once and the slow prefix once per
jump tried, a window reads each
modality's encode cost once per resource level, a budget query reads
each (modality, sensing, model) profile entry once per scenario instance
and resource, greedy search encodes one table of candidate rows per
decision and scores each step's moves from it as one batch, and
the prediction head and diff encoder are drawn once per scenario and per
spec and channel count.
"""

import dataclasses
import json
import sys

import numpy as np
import pytest

from modalsim import engine, optimizer, predictor, rng, scenario_io, traceio, workload
from modalsim.aggregation import DiffSpec, ShiftSpec, aggregate_vector
from modalsim.core import Difficulty, ExecutionMode, LatencyProfile, Modality, Sample, validate_scenario
from modalsim.predictor import EncodingSpec, ModalityIndicators


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_calls_everywhere(monkeypatch, name):
    """Count calls of a package function through every module that imported it."""
    calls = []
    real = getattr(sys.modules["modalsim.core"], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("modalsim") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("stable", [True, False])
@pytest.mark.parametrize("n", [1, 8, 64])
def test_window_payload_builds_at_most_three_streams(monkeypatch, n, stable):
    sample = Sample(
        id=5,
        seed=3,
        difficulty=Difficulty.HARD,
        ground_truth_label=2,
        stable=stable,
        jump_fraction=0.5,
        jump_scale=4.0,
    )
    streams = count_calls(monkeypatch, rng, "stream")
    subs = count_calls(monkeypatch, rng.Stream, "sub")
    rows = sample.window_payload(Modality(0, "v", 6), n)
    assert rows.shape == (n, 6)
    assert len(streams) == 1  # the ("sample", id) prefix, folded once per sample
    assert 2 <= len(subs) <= 3  # shared, private and (unstable only) jump
    sample.window_payload(Modality(1, "a", 4), n)
    assert len(streams) == 1
    assert len(subs) <= 5  # the shared stream is not derived again


@pytest.mark.parametrize("stable", [True, False])
@pytest.mark.parametrize("preset, knobs", [("lrw-like", {}), ("random", {"modalities": 3})])
def test_a_decision_and_its_window_draw_each_row_of_a_sample_once(monkeypatch, preset, knobs, stable):
    # one `units` call per row drawn: per modality, the shared and private
    # parts of the base row, and the jump direction of an unstable sample
    s = workload.gen_scenario(preset, seed=5, **knobs).without_skipping()
    surface = workload.gen_accuracy_surface(s)
    warm = workload.gen_samples(s, 1, "easy", seed=0)[0]
    engine.run(s, s.max_assignment(), warm)  # draws the scenario's head and encoders
    sample = Sample(
        id=7, seed=1, difficulty=Difficulty.HARD, ground_truth_label=0, stable=stable, jump_scale=4.0
    )
    units = count_calls(monkeypatch, rng.Stream, "units")
    decision = optimizer.optimizer_step(sample, s, surface, "high")
    engine.run(s, decision.assignment, sample)
    assert len(units) == len(s.modalities) * (2 if stable else 3)


class NeverGate:
    """Declines every checkpoint."""

    def probability(self, f_fast, f_slow, fraction):
        return 0.0


def test_a_gate_trains_on_the_checkpoints_a_window_evaluates():
    # ceil(0.41 N) = ceil(0.42 N) at every lrw-like unit count, so 0.42
    # names no checkpoint of its own
    s = workload.gen_scenario("lrw-like", seed=0)
    s = validate_scenario(dataclasses.replace(s, skip_checkpoints=(0.41, 0.42, 0.7)))
    sample = workload.gen_samples(s, 1, "hard", seed=0)[0]
    for assignment in (s.min_assignment(), s.max_assignment()):
        trace = engine.run(s, assignment, sample, gate=NeverGate())
        evaluated = [
            e.payload_dict()["fraction"] for e in trace.events if e.kind is engine.EventKind.CHECKPOINT_EVAL
        ]
        trained = [row[2] for row in workload.gate_dataset(s, [sample], [assignment])]
        assert sorted(evaluated) == sorted(trained) == [0.41, 0.7]


def test_two_runs_on_one_scenario_serialize_it_once(monkeypatch):
    s = workload.gen_scenario("motivation-av", seed=0)
    sample = workload.gen_samples(s, 1, "easy", seed=0)[0]
    serialized = count_calls(monkeypatch, scenario_io, "serialize")
    first = engine.run(s, s.max_assignment(), sample)
    second = engine.run(s, s.max_assignment(), sample)
    assert len(serialized) == 1
    assert first == second


def draws(streams, name):
    return [args for args in streams if name in args]


def test_two_runs_on_one_scenario_draw_the_prediction_head_once(monkeypatch):
    s = workload.gen_scenario("lrw-like", seed=0).without_skipping()
    sample = workload.gen_samples(s, 1, "easy", seed=0)[0]
    s = dataclasses.replace(s)  # a fresh instance: the corpus drew the head on the first
    streams = count_calls(monkeypatch, rng, "stream")
    first = engine.run(s, s.max_assignment(), sample)
    second = engine.run(s, s.max_assignment(), sample)
    assert len(draws(streams, "fusion-head")) == 1
    assert first == second
    width = sum(engine.feature_widths(s))
    assert not engine.prediction_head(s, width).flags.writeable


def test_repeated_aggregates_at_one_channel_count_draw_the_encoder_once(monkeypatch):
    spec = DiffSpec()  # a fresh instance, with no memo
    rows = np.arange(60.0).reshape(10, 6)
    streams = count_calls(monkeypatch, rng, "stream")
    vectors = [aggregate_vector(rows, ShiftSpec(), spec) for _ in range(3)]
    assert len(draws(streams, "diff-encoder")) == 1
    assert all(np.array_equal(v, vectors[0]) for v in vectors)
    assert not spec.encoder_matrix(6).flags.writeable


def test_scenarios_sharing_a_profile_serialize_it_once(monkeypatch):
    s = workload.gen_scenario("random", seed=2, modalities=3)
    scenarios = [dataclasses.replace(s, execution_mode=mode) for mode in ExecutionMode]
    profiles = count_calls(monkeypatch, scenario_io, "_profile_document")
    texts = [scenario_io.serialize(x) for x in scenarios]
    assert len(profiles) == 1
    assert texts == [
        json.dumps(scenario_io.to_document(x), sort_keys=True, indent=2) + "\n" for x in scenarios
    ]


def test_fingerprinting_an_exact_scenario_never_runs_the_json_encoder(monkeypatch):
    # `json.dumps(indent=2)` builds its pure-Python encoder through
    # `_make_iterencode`; the templates write the canonical text without it
    encoders = count_calls(monkeypatch, json.encoder, "_make_iterencode")
    fingerprints = set()
    for preset in workload.PRESETS:
        s = workload.gen_scenario(preset, seed=4)
        for derived in (s, dataclasses.replace(s, execution_mode=ExecutionMode.BLOCKING)):
            fingerprints.add(scenario_io.fingerprint(derived))
    assert encoders == []
    assert len(fingerprints) == 2 * len(workload.PRESETS)


def test_reading_a_trace_file_parses_each_chunk_of_lines_once(monkeypatch, tmp_path):
    s = workload.gen_scenario("lrw-like", seed=0).without_skipping()
    traces = [engine.run(s, s.max_assignment(), x) for x in workload.gen_samples(s, 12, "hard", seed=1)]
    path = tmp_path / "t.jsonl"
    traceio.write_trace(traces, path)
    with open(path, "rb") as f:
        chunks = [b"".join(chunk).decode() for chunk in iter(lambda: f.readlines(traceio._CHUNK), [])]
    parsed = count_calls(monkeypatch, json, "loads")
    assert traceio.read_trace(path) == traces
    # one per chunk of whole lines, read as an array of its lines; never one per line
    assert len(chunks) > 1
    assert [text for (text,) in parsed] == ["[" + ",".join(chunk.splitlines()) + "]" for chunk in chunks]


def test_a_window_goes_to_file_and_back_without_building_an_event(monkeypatch, tmp_path):
    # sim-dense's windows: a random 3-modality preset at its max assignment,
    # a mid-window resource change, a hard corpus, every mode; non-blocking
    # windows cut encodes short, and an aborted encode keeps its payload whole
    base = workload.gen_scenario("random", seed=11, modalities=3)
    base = validate_scenario(
        dataclasses.replace(base, resource_schedule=((0, "high"), (base.window_us // 3, "low")))
    )
    samples = workload.gen_samples(base, 2, "hard", seed=11)
    built = []
    new = engine.Event.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(engine.Event, "__new__", staticmethod(counted))
    traces = [
        engine.run(dataclasses.replace(base, execution_mode=mode), base.max_assignment(), x)
        for mode in ExecutionMode
        for x in samples
    ]
    path = tmp_path / "t.jsonl"
    traceio.write_trace(traces, path)
    back = traceio.read_trace(path)
    assert built == []
    events = back[0].events
    assert back[0].events is events and len(built) == len(events)  # built once, on first access
    assert back == traces
    ends = [e for t in back for e in t.events if e.kind is engine.EventKind.ENCODE_END]
    assert any(e.payload == (("aborted", True),) for e in ends)


class LateGate:
    """Declines every checkpoint before 70% and commits from 70% on."""

    def __init__(self):
        self.calls = 0

    def probability(self, f_fast, f_slow, fraction):
        self.calls += 1
        return 0.9 if fraction >= 0.7 else 0.1


@pytest.mark.parametrize(
    "preset, knobs",
    [("lrw-like", {}), ("random", {"modalities": 3, "checkpoints": (0.5, 0.7)})],
)
def test_skip_commit_aggregates_each_vector_once(monkeypatch, preset, knobs):
    # one aggregate per fast modality and one per gate evaluation; the
    # committed prefix reuses the vector the gate saw
    s = workload.gen_scenario(preset, seed=5, **knobs)
    sample = workload.gen_samples(s, 1, "easy", seed=0)[0]
    gate = LateGate()
    aggregated = count_calls(monkeypatch, engine, "aggregate_vector")
    trace = engine.run(s, s.max_assignment(), sample, gate=gate)
    assert trace.summary.skipped_unit_count > 0
    assert gate.calls == 2
    assert len(aggregated) == (len(s.modalities) - 1) + gate.calls


@pytest.mark.parametrize("preset, knobs", [("lrw-like", {}), ("random", {"modalities": 3})])
def test_calibrating_a_jump_aggregates_each_window_once_per_nonce(monkeypatch, preset, knobs):
    # per jump tried, one feature vector per modality's full window and one
    # for the slow modality's prefix up to the jump
    s = workload.gen_scenario(preset, seed=5, **knobs)
    aggregated = count_calls(monkeypatch, engine, "feature_vector")
    samples = workload.gen_samples(s, 6, "hard", seed=2, base_rates={"hard": 0.0})
    assert not any(x.stable for x in samples)
    tried = sum(x.jump_nonce + 1 for x in samples)
    assert len(aggregated) <= (len(s.modalities) + 1) * tried


@pytest.mark.parametrize("mode", list(ExecutionMode))
def test_a_window_looks_up_each_encode_cost_once_per_resource_level(monkeypatch, mode):
    # per modality, one lookup per resource level the encodes meet and one
    # for the aggregation, however many units the window has
    s = workload.gen_scenario("random", seed=0, modalities=3)
    s = dataclasses.replace(s, execution_mode=mode)
    sample = workload.gen_samples(s, 1, "hard", seed=0)[0]
    constant = engine.run(s, s.max_assignment(), sample)
    times = sorted(e.time_us for e in constant.events if e.kind is engine.EventKind.ENCODE_START)
    levels = s.latency_profile.resource_levels[:2]
    switch = times[len(times) // 2]  # mid-way through the encodes
    s = dataclasses.replace(s, resource_schedule=((0, levels[0]), (switch, levels[1])))
    lookups = count_calls(monkeypatch, LatencyProfile, "lookup")
    trace = engine.run(s, s.max_assignment(), sample)
    starts = [e for e in trace.events if e.kind is engine.EventKind.ENCODE_START]
    assert {e.payload_dict()["resource"] for e in starts} == set(levels)
    assert len(lookups) <= len(s.modalities) * (len(levels) + 1) < len(starts)


def test_budget_queries_look_up_each_pair_once(monkeypatch):
    # 4 modalities x 9 (sensing, model) pairs; enumerating the 9**4
    # assignments instead would make 26,244 lookups and checks
    lookups = count_calls(monkeypatch, LatencyProfile, "lookup")
    checks = count_calls_everywhere(monkeypatch, "check_assignment")
    s = workload.gen_scenario("random", seed=0, modalities=4)
    assert (len(lookups), len(checks)) == (36, 0)

    lookups.clear()
    surface = workload.gen_accuracy_surface(s)
    result = optimizer.brute_force(s, ModalityIndicators(0.5), surface, "high")
    assert result.feasible_count > 0
    assert (len(lookups), len(checks)) == (36, 0)


@pytest.fixture(scope="module")
def seven_by_seven():
    """A 2-modality 7x7 preset, a predictor trained on it and one sample."""
    s = workload.gen_scenario("random", seed=0, sensing_levels=7, model_levels=7)
    samples = workload.gen_samples(s, 8, {"easy": 1.0, "hard": 1.0}, seed=0)
    rows = workload.predictor_dataset(
        s, workload.gen_accuracy_surface(s), samples, seed=0, noise_pct=1.0
    )
    spec = EncodingSpec.for_scenario(s)
    model = predictor.train(rows, spec, predictor.TrainConfig(seed=0, epochs=300))
    return s, model, samples[0]


def test_greedy_search_scores_each_step_as_one_encoded_batch(monkeypatch, seven_by_seven):
    # one encoded table of a row per in-budget option; then the start, eight
    # steps of 57 moves each and optimizer_step's score of the choice, each
    # one product over standardized rows of that table: the same rows as a
    # search that encoded one row per move
    s, model, sample = seven_by_seven
    encoded = count_calls(monkeypatch, EncodingSpec, "encode")
    tables = count_calls(monkeypatch, EncodingSpec, "encode_batch")
    batches = count_calls(monkeypatch, optimizer, "score_standardized")
    optimizer.optimizer_step(sample, s, model, "high")
    assert len(encoded) == 0
    in_budget = len(optimizer._options(s, "high").modality)
    assert [len(args[2]) for args in tables] == [in_budget] == [57 + 2]
    assert [len(args[1]) for args in batches] == [1] + [57] * 8 + [1]


def test_second_decision_on_a_scenario_looks_up_no_profile_entry(monkeypatch, seven_by_seven):
    s, model, sample = seven_by_seven
    s = dataclasses.replace(s)  # a fresh instance, with no memo
    lookups = count_calls(monkeypatch, LatencyProfile, "lookup")
    first = optimizer.optimizer_step(sample, s, model, "high")
    assert len(lookups) == 2 * 7 * 7

    lookups.clear()
    second = optimizer.optimizer_step(sample, s, model, "high")
    assert len(lookups) == 0
    assert (second.assignment, second.score) == (first.assignment, first.score)
