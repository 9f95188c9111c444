"""Engine mode semantics, determinism, skip behavior, and invariants."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import test_trace_bytes
import test_window_pins
from builders import predicted_label, zero_gate
from modalsim import engine, latency, optimizer, workload
from modalsim.core import (
    ConfigAssignment,
    ExecutionMode,
    GateRequiredButMissing,
    LatencyProfile,
    Modality,
    ModelConfig,
    ProfileEntry,
    Scenario,
    SensingConfig,
    validate_scenario,
)
from modalsim.engine import EventKind, apply_resource_schedule, run
from modalsim.workload import OracleGate


def scenario_2mod(
    video=(46_000, 20_000),
    audio=(8_000, 4_000),
    n_video=25,
    n_audio=16,
    window=1_000_000,
    fusion=12_000,
    checkpoints=(),
    schedule=((0, "high"),),
    resources=("high", "low"),
    mode=ExecutionMode.PIPELINED,
):
    entries = {}
    for level, mult in zip(resources, (1, 2)):
        entries[(0, 0, 0, level)] = ProfileEntry(video[0] * mult, video[1] * mult)
        entries[(1, 0, 0, level)] = ProfileEntry(audio[0] * mult, audio[1] * mult)
    return validate_scenario(
        Scenario(
            name="pair",
            modalities=(Modality(0, "video", 8), Modality(1, "audio", 6)),
            sensing_space=(
                (SensingConfig(0, n_video, window),),
                (SensingConfig(0, n_audio, window),),
            ),
            model_space=((ModelConfig(0, "m"),), (ModelConfig(0, "m"),)),
            latency_profile=LatencyProfile(
                resource_levels=resources, fusion_us=fusion, entries=entries
            ),
            t_max_us=5_000_000,
            execution_mode=mode,
            skip_checkpoints=checkpoints,
            resource_schedule=schedule,
        )
    )


A = ConfigAssignment(((0, 0), (0, 0)))


def one_sample(scenario, seed=0, difficulty="easy"):
    return workload.gen_samples(scenario, 1, difficulty, seed=seed)[0]


def events_of(trace, kind, modality=None):
    return [
        e
        for e in trace.events
        if e.kind is kind and (modality is None or e.modality == modality)
    ]


# ---------------------------------------------------------------------------
# mode semantics


def test_pipelined_sensing_bound_timeline():
    s = scenario_2mod(video=(30_000, 5_000), n_video=25)  # L_E < L_S = 40_000
    trace = run(s, A, one_sample(s))
    ends = events_of(trace, EventKind.ENCODE_END, modality=0)
    # every unit's encode completes exactly at its sense end
    for u, ev in enumerate(ends):
        assert ev.time_us == (u + 1) * 40_000
    agg = events_of(trace, EventKind.AGGREGATION_DONE, modality=0)[0]
    assert agg.time_us == 1_000_000 + 5_000


def test_pipelined_encoder_bound_timeline():
    s = scenario_2mod(video=(46_000, 5_000), n_video=25)  # L_E > L_S
    trace = run(s, A, one_sample(s))
    ends = events_of(trace, EventKind.ENCODE_END, modality=0)
    for u, ev in enumerate(ends):
        assert ev.time_us == (u + 1) * 46_000
    starts = events_of(trace, EventKind.ENCODE_START, modality=0)
    assert starts[0].time_us == 0
    assert starts[1].time_us == 46_000  # worker busy, not the sense start


def test_blocking_encodes_after_full_window():
    s = scenario_2mod(video=(30_000, 5_000), mode=ExecutionMode.BLOCKING)
    trace = run(s, A, one_sample(s))
    starts = events_of(trace, EventKind.ENCODE_START, modality=0)
    assert starts[0].time_us == 1_000_000
    ends = events_of(trace, EventKind.ENCODE_END, modality=0)
    assert ends[-1].time_us == 1_000_000 + 25 * 30_000
    # blocking reported latency: N*L_E + L_A + L_F for the slow modality
    assert trace.summary.reported_latency_us == 25 * 30_000 + 5_000 + 12_000


def test_non_blocking_fires_at_fastest():
    s = scenario_2mod(video=(46_000, 20_000), audio=(8_000, 4_000), mode=ExecutionMode.NON_BLOCKING)
    trace = run(s, A, one_sample(s))
    fusion = events_of(trace, EventKind.FUSION_START)[0]
    # audio is sensing bound: done at t_w + L_A
    assert fusion.time_us == 1_000_000 + 4_000
    assert trace.summary.waiting_us == 0
    # video never reaches aggregation
    assert events_of(trace, EventKind.AGGREGATION_DONE, modality=0) == []
    # no event after fusion except the prediction
    last = max(e.time_us for e in trace.events if e.kind is not EventKind.PREDICTION_EMITTED)
    assert last <= fusion.time_us


def test_non_blocking_zero_pads_unfinished():
    s = scenario_2mod(video=(46_000, 20_000), mode=ExecutionMode.NON_BLOCKING)
    sample = one_sample(s)
    trace = run(s, A, sample)
    fusion_time = events_of(trace, EventKind.FUSION_START)[0].time_us
    done_units = [
        e.unit for e in events_of(trace, EventKind.ENCODE_END, modality=0) if not e.payload_dict().get("aborted")
    ]
    # snapshot prefix: recompute the zero-padded aggregate independently
    rows = sample.window_payload(s.modalities[0], 25)
    snap = np.zeros_like(rows)
    for u in done_units:
        snap[u] = rows[u]
    want = engine.aggregate_vector(snap, engine.DEFAULT_SHIFT, engine.DEFAULT_DIFF)
    # the fused vector feeding the head is not stored; verify via the label
    audio = engine.aggregate_vector(
        sample.window_payload(s.modalities[1], 16), engine.DEFAULT_SHIFT, engine.DEFAULT_DIFF
    )
    head = engine.prediction_head(s, len(want) + len(audio))
    assert predicted_label(trace) == int(np.argmax(head @ np.concatenate([want, audio])))


def test_blocking_and_pipelined_predict_same_label():
    s = scenario_2mod()
    sample = one_sample(s)
    lp = predicted_label(run(s, A, sample))
    sb = dataclasses.replace(s, execution_mode=ExecutionMode.BLOCKING)
    lb = predicted_label(run(sb, A, sample))
    assert lp == lb


def test_single_unit_single_modality():
    # N=1: pipelined slot is max(L_E, t_w); blocking adds the full window wait
    s = validate_scenario(
        Scenario(
            name="one",
            modalities=(Modality(0, "m", 4),),
            sensing_space=((SensingConfig(0, 1, 100_000),),),
            model_space=((ModelConfig(0, "m"),),),
            latency_profile=LatencyProfile(
                resource_levels=("r",),
                fusion_us=1_000,
                entries={(0, 0, 0, "r"): ProfileEntry(30_000, 2_000)},
            ),
            t_max_us=1_000_000,
            resource_schedule=((0, "r"),),
        )
    )
    a = ConfigAssignment(((0, 0),))
    sample = one_sample(s)
    pipelined = run(s, a, sample)
    assert pipelined.summary.reported_latency_us == max(30_000, 100_000) - 100_000 + 2_000 + 1_000
    sb = dataclasses.replace(s, execution_mode=ExecutionMode.BLOCKING)
    blocking = run(sb, a, sample)
    assert blocking.summary.reported_latency_us == 30_000 + 2_000 + 1_000
    # the single unit's encode overlaps its own sensing, so pipelined still wins
    assert pipelined.summary.reported_latency_us < blocking.summary.reported_latency_us


# ---------------------------------------------------------------------------
# invariants


def test_determinism_bit_identical():
    s = scenario_2mod(checkpoints=(0.5, 0.7))
    sample = one_sample(s, seed=3, difficulty="hard")
    gate = OracleGate(s, sample, A)
    t1 = run(s, A, sample, gate=gate)
    t2 = run(s, A, sample, gate=OracleGate(s, sample, A))
    assert t1 == t2


def trace_order(e):
    """An event's place in a trace: time, modality, unit (an event without a
    modality or unit after every one with it), then kind in declaration order."""
    return (
        e.time_us,
        (e.modality is None, e.modality or 0),
        (e.unit is None, e.unit or 0),
        list(EventKind).index(e.kind),
    )


def test_events_sorted_and_causal():
    s = scenario_2mod(checkpoints=(0.5,), schedule=((0, "high"), (600_000, "low")))
    sample = one_sample(s, seed=5)
    trace = run(s, A, sample, gate=OracleGate(s, sample, A))
    keys = [trace_order(e) for e in trace.events]
    assert keys == sorted(keys)
    sensed = {}
    for e in trace.events:
        if e.kind is EventKind.UNIT_SENSED:
            sensed[(e.modality, e.unit)] = e.time_us
    starts = {}
    for e in trace.events:
        if e.kind is EventKind.ENCODE_START:
            starts[(e.modality, e.unit)] = e.time_us
            assert e.time_us >= sensed[(e.modality, e.unit)]
        if e.kind is EventKind.ENCODE_END:
            assert e.time_us >= starts[(e.modality, e.unit)]
    fusion = events_of(trace, EventKind.FUSION_START)[0].time_us
    for e in trace.events:
        if e.kind is EventKind.AGGREGATION_DONE:
            assert e.time_us <= fusion


def test_events_tied_on_time_modality_unit_and_kind_keep_their_insertion_order():
    # checkpoint evaluations of one modality can fall at one time, in either
    # of their layouts: the window's one sort, on the kind's rank and not on
    # the layout, must keep them in the order they were evaluated
    evals = [
        dict(already_completed=True, fraction=(40 - i) / 41) if i % 2
        else dict(committed=False, fraction=(40 - i) / 41, probability=0.25)
        for i in range(40)
    ]
    rows = [engine._row(900, EventKind.PREDICTION_EMITTED, label=3)]
    rows += [engine._row(400, EventKind.CHECKPOINT_EVAL, 1, **e) for e in evals]
    rows.append(engine._row(400, EventKind.FUSION_START))
    rows.append(engine._row(400, EventKind.CHECKPOINT_EVAL, 0, **evals[0]))
    assert engine._sorted(rows, []).events() == (
        (400, EventKind.CHECKPOINT_EVAL, 0, None, tuple(evals[0].items())),
        *((400, EventKind.CHECKPOINT_EVAL, 1, None, tuple(e.items())) for e in evals),
        (400, EventKind.FUSION_START, None, None, ()),
        (900, EventKind.PREDICTION_EMITTED, None, None, (("label", 3),)),
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(test_trace_bytes.schema_events(), max_size=6))
@example([engine.Event(5, EventKind.ENCODE_END, 0, 1, (("aborted", True),))])
@example([engine.Event(5, EventKind.CHECKPOINT_EVAL, 0, payload=(("already_completed", False), ("fraction", -0.0)))])
@example([engine.Event(-(2**63), EventKind.SKIP_COMMITTED, 2**31 - 1, payload=(
    ("fraction", 5e-324), ("prefix", 2**63 - 1), ("probability", 1e308), ("units_skipped", -1)
))])
def test_events_given_to_a_trace_are_laid_out_once_and_come_back_as_given(evs):
    # each layout's columns keep its values as given, to their type: ints
    # to the ends of int64, signed zeros, subnormals, bools, escaped strings
    # and int pairs; a row is a plain tuple, never an `Event`
    trace = test_trace_bytes.make_trace(evs)
    assert type(trace.log) is engine.EventColumns
    assert all(type(row) is tuple for row in trace.log.rows())
    assert trace.events == tuple(evs)
    assert list(map(repr, trace.events)) == [repr(engine.Event(*ev)) for ev in evs]


def test_encode_pairing_and_one_prediction():
    s = scenario_2mod(checkpoints=(0.5,))
    sample = one_sample(s, seed=9, difficulty="hard")
    trace = run(s, A, sample, gate=OracleGate(s, sample, A))
    starts = {(e.modality, e.unit) for e in events_of(trace, EventKind.ENCODE_START)}
    ends = {(e.modality, e.unit) for e in events_of(trace, EventKind.ENCODE_END)}
    assert starts == ends
    assert len(events_of(trace, EventKind.PREDICTION_EMITTED)) == 1


def test_work_conservation():
    # worker idle only when no sensed-unstarted unit is queued
    s = scenario_2mod(video=(46_000, 5_000))
    trace = run(s, A, one_sample(s))
    starts = sorted(
        (e.unit, e.time_us) for e in events_of(trace, EventKind.ENCODE_START, modality=0)
    )
    ends = dict(
        (e.unit, e.time_us) for e in events_of(trace, EventKind.ENCODE_END, modality=0)
    )
    sensed = dict(
        (e.unit, e.time_us) for e in events_of(trace, EventKind.UNIT_SENSED, modality=0)
    )
    for u, start in starts:
        if u == 0:
            continue
        gap_start = ends[u - 1]
        if start > gap_start:
            # idle gap: unit u must not have been available during it
            assert sensed[u] >= start


def test_buffering_dominance():
    for seed in range(5):
        s = workload.gen_scenario("random", seed=seed)
        sample = workload.gen_samples(s, 1, "medium", seed=seed)[0]
        a = list(s.assignments())[seed % 4]
        pipe = run(s, a, sample)
        sb = dataclasses.replace(s, execution_mode=ExecutionMode.BLOCKING)
        block = run(sb, a, sample)
        for m in s.modalities:
            n = s.sensing(m.id, a.pairs[m.id][0]).units_per_window
            assert block.summary.peak_buffered_units[m.id] == n
            assert pipe.summary.peak_buffered_units[m.id] <= n


def test_analytic_agreement_random_scenarios():
    for seed in range(25):
        s = workload.gen_scenario("random", seed=100 + seed)
        sample = workload.gen_samples(s, 1, "medium", seed=seed)[0]
        for a in list(s.assignments())[::7]:
            trace = run(s, a, sample)
            want = latency.end_to_end_latency(s, a, "high").total_us - s.window_us
            assert trace.summary.reported_latency_us == want
            assert latency.reported_latency(trace, s) == want


# ---------------------------------------------------------------------------
# resource schedule


def test_apply_resource_schedule_boundaries():
    s = scenario_2mod(schedule=((0, "high"), (500_000, "low")))
    assert apply_resource_schedule(s, 0) == "high"
    assert apply_resource_schedule(s, 499_999) == "high"
    assert apply_resource_schedule(s, 500_000) == "low"
    assert apply_resource_schedule(s, 10**9) == "low"


def test_apply_resource_schedule_clamps_a_time_before_0_to_the_first_level():
    # unclamped, bisect's index -1 would name the last level
    s = scenario_2mod(schedule=((0, "high"), (500_000, "low")))
    assert apply_resource_schedule(s, -1) == "high"


def test_encode_jobs_pin_resource_at_start():
    # job starting just before the switch keeps the fast level to completion
    s = scenario_2mod(
        video=(30_000, 5_000),
        n_video=2,
        n_audio=2,
        window=1_000_000,
        schedule=((0, "high"), (510_000, "low")),
    )
    trace = run(s, A, one_sample(s))
    ends = events_of(trace, EventKind.ENCODE_END, modality=0)
    # unit 0 starts at 0 under high (30ms, clamped to sense end 500ms);
    # unit 1 starts at 500_000 under high and ends before the switch matters
    assert ends[0].time_us == 500_000
    assert ends[1].time_us == 1_000_000
    starts = events_of(trace, EventKind.ENCODE_START, modality=0)
    assert starts[1].payload_dict()["resource"] == "high"


def test_resource_switch_slows_late_jobs():
    s = scenario_2mod(
        video=(46_000, 5_000),
        schedule=((0, "high"), (500_000, "low")),
    )
    trace = run(s, A, one_sample(s))
    ends = events_of(trace, EventKind.ENCODE_END, modality=0)
    # after the switch the per-unit cost doubles to 92ms
    late_starts = [
        e for e in events_of(trace, EventKind.ENCODE_START, modality=0) if e.time_us >= 500_000
    ]
    assert late_starts[0].payload_dict()["encode_cost_us"] == 92_000
    assert ends[-1].time_us > 25 * 46_000  # strictly slower than constant-high


def test_resource_change_events_emitted():
    s = scenario_2mod(schedule=((0, "high"), (500_000, "low")))
    trace = run(s, A, one_sample(s))
    changes = events_of(trace, EventKind.RESOURCE_CHANGE)
    assert [(e.time_us, e.payload_dict()["level"]) for e in changes] == [
        (0, "high"),
        (500_000, "low"),
    ]


# ---------------------------------------------------------------------------
# speculative skipping


def test_gate_required_when_checkpoints_configured():
    s = scenario_2mod(checkpoints=(0.5,))
    with pytest.raises(GateRequiredButMissing):
        run(s, A, one_sample(s))


def test_skip_commit_timeline_and_prefix():
    # video encoder-bound: checkpoint at unit 12 ready at 13*46ms = 598ms,
    # audio done at 1_004_000; eval deferred until the fast side is complete
    s = scenario_2mod(checkpoints=(0.5,))
    sample = one_sample(s, seed=1, difficulty="easy")
    assert sample.stable
    gate = OracleGate(s, sample, A)
    trace = run(s, A, sample, gate=gate)
    evals = events_of(trace, EventKind.CHECKPOINT_EVAL)
    assert len(evals) == 1
    assert evals[0].time_us == 1_004_000
    commit = events_of(trace, EventKind.SKIP_COMMITTED)[0]
    assert commit.time_us == 1_004_000
    assert commit.payload_dict()["prefix"] == 13
    assert commit.payload_dict()["units_skipped"] == 12
    assert trace.summary.skipped_unit_count == 12
    agg = events_of(trace, EventKind.AGGREGATION_DONE, modality=0)[0]
    assert agg.time_us == 1_004_000 + 20_000
    assert trace.summary.reported_latency_us == (1_024_000 + 12_000) - 1_000_000


def test_skip_prefix_consistency():
    # features fed to fusion equal aggregate() of exactly the kept prefix
    s = scenario_2mod(checkpoints=(0.5,))
    sample = one_sample(s, seed=1)
    gate = OracleGate(s, sample, A)
    trace = run(s, A, sample, gate=gate)
    prefix = events_of(trace, EventKind.SKIP_COMMITTED)[0].payload_dict()["prefix"]
    rows = sample.window_payload(s.modalities[0], 25)[:prefix]
    slow_vec = engine.aggregate_vector(rows, engine.DEFAULT_SHIFT, engine.DEFAULT_DIFF)
    audio_vec = engine.aggregate_vector(
        sample.window_payload(s.modalities[1], 16), engine.DEFAULT_SHIFT, engine.DEFAULT_DIFF
    )
    head = engine.prediction_head(s, len(slow_vec) + len(audio_vec))
    assert predicted_label(trace) == int(
        np.argmax(head @ np.concatenate([slow_vec, audio_vec]))
    )


def test_inert_gate_matches_no_gate_run():
    s = scenario_2mod(checkpoints=(0.5, 0.7))
    sample = one_sample(s, seed=2)
    dims = [
        m.channels + 2 * engine.DEFAULT_DIFF.encoder_width for m in s.modalities
    ]
    gate = zero_gate(fast_dim=dims[1], slow_dim=dims[0])  # p = 0.5, never > tau
    gated = run(s, A, sample, gate=gate)
    plain = run(s.without_skipping(), A, sample)
    gated_rest = [e for e in gated.events if e.kind is not EventKind.CHECKPOINT_EVAL]
    assert tuple(gated_rest) == plain.events
    assert gated.summary == plain.summary


def test_never_firing_checkpoints_after_completion():
    # video finishes before audio: checkpoints evaluate as already completed
    s = scenario_2mod(video=(20_000, 2_000), audio=(8_000, 300_000), checkpoints=(0.5,))
    sample = one_sample(s, seed=3)
    gate = OracleGate(s, sample, A)
    trace = run(s, A, sample, gate=gate)
    evals = events_of(trace, EventKind.CHECKPOINT_EVAL)
    assert len(evals) == 1
    assert evals[0].payload_dict().get("already_completed") is True
    assert events_of(trace, EventKind.SKIP_COMMITTED) == []
    # audio is the projected slow modality here
    assert evals[0].modality == 1


def test_skip_latency_dominance():
    for seed in (1, 2, 3, 4, 5):
        s = scenario_2mod(checkpoints=(0.5, 0.7))
        sample = one_sample(s, seed=seed, difficulty="hard")
        gate = OracleGate(s, sample, A)
        gated = run(s, A, sample, gate=gate)
        plain = run(s.without_skipping(), A, sample)
        assert gated.summary.reported_latency_us <= plain.summary.reported_latency_us


def test_oracle_gate_preserves_labels():
    s = scenario_2mod(checkpoints=(0.5, 0.7))
    for seed in range(8):
        sample = one_sample(s, seed=seed, difficulty="hard")
        gate = OracleGate(s, sample, A)
        gated = run(s, A, sample, gate=gate)
        plain = run(s.without_skipping(), A, sample)
        assert predicted_label(gated) == predicted_label(plain)


def test_skip_commit_after_resource_switch_aggregates_at_new_level():
    # the switch to low at 500 ms doubles every cost; the commit at the
    # audio aggregation (1_008_000) aggregates the video prefix at low L_A
    s = scenario_2mod(checkpoints=(0.5,), schedule=((0, "high"), (500_000, "low")))
    sample = one_sample(s, seed=1)
    trace = run(s, A, sample, gate=OracleGate(s, sample, A))
    commit = events_of(trace, EventKind.SKIP_COMMITTED)[0]
    assert commit.time_us == 1_008_000
    agg = events_of(trace, EventKind.AGGREGATION_DONE, modality=0)[0]
    assert agg.payload_dict() == {"prefix": 13, "started_us": 1_008_000}
    assert agg.time_us == 1_008_000 + 2 * 20_000
    assert trace.summary.reported_latency_us == (1_048_000 + 12_000) - 1_000_000


def test_commit_fuses_the_prefix_not_the_window():
    # the sample's feature jump lies past the committed prefix, and its
    # jump was calibrated to flip the full-window label
    class AlwaysCommit:
        def probability(self, f_fast, f_slow, fraction):
            return 1.0

    s = scenario_2mod(checkpoints=(0.5,))
    sample = workload.gen_samples(s, 1, "hard", seed=0, base_rates={"hard": 0.0})[0]
    assert not sample.stable
    gated = run(s, A, sample, gate=AlwaysCommit())
    plain = run(s.without_skipping(), A, sample)
    assert events_of(gated, EventKind.SKIP_COMMITTED)
    assert predicted_label(gated) != predicted_label(plain)


def test_second_checkpoint_can_commit():
    class ThresholdGate:
        # declines the 50% checkpoint, accepts the 70% one
        def probability(self, f_fast, f_slow, fraction):
            return 1.0 if fraction >= 0.7 else 0.0

    s = scenario_2mod(checkpoints=(0.5, 0.7))
    sample = one_sample(s, seed=4)
    trace = run(s, A, sample, gate=ThresholdGate())
    evals = events_of(trace, EventKind.CHECKPOINT_EVAL)
    assert [e.payload_dict()["fraction"] for e in evals] == [0.5, 0.7]
    commit = events_of(trace, EventKind.SKIP_COMMITTED)[0]
    assert commit.payload_dict()["fraction"] == 0.7
    assert commit.payload_dict()["prefix"] == 18  # ceil(0.7*25)


def test_config_switch_event_offsets_window():
    from modalsim.optimizer import OptimizerDecision

    s = scenario_2mod()
    sample = one_sample(s)
    decision = OptimizerDecision(assignment=A, score=0.0, decision_latency_us=1234)
    trace = run(s, A, sample, config_decision=decision)
    switch = events_of(trace, EventKind.CONFIG_SWITCH)[0]
    assert switch.time_us == 0
    assert switch.payload_dict()["probe_cost_us"] == optimizer.PROBE_COST_US
    first_sense = min(e.time_us for e in events_of(trace, EventKind.UNIT_SENSED))
    assert first_sense == optimizer.PROBE_COST_US
    plain = run(s, A, sample)
    assert trace.summary.reported_latency_us == plain.summary.reported_latency_us


def test_config_switch_uses_the_decision_probe_cost():
    from modalsim.optimizer import OptimizerDecision

    s = scenario_2mod()
    sample = one_sample(s)
    decision = OptimizerDecision(assignment=A, score=0.0, decision_latency_us=1, probe_cost_us=2500)
    trace = run(s, A, sample, config_decision=decision)
    switch = events_of(trace, EventKind.CONFIG_SWITCH)[0]
    assert switch.payload_dict()["probe_cost_us"] == 2500
    assert min(e.time_us for e in events_of(trace, EventKind.UNIT_SENSED)) == 2500


def test_engine_payload_keys_are_exact_strs_in_increasing_order(monkeypatch):
    """The engine writes each payload as a literal already in key order.  The
    window-pin corpus runs all three modes, a mid-window resource switch,
    gate commits and declines, already-completed checkpoints and config
    switches; every payload shape the engine writes must turn up in it."""
    real = engine.run
    shapes = set()

    def checked(*args, **kwargs):
        trace = real(*args, **kwargs)
        for ev in trace.events:
            keys = [k for k, _ in ev.payload]
            assert all(type(k) is str for k in keys), ev
            assert all(a < b for a, b in zip(keys, keys[1:])), ev
            shapes.add((ev.kind.value, *keys, ev.payload_dict().get("committed")))
        return trace

    monkeypatch.setattr(engine, "run", checked)
    for name in test_window_pins._scenarios():
        test_window_pins._trace_digest(name)
    assert shapes == {
        ("config_switch", "pairs", "probe_cost_us", None),
        ("resource_change", "level", None),
        ("unit_sensed", "sense_end_us", None),
        ("encode_start", "encode_cost_us", "resource", None),
        ("encode_end", None),
        ("encode_end", "aborted", None),
        ("checkpoint_eval", "already_completed", "fraction", None),
        ("checkpoint_eval", "committed", "fraction", "probability", False),
        ("checkpoint_eval", "committed", "fraction", "probability", True),
        ("skip_committed", "fraction", "prefix", "probability", "units_skipped", None),
        ("aggregation_done", "prefix", "started_us", None),
        ("fusion_start", None),
        ("prediction_emitted", "label", None),
    }


def test_every_layout_is_written_by_the_engine(monkeypatch):
    # a layout of the event schema that no engine run writes would be dead
    real = engine.run
    written = set()

    def recorded(*args, **kwargs):
        trace = real(*args, **kwargs)
        written.update(trace.log.code.tolist())
        return trace

    monkeypatch.setattr(engine, "run", recorded)
    for name in test_window_pins._scenarios():
        test_window_pins._trace_digest(name)
    s = workload.gen_scenario("lrw-like", seed=3)
    sample = workload.gen_samples(s, 1, "hard", seed=0)[0]
    a = ConfigAssignment(((1, 1), (1, 1)))
    decision = optimizer.OptimizerDecision(a, score=0.0, decision_latency_us=0)
    recorded(s, a, sample, gate=OracleGate(s, sample, a), config_decision=decision)
    assert written == set(range(len(engine.LAYOUTS)))


def _peak_by_sorted_deltas(intervals):
    """Reference: sort the +1 enters and -1 leaves, leaves first on ties."""
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


@st.composite
def unit_intervals(draw):
    """[sense start, encode end) per unit, shaped as `_emit` builds them:
    enter times strictly increase, each leave follows its enter and none
    comes before the previous one (one FIFO encoder), and small steps make
    ties between leaves and enters common.  An optional cut, at or between
    enter times, drops the units not begun by then and ends the rest there."""
    enters = list(itertools.accumulate(draw(st.lists(st.integers(1, 4), max_size=40))))
    leaves, free = [], 0
    for enter in enters:
        free = max(free, enter) + draw(st.integers(0, 9))
        leaves.append(free)
    if enters and draw(st.booleans()):
        cut = draw(st.sampled_from(enters)) + draw(st.sampled_from([0, 1, 2]))
        kept = sum(e < cut for e in enters)
        enters, leaves = enters[:kept], [min(leave, cut) for leave in leaves[:kept]]
    return list(zip(enters, leaves))


@settings(max_examples=400, deadline=None)
@given(unit_intervals())
@example([])
@example([(1, 1), (2, 2)])  # empty intervals: each leave meets its own enter
@example([(1, 3), (3, 5), (5, 7)])  # each leave meets the next enter
def test_peak_occupancy_matches_sorted_deltas(intervals):
    enters = [e for e, _ in intervals]
    leaves = [leave for _, leave in intervals]
    assert engine._peak_occupancy(enters, leaves) == _peak_by_sorted_deltas(intervals)


def loop_schedule(scenario, assignment, modality, window_start):
    """Reference: the per-unit loop `engine._schedule` replaced.  One FIFO
    encoder starts a unit once its sensing has begun and the encoder is
    free, and is free again when the encode is done and the unit fully
    sensed.  Per unit: (encode start, encode end, resource, cost)."""
    levels = assignment.pairs[modality.id]
    sensing = scenario.sensing(modality.id, levels[0])
    free = window_start
    if scenario.execution_mode is ExecutionMode.BLOCKING:
        free += scenario.window_us
    units = []
    for u in range(sensing.units_per_window):
        sense_start = window_start + u * sensing.interval_us
        start = max(sense_start, free)
        resource = apply_resource_schedule(scenario, start)
        cost = scenario.latency_profile.lookup(modality.id, *levels, resource).unit_encode_us
        free = max(start + cost, sense_start + sensing.interval_us)
        units.append((start, free, resource, cost))
    return units


def schedule_case(seed, n_mod, mode, pick, window_start, switches):
    """A random scenario with `n_mod` modalities in `mode`, its min or max
    assignment, and a resource schedule that alternates the levels at each
    switch time.  A switch is ("any", t, _): at 1 + t mod 2 T_w; ("boundary",
    m, u): where modality m's unit u begins sensing; or ("end", m, u): at
    the end of modality m's unit-u encode when nothing switches."""
    s = dataclasses.replace(workload.gen_scenario("random", seed=seed, modalities=n_mod), execution_mode=mode)
    assignment = s.min_assignment() if pick == "min" else s.max_assignment()
    times = set()
    for kind, a, b in switches:
        m = s.modalities[a % n_mod]
        if kind == "any":
            times.add(1 + a % (2 * s.window_us))
        elif kind == "boundary":
            sensing = s.sensing(m.id, assignment.pairs[m.id][0])
            times.add(window_start + b % sensing.units_per_window * sensing.interval_us)
        else:
            units = loop_schedule(s, assignment, m, window_start)
            times.add(units[b % len(units)][1])
    levels = s.latency_profile.resource_levels
    switched = [(t, levels[i % len(levels)]) for i, t in enumerate(sorted(times - {0}), start=1)]
    return dataclasses.replace(s, resource_schedule=((0, levels[0]), *switched)), assignment


SWITCH = st.tuples(st.sampled_from(["any", "boundary", "end"]), st.integers(0, 10**7), st.integers(0, 64))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(2, 4),
    st.sampled_from(list(ExecutionMode)),
    st.sampled_from(["min", "max"]),
    st.one_of(st.just(0), st.integers(1, 50_000)),
    st.lists(SWITCH, max_size=3),
)
@example(0, 2, ExecutionMode.PIPELINED, "max", 0, [])
@example(1, 2, ExecutionMode.PIPELINED, "max", 0, [("end", 0, 3)])  # a switch at an encode end
@example(2, 3, ExecutionMode.BLOCKING, "min", 2_500, [("boundary", 1, 5)])  # at a unit boundary
@example(3, 4, ExecutionMode.NON_BLOCKING, "max", 2_500, [("end", 2, 7), ("boundary", 0, 1), ("any", 5, 0)])
def test_schedule_matches_the_per_unit_loop(seed, n_mod, mode, pick, window_start, switches):
    s, assignment = schedule_case(seed, n_mod, mode, pick, window_start, switches)
    for m in s.modalities:
        plan = engine._schedule(s, assignment, m, window_start)
        starts = [plan.first, *plan.enc_end[:-1]]
        got = [(t, end, r, plan.costs[r]) for t, end, r in zip(starts, plan.enc_end, plan.enc_resource)]
        want = loop_schedule(s, assignment, m, window_start)
        assert got == want
        assert plan.agg_start == want[-1][1]


def test_encodes_run_back_to_back_over_the_window_pin_corpus(monkeypatch):
    """Per modality, every encode after the first starts at the previous
    unit's encode end, and at most one encode ends aborted."""
    real = engine.run
    aborted = []

    def checked(*args, **kwargs):
        trace = real(*args, **kwargs)
        starts, ends = trace.of_kind(EventKind.ENCODE_START), trace.of_kind(EventKind.ENCODE_END)
        for m in {ev[2] for ev in ends}:
            start = {u: t for t, _, mi, u, _ in starts if mi == m}
            end = {u: t for t, _, mi, u, _ in ends if mi == m}
            assert all(start[u] == end[u - 1] for u in start if u > 0), (m, start, end)
            aborted.append(sum(dict(p).get("aborted", False) for _, _, mi, _, p in ends if mi == m))
        return trace

    monkeypatch.setattr(engine, "run", checked)
    for name in test_window_pins._scenarios():
        test_window_pins._trace_digest(name)
    assert max(aborted) == 1
