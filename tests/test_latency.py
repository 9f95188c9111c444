"""Closed-form latency model against hand values and a brute-force sweep."""

import dataclasses

import pytest
from builders import event_log

from modalsim import engine, latency, workload
from modalsim.core import (
    ConfigAssignment,
    LatencyProfile,
    MissingProfileEntry,
    Modality,
    ModelConfig,
    ProfileEntry,
    Scenario,
    SensingConfig,
    validate_scenario,
)


def one_modality_scenario(le, ls_units, la, window=1_000_000, fusion=0):
    return validate_scenario(
        Scenario(
            name="one",
            modalities=(Modality(0, "m", 4),),
            sensing_space=((SensingConfig(0, ls_units, window),),),
            model_space=((ModelConfig(0, "s"),),),
            latency_profile=LatencyProfile(
                resource_levels=("normal",),
                fusion_us=fusion,
                entries={(0, 0, 0, "normal"): ProfileEntry(le, la)},
            ),
            t_max_us=10_000_000,
            resource_schedule=((0, "normal"),),
        )
    )


def test_sensing_bound_branch():
    # L_E=28ms fits in the 40ms interval: latency is sensing bound
    s = one_modality_scenario(le=28_000, ls_units=25, la=3_000)
    a = ConfigAssignment(((0, 0),))
    assert latency.unimodal_latency(s, a, 0, "normal") == 40_000 * 25 + 3_000 == 1_003_000


def test_encoder_bound_branch():
    s = one_modality_scenario(le=55_000, ls_units=25, la=3_000)
    a = ConfigAssignment(((0, 0),))
    assert latency.unimodal_latency(s, a, 0, "normal") == 55_000 * 25 + 3_000 == 1_378_000


def test_single_unit_degenerate():
    s = one_modality_scenario(le=55_000, ls_units=1, la=3_000)
    a = ConfigAssignment(((0, 0),))
    assert latency.unimodal_latency(s, a, 0, "normal") == max(55_000, 1_000_000) + 3_000


def test_end_to_end_direct_substitution():
    # two modalities at 1_003_000 and 850_000 with 12ms fusion
    s = validate_scenario(
        Scenario(
            name="pair",
            modalities=(Modality(0, "a", 4), Modality(1, "b", 4)),
            sensing_space=(
                (SensingConfig(0, 25, 500_000),),
                (SensingConfig(0, 10, 500_000),),
            ),
            model_space=((ModelConfig(0, "s"),), (ModelConfig(0, "s"),)),
            latency_profile=LatencyProfile(
                resource_levels=("normal",),
                fusion_us=12_000,
                entries={
                    (0, 0, 0, "normal"): ProfileEntry(40_000, 3_000),
                    (1, 0, 0, "normal"): ProfileEntry(70_000, 150_000),
                },
            ),
            t_max_us=10_000_000,
            resource_schedule=((0, "normal"),),
        )
    )
    a = ConfigAssignment(((0, 0), (0, 0)))
    per = tuple(latency.unimodal_latency(s, a, i, "normal") for i in (0, 1))
    assert per == (1_003_000, 850_000)
    out = latency.end_to_end_latency(s, a, "normal")
    assert out.total_us == 1_015_000
    assert out.waiting_us == 153_000


def test_single_modality_waiting_zero():
    s = one_modality_scenario(le=28_000, ls_units=25, la=3_000, fusion=5_000)
    out = latency.end_to_end_latency(s, ConfigAssignment(((0, 0),)), "normal")
    assert out.total_us == 1_003_000 + 5_000
    assert out.waiting_us == 0


def test_missing_profile_entry():
    s = one_modality_scenario(le=28_000, ls_units=25, la=3_000)
    with pytest.raises(MissingProfileEntry):
        latency.unimodal_latency(s, ConfigAssignment(((0, 0),)), 0, "turbo")


def test_sweep_matches_brute_force_recomputation():
    # independent oracle: recompute the closed form inline for all 81 assignments
    s = workload.gen_scenario("lrw-like", seed=1)
    for a in s.assignments():
        per = []
        for m in s.modalities:
            sl, ml = a.pairs[m.id]
            cfg = s.sensing(m.id, sl)
            entry = s.latency_profile.entries[(m.id, sl, ml, "high")]
            ls = cfg.window_us // cfg.units_per_window
            per.append(
                max(entry.unit_encode_us, ls) * cfg.units_per_window + entry.aggregation_us
            )
        want_total = max(per) + s.latency_profile.fusion_us
        got = latency.end_to_end_latency(s, a, "high")
        assert got.total_us == want_total
        assert got.per_modality_us == tuple(per)
        assert got.waiting_us == max(per) - min(per)


def test_monotonicity_in_profile_costs():
    s = workload.gen_scenario("lrw-like", seed=1)
    a = ConfigAssignment(((1, 1), (1, 1)))
    base = latency.end_to_end_latency(s, a, "high").total_us
    for key in [(0, 1, 1, "high"), (1, 1, 1, "high")]:
        entries = dict(s.latency_profile.entries)
        old = entries[key]
        entries[key] = ProfileEntry(old.unit_encode_us + 7_000, old.aggregation_us + 1_000)
        bumped = dataclasses.replace(
            s, latency_profile=dataclasses.replace(s.latency_profile, entries=entries)
        )
        assert latency.end_to_end_latency(bumped, a, "high").total_us >= base
    fused = dataclasses.replace(
        s, latency_profile=dataclasses.replace(s.latency_profile, fusion_us=99_000)
    )
    assert latency.end_to_end_latency(fused, a, "high").total_us > base


def test_sensing_floor():
    # max(L_E, L_S) * N >= L_S * N = window for every configuration
    s = workload.gen_scenario("lrw-like", seed=1)
    for a in s.assignments():
        for m in s.modalities:
            assert latency.unimodal_latency(s, a, m.id, "low") >= s.window_us


def test_reported_latency_calibrated_example():
    # T_0=0, T_end=1_242_000, t_w=1_000_000 -> 242_000
    s = workload.gen_scenario("motivation-av", seed=0)
    sb = dataclasses.replace(s, execution_mode=workload.ExecutionMode.BLOCKING)
    sample = workload.gen_samples(s, 1, "easy", seed=0)[0]
    trace = engine.run(sb, s.max_assignment(), sample)
    assert latency.reported_latency(trace, s) == 242_000
    pred = [e for e in trace.events if e.kind is engine.EventKind.PREDICTION_EMITTED]
    assert pred[0].time_us == 1_242_000


def test_reported_latency_zero_floor():
    # prediction at window close reports exactly zero
    s = one_modality_scenario(le=40_000, ls_units=25, la=0, fusion=0)
    sample = workload.gen_samples(s, 1, "easy", seed=0)[0]
    trace = engine.run(s, ConfigAssignment(((0, 0),)), sample)
    assert latency.reported_latency(trace, s) == 0


def test_blocking_exceeds_pipelined_on_motivation():
    s = workload.gen_scenario("motivation-av", seed=0)
    sample = workload.gen_samples(s, 1, "easy", seed=0)[0]
    sb = dataclasses.replace(s, execution_mode=workload.ExecutionMode.BLOCKING)
    blocking = engine.run(sb, s.max_assignment(), sample)
    pipelined = engine.run(s, s.max_assignment(), sample)
    assert (
        blocking.summary.reported_latency_us > pipelined.summary.reported_latency_us
    )


def test_incomplete_trace_rejected():
    s = workload.gen_scenario("motivation-av", seed=0)
    sample = workload.gen_samples(s, 1, "easy", seed=0)[0]
    trace = engine.run(s, s.max_assignment(), sample)
    broken = dataclasses.replace(
        trace,
        log=event_log(e for e in trace.events if e.kind is not engine.EventKind.PREDICTION_EMITTED),
    )
    with pytest.raises(latency.IncompleteTrace):
        latency.reported_latency(broken, s)


def test_unimodal_table_is_memoized_per_instance_and_resource_and_read_only():
    s = workload.gen_scenario("lrw-like", seed=0)
    table = latency.unimodal_table(s, "high")
    assert latency.unimodal_table(s, "high") is table
    assert latency.unimodal_table(s, "low") is not table
    for i, row in enumerate(table):
        for sensing, model in s.level_pairs(i):
            a = ConfigAssignment(tuple((sensing, model) if j == i else (0, 0) for j in range(2)))
            assert row[sensing, model] == latency.unimodal_latency(s, a, i, "high")
        with pytest.raises(ValueError):
            row[0, 0] = 0
    assert isinstance(table, tuple)

    again = dataclasses.replace(s)
    assert latency.unimodal_table(again, "high") is not table
    assert s == again and dataclasses.astuple(s) == dataclasses.astuple(again)
