"""Core type invariants, scenario validation, and sample regeneration."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modalsim import core, engine, latency, rng, scenario_io, workload
from modalsim.core import (
    Difficulty,
    FeatureMatrix,
    InvalidScenario,
    LatencyProfile,
    Modality,
    ModelConfig,
    ProfileEntry,
    Sample,
    Scenario,
    SensingConfig,
    validate_scenario,
)


def small_scenario(**overrides) -> Scenario:
    base = dict(
        name="tiny",
        modalities=(Modality(0, "a", 4), Modality(1, "b", 4)),
        sensing_space=(
            (SensingConfig(0, 25, 1_000_000),),
            (SensingConfig(0, 20, 1_000_000),),
        ),
        model_space=((ModelConfig(0, "s"),), (ModelConfig(0, "s"),)),
        latency_profile=LatencyProfile(
            resource_levels=("normal",),
            fusion_us=1000,
            entries={
                (0, 0, 0, "normal"): ProfileEntry(3000, 2000),
                (1, 0, 0, "normal"): ProfileEntry(4000, 2000),
            },
        ),
        t_max_us=2_000_000,
        resource_schedule=((0, "normal"),),
    )
    base.update(overrides)
    return Scenario(**base)


def test_valid_scenario_passes():
    s = small_scenario()
    assert validate_scenario(s) is s


def test_indivisible_window_rejected():
    s = small_scenario(
        sensing_space=(
            (SensingConfig(0, 30, 1_000_000),),  # 1e6/30 is not integral
            (SensingConfig(0, 20, 1_000_000),),
        )
    )
    with pytest.raises(InvalidScenario) as err:
        validate_scenario(s)
    assert any(v.code == core.INDIVISIBLE_WINDOW for v in err.value.violations)


def test_divisible_window_interval():
    cfg = SensingConfig(0, 25, 1_000_000)
    assert cfg.interval_us == 40_000


def test_missing_profile_entry_reported():
    s = small_scenario()
    entries = dict(s.latency_profile.entries)
    del entries[(1, 0, 0, "normal")]
    s = small_scenario(
        latency_profile=dataclasses.replace(s.latency_profile, entries=entries)
    )
    with pytest.raises(InvalidScenario) as err:
        validate_scenario(s)
    assert any(v.code == core.MISSING_PROFILE_ENTRY for v in err.value.violations)


def test_bad_checkpoints_and_empty_space_collected_together():
    s = small_scenario(skip_checkpoints=(0.7, 0.5), model_space=((), (ModelConfig(0, "s"),)))
    with pytest.raises(InvalidScenario) as err:
        validate_scenario(s)
    codes = {v.code for v in err.value.violations}
    # every violation is reported, not just the first
    assert core.BAD_CHECKPOINT_ORDER in codes
    assert core.EMPTY_CONFIG_SPACE in codes


def test_inconsistent_window_rejected():
    s = small_scenario(
        sensing_space=(
            (SensingConfig(0, 25, 1_000_000),),
            (SensingConfig(0, 20, 500_000),),
        )
    )
    with pytest.raises(InvalidScenario) as err:
        validate_scenario(s)
    assert any(v.code == core.INCONSISTENT_WINDOW for v in err.value.violations)


def test_schedule_must_start_at_zero():
    s = small_scenario(resource_schedule=((5, "normal"),))
    with pytest.raises(InvalidScenario) as err:
        validate_scenario(s)
    assert any(v.code == core.BAD_SCHEDULE for v in err.value.violations)


def test_noncontiguous_modality_ids_rejected():
    s = small_scenario(modalities=(Modality(0, "a", 4), Modality(2, "b", 4)))
    with pytest.raises(InvalidScenario) as err:
        validate_scenario(s)
    assert any(v.code == core.BAD_MODALITY_IDS for v in err.value.violations)


def test_feature_matrix_zeroes_beyond_prefix():
    fm = FeatureMatrix(np.ones((4, 3)), valid_prefix=2)
    assert np.array_equal(fm.values[2:], np.zeros((2, 3)))
    assert not fm.values.flags.writeable


def test_feature_matrix_prefix_bounds():
    with pytest.raises(ValueError):
        FeatureMatrix(np.ones((2, 2)), valid_prefix=3)


def test_sample_payload_bit_identical():
    m = Modality(0, "v", 4)
    a = Sample(id=3, seed=9, difficulty=Difficulty.EASY, ground_truth_label=1)
    b = Sample(id=3, seed=9, difficulty=Difficulty.EASY, ground_truth_label=1)
    assert np.array_equal(a.unit_payload(m, 0, 10), b.unit_payload(m, 0, 10))
    # golden values frozen from the documented generator
    np.testing.assert_array_equal(
        a.unit_payload(m, 0, 10),
        np.array(
            [
                -0.19600667859596405,
                -0.7754821016395355,
                -0.3500819591235219,
                0.016299040127420242,
            ]
        ),
    )


def test_sample_jump_applies_to_tail_only():
    m = Modality(0, "v", 4)
    s = Sample(
        id=1,
        seed=2,
        difficulty=Difficulty.HARD,
        ground_truth_label=0,
        stable=False,
        jump_scale=5.0,
    )
    n = 10
    start = s.jump_start(n)
    assert start == 8
    head = s.unit_payload(m, 0, n)
    assert np.array_equal(head, s.unit_payload(m, start - 1, n))
    assert not np.array_equal(head, s.unit_payload(m, start, n))


@settings(max_examples=80, deadline=None)
@given(
    stable=st.booleans(),
    n=st.integers(1, 48),
    channels=st.integers(1, 9),
    jump_fraction=st.sampled_from([0.0, 1.0]) | st.floats(-1.0, 2.0),
    jump_scale=st.sampled_from([0.0, 5.0]) | st.floats(-10.0, 10.0),
    sample_id=st.integers(0, 2**20),
)
@example(stable=False, n=10, channels=4, jump_fraction=-0.2, jump_scale=3.0, sample_id=2)
@example(stable=False, n=10, channels=4, jump_fraction=1.5, jump_scale=3.0, sample_id=2)
@example(stable=False, n=1, channels=4, jump_fraction=0.0, jump_scale=5.0, sample_id=1)
@example(stable=False, n=1, channels=4, jump_fraction=1.0, jump_scale=5.0, sample_id=1)
@example(stable=False, n=10, channels=4, jump_fraction=0.0, jump_scale=3.0, sample_id=2)
@example(stable=False, n=10, channels=4, jump_fraction=1.0, jump_scale=3.0, sample_id=2)
@example(stable=False, n=10, channels=4, jump_fraction=0.5, jump_scale=0.0, sample_id=3)
@example(stable=True, n=1, channels=1, jump_fraction=0.8, jump_scale=0.0, sample_id=0)
def test_window_payload_rows_equal_unit_payload(
    stable, n, channels, jump_fraction, jump_scale, sample_id
):
    m = Modality(1, "v", channels)
    s = Sample(
        id=sample_id,
        seed=7,
        difficulty=Difficulty.HARD,
        ground_truth_label=0,
        stable=stable,
        jump_fraction=jump_fraction,
        jump_scale=jump_scale,
    )
    rows = s.window_payload(m, n)
    assert rows.dtype == np.float64 and rows.shape == (n, channels)
    for u in range(n):
        assert rows[u].tobytes() == s.unit_payload(m, u, n).tobytes()


def reference_window_payload(sample, modality, n):
    """A window's payload drawn as before the stream prefix was folded once
    per sample: every stream from its full label path."""
    labels = (sample.seed, "sample", sample.id)
    shared = rng.stream(*labels, "shared").symmetric(modality.channels)
    private = rng.stream(*labels, "private", modality.id).symmetric(modality.channels)
    a = sample.consistency_weight
    base = a * shared + (1.0 - a) * private
    rows = np.repeat(base[None, :], n, axis=0)
    if not sample.stable:
        direction = rng.stream(*labels, "jump", sample.jump_nonce, modality.id).symmetric(modality.channels)
        rows[sample.jump_start(n) :] = base + sample.jump_scale * direction
    return rows


@settings(max_examples=120, deadline=None)
@given(
    stable=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
    sample_id=st.integers(0, 2**40),
    weight=st.floats(0.0, 1.0),
    jump_fraction=st.floats(0.0, 1.0),
    jump_scale=st.floats(-10.0, 10.0),
    jump_nonce=st.integers(0, 5),
    modalities=st.lists(
        st.tuples(st.integers(0, 5), st.integers(1, 40), st.integers(1, 64)), min_size=1, max_size=4
    ),
)
def test_payload_matches_the_per_stream_reference(
    stable, seed, sample_id, weight, jump_fraction, jump_scale, jump_nonce, modalities
):
    s = Sample(
        id=sample_id,
        seed=seed,
        difficulty=Difficulty.HARD,
        ground_truth_label=0,
        stable=stable,
        consistency_weight=weight,
        jump_fraction=jump_fraction,
        jump_scale=jump_scale,
        jump_nonce=jump_nonce,
    )
    # several modalities (some alike) on one sample: later ones reuse its memo
    for m_id, channels, n in modalities + modalities[:1]:
        m = Modality(m_id, "v", channels)
        expected = reference_window_payload(s, m, n)
        rows = s.window_payload(m, n)
        assert rows.tobytes() == expected.tobytes()
        for u in (0, s.jump_start(n) - 1, s.jump_start(n), n - 1):
            if 0 <= u < n:
                assert s.unit_payload(m, u, n).tobytes() == expected[u].tobytes()


@settings(max_examples=120, deadline=None)
@given(
    stable=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
    weight=st.floats(0.0, 1.0),
    jump_fraction=st.sampled_from([0.0, 0.5, 0.8]),
    jump_scale=st.floats(-10.0, 10.0),
    modalities=st.lists(
        st.tuples(st.integers(0, 5), st.integers(1, 40)), min_size=1, max_size=5, unique=True
    ),
)
def test_one_pass_rows_equal_each_modality_drawn_alone(
    stable, seed, weight, jump_fraction, jump_scale, modalities
):
    # one pass draws the shared row once, at the largest width, and slices
    # it; drawn alone, each modality draws the shared row at its own width
    fields = dict(
        id=3,
        seed=seed,
        difficulty=Difficulty.HARD,
        ground_truth_label=0,
        stable=stable,
        consistency_weight=weight,
        jump_fraction=jump_fraction,
        jump_scale=jump_scale,
    )
    together, alone = Sample(**fields), Sample(**fields)
    mods = tuple(Modality(m_id, "v", channels) for m_id, channels in modalities)
    rows = together.rows(mods)
    for m, (base, jumped) in zip(mods, rows):
        ((base_alone, jumped_alone),) = alone.rows((m,))
        assert base.tobytes() == base_alone.tobytes()
        assert jumped.tobytes() == jumped_alone.tobytes()
        assert not base.flags.writeable and not jumped.flags.writeable
        # a 1-unit probe reads the jumped row when the jump starts at unit 0
        probe = together.unit_payload(m, 0, 1)
        assert probe.tobytes() == (jumped if together.jump_start(1) == 0 else base).tobytes()
        assert together.window_payload(m, 7).tobytes() == reference_window_payload(alone, m, 7).tobytes()
    again = together.rows(mods)  # drawn once: the same arrays again
    assert all(a is b for pair, pair_again in zip(rows, again) for a, b in zip(pair, pair_again))


def test_scenario_round_trip_canonical():
    for preset in ("motivation-av", "lrw-like", "uav-like"):
        s = workload.gen_scenario(preset, seed=5)
        text = scenario_io.serialize(s)
        again = scenario_io.parse(text)
        assert validate_scenario(again) == s
        assert scenario_io.serialize(again) == text
        assert scenario_io.fingerprint(again) == scenario_io.fingerprint(s)


def test_scenario_parse_reports_all_problems():
    with pytest.raises(scenario_io.ScenarioFormatError) as err:
        scenario_io.parse('{"schema_version": 99}')
    assert "schema_version" in str(err.value)


@pytest.mark.parametrize(
    "field, value",
    [("channels", 10**9), ("channels", core.MAX_CHANNELS + 1), ("units_per_window", 10**6)],
)
def test_oversized_document_parses_but_fails_validation(field, value):
    # units_per_window=10**6 divides the 1 s window, so only the size bound rejects it
    doc = scenario_io.to_document(workload.gen_scenario("lrw-like", seed=3))
    if field == "channels":
        doc["modalities"][1]["channels"] = value
    else:
        doc["sensing_configs"][0][2]["units_per_window"] = value
    scenario = scenario_io.from_document(doc)
    with pytest.raises(InvalidScenario) as err:
        validate_scenario(scenario)
    assert [v.code for v in err.value.violations] == [core.SIZE_LIMIT]
    assert str(value) in str(err.value)


def test_size_limits_admit_their_bounds():
    s = small_scenario(
        modalities=(Modality(0, "a", core.MAX_CHANNELS), Modality(1, "b", 4)),
        sensing_space=(
            (SensingConfig(0, core.MAX_UNITS_PER_WINDOW, 1_024_000),),
            (SensingConfig(0, 16, 1_024_000),),
        ),
    )
    assert validate_scenario(s) is s


@pytest.mark.parametrize(
    "clone", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_memoized_arrays_stay_read_only_in_a_copy(clone):
    s = workload.gen_scenario("lrw-like", seed=0)
    head = engine.prediction_head(s, 10)
    table = latency.unimodal_table(s, "high")
    again = clone(s)
    assert again == s
    copied_head = engine.prediction_head(again, 10)
    copied_table = latency.unimodal_table(again, "high")
    assert np.array_equal(copied_head, head)
    assert all(np.array_equal(a, b) for a, b in zip(copied_table, table))
    for array in (copied_head, *copied_table):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0
    # the original's memo is untouched by the copy's
    assert engine.prediction_head(s, 10) is head
    assert latency.unimodal_table(s, "high") is table


@pytest.mark.parametrize("old", [None, b"old bytes\n"])
def test_a_write_whose_pieces_raise_leaves_the_path_as_it_was(old, tmp_path):
    path = tmp_path / "out.csv"
    if old is not None:
        path.write_bytes(old)
    drawn = []

    def pieces():
        drawn.append(sorted(p.name for p in tmp_path.iterdir()))  # the .partial file is open already
        yield b"a,b\n"
        yield b"1,2\n"
        raise ValueError("a piece failed")

    with pytest.raises(ValueError, match="a piece failed"):
        core.write_whole(path, pieces())
    assert drawn == [sorted([path.name] * (old is not None) + ["out.csv.partial"])]
    assert (path.read_bytes() if path.exists() else None) == old
    assert [p.name for p in tmp_path.iterdir()] == ([path.name] if old is not None else [])


def test_a_write_is_moved_over_a_file_but_not_over_a_directory(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old bytes\n")
    core.write_whole(path, iter([b"a,b\n", b"", b"1,2\n"]))
    assert path.read_bytes() == b"a,b\n1,2\n"
    directory = tmp_path / "outdir"
    directory.mkdir()
    with pytest.raises(IsADirectoryError):
        core.write_whole(directory, [b"a,b\n"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "outdir"] and list(directory.iterdir()) == []
