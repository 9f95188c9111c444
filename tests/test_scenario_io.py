"""Scenario documents: the fingerprint is memoized on the instance and
invisible everywhere else, the canonical text equals one indented dump of
the whole document, and a malformed document fails typed."""

import dataclasses
import hashlib
import json
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modalsim import scenario_io, workload
from modalsim.core import LatencyProfile, Modality, ModelConfig, ProfileEntry, SensingConfig


def sha256_of(s) -> str:
    return hashlib.sha256(scenario_io.serialize(s).encode("utf-8")).hexdigest()


def test_memoized_digest_equals_digest_of_canonical_text():
    s = workload.gen_scenario("lrw-like", seed=2)
    first = scenario_io.fingerprint(s)
    assert first == sha256_of(s)
    assert scenario_io.fingerprint(s) == first


def test_replaced_scenario_gets_its_own_digest():
    s = workload.gen_scenario("lrw-like", seed=2)
    before = scenario_io.fingerprint(s)
    derived = dataclasses.replace(s, t_max_us=s.t_max_us + 1)
    assert scenario_io.fingerprint(derived) == sha256_of(derived)
    assert scenario_io.fingerprint(derived) != before
    assert scenario_io.fingerprint(s.without_skipping()) == sha256_of(s.without_skipping())
    assert scenario_io.fingerprint(s) == before


def test_memo_is_invisible_to_equality_repr_fields_and_documents():
    s = workload.gen_scenario("uav-like", seed=4)
    text, doc, text_repr = scenario_io.serialize(s), scenario_io.to_document(s), repr(s)
    names = [f.name for f in dataclasses.fields(s)]
    plain_round_trip = pickle.loads(pickle.dumps(s))

    scenario_io.fingerprint(s)

    assert s == scenario_io.parse(text)
    assert scenario_io.parse(text) == s
    assert scenario_io.serialize(s) == text
    assert scenario_io.to_document(s) == doc
    assert repr(s) == text_repr
    assert [f.name for f in dataclasses.fields(s)] == names
    again = pickle.loads(pickle.dumps(s))
    assert again == s == plain_round_trip
    assert repr(again) == text_repr
    assert scenario_io.serialize(again) == text
    assert scenario_io.fingerprint(again) == scenario_io.fingerprint(plain_round_trip) == sha256_of(s)


def _lrw_document():
    return scenario_io.to_document(workload.gen_scenario("lrw-like", seed=3))


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("modalities",), 5, "modalities"),
        (("sensing_configs",), None, "sensing_configs"),
        (("model_configs",), [5], "model_configs[0]"),
        (("resource_schedule",), 5, "resource_schedule"),
        (("latency_profile",), [], "latency_profile"),
        (("latency_profile", "fusion_us"), "x", "latency_profile.fusion_us"),
        # each field takes only its exact JSON type: nothing is converted
        (("modalities", 0, "channels"), 16.7, "modalities[0]: channels should be int"),
        (("modalities", 0, "channels"), True, "modalities[0]: channels should be int"),
        (("modalities", 0, "name"), 7, "modalities[0]: name should be str"),
        (("t_max_us",), "1180000", "t_max_us: value should be int"),
        (("tau",), "0.5", "tau: value should be float"),
        (("tau",), True, "tau: value should be float"),
        (("accuracy_surface_seed",), 1.0, "accuracy_surface_seed: value should be int"),
        (("skip_checkpoints",), ["0.5", 0.7], "skip_checkpoints[0]: value should be float"),
        (("sensing_configs", 0, 0, "units_per_window"), "10", "sensing_configs[0][0]: units_per_window"),
        (("model_configs", 0, 0, "label"), None, "model_configs[0][0]: label should be str"),
        (("latency_profile", "resource_levels", 0), 1, "latency_profile.resource_levels[0]: value"),
        (("latency_profile", "entries", 0, "unit_encode_us"), 9.5, "latency_profile.entries[0]: unit_"),
        (("resource_schedule", 0), [0, "high", "ignored"], "resource_schedule[0]: should be a [time"),
        (("resource_schedule", 0), [0.0, "high"], "resource_schedule[0]: time should be int"),
        (("execution_mode",), 3, "execution_mode: value should be str"),
    ],
)
def test_wrongly_typed_field_raises_format_error(path, value, field):
    doc = _lrw_document()
    *outer, key = path
    target = doc
    for part in outer:
        target = target[part]
    target[key] = value
    with pytest.raises(scenario_io.ScenarioFormatError) as err:
        scenario_io.from_document(doc)
    assert any(p.startswith(field) for p in err.value.problems), err.value.problems


def test_every_wrongly_typed_field_of_a_row_is_its_own_problem():
    doc = _lrw_document()
    doc["modalities"][0].update(channels=16.7, name=7)
    del doc["latency_profile"]["entries"][0]["resource"]
    with pytest.raises(scenario_io.ScenarioFormatError) as err:
        scenario_io.from_document(doc)
    assert err.value.problems == [
        "modalities[0]: name should be str, got int",
        "modalities[0]: channels should be int, got float",
        "latency_profile.entries[0]: resource is missing",
    ]


def test_each_bad_item_of_a_schedule_pair_is_its_own_problem():
    doc = _lrw_document()
    doc["resource_schedule"][0] = [0.5, 7]
    with pytest.raises(scenario_io.ScenarioFormatError) as err:
        scenario_io.from_document(doc)
    assert err.value.problems == [
        "resource_schedule[0]: time should be int, got float",
        "resource_schedule[0]: level should be str, got int",
    ]


def test_an_integer_number_field_reads_as_a_float():
    doc = _lrw_document()
    doc["tau"], doc["skip_checkpoints"] = 1, [1]
    s = scenario_io.from_document(doc)
    assert (s.tau, s.skip_checkpoints) == (1.0, (1.0,))
    assert type(s.tau) is float and type(s.skip_checkpoints[0]) is float


def _full_dump(s) -> str:
    return json.dumps(scenario_io.to_document(s), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("preset", workload.PRESETS)
def test_canonical_text_is_the_sorted_indented_dump_of_the_document(preset):
    # the text is written from templates, the profile's part memoized; the
    # result must be the text of one json.dumps over the whole document
    for seed in range(3):
        s = workload.gen_scenario(preset, seed=seed)
        for derived in (s, s.without_skipping(), dataclasses.replace(s, t_max_us=s.t_max_us + 1)):
            assert scenario_io.serialize(derived) == _full_dump(derived)


def test_random_pin_presets_serialize_to_the_full_dump():
    from test_search_pins import SHAPES, presets

    for shape in SHAPES:
        for s in presets(shape):
            assert scenario_io.serialize(s) == _full_dump(s)


class Int(int):
    """An int subclass that writes itself differently from `int.__repr__`."""

    __repr__ = __str__ = lambda self: "not-json"


class Float(float):
    __repr__ = __str__ = lambda self: "not-json"


HOSTILE = ['"', "\\", "\x00", "\n\t\x1f", "é", "日本", "\ud800", "%s", "%(x)d", "\u2028", ""]
texts = st.sampled_from(HOSTILE) | st.text(max_size=12)
floats = st.sampled_from([1e-7, 0.1, 5e-324, 0.5, 1.0, -0.0, 1e300]) | st.floats()
# values that are not an exact int; each must send the scenario to the reference
odd_ints = st.sampled_from([True, False, np.int64(3), Int(2)])


def outcome(write, s):
    try:
        return write(s)
    except TypeError as exc:  # a numpy int is not JSON serializable
        return type(exc)


@st.composite
def hostile_scenarios(draw):
    base = workload.gen_scenario("lrw-like", seed=draw(st.integers(0, 3)))
    n = len(base.modalities)
    levels = draw(st.lists(texts, min_size=1, max_size=3, unique=True))
    entries = {}
    for i in range(n):
        for j in range(len(base.sensing_space[i])):
            for k in range(len(base.model_space[i])):
                for r in levels:
                    entries[(i, j, k, r)] = ProfileEntry(draw(st.integers(1, 10**6)), draw(st.integers(0, 10**5)))
    profile = LatencyProfile(levels, draw(st.integers(0, 10**5)), entries)
    s = dataclasses.replace(
        base,
        name=draw(texts),
        modalities=tuple(Modality(m.id, draw(texts), m.channels) for m in base.modalities),
        model_space=tuple(
            tuple(ModelConfig(c.level, draw(texts)) for c in row) for row in base.model_space
        ),
        latency_profile=profile,
        tau=draw(floats | st.integers(-5, 5)),
        skip_checkpoints=tuple(draw(st.lists(floats, max_size=40))),
        resource_schedule=tuple(
            (t, draw(st.sampled_from(levels))) for t in draw(st.lists(st.integers(0, 10**9), max_size=60))
        ),
    )
    # at most one field holds a value that is not an exact int, str or float
    field = draw(st.sampled_from(["none", "t_max_us", "seed", "channels", "level", "entry", "time", "tau"]))
    if field == "none":
        return s
    odd = draw(odd_ints)
    if field == "t_max_us":
        return dataclasses.replace(s, t_max_us=odd)
    if field == "seed":
        return dataclasses.replace(s, accuracy_surface_seed=odd)
    if field == "channels":
        m = s.modalities[0]
        return dataclasses.replace(s, modalities=(Modality(m.id, m.name, odd), *s.modalities[1:]))
    if field == "level":
        c = s.sensing_space[0][0]
        first = (SensingConfig(odd, c.units_per_window, c.window_us), *s.sensing_space[0][1:])
        return dataclasses.replace(s, sensing_space=(first, *s.sensing_space[1:]))
    if field == "entry":
        key = next(iter(entries))
        odd_entries = {**entries, key: ProfileEntry(odd, entries[key].aggregation_us)}
        return dataclasses.replace(s, latency_profile=LatencyProfile(levels, profile.fusion_us, odd_entries))
    if field == "time":
        return dataclasses.replace(s, resource_schedule=((odd, levels[0]), *s.resource_schedule))
    return dataclasses.replace(s, tau=draw(st.sampled_from([True, Float(0.5), float("nan"), -float("inf")])))


@settings(max_examples=300, deadline=None)
@given(hostile_scenarios())
@example(dataclasses.replace(workload.gen_scenario("uav-like", seed=1), name='"\\\x00é', tau=5e-324))
@example(dataclasses.replace(workload.gen_scenario("lrw-like", seed=0), skip_checkpoints=(1e-7, 0.1)))
@example(dataclasses.replace(workload.gen_scenario("lrw-like", seed=0), resource_schedule=()))
def test_canonical_text_equals_the_reference_on_hostile_values(s):
    assert outcome(scenario_io.serialize, s) == outcome(_full_dump, s)


@pytest.mark.parametrize(
    "odd", [True, np.int64(3), Int(2), Float(0.25), float("nan"), None], ids=repr
)
def test_a_value_that_is_not_exact_takes_the_reference(odd, monkeypatch):
    encoders = []
    real = json.encoder._make_iterencode

    def counted(*args, **kwargs):
        encoders.append(args)
        return real(*args, **kwargs)

    s = dataclasses.replace(workload.gen_scenario("lrw-like", seed=1), tau=odd)
    expected = outcome(_full_dump, s)
    monkeypatch.setattr(json.encoder, "_make_iterencode", counted)
    assert outcome(scenario_io.serialize, s) == expected
    assert encoders  # the reference ran: `json` with an indent builds its encoder
