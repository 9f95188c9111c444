"""Scenario documents: the fingerprint is memoized on the instance and
invisible everywhere else, the canonical text equals one indented dump of
the whole document, and a malformed document fails typed."""

import dataclasses
import hashlib
import json
import pickle

import pytest

from modalsim import scenario_io, workload


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


def _full_dump(s) -> str:
    return json.dumps(scenario_io.to_document(s), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("preset", workload.PRESETS)
def test_canonical_text_is_the_sorted_indented_dump_of_the_document(preset):
    # the profile's text is memoized and spliced in; the result must be the
    # text of one json.dumps over the whole document
    for seed in range(3):
        s = workload.gen_scenario(preset, seed=seed)
        for derived in (s, s.without_skipping(), dataclasses.replace(s, t_max_us=s.t_max_us + 1)):
            assert scenario_io.serialize(derived) == _full_dump(derived)


def test_random_pin_presets_serialize_to_the_full_dump():
    from test_search_pins import SHAPES, presets

    for shape in SHAPES:
        for s in presets(shape):
            assert scenario_io.serialize(s) == _full_dump(s)
