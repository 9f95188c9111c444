"""Scenario fingerprint: memoized on the instance, invisible everywhere else."""

import dataclasses
import hashlib
import pickle

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
