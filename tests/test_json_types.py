"""One JSON type rule for every document the package reads.

A value in an int field, or in a float field, of a scenario file, a weight
document and a trace record is taken or refused alike by each reader, each
with its own error: `ScenarioFormatError`, `WeightFormatError` or
`CorruptLine`.  Trace records hold no float field, so the float column is
read by the scenario and weight-document readers, and by the weight arrays,
which refuse NaN as not finite.
"""

import json

import numpy as np
import pytest

from modalsim import nn, predictor, scenario_io, traceio, workload
from modalsim.core import JSONTypeError, json_value, read_record
from modalsim.engine import TraceSummary
from test_traceio import _resummed_file, _set

# each value, and whether an int field and a float field take it
VALUES = {
    "true": (True, False, False),
    "float-one": (1.0, False, True),
    "str-one": ("1", False, False),
    "null": (None, False, False),
    "list": ([1], False, False),
    "object": ({}, False, False),
    "int-2^1023": (2**1023, True, True),
    "int-2^1024": (2**1024, True, False),
    "int-one": (1, True, True),
    "nan": (float("nan"), False, True),
}
REFUSED = (scenario_io.ScenarioFormatError, nn.WeightFormatError, traceio.CorruptLine)


def _seen(read) -> str:
    """What a reader made of the value: its type and repr, or "refused"."""
    try:
        value = read()
    except REFUSED:
        return "refused"
    return f"{type(value).__name__} {value!r}"


def _scenario(field, value):
    doc = scenario_io.to_document(workload.gen_scenario("lrw-like", seed=3))
    if field == "int":
        doc["modalities"][0]["channels"] = value
        return lambda: scenario_io.parse(json.dumps(doc)).modalities[0].channels
    doc["tau"] = value
    return lambda: scenario_io.parse(json.dumps(doc)).tau


def _weight_document(tmp_path, field, value):
    spec = predictor.EncodingSpec(sensing_counts=(2,), model_counts=(2,))
    zeros = np.zeros(spec.dim)
    mlp = nn.MLP(np.zeros((spec.dim, 2)), np.zeros(2), np.zeros(2), 0.0, zeros, zeros + 1.0)
    info = predictor.TrainingInfo(0, 1, 0.1, 0.0, 0.0, 0.0)
    path = tmp_path / f"{field}.json"
    predictor.save_model(predictor.PredictorModel(spec, mlp, 50.0, info), path)
    doc = json.loads(path.read_text())
    if field == "array":
        doc["weights"]["b1"][0] = value
        path.write_text(json.dumps(doc))
        return lambda: float(predictor.load_model(path).mlp.b1[0])
    key = "seed" if field == "int" else "train_mse"
    doc["training"][key] = value
    path.write_text(json.dumps(doc))
    return lambda: getattr(predictor.load_model(path).info, key)


def _trace(tmp_path, kind, key, value):
    (tmp_path / kind).mkdir()
    path, _ = _resummed_file(tmp_path / kind, _set(kind, key, value))

    def read():
        first = traceio.read_trace(path)[0]
        return getattr(first.summary if kind == "summary" else first, key)

    return read


@pytest.mark.parametrize("case", sorted(VALUES))
def test_every_reader_takes_or_refuses_a_value_alike(case, tmp_path):
    value, as_int, as_float = VALUES[case]
    int_readers = {
        "scenario": _scenario("int", value),
        "weight document": _weight_document(tmp_path, "int", value),
        "trace summary": _trace(tmp_path, "summary", "waiting_us", value),
        "trace header": _trace(tmp_path, "header", "sample_id", value),
    }
    expected = f"int {value!r}" if as_int else "refused"
    assert {name: _seen(read) for name, read in int_readers.items()} == dict.fromkeys(int_readers, expected)

    float_readers = {
        "scenario": _scenario("float", value),
        "weight document": _weight_document(tmp_path, "float", value),
        "weight array": _weight_document(tmp_path, "array", value),
    }
    expected = dict.fromkeys(float_readers, f"float {float(value)!r}" if as_float else "refused")
    if case == "nan":
        expected["weight array"] = "refused"  # not finite
    assert {name: _seen(read) for name, read in float_readers.items()} == expected


def test_a_float_field_takes_every_int_a_float_can_hold():
    largest = 2**1024 - 2**970  # the least int whose float would overflow
    assert json_value(largest - 1, float) == -json_value(1 - largest, float) == 1.7976931348623157e308
    for value in (largest, -largest):
        with pytest.raises(JSONTypeError, match="value should be float, got int"):
            json_value(value, float)


def test_a_record_names_every_bad_field():
    obj = {"reported_latency_us": 1.5, "peak_buffered_units": [1, "2"], "skipped_unit_count": 0}
    with pytest.raises(JSONTypeError) as err:
        read_record(obj, TraceSummary, "summary")
    assert err.value.args == (
        "summary.reported_latency_us should be int, got float",
        "summary.waiting_us is missing",
        "summary.peak_buffered_units item should be int, got str",
    )
    with pytest.raises(JSONTypeError, match="^summary should be dict, got list$"):
        read_record([], TraceSummary, "summary")
