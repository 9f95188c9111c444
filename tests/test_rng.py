"""Golden-value and splitting tests for the counter-based RNG."""

import numpy as np
import pytest

from modalsim import rng


def test_golden_u64_sequence():
    s = rng.stream(42, "golden", 7)
    assert [s.u64(i) for i in range(4)] == [
        2277049344928558455,
        6510201015806056587,
        8232674380234696263,
        540895851993484233,
    ]


def test_golden_unit_floats():
    s = rng.stream(42, "golden", 7)
    assert s.unit(0) == 0.12343909233141181
    assert s.unit(1) == 0.3529187042327132
    assert s.unit(2) == 0.4462941724208105


def test_unit_range_and_determinism():
    s = rng.stream(7, "x")
    values = s.units(2000)
    assert np.all(values >= 0.0) and np.all(values < 1.0)
    assert np.array_equal(values, rng.stream(7, "x").units(2000))


def test_label_splitting_changes_everything():
    base = rng.stream(1, "a", 2)
    assert base.u64(0) != rng.stream(1, "a", 3).u64(0)
    assert base.u64(0) != rng.stream(1, "b", 2).u64(0)
    assert base.u64(0) != rng.stream(2, "a", 2).u64(0)
    assert base.u64(0) != base.sub("c").u64(0)


def test_string_labels_not_prefix_confusable():
    assert rng.stream(0, "ab", "c").key != rng.stream(0, "a", "bc").key


def test_index_addressable():
    s = rng.stream(5, "idx")
    block = s.units(10)
    assert s.unit(7) == block[7]
    assert np.array_equal(s.units(4, offset=3), block[3:7])


def test_symmetric_range():
    v = rng.stream(3, "sym").symmetric(500)
    assert np.all(v >= -1.0) and np.all(v < 1.0)
    assert abs(float(np.mean(v))) < 0.1


def test_labels_reject_unsupported_types():
    try:
        rng.stream(0, 1.5)
    except TypeError:
        return
    raise AssertionError("float labels should be rejected")


def test_concat_units_equals_each_stream_drawn_alone():
    streams = [rng.stream(9, "concat", i) for i in range(4)] + [rng.Stream(2**64 - 1)]
    counts = [5, 1, 0, 33, 8]
    joined = rng.concat_units(streams, counts)
    assert joined.tobytes() == np.concatenate([s.units(n) for s, n in zip(streams, counts)]).tobytes()


@pytest.mark.parametrize("offset", [0, 3, 2**40, 2**63 - 2000])
@pytest.mark.parametrize("count", [0, 1, 7, 16, 257])
def test_bulk_units_match_scalar_unit_bitwise(count, offset):
    # the vectorized block draw is the same function as the scalar draw
    for labels in (("golden", 7), ("bulk", count, offset)):
        s = rng.stream(42, *labels)
        scalar = np.array([s.unit(offset + i) for i in range(count)], dtype=np.float64)
        bulk = s.units(count, offset)
        assert bulk.dtype == np.float64 and bulk.shape == (count,)
        assert bulk.tobytes() == scalar.tobytes()
