"""Algebra of the temporal shift, difference, and aggregate operators."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from modalsim import aggregation, rng
from modalsim.aggregation import (
    DiffSpec,
    GroupExceedsChannels,
    ShiftSpec,
    WindowTooShort,
    aggregate,
    aggregate_output_dim,
    aggregate_vector,
    alternating_shift,
    group_slices,
    temporal_differences,
)
from modalsim.core import FeatureMatrix


def fm(rows, prefix=None):
    arr = np.asarray(rows, dtype=np.float64)
    return FeatureMatrix(arr, arr.shape[0] if prefix is None else prefix)


def random_matrix(seed, n, c):
    return rng.stream(seed, "mat", n, c).symmetric(n * c).reshape(n, c)


def test_shift_three_by_three_example():
    out = alternating_shift(fm([[1, 2, 3], [4, 5, 6], [7, 8, 9]]), ShiftSpec(3, 1))
    np.testing.assert_array_equal(out.values, [[1, 2, 3], [1, 5, 9], [7, 8, 9]])


def test_shift_single_unit_identity():
    m = fm([[1.0, 2.0, 3.0]])
    out = alternating_shift(m, ShiftSpec(3, 1))
    np.testing.assert_array_equal(out.values, m.values)


def test_shift_one_group_identity():
    m = fm(random_matrix(0, 6, 5))
    out = alternating_shift(m, ShiftSpec(1, 1))
    np.testing.assert_array_equal(out.values, m.values)


def test_shift_large_k_identity():
    m = fm(random_matrix(1, 4, 6))
    out = alternating_shift(m, ShiftSpec(3, 4))
    np.testing.assert_array_equal(out.values, m.values)


def test_shift_input_untouched():
    m = fm(random_matrix(2, 5, 6))
    before = m.values.copy()
    alternating_shift(m, ShiftSpec(3, 1))
    np.testing.assert_array_equal(m.values, before)


def test_shift_two_groups():
    m = fm(random_matrix(3, 5, 4))
    out = alternating_shift(m, ShiftSpec(2, 1))
    first, last = group_slices(4, 2)
    for i in range(1, 4):
        np.testing.assert_array_equal(out.values[i, first], m.values[i - 1, first])
        np.testing.assert_array_equal(out.values[i, last], m.values[i + 1, last])
    np.testing.assert_array_equal(out.values[0], m.values[0])
    np.testing.assert_array_equal(out.values[4], m.values[4])


def test_group_remainder_goes_to_middle():
    slices = group_slices(5, 3)
    sizes = [s.stop - s.start for s in slices]
    assert sizes == [1, 3, 1]
    assert [s.stop - s.start for s in group_slices(7, 3)] == [2, 3, 2]
    assert [s.stop - s.start for s in group_slices(11, 4)] == [2, 4, 3, 2]


def test_groups_exceed_channels():
    with pytest.raises(GroupExceedsChannels):
        alternating_shift(fm(random_matrix(4, 3, 2)), ShiftSpec(3, 1))


def test_shift_conservation():
    # group-g interior columns are a k-translated multiset of input vectors;
    # totals change only through boundary retention
    m = fm(random_matrix(5, 8, 6))
    spec = ShiftSpec(3, 2)
    out = alternating_shift(m, spec)
    first, mid, last = group_slices(6, 3)
    n, k = 8, 2
    rows = [m.values[i - k, first] if k <= i < n - k else m.values[i, first] for i in range(n)]
    np.testing.assert_array_equal(out.values[:, first], np.vstack(rows))
    rows_last = [m.values[i + k, last] if k <= i < n - k else m.values[i, last] for i in range(n)]
    np.testing.assert_array_equal(out.values[:, last], np.vstack(rows_last))
    np.testing.assert_array_equal(out.values[:, mid], m.values[:, mid])
    # exact column-sum bookkeeping: the backward shift drops the rows that
    # slid past the last interior slot and re-counts the retained boundary
    expected = (
        m.values[:, first].sum(axis=0)
        - m.values[n - 2 * k : n - k, first].sum(axis=0)
        + m.values[:k, first].sum(axis=0)
    )
    np.testing.assert_allclose(out.values[:, first].sum(axis=0), expected, atol=1e-12)


def test_differences_basic_example():
    out = temporal_differences(fm([[1.0], [3.0], [6.0]]), DiffSpec(scales=(1,)))
    np.testing.assert_array_equal(out[0].values, [[2.0], [3.0]])


def test_differences_constant_rows_zero():
    m = fm(np.tile([2.0, -1.0, 0.5], (6, 1)))
    for mat in temporal_differences(m, DiffSpec(scales=(1, 2))):
        assert np.all(mat.values == 0.0)


def test_differences_linear_ramp():
    v = np.array([1.0, -2.0, 0.25])
    m = fm(np.outer(np.arange(7, dtype=np.float64), v))
    for mat, s in zip(temporal_differences(m, DiffSpec(scales=(1, 3))), (1, 3)):
        np.testing.assert_allclose(mat.values, np.tile(s * v, (7 - s, 1)))


def test_differences_window_too_short():
    with pytest.raises(WindowTooShort):
        temporal_differences(fm(random_matrix(6, 2, 3)), DiffSpec(scales=(1, 2)))


def test_aggregate_zero_input_zero_output():
    m = fm(np.zeros((5, 4)))
    out = aggregate(m, ShiftSpec(3, 1), DiffSpec(scales=(1, 2), encoder_width=3))
    assert np.all(out == 0.0)


def test_aggregate_hand_computed_identity_encoder():
    # derived by hand from the shift and diff sub-operation outputs:
    # shifted rows [[1,2,3],[1,5,9],[7,8,9]]; scale-1 diff rows are both
    # [3,3,3], pooled with position weights (1, 1.25) -> (3*1 + 3*1.25)/2
    m = fm([[1.0, 2, 3], [4, 5, 6], [7, 8, 9]])
    spec = DiffSpec(scales=(1,), identity_encoder=True)
    out = aggregate(m, ShiftSpec(3, 1), spec)
    shifted_mean = np.array([[1, 2, 3], [1, 5, 9], [7, 8, 9]]).mean(axis=0)
    diff_pooled = np.array([3.375, 3.375, 3.375])
    np.testing.assert_allclose(out, np.concatenate([shifted_mean, diff_pooled]))


def test_aggregate_order_sensitivity():
    vals = random_matrix(7, 6, 5)
    spec = DiffSpec(scales=(1, 2), encoder_width=4)
    base = aggregate(fm(vals), ShiftSpec(3, 1), spec)
    swapped = vals.copy()
    swapped[[2, 3]] = swapped[[3, 2]]
    out = aggregate(fm(swapped), ShiftSpec(3, 1), spec)
    assert not np.allclose(base, out)


def test_aggregate_shape():
    for c, spec in [(5, DiffSpec(scales=(1, 2), encoder_width=4)), (6, DiffSpec(scales=(1,), identity_encoder=True))]:
        m = fm(random_matrix(8, 7, c))
        out = aggregate(m, ShiftSpec(3, 1), spec)
        assert out.shape == (aggregate_output_dim(c, spec),)


def test_aggregate_linearity():
    spec = DiffSpec(scales=(1, 2), encoder_width=4)
    shift = ShiftSpec(3, 1)
    x = random_matrix(8, 6, 5)
    y = random_matrix(9, 6, 5)
    a, b = 2.5, -1.25
    lhs = aggregate(fm(a * x + b * y), shift, spec)
    rhs = a * aggregate(fm(x), shift, spec) + b * aggregate(fm(y), shift, spec)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    c=st.integers(min_value=1, max_value=9),
    n_groups=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_shift_properties(n, c, n_groups, k, seed):
    if n_groups > c:
        return
    m = fm(random_matrix(seed, n, c))
    out = alternating_shift(m, ShiftSpec(n_groups, k))
    assert out.values.shape == m.values.shape
    # boundary rows always copied unchanged
    for i in list(range(min(k, n))) + list(range(max(n - k, 0), n)):
        np.testing.assert_array_equal(out.values[i], m.values[i])
    if n_groups == 1 or 2 * k >= n:
        np.testing.assert_array_equal(out.values, m.values)
    # interior rows: per-group translation semantics
    groups = group_slices(c, n_groups)
    for i in range(k, n - k):
        if n_groups > 1:
            np.testing.assert_array_equal(out.values[i, groups[0]], m.values[i - k, groups[0]])
            np.testing.assert_array_equal(out.values[i, groups[-1]], m.values[i + k, groups[-1]])


def test_engine_wrapper_matches_aggregate_on_full_windows():
    # the engine-side wrapper (adaptive grouping, zero blocks for oversize
    # scales) must agree with the strict operator wherever both are defined
    from modalsim.engine import aggregate_vector

    for seed in range(20):
        n = 3 + seed % 8
        c = 3 + seed % 6
        vals = random_matrix(seed, n, c)
        spec = DiffSpec(scales=(1, 2) if n > 2 else (1,), encoder_width=5)
        shift = ShiftSpec(3, 1)
        np.testing.assert_array_equal(
            aggregate(fm(vals), shift, spec), aggregate_vector(vals, shift, spec)
        )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=12),
    c=st.integers(min_value=3, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_aggregate_linearity_property(n, c, seed):
    spec = DiffSpec(scales=(1, 2), encoder_width=4)
    shift = ShiftSpec(3, 1)
    x = random_matrix(seed, n, c)
    y = random_matrix(seed + 1, n, c)
    lhs = aggregate(fm(x + y), shift, spec)
    rhs = aggregate(fm(x), shift, spec) + aggregate(fm(y), shift, spec)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def loop_shift(features, spec):
    """The per-unit loop `alternating_shift` ran before its two slice
    copies: the reference it must match bit for bit."""
    n = features.valid_prefix
    vals = features.values
    out = vals.copy()
    k = spec.shift_distance
    if spec.n_groups == 1 or n == 0:
        return FeatureMatrix(out, features.valid_prefix)
    groups = group_slices(features.channels, spec.n_groups)
    first, last = groups[0], groups[-1]
    for i in range(k, n - k):
        out[i, first] = vals[i - k, first]
        out[i, last] = vals[i + k, last]
    return FeatureMatrix(out, features.valid_prefix)


def outcome(fn, *args):
    try:
        return fn(*args).values.tobytes()
    except GroupExceedsChannels:
        return GroupExceedsChannels


any_float = st.floats(width=64) | st.sampled_from([0.0, -0.0, float("nan")])


@st.composite
def matrices(draw, max_units=16):
    units = draw(st.integers(0, max_units))
    channels = draw(st.integers(1, 9))
    return draw(hnp.arrays(np.float64, (units, channels), elements=any_float))


@settings(max_examples=300, deadline=None)
@given(
    vals=matrices(),
    prefix=st.floats(0.0, 1.0),
    n_groups=st.integers(1, 12),
    k=st.integers(1, 9),
)
@example(vals=np.arange(12.0).reshape(4, 3), prefix=1.0, n_groups=3, k=2)  # n == 2k
@example(vals=np.arange(15.0).reshape(5, 3), prefix=1.0, n_groups=3, k=2)  # one interior unit
@example(vals=np.arange(10.0).reshape(5, 2), prefix=1.0, n_groups=3, k=1)  # narrower than the groups
@example(vals=np.arange(10.0).reshape(5, 2), prefix=1.0, n_groups=1, k=1)  # one group
@example(vals=np.zeros((0, 4)), prefix=0.0, n_groups=5, k=1)  # no units
def test_shift_matches_the_per_unit_loop(vals, prefix, n_groups, k):
    features = FeatureMatrix(vals, int(prefix * vals.shape[0]))
    spec = ShiftSpec(n_groups, k)
    assert outcome(alternating_shift, features, spec) == outcome(loop_shift, features, spec)


@settings(max_examples=200, deadline=None)
@given(
    vals=matrices(max_units=12).filter(lambda v: v.shape[0] > 0),
    n_groups=st.integers(1, 12),
    k=st.integers(1, 6),
)
@example(vals=np.arange(10.0).reshape(5, 2), n_groups=3, k=1)
def test_aggregate_vector_matches_the_loop_shift_reference(vals, n_groups, k):
    # the reference: the FeatureMatrix round trip through the per-unit loop
    # that `aggregate_vector` made before it called the array shift
    shift, diff = ShiftSpec(n_groups, k), DiffSpec(scales=(1, 3), encoder_width=4)
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as patch:  # inf - inf is nan
        got = aggregate_vector(vals, shift, diff)
        patch.setattr(
            aggregation, "_shift", lambda rows, n, spec: loop_shift(FeatureMatrix(rows, n), spec).values
        )
        expected = aggregate_vector(vals, shift, diff)
    assert got.tobytes() == expected.tobytes()
