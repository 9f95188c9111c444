"""Temporal feature operators: alternating channel shift, multi-scale
differences, and the pooled aggregate fed to fusion (`aggregate_vector`, with
`aggregate` as its strict front end).

All operators are exact float64 transforms on FeatureMatrix inputs and never
mutate their arguments, so every algebraic property (linearity, conservation,
identity cases) is testable to the bit.  The shift is two slice copies on
the array (`_shift`), which `alternating_shift` wraps in a FeatureMatrix and
`aggregate_vector` calls directly; the per-unit loop it replaces is kept in
the tests as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn, rng
from .core import FeatureMatrix, ModalsimError, memoized


class GroupExceedsChannels(ModalsimError):
    pass


class WindowTooShort(ModalsimError):
    pass


@dataclass(frozen=True)
class ShiftSpec:
    """Channel grouping and shift distance for the alternating temporal shift."""

    n_groups: int = 3
    shift_distance: int = 1

    def __post_init__(self):
        if self.n_groups < 1 or self.shift_distance < 1:
            raise ValueError("n_groups and shift_distance must be >= 1")


@dataclass(frozen=True)
class DiffSpec:
    """Temporal difference scales and the per-scale linear encoder.

    The encoder is a bias-free fixed linear map (drawn from seed 0, or the
    identity when `identity_encoder` is set, in which case the width equals
    the channel count).  Bias-free keeps the whole aggregate linear in its
    input.
    """

    scales: tuple[int, ...] = (1, 2)
    encoder_width: int = 8
    identity_encoder: bool = False

    def __post_init__(self):
        if not self.scales or any(s < 1 for s in self.scales):
            raise ValueError("scales must be positive")
        if list(self.scales) != sorted(set(self.scales)):
            raise ValueError("scales must be strictly increasing")
        if self.encoder_width < 1:
            raise ValueError("encoder_width must be >= 1")

    def width(self, channels: int) -> int:
        return channels if self.identity_encoder else self.encoder_width

    @memoized
    def encoder_matrix(self, channels: int) -> np.ndarray:
        """Read-only (channels, width) encoder, drawn once per spec and channel count."""
        if self.identity_encoder:
            return np.eye(channels)
        s = rng.stream(0, "diff-encoder", channels, self.encoder_width)
        flat = s.symmetric(channels * self.encoder_width)
        return flat.reshape(channels, self.encoder_width) / np.sqrt(channels)


def group_slices(channels: int, n_groups: int) -> list[slice]:
    """Contiguous channel groups; remainder channels go to the middle groups
    left to right (first group when there is no middle), keeping the shifted
    first/last group sizes fixed."""
    if n_groups > channels:
        raise GroupExceedsChannels(f"{n_groups} groups > {channels} channels")
    base = channels // n_groups
    extra = channels % n_groups
    sizes = [base] * n_groups
    if extra:
        if n_groups >= 3:
            middles = list(range(1, n_groups - 1))
            for idx in range(extra):
                sizes[middles[idx % len(middles)]] += 1
        else:
            sizes[0] += extra
    out, start = [], 0
    for size in sizes:
        out.append(slice(start, start + size))
        start += size
    return out


def _shift(vals: np.ndarray, n: int, spec: ShiftSpec) -> np.ndarray:
    """A copy of `vals` with its first `n` rows shifted: two slice copies,
    bit-identical to the per-unit loop `out[i, first] = vals[i - k, first]`,
    `out[i, last] = vals[i + k, last]` for i in [k, n - k), because every
    read is from `vals`."""
    out = vals.copy()
    k = spec.shift_distance
    if spec.n_groups == 1 or n == 0:
        return out
    groups = group_slices(vals.shape[1], spec.n_groups)
    first, last = groups[0], groups[-1]
    if n > 2 * k:
        out[k : n - k, first] = vals[: n - 2 * k, first]
        out[k : n - k, last] = vals[2 * k : n, last]
    return out


def alternating_shift(features: FeatureMatrix, spec: ShiftSpec) -> FeatureMatrix:
    """Swap leading/trailing channel groups with neighbors at distance k.

    Interior units take their first group from unit i-k and their last group
    from unit i+k; boundary units (fewer than k neighbors on either side) are
    copied unchanged.  One group, or k too large for any interior unit, makes
    this the identity.
    """
    return FeatureMatrix(_shift(features.values, features.valid_prefix, spec), features.valid_prefix)


def temporal_differences(features: FeatureMatrix, spec: DiffSpec) -> list[FeatureMatrix]:
    """Per scale s, the rows X_t - X_{t-s} for t in [s, valid_prefix)."""
    n = features.valid_prefix
    if n < max(spec.scales) + 1:
        raise WindowTooShort(f"valid prefix {n} too short for scales {spec.scales}")
    vals = features.values
    out = []
    for s in spec.scales:
        diff = vals[s:n, :] - vals[: n - s, :]
        out.append(FeatureMatrix(diff, n - s))
    return out


def position_weights(rows: int) -> np.ndarray:
    """Fixed temporal weights 1 + t^2/4 applied to difference rows.

    A plain (or affine-weighted) mean telescopes at scale 1: every interior
    row gets the same coefficient and the pooled value only sees the window
    endpoints.  Strictly convex weights give each position a distinct
    coefficient, keeping the aggregate sensitive to interior ordering.  The
    weights are exact dyadic floats, seedless, and identical for any prefix.
    """
    t = np.arange(rows, dtype=np.float64)
    return 1.0 + 0.25 * t * t


def aggregate_vector(
    rows: np.ndarray, shift: ShiftSpec, diff: DiffSpec
) -> np.ndarray:
    """Pooled unimodal feature vector of all `rows`, with a fixed output width.

    Concatenates the global mean of the shifted rows with, per difference
    scale, the position-weighted mean of the linearly encoded difference
    rows.  Differences are taken on the pre-shift rows.  Output length is
    C + sum of encoder widths for every row count: the channel grouping
    shrinks to fit narrow matrices, and a scale that does not fit the rows
    contributes a zero block, so gate and fusion inputs keep one shape for
    every prefix length.
    """
    p, c = rows.shape
    if shift.n_groups > c:
        shift = ShiftSpec(c, shift.shift_distance)
    shifted = _shift(np.asarray(rows, dtype=np.float64), p, shift)
    parts = [shifted.mean(axis=0)]
    enc = diff.encoder_matrix(c)
    for s in diff.scales:
        if s < p:
            d = nn.dot(rows[s:p, :] - rows[: p - s, :], enc)
            w = position_weights(p - s)
            parts.append((w[:, None] * d).mean(axis=0))
        else:
            parts.append(np.zeros(diff.width(c)))
    return np.concatenate(parts)


def aggregate(
    features: FeatureMatrix,
    shift: ShiftSpec,
    diff: DiffSpec,
) -> np.ndarray:
    """`aggregate_vector` of the valid prefix, strict about its input.

    Raises GroupExceedsChannels when the shift needs more channel groups than
    there are channels, and WindowTooShort when the prefix is too short for
    the largest difference scale, where `aggregate_vector` would adapt.
    """
    n = features.valid_prefix
    if n and shift.n_groups > 1:
        group_slices(features.channels, shift.n_groups)  # raises GroupExceedsChannels
    if n < max(diff.scales) + 1:
        raise WindowTooShort(f"valid prefix {n} too short for scales {diff.scales}")
    return aggregate_vector(features.values[:n], shift, diff)


def aggregate_output_dim(channels: int, diff: DiffSpec) -> int:
    return channels + len(diff.scales) * diff.width(channels)
