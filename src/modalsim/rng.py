"""Counter-based pseudo-random streams with explicit label splitting.

Every random quantity in this package is drawn from a `Stream` keyed by a
64-bit seed plus a tuple of labels (strings and integers).  Values are pure
functions of (seed, labels, index), so any payload, weight matrix, or
scenario can be regenerated bit-identically on any platform without storing
generator state.

The core primitive is SplitMix64 (Steele, Lea, Flood 2014): a 64-bit
finalizer applied to a counter advanced by the golden-ratio increment.
Only 64-bit integer arithmetic and IEEE-754 multiplies/adds are used, so
outputs are reproducible across interpreters and architectures.  Bulk draws
(`Stream.units` and everything built on it) run the same SplitMix64 over a
numpy uint64 counter vector and are byte-identical to the scalar `unit`;
`concat_units` runs the counters of several streams through one such pass.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15

_GOLDEN_U64 = np.uint64(GOLDEN)
_MUL1_U64 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2_U64 = np.uint64(0x94D049BB133111EB)


def splitmix64(x: int) -> int:
    """One SplitMix64 finalizer step on a 64-bit value."""
    x = (x + GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def _mix(key: int, value: int) -> int:
    return splitmix64((key ^ splitmix64(value & MASK64)) & MASK64)


def _fold_label(key: int, label) -> int:
    if isinstance(label, bool):  # bool is an int subclass; keep it distinct
        return _mix(_mix(key, 0x42), int(label))
    if isinstance(label, int):
        return _mix(key, label)
    if isinstance(label, str):
        data = label.encode("utf-8")
        key = _mix(key, len(data))
        for off in range(0, len(data), 8):
            chunk = int.from_bytes(data[off : off + 8], "little")
            key = _mix(key, chunk)
        return key
    raise TypeError(f"stream labels must be int or str, got {type(label)!r}")


class Stream:
    """An indexable random stream: value(i) depends only on (key, i)."""

    __slots__ = ("key",)

    def __init__(self, key: int):
        self.key = key & MASK64

    def u64(self, index: int) -> int:
        return splitmix64((self.key + (index + 1) * GOLDEN) & MASK64)

    def unit(self, index: int) -> float:
        """Uniform float64 in [0, 1) with 53 bits of entropy."""
        return (self.u64(index) >> 11) * 2.0**-53

    def units(self, count: int, offset: int = 0) -> np.ndarray:
        """unit(offset), ..., unit(offset + count - 1) as one float64 vector."""
        start = np.uint64((self.key + (offset + 1) * GOLDEN) & MASK64)
        return _finalized_units(start + np.arange(count, dtype=np.uint64) * _GOLDEN_U64 + _GOLDEN_U64)

    def symmetric(self, count: int) -> np.ndarray:
        """Uniform float64 in [-1, 1)."""
        return self.units(count) * 2.0 - 1.0

    def sub(self, *labels) -> "Stream":
        return Stream(_fold_labels(self.key, labels))


def concat_units(streams: Sequence[Stream], counts: Sequence[int]) -> np.ndarray:
    """streams[0].units(counts[0]), streams[1].units(counts[1]), ... as one
    vector, from one SplitMix64 pass over all their counters.  The counters
    are integers, so each stream's values have the bits of drawing it alone."""
    # value i of a stream whose values start at position p of the vector
    # finalizes key + (i + 2) * GOLDEN = (key + (2 - p) * GOLDEN) + position * GOLDEN
    starts = [0, *itertools.accumulate(counts)]
    firsts = np.array([(s.key + (2 - p) * GOLDEN) & MASK64 for s, p in zip(streams, starts)], dtype=np.uint64)
    return _finalized_units(np.repeat(firsts, counts) + np.arange(starts[-1], dtype=np.uint64) * _GOLDEN_U64)


def _finalized_units(x: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer on uint64 counters already advanced by GOLDEN,
    as floats in [0, 1).  uint64 array multiplies wrap mod 2**64; numpy
    flags no array overflow."""
    x = (x ^ (x >> np.uint64(30))) * _MUL1_U64
    x = (x ^ (x >> np.uint64(27))) * _MUL2_U64
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _fold_labels(key: int, labels) -> int:
    for label in labels:
        key = _fold_label(key, label)
    return key


def stream(seed: int, *labels) -> Stream:
    """Derive the stream for (seed, *labels)."""
    return Stream(_fold_labels(splitmix64(seed & MASK64), labels))
