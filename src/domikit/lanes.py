"""Lanes: one value per state of a product space, in one int.

They are the full-lattice form of a structure function: the level
tables, the monotonicity check and reliability by enumeration read phi
in this form (see systems._phi_lanes).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence


class Lanes:
    """Values 0..bound, one per state of a product space, packed in one int.

    The j-th state in lexicographic order owns the j-th lane of `width`
    bytes, little-endian.  The width leaves each lane's top bit out of
    every value up to `bound`, so a lane-wise add or compare never
    carries into the next lane and runs on the whole int at once (SWAR:
    Lamport, CACM 1975; Knuth, TAOCP 4A, 7.1.3).  The caller's bound
    covers every value a lane takes and every level it is compared
    with, the partial sums of `weighted` included; the coordinates
    x_i themselves need not fit.
    """

    def __init__(self, max_states: tuple[int, ...], bound: int):
        self.max_states = max_states
        self.size = math.prod(m + 1 for m in max_states)
        self.width = bound.bit_length() // 8 + 1
        self.bits = 8 * self.width
        # lanes between two states one step apart along axis i
        self.strides = tuple(math.prod(m + 1 for m in max_states[i + 1:])
                             for i in range(len(max_states)))
        self.ones = self._spread(1, 1, self.size)
        self.top = self.ones << (self.bits - 1)

    def _spread(self, lanes: int, length: int, count: int) -> int:
        """The first `length` lanes of `lanes`, repeated `count` times."""
        return int.from_bytes(lanes.to_bytes(length * self.width, "little") * count, "little")

    def pack(self, values: Iterable[int]) -> int:
        """Values listed in lexicographic state order."""
        return int.from_bytes(b"".join(v.to_bytes(self.width, "little") for v in values), "little")

    def weighted(self, weights: Sequence[int]) -> int:
        """sum_i weights[i] * x_i in every lane.

        Coordinate i is periodic: a run of stride_i lanes at each of its
        states 0..m_i, repeated.  The sum is built from the last axis up;
        the part summed so far has the period of the last axis added, and
        is spread to the next axis' period before that axis is added, so
        no full-size coordinate is ever held.
        """
        lanes, length = 0, 1
        for m, c, stride in reversed(tuple(zip(self.max_states, weights, self.strides))):
            if c:
                period = stride * (m + 1)
                run = b"".join((c * r).to_bytes(self.width, "little") * stride
                               for r in range(m + 1))
                lanes = self._spread(lanes, length, period // length)
                lanes += int.from_bytes(run, "little")
                length = period
        return self._spread(lanes, length, self.size // length)

    def at_least(self, a: int, b: int) -> int:
        """Top bits of the lanes where a >= b."""
        return ((a | self.top) - b) & self.top

    def _whole(self, tops: int) -> int:
        """Every bit of the lanes whose top bit is set in `tops`."""
        return tops | (tops - (tops >> (self.bits - 1)))

    def minimum(self, a: int, b: int) -> int:
        """Lane-wise min(a, b)."""
        return b ^ ((a ^ b) & self._whole(self.at_least(b, a)))

    def positive(self, i: int) -> int:
        """Every bit of the lanes where x_i > 0: periodic, stride_i lanes
        of zeros and then stride_i * m_i lanes of ones."""
        stride, m = self.strides[i], self.max_states[i]
        run = bytes(stride * self.width) + b"\xff" * (stride * m * self.width)
        return int.from_bytes(run * (self.size // (stride * (m + 1))), "little")

    def up(self, lanes: int, i: int, positive: int) -> int:
        """Lane x holds lanes(x - e_i) where x_i > 0, and 0 where x_i = 0;
        `positive` is self.positive(i)."""
        return (lanes << (self.bits * self.strides[i])) & positive

    def highest_below(self, families: Mapping[int, Iterable[tuple[int, ...]]]) -> int:
        """Lane x holds the highest k with a vector of families[k] below x,
        or 0.  Each vector's lane is set to its k, then closed upwards by
        a lane-wise max along each axis."""
        levels = bytearray(self.size * self.width)
        for k in sorted(families):  # ascending, so a vector in two families keeps the higher k
            for v in families[k]:
                j = self.width * sum(a * s for a, s in zip(v, self.strides))
                levels[j : j + self.width] = k.to_bytes(self.width, "little")
        closed = int.from_bytes(levels, "little")
        for i, m in enumerate(self.max_states):
            positive = self.positive(i)
            for _ in range(m):
                below = self.up(closed, i, positive)
                closed += below - self.minimum(closed, below)  # the lane-wise max
        return closed

    def table(self, lanes: int, k: int) -> bytes:
        """[lane >= k], one byte 0 or 1 per state in lexicographic order."""
        tops = self.at_least(lanes, k * self.ones) >> (self.bits - 1)
        return tops.to_bytes(self.size * self.width, "little")[:: self.width]
