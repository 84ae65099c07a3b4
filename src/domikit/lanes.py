"""Lanes: one value per state of a box of a product space, in one int.

They are the tabulated form of a structure function.  Over the whole
space they feed the level tables, the monotonicity check and
reliability by enumeration; over the box of top corners (each x_i at
m_i - 1 or m_i) they feed pivotal decomposition, 2^9 corners at a time
(see systems._phi_lanes and domination.pivotal_domination).  Over the
grid of a generator family's values they hold the order kernels of
poset: generator counts, their up-sets and Mobius tables.  One OR
sweep, Lanes.closed, closes the up-sets of the path_vectors tabulator:
level k is k Up(F_k), phi the sum over k.
"""

from __future__ import annotations

from operator import sub
from typing import Iterable, Sequence


class Lanes:
    """Values 0..bound, one per state x of a box lo <= x <= hi of a product
    space, packed in one int.

    The state x owns lane j, the rank of x - lo in lexicographic order,
    and lane j is the j-th run of `width` bytes, little-endian.  The whole
    space 0..m is the box lo = 0, hi = m.  The width leaves each lane's
    top bit out of every value up to `bound`, so a lane-wise add or
    compare never carries into the next lane and runs on the whole int at
    once (SWAR: Lamport, CACM 1975; Knuth, TAOCP 4A, 7.1.3).  The caller's
    bound covers every value a lane takes and every level it is compared
    with, the partial sums of `weighted` included; the coordinates x_i
    themselves need not fit.
    """

    def __init__(self, lo: Sequence[int], hi: Sequence[int], bound: int):
        # lists: a tuple built from an iterator of no known length is resized,
        # which moves it to another size's free list, so boxes made one after
        # another would pile up free tuples
        self.lo = list(lo)
        # x_i - lo_i runs over 0..extents[i]
        self.extents = list(map(sub, hi, lo))
        self.width = bound.bit_length() // 8 + 1
        self.bits = 8 * self.width
        # lanes between two states one step apart along axis i
        strides, size = [], 1
        for e in reversed(self.extents):
            strides.append(size)
            size *= e + 1
        self.strides = strides[::-1]
        self.size = size
        self.ones = self._spread(1, 1, self.size)
        self.top = self.ones << (self.bits - 1)

    def _spread(self, lanes: int, length: int, count: int) -> int:
        """The first `length` lanes of `lanes`, repeated `count` times."""
        return int.from_bytes(lanes.to_bytes(length * self.width, "little") * count, "little")

    def pack(self, values: Iterable[int]) -> int:
        """Values listed in lexicographic state order."""
        return int.from_bytes(b"".join(v.to_bytes(self.width, "little") for v in values), "little")

    def cut(self, space: Lanes, lanes: bytes) -> int:
        """The lanes of this box out of `lanes`, the bytes of the lanes of
        `space`, the whole space at this width.

        The box spans every axis after axis t - 1 in full, so for each
        state of the axes before t - 1 it is one run of contiguous lanes.
        """
        t = len(space.extents)
        while t and not self.lo[t - 1] and self.extents[t - 1] == space.extents[t - 1]:
            t -= 1
        starts = [0]
        for i in range(t - 1):
            starts = [j + x * space.strides[i] for j in starts
                      for x in range(self.lo[i], self.lo[i] + self.extents[i] + 1)]
        first, last = 0, space.size
        if t:
            first = self.lo[t - 1] * space.strides[t - 1]
            last = first + (self.extents[t - 1] + 1) * space.strides[t - 1]
        w = self.width
        return int.from_bytes(b"".join(lanes[w * (j + first) : w * (j + last)] for j in starts),
                              "little")

    def weighted(self, weights: Sequence[int]) -> int:
        """sum_i weights[i] * x_i in every lane.

        Coordinate i is lo_i plus a periodic part: a run of stride_i lanes
        at each of 0..extents[i], repeated.  The periodic sum is built
        from the last axis up; the part summed so far has the period of
        the last axis added, and is spread to the next axis' period before
        that axis is added, so no full-size coordinate is ever held.
        sum_i weights[i] * lo_i is added to every lane last.
        """
        lanes, length, base = 0, 1, 0
        for a, e, c, stride in reversed(list(zip(self.lo, self.extents, weights, self.strides))):
            base += c * a
            if c and e:
                period = stride * (e + 1)
                run = b"".join((c * r).to_bytes(self.width, "little") * stride
                               for r in range(e + 1))
                lanes = self._spread(lanes, length, period // length)
                lanes += int.from_bytes(run, "little")
                length = period
        lanes = self._spread(lanes, length, self.size // length)
        return lanes + base * self.ones if base else lanes

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
        """Every bit of the lanes where x_i > lo_i: periodic, stride_i lanes
        of zeros and then stride_i * extents[i] lanes of ones."""
        stride, e = self.strides[i], self.extents[i]
        run = bytes(stride * self.width) + b"\xff" * (stride * e * self.width)
        return int.from_bytes(run * (self.size // (stride * (e + 1))), "little")

    def up(self, lanes: int, i: int, positive: int) -> int:
        """Lane x holds lanes(x - e_i) where x_i > lo_i, and 0 where x_i =
        lo_i; `positive` is self.positive(i)."""
        return (lanes << (self.bits * self.strides[i])) & positive

    def marks(self, index: Iterable[int]) -> int:
        """1 in the lanes of `index`, 0 elsewhere."""
        marks = bytearray(self.size * self.width)
        for j in index:
            marks[j * self.width] = 1
        return int.from_bytes(marks, "little")

    def upset(self, vectors: Iterable[Sequence[int]]) -> int:
        """1 in lane x where some vector lies below x, else 0.  A vector
        below some x of the box lies below hi, and is below x exactly when
        max(0, v - lo) is below x - lo: that lane is marked, then closed."""
        index = []
        for v in vectors:
            j = 0
            for a, low, e, s in zip(v, self.lo, self.extents, self.strides):
                if a > low:
                    if a - low > e:
                        break  # above hi
                    j += (a - low) * s
            else:
                index.append(j)
        return self.closed(self.marks(index))

    def closed(self, marks: int) -> int:
        """Lanes of 0 or 1 closed upwards: lane x is the OR of marks(y)
        over y <= x, by e_i one-step sweeps along each axis i."""
        for i, e in enumerate(self.extents):
            if e:
                positive = self.positive(i)
                for _ in range(e):
                    marks |= self.up(marks, i, positive)
        return marks

    def table(self, lanes: int, k: int) -> bytes:
        """[lane >= k], one byte 0 or 1 per state in lexicographic order."""
        tops = self.at_least(lanes, k * self.ones) >> (self.bits - 1)
        return tops.to_bytes(self.size * self.width, "little")[:: self.width]
