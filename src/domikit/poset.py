"""Join-generated sublattices of integer state spaces.

State vectors are tuples of non-negative ints ordered componentwise.  A
family of pairwise incomparable vectors (the generators) spans a finite
join-semilattice: the closure of the family under componentwise max.
The signed domination function lives on that closure, and this module
computes it two independent ways:

* by counting formations, i.e. subsets of generators whose join hits a
  given element, split by parity, and
* by Mobius inversion of the constant-1 function on the closure.

Both produce the same table.  The first counts all 2^s subsets of the s
generators, 2^9 of them per C-level histogram update, the second is
quadratic in the closure size.

The order loops run on a thermometer code (_Packing): each vector is one
int in which coordinate i owns w_i bits and state v sets the low v of
them, so a join is one `|` and x <= y is `x | y == y`.  Vectors are
encoded on entry and decoded once on the way out.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import add
from typing import Iterable, Iterator, Sequence

from .errors import ComplexityGuardError, DimensionError, InvalidGeneratorError

Vector = tuple[int, ...]

#: Domination tables map state vectors to integers; vectors absent from a
#: table are understood to carry the value 0.
DominationTable = dict[Vector, int]


def _check_dims(x: Vector, y: Vector) -> None:
    if len(x) != len(y):
        raise DimensionError(f"vectors of length {len(x)} and {len(y)}")


def join(x: Vector, y: Vector) -> Vector:
    """Componentwise maximum of two state vectors."""
    _check_dims(x, y)
    return tuple(map(max, x, y))


def leq(x: Vector, y: Vector) -> bool:
    """True iff x <= y componentwise."""
    _check_dims(x, y)
    return all(a <= b for a, b in zip(x, y))


class _Packing:
    """Thermometer code of the state vectors of one family.

    Coordinate i owns widths[i] bits and state v sets the low v of them,
    embedding the product of chains [0..w_i] in the Boolean lattice on
    sum(w_i) atoms with joins and order kept (Birkhoff's representation).
    Coordinate 0 owns the most significant field, so codes sort as their
    vectors sort lexicographically.  A negative state raises and one above
    its width spills into the next field: callers check both first.  A
    code wider than 10^7 bits is refused before any field is built.
    """

    def __init__(self, widths: Sequence[int]):
        shifts, total = [], 0
        for w in reversed(widths):
            shifts.append(total)
            total += w
        if total > 10**7:
            raise ComplexityGuardError(f"thermometer code of {total} bits exceeds guard ({10**7})")
        self.shifts = shifts[::-1]
        self.fields = [((1 << w) - 1) << s for w, s in zip(widths, self.shifts)]
        self.base = sum(1 << s for s in self.shifts)

    @classmethod
    def of(cls, vectors: Sequence[Vector]) -> "_Packing":
        """Widths of a non-empty family of equal-length non-negative vectors:
        the largest state of each coordinate (0 where it is always 0).  By
        columns, as map(max, *vectors) fails on a one-vector family."""
        return cls([max(column) for column in zip(*vectors)])

    def code(self, v: Vector) -> int:
        # field i holds 2^(v_i + shift_i) - 2^shift_i, its low v_i bits
        return sum(map((1).__lshift__, map(add, v, self.shifts))) - self.base

    def codes(self, vectors: Iterable[Vector]) -> list[int]:
        return list(map(self.code, vectors))

    def vector(self, code: int) -> Vector:
        """Decode: the state of each coordinate is its field's popcount."""
        return tuple(map(int.bit_count, map(code.__and__, self.fields)))


def validate_generators(vectors: Iterable[Vector]) -> tuple[Vector, ...]:
    """Normalise a generator family: sorted, same length, pairwise incomparable.

    Raises InvalidGeneratorError on an empty family or a comparable pair
    (duplicates included), DimensionError on ragged input.
    """
    return _validated(vectors)[0]


def _validated(vectors: Iterable[Vector]) -> tuple[tuple[Vector, ...], _Packing, list[int]]:
    """validate_generators, with the family's packing and codes in its order."""
    gens = tuple(sorted(tuple(v) for v in vectors))
    if not gens:
        raise InvalidGeneratorError("generator family is empty")
    n = len(gens[0])
    # ragged and negative vectors are refused here, before anything is encoded
    for g in gens:
        if len(g) != n:
            raise DimensionError(f"vectors of length {n} and {len(g)}")
        if any(s < 0 for s in g):
            raise InvalidGeneratorError(f"negative state in generator {g}")
    packing = _Packing.of(gens)
    codes = packing.codes(gens)
    # a precedes b lexicographically, so b <= a componentwise only if a == b;
    # pairs are tried in combinations order, so the first comparable one is named
    for i, a in enumerate(codes):
        for j, b in enumerate(codes[i + 1 :], i + 1):
            if a | b == b:
                raise InvalidGeneratorError(f"comparable generators {gens[i]} and {gens[j]}")
    return gens, packing, codes


@dataclass(frozen=True)
class JoinClosure:
    """The closure of a generator family under componentwise max.

    `elements` is lexicographically sorted, which is a linear extension of
    the componentwise order: every element appears after everything below
    it.  domination_by_closure_mobius relies on that.
    """

    generators: tuple[Vector, ...]
    elements: tuple[Vector, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Vector]:
        return iter(self.elements)

    @property
    def top(self) -> Vector:
        """Join of all generators, the largest element of the closure."""
        top = self.generators[0]
        for g in self.generators[1:]:
            top = join(top, g)
        return top


def join_closure(generators: Iterable[Vector]) -> JoinClosure:
    """Close a generator family under joins one generator at a time: each
    generator adds itself and its join with every element closed so far,
    so s generators take at most s * |closure| joins.  The joins are `|`
    on thermometer codes; the codes sort in lex order and are decoded once."""
    gens, packing, codes = _validated(generators)
    elements: set[int] = set()
    for g in codes:
        elements |= set(map(g.__or__, elements))
        elements.add(g)
    return JoinClosure(generators=gens, elements=tuple(map(packing.vector, sorted(elements))))


def formations(target: Vector, generators: Iterable[Vector]) -> list[tuple[Vector, ...]]:
    """All subsets of the generators whose join equals `target`.

    Returned sorted by size, then lexicographically; each formation is a
    sorted tuple of generators.  Empty when target is not in the closure.
    """
    # only generators below the target can take part in a formation
    candidates = [g for g in validate_generators(generators) if leq(g, target)]
    if not candidates:
        return []  # this also keeps a target with a negative state from the encoder
    # every candidate lies below the target, so the target's states are wide enough
    packing = _Packing(target)
    goal = packing.code(target)
    found = [
        tuple(g for i, g in enumerate(candidates) if mask >> i & 1)
        for mask, v in _subset_joins(packing.codes(candidates))
        if v == goal
    ]
    return sorted(found, key=lambda f: (len(f), f))


def _subset_joins(gens: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Every non-empty subset of the coded gens, as a bitmask, with its join.

    Depth first, each join one `|` on its parent's, so memory stays
    quadratic in len(gens) while the walk covers all 2^s subsets.
    """
    stack = [(1 << i, i, g) for i, g in enumerate(gens)]
    while stack:
        mask, last, v = stack.pop()
        yield mask, v
        for j in range(last + 1, len(gens)):
            stack.append((mask | 1 << j, j, v | gens[j]))


def domination_by_formations(generators: Iterable[Vector], *, guard: int = 20) -> DominationTable:
    """Signed domination of a generator family by direct formation counting.

    Counts all 2^s - 1 non-empty subsets of the s generators and
    accumulates (-1)^(|S|+1) at each subset's join.  The result maps every
    closure element to (# odd formations) - (# even formations); elements
    whose counts cancel stay in the table with value 0, vectors outside
    the closure are absent.

    The joins of the subsets of the first min(s, 9) generators are built
    once, by doubling, split by parity.  Each subset H of the other
    generators, walked depth first and the empty one included, then joins
    its join h to all of them at once, Counter.update(map(h.__or__, ...))
    into the histogram of the parity of the whole subset: one Python step
    per 2^9 subsets.

    Exponential in s; families larger than `guard` are refused (use the
    closure Mobius table, the pivotal decomposition or a closed form
    instead).
    """
    gens, packing, codes = _validated(generators)
    s = len(gens)
    if s > guard:
        raise ComplexityGuardError(
            f"{s} generators exceed the formation guard ({guard}); "
            "domination_by_closure_mobius, pivotal_domination or a "
            "closed-form engine handles larger families"
        )
    # the joins of the even and of the odd subsets of the first 9 generators
    first_even, first_odd = [0], []
    for g in codes[:9]:
        first_even, first_odd = (first_even + [g | j for j in first_odd],
                                 first_odd + [g | j for j in first_even])
    even, odd = Counter(), Counter()  # histograms of the joins, by subset parity
    for mask, h in chain([(0, 0)], _subset_joins(codes[9:])):
        same, other = (odd, even) if mask.bit_count() & 1 else (even, odd)
        same.update(map(h.__or__, first_even))
        other.update(map(h.__or__, first_odd))
    even[0] -= 1  # the empty subset, whose join is 0, is no formation
    if not even[0]:
        del even[0]
    odd.subtract(even)  # zero entries stay, and joins of even subsets alone enter
    even.clear()  # before the table is decoded, so one histogram is alive then
    return {packing.vector(v): odd[v] for v in sorted(odd)}


def domination_by_closure_mobius(closure: JoinClosure) -> DominationTable:
    """Signed domination as the Mobius inverse of the constant 1 on the closure.

    The deltas at or below each element sum to 1 and lex order is a linear
    extension, so forward substitution gives delta(y) = 1 - sum of delta(x)
    over x < y, where only the non-zero (code, delta) pairs so far are
    tried, by `x | y == y` on thermometer codes.  Quadratic in the closure
    size; agrees with domination_by_formations on every family.
    """
    packing = _Packing.of(closure.elements)
    table: DominationTable = {}
    nonzero: list[tuple[int, int]] = []
    for y, c in zip(closure.elements, packing.codes(closure.elements)):
        d = table[y] = 1 - sum([dx for x, dx in nonzero if x | c == c])
        if d:
            nonzero.append((c, d))
    return table
