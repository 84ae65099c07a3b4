"""Join-generated sublattices of integer state spaces.

State vectors are tuples of non-negative ints ordered componentwise.  A
family of pairwise incomparable vectors (the generators) spans a finite
join-semilattice: the closure of the family under componentwise max.
The signed domination function lives on that closure, and this module
computes it two independent ways:

* by counting formations, i.e. subsets of generators whose join hits a
  given element, split by parity, and
* by Mobius inversion of the constant-1 function on the closure.

Both produce the same table.  The first walks all 2^s subsets of the s
generators, the second is quadratic in the closure size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from operator import le
from typing import Iterable, Iterator, Sequence

from .errors import ComplexityGuardError, DimensionError, InvalidGeneratorError

Vector = tuple[int, ...]

#: Domination tables map state vectors to integers; vectors absent from a
#: table are understood to carry the value 0.
DominationTable = dict[Vector, int]


class Relation(enum.Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


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


def compare(x: Vector, y: Vector) -> Relation:
    """Order x against y: less, greater, equal or incomparable."""
    _check_dims(x, y)
    below = above = False
    for a, b in zip(x, y):
        if a < b:
            below = True
        elif a > b:
            above = True
    if below and above:
        return Relation.INCOMPARABLE
    if below:
        return Relation.LESS
    if above:
        return Relation.GREATER
    return Relation.EQUAL


def validate_generators(vectors: Iterable[Vector]) -> tuple[Vector, ...]:
    """Normalise a generator family: sorted, same length, pairwise incomparable.

    Raises InvalidGeneratorError on an empty family or a comparable pair
    (duplicates included), DimensionError on ragged input.
    """
    gens = tuple(sorted(tuple(v) for v in vectors))
    if not gens:
        raise InvalidGeneratorError("generator family is empty")
    n = len(gens[0])
    for g in gens:
        if len(g) != n:
            raise DimensionError(f"vectors of length {n} and {len(g)}")
        if any(s < 0 for s in g):
            raise InvalidGeneratorError(f"negative state in generator {g}")
    # a precedes b lexicographically, so b <= a componentwise only if a == b
    for a, b in combinations(gens, 2):
        if all(p <= q for p, q in zip(a, b)):
            raise InvalidGeneratorError(f"comparable generators {a} and {b}")
    return gens


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

    def __contains__(self, x: object) -> bool:
        return x in set(self.elements)

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
    so s generators take at most s * |closure| joins."""
    gens = validate_generators(generators)
    elements: set[Vector] = set()
    for g in gens:
        elements |= {tuple(map(max, g, c)) for c in elements}
        elements.add(g)
    return JoinClosure(generators=gens, elements=tuple(sorted(elements)))


def formations(target: Vector, generators: Iterable[Vector]) -> list[tuple[Vector, ...]]:
    """All subsets of the generators whose join equals `target`.

    Returned sorted by size, then lexicographically; each formation is a
    sorted tuple of generators.  Empty when target is not in the closure.
    """
    # only generators below the target can take part in a formation
    candidates = [g for g in validate_generators(generators) if leq(g, target)]
    found = [
        tuple(g for i, g in enumerate(candidates) if mask >> i & 1)
        for mask, v in _subset_joins(candidates)
        if v == target
    ]
    return sorted(found, key=lambda f: (len(f), f))


def _subset_joins(gens: Sequence[Vector]) -> Iterator[tuple[int, Vector]]:
    """Every non-empty subset of gens, as a bitmask, with its join.

    Depth first, each join taken from the subset's parent, so memory
    stays quadratic in len(gens) while the walk covers all 2^s subsets.
    """
    stack = [(1 << i, i, g) for i, g in enumerate(gens)]
    while stack:
        mask, last, v = stack.pop()
        yield mask, v
        for j in range(last + 1, len(gens)):
            stack.append((mask | 1 << j, j, tuple(map(max, v, gens[j]))))


def domination_by_formations(generators: Iterable[Vector], *, guard: int = 20) -> DominationTable:
    """Signed domination of a generator family by direct formation counting.

    Walks all 2^s - 1 non-empty subsets of the s generators and
    accumulates (-1)^(|S|+1) at each subset's join.  The result maps every
    closure element to (# odd formations) - (# even formations); elements
    whose counts cancel stay in the table with value 0, vectors outside
    the closure are absent.

    Exponential in s; families larger than `guard` are refused (use the
    closure Mobius table, the pivotal decomposition or a closed form
    instead).
    """
    gens = validate_generators(generators)
    s = len(gens)
    if s > guard:
        raise ComplexityGuardError(
            f"{s} generators exceed the formation guard ({guard}); "
            "domination_by_closure_mobius, pivotal_domination or a "
            "closed-form engine handles larger families"
        )
    table: DominationTable = {}
    for mask, v in _subset_joins(gens):
        table[v] = table.get(v, 0) + (1 if mask.bit_count() & 1 else -1)
    return dict(sorted(table.items()))


def domination_by_closure_mobius(closure: JoinClosure) -> DominationTable:
    """Signed domination as the Mobius inverse of the constant 1 on the closure.

    The deltas at or below each element sum to 1 and lex order is a linear
    extension, so forward substitution gives delta(y) = 1 - sum of delta(x)
    over x < y.  Quadratic in the closure size; agrees with
    domination_by_formations on every family.
    """
    table: DominationTable = {}
    for y in closure.elements:
        below = (d for x, d in table.items() if d and all(map(le, x, y)))
        table[y] = 1 - sum(below)
    return table
