"""Join-generated sublattices of integer state spaces.

State vectors are tuples of non-negative ints ordered componentwise.  A
family of pairwise incomparable vectors (the generators) spans a finite
join-semilattice: the closure of the family under componentwise max.
The signed domination function lives on that closure, and this module
computes it two independent ways:

* by counting formations, i.e. subsets of generators whose join hits a
  given element, split by parity, and
* by Mobius inversion of the constant-1 function on the closure.

Both produce the same table; the second is usually much faster because
it never enumerates subsets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
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
    it.  The Mobius recursion relies on that.
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
    """Close a generator family under pairwise joins (fixed point)."""
    gens = validate_generators(generators)
    elements = set(gens)
    frontier = set(gens)
    while frontier:
        fresh = set()
        for a in frontier:
            for b in elements:
                v = tuple(map(max, a, b))
                if v not in elements:
                    fresh.add(v)
        elements |= fresh
        frontier = fresh
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


def _order_bitsets(elements: tuple[Vector, ...]) -> tuple[list[int], list[int]]:
    """For each index j, bitsets of indices below and above elements[j]."""
    n = len(elements)
    down = [0] * n
    up = [0] * n
    for i in range(n):
        ei = elements[i]
        for j in range(i, n):
            # lex order extends the componentwise order, so i <= j suffices
            if all(a <= b for a, b in zip(ei, elements[j])):
                down[j] |= 1 << i
                up[i] |= 1 << j
    return down, up


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mobius_rows(elements: tuple[Vector, ...]) -> Iterator[tuple[int, dict[int, int]]]:
    """For each index i, the row j -> mu(elements[i], elements[j]), j >= i."""
    down, up = _order_bitsets(elements)
    for i in range(len(elements)):
        row: dict[int, int] = {}
        for j in _iter_bits(up[i]):
            if j == i:
                row[j] = 1
            else:
                interval = up[i] & down[j] & ~(1 << j)
                row[j] = -sum(row[u] for u in _iter_bits(interval))
        yield i, row


def mobius_on_closure(closure: JoinClosure) -> dict[tuple[Vector, Vector], int]:
    """Mobius function of the closure, as a map on ordered pairs x <= y.

    mu(x, x) = 1 and mu(x, y) = -sum of mu(x, u) over x <= u < y, both
    ranging inside the closure.  Pairs not in the order relation carry no
    entry.
    """
    elements = closure.elements
    return {
        (elements[i], elements[j]): value
        for i, row in _mobius_rows(elements)
        for j, value in row.items()
    }


def domination_by_closure_mobius(closure: JoinClosure) -> DominationTable:
    """Signed domination as the Mobius inverse of the constant 1 on the closure.

    delta(y) = sum of mu(x, y) over closure elements x <= y.  Agrees with
    domination_by_formations on every family, but runs in time polynomial
    in the closure size.
    """
    elements = closure.elements
    delta = [0] * len(elements)
    for _, row in _mobius_rows(elements):
        for j, value in row.items():
            delta[j] += value
    return {elements[j]: delta[j] for j in range(len(elements))}
