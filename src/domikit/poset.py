"""Join-generated sublattices of integer state spaces.

State vectors are tuples of non-negative ints ordered componentwise.  A
family of pairwise incomparable vectors (the generators) spans a finite
join-semilattice: the closure of the family under componentwise max.
The signed domination function lives on that closure, and this module
computes it two independent ways:

* by counting formations, i.e. subsets of generators whose join hits a
  given element, split by parity, and
* by Mobius inversion of the constant-1 function on the closure.

Both produce the same table.  The first takes the generators one at a
time with a signed count per join of the subsets so far: s * |closure|
joins, |closure| <= 2^s - 1, which its guard of 20 generators bounds.

The order kernels run on the generators' grid: the product of the chains
of values V_i that coordinate i takes in the family, in rank coordinates
and lexicographic cell order, one cell per lane of a lanes.Lanes (lo = 0,
hi = |V_i| - 1).  Every join of generators lies on the grid, and a sweep
along an axis is a whole-int shift, so

* c, the count of the generators at or below each cell, is their marks
  summed along each axis (the zeta transform, prefix sums);
* the family is an antichain iff no two cells coincide and c is 1 at
  every generator cell, and its up-set is the cells where c >= 1;
* y is in the closure iff c(y) > c(y - e_i) along every axis where y's
  rank is positive;
* the Mobius table is the n-fold backward difference of the up-set
  indicator (the Mobius transform of a product of chains: Yates 1937;
  Bjorklund, Husfeldt, Kaski and Koivisto, STOC 2007), read at the
  closure's cells.

The grid can be far larger than the work it saves (30 binary coordinates
and 3 generators span 2^30 cells and at most 7 joins), so each function
sizes the grid from the V_i before building any cell and runs its
pairwise loop where the grid does not pay (_grid_steps).  The loops run on a
thermometer code (_Packing): each vector is one int in which coordinate
i owns w_i bits and state v sets the low v of them, so a join is one `|`
and x <= y is `x | y == y`.  A check that fails is always reported by
its loop, which names the first offending pair.
"""

from __future__ import annotations

import math
from itertools import chain, compress, islice, product, repeat
from operator import add, itemgetter, lshift, sub
from typing import Iterable, Iterator, Sequence

from .errors import ComplexityGuardError, DimensionError, InvalidGeneratorError
from .lanes import Lanes

Vector = tuple[int, ...]

#: Domination tables map state vectors to integers; vectors absent from a
#: table are understood to carry the value 0.
DominationTable = dict[Vector, int]


class _Packing:
    """Thermometer code of the state vectors of one family.

    Coordinate i owns widths[i] bits and state v sets the low v of them,
    embedding the product of chains [0..w_i] in the Boolean lattice on
    sum(w_i) atoms with joins and order kept (Birkhoff's representation).
    Coordinate 0 owns the most significant field, so codes sort as their
    vectors sort lexicographically.  A negative state raises and one above
    its width spills into the next field: callers check both first.  A
    code wider than 10^7 bits is refused before any field is built.

    The pairwise loops here encode a family when they run, and a
    path_vectors system a level on the first dominance test that reads
    it, its codes side by side in one int (see systems.path_vector_system).
    """

    guard = 10**7

    def __init__(self, widths: Sequence[int]):
        shifts, total = [], 0
        for w in reversed(widths):
            shifts.append(total)
            total += w
        if total > self.guard:
            raise ComplexityGuardError(f"thermometer code of {total} bits exceeds guard ({self.guard})")
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

    def codes(self, vectors: Sequence[Vector]) -> list[int]:
        """The codes of a family, by columns: one pass per coordinate adds
        2^(v_i + shift_i) to every code."""
        codes = [-self.base] * len(vectors)
        for i, s in enumerate(self.shifts):
            codes = list(map(add, codes, map((1 << s).__lshift__, map(itemgetter(i), vectors))))
        return codes

    def vector(self, code: int) -> Vector:
        """Decode: the state of each coordinate is its field's popcount."""
        return tuple(map(int.bit_count, map(code.__and__, self.fields)))


#: a sweep over this many cells of a grid costs about one step of a
#: pairwise loop (a `|` and a compare on two codes, or one join), and a
#: sweep's fixed cost is about that of _SWEEP_CELLS cells.  Fitted on the
#: benchmark's lattice and network families and on random ones: the route
#: chosen takes 1.0-1.25 times the faster route's total time there
_CELLS_PER_STEP = 8
_SWEEP_CELLS = 256
#: no grid past this many cells, whatever the loop's work: a few ints of
#: that many lanes are alive at once
_MAX_CELLS = 1 << 22


def _axes(vectors: Iterable[Vector]) -> list[list[int]]:
    """The grid of a family: the sorted distinct values of each coordinate."""
    return [sorted(set(column)) for column in zip(*vectors)]


def _grid_steps(axes: list[list[int]]) -> float:
    """What a kernel costs on the grid, in steps of a pairwise loop, from the
    grid's size alone: about one sweep per rank of each axis.  No cell is
    built here, and past _MAX_CELLS the grid never pays."""
    cells = math.prod(map(len, axes))
    if cells > _MAX_CELLS:
        return math.inf
    return (cells + _SWEEP_CELLS) * sum(map(len, axes)) / _CELLS_PER_STEP


def _grid(axes: list[list[int]], bound: int) -> Lanes:
    """Lanes over the grid's rank coordinates, wide enough for `bound`."""
    return Lanes([0] * len(axes), [len(axis) - 1 for axis in axes], bound)


def _cells(lanes: Lanes, axes: list[list[int]], vectors: Sequence[Vector]) -> list[int]:
    """The lane of each vector, whose values lie on the axes, by columns."""
    index = [0] * len(vectors)
    for i, (axis, stride) in enumerate(zip(axes, lanes.strides)):
        offset = {v: r * stride for r, v in enumerate(axis)}
        index = list(map(add, index, map(offset.__getitem__, map(itemgetter(i), vectors))))
    return index


def _sweeps(lanes: Lanes) -> Iterator[tuple[int, int, int]]:
    """(i, e_i, lanes.positive(i)) for each axis of more than one rank, the
    mask built as the sweep reaches its axis."""
    return ((i, e, lanes.positive(i)) for i, e in enumerate(lanes.extents) if e)


def _nested_on_grid(families: Sequence[Sequence[Vector]], axes: list[list[int]]) -> bool:
    """True iff every family is an antichain and each lies in the up-set of
    the one before it, on one grid over all of them whose axes are given;
    one family is the antichain check.  A family's up-set is the cells
    whose generator count (see _antichain_counts) is at least one.  All
    families' cells are found in one pass."""
    lanes = _grid(axes, max(map(len, families)))  # counts <= the largest family
    cells = iter(_cells(lanes, axes, list(chain.from_iterable(families))))
    below = lanes.top  # every cell
    for fam in families:
        marks = lanes.marks(islice(cells, len(fam)))
        counts = _antichain_counts(lanes, marks, len(fam))
        if counts is None or (marks << (lanes.bits - 1)) & ~below:
            return False
        below = lanes.at_least(counts, lanes.ones)
    return True


def _check_pairs(gens: Sequence[Vector], codes: Sequence[int]) -> None:
    """Raise on the first comparable pair of a sorted family, in combinations order.

    a precedes b lexicographically, so b <= a componentwise only if a == b.
    """
    for i, a in enumerate(codes):
        for j, b in enumerate(codes[i + 1 :], i + 1):
            if a | b == b:
                raise InvalidGeneratorError(f"comparable generators {gens[i]} and {gens[j]}")


def _checked(vectors: Iterable[Vector]) -> tuple[tuple[Vector, ...], _Packing]:
    """A family sorted, refused when empty, ragged or negative, with its
    packing: the checks of _validated short of the order."""
    gens = tuple(sorted(tuple(v) for v in vectors))
    if not gens:
        raise InvalidGeneratorError("generator family is empty")
    n = len(gens[0])
    # ragged and negative vectors are refused here, before anything is encoded
    for g in gens:
        if len(g) != n:
            raise DimensionError(f"vectors of length {n} and {len(g)}")
        if g and min(g) < 0:
            raise InvalidGeneratorError(f"negative state in generator {g}")
    return gens, _Packing.of(gens)


def _validated(vectors: Iterable[Vector]) -> tuple[tuple[Vector, ...], _Packing]:
    """A generator family normalised, with its packing: sorted, of one
    length, non-negative and pairwise incomparable.  InvalidGeneratorError
    on an empty family or a comparable pair (duplicates included),
    DimensionError on ragged input.  The antichain check runs on the grid
    where it pays and passes, else by pairs, which name the fault.  The
    grid pays on no family of the benchmark, nor on one that formations
    take (20 at most), but the unit sum's level-12 family over [3]^8, 8 092
    vectors, takes 0.02 s on it and 2.4 s by pairs (Python 3.11, 2 CPUs)."""
    gens, packing = _checked(vectors)
    axes = _axes(gens)
    if not (_grid_steps(axes) < len(gens) ** 2 and _nested_on_grid([gens], axes)):
        _check_pairs(gens, packing.codes(gens))
    return gens, packing


class JoinClosure:
    """The closure of a generator family under componentwise max.

    `elements` is lexicographically sorted, which is a linear extension of
    the componentwise order: every element appears after everything below
    it.  domination_by_closure_mobius relies on that.
    """

    generators: tuple[Vector, ...]
    elements: tuple[Vector, ...]

    def __init__(self, generators, elements):
        self.generators, self.elements = generators, elements

    def __len__(self) -> int:
        return len(self.elements)


def join_closure(generators: Iterable[Vector]) -> JoinClosure:
    """Close a generator family under joins, by a loop or on the grid.

    The loop adds one generator at a time, itself and its join with every
    element closed so far: s * |closure| joins at most.  |closure| is not
    known in advance, so where the pairs check costs less than the grid
    the loop runs, and hands over to the grid once its joins pass the
    grid's cost.  On the grid, the generator count c at or below each
    cell is summed along every axis, and a cell y with c(y) > 0 is a join
    of generators iff, along every axis where y's rank is positive, some
    generator below y shares y's value there: c(y) > c(y - e_i).  Either
    way the elements come out in lex order.
    """
    gens, packing = _checked(generators)
    s, axes = len(gens), _axes(gens)
    grid = _grid_steps(axes)
    elements = None
    if grid < s * s:
        elements = _closure_on_grid(gens, axes)
    if elements is None:  # the loop, or a family that is no antichain
        codes = packing.codes(gens)
        _check_pairs(gens, codes)
        # past the grid's cost, less the pairs check's, the loop hands over
        elements = _closure_by_joins(packing, codes, grid - s * s) or _closure_on_grid(gens, axes)
    return JoinClosure(generators=gens, elements=elements)


def _counts(lanes: Lanes, marks: int) -> int:
    """The zeta transform of the marks on the grid, prefix sums along each
    axis: the number of generators at or below each cell."""
    c = marks
    for i, e, positive in _sweeps(lanes):
        moved = c
        for _ in range(e):
            moved = lanes.up(moved, i, positive)
            c += moved
    return c


def _joins(lanes: Lanes, counts: int) -> bytes:
    """One byte per cell, 1 where the cell is a join of generators: along
    every axis, the count drops one step down, or the axis is at rank 0."""
    joins = lanes.top
    for i, _, positive in _sweeps(lanes):
        joins &= ~lanes.at_least(lanes.up(counts, i, positive), counts)
    return (joins >> (lanes.bits - 1)).to_bytes(lanes.size * lanes.width, "little")[:: lanes.width]


def _antichain_counts(lanes: Lanes, marks: int, s: int) -> int | None:
    """The generator counts of a family of s vectors marked on the grid
    (see _counts), or None if it is no antichain: two generators on one
    cell, or a generator cell that counts another generator at or below
    it.  The lanes hold counts up to s."""
    if marks.bit_count() < s:
        return None
    counts = _counts(lanes, marks)
    if lanes.at_least(counts, 2 * lanes.ones) & (marks << (lanes.bits - 1)):
        return None
    return counts


def _closure_on_grid(gens: Sequence[Vector], axes: list[list[int]]) -> tuple[Vector, ...] | None:
    """The closure of a checked family, or None if it is no antichain."""
    lanes = _grid(axes, len(gens))
    counts = _antichain_counts(lanes, lanes.marks(_cells(lanes, axes, gens)), len(gens))
    if counts is None:
        return None
    return tuple(compress(product(*axes), _joins(lanes, counts)))  # cells in lex order


def _closure_by_joins(packing: _Packing, codes: Sequence[int],
                      budget: float = math.inf) -> tuple[Vector, ...] | None:
    """The closure of an antichain's codes, one generator at a time, or None
    once its joins pass the budget.  The joins are `|` on thermometer
    codes, which sort in lex order."""
    elements: set[int] = set()
    for g in codes:
        budget -= len(elements)
        if budget < 0:
            return None
        elements |= set(map(g.__or__, elements))
        elements.add(g)
    return tuple(map(packing.vector, sorted(elements)))


def domination_by_formations(generators: Iterable[Vector]) -> DominationTable:
    """Signed domination of a generator family by direct formation counting.

    Maps every closure element to (# odd formations) - (# even formations),
    the signed count of the non-empty generator subsets whose join it is;
    elements whose counts cancel stay in the table with value 0, vectors
    outside the closure are absent.

    One pass over the generators keeps that signed count per join of the
    subsets seen so far.  Adding g flips the parity of each of them, so a
    join x counted c moves -c to x | g, and g alone adds 1: s * |closure|
    joins, `|` on thermometer codes, and no subset is listed.  No closure
    or Mobius kernel runs, so verify's formations line checks them.

    The closure can hold 2^s - 1 joins (s unit vectors), so families over
    20 are refused before they are validated: the closure Mobius table,
    pivotal decomposition or a closed form takes them instead.
    """
    generators = tuple(generators)
    s = len(generators)
    if s > 20:
        raise ComplexityGuardError(
            f"{s} generators exceed the formation guard (20); "
            "domination_by_closure_mobius, pivotal_domination or a "
            "closed-form engine handles larger families"
        )
    gens, packing = _validated(generators)
    counts: dict[int, int] = {}
    get = counts.get
    for g in packing.codes(gens):
        for x, c in list(counts.items()):
            x |= g
            counts[x] = get(x, 0) - c
        counts[g] = get(g, 0) + 1
    return {packing.vector(v): counts[v] for v in sorted(counts)}


def domination_by_closure_mobius(closure: JoinClosure) -> DominationTable:
    """Signed domination as the Mobius inverse of the constant 1 on the closure.

    On the generators' grid, where it pays: the backward difference of the
    up-set indicator along every axis, in signed lanes biased by half their
    range, read at the closure's cells.  It is exact on any product of
    chains that holds the joins: its zeta transform is the up-set
    indicator, and so is that of the formation count, which is zero off
    the closure.  After j >= 1 differences a value is a sum of 2^(j-1)
    indicator values less as many others, so |delta| <= 2^(n-1), and the
    lanes also hold the generator counts (<= s) that find the closure's
    cells, as join_closure does.

    Else by forward substitution in the closure's lex order, a linear
    extension: delta(y) = 1 - sum of delta(x) over x < y, where only the
    non-zero (code, delta) pairs so far are tried, by `x | y == y` on
    thermometer codes, quadratic in the closure size.  Both agree with
    domination_by_formations on every family, zero entries included.
    """
    axes = _axes(closure.generators)
    if _grid_steps(axes) < len(closure) ** 2:
        return _mobius_on_grid(closure, axes)
    return _mobius_by_substitution(closure)


def _mobius_on_grid(closure: JoinClosure, axes: list[list[int]]) -> DominationTable:
    n, s = len(axes), len(closure.generators)
    lanes = _grid(axes, max(s, (1 << n) - 1))  # generator counts and |delta|
    counts = _counts(lanes, lanes.marks(_cells(lanes, axes, closure.generators)))
    top = lanes.top  # the bias: 2^(bits - 1) in every lane
    delta = top | lanes.at_least(counts, lanes.ones) >> (lanes.bits - 1)  # the up-set
    for i, _, positive in _sweeps(lanes):
        # delta(x) - delta(x - e_i) where x_i > 0, with the bias kept
        delta += top - (lanes.up(delta, i, positive) | (top & ~positive))
    values, w, joins = delta.to_bytes(lanes.size * lanes.width, "little"), lanes.width, _joins(lanes, counts)
    # a lane holds sum_k byte_k << 8k, less the bias; byte k of the closure's lanes:
    planes = [compress(values[k::w], joins) for k in range(w)]
    deltas = map(sub, planes[0], repeat(1 << (lanes.bits - 1)))
    for k in range(1, w):
        deltas = map(add, deltas, map(lshift, planes[k], repeat(8 * k)))
    return dict(zip(closure.elements, deltas, strict=True))


def _mobius_by_substitution(closure: JoinClosure) -> DominationTable:
    packing = _Packing.of(closure.elements)
    table: DominationTable = {}
    nonzero: list[tuple[int, int]] = []
    for y, c in zip(closure.elements, packing.codes(closure.elements)):
        d = table[y] = 1 - sum([dx for x, dx in nonzero if x | c == c])
        if d:
            nonzero.append((c, d))
    return table
