"""Multistate monotone systems and their reliability.

A system has n components, component i taking states 0..m_i, and a
monotone non-decreasing structure function into 0..M.  The level-k cut
of the structure (phi >= k) is a binary monotone structure over the same
components; almost everything downstream (path vectors, domination,
reliability) works level by level.

A system is its component bounds, its top level and an evaluator, with
constructors for the concrete shapes used in practice: explicit tables,
weighted sums and families of minimal path vectors.  Flow networks get
their constructor in the network module.

The full-lattice routes (minimal path vectors, the monotonicity check,
reliability by enumeration) read phi over the whole product lattice as
one int in lanes, and pivotal decomposition reads it over the box of
top corners.  Each kind's constructor tabulates any box with whole-int
arithmetic: no state is evaluated one by one.  A system built from a
bare structure function is tabulated by evaluating every state once.
Minimal path vectors are then found by bitset shifts of the level-k
indicator; a path_vectors system already holds them.

Reliability on exact input is computed in integers: every pmf row is
scaled by the lcm of its denominators, the routes add and multiply ints,
and one Fraction is made of the total at the end.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import accumulate, chain, compress, cycle, product, repeat
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    ComplexityGuardError,
    DimensionError,
    DistributionError,
    DomainError,
    ValidationError,
)
from .lanes import Lanes
from .poset import (
    DominationTable,
    Vector,
    _axes,
    _grid_steps,
    _nested_on_grid,
    _Packing,
    _validated,
)
from .signed import sum_domination, threshold_domination


class MultistateSystem:
    """Component bounds m_i, a top level M and a monotone structure
    function from {0..m_1} x ... x {0..m_n} into 0..M.

    system_max = 0 marks a degenerate system that never leaves level 0;
    it arises from flow networks whose terminals are disconnected.  The
    empty space (n = 0, the single vector ()) is allowed because
    table_system([], [v]) builds a constant system on it; documents read
    from files always have n >= 1.

    A system carries two routines, each with a default that a kind's
    constructor may replace: _lanes(lo, hi, k), phi over the box lo <= x
    <= hi in lanes, by default each state evaluated once (given a level k,
    a lane need only be >= k exactly where phi is); and _closed(k),
    d(phi_k) by a closed form, by default None: none applies (see signed).

    Where every m_i < 128, _highs (0x80 in each byte) and _tops (each
    byte 0x80 | m_i) let evaluate range-check a state vector in one SWAR
    step; elsewhere both are None.
    """

    max_states: tuple[int, ...]
    system_max: int
    kind: str
    _func: Callable[[Vector], int]
    # a path_vectors system's declared minimal path vectors, by level
    _paths: Mapping[int, tuple[Vector, ...]] | None
    _lanes: Callable[[Sequence[int], Sequence[int], int | None], tuple[Lanes, int]]
    _closed: Callable[[int], int | None]

    def __init__(self, max_states, system_max, kind, _func, _paths=None, _lanes=None,
                 _closed=lambda k: None):
        if not all(isinstance(m, int) for m in max_states):
            raise DomainError(f"component max states must be integers, got {max_states}")
        if any(m < 1 for m in max_states):
            raise DomainError(f"component max states must be >= 1, got {max_states}")
        if system_max < 0:
            raise DomainError(f"system max level must be >= 0, got {system_max}")
        self.max_states, self.system_max, self.kind, self._func = max_states, system_max, kind, _func
        self._paths, self._closed = _paths, _closed
        self._highs = self._tops = None
        if all(m < 128 for m in max_states):
            self._highs = int.from_bytes(b"\x80" * len(max_states), "little")
            self._tops = self._highs | int.from_bytes(bytes(max_states), "little")

        # over _func and system_max, not self, so the system holds no cycle
        def lanes(lo, hi, k) -> tuple[Lanes, int]:
            values = list(map(_func, product(*(range(a, b + 1) for a, b in zip(lo, hi)))))
            box = Lanes(lo, hi, max(max(values), system_max))
            return box, box.pack(values)

        self._lanes = _lanes or lanes

    def size(self) -> int:
        return math.prod(m + 1 for m in self.max_states)

    def _guarded_size(self, work: str) -> int:
        """size(), refused past 10^7 states before `work` tabulates them.
        The refusal names a size str() cannot write by its power of ten."""
        size = self.size()
        if size > 10**7:
            try:
                states = str(size)
            except ValueError:  # more digits than int-to-str conversion writes
                k = int(math.log10(size))
                k -= 10**k > size  # the float log may round up past the floor
                states = f"at least 10^{k}"
            raise ComplexityGuardError(f"{work} over {states} states exceeds guard ({10**7})")
        return size

    def evaluate(self, x: Vector) -> int:
        """phi(x), once x is checked to lie in the space; DomainError if not.

        The fast check, where every m_i < 128: bytes(x) packs n states in
        0..255 one a byte and raises on anything else, and x is inside iff
        no byte has its high bit set and every byte of _tops - packed keeps
        it, as (0x80 | m_i) - x_i >= 0x80 exactly when x_i <= m_i, with no
        borrow from the next byte while x_i < 128.  An object with
        __index__ passes as its int, and x goes on to phi as it is; where
        phi raises TypeError on it, as sum or a product does on an object
        with no arithmetic, the reference check judges x after all.

        The reference check, _state_vector, takes all the fast check does
        not accept: a wrong length, a state out of range or not an int, and
        every x of a system with some m_i >= 128.  Its refusal names the
        fault with the one message.
        """
        x = tuple(x)
        highs = self._highs
        if highs is not None and len(x) == len(self.max_states):
            try:
                packed = int.from_bytes(bytes(x), "little")
            except (TypeError, ValueError):  # not n states 0..255: the test below fails
                packed = highs
            if not packed & highs and (self._tops - packed) & highs == highs:
                try:
                    return self._func(x)
                except TypeError:  # a state with __index__ alone packs, yet may not add
                    _state_vector(x, self.max_states)
                    raise
        return self._func(_state_vector(x, self.max_states))

    def level(self, k: int) -> "LevelSystem":
        """The binary level-k structure, phi_k(x) = 1 iff phi(x) >= k."""
        if not 1 <= k <= self.system_max:
            raise DomainError(
                f"level {k} outside 1..{self.system_max}"
            )
        return LevelSystem(system=self, level=k)


def _state_vector(x: tuple, ms: Sequence[int]) -> Vector:
    """The tuple x, unchanged, if it is a vector of the space 0..ms: of
    length n, each state an int in 0..m_i; else DomainError naming x and
    the space.  The one state-vector check: evaluate falls back to it, and
    delta_at and max_flow call it.  It may refuse an object with __index__
    that does not compare or add like an int."""
    try:  # "a", None, [0] or 1j compare with no int
        if len(x) == len(ms) and all(map(operator.le, x, ms)) and (not x or min(x) >= 0):
            operator.index(sum(x))  # a sum of states in range is an int only when every state is
            return x
    except TypeError:
        pass
    raise DomainError(f"state vector {x} outside space {ms}")


class LevelSystem:
    """Binary cut of a multistate structure at a fixed level."""

    system: MultistateSystem
    level: int

    def __init__(self, system, level):
        self.system, self.level = system, level

    @property
    def max_states(self) -> tuple[int, ...]:
        return self.system.max_states

    def __call__(self, x: Vector) -> int:
        return 1 if self.system.evaluate(x) >= self.level else 0

    @cached_property
    def _table(self) -> bytes:
        """The level table of the whole space (see _level_table), tabulated
        on first read, so the path vector scan and enumeration share it."""
        return _level_table(self, (0,) * len(self.max_states), self.max_states)


def _integer(v, what: str) -> int:
    """v as an int, refusing floats and other non-integral values."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValidationError(f"{what} {v!r} is not an integer") from None


def table_system(max_states: Sequence[int], values: Sequence[int]) -> MultistateSystem:
    """System from an explicit table of structure values.

    `values` lists the level of every state vector in lexicographic
    order; the system keeps it as one flat list, in which x's value sits
    at the offset of its lane (see lanes.Lanes).  Monotonicity is
    verified on construction.
    """
    ms = tuple(max_states)
    space_size = math.prod(m + 1 for m in ms)
    flat = [_integer(v, "table value") for v in values]
    if len(flat) != space_size:
        raise ValidationError(f"table has {len(flat)} entries, space has {space_size} vectors")
    if any(v < 0 for v in flat):
        raise ValidationError("negative structure value in table")
    system_max = max(flat)
    whole = Lanes((0,) * len(ms), ms, system_max)
    packed = whole.pack(flat).to_bytes(whole.size * whole.width, "little")
    strides = whole.strides

    def phi(x: Vector) -> int:
        return flat[sum(map(operator.mul, x, strides))]

    def lanes(lo, hi, k) -> tuple[Lanes, int]:
        box = Lanes(lo, hi, system_max)
        return box, box.cut(whole, packed)

    system = MultistateSystem(ms, system_max, "table", phi, _lanes=lanes)
    if not check_monotone(system):
        raise ValidationError("table is not monotone non-decreasing")
    return system


def sum_system(max_states: Sequence[int], weights: Sequence[int] | None = None) -> MultistateSystem:
    """phi(x) = sum of w_i * x_i, the workhorse threshold example."""
    ms = tuple(max_states)
    w = tuple(_integer(v, "weight") for v in (weights if weights is not None else [1] * len(ms)))
    if len(w) != len(ms):
        raise DimensionError(f"{len(w)} weights for {len(ms)} components")
    if any(v < 0 for v in w):
        raise ValidationError("weights must be non-negative")
    system_max = sum(a * b for a, b in zip(w, ms))

    def lanes(lo, hi, k) -> tuple[Lanes, int]:
        lanes = Lanes(lo, hi, system_max)
        return lanes, lanes.weighted(w)

    def closed(k: int) -> int | None:
        if set(w) == {1} and len(set(ms)) == 1:
            return threshold_domination(len(ms), ms[0], k)
        return sum_domination(ms, w, k)

    # unit weights sum the states themselves; weights such as [1, 0, 1] do not
    phi = sum if set(w) <= {1} else lambda x: sum(map(operator.mul, w, x))
    return MultistateSystem(ms, system_max, "sum", phi, _lanes=lanes, _closed=closed)


def _binary_system(n: int, func: Callable[[Vector], int]) -> LevelSystem:
    """The level-1 cut of a binary system: n components with states 0..1
    and a monotone structure `func` into 0..1.  The associated binary
    system and every matroid link are built here."""
    return MultistateSystem((1,) * n, 1, "binary", func).level(1)


def path_vector_system(
    max_states: Sequence[int],
    levels: Mapping[int, Iterable[Vector]],
) -> MultistateSystem:
    """System defined by its minimal path vectors at each level 1..M.

    Each family must be a non-empty antichain inside the space, and every
    level-k vector must dominate some level-(k-1) vector, so that the
    declared families really are the minimal path vectors of the resulting
    structure.  Where the grid pays, one test decides it all: the families
    are non-empty, their vectors of length n, each axis of their values
    (see poset) inside 0..m_i at both ends, and on one grid of them all,
    F_k is an antichain whose cells AND NOT Up(F_(k-1)) are empty.  Else,
    and to name a fault, the checks run in the order the levels are read:
    each level's bounds, generator checks and lengths, then the nesting,
    on thermometer codes (see poset._Packing).

    "Some vector of F_k lies below x" is one test, a few whole-int
    operations on an int of level k's codes in fields of W + 1 bits (W the
    code's width), built on the first test of level k: phi bisects the
    levels with it, and the nesting loop tests each level-k vector on F_(k-1).
    """
    ms = tuple(max_states)
    if not levels:
        raise ValidationError("no path vector levels given")
    system_max = max(levels)
    if sorted(levels) != list(range(1, len(levels) + 1)):  # not up to a huge max key
        raise ValidationError(f"levels must be exactly 1..{system_max}, got {sorted(levels)}")
    families = {k: tuple(sorted(map(tuple, levels[k]))) for k in range(1, system_max + 1)}
    vectors = list(chain(*families.values()))
    axes = _axes(vectors)
    # thermometer codes as wide as the largest state of each component in the
    # families: phi clips x to them, as a state above every family state
    # compares the same, and evaluate range-checks x before phi encodes it
    widths = [axis[-1] for axis in axes]
    steps = sum(len(fam) * (len(fam) + len(families.get(k - 1, ()))) for k, fam in families.items())
    checked = (all(families.values()) and all(map(len(ms).__eq__, map(len, vectors)))
               and all(axis[0] >= 0 and axis[-1] <= m for axis, m in zip(axes, ms))
               and sum(widths) <= _Packing.guard  # else the loops name the first level too wide
               and _grid_steps(axes) * system_max < steps
               and _nested_on_grid(list(families.values()), axes))
    if not checked:
        for fam in families.values():
            # bounded before _validated sizes a thermometer code from the largest state
            for v in fam:
                if not all(map(operator.le, v, ms)):
                    raise ValidationError(f"path vector {v} outside space {ms}")
            _validated(fam)
            for v in fam:
                if len(v) != len(ms):
                    raise ValidationError(f"path vector {v} outside space {ms}")
    packing = _Packing(widths)
    bits = sum(widths)
    mask, spec = (1 << bits) - 1, f"0{bits + 1}b"  # a code, and one with a 0 bit above it

    @cache
    def word(k: int) -> tuple[int, int, int]:
        """Level k's codes side by side in fields of bits + 1 bits, and the
        low and the high bit of every field."""
        ones = int(("0" * bits + "1") * len(families[k]), 2)
        fields = int("".join(map(format, packing.codes(families[k]), repeat(spec))), 2)
        return fields, ones, ones << bits

    def below(k: int, outside: int) -> bool:
        """Some vector of F_k lies below x, given the bits outside x's code,
        by SWAR on level k's word, as in lanes: u <= x iff u has no bit
        outside x's code, so the fields of t = word & (outside, in every
        field) are zero exactly where u <= x, and (t | highs) - ones clears
        the high bit of exactly the zero fields."""
        fields, ones, highs = word(k)
        t = fields & outside * ones
        return ((t | highs) - ones) & highs != highs

    if not checked:
        for k in range(2, system_max + 1):
            for v in families[k]:
                if not below(k - 1, mask ^ packing.code(v)):
                    raise ValidationError(
                        f"level-{k} path vector {v} dominates no level-{k - 1} path vector")

    def phi(x: Vector) -> int:
        """Bisect the levels: every level-k vector dominates a level-(k-1)
        one, so "x lies above some F_k vector" is monotone in k."""
        outside = mask ^ packing.code(map(min, x, widths))
        lo, hi = 0, system_max
        while lo < hi:
            k = (lo + hi + 1) // 2
            if below(k, outside):
                lo = k
            else:
                hi = k - 1
        return lo

    def lanes(lo, hi, k) -> tuple[Lanes, int]:
        lanes = Lanes(lo, hi, system_max)
        if k is None:  # the up-sets nest, so a lane's sum is the highest level below it
            return lanes, sum(map(lanes.upset, families.values()))
        return lanes, k * lanes.upset(families[k])

    return MultistateSystem(ms, system_max, "path_vectors", phi, _paths=families, _lanes=lanes)


def _level_table(ls: LevelSystem, lo: Sequence[int], hi: Sequence[int]) -> bytes:
    """phi_k over the box lo <= x <= hi, one byte 0 or 1 per state, in lex order."""
    lanes, phi = ls.system._lanes(lo, hi, ls.level)
    return lanes.table(phi, ls.level)


def check_monotone(system: MultistateSystem) -> bool:
    """Exhaustively verify phi(x) <= phi(y) whenever x <= y.

    Only one-step drops need checking: along each axis, phi in lanes is
    compared with phi moved one step up that axis.  Refuses spaces with
    more than 10^7 vectors.
    """
    system._guarded_size("monotonicity check")
    lanes, phi = system._lanes((0,) * len(system.max_states), system.max_states, None)
    return all(lanes.at_least(phi, lanes.up(phi, i, lanes.positive(i))) == lanes.top
               for i in range(len(system.max_states)))


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def minimal_path_vectors(ls: LevelSystem) -> tuple[Vector, ...]:
    """Minimal vectors x with phi(x) >= level, by bitset shifts.

    A path_vectors level returns its declared family, with no scan.
    Otherwise x is minimal iff the level function holds at x but fails
    whenever one positive coordinate is lowered by one; monotonicity
    makes that local test exact.  The level table, tabulated in lanes
    (see MultistateSystem), is packed into an int I (bit j for the j-th
    vector in lexicographic order); lowering coordinate i is a shift by its
    stride, so the minimal vectors are the bits of I & ~OR_i((I <<
    stride_i) & [x_i > 0]).  Spaces over 10^7 states are refused before
    anything is tabulated.  Output is lexicographically sorted.
    """
    if ls.system._paths is not None:
        return ls.system._paths[ls.level]  # declared, and checked minimal at parse
    ms, size = ls.max_states, ls.system._guarded_size("path vector scan")
    # one byte per vector, read backwards as the binary digits of I
    holds = int(ls._table[::-1].translate(_DIGITS), 2)
    lowered = 0
    stride = 1
    digits = []  # (stride, radix) of each coordinate, last coordinate first
    for m in reversed(ms):
        period = stride * (m + 1)
        # bits where coordinate i is positive, one period repeated past size
        positive, width = ((1 << (stride * m)) - 1) << stride, period
        while width < size:
            positive |= positive << width
            width *= 2
        lowered |= (holds << stride) & positive
        digits.append((stride, m + 1))
        stride = period
    minimal = bin(holds & ~lowered)[:1:-1]  # character j is bit j, up to the last set bit
    # decode the set bits alone: vector j has x_i = j // stride_i % (m_i + 1)
    js = [hit.start() for hit in re.finditer("1", minimal)]
    columns = [[j // s % r for j in js] for s, r in reversed(digits)]
    return tuple(zip(*columns)) if columns else ((),) * len(js)


class ComponentDistribution:
    """Independent component state distributions.

    pmfs[i][r] is P(component i in state r).  All-Fraction input switches
    the object into exact mode; otherwise probabilities are floats and
    each pmf must sum to 1 within 1e-12.  Exact reliability runs on
    integers: row i is scaled by D_i, the lcm of its denominators (see
    _weights), so the reliability routes add and multiply ints and make
    one Fraction per call.
    """

    def __init__(self, pmfs: Sequence[Sequence[float | Fraction]]):
        rows = tuple(tuple(row) for row in pmfs)
        if not rows:
            raise DistributionError("no component distributions given")
        exact = all(isinstance(p, (Fraction, int)) for row in rows for p in row)
        for i, row in enumerate(rows):
            if len(row) < 2:
                raise DistributionError(f"component {i}: pmf needs at least states 0 and 1")
            if any(isinstance(p, float) and not math.isfinite(p) for p in row):
                raise DistributionError(f"component {i}: non-finite probability")
            if any(p < 0 for p in row):
                raise DistributionError(f"component {i}: negative probability")
            total = reduce(operator.add, row, 0)
            if exact:
                if total != 1:
                    raise DistributionError(f"component {i}: pmf sums to {total}, not 1")
            elif abs(total - 1.0) > 1e-12:
                raise DistributionError(f"component {i}: pmf sums to {total!r}")
        self.pmfs = rows
        self.exact = exact

    @cached_property
    def survival(self) -> tuple[tuple, ...]:
        """survival[i][r] = P(component i >= r), survival[i][0] = 1.

        Left folds like the pmf total, as builtin sum compensates float
        rounding from 3.12 on.  Built on first read: exact input never
        reads it (see _weights).
        """
        return tuple(
            tuple(reduce(operator.add, row[r:], 0) for r in range(len(row)))
            for row in self.pmfs
        )

    @cached_property
    def _weights(self) -> tuple[tuple[tuple, ...], tuple[tuple, ...], Fraction | None]:
        """(pmf rows, survival rows, scale) for the reliability routes.

        For exact input, row i becomes the ints a_i(r) = p_i(r) * D_i and
        their tails A_i(s) = sum of a_i(r) over r >= s, and the scale is
        1 / prod D_i: a product over components of one entry per row
        times the scale is the product of the Fractions.  Float input is
        its pmfs and survival as they are, with no scale.  Built on first
        use, so parsing a document does not pay for it.
        """
        if not self.exact:
            return self.pmfs, self.survival, None
        commons = [math.lcm(*(p.denominator for p in row)) for row in self.pmfs]  # an int's is 1
        rows = tuple(tuple(p.numerator * (common // p.denominator) for p in row)
                     for row, common in zip(self.pmfs, commons))
        tails = tuple(tuple(accumulate(reversed(row)))[::-1] for row in rows)
        return rows, tails, Fraction(1, math.prod(commons))

    @property
    def n(self) -> int:
        return len(self.pmfs)

    @property
    def max_states(self) -> tuple[int, ...]:
        return tuple(len(row) - 1 for row in self.pmfs)

    def _check_space(self, max_states: tuple[int, ...]) -> None:
        if self.max_states != tuple(max_states):
            raise DistributionError(
                f"distribution over {self.max_states} incompatible with space {tuple(max_states)}"
            )


def reliability_from_domination(
    table: DominationTable,
    dist: ComponentDistribution,
    max_states: Sequence[int],
) -> float | Fraction:
    """P(phi >= k) from a level-k domination table.

    The domination expansion of the level indicator gives
    P = sum over table of delta(x) * prod_i P(Y_i >= x_i).
    Exact when the distribution is exact: each term is then an int,
    delta(x) times the integer tails A_i(x_i) of ComponentDistribution,
    and the total becomes one Fraction by the common scale.
    """
    dist._check_space(tuple(max_states))
    _, tails, scale = dist._weights
    # keyed by state, so a state below 0, past m_i or between two states is no key
    survival = [dict(enumerate(row)) for row in tails]
    total: float | int = 0.0 if scale is None else 0
    for x, d in table.items():
        if d == 0:
            continue
        if len(x) != dist.n:
            raise DimensionError(f"table vector {x} for {dist.n} components")
        try:
            # left to right from delta(x), as the float digits depend on the order
            total += reduce(operator.mul, map(operator.getitem, survival, x),
                            float(d) if scale is None else d)
        except (KeyError, TypeError):
            raise DomainError(f"table vector {x} outside space {dist.max_states}") from None
    return total if scale is None else total * scale


def reliability_enumerate(ls: LevelSystem, dist: ComponentDistribution) -> float | Fraction:
    """P(phi >= k) by brute-force enumeration of the state space.

    The probability of each state is the product of its pmf entries,
    taken left to right from 1; those of the states in the level table
    are added in lexicographic order.  The products are generated
    lazily, a prefix's product once per state of the next component.
    Exact input runs over the integer pmf rows of ComponentDistribution
    and makes one Fraction of the total by the common scale.
    """
    dist._check_space(ls.max_states)
    ls.system._guarded_size("enumeration")
    rows, _, scale = dist._weights
    zero, one = (0.0, 1.0) if scale is None else (0, 1)
    probs = iter((one,))
    for row in rows:
        prefixes = chain.from_iterable(map(repeat, probs, repeat(len(row))))
        probs = map(operator.mul, prefixes, cycle(row))
    # a left fold, as builtin sum compensates float rounding from 3.12 on
    total = reduce(operator.add, compress(probs, ls._table), zero)
    return total if scale is None else total * scale
