"""Multistate monotone systems and their reliability.

A system has n components, component i taking states 0..m_i, and a
monotone non-decreasing structure function into 0..M.  The level-k cut
of the structure (phi >= k) is a binary monotone structure over the same
components; almost everything downstream (path vectors, domination,
reliability) works level by level.

Systems are represented by a state space plus an evaluator, with
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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
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


@dataclass(frozen=True)
class StateSpace:
    """Product space {0..m_1} x ... x {0..m_n} with system levels 0..M.

    system_max = 0 marks a degenerate system that never leaves level 0;
    it arises from flow networks whose terminals are disconnected.  The
    empty space (n = 0, the single vector ()) is allowed because
    table_system([], [v]) builds a constant system on it; documents read
    from files always have n >= 1.
    """

    max_states: tuple[int, ...]
    system_max: int

    def __post_init__(self):
        if any(m < 1 for m in self.max_states):
            raise DomainError(f"component max states must be >= 1, got {self.max_states}")
        if self.system_max < 0:
            raise DomainError(f"system max level must be >= 0, got {self.system_max}")

    @property
    def n(self) -> int:
        return len(self.max_states)

    @property
    def top(self) -> Vector:
        return self.max_states

    def size(self) -> int:
        return math.prod(m + 1 for m in self.max_states)

    def vectors(self):
        """All state vectors in lexicographic order."""
        return product(*(range(m + 1) for m in self.max_states))


@dataclass(frozen=True)
class MultistateSystem:
    """A state space together with a monotone structure function."""

    space: StateSpace
    kind: str
    _func: Callable[[Vector], int]
    # a path_vectors system's declared minimal path vectors, by level
    _paths: Mapping[int, tuple[Vector, ...]] | None = field(default=None, compare=False, repr=False)
    # _lanes(lo, hi, k): phi over the box lo <= x <= hi in lanes, by the kind's
    # own arithmetic; None tabulates by evaluating each state (see _phi_lanes)
    _lanes: Callable[[Sequence[int], Sequence[int], int | None], tuple[Lanes, int]] | None = field(
        default=None, compare=False, repr=False)

    def evaluate(self, x: Vector) -> int:
        x = tuple(x)
        ms = self.space.max_states
        if not (len(x) == len(ms) and all(map(operator.le, x, ms)) and (not x or min(x) >= 0)):
            raise DomainError(f"state vector {x} outside space {ms}")
        try:  # a sum of states in range is an int only when every state is
            operator.index(sum(x))
        except TypeError:
            raise DomainError(f"state vector {x} outside space {ms}") from None
        return self._func(x)

    def level(self, k: int) -> "LevelSystem":
        """The binary level-k structure, phi_k(x) = 1 iff phi(x) >= k."""
        if not 1 <= k <= self.space.system_max:
            raise DomainError(
                f"level {k} outside 1..{self.space.system_max}"
            )
        return LevelSystem(system=self, level=k)


@dataclass(frozen=True)
class LevelSystem:
    """Binary cut of a multistate structure at a fixed level."""

    system: MultistateSystem
    level: int

    @property
    def max_states(self) -> tuple[int, ...]:
        return self.system.space.max_states

    def __call__(self, x: Vector) -> int:
        return 1 if self.system.evaluate(x) >= self.level else 0

    @cached_property
    def _table(self) -> bytes:
        """The level table (see _level_table), tabulated on first read, so
        the path vector scan and enumeration share one tabulation."""
        return _level_table(self)


def _integer(v, what: str) -> int:
    """v as an int, refusing floats and other non-integral values."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValidationError(f"{what} {v!r} is not an integer") from None


def table_system(
    max_states: Sequence[int],
    values: Mapping[Vector, int] | Sequence[int],
) -> MultistateSystem:
    """System from an explicit table of structure values.

    `values` is either a map from state vectors to levels, total on the
    space, or a flat sequence in lexicographic vector order.  Monotonicity
    is verified on construction.
    """
    ms = tuple(max_states)
    space_size = math.prod(m + 1 for m in ms)
    if isinstance(values, Mapping):
        table = {tuple(x): _integer(v, "table value") for x, v in values.items()}
        for x in table:
            if len(x) != len(ms) or not all(0 <= a <= m for a, m in zip(x, ms)):
                raise ValidationError(f"table vector {x} lies outside the space {ms}")
        if len(table) != space_size:
            raise ValidationError(f"table covers {len(table)} of {space_size} vectors")
        flat = list(map(table.__getitem__, product(*(range(m + 1) for m in ms))))
    else:
        flat = [_integer(v, "table value") for v in values]
        if len(flat) != space_size:
            raise ValidationError(
                f"table has {len(flat)} entries, space has {space_size} vectors"
            )
        table = dict(zip(product(*(range(m + 1) for m in ms)), flat))
    if any(v < 0 for v in flat):
        raise ValidationError("negative structure value in table")
    system_max = max(flat)
    space = StateSpace(max_states=ms, system_max=system_max)
    whole = Lanes((0,) * len(ms), ms, system_max)
    packed = whole.pack(flat).to_bytes(whole.size * whole.width, "little")

    def lanes(lo, hi, k) -> tuple[Lanes, int]:
        box = Lanes(lo, hi, system_max)
        return box, box.cut(whole, packed)

    system = MultistateSystem(space=space, kind="table", _func=table.__getitem__, _lanes=lanes)
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
    space = StateSpace(max_states=ms, system_max=sum(a * b for a, b in zip(w, ms)))

    def lanes(lo, hi, k) -> tuple[Lanes, int]:
        lanes = Lanes(lo, hi, space.system_max)
        return lanes, lanes.weighted(w)

    return MultistateSystem(
        space=space,
        kind="sum",
        _func=lambda x: sum(map(operator.mul, w, x)),
        _lanes=lanes,
    )


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
    each level's bounds, generator checks and lengths, then the nesting.
    """
    ms = tuple(max_states)
    if not levels:
        raise ValidationError("no path vector levels given")
    system_max = max(levels)
    if sorted(levels) != list(range(1, system_max + 1)):
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
    codes = {k: packing.codes(fam) for k, fam in families.items()}
    if not checked:
        for k in range(2, system_max + 1):
            for v, c in zip(families[k], codes[k]):
                if not any(u | c == c for u in codes[k - 1]):
                    raise ValidationError(
                        f"level-{k} path vector {v} dominates no level-{k - 1} path vector")

    def phi(x: Vector) -> int:
        """Bisect the levels: every level-k vector dominates a level-(k-1)
        one, so "x lies above some F_k vector" is monotone in k."""
        c = packing.code(map(min, x, widths))
        lo, hi = 0, system_max
        while lo < hi:
            k = (lo + hi + 1) // 2
            if any(u | c == c for u in codes[k]):
                lo = k
            else:
                hi = k - 1
        return lo

    def lanes(lo, hi, k) -> tuple[Lanes, int]:
        lanes = Lanes(lo, hi, system_max)
        if k is None:  # the up-sets nest, so a lane's sum is the highest level below it
            return lanes, sum(map(lanes.upset, families.values()))
        return lanes, k * lanes.upset(families[k])

    space = StateSpace(max_states=ms, system_max=system_max)
    return MultistateSystem(space=space, kind="path_vectors", _func=phi, _paths=families,
                            _lanes=lanes)


def _phi_lanes(system: MultistateSystem, lo: Sequence[int], hi: Sequence[int],
               k: int | None = None) -> tuple[Lanes, int]:
    """phi over the box lo <= x <= hi in lanes: by the system's own
    tabulator, or for a system given only its structure function, by
    evaluating each state of the box once.  Given a level k, a lane need
    only be >= k exactly where phi is, which lets a path_vectors system
    close its level-k family alone."""
    if system._lanes is not None:
        return system._lanes(lo, hi, k)
    values = list(map(system._func, product(*(range(a, b + 1) for a, b in zip(lo, hi)))))
    lanes = Lanes(lo, hi, max(max(values), system.space.system_max))
    return lanes, lanes.pack(values)


def _level_table(ls: LevelSystem, lo: Sequence[int] = (), hi: Sequence[int] = ()) -> bytes:
    """phi_k over the box lo <= x <= hi, by default (empty bounds) the
    whole space, one byte 0 or 1 per state in lexicographic order."""
    ms = ls.max_states
    lanes, phi = _phi_lanes(ls.system, lo or (0,) * len(ms), hi or ms, ls.level)
    return lanes.table(phi, ls.level)


def check_monotone(system: MultistateSystem) -> bool:
    """Exhaustively verify phi(x) <= phi(y) whenever x <= y.

    Only one-step drops need checking: along each axis, phi in lanes is
    compared with phi moved one step up that axis.  Refuses spaces with
    more than 10^7 vectors.
    """
    space = system.space
    if space.size() > 10**7:
        raise ComplexityGuardError(
            f"monotonicity check over {space.size()} states exceeds guard ({10**7})"
        )
    lanes, phi = _phi_lanes(system, (0,) * space.n, space.max_states)
    return all(lanes.at_least(phi, lanes.up(phi, i, lanes.positive(i))) == lanes.top
               for i in range(space.n))


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def minimal_path_vectors(ls: LevelSystem) -> tuple[Vector, ...]:
    """Minimal vectors x with phi(x) >= level, by bitset shifts.

    A path_vectors level returns its declared family, with no scan.
    Otherwise x is minimal iff the level function holds at x but fails
    whenever one positive coordinate is lowered by one; monotonicity
    makes that local test exact.  The level table, tabulated in lanes
    (see _phi_lanes), is packed into an int I (bit j for the j-th vector
    in lexicographic order); lowering coordinate i is a shift by its
    stride, so the minimal vectors are the bits of I & ~OR_i((I <<
    stride_i) & [x_i > 0]).  Spaces over 10^7 states are refused before
    anything is tabulated.  Output is lexicographically sorted.
    """
    if ls.system._paths is not None:
        return ls.system._paths[ls.level]  # declared, and checked minimal at parse
    space = ls.system.space
    ms, size = space.max_states, space.size()
    if size > 10**7:
        raise ComplexityGuardError(
            f"path vector scan over {size} states exceeds guard ({10**7})"
        )
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


@dataclass(frozen=True)
class RelevanceReport:
    """Which component states matter for a level function.

    attained[i] lists the states r > 0 of component i occurring in some
    minimal path vector (the r-relevances).  Component i is irrelevant
    iff the list is empty and strongly relevant iff its top state m_i is
    attained; the system is strongly coherent iff every component is
    strongly relevant.  Strong coherence is necessary for a non-zero
    signed domination, though not sufficient.
    """

    max_states: tuple[int, ...]
    attained: tuple[tuple[int, ...], ...]

    @property
    def irrelevant(self) -> tuple[bool, ...]:
        return tuple(not a for a in self.attained)

    @property
    def strongly_relevant(self) -> tuple[bool, ...]:
        return tuple(m in a for a, m in zip(self.attained, self.max_states))

    @property
    def strongly_coherent(self) -> bool:
        return all(self.strongly_relevant)


def relevance_report(ls: LevelSystem) -> RelevanceReport:
    """Relevance of every component for one level function."""
    paths = minimal_path_vectors(ls)
    ms = ls.max_states
    attained = [set() for _ in ms]
    for p in paths:
        for i, s in enumerate(p):
            if s > 0:
                attained[i].add(s)
    return RelevanceReport(
        max_states=ms,
        attained=tuple(tuple(sorted(a)) for a in attained),
    )


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
    _, survival, scale = dist._weights
    total: float | int = 0.0 if scale is None else 0
    for x, d in table.items():
        if d == 0:
            continue
        if len(x) != dist.n:
            raise DimensionError(f"table vector {x} for {dist.n} components")
        # left to right from delta(x), as the float digits depend on the order
        total += reduce(operator.mul, map(operator.getitem, survival, x),
                        float(d) if scale is None else d)
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
    space = ls.system.space
    dist._check_space(space.max_states)
    if space.size() > 10**7:
        raise ComplexityGuardError(
            f"enumeration over {space.size()} states exceeds guard ({10**7})"
        )
    rows, _, scale = dist._weights
    zero, one = (0.0, 1.0) if scale is None else (0, 1)
    probs = iter((one,))
    for row in rows:
        prefixes = chain.from_iterable(map(repeat, probs, repeat(len(row))))
        probs = map(operator.mul, prefixes, cycle(row))
    # a left fold, as builtin sum compensates float rounding from 3.12 on
    total = reduce(operator.add, compress(probs, ls._table), zero)
    return total if scale is None else total * scale
