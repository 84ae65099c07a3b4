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

Minimal path vectors are found from the level-k indicator over the whole
product lattice, one evaluation per state, by bitset shifts rather than
by re-evaluating the neighbours of every state; a path_vectors system
already holds them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, product
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    ComplexityGuardError,
    DimensionError,
    DistributionError,
    DomainError,
    ValidationError,
)
from .poset import DominationTable, Vector, _Packing, validate_generators


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

    def contains(self, x: Vector) -> bool:
        return len(x) == self.n and all(0 <= a <= m for a, m in zip(x, self.max_states))

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

    def evaluate(self, x: Vector) -> int:
        x = tuple(x)
        if not self.space.contains(x):
            raise DomainError(f"state vector {x} outside space {self.space.max_states}")
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
    else:
        flat = [_integer(v, "table value") for v in values]
        if len(flat) != space_size:
            raise ValidationError(
                f"table has {len(flat)} entries, space has {space_size} vectors"
            )
        table = dict(zip(product(*(range(m + 1) for m in ms)), flat))
    if len(table) != space_size:
        raise ValidationError(f"table covers {len(table)} of {space_size} vectors")
    if any(v < 0 for v in table.values()):
        raise ValidationError("negative structure value in table")
    system_max = max(table.values())
    space = StateSpace(max_states=ms, system_max=system_max)
    system = MultistateSystem(space=space, kind="table", _func=table.__getitem__)
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
    return MultistateSystem(
        space=space,
        kind="sum",
        _func=lambda x: sum(a * b for a, b in zip(w, x)),
    )


def path_vector_system(
    max_states: Sequence[int],
    levels: Mapping[int, Iterable[Vector]],
) -> MultistateSystem:
    """System defined by its minimal path vectors at each level 1..M.

    Each family must be a non-empty antichain inside the space, and every
    level-k vector must dominate some level-(k-1) vector, so that the
    declared families really are the minimal path vectors of the resulting
    structure.
    """
    ms = tuple(max_states)
    if not levels:
        raise ValidationError("no path vector levels given")
    system_max = max(levels)
    if sorted(levels) != list(range(1, system_max + 1)):
        raise ValidationError(f"levels must be exactly 1..{system_max}, got {sorted(levels)}")
    families: dict[int, tuple[Vector, ...]] = {}
    for k in range(1, system_max + 1):
        fam = validate_generators(levels[k])
        for v in fam:
            if len(v) != len(ms) or any(a > m for a, m in zip(v, ms)):
                raise ValidationError(f"path vector {v} outside space {ms}")
        families[k] = fam
    # thermometer codes of width m_i: every path vector was checked to lie in
    # the space above, and evaluate range-checks x before phi encodes it
    packing = _Packing(ms)
    codes = {k: packing.codes(fam) for k, fam in families.items()}
    for k in range(2, system_max + 1):
        for v, c in zip(families[k], codes[k]):
            if not any(u | c == c for u in codes[k - 1]):
                raise ValidationError(
                    f"level-{k} path vector {v} dominates no level-{k - 1} path vector"
                )

    def phi(x: Vector) -> int:
        """Bisect the levels: every level-k vector dominates a level-(k-1)
        one, so "x lies above some F_k vector" is monotone in k."""
        c = packing.code(x)
        lo, hi = 0, system_max
        while lo < hi:
            k = (lo + hi + 1) // 2
            if any(u | c == c for u in codes[k]):
                lo = k
            else:
                hi = k - 1
        return lo

    space = StateSpace(max_states=ms, system_max=system_max)
    return MultistateSystem(space=space, kind="path_vectors", _func=phi, _paths=families)


def check_monotone(system: MultistateSystem) -> bool:
    """Exhaustively verify phi(x) <= phi(y) whenever x <= y.

    Only one-step drops need checking.  Refuses spaces with more than
    10^7 vectors.
    """
    space = system.space
    if space.size() > 10**7:
        raise ComplexityGuardError(
            f"monotonicity check over {space.size()} states exceeds guard ({10**7})"
        )
    for x in space.vectors():
        vx = system._func(x)
        for i, s in enumerate(x):
            if s > 0:
                if system._func(x[:i] + (s - 1,) + x[i + 1 :]) > vx:
                    return False
    return True


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def minimal_path_vectors(ls: LevelSystem) -> tuple[Vector, ...]:
    """Minimal vectors x with phi(x) >= level, by bitset shifts.

    A path_vectors level returns its declared family, with no scan.
    Otherwise x is minimal iff the level function holds at x but fails
    whenever one positive coordinate is lowered by one; monotonicity
    makes that local test exact.  The level function is evaluated once
    per state and the results packed into an int I (bit j for the j-th
    vector in lexicographic order); lowering coordinate i is a shift by
    its stride, so the minimal vectors are the bits of I & ~OR_i((I <<
    stride_i) & [x_i > 0]).  Spaces over 10^7 states are refused before
    anything is evaluated.  Output is lexicographically sorted.
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
    holds = int(bytes(map(ls, space.vectors()))[::-1].translate(_DIGITS), 2)
    lowered = 0
    stride = 1
    for m in reversed(ms):
        period = stride * (m + 1)
        # bits where coordinate i is positive, one period repeated past size
        positive, width = ((1 << (stride * m)) - 1) << stride, period
        while width < size:
            positive |= positive << width
            width *= 2
        lowered |= (holds << stride) & positive
        stride = period
    minimal = bin(holds & ~lowered)[:1:-1]  # character j is bit j, up to the last set bit
    return tuple(compress(space.vectors(), map("1".__eq__, minimal)))


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
    each pmf must sum to 1 within 1e-12.
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
            total = sum(row)
            if exact:
                if total != 1:
                    raise DistributionError(f"component {i}: pmf sums to {total}, not 1")
            elif abs(total - 1.0) > 1e-12:
                raise DistributionError(f"component {i}: pmf sums to {total!r}")
        self.pmfs = rows
        self.exact = exact
        # survival[i][r] = P(component i >= r), survival[i][0] = 1
        self.survival = tuple(
            tuple(sum(row[r:]) for r in range(len(row)))
            for row in rows
        )

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
    Exact when the distribution is exact.
    """
    dist._check_space(tuple(max_states))
    total: float | Fraction = Fraction(0) if dist.exact else 0.0
    for x, d in table.items():
        if d == 0:
            continue
        if len(x) != dist.n:
            raise DimensionError(f"table vector {x} for {dist.n} components")
        term: float | Fraction = Fraction(d) if dist.exact else float(d)
        for i, s in enumerate(x):
            term *= dist.survival[i][s]
        total += term
    return total


def reliability_enumerate(ls: LevelSystem, dist: ComponentDistribution) -> float | Fraction:
    """P(phi >= k) by brute-force enumeration of the state space."""
    space = ls.system.space
    dist._check_space(space.max_states)
    if space.size() > 10**7:
        raise ComplexityGuardError(
            f"enumeration over {space.size()} states exceeds guard ({10**7})"
        )
    total: float | Fraction = Fraction(0) if dist.exact else 0.0
    for x in space.vectors():
        if ls(x):
            p: float | Fraction = Fraction(1) if dist.exact else 1.0
            for i, s in enumerate(x):
                p *= dist.pmfs[i][s]
            total += p
    return total
