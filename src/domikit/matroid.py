"""Matroids by rank oracle, Crapo's beta invariant and matroid systems.

A matroid on a finite ground set is held through its rank function on
bitmasks over the ground set: a uniform matroid ranks by min(|A|, r), a
graphic one by union-find over the edge ends.  Beta, the link structure
and the recursion read ranks only.  Beta is the alternating rank sum,
and a distinguished ground element x turns the matroid into a binary
system on C = F \\ x, phi(A) = 1 + r(A) - r(A + x), whose minimal path
sets are the circuits through x with x removed.  It is the level-1 cut
of a system over {0,1}^|C|, so every route that takes a level function
takes it.  Its signed domination is beta(F) up to a sign fixed by the
corank, which the recursion over one-element minors reproduces from one
truth table of the structure: each minor is a half of its parent's
table, so the structure is evaluated once per vector.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Hashable, Iterable, Sequence

from .errors import ComplexityGuardError, DomainError, ValidationError
from .domination import _signed_sum
from .network import _forest_rank
from .poset import Vector
from .systems import LevelSystem, _binary_system


class Matroid:
    """A matroid held through its rank function on bitmasks.

    Ground elements may be any hashable labels; order of first appearance
    fixes the bit layout, bit i for ground[i].  `rank` maps the bitmask of
    a subset to its rank.
    """

    def __init__(self, ground: Iterable[Hashable], rank: Callable[[int], int]):
        self.ground: tuple[Hashable, ...] = tuple(dict.fromkeys(ground))
        self.index = {e: i for i, e in enumerate(self.ground)}
        self._rank = rank

    def to_mask(self, subset: Iterable[Hashable]) -> int:
        mask = 0
        for e in subset:
            if e not in self.index:
                raise DomainError(f"element {e!r} not in ground set")
            mask |= 1 << self.index[e]
        return mask

    def rank_mask(self, mask: int) -> int:
        """Rank of the subset with bitmask `mask`; every rank is taken here."""
        return self._rank(mask)


def crapo_beta(m: Matroid, subset: Iterable[Hashable]) -> int:
    """Crapo's beta invariant of a subset A.

    beta(A) = sum over B <= A of (-1)^(rank(A) - |B|) * rank(B), a
    non-negative integer for any matroid.  2^|A| terms, guarded.
    """
    return _beta(m, m.to_mask(subset))


def _beta(m: Matroid, mask: int) -> int:
    """crapo_beta of the subset with bitmask `mask`."""
    size = mask.bit_count()
    if size > 25:
        raise ComplexityGuardError(
            f"subset of {size} elements exceeds the beta guard (25); "
            "use domination_invariant_recursion"
        )
    bits = [1 << i for i in range(len(m.ground)) if mask >> i & 1]
    # the subsets B in product order, slot 0 slowest, each as its bitmask
    total = _signed_sum(map(m.rank_mask, map(sum, product(*((0, b) for b in bits)))), size)
    return total if (m.rank_mask(mask) - size) % 2 == 0 else -total


def beta_number(m: Matroid) -> int:
    """beta of the whole ground set."""
    return crapo_beta(m, m.ground)


class MatroidSystemLink:
    """A matroid with a marked ground element x, read as a binary system.

    Components are C = ground \\ x; the minimal path sets of the induced
    structure are M \\ x for circuits M containing x.
    """

    matroid: Matroid
    terminal: Hashable

    def __init__(self, matroid, terminal):
        if terminal not in matroid.index:
            raise DomainError(f"terminal {terminal!r} not in ground set")
        self.matroid, self.terminal = matroid, terminal

    @property
    def components(self) -> tuple[Hashable, ...]:
        return tuple(e for e in self.matroid.ground if e != self.terminal)

    @property
    def terminal_bit(self) -> int:
        return 1 << self.matroid.index[self.terminal]


def link_structure(link: MatroidSystemLink) -> LevelSystem:
    """The induced binary system, level 1 over {0,1}^|C| with slots in
    component order: phi(A) = 1 + rank(A) - rank(A + x), which is 1 iff A
    contains a path set."""
    m, xbit = link.matroid, link.terminal_bit
    bits = [1 << m.index[e] for e in link.components]

    def func(z: Vector) -> int:
        mask = sum(b for b, zi in zip(bits, z) if zi)
        return 1 + m.rank_mask(mask) - m.rank_mask(mask | xbit)

    return _binary_system(len(bits), func)


def domination_from_beta(link: MatroidSystemLink, subset: Iterable[Hashable]) -> int:
    """Signed domination of the induced structure at a component subset.

    delta(A) = (-1)^(|A| - rank(A + x)) * beta(A + x); at A = C this gives
    the signed domination of the whole system, with absolute value beta
    of the matroid.
    """
    m, xbit = link.matroid, link.terminal_bit
    mask = m.to_mask(subset)
    if mask & xbit:
        raise DomainError(f"subset must avoid the terminal {link.terminal!r}")
    if mask == 0:
        raise DomainError("signed domination is undefined at the empty subset")
    every = (1 << len(m.ground)) - 1
    if m.rank_mask(every & ~xbit) < m.rank_mask(every):
        # x is a coloop, in no circuit: the induced structure is constant 0
        return 0
    full = mask | xbit
    sign = 1 if (mask.bit_count() - m.rank_mask(full)) % 2 == 0 else -1
    return sign * _beta(m, full)


def domination_invariant_recursion(bs: LevelSystem) -> int:
    """D = |signed domination| of a binary system, by splitting.

    D(phi) = D(phi with e up) + D(phi with e down), valid when phi comes
    from a matroid system (the split halves then carry opposite signs).
    The structure function is called once per vector of {0,1}^k, in
    product order, into one truth table.  Every split is on slot 0, the
    slowest, so the minors with it down and up are the first and second
    halves of the table.  Constant tables give 0, an irrelevant slot
    (both halves equal) gives 0, and every minor is memoised on its
    table, so repeated shapes, frequent in symmetric systems, are
    computed once.  Past 25 slots nothing is evaluated.
    """
    size = len(bs.max_states)
    if size > 25:
        raise ComplexityGuardError(f"{size} binary components exceed the recursion guard (25)")
    memo: dict[bytes, int] = {}

    def run(t: bytes) -> int:
        if len(t) == 1:
            return t[0]
        if t[-1] == 0 or t[0] == 1:
            return 0
        value = memo.get(t)
        if value is not None:
            return value
        half = len(t) // 2
        down, up = t[:half], t[half:]
        # Irrelevant slot: both halves are the same minor, so the signed
        # domination cancels and splitting would count the minor twice.
        value = 0 if up == down else run(up) + run(down)
        memo[t] = value
        return value

    return run(bytes(map(bs.system._func, product((0, 1), repeat=size))))


def uniform_matroid(ground: Iterable[Hashable], rank: int) -> Matroid:
    """Uniform matroid U_{rank, |ground|}: rank min(|A|, rank)."""
    elems = tuple(dict.fromkeys(ground))
    if not 0 <= rank <= len(elems):
        raise DomainError(f"rank {rank} outside 0..{len(elems)}")
    return Matroid(elems, lambda mask: min(mask.bit_count(), rank))


def graphic_matroid(edges: Sequence[tuple[Hashable, Hashable, Hashable]]) -> Matroid:
    """Graphic matroid of an undirected multigraph given as (label, u, v)
    edges; loops and parallel edges are fine, repeated labels are not."""
    labels = [label for label, _, _ in edges]
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate edge labels")
    ends = [(u, v) for _, u, v in edges]
    return Matroid(labels, lambda mask: _forest_rank(e for i, e in enumerate(ends) if mask >> i & 1))
