"""Signed domination on the full component lattice.

Three routes to the same number, none of which enumerates path vector
subsets:

* a direct alternating sum over subsets of the support of the target
  vector (2^n terms, from Mobius inversion on the product lattice),
* a pivotal decomposition, splitting the box of top corners (each
  component at m_i - 1 or m_i) one component at a time, and
* a reduction to an associated binary structure on the component set,
  whose signed domination at (1, ..., 1) equals the multistate one.

At the top vector all three come down to the same signed sum over the
2^n top corners.  The subset formula and the binary route take it one
evaluation per corner and are the per-state reference.  The pivotal
route reads the corners from the system's own lane tabulator (see
systems._phi_lanes) and runs past the subset guard, so pivotal agreeing
with binary checks that tabulator against the structure function.  All
arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable

from .errors import ComplexityGuardError, DimensionError, DomainError
from .poset import Vector
from .systems import LevelSystem, _phi_lanes

# free components per chunk of the box of top corners: 2^9 corners, so a
# chunk's lanes stay a few hundred bytes whatever the number of components
_CHUNK_AXES = 9


def _alternating_sum(f: Callable[[Vector], int], y: Vector) -> int:
    """Sum of (-1)^(sum(y) - sum(x)) * f(x) over x with x_i in {y_i - 1, y_i}
    on the support of y and x_i = 0 off it: every signed domination and
    Crapo's beta come down to this sum.

    The corners x and their signs are exactly where the Mobius function
    mu(x, y) of the product of chains is non-zero, and its value there:
    mu is the product of the chain Mobius functions, 1 on the diagonal,
    -1 one step below and 0 further down (Rota 1964).  This is the one
    place the package evaluates mu.
    """
    corners = product(*((a - 1, a) if a else (0,) for a in y))
    return _signed_sum(map(f, corners), sum(1 for a in y if a))


def _signed_sum(values: Iterable[int], k: int) -> int:
    """Sum of (-1)^(k - popcount(i)) * values[i] over the 2^k values of a
    function on {0,1}^k in product order.  Reading each of the k support
    slots of y as down (y_i - 1, bit 0) or up (y_i, bit 1) makes the
    corners above this order, so this is the one sign loop."""
    total = 0
    for i, value in enumerate(values):
        if value:
            total += value if (k - i.bit_count()) % 2 == 0 else -value
    return total


def delta_at(ls: LevelSystem, y: Vector) -> int:
    """Signed domination of a level function at one state vector.

    delta(y) = sum over subsets B of the support A(y) of
    phi_k(x(B)) * (-1)^(|A(y)| - |B|), where x(B) keeps y on B, lowers y
    by one on A(y) \\ B and zeroes the rest.  The all-zero vector is
    outside the domain (its value is fixed by the support convention,
    not computed).  Supports of more than 25 components are refused
    before anything is evaluated.
    """
    ms = ls.max_states
    y = tuple(y)
    if len(y) != len(ms):
        raise DimensionError(f"vector of length {len(y)} for {len(ms)} components")
    if any(a < 0 or a > m for a, m in zip(y, ms)):
        raise DomainError(f"state vector {y} outside space {ms}")
    a = sum(1 for v in y if v > 0)
    if not a:
        raise DomainError("delta_at is undefined at the all-zero vector")
    if a > 25:
        raise ComplexityGuardError(
            f"support size {a} exceeds the subset guard (25); "
            "use pivotal_domination or a closed-form engine"
        )
    return _alternating_sum(ls, y)


def signed_domination(ls: LevelSystem) -> int:
    """Signed domination of the whole level function, delta at the top vector.

    Specialises delta_at to y = (m_1, ..., m_n), where the support is all
    of the component set.  Systems with no components evaluate to their
    constant structure value.
    """
    ms = ls.max_states
    if not ms:
        return ls(())
    return delta_at(ls, ms)


def pivotal_domination(ls: LevelSystem, pivot: int | None = None) -> int:
    """Signed domination by pivotal decomposition on the box of top corners.

    Only the corners where every component sits at m_i - 1 or m_i enter
    the signed domination, and each split of that box is
    d = d(pivot frozen at its top state) - d(pivot frozen one below top).
    Expanded down to single corners, the splits give each corner its
    sign (-1)^(number of components one below top), whatever the pivot
    and the split order, so the expanded sum is taken directly.

    The box is tabulated by the system's own lane arithmetic, with no
    evaluate call, in chunks of at most 2^9 corners: the leading
    components are fixed at m_i - 1 or m_i and the last ones are free.
    Corner j of a chunk has sign (-1)^(fixed components below top + free
    components - popcount(j)), so a chunk sums to two popcounts of its
    level indicator, one of all its lanes and one of the lanes of odd j.
    Memory stays flat in the number of components and, unlike
    signed_domination, this runs past the subset guard.
    """
    ms = ls.max_states
    if pivot is not None and not 0 <= pivot < len(ms):
        raise DomainError(f"pivot {pivot} outside 0..{len(ms) - 1}")
    n = len(ms)
    fixed = max(0, n - _CHUNK_AXES)
    # the chunk's bounds, changed in place; the fixed components start below top
    lo = [m - 1 for m in ms]
    hi = lo[:fixed] + list(ms[fixed:])
    odd: dict[int, int] = {}  # top bits of the lanes of odd j, by lane width
    total = 0
    for c in range(1 << fixed):
        if c:  # Gray code: chunk c moves one fixed component of chunk c - 1
            i = (c & -c).bit_length() - 1
            lo[i] = hi[i] = 2 * ms[i] - 1 - lo[i]
        value = _chunk_sum(ls, lo, hi, odd)
        # the fixed components below top number fixed at c = 0 and one more or
        # one fewer at each step, so their parity is that of fixed + c
        total += -value if (n + c) % 2 else value
    return total


def _chunk_sum(ls: LevelSystem, lo: list[int], hi: list[int], odd: dict[int, int]) -> int:
    """Sum of (-1)^popcount(j) * phi_k over the corners j of a box of
    extents 0 or 1, read from the system's lanes; its own function, so a
    chunk's lanes are freed before the next chunk is tabulated."""
    lanes, phi = _phi_lanes(ls.system, lo, hi, ls.level)
    holds = lanes.at_least(phi, ls.level * lanes.ones)
    if lanes.width not in odd:
        odd[lanes.width] = lanes.odd()
    return holds.bit_count() - 2 * (holds & odd[lanes.width]).bit_count()


@dataclass(frozen=True)
class BinaryStructure:
    """Monotone indicator on {0,1}^size.

    Slot i stands for component i of the structure it was derived from.
    `_func` returns 0 or 1 and is trusted with vectors the library builds
    itself; calling the structure validates its input.
    """

    size: int
    _func: Callable[[Vector], int]

    def __call__(self, z: Vector) -> int:
        z = tuple(z)
        if len(z) != self.size or any(b not in (0, 1) for b in z):
            raise DomainError(f"binary vector of length {self.size} expected, got {z}")
        return 1 if self._func(z) else 0


def associated_binary(ls: LevelSystem) -> BinaryStructure:
    """Binary structure with the same signed domination as the level function.

    psi(z) = phi_k(m - 1 + z): slot i up means component i at its top
    state, down means one below top.
    """
    ms = ls.max_states
    base = tuple(m - 1 for m in ms)
    return BinaryStructure(
        size=len(ms),
        _func=lambda z: ls(tuple(b + a for b, a in zip(base, z))),
    )


def binary_signed_domination(bs: BinaryStructure, *, guard: int = 25) -> int:
    """Signed domination of a binary structure at the all-ones vector.

    sum over subsets B of the slots of psi(1_B) * (-1)^(k - |B|).
    """
    k = bs.size
    if k == 0:
        return bs(())
    if k > guard:
        raise ComplexityGuardError(
            f"{k} binary components exceed the subset guard ({guard})"
        )
    return _alternating_sum(bs._func, (1,) * k)


def domination_via_binary(ls: LevelSystem, *, guard: int = 25) -> int:
    """Signed domination computed through the associated binary structure."""
    return binary_signed_domination(associated_binary(ls), guard=guard)
