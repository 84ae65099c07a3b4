"""Signed domination on the full component lattice.

Three routes to the same number, none of which enumerates path vector
subsets:

* a direct alternating sum over subsets of the support of the target
  vector (2^n terms, from Mobius inversion on the product lattice),
* a pivotal decomposition, splitting the box of top corners (each
  component at m_i - 1 or m_i) one component at a time, and
* a reduction to the associated binary system on the component set, a
  level-1 system over {0,1}^n whose signed domination at (1, ..., 1)
  equals the multistate one.

At the top vector all three come down to the same signed sum over the
2^n top corners, and all three take its signs from one loop, which
sums in C, 2^9 terms at a time (see _signed_chunks).  The subset formula
and the binary route take the corners one evaluate call each and are
the per-state reference.  The pivotal route reads their level tables
from the system's own lane tabulator (see systems._level_table) and
runs past the subset guard, so pivotal agreeing with binary checks that
tabulator against the structure function.  All arithmetic is exact
integer arithmetic.
"""

from __future__ import annotations

from itertools import compress, islice, product, repeat
from operator import ge
from typing import Iterable, Sequence

from .errors import ComplexityGuardError, DimensionError, DomainError
from .poset import Vector
from .systems import LevelSystem, _binary_system, _level_table

# free components per chunk of the box of top corners: 2^9 corners, so a
# chunk's lanes stay a few hundred bytes whatever the number of components
_CHUNK_AXES = 9

# Thue-Morse parity masks of the indices j < 2^9: _ODD[j] is 1 where
# popcount(j) is odd and _EVEN[j] where it is even, so compress(chunk,
# _EVEN) keeps the terms of a chunk at an even number of slots up
_ODD = bytes(j.bit_count() & 1 for j in range(1 << _CHUNK_AXES))
_EVEN = bytes(1 - b for b in _ODD)


def _alternating_sum(ls: LevelSystem, y: Vector) -> int:
    """Sum of (-1)^(sum(y) - sum(x)) * phi_k(x) over x with x_i in
    {y_i - 1, y_i} on the support of y and x_i = 0 off it: the subset
    formula and the binary route at the top vector.

    One evaluate call per corner, in product order; thresholding and
    summing run in C (see _signed_sum).
    """
    corners = product(*((a - 1, a) if a else (0,) for a in y))
    holds = map(ge, map(ls.system.evaluate, corners), repeat(ls.level))
    return _signed_sum(holds, sum(1 for a in y if a))


def _signed_sum(values: Iterable[int], k: int) -> int:
    """_signed_chunks of a stream of values, cut into chunks of 2^9."""
    values = iter(values)
    return _signed_chunks(iter(lambda: list(islice(values, len(_EVEN))), []), k)


def _signed_chunks(chunks: Iterable[Sequence[int]], k: int) -> int:
    """Sum of (-1)^(k - popcount(i)) * values[i] over the 2^k values of a
    function on {0,1}^k in product order, chunk c holding values[c * 2^9
    + j] at j (a last chunk may be shorter): every signed domination and
    Crapo's beta come down to this sum.

    Reading each of the k support slots of y as down (y_i - 1, bit 0) or
    up (y_i, bit 1), the signs are exactly the Mobius function mu(x, y)
    of the product of chains where it is non-zero: mu is the product of
    the chain Mobius functions, 1 on the diagonal, -1 one step below and
    0 further down (Rota 1964).  This is the one place the package
    evaluates mu.

    Each chunk is summed by two C-level sums through the Thue-Morse
    parity masks: popcount(c * 2^9 + j) = popcount(c) + popcount(j), so
    chunk c is its even-j sum minus its odd-j sum, signed by
    (-1)^(k - popcount(c)).
    """
    total = 0
    for c, value in enumerate(map(_even_minus_odd, chunks)):
        total += -value if (k - c.bit_count()) % 2 else value
    return total


def _even_minus_odd(chunk: Sequence[int]) -> int:
    """A chunk's terms at even j summed, minus those at odd j.  Mapped over
    the chunks, so each chunk is freed before the next one is made."""
    return sum(compress(chunk, _EVEN)) - sum(compress(chunk, _ODD))


def delta_at(ls: LevelSystem, y: Vector) -> int:
    """Signed domination of a level function at one state vector.

    delta(y) = sum over subsets B of the support A(y) of
    phi_k(x(B)) * (-1)^(|A(y)| - |B|), where x(B) keeps y on B, lowers y
    by one on A(y) \\ B and zeroes the rest.  The all-zero vector is
    outside the domain (its value is fixed by the support convention,
    not computed).  At the top vector it is the signed domination of the
    whole level function.  Supports of more than 25 components are
    refused before anything is evaluated.
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


def pivotal_domination(ls: LevelSystem) -> int:
    """Signed domination by pivotal decomposition on the box of top corners.

    Only the corners where every component sits at m_i - 1 or m_i enter
    the signed domination, and each split of that box is
    d = d(pivot frozen at its top state) - d(pivot frozen one below top).
    Expanded down to single corners, the splits give each corner its
    sign (-1)^(number of components one below top), whatever the split
    order, so the expanded sum is taken directly.

    The box is tabulated by the system's own lane arithmetic, with no
    evaluate call, in chunks of at most 2^9 corners in product order:
    the leading components are fixed at m_i - 1 or m_i and the last ones
    are free.  Each chunk's level table goes as it is to the signed sum
    (see _signed_chunks), so memory stays flat in the number of
    components and, unlike delta_at, this runs past the subset guard.
    """
    ms = ls.max_states
    fixed = max(0, len(ms) - _CHUNK_AXES)
    lo, hi = [m - 1 for m in ms[fixed:]], ms[fixed:]
    tops = product(*([m - 1, m] for m in ms[:fixed]))  # the fixed components
    return _signed_chunks((_level_table(ls, [*top, *lo], [*top, *hi]) for top in tops), len(ms))


def associated_binary(ls: LevelSystem) -> LevelSystem:
    """The associated binary system, with the same signed domination as
    the level function.

    psi(z) = phi_k(m - 1 + z): slot i up means component i at its top
    state, down means one below top.  It is the level-1 cut of a system
    over {0,1}^n, so every route that takes a level function takes it.
    """
    ms = ls.max_states
    base = tuple(m - 1 for m in ms)
    return _binary_system(len(ms), lambda z: ls(tuple(b + a for b, a in zip(base, z))))


def binary_signed_domination(bs: LevelSystem) -> int:
    """Signed domination of a binary system at the all-ones vector.

    sum over subsets B of the slots of psi(1_B) * (-1)^(k - |B|).  psi
    is read from the structure function, one call per slot vector, with
    no range check: the vectors are the ones product builds.
    """
    k = len(bs.max_states)
    if k > 25:
        raise ComplexityGuardError(f"{k} binary components exceed the subset guard (25)")
    return _signed_sum(map(bs.system._func, product((0, 1), repeat=k)), k)


def domination_via_binary(ls: LevelSystem) -> int:
    """Signed domination computed through the associated binary system.

    psi(z) = phi_k(m - 1 + z) over {0,1}^n in product order is phi_k over
    the box of top corners in product order, so psi is read there
    directly: one evaluate call per corner.
    """
    k = len(ls.max_states)
    if k > 25:
        raise ComplexityGuardError(f"{k} binary components exceed the subset guard (25)")
    return _alternating_sum(ls, ls.max_states)
