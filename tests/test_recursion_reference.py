"""The invariant recursion on one truth table against the earlier
re-evaluating recursion, kept here as the reference.

The reference below freezes slots one by one and calls the structure
again at every node of the recursion; the library version tabulates the
structure once and slices that table.  Both split on slot 0 down to the
0-slot minors and must give the same value on every monotone binary
system, matroid systems and others alike.  On a structure that does not
come from a matroid the value can depend on the split order, so these
cases also pin which slot each split fixes.  The reference still takes
a first pivot: on a matroid system every pivot gives the library value.
"""

import random
from functools import reduce
from itertools import product
from operator import or_

import pytest

from conftest import binary_system
from domikit import (
    MatroidSystemLink,
    binary_signed_domination,
    domination_invariant_recursion,
    graphic_matroid,
    link_structure,
    uniform_matroid,
)


def _freeze(frozen, component, value):
    position = component
    for i, _ in frozen:
        if i <= position:
            position += 1
    return tuple(sorted(frozen + ((position, value),)))


def _splice(x, frozen):
    for i, v in frozen:
        x = x[:i] + (v,) + x[i:]
    return x


def _alternating_sum(f, y):
    top = sum(y)
    total = 0
    for x in product(*((a - 1, a) if a else (0,) for a in y)):
        value = f(x)
        if value:
            total += value if (top - sum(x)) % 2 == 0 else -value
    return total


def reference_recursion(bs, pivot=None, *, memo_size=14):
    memo = {}
    func = bs.system._func

    def run(frozen, forced):
        k = len(bs.max_states) - len(frozen)

        def b(z):
            return func(_splice(z, frozen))

        if k == 0:
            return b(())
        if b((1,) * k) == 0 or b((0,) * k) == 1:
            return 0
        key = None
        if forced is None and k <= memo_size:
            bits = 0
            for i, z in enumerate(product((0, 1), repeat=k)):
                if b(z):
                    bits |= 1 << i
            key = (k, bits)
            cached = memo.get(key)
            if cached is not None:
                return cached
        e = forced if forced is not None else 0
        up = _freeze(frozen, e, 1)
        down = _freeze(frozen, e, 0)
        if all(func(_splice(z, up)) == func(_splice(z, down))
               for z in product((0, 1), repeat=k - 1)):
            value = 0
        else:
            value = run(up, None) + run(down, None)
        if key is not None:
            memo[key] = value
        return value

    return run((), pivot)


def random_monotone(rng: random.Random, size: int, coherent: bool):
    """phi(z) = 1 iff z covers one of a few slot sets.  Random sets give
    any monotone structure, constant ones included, but mostly one with an
    irrelevant slot, whose value is 0; a coherent one grows an antichain
    of sets until their union is every slot."""
    if not coherent:
        masks = [rng.getrandbits(size) for _ in range(rng.randint(0, 4))]
    else:
        masks = []
        while reduce(or_, masks, 0) != (1 << size) - 1:
            m = sum(1 << i for i in rng.sample(range(size), rng.randint(1, min(size, 4))))
            if not any(s & m == s for s in masks):
                masks = [s for s in masks if s & m != m] + [m]

    def func(z):
        held = sum(1 << i for i, zi in enumerate(z) if zi)
        return int(any(m & held == m for m in masks))

    return binary_system(size, func)


def matroid_structures(rng: random.Random):
    for n, r in [(1, 1), (3, 2), (4, 1), (5, 3), (6, 4), (7, 3), (9, 5)]:
        yield link_structure(MatroidSystemLink(uniform_matroid(list(range(n)) + ["x"], r), "x"))
    while True:
        nodes = rng.randint(2, 5)
        edges = [(i, rng.randrange(nodes), rng.randrange(nodes))
                 for i in range(rng.randint(1, 9))]
        link = MatroidSystemLink(graphic_matroid(edges + [("x", 0, nodes - 1)]), "x")
        if link.matroid.rank_mask(link.terminal_bit) == 0:
            continue  # x is a loop: the structure is constant 1
        yield link_structure(link)


def cases():
    """(structure, whether it comes from a matroid), named by size."""
    rng = random.Random(2)
    structures = [(random_monotone(rng, size, coherent), False)
                  for size in range(10) for coherent in (False, True, True, True)]
    matroids = matroid_structures(rng)
    structures += [(next(matroids), True) for _ in range(17)]
    return [pytest.param(bs, matroid, id=f"{'matroid' if matroid else 'monotone'}{len(bs.max_states)}")
            for bs, matroid in structures]


@pytest.mark.parametrize("bs, matroid", cases())
def test_recursion_matches_the_reference(bs, matroid):
    size = len(bs.max_states)
    value = domination_invariant_recursion(bs)
    assert value == reference_recursion(bs)
    for pivot in range(size) if matroid else ():
        assert reference_recursion(bs, pivot) == value, pivot
    # the recursion sums unsigned halves; the signed sum itself is held here,
    # at size 0 too, where it is phi(())
    assert binary_signed_domination(bs) == _alternating_sum(bs.system._func, (1,) * size)


@pytest.mark.parametrize("size", range(17))
def test_recursion_evaluates_each_vector_once(size):
    """One structure evaluation per vector of {0,1}^size, whatever the
    depth of the recursion."""
    calls = 0

    def func(z):
        nonlocal calls
        calls += 1
        return int(sum(z) > size // 2)

    domination_invariant_recursion(binary_system(size, func))
    assert calls == 2 ** size

