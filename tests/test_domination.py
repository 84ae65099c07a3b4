"""Full-lattice subset formula, pivotal recursion, associated binary."""

import operator
import random
import tracemalloc
from itertools import combinations, permutations, product

import pytest

from conftest import (
    bare_systems,
    frozen_level,
    lane_kinds,
    lex_values,
    make_random_system,
    network,
    oracle_subset_delta,
    vectors,
)
from domikit import (
    ComplexityGuardError,
    DomainError,
    MultistateSystem,
    associated_binary,
    binary_signed_domination,
    delta_at,
    domination_by_closure_mobius,
    domination_via_binary,
    join_closure,
    network_system,
    path_vector_system,
    pivotal_domination,
    sum_system,
    table_system,
    threshold_domination,
)
from domikit.domination import _EVEN, _ODD, _signed_sum

FOUR_GENS = [(2, 1, 1, 0), (1, 2, 0, 1), (1, 0, 2, 1), (0, 1, 1, 2)]


def four_gen_level():
    return path_vector_system((2, 2, 2, 2), {1: FOUR_GENS}).level(1)


def test_mobius_product_box_identity():
    """Summing mu(x, u) over x <= u <= y is the delta function, the
    defining property of a Mobius function.  delta_at applies mu(., y)
    of the product of chains, so on the up-set of one vector x it must
    return 1 at y = x and 0 everywhere else."""
    box = list(product(range(3), repeat=2))
    for x in box[1:]:
        upset = path_vector_system((2, 2), {1: [x]}).level(1)
        for y in box[1:]:
            assert delta_at(upset, y) == (1 if x == y else 0)


def test_delta_at_pins_components_off_the_support():
    """delta(y) only reads phi with the components off the support of y at
    0: freezing them there leaves delta unchanged, and at the top of what
    is left it is the signed domination of the associated binary system."""
    for seed in range(10):
        system = make_random_system(seed)
        for k in range(1, system.system_max + 1):
            ls = system.level(k)
            for y in vectors(system.max_states):
                support = [i for i, v in enumerate(y) if v > 0]
                if not support:
                    continue
                pinned = frozen_level(ls, {i: 0 for i in range(len(y)) if i not in support})
                y_s = tuple(y[i] for i in support)
                assert delta_at(pinned, y_s) == delta_at(ls, y)
                if y_s == pinned.max_states:
                    assert domination_via_binary(pinned) == delta_at(ls, y)


def test_delta_at_worked_values():
    ls = four_gen_level()
    assert delta_at(ls, (2, 2, 1, 1)) == -1
    assert delta_at(ls, (2, 1, 1, 0)) == 1
    assert delta_at(ls, (2, 2, 2, 2)) == -1


def test_delta_at_rejects_zero_vector():
    with pytest.raises(DomainError):
        delta_at(four_gen_level(), (0, 0, 0, 0))


def test_delta_at_outside_space():
    with pytest.raises(DomainError):
        delta_at(four_gen_level(), (3, 0, 0, 0))


def test_delta_at_guard():
    """A support of 26 components is refused before any evaluation; one
    of 25 passes the guard and reaches the first evaluation."""
    def unreachable(x):
        raise AssertionError(f"evaluated {x} past the guard")

    big = MultistateSystem((1,) * 26, 1, "sum", unreachable).level(1)
    with pytest.raises(ComplexityGuardError,
                       match=r"^support size 26 exceeds the subset guard \(25\); "):
        delta_at(big, (1,) * 26)
    with pytest.raises(AssertionError, match="past the guard"):
        delta_at(big, (0,) + (1,) * 25)


def test_delta_at_agrees_with_closure_table_everywhere():
    """The subset formula extends the closure table by zero: equal on the
    closure, zero off it, for every non-zero vector of the lattice."""
    ls = four_gen_level()
    table = domination_by_closure_mobius(join_closure(FOUR_GENS))
    for y in product(range(3), repeat=4):
        if y == (0, 0, 0, 0):
            continue
        assert delta_at(ls, y) == table.get(y, 0)


def test_delta_at_matches_independent_oracle_on_random_systems():
    for seed in range(15):
        system = make_random_system(seed)
        for k in range(1, system.system_max + 1):
            ls = system.level(k)
            for y in vectors(system.max_states):
                if all(v == 0 for v in y):
                    continue
                assert delta_at(ls, y) == oracle_subset_delta(ls, y)


def top_delta(ls):
    """The signed domination of the whole level function: delta at the top."""
    return delta_at(ls, ls.max_states)


def test_top_delta_worked_values():
    assert top_delta(sum_system([2, 2, 2, 2]).level(4)) == 0
    series = path_vector_system((1, 1, 1), {1: [(1, 1, 1)]})
    assert top_delta(series.level(1)) == 1
    assert top_delta(sum_system([1, 1, 1]).level(2)) == -2


def test_domination_via_binary_empty_system():
    """With no components left the level function is a constant, and the
    binary route returns it."""
    ls = sum_system([2]).level(1)
    reduced = frozen_level(ls, {0: 2})
    assert reduced.max_states == ()
    assert domination_via_binary(reduced) == 1


def test_pivotal_level_four():
    ls = sum_system([2, 2, 2, 2]).level(4)
    assert pivotal_domination(ls) == 0
    # the two branch values behind a split on the last component
    assert top_delta(frozen_level(ls, {3: 2})) == 0
    assert top_delta(frozen_level(ls, {3: 1})) == 0


def test_pivotal_level_five():
    ls = sum_system([2, 2, 2, 2]).level(5)
    assert pivotal_domination(ls) == top_delta(ls)


def test_pivotal_binary_case_is_state_split():
    """On binary components a split is the plain 0/1 split."""
    ls = sum_system([1, 1, 1]).level(2)
    d1 = top_delta(frozen_level(ls, {0: 1}))
    d0 = top_delta(frozen_level(ls, {0: 0}))
    assert pivotal_domination(ls) == d1 - d0 == -2


def test_evaluate_called_once_per_structure_evaluation(monkeypatch):
    calls = []
    evaluate = MultistateSystem.evaluate

    def counted(system, x):
        calls.append(tuple(x))
        return evaluate(system, x)

    monkeypatch.setattr(MultistateSystem, "evaluate", counted)
    ls = sum_system([1] * 12).level(6)
    assert domination_via_binary(ls) == threshold_domination(12, 1, 6)
    assert len(calls) == 2**12
    # each corner of the box of top corners once, and nothing else
    assert set(calls) == set(product((0, 1), repeat=12))
    # pivotal reads the box from the lane tabulator, with no evaluate call
    calls.clear()
    assert pivotal_domination(ls) == threshold_domination(12, 1, 6)
    assert calls == []
    # on mixed state ranges too: binary visits the box of top corners
    ls = sum_system([2, 1, 3, 2, 2]).level(7)
    ms = ls.max_states
    want = top_delta(ls)
    calls.clear()
    assert domination_via_binary(ls) == want
    assert sorted(calls) == sorted(product(*((m - 1, m) for m in ms)))
    calls.clear()
    assert pivotal_domination(ls) == want
    assert calls == []


@pytest.mark.memory
def test_pivotal_holds_no_table_of_the_box():
    """Past the subset guard pivotal is the only route, so it keeps no
    value per corner: its peak allocation over 2^14 corners stays below
    half a byte per corner, and over 2^20 corners under the same bound.
    One untraced call first pays the allocations any first call makes
    (free lists, frames), which an earlier test may or may not have paid,
    so the verdict does not depend on which tests ran before."""
    for n in (14, 20):
        ls = sum_system([1] * n).level(n // 2)
        want = threshold_domination(n, 1, n // 2)
        pivotal_domination(ls)  # pivotal keeps nothing on ls between calls
        tracemalloc.start()
        try:
            got = pivotal_domination(ls)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2**14 // 2, (n, peak)


def test_pivotal_matches_subset_formula_on_random_systems():
    for seed in range(15):
        system = make_random_system(seed)
        for k in range(1, system.system_max + 1):
            ls = system.level(k)
            assert pivotal_domination(ls) == top_delta(ls)


def test_pivotal_lanes_agree_with_binary_on_every_kind():
    """Pivotal reads the box of top corners from the system's lanes and
    binary evaluates each corner through evaluate: equal at every level
    of every kind, bare structure functions and n = 0 included."""
    for system in lane_kinds() + bare_systems():
        for k in range(1, system.system_max + 1):
            ls = system.level(k)
            assert pivotal_domination(ls) == domination_via_binary(ls), (system, k)


def test_associated_binary_is_a_system_every_route_takes():
    """The associated binary system is level 1 of a system over {0,1}^n,
    so pivotal decomposition and the binary route take it as they take
    any level function, and give the level function's value: at every
    level of every kind, n = 0 included."""
    for system in lane_kinds():
        for k in range(1, system.system_max + 1):
            ls = system.level(k)
            bs = associated_binary(ls)
            assert bs.max_states == (1,) * len(ls.max_states)
            assert (bs.level, bs.system.system_max) == (1, 1)
            want = pivotal_domination(ls)
            assert [pivotal_domination(bs), domination_via_binary(bs)] == [want] * 2, (system, k)


def chunk_edge_systems(n):
    """Every kind on n components, n around the 2^9 corners of a chunk."""
    rng = random.Random(n)
    ms = [rng.randint(1, 2) for _ in range(n)]
    # a series of hops of two parallel unit edges, every edge strongly relevant,
    # the last hop one edge of capacity 2 when n is odd
    nodes = ["S"] + [f"v{i}" for i in range((n - 1) // 2)] + ["T"]
    net = network(nodes, [(i + 1, nodes[i // 2], nodes[i // 2 + 1], rng.random() < 0.5,
                           1 + (i == n - 1 and n % 2)) for i in range(n)], "S", "T")
    weights = [rng.randint(1, 3) for _ in range(n)]
    return [
        network_system(net),
        sum_system([1] * n),
        sum_system(ms, weights),
        table_system([1] * n, [min(4, sum(w * a for w, a in zip(weights, x)) // 3)
                               for x in product((0, 1), repeat=n)]),
        path_vector_system([1] * n, {
            1: [tuple(int(i in c) for i in range(n)) for c in combinations(range(n), n - 3)],
            2: [(1,) * n]}),
        frozen_level(sum_system([1] * (n + 1)).level(n // 2 + 1), {n: 1}).system,
    ]


@pytest.mark.parametrize("n", [9, 10, 13])
def test_pivotal_across_the_chunk_edge(n):
    """One chunk at n = 9, two at 10 and sixteen at 13: pivotal equals the
    per-corner binary route at the lowest, middle and top levels."""
    for system in chunk_edge_systems(n):
        top = system.system_max
        for k in sorted({1, (top + 1) // 2, top}):
            ls = system.level(k)
            assert pivotal_domination(ls) == domination_via_binary(ls), (system.kind, k)


def test_pivotal_on_four_million_corners():
    """22 components: 8 192 chunks, a few hundred ms, where one evaluate
    call per corner takes tens of seconds."""
    assert pivotal_domination(sum_system([1] * 22).level(11)) == threshold_domination(22, 1, 11)


def test_every_route_takes_its_signs_from_the_one_sign_loop(monkeypatch):
    """With the parity masks of the sign loop swapped, every route over
    the 2^12 top corners of a 12-component sum returns the negated value:
    pivotal, the binary route, the subset formula and the binary
    structure's own sum keep no signs of their own."""
    ls = sum_system([1] * 12).level(6)
    routes = [pivotal_domination, domination_via_binary,
              lambda ls: delta_at(ls, ls.max_states),
              lambda ls: binary_signed_domination(associated_binary(ls))]
    want = threshold_domination(12, 1, 6)
    assert want and [route(ls) for route in routes] == [want] * 4
    monkeypatch.setattr("domikit.domination._EVEN", _ODD)
    monkeypatch.setattr("domikit.domination._ODD", _EVEN)
    assert [route(ls) for route in routes] == [-want] * 4


def test_associated_binary_threshold_shift():
    """The binary shadow of a sum-system level is a lower threshold
    structure on the top two states."""
    ls = sum_system([2, 2, 2, 2]).level(7)
    psi = associated_binary(ls)
    assert psi.max_states == (1,) * 4 and psi.system.system_max == 1
    for z in product((0, 1), repeat=4):
        assert psi(z) == (1 if sum(z) >= 3 else 0)


def test_associated_binary_constant_when_threshold_low():
    psi = associated_binary(sum_system([2, 2, 2, 2]).level(4))
    assert all(psi(z) == 1 for z in product((0, 1), repeat=4))
    assert binary_signed_domination(psi) == 0


def test_associated_binary_identity_on_binary_systems():
    ls = sum_system([1, 1, 1]).level(2)
    psi = associated_binary(ls)
    for z in product((0, 1), repeat=3):
        assert psi(z) == ls(z)


def test_associated_binary_rejects_bad_input():
    psi = associated_binary(sum_system([1, 1]).level(1))
    with pytest.raises(DomainError):
        psi((1,))
    with pytest.raises(DomainError):
        psi((2, 0))


def test_binary_signed_domination_guard_and_empty():
    psi = associated_binary(sum_system([1] * 26).level(1))
    with pytest.raises(ComplexityGuardError) as err:
        binary_signed_domination(psi)
    assert str(err.value) == "26 binary components exceed the subset guard (25)"
    with pytest.raises(ComplexityGuardError) as err:
        domination_via_binary(sum_system([1] * 26).level(1))
    assert str(err.value) == "26 binary components exceed the subset guard (25)"
    ls = frozen_level(sum_system([1]).level(1), {0: 1})
    assert binary_signed_domination(associated_binary(ls)) == 1
    assert domination_via_binary(ls) == 1


def _signed_sum_by_term(values, k):
    """The per-term sign loop that _signed_sum sums in chunks."""
    total = 0
    for i, value in enumerate(values):
        total += value if (k - i.bit_count()) % 2 == 0 else -value
    return total


@pytest.mark.parametrize("k", range(14))
def test_signed_sum_matches_the_per_term_sign_loop(k):
    """Part of a chunk below k = 9, one chunk of 2^9 terms at 9, two at 10
    and sixteen at 13; values negative and above 1, given as a list, as
    bytes and as a lazy map."""
    rng = random.Random(k)
    values = [rng.randint(-3, 5) for _ in range(1 << k)]
    counts = bytes(rng.randint(0, 3) for _ in range(1 << k))
    want = _signed_sum_by_term(values, k)
    assert _signed_sum(values, k) == want
    assert _signed_sum(map(operator.neg, values), k) == -want
    assert _signed_sum(counts, k) == _signed_sum_by_term(counts, k)
    # one term alone keeps its own sign, first and last of every chunk included
    for i in {0, (1 << k) - 1} | {c + j for c in range(0, 1 << k, 512) for j in (0, 511)}:
        if i < 1 << k:
            one = [0] * (1 << k)
            one[i] = 3
            assert _signed_sum(one, k) == (3 if (k - i.bit_count()) % 2 == 0 else -3), i
    assert type(_signed_sum(iter(()), 0)) is int and _signed_sum([5], 0) == 5


def test_domination_via_binary_equals_subset_formula():
    for seed in range(15):
        system = make_random_system(seed)
        for k in range(1, system.system_max + 1):
            ls = system.level(k)
            assert domination_via_binary(ls) == top_delta(ls)


def test_permutation_invariance_of_delta():
    """Relabeling components permutes the domination table accordingly."""
    system = make_random_system(7)
    n = len(system.max_states)
    for k in range(1, system.system_max + 1):
        ls = system.level(k)
        base = {y: delta_at(ls, y)
                for y in vectors(system.max_states) if any(y)}
        for perm in permutations(range(n)):
            permuted_states = tuple(system.max_states[perm[i]] for i in range(n))

            def permuted_phi(x, _p=perm):
                return system.evaluate(tuple(x[_p.index(i)] for i in range(n)))

            ptab = {}
            for y, d in base.items():
                ptab[tuple(y[perm[i]] for i in range(n))] = d
            ptable = {x: permuted_phi(x) for x in product(*(range(m + 1) for m in permuted_states))}
            psys = table_system(permuted_states, lex_values(permuted_states, ptable))
            pls = psys.level(k)
            for y, d in ptab.items():
                assert delta_at(pls, y) == d
