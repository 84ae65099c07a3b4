"""Matroids by rank, beta, matroid systems and the splitting recursion."""

import math
import random
from itertools import combinations, compress, product

import pytest

from conftest import (
    BRIDGE_EDGES,
    binary_system,
    circuit_masks,
    circuit_paths,
    cycle_circuits,
    exhaustive_rank,
    link_paths,
)
from domikit import (
    ComplexityGuardError,
    DomainError,
    Matroid,
    MatroidSystemLink,
    beta_number,
    binary_signed_domination,
    crapo_beta,
    domination_from_beta,
    domination_invariant_recursion,
    domination_via_binary,
    graphic_matroid,
    link_structure,
    minimal_path_vectors,
    pivotal_domination,
    threshold_domination,
    uniform_matroid,
)

# the seven-edge example graph plus a terminal link x between the two terminals
BRIDGE_GRAPH = [(eid, u, v) for eid, u, v, _ in BRIDGE_EDGES] + [("x", "S", "T")]


def bridge_matroid():
    return graphic_matroid(BRIDGE_GRAPH)


def test_matroid_construction_checks():
    """Order of first appearance fixes the bit layout, repeats dropped;
    a subset that leaves the ground set is refused."""
    m = Matroid(["b", "a", "b", "c"], lambda mask: min(mask.bit_count(), 2))
    assert m.ground == ("b", "a", "c")
    assert m.index == {"b": 0, "a": 1, "c": 2}
    assert m.to_mask(["c", "b"]) == 0b101
    assert m.rank_mask(m.to_mask(["a", "b", "c"])) == 2
    with pytest.raises(DomainError):
        m.to_mask(["d"])
    with pytest.raises(DomainError):
        m.to_mask(["a", "d"])


def test_rank_basics():
    m = uniform_matroid(range(7), 4)
    assert m.rank_mask(m.to_mask([])) == 0
    assert m.rank_mask(m.to_mask(range(7))) == 4
    assert m.rank_mask(m.to_mask(range(3))) == 3
    gm = bridge_matroid()
    assert gm.rank_mask(gm.to_mask(gm.ground)) == 4  # five nodes, connected


def test_rank_equals_exhaustive():
    rng = random.Random(1)
    parallel = [(1, "a", "b"), (2, "a", "b"), (3, "b", "c"), (4, "c", "a")]
    matroids = [(uniform_matroid(range(6), 3), combinations(range(6), 4)),
                (bridge_matroid(), cycle_circuits(BRIDGE_GRAPH)),
                (graphic_matroid(parallel), cycle_circuits(parallel))]
    for m, circuits in matroids:
        masks = circuit_masks(m.ground, circuits)
        ground = list(m.ground)
        for _ in range(40):
            subset = [e for e in ground if rng.random() < 0.5]
            assert m.rank_mask(m.to_mask(subset)) == exhaustive_rank(masks, m.to_mask(subset))


def test_link_paths_uniform_is_k_out_of_n():
    n, k = 5, 3
    m = uniform_matroid(list(range(1, n + 1)) + ["x"], k)
    link = MatroidSystemLink(m, "x")
    assert link_paths(link) == {frozenset(c) for c in combinations(range(1, n + 1), k)}


def test_link_paths_triangle():
    m = graphic_matroid([(1, "a", "b"), (2, "b", "c"), ("x", "c", "a")])
    assert link_paths(MatroidSystemLink(m, "x")) == {frozenset({1, 2})}


def test_link_paths_bridge_graph():
    """Path sets through the terminal link are the source-sink path sets
    of the graph, worked out by hand."""
    link = MatroidSystemLink(bridge_matroid(), "x")
    expected = {
        frozenset({2, 7}), frozenset({1, 3, 7}), frozenset({1, 4, 6}),
        frozenset({2, 5, 6}), frozenset({1, 3, 5, 6}), frozenset({1, 4, 5, 7}),
        frozenset({2, 3, 4, 6}),
    }
    assert link_paths(link) == expected


def test_matroid_system_degenerate():
    """A loop terminal x is a circuit on its own, so the empty set is a
    path set: the structure is constant 1 and every route gives 0."""
    m = graphic_matroid([(1, "a", "b"), (2, "a", "b"), (3, "b", "c"), ("x", "c", "c")])
    link = MatroidSystemLink(m, "x")
    bs = link_structure(link)
    assert link_paths(link) == {frozenset()}
    assert all(bs(z) == 1 for z in product((0, 1), repeat=3))
    assert binary_signed_domination(bs) == 0
    assert domination_invariant_recursion(bs) == 0
    assert domination_from_beta(link, link.components) == 0
    assert beta_number(m) == 0


def test_link_terminal_must_exist():
    with pytest.raises(DomainError):
        MatroidSystemLink(uniform_matroid(range(3), 1), 99)


@pytest.mark.parametrize("terminal, message", [
    (99, "terminal 99 not in ground set"),
    ("x", "terminal 'x' not in ground set"),
    ((0,), "terminal (0,) not in ground set"),
])
def test_link_terminal_refusal_names_the_terminal(terminal, message):
    with pytest.raises(DomainError) as exc:
        MatroidSystemLink(uniform_matroid(range(3), 1), terminal)
    assert str(exc.value) == message


def indicator(link, subset):
    """The 0/1 slot vector of a component subset, slots in component order."""
    return tuple(1 if c in subset else 0 for c in link.components)


def test_structure_from_rank_uniform_threshold():
    n, k = 5, 3
    m = uniform_matroid(list(range(1, n + 1)) + ["x"], k)
    link = MatroidSystemLink(m, "x")
    phi = link_structure(link)
    for r in range(n + 1):
        for a in combinations(range(1, n + 1), r):
            assert phi(indicator(link, a)) == (1 if len(a) >= k else 0)


def test_structure_from_rank_path_indicator():
    link = MatroidSystemLink(bridge_matroid(), "x")
    phi = link_structure(link)
    paths = circuit_paths(cycle_circuits(BRIDGE_GRAPH), "x")
    components = link.components
    assert phi(indicator(link, components)) == 1
    assert phi(indicator(link, [])) == 0
    for r in range(len(components) + 1):
        for a in combinations(components, r):
            covered = any(p <= set(a) for p in paths)
            assert phi(indicator(link, a)) == (1 if covered else 0)


def test_crapo_beta_small_values():
    m = uniform_matroid(range(4), 2)
    assert crapo_beta(m, []) == 0
    assert beta_number(m) == 2
    loop = graphic_matroid([("e", "a", "a")])
    assert beta_number(loop) == 0
    coloop = graphic_matroid([("e", "a", "b")])
    assert beta_number(coloop) == 1


def test_crapo_beta_bridge():
    assert beta_number(bridge_matroid()) == 3


def test_crapo_beta_uniform_closed_form():
    """b of the k-out-of-n link matroid is C(n-1, k-1)."""
    for n in range(1, 7):
        for k in range(1, n + 1):
            m = uniform_matroid(list(range(1, n + 1)) + ["x"], k)
            assert beta_number(m) == math.comb(n - 1, k - 1)


def test_crapo_beta_nonnegative_on_subsets():
    matroids = [uniform_matroid(range(6), 3), bridge_matroid()]
    for m in matroids:
        for r in range(len(m.ground) + 1):
            for a in combinations(m.ground, r):
                assert crapo_beta(m, a) >= 0


def test_crapo_beta_guard():
    m = uniform_matroid(range(26), 2)
    with pytest.raises(ComplexityGuardError):
        crapo_beta(m, m.ground)


def test_domination_from_beta_bridge():
    link = MatroidSystemLink(bridge_matroid(), "x")
    assert domination_from_beta(link, link.components) == -3


def test_domination_from_beta_k_out_of_n():
    for n in range(1, 7):
        for k in range(1, n + 1):
            m = uniform_matroid(list(range(1, n + 1)) + ["x"], k)
            link = MatroidSystemLink(m, "x")
            d = domination_from_beta(link, link.components)
            assert d == (-1) ** (n - k) * math.comb(n - 1, k - 1)


def test_domination_from_beta_terminal_in_no_circuit():
    m = graphic_matroid([(1, "a", "b"), (2, "a", "b"), ("x", "b", "c")])
    link = MatroidSystemLink(m, "x")
    assert domination_from_beta(link, [1, 2]) == 0


def test_domination_from_beta_rejects_bad_subsets():
    link = MatroidSystemLink(bridge_matroid(), "x")
    with pytest.raises(DomainError):
        domination_from_beta(link, ["x", 1])
    with pytest.raises(DomainError):
        domination_from_beta(link, [])


def test_beta_sign_relation_matches_subset_formula():
    """The beta route and the direct alternating sum over the induced
    binary structure give the same signed domination."""
    links = [MatroidSystemLink(bridge_matroid(), "x")]
    for n, k in [(3, 1), (3, 2), (4, 2), (5, 3)]:
        m = uniform_matroid(list(range(1, n + 1)) + ["x"], k)
        links.append(MatroidSystemLink(m, "x"))
    for link in links:
        want = binary_signed_domination(link_structure(link))
        assert domination_from_beta(link, link.components) == want


def test_invariant_recursion_series_and_bridge():
    series = binary_system(3, lambda z: int(all(z)))
    assert domination_invariant_recursion(series) == 1
    bs = link_structure(MatroidSystemLink(bridge_matroid(), "x"))
    assert domination_invariant_recursion(bs) == 3


def test_invariant_recursion_k_out_of_n():
    for n in range(1, 8):
        for k in range(1, n + 1):
            bs = binary_system(n, lambda z, kk=k: int(sum(z) >= kk))
            assert domination_invariant_recursion(bs) == math.comb(n - 1, k - 1)


def test_invariant_recursion_equals_absolute_domination():
    """On random matroid systems the recursion agrees with the direct
    |signed domination|."""
    rng = random.Random(9)
    links = []
    for n, k in [(4, 2), (5, 2), (5, 4), (6, 3)]:
        m = uniform_matroid(list(range(1, n + 1)) + ["x"], k)
        links.append(MatroidSystemLink(m, "x"))
    for _ in range(8):
        nodes = rng.randint(3, 5)
        edges = [(i, rng.randrange(nodes), rng.randrange(nodes))
                 for i in range(1, rng.randint(4, 7))]
        edges.append(("x", 0, nodes - 1))
        link = MatroidSystemLink(graphic_matroid(edges), "x")
        if link.matroid.rank_mask(link.terminal_bit) == 0:
            continue  # x is a loop: the structure is constant 1
        links.append(link)
    for link in links:
        bs = link_structure(link)
        want = abs(binary_signed_domination(bs))
        assert domination_invariant_recursion(bs) == want


def test_invariant_recursion_irrelevant_pivot():
    # two disjoint circuits: components 1 and 2 never matter, and the
    # first split, on slot 0, is on component 1
    m = graphic_matroid([(1, "a", "b"), (2, "a", "b"), (3, "c", "d"), ("x", "c", "d")])
    bs = link_structure(MatroidSystemLink(m, "x"))
    assert binary_signed_domination(bs) == 0
    assert domination_invariant_recursion(bs) == 0


def test_invariant_recursion_trivial_structures():
    always = binary_system(2, lambda z: 1)
    never = binary_system(2, lambda z: 0)
    assert domination_invariant_recursion(always) == 0
    assert domination_invariant_recursion(never) == 0


def test_invariant_recursion_guard():
    """Past 25 slots the truth table is refused before the first evaluation."""
    class Evaluated(Exception):
        pass

    def func(z):
        raise Evaluated(z)

    with pytest.raises(ComplexityGuardError) as err:
        domination_invariant_recursion(binary_system(26, func))
    assert str(err.value) == "26 binary components exceed the recursion guard (25)"
    with pytest.raises(Evaluated):
        domination_invariant_recursion(binary_system(25, func))


def uniform_link(n, r):
    """U(r, n + 1) on 1..n and x, with its circuits, the (r + 1)-subsets."""
    ground = list(range(1, n + 1)) + ["x"]
    return MatroidSystemLink(uniform_matroid(ground, r), "x"), combinations(ground, r + 1)


def graphic_link(edges):
    """The graphic matroid of (label, u, v) edges, one of them x, with its
    circuits by the reference cycle search."""
    return MatroidSystemLink(graphic_matroid(edges), "x"), cycle_circuits(edges)


LINKS = {
    "uniform-2-5": lambda: uniform_link(4, 2),
    "uniform-3-7": lambda: uniform_link(6, 3),
    "graphic-k4": lambda: graphic_link([(1, "a", "b"), (2, "a", "c"), (3, "a", "d"),
                                        (4, "b", "c"), (5, "b", "d"), ("x", "c", "d")]),
    "bridge": lambda: graphic_link(BRIDGE_GRAPH),
    "loop-terminal": lambda: graphic_link([(1, "a", "b"), (2, "a", "b"), (3, "b", "c"),
                                           ("x", "c", "c")]),
    "coloop-terminal": lambda: graphic_link([(1, "a", "b"), (2, "a", "b"), ("x", "b", "c")]),
}


@pytest.mark.parametrize("name", LINKS)
def test_link_is_a_binary_system_every_route_takes(name):
    """A matroid link is level 1 of a system over {0,1}^|C|: the system
    routes take it and agree with beta, and its minimal path vectors are
    the circuits through x with x removed."""
    link, circuits = LINKS[name]()
    bs = link_structure(link)
    assert bs.max_states == (1,) * len(link.components)
    assert (bs.level, bs.system.system_max) == (1, 1)
    want = domination_from_beta(link, link.components)
    got = [pivotal_domination(bs), domination_via_binary(bs), binary_signed_domination(bs)]
    assert got == [want] * 3
    assert domination_invariant_recursion(bs) == abs(want)
    paths = minimal_path_vectors(bs)
    assert {frozenset(compress(link.components, p)) for p in paths} == circuit_paths(circuits, "x")


def test_threshold_domination_values():
    assert threshold_domination(4, 2, 4) == 0
    assert threshold_domination(4, 2, 7) == -3
    assert threshold_domination(3, 1, 2) == -2
    assert threshold_domination(1, 3, 3) == 1
    assert threshold_domination(2, 2, 2) == 0


def test_threshold_domination_domain():
    with pytest.raises(DomainError):
        threshold_domination(0, 2, 1)
    with pytest.raises(DomainError):
        threshold_domination(3, 2, 0)
    with pytest.raises(DomainError):
        threshold_domination(3, 2, 7)


def test_uniform_matroid_edge_cases():
    free = uniform_matroid(range(4), 4)
    assert all(free.rank_mask(mask) == mask.bit_count() for mask in range(16))
    assert free.rank_mask(free.to_mask(range(4))) == 4
    with pytest.raises(DomainError):
        uniform_matroid(range(3), 4)


def test_cycle_circuits_shapes():
    """The reference cycle search on shapes worked out by hand."""
    triangle = cycle_circuits([(1, "a", "b"), (2, "b", "c"), (3, "c", "a")])
    assert triangle == [frozenset({1, 2, 3})]
    with_loop = cycle_circuits([(1, "a", "b"), (2, "a", "a")])
    assert with_loop == [frozenset({2})]
    parallel = cycle_circuits([(1, "a", "b"), (2, "a", "b")])
    assert parallel == [frozenset({1, 2})]
    assert cycle_circuits([(1, "a", "b"), (2, "b", "c")]) == []
    square = [(1, "a", "b"), (2, "b", "c"), (3, "c", "d"), (4, "d", "a"), (5, "a", "c")]
    assert set(cycle_circuits(square)) == {
        frozenset({1, 2, 5}), frozenset({3, 4, 5}), frozenset({1, 2, 3, 4})}
