"""Circuit matroids, beta, matroid systems and the splitting recursion."""

import math
import random
from itertools import combinations

import pytest

from conftest import BRIDGE_EDGES
from domikit import (
    BinaryStructure,
    ComplexityGuardError,
    DegenerateSystemError,
    DomainError,
    Matroid,
    MatroidSystemLink,
    ValidationError,
    beta_number,
    binary_signed_domination,
    crapo_beta,
    cycle_circuits,
    domination_from_beta,
    domination_invariant_recursion,
    graphic_matroid,
    link_structure,
    matroid_system_paths,
    threshold_domination,
    uniform_matroid,
    validate_circuits,
)


def bridge_matroid():
    """Graphic matroid of the seven-edge example graph plus a terminal
    link x between the two terminals."""
    edges = [(eid, u, v) for eid, u, v, _ in BRIDGE_EDGES] + [("x", "S", "T")]
    return graphic_matroid(edges)


def test_matroid_construction_checks():
    with pytest.raises(ValidationError):
        Matroid([1, 2], [[1, 3]])
    with pytest.raises(ValidationError):
        Matroid([1, 2], [[]])
    m = Matroid([1, 2, 3], [[1, 2, 3], [1, 2]])
    assert m.circuits()[0] == frozenset({1, 2})  # sorted by size


def test_validate_circuits_uniform_valid():
    assert validate_circuits(uniform_matroid(range(6), 3)).ok


def test_validate_circuits_comparable_pair():
    result = validate_circuits(Matroid([1, 2, 3], [[1, 2], [1, 2, 3]]))
    assert not result.ok
    assert result.violation == ("comparable", frozenset({1, 2}), frozenset({1, 2, 3}))


def test_validate_circuits_elimination_failure():
    result = validate_circuits(Matroid([1, 2, 3], [[1, 2], [2, 3]]))
    assert result.status == "invalid"
    kind, c1, c2, e = result.violation
    assert kind == "elimination"
    assert e == 2


def test_validate_circuits_graphic_families():
    assert validate_circuits(bridge_matroid()).ok
    square = graphic_matroid([(1, "a", "b"), (2, "b", "c"), (3, "c", "d"), (4, "d", "a"), (5, "a", "c")])
    assert validate_circuits(square).ok


def test_validate_circuits_skip_warns():
    m = uniform_matroid(range(21), 2)
    with pytest.warns(UserWarning, match=r"^circuit validation skipped: 21 ground elements exceed guard \(20\)$"):
        result = validate_circuits(m)
    assert result.status == "skipped"


def test_rank_basics():
    m = uniform_matroid(range(7), 4)
    assert m.rank([]) == 0
    assert m.rank(range(7)) == 4
    assert m.rank(range(3)) == 3
    gm = bridge_matroid()
    assert gm.rank(gm.ground) == 4  # five nodes, connected


def test_rank_greedy_equals_exhaustive():
    rng = random.Random(1)
    matroids = [uniform_matroid(range(6), 3), bridge_matroid(),
                graphic_matroid([(1, "a", "b"), (2, "a", "b"), (3, "b", "c"), (4, "c", "a")])]
    for m in matroids:
        ground = list(m.ground)
        for _ in range(40):
            subset = [e for e in ground if rng.random() < 0.5]
            assert m.rank(subset) == m.rank(subset, exhaustive=True)


def test_matroid_system_paths_uniform_is_k_out_of_n():
    n, k = 5, 3
    m = uniform_matroid(list(range(1, n + 1)) + ["x"], k)
    link = MatroidSystemLink(m, "x")
    paths = matroid_system_paths(link)
    assert set(paths) == {frozenset(c) for c in combinations(range(1, n + 1), k)}


def test_matroid_system_paths_triangle():
    m = graphic_matroid([(1, "a", "b"), (2, "b", "c"), ("x", "c", "a")])
    assert matroid_system_paths(MatroidSystemLink(m, "x")) == (frozenset({1, 2}),)


def test_matroid_system_paths_bridge_graph():
    """Path sets through the terminal link are the source-sink path sets
    of the graph, worked out by hand."""
    link = MatroidSystemLink(bridge_matroid(), "x")
    expected = {
        frozenset({2, 7}), frozenset({1, 3, 7}), frozenset({1, 4, 6}),
        frozenset({2, 5, 6}), frozenset({1, 3, 5, 6}), frozenset({1, 4, 5, 7}),
        frozenset({2, 3, 4, 6}),
    }
    assert set(matroid_system_paths(link)) == expected


def test_matroid_system_degenerate():
    m = Matroid([1, "x"], [["x"]])
    with pytest.raises(DegenerateSystemError):
        matroid_system_paths(MatroidSystemLink(m, "x"))


def test_link_terminal_must_exist():
    with pytest.raises(DomainError):
        MatroidSystemLink(uniform_matroid(range(3), 1), 99)


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
    paths = matroid_system_paths(link)
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
    loop = Matroid(["e"], [["e"]])
    assert beta_number(loop) == 0
    coloop = Matroid(["e"], [])
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
    m = Matroid([1, 2, "x"], [[1, 2]])
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
    series = BinaryStructure(size=3, _func=lambda z: int(all(z)))
    assert domination_invariant_recursion(series) == 1
    bs = link_structure(MatroidSystemLink(bridge_matroid(), "x"))
    assert domination_invariant_recursion(bs) == 3
    assert domination_invariant_recursion(bs, base_size=0) == 3
    assert domination_invariant_recursion(bs, pivot=2) == 3


def test_invariant_recursion_k_out_of_n():
    for n in range(1, 8):
        for k in range(1, n + 1):
            bs = BinaryStructure(size=n, _func=lambda z, kk=k: int(sum(z) >= kk))
            assert domination_invariant_recursion(bs, base_size=3) == math.comb(n - 1, k - 1)


def test_invariant_recursion_equals_absolute_domination():
    """On random matroid systems the recursion agrees with the direct
    |signed domination|, whichever pivot starts the split."""
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
        try:
            matroid_system_paths(link)
        except DegenerateSystemError:
            continue
        links.append(link)
    for link in links:
        bs = link_structure(link)
        want = abs(binary_signed_domination(bs))
        assert domination_invariant_recursion(bs, base_size=2) == want
        for e in range(bs.size):
            assert domination_invariant_recursion(bs, pivot=e, base_size=2) == want


def test_invariant_recursion_irrelevant_pivot():
    # two disjoint circuits: components 1 and 2 never matter
    m = Matroid([1, 2, 3, "x"], [[1, 2], [3, "x"]])
    bs = link_structure(MatroidSystemLink(m, "x"))
    assert binary_signed_domination(bs) == 0
    for e in range(bs.size):
        assert domination_invariant_recursion(bs, pivot=e, base_size=0) == 0


def test_invariant_recursion_trivial_structures():
    always = BinaryStructure(size=2, _func=lambda z: 1)
    never = BinaryStructure(size=2, _func=lambda z: 0)
    assert domination_invariant_recursion(always) == 0
    assert domination_invariant_recursion(never) == 0
    with pytest.raises(DomainError):
        domination_invariant_recursion(always, pivot=5)


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
    assert free.circuit_masks == ()
    assert free.rank(range(4)) == 4
    with pytest.raises(DomainError):
        uniform_matroid(range(3), 4)


def test_cycle_circuits_shapes():
    triangle = cycle_circuits([(1, "a", "b"), (2, "b", "c"), (3, "c", "a")])
    assert triangle == (frozenset({1, 2, 3}),)
    with_loop = cycle_circuits([(1, "a", "b"), (2, "a", "a")])
    assert with_loop == (frozenset({2}),)
    parallel = cycle_circuits([(1, "a", "b"), (2, "a", "b")])
    assert parallel == (frozenset({1, 2}),)
    with pytest.raises(ComplexityGuardError):
        cycle_circuits([(i, i, i + 1) for i in range(20)])
    with pytest.raises(ValidationError):
        cycle_circuits([(1, "a", "b"), (1, "b", "c")])
