"""Rank oracles of uniform and graphic matroids against circuit families.

uniform_matroid ranks by min(|A|, r) and graphic_matroid by union-find;
neither reads a circuit.  The references are the circuit families worked
out independently, every (r+1)-subset and the cycles found by subset
search, with the ranks they fix: the greedy circuit scan and the largest
circuit-free subset.  The rank axioms are checked on the oracles alone.
"""

import random
from itertools import combinations

import pytest

from conftest import (
    circuit_masks,
    circuit_paths,
    cycle_circuits,
    exhaustive_rank,
    greedy_rank,
    link_paths,
)
from domikit import (
    Matroid,
    MatroidSystemLink,
    ValidationError,
    beta_number,
    binary_signed_domination,
    domination_from_beta,
    domination_invariant_recursion,
    graphic_matroid,
    link_structure,
    uniform_matroid,
)


def random_multigraphs(count, seed=13):
    """Edge lists of up to 9 edges on up to 6 vertices; loops, parallel
    edges and disconnected graphs all occur (checked by the caller)."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        nodes = rng.randint(1, 6)
        edges = [(f"e{i}", rng.randrange(nodes), rng.randrange(nodes))
                 for i in range(rng.randint(1, 9))]
        rng.shuffle(edges)
        graphs.append(edges)
    return graphs


def components(edges):
    parent = {}

    def find(a):
        while parent.setdefault(a, a) != a:
            a = parent[a]
        return a

    for _, u, v in edges:
        parent[find(u)] = find(v)
    return len({find(a) for a in list(parent)})


GRAPHS = random_multigraphs(24)
# every shape the union-find must handle occurs
assert any(u == v for edges in GRAPHS for _, u, v in edges)
assert any(len({frozenset((u, v)) for _, u, v in edges if u != v})
           < sum(u != v for _, u, v in edges) for edges in GRAPHS)
assert any(components(edges) > 1 for edges in GRAPHS)

# (matroid, its ground set, its circuit family) builders
CASES = [
    *[pytest.param(lambda n=n, r=r: (uniform_matroid(range(n), r), tuple(range(n)),
                                     list(combinations(range(n), r + 1))),
                   id=f"U_{r},{n}")
      for n in range(8) for r in range(n + 1)],
    *[pytest.param(lambda edges=edges: (graphic_matroid(edges), tuple(e[0] for e in edges),
                                        cycle_circuits(edges)),
                   id=f"graph{i}")
      for i, edges in enumerate(GRAPHS)],
]


@pytest.mark.parametrize("build", CASES)
def test_rank_oracle_matches_circuit_scan_on_every_subset(build):
    m, ground, circuits = build()
    assert m.ground == ground
    masks = circuit_masks(ground, circuits)
    ranks = [m.rank_mask(mask) for mask in range(1 << len(ground))]
    assert ranks == [greedy_rank(masks, mask) for mask in range(1 << len(ground))]
    assert ranks == [exhaustive_rank(masks, mask) for mask in range(1 << len(ground))]


@pytest.mark.parametrize("build", CASES)
def test_rank_oracle_satisfies_the_rank_axioms(build):
    """r(empty) = 0, one more element raises the rank by 0 or 1, and
    r(A + e) + r(A + f) >= r(A + e + f) + r(A): the rank axioms in local
    form, checked on the oracle alone, without the circuit references."""
    m, ground, _ = build()
    n = len(ground)
    r = [m.rank_mask(mask) for mask in range(1 << n)]
    assert r[0] == 0
    for mask in range(1 << n):
        outside = [1 << i for i in range(n) if not mask >> i & 1]
        for e in outside:
            assert r[mask | e] - r[mask] in (0, 1)
        for e, f in combinations(outside, 2):
            assert r[mask | e] + r[mask | f] >= r[mask | e | f] + r[mask]


@pytest.mark.parametrize("build", CASES)
def test_link_paths_are_the_circuits_through_the_terminal(build):
    m, _, circuits = build()
    for terminal in m.ground:
        assert link_paths(MatroidSystemLink(m, terminal)) == circuit_paths(circuits, terminal)


# a link needs a component besides its terminal
@pytest.mark.parametrize("build", [c for c in CASES if len(c.values[0]()[1]) >= 2])
def test_beta_routes_match_the_circuit_scan_rank(build):
    m, ground, circuits = build()
    masks = circuit_masks(ground, circuits)
    scan = Matroid(ground, lambda mask: greedy_rank(masks, mask))
    link, scan_link = MatroidSystemLink(m, ground[-1]), MatroidSystemLink(scan, ground[-1])
    bs, scan_bs = link_structure(link), link_structure(scan_link)
    assert beta_number(m) == beta_number(scan)
    assert (domination_from_beta(link, link.components)
            == domination_from_beta(scan_link, scan_link.components))
    assert domination_invariant_recursion(bs) == domination_invariant_recursion(scan_bs)
    assert binary_signed_domination(bs) == binary_signed_domination(scan_bs)


def test_graphic_matroid_refuses_duplicate_labels_at_construction():
    with pytest.raises(ValidationError, match="^duplicate edge labels$"):
        graphic_matroid([(1, "a", "b"), (1, "b", "c")])
    with pytest.raises(ValidationError, match="^duplicate edge labels$"):
        graphic_matroid([(i % 19, i, i + 1) for i in range(20)])


def test_graphic_matroid_on_twenty_edges_ranks():
    edges = [(i, i % 12, (i * 5 + 1) % 12) for i in range(20)]
    m = graphic_matroid(edges)
    full = (1 << 20) - 1
    assert m.rank_mask(full) == 12 - components(edges)
    assert m.rank_mask(0b111) == 3
    bs = link_structure(MatroidSystemLink(m, 19))
    assert bs((1,) * 19) == 1


def test_pendant_terminal_edge_gives_zero():
    m = graphic_matroid([(1, "a", "b"), (2, "b", "c"), (3, "c", "a"), ("x", "c", "d")])
    link = MatroidSystemLink(m, "x")
    assert domination_from_beta(link, link.components) == 0
    assert domination_from_beta(link, [1, 2]) == 0
    assert binary_signed_domination(link_structure(link)) == 0
    # the coloop answers before the alternating rank sum, whose guard of 25
    # elements this 26-edge graph would trip
    big = graphic_matroid([(i, "a", "b") for i in range(25)] + [("x", "b", "c")])
    link = MatroidSystemLink(big, "x")
    assert domination_from_beta(link, link.components) == 0
