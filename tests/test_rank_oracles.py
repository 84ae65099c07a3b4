"""Rank oracles of uniform and graphic matroids against the circuit scan.

uniform_matroid ranks by min(|A|, r) and graphic_matroid by union-find;
both build their circuit family only when it is read.  The reference is
the matroid built eagerly from the same family, Matroid(ground,
circuits), which ranks by the greedy circuit scan, and the exhaustive
rank over every subset.
"""

import random
from itertools import combinations

import pytest

from domikit import (
    ComplexityGuardError,
    DegenerateSystemError,
    Matroid,
    MatroidSystemLink,
    ValidationError,
    beta_number,
    binary_signed_domination,
    cycle_circuits,
    domination_from_beta,
    domination_invariant_recursion,
    graphic_matroid,
    link_structure,
    matroid_system_paths,
    uniform_matroid,
    validate_circuits,
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

# (lazy, eager) builders, so that each test starts from unread circuits
CASES = [
    *[pytest.param(lambda n=n, r=r: (uniform_matroid(range(n), r),
                                     Matroid(range(n), combinations(range(n), r + 1))),
                   id=f"U_{r},{n}")
      for n in range(8) for r in range(n + 1)],
    *[pytest.param(lambda edges=edges: (graphic_matroid(edges),
                                        Matroid([e[0] for e in edges], cycle_circuits(edges))),
                   id=f"graph{i}")
      for i, edges in enumerate(GRAPHS)],
]


@pytest.mark.parametrize("build", CASES)
def test_rank_oracle_matches_circuit_scan_on_every_subset(build):
    m, eager = build()
    assert m.ground == eager.ground
    ranks = [m.rank_mask(mask) for mask in range(1 << len(m.ground))]
    assert "circuit_masks" not in vars(m)  # ranking read no circuit
    assert ranks == [eager.rank_mask(mask) for mask in range(1 << len(m.ground))]
    assert ranks == [m.rank(m.from_mask(mask), exhaustive=True)
                     for mask in range(1 << len(m.ground))]


@pytest.mark.parametrize("build", CASES)
def test_lazy_circuits_equal_the_eager_family_in_order(build):
    m, eager = build()
    assert m.circuit_masks == eager.circuit_masks
    assert m.circuits() == eager.circuits()
    assert validate_circuits(m) == validate_circuits(eager)
    for terminal in m.ground:
        try:
            want = matroid_system_paths(MatroidSystemLink(eager, terminal))
        except DegenerateSystemError:
            with pytest.raises(DegenerateSystemError):
                matroid_system_paths(MatroidSystemLink(m, terminal))
        else:
            assert matroid_system_paths(MatroidSystemLink(m, terminal)) == want


# a link needs a component besides its terminal
@pytest.mark.parametrize("build", [c for c in CASES if len(c.values[0]()[0].ground) >= 2])
def test_beta_routes_read_no_circuit(build):
    m, eager = build()
    link = MatroidSystemLink(m, m.ground[-1])
    eager_link = MatroidSystemLink(eager, eager.ground[-1])
    bs, eager_bs = link_structure(link), link_structure(eager_link)
    assert beta_number(m) == beta_number(eager)
    assert (domination_from_beta(link, link.components)
            == domination_from_beta(eager_link, eager_link.components))
    assert domination_invariant_recursion(bs) == domination_invariant_recursion(eager_bs)
    assert binary_signed_domination(bs) == binary_signed_domination(eager_bs)
    assert "circuit_masks" not in vars(m)


def test_graphic_matroid_refuses_duplicate_labels_at_construction():
    with pytest.raises(ValidationError, match="^duplicate edge labels$"):
        graphic_matroid([(1, "a", "b"), (1, "b", "c")])
    # past the cycle guard too: the labels are checked before any circuit
    with pytest.raises(ValidationError, match="^duplicate edge labels$"):
        graphic_matroid([(i % 19, i, i + 1) for i in range(20)])


def test_graphic_matroid_on_twenty_edges_ranks_but_guards_its_circuits():
    edges = [(i, i % 12, (i * 5 + 1) % 12) for i in range(20)]
    m = graphic_matroid(edges)
    full = (1 << 20) - 1
    assert m.rank_mask(full) == 12 - components(edges)
    assert m.rank_mask(0b111) == 3
    bs = link_structure(MatroidSystemLink(m, 19))
    assert bs((1,) * 19) == 1
    for read in (lambda: m.circuit_masks, m.circuits, lambda: validate_circuits(m)):
        with pytest.raises(ComplexityGuardError, match=r"^20 edges exceed the cycle guard \(16\)$"):
            read()


def test_pendant_terminal_edge_gives_zero():
    m = graphic_matroid([(1, "a", "b"), (2, "b", "c"), (3, "c", "a"), ("x", "c", "d")])
    link = MatroidSystemLink(m, "x")
    assert domination_from_beta(link, link.components) == 0
    assert domination_from_beta(link, [1, 2]) == 0
    assert binary_signed_domination(link_structure(link)) == 0
    assert "circuit_masks" not in vars(m)
    # the coloop answers before the alternating rank sum, whose guard of 25
    # elements this 26-edge graph would trip
    big = graphic_matroid([(i, "a", "b") for i in range(25)] + [("x", "b", "c")])
    link = MatroidSystemLink(big, "x")
    assert domination_from_beta(link, link.components) == 0
