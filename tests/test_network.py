"""Flow networks: max flow, cut sets, the derived multistate system and
the closed form for directed two-terminal connectivity."""

import random
import sys
import warnings
from itertools import combinations, product

import pytest

from conftest import (
    BRIDGE_CUTS_ACYCLIC,
    BRIDGE_CUTS_CYCLIC,
    BRIDGE_CUTS_UNDIRECTED,
    bridge_network,
    cut_form_networks,
    network,
    oracle_flow,
)
from domikit import (
    ComplexityGuardError,
    DomainError,
    GraphError,
    associated_binary,
    connectivity_thresholds,
    directed_network_domination,
    find_directed_cycle,
    max_flow,
    minimal_cut_sets,
    minimal_path_vectors,
    network_system,
    reduces_to_connectivity,
    relevant_edges,
)


def single_edge(capacity=3, directed=False):
    return network(["S", "T"], [(1, "S", "T", directed, capacity)], "S", "T")


def test_network_validation():
    with pytest.raises(GraphError):
        network(["S", "S"], [], "S", "S")
    with pytest.raises(GraphError):
        network(["S", "T"], [], "S", "X")
    with pytest.raises(GraphError):
        network(["S", "T"], [], "S", "S")
    with pytest.raises(GraphError):  # ids must be 1..n
        network(["S", "T"], [(2, "S", "T", False, 1)], "S", "T")
    with pytest.raises(GraphError):  # endpoint outside nodes
        network(["S", "T"], [(1, "S", "Q", False, 1)], "S", "T")
    with pytest.raises(GraphError):  # zero capacity
        network(["S", "T"], [(1, "S", "T", False, 0)], "S", "T")


@pytest.mark.parametrize("nodes, edges, source, sink, message", [
    (["S", "A", "S", "T"], [], "S", "T", "duplicate node names"),
    (["S", "T"], [], "S", "X", "terminals 'S', 'X' must be nodes"),
    (["S", "T"], [], "Y", "T", "terminals 'Y', 'T' must be nodes"),
    (["S", "T"], [], "T", "T", "source and sink coincide"),
    (["S", "T"], [(2, "S", "T", False, 1)], "S", "T", "edge ids must be exactly 1..1, got [2]"),
    (["S", "T"], [(1, "S", "T", False, 1), (1, "T", "S", True, 1)], "S", "T",
     "edge ids must be exactly 1..2, got [1, 1]"),
    (["S", "T"], [(1, "S", "Q", False, 1)], "S", "T", "edge 1 endpoint outside node list"),
    (["S", "T"], [(1, "Q", "T", True, 1)], "S", "T", "edge 1 endpoint outside node list"),
    (["S", "T"], [(1, "S", "T", False, 0)], "S", "T", "edge 1 max capacity must be >= 1"),
    (["S", "T"], [(1, "S", "T", True, -2)], "S", "T", "edge 1 max capacity must be >= 1"),
])
def test_each_network_refusal_names_its_fault(nodes, edges, source, sink, message):
    with pytest.raises(GraphError) as exc:
        network(nodes, edges, source, sink)
    assert str(exc.value) == message


@pytest.mark.parametrize("nodes, edges, source, sink, message", [
    # nodes, then terminals, then their coincidence, then ids, then each edge
    (["S", "S"], [], "S", "X", "duplicate node names"),
    (["S", "S"], [], "S", "S", "duplicate node names"),
    (["S", "T"], [], "X", "X", "terminals 'X', 'X' must be nodes"),
    (["S", "T"], [(2, "S", "Q", False, 0)], "X", "T", "terminals 'X', 'T' must be nodes"),
    (["S", "T"], [(2, "S", "Q", False, 0)], "S", "S", "source and sink coincide"),
    (["S", "T"], [(2, "S", "Q", False, 0)], "S", "T", "edge ids must be exactly 1..1, got [2]"),
    # an edge's endpoints before its capacity, and the edges in the order given, not by id
    (["S", "T"], [(1, "S", "Q", False, 0)], "S", "T", "edge 1 endpoint outside node list"),
    (["S", "T"], [(2, "S", "T", False, 0), (1, "S", "Q", False, 1)], "S", "T",
     "edge 2 max capacity must be >= 1"),
    (["S", "T"], [(2, "Q", "T", False, 1), (1, "S", "T", False, 0)], "S", "T",
     "edge 2 endpoint outside node list"),
])
def test_the_first_network_fault_is_the_one_named(nodes, edges, source, sink, message):
    with pytest.raises(GraphError) as exc:
        network(nodes, edges, source, sink)
    assert str(exc.value) == message


def test_network_edge_order_is_by_id():
    net = network(
        ["S", "A", "T"],
        [(2, "A", "T", False, 5), (1, "S", "A", False, 2)],
        "S",
        "T",
    )
    assert net.edge_ids == (1, 2)
    assert net.max_states == (2, 5)


def test_max_flow_single_edge():
    net = single_edge(capacity=3)
    assert max_flow(net, (3,)) == 3
    assert max_flow(net, (1,)) == 1
    assert max_flow(net, (0,)) == 0
    with pytest.raises(DomainError):
        max_flow(net, (4,))
    with pytest.raises(DomainError):
        max_flow(net, (1, 1))


def test_max_flow_bridge_full_capacity():
    assert max_flow(bridge_network(), bridge_network().max_states) == 4
    assert max_flow(bridge_network(directed=True), bridge_network().max_states) == 4


def test_max_flow_directed_edge_one_way():
    net = network(["S", "T"], [(1, "T", "S", True, 2)], "S", "T")
    assert max_flow(net, (2,)) == 0


def test_minimal_cut_sets_frozen_families():
    assert minimal_cut_sets(bridge_network()) == BRIDGE_CUTS_UNDIRECTED
    assert minimal_cut_sets(bridge_network(directed=True)) == BRIDGE_CUTS_ACYCLIC
    assert minimal_cut_sets(bridge_network(directed=True, cyclic=True)) == BRIDGE_CUTS_CYCLIC


def test_minimal_cut_sets_small_and_guard():
    assert minimal_cut_sets(single_edge()) == ((1,),)
    big = network(
        ["S", "T"],
        [(i, "S", "T", False, 1) for i in range(1, 30)],
        "S",
        "T",
    )
    with pytest.raises(ComplexityGuardError):
        minimal_cut_sets(big)
    # its system builds, as parsing needs only max flow, and refuses on
    # the first evaluation, which enumerates the cut sets
    system = network_system(big)
    assert system.system_max == 29
    with pytest.raises(ComplexityGuardError, match="cut enumeration guard"):
        system.evaluate(system.max_states)


def test_minimal_cut_sets_of_disconnected_terminals():
    # disconnected terminals: the empty set is already a cut, flow is 0
    disconnected = network(["S", "T", "A"], [(1, "S", "A", False, 1)], "S", "T")
    assert minimal_cut_sets(disconnected) == ((),)
    assert max_flow(disconnected, (1,)) == 0


def test_network_system_levels():
    sys_ = network_system(bridge_network())
    assert sys_.system_max == 4
    assert sys_.evaluate(sys_.max_states) == 4
    counts = [len(minimal_path_vectors(sys_.level(k))) for k in range(1, 5)]
    assert counts == [7, 15, 8, 2]


def test_network_system_single_edge_is_identity():
    sys_ = network_system(single_edge(capacity=2))
    assert [sys_.evaluate((x,)) for x in range(3)] == [0, 1, 2]


def test_network_system_disconnected_warns():
    disconnected = network(["S", "T", "A"], [(1, "S", "A", False, 2)], "S", "T")
    with pytest.warns(UserWarning, match="disconnected"):
        sys_ = network_system(disconnected)
    assert sys_.system_max == 0
    with pytest.raises(DomainError):
        sys_.level(1)


def simple_path_sets(net):
    """Edge id sets of the simple source-to-sink paths, by a depth-first
    walk over every simple path: the reference for relevant_edges, which
    reads the minimal cut sets instead."""
    out_arcs = {v: [] for v in net.nodes}
    for e in net.edges:
        out_arcs[e.tail].append((e.head, e.id))
        if not e.directed:
            out_arcs[e.head].append((e.tail, e.id))
    found = set()

    def walk(u, nodes, edges):
        if u == net.sink:
            found.add(frozenset(edges))
            return
        for v, eid in out_arcs[u]:
            if v not in nodes:
                walk(v, nodes | {v}, edges + [eid])

    walk(net.source, {net.source}, [])
    return found


def test_associated_binary_network_is_connectivity_at_reducing_level():
    net = bridge_network()
    bs = associated_binary(network_system(net).level(3))
    paths = simple_path_sets(net)
    for z in product((0, 1), repeat=7):
        # at level 3 every cut is tight, so slot pattern z works iff the
        # up edges cover some source-sink path
        up = {i + 1 for i, zi in enumerate(z) if zi}
        connected = any(p <= up for p in paths)
        assert bs(z) == int(connected)


def test_associated_binary_network_level_range():
    with pytest.raises(DomainError):
        associated_binary(network_system(bridge_network()).level(5))
    with pytest.raises(DomainError):
        associated_binary(network_system(bridge_network()).level(0))


def test_connectivity_thresholds_bridge():
    thresholds = connectivity_thresholds(bridge_network(), 3)
    assert set(thresholds) == set(BRIDGE_CUTS_UNDIRECTED)
    assert all(t == 1 for t in thresholds.values())
    assert reduces_to_connectivity(bridge_network(), 3)
    assert not reduces_to_connectivity(bridge_network(), 2)
    assert not reduces_to_connectivity(bridge_network(), 4)


def test_simple_path_sets_frozen():
    undirected = {
        frozenset({2, 7}), frozenset({1, 3, 7}), frozenset({1, 4, 6}),
        frozenset({2, 5, 6}), frozenset({1, 3, 5, 6}), frozenset({1, 4, 5, 7}),
        frozenset({2, 3, 4, 6}),
    }
    assert set(simple_path_sets(bridge_network())) == undirected
    acyclic = {
        frozenset({2, 7}), frozenset({1, 3, 7}), frozenset({1, 4, 6}),
        frozenset({2, 5, 6}), frozenset({1, 3, 5, 6}),
    }
    assert set(simple_path_sets(bridge_network(directed=True))) == acyclic
    cyclic = {
        frozenset({2, 7}), frozenset({1, 4, 6}), frozenset({1, 4, 5, 7}),
        frozenset({2, 3, 4, 6}),
    }
    assert set(simple_path_sets(bridge_network(directed=True, cyclic=True))) == cyclic


def test_relevant_edges():
    for directed, cyclic in [(False, False), (True, False), (True, True)]:
        net = bridge_network(directed=directed, cyclic=cyclic)
        assert relevant_edges(net) == frozenset(range(1, 8))


def test_relevant_edges_are_the_edges_of_the_simple_paths():
    """An edge is in some minimal cut set exactly when it lies on some
    simple source-sink path (paths and cuts are blockers of each other),
    in digraphs too: loops, edges against the flow, dangling edges and
    disconnected terminals included."""
    for net in cut_form_networks():
        assert relevant_edges(net) == frozenset().union(*simple_path_sets(net)), net


def test_find_directed_cycle():
    assert find_directed_cycle(bridge_network(directed=True)) is None
    cyc = find_directed_cycle(bridge_network(directed=True, cyclic=True))
    assert cyc is not None and set(cyc) == {3, 4, 5}
    with pytest.raises(DomainError):
        find_directed_cycle(bridge_network())


def test_find_directed_cycle_on_a_long_chain():
    """The search keeps its own stack, so a path longer than the
    interpreter's recursion limit is walked: a chain of 1 200 nodes has
    no cycle, and one arc back from its end to its start closes a cycle
    through every edge."""
    nodes = [f"v{i}" for i in range(1200)]
    arcs = [(i + 1, u, v, True, 1) for i, (u, v) in enumerate(zip(nodes, nodes[1:]))]
    assert find_directed_cycle(network(nodes, arcs, nodes[0], nodes[-1])) is None
    back = (len(arcs) + 1, nodes[-1], nodes[0], True, 1)
    cyclic = network(nodes, arcs + [back], nodes[0], nodes[-1])
    assert find_directed_cycle(cyclic) == tuple(range(1, len(nodes) + 1))


def test_directed_domination_closed_form():
    assert directed_network_domination(bridge_network(directed=True)) == -1
    assert directed_network_domination(bridge_network(directed=True, cyclic=True)) == 0
    with pytest.raises(DomainError):
        directed_network_domination(bridge_network())


def test_directed_domination_parallel_pair():
    net = network(
        ["S", "T"],
        [(1, "S", "T", True, 1), (2, "S", "T", True, 1)],
        "S",
        "T",
    )
    # two parallel arcs: 2 edges, rank 1 with the terminal link already
    # joining S and T, so the sign exponent is 1
    assert directed_network_domination(net) == -1


def test_directed_domination_irrelevant_edge():
    # edge 2 dangles off the path and lies on no source-sink route
    net = network(
        ["S", "A", "T", "B"],
        [(1, "S", "A", True, 1), (2, "A", "B", True, 1), (3, "A", "T", True, 1)],
        "S",
        "T",
    )
    assert directed_network_domination(net) == 0


def test_directed_domination_no_path():
    net = network(["S", "T", "A"], [(1, "S", "A", True, 1)], "S", "T")
    assert directed_network_domination(net) == 0


def test_max_flow_agrees_with_cut_oracle_on_all_vectors():
    cases = [
        (bridge_network(), BRIDGE_CUTS_UNDIRECTED),
        (bridge_network(directed=True), BRIDGE_CUTS_ACYCLIC),
        (bridge_network(directed=True, cyclic=True), BRIDGE_CUTS_CYCLIC),
    ]
    for net, cuts in cases:
        for x in product(*(range(m + 1) for m in net.max_states)):
            assert max_flow(net, x) == oracle_flow(cuts, x)


def test_cut_form_equals_max_flow_at_every_state():
    nets = cut_form_networks()
    for net in nets:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            system = network_system(net)
        for x in product(*(range(m + 1) for m in net.max_states)):
            assert system.evaluate(x) == max_flow(net, x), (net, x)


def subset_search_cuts(net):
    """Reference: the minimal cut sets by testing each edge subset, in
    ascending size, with a fresh adjacency list and search per subset."""
    found = []
    for size in range(len(net.edges) + 1):
        for combo in combinations(net.edge_ids, size):
            removed = frozenset(combo)
            if any(c <= removed for c in found):
                continue
            adj = {v: [] for v in net.nodes}
            for e in net.edges:
                if e.id not in removed:
                    adj[e.tail].append(e.head)
                    if not e.directed:
                        adj[e.head].append(e.tail)
            seen, stack = {net.source}, [net.source]
            while stack:
                for v in adj[stack.pop()]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            if net.sink not in seen:
                found.append(removed)
    return tuple(sorted(tuple(sorted(c)) for c in found))


def test_cut_enumeration_matches_the_subset_search_reference():
    for net in cut_form_networks():
        assert minimal_cut_sets(net) == subset_search_cuts(net), net


def side_pruning_networks():
    """120 seeded networks of 8-10 nodes and at most 12 edges, built so
    that every kind of node the cut enumeration leaves out occurs: nodes
    the source cannot reach, dead ends (a directed arc in, none out) and
    isolated nodes; with edges into the source or out of the sink,
    antiparallel arcs and self-loops on a terminal among them."""
    rng = random.Random(20261019)
    nets = []
    for _ in range(120):
        inner = [f"v{i}" for i in range(rng.randint(6, 8))]
        core = ["S", "T"] + inner[:rng.randint(2, 4)]
        unreachable, dead_end = inner[-3], inner[-2]  # inner[-1] stays isolated
        arcs = [(unreachable, rng.choice(core), True), (rng.choice(core), dead_end, True)]
        if rng.random() < 0.85:  # a source-sink path through the core, most of the time
            route = ["S"] + rng.sample(core[2:], len(core) - 2) + ["T"]
            arcs += [(a, b, rng.random() < 0.5) for a, b in zip(route, route[1:])]
        u, v = rng.sample(core, 2)
        extras = [[(rng.choice(core), "S", True)], [("T", rng.choice(core), True)],
                  [(u, v, True), (v, u, True)], [(rng.choice(("S", "T")),) * 2 + (False,)]]
        for extra in rng.sample(extras, rng.randint(1, 4)):
            arcs += extra
        for _ in range(rng.randint(len(arcs), 12) - len(arcs)):
            arcs.append((rng.choice(core), rng.choice(core), rng.random() < 0.5))
        ids = rng.sample(range(1, len(arcs) + 1), len(arcs))
        nets.append(network(["S", "T"] + inner,
                            [(i, a, b, d, 1) for i, (a, b, d) in zip(ids, arcs)], "S", "T"))
    return nets


def grid_network(rows, cols, extra_nodes=(), extra_edges=()):
    """The undirected rows x cols grid of unit edges, corner to corner."""
    def name(i, j):
        return f"g{i}_{j}"
    pairs = [(name(i, j), name(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    pairs += [(name(i, j), name(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    edges = [(k, u, v, False, 1) for k, (u, v) in enumerate(pairs, start=1)]
    edges += [(len(edges) + k, u, v, True, 1) for k, (u, v) in enumerate(extra_edges, start=1)]
    nodes = [name(i, j) for i in range(rows) for j in range(cols)] + list(extra_nodes)
    return network(nodes, edges, name(0, 0), name(rows - 1, cols - 1))


def reach_checks(net, limit):
    """minimal_cut_sets(net) and the number of bitmask reach checks it
    made (calls of its inner function `reach`), stopped past `limit`."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "reach":
            calls += 1
            if calls > limit:
                raise AssertionError(f"more than {limit} reach checks")

    sys.setprofile(count)
    try:
        cuts = minimal_cut_sets(net)
    finally:
        sys.setprofile(None)
    return cuts, calls


def test_cut_enumeration_prunes_to_the_nodes_between_the_terminals():
    for net in side_pruning_networks():
        assert minimal_cut_sets(net) == subset_search_cuts(net), net
    grid = grid_network(3, 4)
    cuts, checks = reach_checks(grid, 2**11)
    assert len(grid.edges) == 17 and len(cuts) == 81
    assert cuts == subset_search_cuts(grid)
    # three dead ends, a node hanging off each terminal (reached from the
    # source, or reaching the sink, only through the other terminal) and
    # twenty isolated nodes change neither the cuts nor the work
    padded = grid_network(3, 4, [f"d{i}" for i in range(3)] + ["p", "q"] + [f"i{i}" for i in range(20)],
                          [("g1_1", "d0"), ("g0_3", "d1"), ("g2_0", "d2"),
                           ("g2_3", "p"), ("p", "g2_3"), ("q", "g0_0"), ("g0_0", "q")])
    assert reach_checks(padded, checks) == (cuts, checks)


def test_cut_enumeration_work_bound_on_the_four_by_four_grid():
    """348 minimal cuts of 24 edges: each disconnects the terminals and
    any one of its edges put back reconnects them.  The 14 inner nodes
    give 2^14 sides, each one forward reach check, plus a backward one
    per kept side.  Twenty isolated nodes and a dead end (the 25th edge,
    at the guard) change neither the cuts nor the count: an enumeration
    over every node set would try 2^21 times as many sides."""
    grid = grid_network(4, 4)
    cuts, checks = reach_checks(grid, 3 * 2**14)
    assert len(grid.edges) == 24 and len(cuts) == 348
    assert 2**14 < checks < 2 * 2**14
    for cut in cuts:
        x = [0 if i in cut else 1 for i in grid.edge_ids]
        assert max_flow(grid, x) == 0, cut
        for i in cut:
            x[i - 1] = 1
            assert max_flow(grid, x) > 0, (cut, i)
            x[i - 1] = 0
    padded = grid_network(4, 4, ["dead"] + [f"i{i}" for i in range(20)], [("g1_2", "dead")])
    assert reach_checks(padded, checks) == (cuts, checks)
