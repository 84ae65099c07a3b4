"""Shared builders and independent oracles.

The oracles here deliberately re-derive results from definitions with
their own code (plain itertools loops, a signed subset recursion, a
min-over-cut-sums structure function, matroid ranks from circuit
families) so that library outputs are checked against something that
shares no implementation.
"""

import random
import warnings
from fractions import Fraction
from itertools import combinations, product

from domikit import (
    MultistateSystem,
    StateSpace,
    link_structure,
    minimal_path_vectors,
    network,
    network_system,
    path_vector_system,
    sum_system,
    table_system,
)


def vjoin(a, b):
    return tuple(map(max, a, b))


def vleq(a, b):
    return all(x <= y for x, y in zip(a, b))


def naive_formation_delta(paths, target):
    """#odd - #even subsets joining to target, by literal enumeration."""
    total = 0
    for r in range(1, len(paths) + 1):
        for sub in combinations(paths, r):
            j = sub[0]
            for v in sub[1:]:
                j = vjoin(j, v)
            if j == target:
                total += 1 if r % 2 else -1
    return total


def signed_formation_dp(paths, target):
    """The same signed count by an include/exclude recursion.

    f(i, j) = sum over subsets S of paths[i:] of (-1)^|S| [j v join(S) = target]
    satisfies f(i, j) = f(i+1, j) - f(i+1, j v paths[i]); joins only grow,
    so branches with j not below the target are dead.  The empty subset's
    contribution is stripped at the end.  Handles path families far
    beyond direct enumeration.
    """
    paths = tuple(paths)
    bottom = (0,) * len(target)
    memo = {}

    def f(i, j):
        if not vleq(j, target):
            return 0
        if i == len(paths):
            return 1 if j == target else 0
        key = (i, j)
        if key not in memo:
            memo[key] = f(i + 1, j) - f(i + 1, vjoin(j, paths[i]))
        return memo[key]

    return -(f(0, bottom) - (1 if bottom == target else 0))


def oracle_subset_delta(indicator, y):
    """Alternating support-subset sum for delta(y), written from scratch."""
    support = [i for i, s in enumerate(y) if s > 0]
    total = 0
    for picks in product((0, 1), repeat=len(support)):
        x = list(y)
        ups = 0
        for i, up in zip(support, picks):
            if up:
                ups += 1
            else:
                x[i] = y[i] - 1
        sign = 1 if (len(support) - ups) % 2 == 0 else -1
        total += sign * indicator(tuple(x))
    return total


def random_monotone_table(rng, max_states, max_level):
    """Monotone structure table: random values pushed up by predecessors."""
    table = {}
    for x in product(*(range(m + 1) for m in max_states)):
        floor = 0
        for i, s in enumerate(x):
            if s:
                prev = table[x[:i] + (s - 1,) + x[i + 1:]]
                if prev > floor:
                    floor = prev
        table[x] = max(floor, rng.randint(0, max_level))
    top = tuple(max_states)
    if table[top] == 0:
        table[top] = 1
    return table


def make_random_system(seed):
    """Seeded random monotone system with n <= 4 components, states <= 3."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    max_states = tuple(rng.randint(1, 3) for _ in range(n))
    table = random_monotone_table(rng, max_states, rng.randint(1, 4))
    return table_system(max_states, table)


def frozen_level(ls, frozen):
    """The level function ls with the components in `frozen` (a map from
    position to state) held fixed, as a level-1 function of the others.

    Built on a StateSpace directly: freezing can leave a constant 0
    structure, which table_system would give no level 1.
    """
    ms = ls.max_states
    rest = tuple(m for i, m in enumerate(ms) if i not in frozen)

    def phi(x):
        free = iter(x)
        return ls(tuple(frozen[i] if i in frozen else next(free) for i in range(len(ms))))

    return MultistateSystem(StateSpace(rest, 1), "table", phi).level(1)


def random_pmfs(rng, max_states):
    """(float rows, Fraction rows) with the same seeded weights."""
    floats, exacts = [], []
    for m in max_states:
        weights = [rng.randint(1, 9) for _ in range(m + 1)]
        total = sum(weights)
        floats.append([w / total for w in weights])
        exacts.append([Fraction(w, total) for w in weights])
    return floats, exacts


BRIDGE_EDGES = [
    (1, "S", "A", 2), (2, "S", "B", 2), (3, "A", "B", 1), (4, "A", "C", 2),
    (5, "B", "C", 1), (6, "C", "T", 2), (7, "B", "T", 2),
]

# the same topology with edges 3 and 5 reversed gives the cyclic variant
CYCLIC_REVERSED = {3: ("B", "A"), 5: ("C", "B")}


def bridge_network(directed=False, cyclic=False):
    """The seven-edge two-terminal example network, in all three variants."""
    edges = []
    for eid, tail, head, cap in BRIDGE_EDGES:
        if cyclic and eid in CYCLIC_REVERSED:
            tail, head = CYCLIC_REVERSED[eid]
        edges.append((eid, tail, head, directed or cyclic, cap))
    return network(["S", "A", "B", "C", "T"], edges, "S", "T")


# cut sets of the three variants, worked out by hand from the topology
BRIDGE_CUTS_UNDIRECTED = (
    (1, 2), (1, 3, 5, 7), (2, 3, 4), (2, 3, 5, 6), (4, 5, 7), (6, 7))
BRIDGE_CUTS_ACYCLIC = (
    (1, 2), (1, 5, 7), (2, 3, 4), (2, 3, 6), (4, 5, 7), (6, 7))
BRIDGE_CUTS_CYCLIC = (
    (1, 2), (1, 3, 7), (2, 4), (2, 5, 6), (4, 7), (6, 7))


def oracle_flow(cuts, x):
    """Structure value of a capacity vector as min over cut-set sums."""
    return min(sum(x[i - 1] for i in cut) for cut in cuts)


def random_network(rng):
    """2-7 nodes, 1-9 edges of capacity 1-2, all directed, all undirected
    or mixed; parallel edges, self-loops and disconnected terminals all
    occur."""
    nodes = ["S", "T"] + [f"v{i}" for i in range(rng.randint(0, 5))]
    mode = rng.choice(("directed", "undirected", "mixed"))
    edges = []
    for eid in range(1, rng.randint(1, 9) + 1):
        directed = mode == "directed" or (mode == "mixed" and rng.random() < 0.5)
        edges.append((eid, rng.choice(nodes), rng.choice(nodes), directed, rng.randint(1, 2)))
    return network(nodes, edges, "S", "T")


def cut_form_networks():
    """156 networks: six special shapes, then 150 seeded random ones."""
    special = [
        # parallel edges, one of them directed against the flow
        network(["S", "T"], [(1, "S", "T", False, 2), (2, "S", "T", True, 1),
                             (3, "T", "S", True, 2)], "S", "T"),
        # a self-loop on an inner node
        network(["S", "A", "T"], [(1, "S", "A", True, 2), (2, "A", "A", False, 2),
                                  (3, "A", "T", False, 1)], "S", "T"),
        # an edge into the source and one out of the sink
        network(["S", "A", "T"], [(1, "A", "S", True, 2), (2, "S", "T", True, 1),
                                  (3, "T", "A", True, 2), (4, "A", "T", True, 1)], "S", "T"),
        # an edge on no source-sink path
        network(["S", "A", "B", "T"], [(1, "S", "A", True, 2), (2, "A", "T", True, 2),
                                       (3, "A", "B", False, 1)], "S", "T"),
        # disconnected terminals
        network(["S", "A", "T"], [(1, "S", "A", False, 2), (2, "T", "T", True, 1)], "S", "T"),
        bridge_network(directed=True, cyclic=True),
    ]
    rng = random.Random(20261018)
    return special + [random_network(rng) for _ in range(150)]


def path_family_system(system):
    """The same structure rebuilt as a path_vectors system."""
    return path_vector_system(system.space.max_states, {
        k: minimal_path_vectors(system.level(k))
        for k in range(1, system.space.system_max + 1)
    })


def lane_kinds():
    """Systems of every kind whose level tables come from lanes, n = 0
    included."""
    tables = [make_random_system(seed) for seed in range(40)]
    systems = tables + [path_family_system(t) for t in tables]
    systems += [sum_system([2, 1, 3]), sum_system([1, 2, 2], weights=[2, 0, 3]),
                sum_system([3, 1], weights=[0, 0]), sum_system([2, 2], weights=[70, 100]),
                sum_system([1] * 5, weights=[1, 2, 3, 5, 8]), table_system([1], [0, 300])]
    systems += [table_system([], [v]) for v in (0, 1, 3)]
    # one-byte lanes over coordinates past 127: the lane width follows the
    # values, not the max states
    systems += [table_system([m], [0] * m + [1]) for m in (128, 256)]
    systems += [path_vector_system((m,), {1: [(1,)]}) for m in (128, 300)]
    systems += [path_vector_system((130, 2), {1: [(3, 0), (0, 1)], 2: [(129, 0), (4, 1)]})]
    # one vector at two levels: its up-set counts once for each
    systems += [path_vector_system((2, 1), {1: [(1, 0)], 2: [(1, 0)], 3: [(2, 1)]})]
    systems += [sum_system([]), path_vector_system((), {1: [()], 2: [()]})]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        systems += [network_system(net) for net in cut_form_networks()]
        systems.append(network_system(network(["S", "T"], [], "S", "T")))
    # cut sums past 127, so two bytes a lane
    systems.append(network_system(network(["S", "A", "T"], [(1, "S", "A", False, 100),
                                                            (2, "A", "T", True, 40)], "S", "T")))
    return systems


def bare_systems():
    """Systems given only a structure function, tabulated by evaluating
    each state: random tables with component 0 frozen (n = 0 included)."""
    return [frozen_level(make_random_system(seed).level(1), {0: 1}).system
            for seed in range(12)]


# --- matroid references: circuit families and the ranks they fix ---------

def cycle_circuits(edges):
    """Circuits of the graphic matroid of (label, u, v) edges, loops and
    parallel edges included: the edge subsets that form one connected
    subgraph in which every touched vertex has degree exactly 2.  Found
    by subset search, so keep the edge lists small."""
    out = []
    for mask in range(1, 1 << len(edges)):
        chosen = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        degree = {}
        for _, u, v in chosen:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        if any(d != 2 for d in degree.values()):
            continue
        adj = {}
        for _, u, v in chosen:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        start = chosen[0][1]
        seen = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == len(degree):
            out.append(frozenset(label for label, _, _ in chosen))
    return out


def circuit_masks(ground, circuits):
    """A circuit family as bitmasks over `ground`, bit i for ground[i]."""
    index = {e: i for i, e in enumerate(ground)}
    return [sum(1 << index[e] for e in c) for c in circuits]


def greedy_rank(circuits, mask):
    """Rank from circuit bitmasks: grow an independent subset of `mask`
    element by element, keeping each element that closes no circuit."""
    picked = 0
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        if all(c & (picked | low) != c for c in circuits):
            picked |= low
    return picked.bit_count()


def exhaustive_rank(circuits, mask):
    """Rank from circuit bitmasks as the size of the largest subset of
    `mask` that contains no circuit, trying every subset, largest first."""
    bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
    for r in range(len(bits), -1, -1):
        for combo in combinations(bits, r):
            sub = sum(combo)
            if all(c & sub != c for c in circuits):
                return r  # r = 0 tries the empty set, which contains no circuit


def circuit_paths(circuits, terminal):
    """Minimal path sets of the link structure with terminal x: C \\ x over
    the circuits C through x.  A loop x gives the empty set alone, a
    coloop no set at all."""
    return {frozenset(c) - {terminal} for c in circuits if terminal in c}


def link_paths(link):
    """Minimal true sets of link_structure(link), as sets of component
    labels; the structure is monotone, so a true set is minimal when no
    one-element removal is true."""
    phi = link_structure(link)
    true = {frozenset(c for c, zi in zip(link.components, z) if zi)
            for z in product((0, 1), repeat=len(link.components)) if phi(z)}
    return {a for a in true if not any(a - {e} in true for e in a)}
