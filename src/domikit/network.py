"""Two-terminal flow networks as multistate systems.

Each edge is a component whose state is its current capacity, and the
structure value of a state vector is the max flow it admits from source
to sink.  Undirected edges carry flow either way within one shared
capacity.  The minimal cut sets are the one graph fact enumerated, once
per network, on first use: a network system evaluates its value in
min-cut form from them, the connectivity test reads their thresholds,
and the relevant edges are their union.  They are listed by source
sides (Provan and Shier 1996), one bitmask reach check per subset of the
inner nodes that lie between the terminals, not one search per edge
subset.  max_flow, by augmenting paths, gives the top level and is the
independent reference for the cut form.
The level-k cuts of such a system reduce, through the associated binary
structure, to plain two-terminal connectivity exactly when every minimal
cut set is tight at full capacity, which is what makes the directed
closed forms below applicable.

An undirected series-parallel network has a closed form at every level,
signed.series_parallel_domination: its signed value distribution
composes over the network's series and parallel reductions, in at most
|E| * (sum of capacities + 1)^2 integer steps and with no cut set, so it
runs past the cut guard.  A network system carries both as its _closed.
"""

from __future__ import annotations

import warnings
from collections import deque
from functools import cached_property, reduce
from typing import Hashable, Iterable

from .errors import ComplexityGuardError, DomainError, GraphError
from .lanes import Lanes
from .poset import Vector
from .signed import series_parallel_domination
from .systems import MultistateSystem


class Edge:
    id: int
    tail: str
    head: str
    directed: bool
    capacity: int

    def __init__(self, id, tail, head, directed, capacity):
        self.id, self.tail, self.head, self.directed, self.capacity = id, tail, head, directed, capacity


class FlowNetwork:
    """Node and edge lists with two distinguished terminals.

    Edge ids must be exactly 1..n so that edge i is component i - 1 of
    the derived system.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    source: str
    sink: str

    def __init__(self, nodes, edges, source, sink):
        if len(set(nodes)) != len(nodes):
            raise GraphError("duplicate node names")
        nodeset = set(nodes)
        if source not in nodeset or sink not in nodeset:
            raise GraphError(f"terminals {source!r}, {sink!r} must be nodes")
        if source == sink:
            raise GraphError("source and sink coincide")
        ids = sorted(e.id for e in edges)
        if ids != list(range(1, len(edges) + 1)):
            raise GraphError(f"edge ids must be exactly 1..{len(edges)}, got {ids}")
        for e in edges:
            if e.tail not in nodeset or e.head not in nodeset:
                raise GraphError(f"edge {e.id} endpoint outside node list")
            if e.capacity < 1:
                raise GraphError(f"edge {e.id} max capacity must be >= 1")
        self.nodes, self.source, self.sink = nodes, source, sink
        self.edges = tuple(sorted(edges, key=lambda e: e.id))

    @property
    def max_states(self) -> tuple[int, ...]:
        return tuple(e.capacity for e in self.edges)

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(e.id for e in self.edges)

    @cached_property
    def _cuts(self) -> tuple[tuple[int, ...], ...]:
        """The minimal cut sets as 0-based edge indices, enumerated on
        first read; past the cut guard every read raises again."""
        return tuple(tuple(i - 1 for i in c) for c in minimal_cut_sets(self))


def max_flow(net: FlowNetwork, x: Vector) -> int:
    """Max source-to-sink flow under edge capacities x (integers).

    Breadth-first augmenting paths on the residual graph; an undirected
    edge becomes a pair of opposed arcs acting as each other's residuals,
    which is the standard reduction.
    """
    ms = net.max_states
    if len(x) != len(ms):
        raise DomainError(f"capacity vector of length {len(ms)} expected, got {x}")
    if any(a < 0 or a > m for a, m in zip(x, ms)):
        raise DomainError(f"capacity vector {x} outside 0..{ms}")
    idx = {v: i for i, v in enumerate(net.nodes)}
    adj: list[list[int]] = [[] for _ in net.nodes]
    cap: list[int] = []
    to: list[int] = []

    def arc(u: int, v: int, c: int, c_rev: int):
        adj[u].append(len(cap))
        to.append(v)
        cap.append(c)
        adj[v].append(len(cap))
        to.append(u)
        cap.append(c_rev)

    for e, xe in zip(net.edges, x):
        u, v = idx[e.tail], idx[e.head]
        arc(u, v, xe, xe if not e.directed else 0)
    s, t = idx[net.source], idx[net.sink]
    flow = 0
    while True:
        prev_arc = [-1] * len(net.nodes)
        prev_arc[s] = -2
        queue = deque([s])
        while queue and prev_arc[t] == -1:
            u = queue.popleft()
            for a in adj[u]:
                v = to[a]
                if cap[a] > 0 and prev_arc[v] == -1:
                    prev_arc[v] = a
                    queue.append(v)
        if prev_arc[t] == -1:
            return flow
        bottleneck = None
        v = t
        while v != s:
            a = prev_arc[v]
            bottleneck = cap[a] if bottleneck is None else min(bottleneck, cap[a])
            v = to[a ^ 1]
        v = t
        while v != s:
            a = prev_arc[v]
            cap[a] -= bottleneck
            cap[a ^ 1] += bottleneck
            v = to[a ^ 1]
        flow += bottleneck


def minimal_cut_sets(net: FlowNetwork) -> tuple[tuple[int, ...], ...]:
    """Minimal edge sets whose removal disconnects sink from source,
    listed in lexicographic order of sorted id tuples.

    Enumerated by source sides (Provan and Shier, "A paradigm for listing
    (s,t)-cuts in graphs", Algorithmica 1996), with node sets as
    bitmasks.  Only the inner nodes W that the source reaches without
    passing the sink, and that reach the sink without passing the source,
    can change a cut, so each subset S' of W is visited once: S = {s} | S'
    is kept when it is exactly what s reaches inside S, H is what reaches
    t inside the rest, and the cut C(S) is the edges with an arc from S
    into H.  Every C(S) is a minimal cut (s
    reaches its tail, its head reaches t, and no other edge of C(S) lies
    on that path), and every minimal cut is C(S) for S the part of W
    that s reaches once it is removed; two sides may give one cut, so
    the cuts are collected in a set.  That is 2^|W| reach checks, with
    |W| <= |E| - 1, under the same edge guard.
    """
    n = len(net.edges)
    if n > 25:
        raise ComplexityGuardError(f"{n} edges exceed the cut enumeration guard (25)")
    idx = {v: i for i, v in enumerate(net.nodes)}
    succ = [0] * len(net.nodes)  # bit v of succ[u] and bit u of pred[v]: an arc u -> v
    pred = [0] * len(net.nodes)
    arcs: list[tuple[int, int, int]] = []  # (tail bit, head bit, edge bit)
    for bit, e in enumerate(net.edges):  # edges are sorted by id, 1..n
        u, v = idx[e.tail], idx[e.head]
        for a, b in ((u, v),) if e.directed else ((u, v), (v, u)):
            succ[a] |= 1 << b
            pred[b] |= 1 << a
            arcs.append((1 << a, 1 << b, 1 << bit))

    def reach(start: int, adj: list[int], inside: int) -> int:
        seen = frontier = start
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & inside & ~seen
            seen |= new
            frontier |= new
        return seen

    everything = (1 << len(net.nodes)) - 1
    s, t = 1 << idx[net.source], 1 << idx[net.sink]
    inner = reach(s, succ, everything & ~t) & reach(t, pred, everything & ~s) & ~(s | t)
    found = set()
    side = inner
    while True:  # every submask of inner, inner itself first
        S = s | side
        if reach(s, succ, S) == S:
            H = reach(t, pred, everything & ~S)
            # an edge has at most one arc from S into H, so the sum is their union
            found.add(sum(e for a, b, e in arcs if a & S and b & H))
        if not side:
            break
        side = (side - 1) & inner
    return tuple(sorted(tuple(i + 1 for i in range(n) if k >> i & 1) for k in found))


def network_system(net: FlowNetwork) -> MultistateSystem:
    """The multistate system of a network: phi(x) = max flow under x.

    By the max-flow min-cut theorem phi(x) is the smallest summed
    capacity over the minimal cut sets, so phi is evaluated in that form,
    state by state, and tabulated over a box of the space in the same
    form: each cut's summed capacity in lanes (one per state of the box,
    see lanes.Lanes), then their lane-wise minimum.  The cut sets are
    enumerated once per network (FlowNetwork._cuts), on the first
    evaluation or tabulation, so building the system does no cut
    enumeration and evaluating a network past the cut guard raises
    ComplexityGuardError.  No state's value is memoised.  The top system
    level is the max flow at full capacity; a network whose terminals
    cannot be connected at all yields the degenerate constant-0 system,
    flagged with a warning.  Its closed form is the directed sign rule
    where that applies at the level, else the series-parallel reduction.
    """
    ms = net.max_states
    system_max = max_flow(net, ms)
    if system_max == 0:
        warnings.warn(
            "terminals are disconnected at full capacity; the system is constant 0",
            stacklevel=2,
        )
    def phi(x: Vector) -> int:
        # every cut is a subset of the edges, so sum(x) bounds the minimum;
        # disconnected terminals have the one cut set (), which gives 0
        best = sum(x)
        for c in net._cuts:
            flow = 0
            for i in c:
                flow += x[i]
            if flow < best:
                best = flow
        return best

    def lanes(lo, hi, k) -> tuple[Lanes, int]:
        lanes = Lanes(lo, hi, sum(ms))  # bounds every cut's summed capacity
        flows = (lanes.weighted([int(i in c) for i in range(len(ms))]) for c in net._cuts)
        return lanes, reduce(lanes.minimum, flows)

    def closed(k: int) -> int | None:
        if all(e.directed for e in net.edges) and reduces_to_connectivity(net, k):
            return directed_network_domination(net)
        return series_parallel_domination(net, k)

    return MultistateSystem(ms, system_max, "network", phi, _lanes=lanes, _closed=closed)


def connectivity_thresholds(net: FlowNetwork, k: int) -> dict[tuple[int, ...], int]:
    """Per-cut threshold t(K) = k - sum_{i in K} (m_i - 1).

    The level-k associated binary structure is plain two-terminal
    connectivity iff t(K) = 1 for every minimal cut set.
    """
    ms = net.max_states
    return {tuple(i + 1 for i in cut): k - sum(ms[i] - 1 for i in cut) for cut in net._cuts}


def reduces_to_connectivity(net: FlowNetwork, k: int) -> bool:
    """True iff the level-k associated binary structure is connectivity."""
    return all(t == 1 for t in connectivity_thresholds(net, k).values())


def relevant_edges(net: FlowNetwork) -> frozenset[int]:
    """Edges lying on at least one simple source-to-sink path: those of
    some minimal cut set, as minimal paths and minimal cuts are blockers
    of each other (Edmonds and Fulkerson 1970)."""
    return frozenset(i + 1 for cut in net._cuts for i in cut)


def find_directed_cycle(net: FlowNetwork) -> tuple[int, ...] | None:
    """A directed cycle of the network, or None.

    Depth-first search with an on-stack marking; returns the edge ids of
    the first cycle closed, in traversal order.  An undirected edge is a
    domain error.
    """
    idx = {v: i for i, v in enumerate(net.nodes)}
    arcs: list[list[tuple[int, int]]] = [[] for _ in net.nodes]
    for e in net.edges:
        if not e.directed:
            raise DomainError(f"edge {e.id} is undirected; cycle search needs a digraph")
        arcs[idx[e.tail]].append((idx[e.head], e.id))
    color = [0] * len(net.nodes)  # 0 fresh, 1 on the path, 2 done
    for root in range(len(net.nodes)):
        if color[root]:
            continue
        # an explicit stack, so a long path does not recurse: path[i] is left
        # by path_edges[i], and arcs_left[i] is path[i]'s arcs not yet tried
        color[root] = 1
        path, path_edges, arcs_left = [root], [], [iter(arcs[root])]
        while path:
            for v, eid in arcs_left[-1]:
                if color[v] == 1:
                    return tuple(path_edges[path.index(v):] + [eid])
                if color[v] == 0:
                    color[v] = 1
                    path.append(v)
                    path_edges.append(eid)
                    arcs_left.append(iter(arcs[v]))
                    break
            else:
                color[path.pop()] = 2
                arcs_left.pop()
                if path_edges:  # the edge into the node left
                    path_edges.pop()
    return None


def _forest_rank(ends: Iterable[tuple[Hashable, Hashable]]) -> int:
    """Graphic rank of the edges with ends (u, v): the size of a spanning
    forest, by union-find.  A loop adds nothing, nor does each parallel
    edge after the first."""
    parent: dict[Hashable, Hashable] = {}

    def find(a: Hashable) -> Hashable:
        while parent.setdefault(a, a) != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    rank = 0
    for u, v in ends:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            rank += 1
    return rank


def directed_network_domination(net: FlowNetwork) -> int:
    """Signed domination of the two-terminal connectivity structure of a
    directed network, by closed form.

    An irrelevant edge (one on no simple source-sink path) or a directed
    cycle forces the value 0.  Otherwise the structure is coherent and
    the value is (-1)^(|E| - rank), rank being that of the edge set plus
    a source-sink link in the cycle matroid of the underlying graph.  An
    undirected edge is a domain error.
    """
    for e in net.edges:
        if not e.directed:
            raise DomainError(f"edge {e.id} is undirected; closed form needs a digraph")
    if relevant_edges(net) != frozenset(net.edge_ids) or find_directed_cycle(net) is not None:
        return 0
    rank = _forest_rank([(e.tail, e.head) for e in net.edges] + [(net.source, net.sink)])
    sign_exp = len(net.edges) - rank
    return 1 if sign_exp % 2 == 0 else -1
