"""Signed value distributions: the binary reduction composed over modules.

The paper reduces d(phi_k) to the associated binary structure
psi(z) = phi_k(m - 1 + z), a signed sum over the 2^n top corners.
Keeping the value of phi at each corner instead of its level indicator
gives the signed value distribution

    D(v) = sum over z in {0,1}^n of (-1)^(n - |z|) [phi(m - 1 + z) = v],

a dict {value: non-zero signed count}, and d(phi_k) is the sum of D(v)
over v >= k.  When phi = g(phi_A, phi_B) over disjoint component sets,
the sign and the indicator both factor, so D(v) is the sum of
D_A(a) * D_B(b) over g(a, b) = v: modular decomposition (Birnbaum and
Esary 1965; Barlow and Proschan 1975) applied to the paper's reduction.
One component valued `top` at its top state and `below` one state down
is {top: 1, below: -1}, and {} when the two are equal: an irrelevant
component makes every signed count 0.

Weighted sums compose by +, and undirected series-parallel networks by
+ and min, so their signed domination takes integer steps polynomial in
n and the value range, never 2^n.  Each route bounds those steps before
it starts and gives None above 10^7 of them, so that its caller falls
back to a per-corner route.  The threshold formula for unit weights
over equal ranges lives here too.  Sum and network systems carry these
routes as their closed forms (see systems.MultistateSystem), so every
parse compiles this module, which imports no other one of the package
but errors.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import add
from typing import Callable, Sequence

from .errors import DomainError

_WORK = 10**7  # integer steps a route may take; above it the route gives None


def _corner(top: int, below: int) -> dict[int, int]:
    """D of one component valued `top` up and `below` down."""
    return {top: 1, below: -1} if top != below else {}


def _compose(a: dict[int, int], b: dict[int, int],
             g: Callable[[int, int], int]) -> dict[int, int]:
    """D of g(phi_A, phi_B) from D_A and D_B, in |D_A| * |D_B| steps;
    counts that cancel to 0 are dropped."""
    out: dict[int, int] = {}
    for u, cu in a.items():
        for v, cv in b.items():
            w = g(u, v)
            out[w] = out.get(w, 0) + cu * cv
    return {w: c for w, c in out.items() if c}


def _tail(d: dict[int, int], k: int) -> int:
    """d(phi_k): the signed counts of the values v >= k."""
    return sum(c for v, c in d.items() if v >= k)


def sum_domination(ms: Sequence[int], weights: Sequence[int], k: int) -> int | None:
    """Signed domination of the level-k cut of phi(x) = sum of w_i * x_i
    over components ranging 0..m_i, or None past the work bound.

    D is x^(sum of w_i (m_i - 1)) times the product of (x^(w_i) - 1) as
    a polynomial in x, built one component at a time; a zero weight
    makes it 0.  D has at most min(2^n, sum of w_i + 1) terms, so the
    route takes n times that many steps and gives None when that
    exceeds 10^7.  Unit weights over equal ranges give back
    threshold_domination.
    """
    n = len(ms)
    if n * min(2 ** n, sum(weights) + 1) > _WORK:
        return None
    d = {0: 1}
    for m, w in zip(ms, weights):
        d = _compose(d, _corner(w * m, w * (m - 1)), add)
    return _tail(d, k)


def threshold_domination(n: int, m: int, k: int) -> int:
    """Signed domination of the level-k cut of phi(x) = x_1 + ... + x_n
    with every component ranging over 0..m.

    Non-zero only when n*(m-1) < k <= n*m; writing j = k - n*(m-1) there,
    the value is (-1)^(n-j) * C(n-1, j-1).  The binary case m = 1 is the
    classical k-out-of-n formula.
    """
    if n < 1 or m < 1:
        raise DomainError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if not 1 <= k <= n * m:
        raise DomainError(f"level {k} outside 1..{n * m}")
    j = k - n * (m - 1)
    if j < 1:
        return 0
    sign = 1 if (n - j) % 2 == 0 else -1
    return sign * math.comb(n - 1, j - 1)


def series_parallel_domination(net, k: int) -> int | None:
    """Signed domination of the level-k flow system of an undirected
    series-parallel network (a network.FlowNetwork), by signed value
    distributions, or None.

    Each edge starts as the distribution of its capacity c at its top
    two states, {c: 1, c - 1: -1}.  Parallel edges merge by +, and the
    two edges at a non-terminal node of degree 2 merge by min into one
    edge between their other ends: an undirected module that meets the
    rest of the network at two nodes carries the flow of one edge of its
    own max-flow capacity.  A loop, or an edge at a non-terminal node of
    degree 1, lies on no source-sink path, and an irrelevant component
    makes the value 0.  Gives None on a network with a directed edge, on
    one that does not reduce to a single source-sink edge, and when
    |E| * (sum of capacities + 1)^2, which bounds the steps of every
    merge, exceeds 10^7.
    """
    if any(e.directed for e in net.edges):
        return None
    if len(net.edges) * (sum(net.max_states) + 1) ** 2 > _WORK:
        return None
    terminals = frozenset((net.source, net.sink))
    live = [(frozenset((e.tail, e.head)), _corner(e.capacity, e.capacity - 1))
            for e in net.edges]
    while True:
        edges: dict[frozenset, dict[int, int]] = {}
        for ends, d in live:
            edges[ends] = _compose(edges[ends], d, add) if ends in edges else d
        if any(len(ends) == 1 for ends in edges):
            return 0
        degree = Counter(v for ends in edges for v in ends)
        inner = [v for v, c in degree.items() if v not in terminals and c <= 2]
        if not inner:
            break
        x = inner[0]
        if degree[x] == 1:
            return 0
        (a, da), (b, db) = [(ends - {x}, d) for ends, d in edges.items() if x in ends]
        live = [(ends, d) for ends, d in edges.items() if x not in ends]
        live.append((a | b, _compose(da, db, min)))
    if list(edges) != [terminals]:
        return None
    return _tail(edges[terminals], k)
