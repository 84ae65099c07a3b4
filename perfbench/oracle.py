"""Expected values and output checks, computed without domikit.

Every expected value here comes from the benchmark's own reading of a
document (its own structure function, its own minimum cut, its own
alternating sums and enumerations) or from a closed form the method
must satisfy.  Nothing in this module imports domikit, so a fault in
the program cannot make its own output look right.

A check takes what an operation returned and raises CheckFailed when
the output is wrong; the run loop counts that operation as failed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product


class CheckFailed(Exception):
    """An operation's output disagrees with the independent expectation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- the product lattice of component states -------------------------------


class Lattice:
    """States 0..m_i per component, in lexicographic (itertools.product) order."""

    def __init__(self, max_states):
        self.ms = tuple(max_states)
        self.n = len(self.ms)
        self.size = math.prod(m + 1 for m in self.ms)
        strides = []
        s = 1
        for m in reversed(self.ms):
            strides.append(s)
            s *= m + 1
        self.strides = tuple(reversed(strides))

    def vectors(self):
        return product(*(range(m + 1) for m in self.ms))

    def index(self, x) -> int:
        return sum(a * s for a, s in zip(x, self.strides))

    def minimal_vectors(self, ind) -> list[tuple[int, ...]]:
        """Vectors where the indicator holds and fails one step lower in
        every coordinate that can be lowered, in lexicographic order."""
        out = []
        strides = self.strides
        for x, idx in zip(self.vectors(), range(self.size)):
            if ind[idx] and all(not ind[idx - strides[i]] for i, a in enumerate(x) if a):
                out.append(x)
        return out

    def binary_domination(self, ind) -> int:
        """d(phi_k) as the alternating sum over the 2^n associated-binary
        states m - 1 + z, z in {0,1}^n."""
        base = self.index(tuple(m - 1 for m in self.ms))
        total = 0
        for z in product((0, 1), repeat=self.n):
            if ind[base + sum(b * s for b, s in zip(z, self.strides))]:
                total += -1 if (self.n - sum(z)) & 1 else 1
        return total

    def zeta(self, dense: list[int]) -> list[int]:
        """Sums over the down-set of every vector, one prefix pass per axis."""
        out = list(dense)
        for s, m in zip(self.strides, self.ms):
            period = s * (m + 1)
            for idx in range(self.size):
                if idx % period >= s:
                    out[idx] += out[idx - s]
        return out

    def reliability(self, ind, pmfs, exact: bool):
        """P(phi >= k) by enumeration of every state."""
        total = Fraction(0) if exact else 0.0
        for x, idx in zip(self.vectors(), range(self.size)):
            if ind[idx]:
                p = Fraction(1) if exact else 1.0
                for row, a in zip(pmfs, x):
                    p *= row[a]
                total += p
        return total


# --- structure functions read straight from documents ----------------------


def phi_values(doc: dict) -> list[int]:
    """phi over the whole lattice of a sum, table or path_vectors document."""
    structure = doc["structure"]
    lat = Lattice(doc["max_states"])
    kind = structure["kind"]
    if kind == "table":
        return list(structure["values"])
    if kind == "sum":
        w = structure.get("weights", [1] * lat.n)
        return [sum(a * b for a, b in zip(w, x)) for x in lat.vectors()]
    if kind == "path_vectors":
        levels = {int(k): [tuple(v) for v in fam] for k, fam in structure["levels"].items()}
        top = max(levels)

        def phi(x):
            for k in range(top, 0, -1):
                if any(all(a <= b for a, b in zip(v, x)) for v in levels[k]):
                    return k
            return 0

        return [phi(x) for x in lat.vectors()]
    raise ValueError(f"no lattice reading for kind {kind!r}")


def network_cuts(doc: dict) -> list[tuple[int, ...]]:
    """Component indices crossing each source-sink node bipartition.

    A directed edge crosses when its tail is on the source side and its
    head is not; an undirected edge when exactly one end is.  Cuts that
    contain another cut are dropped, which leaves every minimum intact.
    """
    structure = doc["structure"]
    source, sink = structure["source"], structure["sink"]
    inner = [v for v in structure["nodes"] if v not in (source, sink)]
    edges = sorted(structure["edges"], key=lambda e: e["id"])
    cuts = set()
    for bits in product((0, 1), repeat=len(inner)):
        side = {source} | {v for v, b in zip(inner, bits) if b}
        cut = tuple(
            i for i, e in enumerate(edges)
            if (e["from"] in side and e["to"] not in side)
            or (not e["directed"] and e["to"] in side and e["from"] not in side)
        )
        cuts.add(cut)
    return sorted(c for c in cuts if not any(o != c and set(o) <= set(c) for o in cuts))


def network_phi(doc: dict) -> tuple[tuple[int, ...], list[int]]:
    """(max_states, max flow over the whole lattice) as a minimum cut."""
    edges = sorted(doc["structure"]["edges"], key=lambda e: e["id"])
    ms = tuple(e["max_capacity"] for e in edges)
    cuts = network_cuts(doc)
    lat = Lattice(ms)
    return ms, [min(sum(x[i] for i in c) for c in cuts) for x in lat.vectors()]


def pmfs_of(doc: dict):
    """(rows, exact) of a document's distribution, read the way the format defines it."""
    rows = doc["distribution"]
    exact = any(isinstance(p, str) for row in rows for p in row)
    if exact:
        return [[Fraction(p) for p in row] for row in rows], True
    return [[float(p) for p in row] for row in rows], False


def sum_path_count(max_states, k: int) -> int:
    """Minimal path vectors of a unit sum at level k: the coefficient of
    t^k in prod_i (1 + t + ... + t^{m_i})."""
    poly = [1]
    for m in max_states:
        nxt = [0] * (len(poly) + m)
        for i, c in enumerate(poly):
            for j in range(m + 1):
                nxt[i + j] += c
        poly = nxt
    return poly[k] if k < len(poly) else 0


def threshold_value(n: int, j: int) -> int:
    """(-1)^(n-j) C(n-1, j-1): signed domination of j-out-of-n, 0 when j < 1."""
    if j < 1 or j > n:
        return 0
    return (-1) ** (n - j) * math.comb(n - 1, j - 1)


def binary_alternating_sum(n: int, holds) -> int:
    """Signed domination at the all-ones vector of a binary structure on n slots,
    as the alternating sum over all 2^n states; `holds` takes a bitmask."""
    total = 0
    for mask in range(1 << n):
        if holds(mask):
            total += -1 if (n - mask.bit_count()) & 1 else 1
    return total


# --- matroids ---------------------------------------------------------------


def graph_rank(edges, mask: int) -> int:
    """Rank of an edge subset in the cycle matroid: vertices touched minus
    connected components, by union-find."""
    parent: dict = {}

    def find(a):
        while parent.setdefault(a, a) != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    rank = 0
    for i, (_, u, v) in enumerate(edges):
        if mask >> i & 1:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                rank += 1
    return rank


def graphic_beta(edges) -> tuple[int, int]:
    """(beta, rank) of a graphic matroid by Crapo's alternating rank sum
    over every edge subset, with ranks from graph_rank."""
    e = len(edges)
    full = (1 << e) - 1
    r_full = graph_rank(edges, full)
    beta = 0
    for mask in range(1 << e):
        r = graph_rank(edges, mask)
        beta += r if (r_full - mask.bit_count()) % 2 == 0 else -r
    return beta, r_full


# --- parsing the CLI's text output -------------------------------------------


def _ints(line: str) -> tuple[int, ...]:
    return tuple(int(t) for t in line.split())


def check_paths(expected: list[tuple[int, ...]], level: int, count: int | None = None):
    """`paths` prints a header with the count, then one vector per line."""
    def check(result):
        code, text = result
        expect(code == 0, f"exit code {code}")
        lines = text.splitlines()
        header = f"minimal path vectors at level {level}: "
        expect(bool(lines) and lines[0].startswith(header), "missing header")
        printed = int(lines[0][len(header):])
        vectors = [_ints(line) for line in lines[1:]]
        expect(printed == len(vectors), f"header says {printed}, {len(vectors)} listed")
        expect(vectors == expected, f"{len(vectors)} path vectors, expected {len(expected)}")
        if count is not None:
            expect(printed == count, f"{printed} path vectors, generating function gives {count}")
    return check


def _domination_line(text: str, level: int) -> tuple[int, list[str]]:
    lines = text.splitlines()
    head = f"d(phi_{level}) = "
    expect(bool(lines) and lines[0].startswith(head), "missing d(phi_k) line")
    value = int(lines[0][len(head):].split()[0])
    return value, lines[1:]


def check_domination(d: int, level: int):
    def check(result):
        code, text = result
        expect(code == 0, f"exit code {code}")
        value, rest = _domination_line(text, level)
        expect(value == d, f"d = {value}, expected {d}")
        expect(not rest, "unexpected table lines")
    return check


def check_table(lat: Lattice, ind: list[int], d: int, level: int):
    """`domination --table`: headline value, and the printed table must
    invert to the level indicator: sum over x <= y of delta(x) = phi_k(y)."""
    def check(result):
        code, text = result
        expect(code == 0, f"exit code {code}")
        value, rest = _domination_line(text, level)
        expect(value == d, f"d = {value}, expected {d}")
        dense = [0] * lat.size
        for line in rest:
            vec, _, delta = line.partition("\t")
            x = _ints(vec)
            expect(len(x) == lat.n and all(0 <= a <= m for a, m in zip(x, lat.ms)),
                   f"table vector {x} outside the space")
            dense[lat.index(x)] = int(delta)
        expect(dense[lat.size - 1] == d, "table value at the top differs from d")
        expect(lat.zeta(dense) == ind, "table does not invert to phi_k")
    return check


def _prob(text: str, exact: bool):
    return Fraction(text) if exact else float(text)


def check_reliability(value, exact: bool, level: int, verify: bool):
    """Exact outputs must equal the enumeration; floats within 1e-12."""
    def close(got):
        if exact:
            return got == value
        return abs(got - value) <= 1e-12

    def check(result):
        code, text = result
        expect(code == 0, f"exit code {code}")
        lines = text.splitlines()
        head = f"P(phi >= {level}) = "
        expect(bool(lines) and lines[0].startswith(head), "missing reliability line")
        got = _prob(lines[0][len(head):], exact)
        expect(close(got), f"P = {got}, enumeration gives {value}")
        if verify:
            expect(len(lines) == 3 and lines[1].startswith("enumeration = "), "missing enumeration")
            expect(close(_prob(lines[1][len("enumeration = "):], exact)), "enumeration line differs")
        else:
            expect(len(lines) == 1, "unexpected extra lines")
    return check


def check_verify(d: int, level: int):
    """`verify`: every method that ran prints d, and agreement is yes."""
    def check(result):
        code, text = result
        expect(code == 0, f"exit code {code}")
        lines = text.splitlines()
        expect(bool(lines) and lines[0] == f"signed domination at level {level}", "missing header")
        expect(lines[-1] == "agreement: yes", "methods disagree")
        ran = 0
        for line in lines[1:-1]:
            name, _, shown = line.partition(" ")
            shown = shown.strip()
            if shown.startswith("skipped"):
                continue
            expect(int(shown) == d, f"{name} gives {shown}, expected {d}")
            ran += 1
        expect(ran >= 2, "fewer than two methods ran")
    return check


def check_value(expected):
    """Library calls return the number itself."""
    def check(result):
        expect(result == expected, f"returned {result!r}, expected {expected!r}")
    return check
