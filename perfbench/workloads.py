"""The three workloads: their documents, operations and expected outputs.

The shapes below are fixed, so every seed does the same amount of work.
The seed picks everything that does not change that amount: the order
of components, the names of nodes and ground elements, the weights of
the weighted binary sums, the generator family of the formations
document and every probability.  Expected values are computed here, by
`oracle`, before any timing starts.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle
from oracle import Lattice


@dataclass
class Op:
    """One operation of a pass.

    A CLI operation runs `domikit` with `argv` in-process and yields
    (exit code, stdout); a library operation calls `call(modules)` and
    yields its return value.  `check` raises oracle.CheckFailed on a
    wrong output.
    """

    label: str
    check: Callable
    argv: list[str] | None = None
    call: Callable | None = None


@dataclass
class Workload:
    name: str
    documents: dict[str, dict]
    ops: list[Op]


def _pmfs(rng: random.Random, max_states, exact: bool):
    rows = []
    for m in max_states:
        weights = [rng.randint(1, 9) for _ in range(m + 1)]
        total = sum(weights)
        rows.append([str(Fraction(w, total)) if exact else w / total for w in weights])
    return rows


def _permute(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


class _Docs:
    """Writes documents into the run's directory and returns their paths."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.documents: dict[str, dict] = {}

    def add(self, name: str, doc: dict) -> str:
        self.documents[name] = doc
        path = self.directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)


# --- lattice -----------------------------------------------------------------

# (name, max_states, weights, divisor, up-set bumps, kind, (middle, upper) levels,
#  exact distribution, paths at the upper level)
# A table or path_vectors template is phi(x) = min(top, w.x // divisor + #{b <= x}):
# a weighted sum raised by one on each bump's up-set, which keeps it monotone.
# Uniformly random monotone tables saturate early and have few path vectors.
_LATTICE = [
    ("sum_equal", (2, 2, 2, 2, 2, 2), None, 1, (), "sum", (7, 8), True, True),
    ("sum_mixed", (1, 1, 2, 2, 1, 1, 2), None, 1, (), "sum", (6, 7), False, False),
    ("sum_weighted", (1, 2, 2, 3, 1, 2), (2, 1, 1, 1, 3, 2), 1, (), "sum", (8, 11), True, False),
    ("table6", (1, 2, 2, 3, 1, 2), (2, 1, 1, 1, 3, 2), 2,
     ((1, 2, 0, 2, 0, 1), (0, 1, 0, 1, 0, 2), (1, 0, 2, 0, 0, 0), (0, 0, 0, 0, 1, 0),
      (0, 0, 1, 3, 0, 2)), "table", (4, 6), False, True),
    ("table5", (2, 3, 2, 1, 3), (1, 2, 1, 3, 1), 2,
     ((1, 3, 1, 0, 0), (1, 3, 2, 1, 1), (0, 0, 0, 0, 3), (1, 0, 2, 0, 0)), "table", (4, 5), True, False),
    ("paths7", (1, 2, 1, 2, 1, 1, 2), (1, 1, 2, 1, 2, 1, 1), 1,
     ((1, 2, 0, 2, 0, 1, 0), (1, 0, 1, 0, 1, 1, 0), (1, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 1, 2)),
     "path_vectors", (7, 10), False, True),
]


def _template_phi(ms, weights, divisor, bumps):
    w = weights or (1,) * len(ms)
    top = sum(a * b for a, b in zip(w, ms)) // divisor

    def phi(x):
        raised = sum(all(b <= a for b, a in zip(bump, x)) for bump in bumps)
        return min(top, sum(a * b for a, b in zip(w, x)) // divisor + raised)

    return phi


def _lattice_doc(rng, ms, weights, divisor, bumps, kind, exact):
    perm = _permute(rng, len(ms))
    pms = [ms[p] for p in perm]
    doc: dict = {"format_version": 1, "max_states": pms}
    if kind == "sum":
        structure: dict = {"kind": "sum"}
        if weights is not None:
            structure["weights"] = [weights[p] for p in perm]
    else:
        phi = _template_phi(ms, weights, divisor, bumps)

        def unpermuted(y):
            x = [0] * len(ms)
            for j, p in enumerate(perm):
                x[p] = y[j]
            return tuple(x)

        lat = Lattice(pms)
        values = [phi(unpermuted(y)) for y in lat.vectors()]
        if kind == "table":
            structure = {"kind": "table", "values": values}
        else:
            levels = {}
            for k in range(1, max(values) + 1):
                ind = [1 if v >= k else 0 for v in values]
                levels[str(k)] = [list(x) for x in lat.minimal_vectors(ind)]
            structure = {"kind": "path_vectors", "levels": levels}
    doc["structure"] = structure
    doc["distribution"] = _pmfs(rng, pms, exact)
    return doc


def _level_ops(name: str, path: str, doc: dict, lat: Lattice, phi: list[int], level: int,
               kinds: tuple[str, ...], path_count: int | None = None) -> list[Op]:
    """Operations of the given kinds on one document at one level.

    Kinds: paths, domination (auto), table (domination --table),
    reliability, reliability-verify and verify.
    """
    ind = [1 if v >= level else 0 for v in phi]
    d = lat.binary_domination(ind)
    k = str(level)
    ops = []
    for kind in kinds:
        if kind == "paths":
            check = oracle.check_paths(lat.minimal_vectors(ind), level, path_count)
            argv = ["paths", path, "--level", k]
        elif kind == "domination":
            check = oracle.check_domination(d, level)
            argv = ["domination", path, "--level", k, "--no-timing"]
        elif kind == "table":
            check = oracle.check_table(lat, ind, d, level)
            argv = ["domination", path, "--level", k, "--table", "--no-timing"]
        elif kind.startswith("reliability"):
            pmfs, exact = oracle.pmfs_of(doc)
            verify = kind == "reliability-verify"
            check = oracle.check_reliability(lat.reliability(ind, pmfs, exact), exact, level, verify)
            argv = ["reliability", path, "--level", k] + (["--verify"] if verify else [])
        else:
            check = oracle.check_verify(d, level)
            argv = ["verify", path, "--level", k, "--no-timing"]
        ops.append(Op(f"{name}/k{level}/{kind}", check, argv=argv))
    return ops


def lattice(seed: int, docs: _Docs) -> list[Op]:
    rng = random.Random(f"lattice-{seed}")
    ops = []
    for name, ms, weights, divisor, bumps, kind, levels, exact, upper_paths in _LATTICE:
        doc = _lattice_doc(rng, ms, weights, divisor, bumps, kind, exact)
        path = docs.add(name, doc)
        lat = Lattice(doc["max_states"])
        phi = oracle.phi_values(doc)
        for level in levels:
            count = None
            if kind == "sum" and weights is None:
                count = oracle.sum_path_count(doc["max_states"], level)
                j = level - sum(m - 1 for m in doc["max_states"])
                ind = [1 if v >= level else 0 for v in phi]
                if lat.binary_domination(ind) != oracle.threshold_value(lat.n, j):
                    raise RuntimeError(f"{name}: oracle disagrees with the k-of-n closed form")
            if level == levels[0]:
                kinds = ("paths", "table", "reliability", "verify")
            else:
                kinds = ("paths",) * upper_paths + ("table", "reliability-verify", "verify")
            ops += _level_ops(name, path, doc, lat, phi, level, kinds, count)
    return ops


# --- network -----------------------------------------------------------------

# The paper's seven-edge bridge; the cyclic variant reverses edges 3 and 5.
_BRIDGE = ((1, "S", "A", 2), (2, "S", "B", 2), (3, "A", "B", 1), (4, "A", "C", 2),
           (5, "B", "C", 1), (6, "C", "T", 2), (7, "B", "T", 2))
_BRIDGE_LEVEL3 = {"bridge_undirected": -3, "bridge_acyclic": -1, "bridge_cyclic": 0}

# Ten undirected edges, 26 244 states, four levels.  Each level keeps its
# closure small enough that every operation ends within two seconds, and
# path-vector counts off 15..20, where formation counting in `verify`
# would walk up to 2^20 subsets.
_TEN_EDGE = ((1, "A", "T", 1), (2, "C", "T", 2), (3, "S", "E", 2), (4, "A", "D", 2),
             (5, "B", "D", 2), (6, "D", "T", 1), (7, "C", "E", 2), (8, "A", "C", 2),
             (9, "S", "C", 2), (10, "B", "T", 2))


def _network_doc(rng, edges, directed: bool, exact: bool):
    nodes = sorted({e[1] for e in edges} | {e[2] for e in edges})
    names = [f"v{i}" for i in range(len(nodes))]
    rng.shuffle(names)
    rename = dict(zip(nodes, names))
    ids = _permute(rng, len(edges))
    records = [{"id": ids[i] + 1, "from": rename[u], "to": rename[v],
                "directed": directed, "max_capacity": c}
               for i, (_, u, v, c) in enumerate(edges)]
    records.sort(key=lambda r: r["id"])
    doc = {"format_version": 1,
           "structure": {"kind": "network", "nodes": sorted(names), "edges": records,
                         "source": rename["S"], "sink": rename["T"]}}
    doc["distribution"] = _pmfs(rng, [r["max_capacity"] for r in records], exact)
    return doc


def network(seed: int, docs: _Docs) -> list[Op]:
    rng = random.Random(f"network-{seed}")
    cyclic = tuple((i, v, u, c) if i in (3, 5) else (i, u, v, c) for i, u, v, c in _BRIDGE)
    variants = [("bridge_undirected", _BRIDGE, False, True),
                ("bridge_acyclic", _BRIDGE, True, True),
                ("bridge_cyclic", cyclic, True, True),
                ("ten_edge", _TEN_EDGE, False, False)]
    ops = []
    for name, edges, directed, exact in variants:
        doc = _network_doc(rng, edges, directed, exact)
        path = docs.add(name, doc)
        ms, phi = oracle.network_phi(doc)
        lat = Lattice(ms)
        for level in range(1, phi[-1] + 1):
            if name in _BRIDGE_LEVEL3:
                if level == 3:
                    d = lat.binary_domination([1 if v >= 3 else 0 for v in phi])
                    if d != _BRIDGE_LEVEL3[name]:
                        raise RuntimeError(f"{name}: oracle gives d = {d} at level 3, "
                                           f"the paper {_BRIDGE_LEVEL3[name]}")
                # auto domination on the bridge takes 2-7 ms; it runs at the paper's level only
                kinds = ("paths", "verify", "reliability-verify") + ("domination",) * (level == 3)
            else:
                kinds = ("paths", "domination", "verify", "reliability-verify")
            ops += _level_ops(name, path, doc, lat, phi, level, kinds)
    return ops


# --- binary ------------------------------------------------------------------

# (n, k) of the k-out-of-n documents, each run under pivotal and binary
_K_OF_N = ((14, 7), (15, 8))
_WEIGHTED = (12, 12, 14)           # components of the weighted binary sums, run under auto
_FORMATIONS = (12, 16)             # components and generators of the formations family
_UNIFORM = ((4, 9), (5, 10), (5, 11))   # (rank, size) of the uniform matroids
# The bridge with a terminal link x from S to T has beta 3.
_BRIDGE_GRAPH = tuple((i, u, v) for i, u, v, _ in _BRIDGE) + (("x", "S", "T"),)
_GRAPH10 = ((1, "a", "b"), (2, "a", "c"), (3, "a", "d"), (4, "b", "c"), (5, "b", "d"),
            (6, "c", "d"), (7, "a", "e"), (8, "e", "d"), (9, "b", "e"), ("x", "a", "d"))


def _graph(rng, edges):
    """The same graph with shuffled vertex names and edge order; x stays the terminal."""
    verts = sorted({e[1] for e in edges} | {e[2] for e in edges})
    names = [f"u{i}" for i in range(len(verts))]
    rng.shuffle(names)
    rename = dict(zip(verts, names))
    out = [(label, rename[u], rename[v]) for label, u, v in edges]
    rng.shuffle(out)
    return tuple(out)


def _matroid_ops(tag: str, build, terminal, beta: int, sign: int) -> list[Op]:
    """beta_number, domination_from_beta, the invariant recursion and the
    subset formula, each on a matroid built inside the operation."""
    def link(m):
        return m.matroid.MatroidSystemLink(build(m), terminal)

    def from_beta(m):
        lk = link(m)
        return m.matroid.domination_from_beta(lk, lk.components)

    return [
        Op(f"{tag}/beta_number", oracle.check_value(beta),
           call=lambda m: m.matroid.beta_number(build(m))),
        Op(f"{tag}/domination_from_beta", oracle.check_value(sign * beta), call=from_beta),
        Op(f"{tag}/invariant_recursion", oracle.check_value(beta),
           call=lambda m: m.matroid.domination_invariant_recursion(m.matroid.link_structure(link(m)))),
        Op(f"{tag}/binary_signed_domination", oracle.check_value(sign * beta),
           call=lambda m: m.domination.binary_signed_domination(m.matroid.link_structure(link(m)))),
    ]


def binary(seed: int, docs: _Docs) -> list[Op]:
    rng = random.Random(f"binary-{seed}")
    ops = []
    for n, k in _K_OF_N:
        path = docs.add(f"k_of_{n}_k{k}", {"format_version": 1, "max_states": [1] * n,
                                           "structure": {"kind": "sum"}})
        d = oracle.threshold_value(n, k)
        for method in ("pivotal", "binary"):
            ops.append(Op(f"k_of_{n}/k{k}/{method}", oracle.check_domination(d, k),
                          argv=["domination", path, "--level", str(k), "--method", method,
                                "--no-timing"]))
    for i, n in enumerate(_WEIGHTED):
        w = [rng.randint(1, 4) for _ in range(n)]
        k = sum(w) // 2
        path = docs.add(f"weighted_{i}", {"format_version": 1, "max_states": [1] * n,
                                          "structure": {"kind": "sum", "weights": w}})
        d = oracle.binary_alternating_sum(
            n, lambda mask: sum(wi for j, wi in enumerate(w) if mask >> j & 1) >= k)
        ops.append(Op(f"weighted_{i}/n{n}/auto", oracle.check_domination(d, k),
                      argv=["domination", path, "--level", str(k), "--no-timing"]))

    n, s = _FORMATIONS
    family: set[int] = set()
    while len(family) < s:   # distinct 4-subsets are pairwise incomparable
        family.add(sum(1 << j for j in rng.sample(range(n), 4)))
    gens = sorted(family)
    path = docs.add("formations", {
        "format_version": 1, "max_states": [1] * n,
        "structure": {"kind": "path_vectors",
                      "levels": {"1": [[g >> j & 1 for j in range(n)] for g in gens]}}})
    d = oracle.binary_alternating_sum(n, lambda mask: any(g & mask == g for g in gens))
    ops.append(Op(f"formations/s{s}", oracle.check_domination(d, 1),
                  argv=["domination", path, "--level", "1", "--method", "formations",
                        "--no-timing"]))

    for r, size in _UNIFORM:
        labels = list(range(size))
        rng.shuffle(labels)
        terminal = rng.choice(labels)
        beta = math.comb(size - 2, r - 1)
        sign = -1 if (size - 1 - r) % 2 else 1
        ops += _matroid_ops(f"uniform_{r}_{size}",
                            lambda m, labels=tuple(labels), r=r: m.matroid.uniform_matroid(labels, r),
                            terminal, beta, sign)

    bridge = _graph(rng, _BRIDGE_GRAPH)
    beta, rank = oracle.graphic_beta(bridge)
    if beta != 3:
        raise RuntimeError(f"oracle gives beta {beta} for the bridge with a terminal link, not 3")
    sign = -1 if (len(bridge) - 1 - rank) % 2 else 1
    # each call alone takes 2-3 ms, so one operation makes all four
    suite = _matroid_ops("graphic_bridge", lambda m: m.matroid.graphic_matroid(bridge),
                         "x", beta, sign)
    ops.append(Op("graphic_bridge/all_four", oracle.check_value([beta, sign * beta, beta, sign * beta]),
                  call=lambda m: [op.call(m) for op in suite]))
    graph = _graph(rng, _GRAPH10)
    beta, rank = oracle.graphic_beta(graph)
    sign = -1 if (len(graph) - 1 - rank) % 2 else 1
    ops += _matroid_ops("graphic_10", lambda m: m.matroid.graphic_matroid(graph), "x", beta, sign)
    return ops


BUILDERS = {"lattice": lattice, "network": network, "binary": binary}


def build(name: str, seed: int, directory: Path) -> Workload:
    """Documents written to `directory`, and the operations of one pass in
    a seeded interleaved order."""
    docs = _Docs(directory)
    ops = BUILDERS[name](seed, docs)
    random.Random(f"order-{name}-{seed}").shuffle(ops)
    return Workload(name=name, documents=docs.documents, ops=ops)
