"""Span recording for the traced run, from outside the program.

`Tracer.install` rebinds named public functions in the `domikit.*`
module namespaces (and in module-level dicts that hold them, such as the
CLI's command table) to wrappers that record a span per call, and wraps
`MultistateSystem.evaluate` and `Matroid.rank_mask` to count calls.
`Tracer.uninstall` puts every original back.  Nothing under `src/`
changes.

A span's self time is its duration minus the time of the spans it
called, so a recursive function such as `pivotal_domination` nests and
every moment of an operation is counted once.  Spans are kept in memory
as a call tree, sibling spans of one name merged, and per-name totals.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, function) -> layer metric that takes its self time
SPANS = {
    ("documents", "parse_system"): "documents.parse_ms",
    ("systems", "check_monotone"): "systems.check_monotone_ms",
    ("systems", "minimal_path_vectors"): "systems.minimal_path_vectors_ms",
    ("systems", "reliability_from_domination"): "systems.reliability_ms",
    ("systems", "reliability_enumerate"): "systems.enumerate_ms",
    ("poset", "join_closure"): "poset.join_closure_ms",
    ("poset", "domination_by_closure_mobius"): "poset.closure_mobius_ms",
    ("poset", "domination_by_formations"): "poset.formations_ms",
    ("domination", "pivotal_domination"): "domination.pivotal_ms",
    ("domination", "domination_via_binary"): "domination.binary_ms",
    ("domination", "binary_signed_domination"): "domination.binary_ms",
    ("network", "max_flow"): "network.max_flow_ms",
    ("network", "minimal_cut_sets"): "network.cut_sets_ms",
    ("matroid", "beta_number"): "matroid.beta_ms",
    ("matroid", "crapo_beta"): "matroid.beta_ms",
    ("matroid", "domination_invariant_recursion"): "matroid.recursion_ms",
    ("cli", "main"): "cli.self_ms",
    ("cli", "cmd_paths"): "cli.paths_ms",
    ("cli", "cmd_domination"): "cli.domination_ms",
    ("cli", "cmd_reliability"): "cli.reliability_ms",
    ("cli", "cmd_verify"): "cli.verify_ms",
}

# span name -> count metric of its calls
CALLS = {
    "domination.pivotal_domination": "domination.pivotal_calls",
    "network.max_flow": "network.max_flow_calls",
}

COUNTS = ("systems.evaluations", "network.evaluations", "poset.closure_elements",
          "matroid.rank_calls")


class Node:
    """Call-tree node: merged spans of one name under one parent."""

    __slots__ = ("calls", "total", "self_time", "children")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.children: dict[str, Node] = {}

    def to_dict(self) -> dict:
        out = {"calls": self.calls, "total_ms": self.total * 1e3, "self_ms": self.self_time * 1e3}
        if self.children:
            out["children"] = {k: v.to_dict() for k, v in self.children.items()}
        return out


class _Frame:
    __slots__ = ("node", "child")

    def __init__(self, node: Node):
        self.node = node
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.self_time: Counter = Counter()   # span name -> seconds
        self.calls: Counter = Counter()       # span name -> calls
        self.counts: Counter = Counter()      # COUNTS -> events
        self.tree = Node()                    # the current pass
        self._stack: list[_Frame] = [_Frame(self.tree)]
        self._restore: list[tuple[object, object, object]] = []

    def begin_pass(self) -> None:
        """Start a fresh call tree; the totals keep accumulating."""
        self.tree = Node()
        self._stack[:] = [_Frame(self.tree)]

    def _enter(self, name: str) -> _Frame:
        children = self._stack[-1].node.children
        node = children.get(name)
        if node is None:
            node = children[name] = Node()
        frame = _Frame(node)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, elapsed: float) -> float:
        """Close the innermost span and return its self time."""
        self._stack.pop()
        own = elapsed - frame.child
        node = frame.node
        node.calls += 1
        node.total += elapsed
        node.self_time += own
        self._stack[-1].child += elapsed
        return own

    @contextmanager
    def op(self, label: str):
        """The root span of one operation."""
        frame = self._enter(label)
        started = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, perf_counter() - started)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.self_time[name] += self._exit(frame, perf_counter() - started)
                self.calls[name] += 1
            if name == "poset.join_closure":
                self.counts["poset.closure_elements"] += len(result.elements)
            return result

        return wrapper

    # -- install and uninstall -------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function wherever a domikit module holds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "domikit" or name.startswith("domikit.")}
        for (mod_name, attr), _ in SPANS.items():
            original = getattr(modules[f"domikit.{mod_name}"], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for k, v in list(value.items()):
                            if v is original:
                                self._rebind(value, k, wrapper)

        systems = modules["domikit.systems"]
        matroid = modules["domikit.matroid"]
        evaluate = systems.MultistateSystem.evaluate
        rank_mask = matroid.Matroid.rank_mask
        count = self.counts

        def counted_evaluate(system, x):
            count["systems.evaluations"] += 1
            if system.kind == "network":
                count["network.evaluations"] += 1
            return evaluate(system, x)

        def counted_rank_mask(m, mask):
            count["matroid.rank_calls"] += 1
            return rank_mask(m, mask)

        self._rebind(systems.MultistateSystem, "evaluate", counted_evaluate)
        self._rebind(matroid.Matroid, "rank_mask", counted_rank_mask)

    def _rebind(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._restore.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        """Put back every original, last change first."""
        while self._restore:
            owner, key, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results ---------------------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        """Layer metrics summed over everything traced so far (ms and counts)."""
        out = {metric: 0.0 for metric in SPANS.values()}
        for (mod_name, attr), metric in SPANS.items():
            out[metric] += self.self_time[f"{mod_name}.{attr}"] * 1e3
        for span, metric in CALLS.items():
            out[metric] = float(self.calls[span])
        for metric in COUNTS:
            out[metric] = float(self.counts[metric])
        return out
