"""Reading and writing system documents.

A document is a JSON object describing one multistate system: its
component state bounds, a structure of one of four kinds (explicit
table, weighted sum, two-terminal flow network, or minimal path vector
families) and, optionally, independent component distributions.
Parsing validates everything up front and reports the path of the first
offending field, integers too long for int() or str() included.  A
parsed document is the built system and its distributions: whatever a
route needs of the structure, closed forms included, the system holds.

Probabilities may be written as decimal numbers or as rational strings
like "3/10"; any rational entry switches the whole distribution into
exact arithmetic.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from itertools import chain
from typing import Any

from .errors import (
    ComplexityGuardError,
    DistributionError,
    DomikitError,
    GraphError,
    ParseError,
)
from .network import Edge, FlowNetwork, network_system
from .systems import (
    ComponentDistribution,
    MultistateSystem,
    path_vector_system,
    sum_system,
    table_system,
)

FORMAT_VERSION = 1

_TOP_KEYS = {"format_version", "n", "max_states", "system_max", "structure", "distribution"}
_KINDS = ("table", "sum", "network", "path_vectors")
_EDGE_KEYS = {"id", "from", "to", "directed", "max_capacity"}


class SystemDocument:
    """A parsed document: the built system and the component
    distributions, if any."""

    system: MultistateSystem
    distribution: ComponentDistribution | None

    def __init__(self, system, distribution=None):
        self.system, self.distribution = system, distribution


def _expect_dict(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(path, f"expected an array, got {type(value).__name__}")
    return value


def _expect_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(path, f"expected an integer, got {value!r}")
    return value


def _expect_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ParseError(path, f"expected a string, got {value!r}")
    return value


def _expect_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ParseError(path, f"expected true or false, got {value!r}")
    return value


def _get(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise ParseError(f"{path}.{key}" if path else key, "missing required field")
    return obj[key]


def _int_list(value: Any, path: str) -> list[int]:
    for i, v in enumerate(_expect_list(value, path)):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ParseError(f"{path}[{i}]", f"expected an integer, got {v!r}")
    return list(value)


def _parse_structure(obj: dict, max_states: tuple[int, ...] | None) -> MultistateSystem:
    kind = _expect_str(_get(obj, "kind", "structure"), "structure.kind")
    if kind not in _KINDS:
        raise ParseError("structure.kind", f"unknown kind {kind!r}, expected one of {_KINDS}")
    known = {"table": {"kind", "values"}, "sum": {"kind", "weights"},
             "path_vectors": {"kind", "levels"},
             "network": {"kind", "nodes", "edges", "source", "sink"}}[kind]
    for key in obj:
        if key not in known:
            raise ParseError(f"structure.{key}", f"unknown field for kind {kind!r}")

    if kind == "network":
        nodes = [_expect_str(v, f"structure.nodes[{i}]")
                 for i, v in enumerate(_expect_list(_get(obj, "nodes", "structure"), "structure.nodes"))]
        edges = []
        for i, rec in enumerate(_expect_list(_get(obj, "edges", "structure"), "structure.edges")):
            epath = f"structure.edges[{i}]"
            rec = _expect_dict(rec, epath)
            for key in rec:
                if key not in _EDGE_KEYS:
                    raise ParseError(f"{epath}.{key}", "unknown field")
            edges.append(Edge(
                id=_expect_int(_get(rec, "id", epath), f"{epath}.id"),
                tail=_expect_str(_get(rec, "from", epath), f"{epath}.from"),
                head=_expect_str(_get(rec, "to", epath), f"{epath}.to"),
                directed=_expect_bool(_get(rec, "directed", epath), f"{epath}.directed"),
                capacity=_expect_int(_get(rec, "max_capacity", epath), f"{epath}.max_capacity"),
            ))
        source = _expect_str(_get(obj, "source", "structure"), "structure.source")
        sink = _expect_str(_get(obj, "sink", "structure"), "structure.sink")
        try:
            net = FlowNetwork(nodes=tuple(nodes), edges=tuple(edges), source=source, sink=sink)
        except GraphError as e:
            raise ParseError("structure", str(e)) from e
        if max_states is not None and max_states != net.max_states:
            raise ParseError(
                "max_states", f"{list(max_states)} does not match edge capacities {list(net.max_states)}"
            )
        system = network_system(net)
        _check_printable(system.system_max, "structure.edges")
        return system

    if max_states is None:
        raise ParseError("max_states", "missing required field")
    if kind == "table":
        values = _int_list(_get(obj, "values", "structure"), "structure.values")
        try:
            return table_system(max_states, values)
        except ComplexityGuardError:
            raise
        except DomikitError as e:
            raise ParseError("structure.values", str(e)) from e
    if kind == "sum":
        weights = _int_list(obj["weights"], "structure.weights") if "weights" in obj else None
        try:
            system = sum_system(max_states, weights)
        except DomikitError as e:
            raise ParseError("structure.weights", str(e)) from e
        _check_printable(system.system_max, "structure.weights")
        return system
    # path_vectors
    levels_obj = _expect_dict(_get(obj, "levels", "structure"), "structure.levels")
    levels: dict[int, list[tuple[int, ...]]] = {}
    for key, fam in levels_obj.items():
        if key.isascii() and key.isdigit() and 0 < _max_digits() < len(key):
            raise ParseError("structure.levels", _too_long("a level key"))
        if not (key.isascii() and key.isdigit()) or int(key) < 1:
            raise ParseError(f"structure.levels.{key}", "level keys must be positive integers")
        if key.startswith("0"):  # "01" would name level 1 beside "1"
            raise ParseError(f"structure.levels.{key}", f'level {int(key)} must be written "{int(key)}"')
        fam = _expect_list(fam, f"structure.levels.{key}")
        # one flat type check; the loop runs only to name the first fault
        if not ({list}.issuperset(map(type, fam))
                and {int}.issuperset(map(type, chain.from_iterable(fam)))):
            for i, v in enumerate(fam):
                _int_list(v, f"structure.levels.{key}[{i}]")
        levels[int(key)] = list(map(tuple, fam))
    try:
        return path_vector_system(max_states, levels)
    except DomikitError as e:
        raise ParseError("structure.levels", str(e)) from e


def _parse_distribution(value: Any, max_states: tuple[int, ...]) -> ComponentDistribution:
    rows_in = _expect_list(value, "distribution")
    if len(rows_in) != len(max_states):
        raise ParseError(
            "distribution", f"{len(rows_in)} pmf rows for {len(max_states)} components"
        )
    has_rational = any(
        isinstance(p, str)
        for row in rows_in if isinstance(row, list)
        for p in row
    )
    rows: list[list[float | Fraction]] = []
    for i, row_in in enumerate(rows_in):
        rpath = f"distribution[{i}]"
        row_in = _expect_list(row_in, rpath)
        if len(row_in) != max_states[i] + 1:
            raise ParseError(rpath, f"pmf needs {max_states[i] + 1} entries, got {len(row_in)}")
        row: list[float | Fraction] = []
        for j, p in enumerate(row_in):
            ppath = f"{rpath}[{j}]"
            if isinstance(p, bool):
                raise ParseError(ppath, f"expected a probability, got {p!r}")
            if isinstance(p, str):
                try:
                    row.append(Fraction(p))
                except (ValueError, ZeroDivisionError) as e:
                    raise ParseError(ppath, f"bad rational {p!r}: {e}") from e
            elif isinstance(p, int):
                try:
                    row.append(Fraction(p) if has_rational else float(p))
                except OverflowError:
                    raise ParseError(ppath, "integer probability too large for a float") from None
            elif isinstance(p, float):
                if has_rational:
                    raise ParseError(ppath, "cannot mix decimal and rational probabilities")
                if not math.isfinite(p):
                    raise ParseError(ppath, f"expected a finite probability, got {p!r}")
                row.append(p)
            else:
                raise ParseError(ppath, f"expected a probability, got {p!r}")
        rows.append(row)
    try:
        return ComponentDistribution(rows)
    except DistributionError as e:
        raise ParseError("distribution", str(e)) from e


def parse_system_dict(obj: Any) -> SystemDocument:
    """Parse an already-decoded JSON object into a SystemDocument."""
    obj = _expect_dict(obj, "$")
    for key in obj:
        if key not in _TOP_KEYS:
            raise ParseError(key, "unknown field")
    version = _expect_int(_get(obj, "format_version", ""), "format_version")
    if version != FORMAT_VERSION:
        raise ParseError("format_version", f"unsupported version {version}, expected {FORMAT_VERSION}")
    structure_obj = _expect_dict(_get(obj, "structure", ""), "structure")

    max_states: tuple[int, ...] | None = None
    if "max_states" in obj:
        ms_list = _int_list(obj["max_states"], "max_states")
        if not ms_list:
            raise ParseError("max_states", "component list is empty")
        if any(m < 1 for m in ms_list):
            raise ParseError("max_states", f"max states must be >= 1, got {ms_list}")
        max_states = tuple(ms_list)

    system = _parse_structure(structure_obj, max_states)
    resolved = system.max_states
    if "n" in obj and _expect_int(obj["n"], "n") != len(resolved):
        raise ParseError("n", f"{obj['n']} does not match {len(resolved)} components")
    if "system_max" in obj:
        declared = _expect_int(obj["system_max"], "system_max")
        if declared != system.system_max:
            raise ParseError(
                "system_max",
                f"declared {declared}, structure yields {system.system_max}",
            )

    dist = None
    if "distribution" in obj:
        dist = _parse_distribution(obj["distribution"], resolved)

    return SystemDocument(system=system, distribution=dist)


def parse_system(text: str) -> SystemDocument:
    """Parse a JSON document; all errors carry the offending field's path."""
    try:
        obj = _loads(text)
    except ValueError:  # an integer int() refuses: read again, integers as text, to name it
        path = _long_integer(_loads(text, parse_int=_Digits))
        raise ParseError(path, _too_long("an integer")) from None
    return parse_system_dict(obj)


def _loads(text: str, **hooks) -> Any:
    try:
        return json.loads(text, **hooks)
    except json.JSONDecodeError as e:
        raise ParseError("$", f"invalid JSON: {e}") from e


def _max_digits() -> int:
    """The most digits int() reads and str() writes; 0 where unlimited."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_long(what: str) -> str:
    return f"{what} has more than {_max_digits()} digits"


def _check_printable(value: int, path: str) -> None:
    """Refuse a system max that str() cannot write: later messages print it."""
    try:
        str(value)
    except ValueError:
        raise ParseError(path, _too_long("the system max")) from None


class _Digits(str):
    """A JSON integer kept as its text."""


def _long_integer(obj: Any) -> str:
    """The path of the first integer longer than int() reads, in a
    document read with its integers as _Digits."""
    stack = [("$", obj)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, _Digits) and len(value.lstrip("-")) > _max_digits():
            return path
        if isinstance(value, dict):
            items = [(k if path == "$" else f"{path}.{k}", v) for k, v in value.items()]
        elif isinstance(value, list):
            items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
        else:
            continue
        stack.extend(reversed(items))
    return "$"
