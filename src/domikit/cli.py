"""Command line front end.

Four subcommands over one document format: `paths` lists minimal path
vectors, `domination` computes the signed domination of a level
function (optionally its full table), `reliability` evaluates the
domination expansion against component distributions, and `verify`
runs every applicable method and checks that they agree.

Exit codes: 0 success, 2 parse or validation failure, 3 a complexity
guard refused the computation, 4 verification disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .documents import SystemDocument, parse_system
from .domination import domination_via_binary, pivotal_domination
from .errors import ComplexityGuardError, DomikitError, ParseError
from .matroid import threshold_domination
from .network import directed_network_domination, reduces_to_connectivity
from .poset import (
    DominationTable,
    domination_by_closure_mobius,
    domination_by_formations,
    join_closure,
)
from .systems import (
    minimal_path_vectors,
    reliability_enumerate,
    reliability_from_domination,
)

_METHODS = ("formations", "mobius", "pivotal", "binary", "auto")


def _vec(x) -> str:
    return " ".join(map(str, x))


def _prob(p) -> str:
    if isinstance(p, Fraction):
        return str(p)
    return format(p, ".15g")


def _closed_form(doc: SystemDocument, level: int):
    """The applicable closed-form engine for this document, or None.

    Unit-weight sums over equal state ranges hit the threshold formula;
    fully directed networks whose cut sets are all tight at this level
    reduce to two-terminal connectivity and hit the acyclic/cyclic sign
    rule.
    """
    ms = doc.max_states
    if doc.structure_kind == "sum":
        weights = doc.raw_structure["weights"]
        if all(w == 1 for w in weights) and len(set(ms)) == 1:
            return lambda: threshold_domination(len(ms), ms[0], level)
    if doc.structure_kind == "network" and doc.net is not None:
        net = doc.net
        if all(e.directed for e in net.edges) and reduces_to_connectivity(net, level):
            return lambda: directed_network_domination(net)
    return None


def _domination_table(doc: SystemDocument, level: int) -> DominationTable:
    """Full signed domination table of a level function.

    Always computed through the closure of the minimal path vectors,
    whatever method produced the headline value: that is the only route
    that does not visit the whole state space per entry.
    """
    ls = doc.system.level(level)
    paths = minimal_path_vectors(ls)
    return domination_by_closure_mobius(join_closure(paths))


def _compute(doc: SystemDocument, level: int, method: str, guard: int | None) -> tuple[int, str]:
    """(value, method actually used) for one domination computation.

    `auto` takes a closed form when one applies, else the binary route;
    past the guard it refuses, as pivotal would visit as many states.
    """
    ls = doc.system.level(level)
    top = doc.max_states
    kw = {} if guard is None else {"guard": guard}
    if method == "auto":
        engine = _closed_form(doc, level)
        if engine is not None:
            return engine(), "closed_form"
        try:
            return domination_via_binary(ls, **kw), "binary"
        except ComplexityGuardError as e:
            raise ComplexityGuardError(
                f"{e}; --method pivotal runs without the guard but visits as many states"
            ) from e
    if method == "formations":
        paths = minimal_path_vectors(ls)
        return domination_by_formations(paths, **kw).get(top, 0), method
    if method == "mobius":
        return _domination_table(doc, level).get(top, 0), method
    if method == "pivotal":
        return pivotal_domination(ls), method
    if method == "binary":
        return domination_via_binary(ls, **kw), method
    raise DomikitError(f"unknown method {method!r}")


def cmd_paths(doc: SystemDocument, args) -> tuple[int, str]:
    ls = doc.system.level(args.level)
    paths = minimal_path_vectors(ls)
    if args.json:
        payload = {"level": args.level, "count": len(paths),
                   "vectors": [list(p) for p in paths]}
        return 0, json.dumps(payload, indent=2, sort_keys=True)
    lines = [f"minimal path vectors at level {args.level}: {len(paths)}"]
    lines += [_vec(p) for p in paths]
    return 0, "\n".join(lines)


def cmd_domination(doc: SystemDocument, args) -> tuple[int, str]:
    started = time.perf_counter()
    value, used = _compute(doc, args.level, args.method, args.guard)
    elapsed = time.perf_counter() - started
    table = _domination_table(doc, args.level) if args.table else None
    if args.json:
        payload: dict = {"level": args.level, "method": used, "value": value}
        if not args.no_timing:
            payload["seconds"] = elapsed
        if table is not None:
            payload["table"] = [[list(x), d] for x, d in table.items()]
        return 0, json.dumps(payload, indent=2, sort_keys=True)
    tag = f"[method: {used}]" if args.no_timing else f"[method: {used}, {elapsed:.3f}s]"
    lines = [f"d(phi_{args.level}) = {value}  {tag}"]
    if table is not None:
        lines += [f"{_vec(x)}\t{d}" for x, d in table.items()]
    return 0, "\n".join(lines)


def cmd_reliability(doc: SystemDocument, args) -> tuple[int, str]:
    if doc.distribution is None:
        raise ParseError("distribution", "reliability needs component distributions")
    ls = doc.system.level(args.level)
    table = _domination_table(doc, args.level)
    value = reliability_from_domination(table, doc.distribution, doc.max_states)
    check = None
    if args.verify:
        check = reliability_enumerate(ls, doc.distribution)
    if args.json:
        payload: dict = {"level": args.level, "value": _prob(value)}
        if check is not None:
            payload["enumeration"] = _prob(check)
            payload["abs_diff"] = _prob(abs(value - check))
        return 0, json.dumps(payload, indent=2, sort_keys=True)
    lines = [f"P(phi >= {args.level}) = {_prob(value)}"]
    if check is not None:
        lines.append(f"enumeration = {_prob(check)}")
        lines.append(f"|diff| = {_prob(abs(value - check))}")
    return 0, "\n".join(lines)


def cmd_verify(doc: SystemDocument, args) -> tuple[int, str]:
    """Run every applicable method; disagreement exits 4."""
    results: list[tuple[str, int | None, float, str | None]] = []

    def run(name: str, fn):
        started = time.perf_counter()
        try:
            value = fn()
        except ComplexityGuardError as e:
            results.append((name, None, time.perf_counter() - started, str(e)))
            return
        results.append((name, value, time.perf_counter() - started, None))

    for method in ("formations", "mobius", "pivotal", "binary"):
        run(method, lambda: _compute(doc, args.level, method, args.guard)[0])
    engine = _closed_form(doc, args.level)
    if engine is not None:
        run("closed_form", engine)

    values = [v for _, v, _, _ in results if v is not None]
    agree = len(set(values)) == 1 and bool(values)
    if args.json:
        payload: dict = {"level": args.level, "agree": agree, "results": []}
        for name, value, elapsed, skipped in results:
            rec: dict = {"method": name}
            if skipped is not None:
                rec["skipped"] = skipped
            else:
                rec["value"] = value
            if not args.no_timing:
                rec["seconds"] = elapsed
            payload["results"].append(rec)
        if agree:
            payload["value"] = values[0]
        return (0 if agree else 4), json.dumps(payload, indent=2, sort_keys=True)
    lines = [f"signed domination at level {args.level}"]
    for name, value, elapsed, skipped in results:
        shown = f"skipped ({skipped})" if skipped is not None else str(value)
        if args.no_timing:
            lines.append(f"{name:<12} {shown}")
        else:
            lines.append(f"{name:<12} {shown}  ({elapsed:.3f}s)")
    lines.append(f"agreement: {'yes' if agree else 'NO'}")
    return (0 if agree else 4), "\n".join(lines)


_COMMANDS = {
    "paths": cmd_paths,
    "domination": cmd_domination,
    "reliability": cmd_reliability,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domikit",
        description="Signed domination and reliability of multistate monotone systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("paths", "list minimal path vectors of a level function"),
        ("domination", "signed domination of a level function"),
        ("reliability", "system reliability from the domination expansion"),
        ("verify", "cross-check all applicable domination methods"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="system document (JSON)")
        p.add_argument("--level", type=int, required=True, metavar="K",
                       help="system level, 1..M")
        p.add_argument("--json", action="store_true", help="structured output")
        p.add_argument("--guard", type=int, default=None, metavar="N",
                       help="override the subset/formation complexity guard")
        p.add_argument("--no-timing", action="store_true",
                       help="suppress timings (byte-stable output)")
        if name == "domination":
            p.add_argument("--method", choices=_METHODS, default="auto")
            p.add_argument("--table", action="store_true",
                           help="print the full signed domination table")
        if name == "reliability":
            p.add_argument("--verify", action="store_true",
                           help="cross-check against state enumeration")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.guard is not None and args.guard < 1:
        parser.error(f"argument --guard: must be at least 1, got {args.guard}")
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        doc = parse_system(text)
        code, output = _COMMANDS[args.command](doc, args)
    except ComplexityGuardError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except DomikitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
