"""Command line front end.

Four subcommands over one document format: `paths` lists minimal path
vectors, `domination` computes the signed domination of a level
function (optionally its full table), `reliability` evaluates the
domination expansion against component distributions, and `verify`
runs every applicable method and checks that they agree.

`domination --method auto` takes the system's closed form when one
applies and the per-corner binary route otherwise; `verify` runs it as
its `closed_form` line.  A system carries its closed form: the threshold
formula and signed value distributions for sums, the sign rule and the
series-parallel reduction for networks (see signed), none for the other
kinds.  A distribution route bounds its integer steps before it starts
and, past 10^7, leaves the document to the other routes and their
guards.

Exit codes: 0 success, 2 parse or validation failure, 3 a complexity
guard refused the computation (in `verify`, every method), 4
verification disagreement.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import warnings
from fractions import Fraction

from .documents import SystemDocument, parse_system
from .domination import domination_via_binary, pivotal_domination
from .errors import ComplexityGuardError, DomikitError, ParseError
from .poset import (
    DominationTable,
    domination_by_closure_mobius,
    domination_by_formations,
    join_closure,
)
from .systems import (
    MultistateSystem,
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


class _Routes:
    """The named routes to d(phi_k) for one (system, level); they share
    one path-vector scan and one closure Mobius table, each built once.
    The closed form gives None where the system has none (see
    MultistateSystem._closed)."""

    def __init__(self, system: MultistateSystem, level: int):
        self.ls = system.level(level)
        top = system.max_states
        self.methods = {  # in the order verify runs them
            "formations": lambda: domination_by_formations(self.paths).get(top, 0),
            "mobius": lambda: self.table.get(top, 0),
            "pivotal": lambda: pivotal_domination(self.ls),
            "binary": lambda: domination_via_binary(self.ls),
            "closed_form": lambda: system._closed(level),
        }

    @functools.cached_property
    def paths(self) -> tuple:
        return minimal_path_vectors(self.ls)

    @functools.cached_property
    def table(self) -> DominationTable:
        """Full table, through the closure: no state-space visit per entry."""
        return domination_by_closure_mobius(join_closure(self.paths))

    def compute(self, method: str) -> tuple[int, str]:
        """(value, method used).  `auto` takes the closed form when one
        applies, else binary; past the guard it refuses, as pivotal
        visits as many states, and names pivotal only if one evaluation
        of the level function is not refused too."""
        if method != "auto":
            return self.methods[method](), method
        try:
            value = self.methods["closed_form"]()
        except ComplexityGuardError:
            value = None  # the sign rule past the cut guard: binary names the refusals
        if value is not None:
            return value, "closed_form"
        try:
            return self.methods["binary"](), "binary"
        except ComplexityGuardError as e:
            try:
                self.ls(self.ls.max_states)
            except ComplexityGuardError as refused:
                raise ComplexityGuardError(f"{e}; {refused}") from e
            raise ComplexityGuardError(
                f"{e}; --method pivotal runs without the guard but visits as many states"
            ) from e


def cmd_paths(doc: SystemDocument, args) -> tuple[int, str]:
    paths = _Routes(doc.system, args.level).paths
    if args.json:
        payload = {"level": args.level, "count": len(paths),
                   "vectors": [list(p) for p in paths]}
        return 0, json.dumps(payload, indent=2, sort_keys=True)
    lines = [f"minimal path vectors at level {args.level}: {len(paths)}"]
    lines += [_vec(p) for p in paths]
    return 0, "\n".join(lines)


def cmd_domination(doc: SystemDocument, args) -> tuple[int, str]:
    routes = _Routes(doc.system, args.level)
    started = time.perf_counter()
    value, used = routes.compute(args.method)
    elapsed = time.perf_counter() - started
    table = routes.table if args.table else None
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
        row = " ".join(["{}"] * len(doc.system.max_states)) + "\t{}"  # _vec(x), a tab, d
        lines += [row.format(*x, d) for x, d in table.items()]
    return 0, "\n".join(lines)


def cmd_reliability(doc: SystemDocument, args) -> tuple[int, str]:
    if doc.distribution is None:
        raise ParseError("distribution", "reliability needs component distributions")
    routes = _Routes(doc.system, args.level)
    value = reliability_from_domination(routes.table, doc.distribution, doc.system.max_states)
    check = None
    if args.verify:
        check = reliability_enumerate(routes.ls, doc.distribution)
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
    """Run every applicable method; disagreement exits 4, and no method
    run at all, every one refused by a guard, exits 3.  A route's seconds
    count the work it adds: the shared scan is billed to the first that needs it.
    The closed form has a line when one applies or its guard refuses."""
    results: list[tuple[str, int | None, float, str | None]] = []

    def run(name: str, fn):
        started = time.perf_counter()
        try:
            value = fn()
        except ComplexityGuardError as e:
            results.append((name, None, time.perf_counter() - started, str(e)))
            return
        if value is not None:  # None: no closed form applies
            results.append((name, value, time.perf_counter() - started, None))

    for method, fn in _Routes(doc.system, args.level).methods.items():
        run(method, fn)

    values = [v for _, v, _, _ in results if v is not None]
    agree = len(set(values)) == 1 and bool(values)
    code = 0 if agree else 4 if values else 3
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
        return code, json.dumps(payload, indent=2, sort_keys=True)
    lines = [f"signed domination at level {args.level}"]
    for name, value, elapsed, skipped in results:
        shown = f"skipped ({skipped})" if skipped is not None else str(value)
        if args.no_timing:
            lines.append(f"{name:<12} {shown}")
        else:
            lines.append(f"{name:<12} {shown}  ({elapsed:.3f}s)")
    verdict = "yes" if agree else "NO" if values else "none (every method was refused)"
    lines.append(f"agreement: {verdict}")
    return code, "\n".join(lines)


_COMMANDS = {
    "paths": cmd_paths,
    "domination": cmd_domination,
    "reliability": cmd_reliability,
    "verify": cmd_verify,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parse_args keeps no state in it."""
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


def _warning(message, *_) -> None:
    """A library warning as one stderr line, like an error, with no source line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as e:  # a ValueError, not an OSError
        print(f"error: $: invalid UTF-8: {e}", file=sys.stderr)
        return 2
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning
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
