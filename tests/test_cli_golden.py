"""Golden CLI outputs: exit code, stdout and stderr of every subcommand on
one small document of each kind, compared byte for byte with
`cli_golden.json`.

Performance work must leave every one of these outputs unchanged.  When
an output changes on purpose, re-record the file from a checkout whose
output is known to be right:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import difflib
import functools
import io
import json
import sys
from pathlib import Path

import pytest

from domikit.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")


def _exact(ms):
    return [["1/4", "3/4"] if m == 1 else ["1/6", "1/3", "1/2"] for m in ms]


def _float(ms):
    return [[0.3, 0.7] if m == 1 else [0.125, 0.375, 0.5] for m in ms]


_BRIDGE_EDGES = [
    [1, "S", "A", 2], [2, "S", "B", 2], [3, "A", "B", 1], [4, "A", "C", 2],
    [5, "B", "C", 1], [6, "C", "T", 2], [7, "B", "T", 2],
]


# parallel edges A-T, a series path A-B-T and an S-T edge: undirected and
# series-parallel, so auto and verify take the signed distribution route
_SERIES_PARALLEL_EDGES = [
    [1, "S", "T", 1], [2, "S", "A", 2], [3, "A", "T", 1], [4, "A", "B", 1],
    [5, "A", "T", 2], [6, "B", "T", 1],
]


def _network(nodes, edges, directed):
    return {
        "kind": "network",
        "nodes": list(nodes),
        "edges": [{"id": i, "from": u, "to": v, "directed": directed, "max_capacity": c}
                  for i, u, v, c in edges],
        "source": "S",
        "sink": "T",
    }


def _table_values(ms):
    """phi(x) = min(x0 + x1, 1 + x2), flat in lexicographic order."""
    return [min(a + b, 1 + c) for a in range(ms[0] + 1) for b in range(ms[1] + 1)
            for c in range(ms[2] + 1)]


# name -> (max_states, structure, levels to run)
_SYSTEMS = {
    "sum": ([2, 2, 2], {"kind": "sum"}, [3, 5]),
    "weighted_sum": ([1, 2, 1, 2], {"kind": "sum", "weights": [2, 1, 3, 1]}, [4]),
    "table": ([2, 1, 2], {"kind": "table", "values": _table_values([2, 1, 2])}, [2]),
    "path_vectors": ([1, 2, 1, 2], {"kind": "path_vectors", "levels": {
        "1": [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 2]],
        "2": [[1, 1, 0, 0], [0, 2, 0, 1], [1, 0, 1, 1], [0, 1, 1, 2]],
        "3": [[1, 2, 1, 2]],
    }}, [1, 2]),
    "bridge": ([2, 2, 1, 2, 1, 2, 2], _network("SABCT", _BRIDGE_EDGES, False), [3]),
    "bridge_directed": ([2, 2, 1, 2, 1, 2, 2], _network("SABCT", _BRIDGE_EDGES, True), [3]),
    "series_parallel": ([1, 2, 1, 1, 2, 1], _network("SABT", _SERIES_PARALLEL_EDGES, False),
                        [2, 3]),
}

# exact pmf rows with pairwise different denominators (prime, near 10^4,
# and a row of plain ints), so the common-denominator scaling of exact
# reliability is pinned past rows of 4 and 6: (system, rows) by name
_MIXED_DENOMINATORS = {
    "sum": ("weighted_sum", [["1/11", "10/11"], ["1/7", "2/7", "4/7"], [0, 1],
                             ["1/9973", "4986/9973", "4986/9973"]]),
    "bridge": ("bridge", [["1/7", "2/7", "4/7"], ["1/13", "5/13", "7/13"], ["1/11", "10/11"],
                          ["17/9973", "956/9973", "9000/9973"], [0, 1],
                          ["1/3", "1/3", "1/3"], ["1/2", "0", "1/2"]]),
}

# malformed path_vectors documents: parse errors, exit 2
_MALFORMED = {
    "comparable_pair": {"1": [[1, 0, 0, 0], [0, 1, 0, 1], [1, 1, 0, 0]]},
    "duplicate": {"1": [[0, 1, 0, 1], [0, 1, 0, 1]]},
    "dominates_nothing": {"1": [[1, 1, 0, 0]], "2": [[0, 0, 1, 1]]},
    "negative": {"1": [[1, -1, 0, 0]]},
    "ragged": {"1": [[1, 0, 0, 0], [0, 1, 0]]},
    "outside_space": {"1": [[2, 0, 0, 0]]},
}


def documents():
    docs = {}
    for name, (ms, structure, _) in _SYSTEMS.items():
        base = {"format_version": 1, "structure": structure}
        if structure["kind"] != "network":
            base["max_states"] = ms
        docs[name] = dict(base, distribution=_exact(ms))
        docs[name + ".float"] = dict(base, distribution=_float(ms))
    for name, (system, rows) in _MIXED_DENOMINATORS.items():
        docs["mixed_denominators." + name] = dict(docs[system], distribution=rows)
    for name, levels in _MALFORMED.items():
        docs["malformed." + name] = {
            "format_version": 1, "max_states": [1, 2, 1, 2],
            "structure": {"kind": "path_vectors", "levels": levels},
        }
    return docs


def cases():
    """(case id, document name, argv after the file)."""
    out = []
    for name, (_, _, levels) in _SYSTEMS.items():
        for k in map(str, levels):
            runs = [
                ["paths", "--level", k],
                ["paths", "--level", k, "--json"],
                ["domination", "--level", k, "--no-timing", "--table"],
                ["domination", "--level", k, "--no-timing", "--table", "--json"],
                *(["domination", "--level", k, "--no-timing", "--method", m]
                  for m in ("formations", "mobius", "pivotal", "binary", "auto")),
                ["domination", "--level", k, "--no-timing", "--method", "mobius", "--table"],
                ["verify", "--level", k, "--no-timing"],
                ["verify", "--level", k, "--no-timing", "--json"],
            ]
            reliability = [
                ["reliability", "--level", k],
                ["reliability", "--level", k, "--verify"],
                ["reliability", "--level", k, "--json", "--verify"],
            ]
            for doc, argvs in ((name, runs + reliability), (name + ".float", reliability)):
                out += [(f"{doc} {' '.join(argv)}", doc, argv) for argv in argvs]
    for name, (system, _) in _MIXED_DENOMINATORS.items():
        doc = "mixed_denominators." + name
        for k in map(str, _SYSTEMS[system][2]):
            out += [(f"{doc} {' '.join(argv)}", doc, argv) for argv in (
                ["reliability", "--level", k],
                ["reliability", "--level", k, "--verify"],
                ["reliability", "--level", k, "--json", "--verify"],
            )]
    for name in _MALFORMED:
        doc = "malformed." + name
        out.append((f"{doc} paths --level 1", doc, ["paths", "--level", "1"]))
    return out


def run_case(directory: Path, doc_name: str, argv: list[str]) -> dict:
    path = directory / f"{doc_name}.json"
    if not path.exists():
        path.write_text(json.dumps(documents()[doc_name]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _diff(expected: dict, actual: dict) -> str:
    lines = [f"exit code {expected['code']} -> {actual['code']}"]
    for stream in ("stdout", "stderr"):
        lines += difflib.unified_diff(
            expected[stream].splitlines(), actual[stream].splitlines(),
            f"golden {stream}", f"current {stream}", lineterm="",
        )
    return "\n".join(lines)


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(case_id for case_id, _, _ in cases())


@pytest.mark.parametrize("case_id, doc_name, argv", cases(), ids=[c[0] for c in cases()])
def test_cli_output_matches_golden(tmp_path, case_id, doc_name, argv):
    expected = _golden()[case_id]
    actual = run_case(tmp_path, doc_name, argv)
    assert actual == expected, _diff(expected, actual)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = {case_id: run_case(Path(tmp), doc, argv) for case_id, doc, argv in cases()}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases to {GOLDEN}", file=sys.stderr)
