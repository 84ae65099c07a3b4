"""End-to-end command line behaviour: outputs, flags and exit codes."""

import importlib
import json
import math
import re
import subprocess
import sys
import time
from itertools import product

import pytest

from domikit import cli
from domikit.cli import main
from domikit.lanes import Lanes


@pytest.fixture
def write_doc(tmp_path):
    def _write(doc, name="system.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


def two_of_three(**extra):
    doc = {
        "format_version": 1,
        "max_states": [1, 1, 1],
        "structure": {
            "kind": "path_vectors",
            "levels": {"1": [[1, 1, 0], [1, 0, 1], [0, 1, 1]]},
        },
    }
    doc.update(extra)
    return doc


def sum_doc(**extra):
    doc = {"format_version": 1, "max_states": [2, 2, 2, 2], "structure": {"kind": "sum"}}
    doc.update(extra)
    return doc


def bridge_doc(directed=False, cyclic=False):
    edges = [
        [1, "S", "A", 2], [2, "S", "B", 2], [3, "A", "B", 1], [4, "A", "C", 2],
        [5, "B", "C", 1], [6, "C", "T", 2], [7, "B", "T", 2],
    ]
    if cyclic:
        edges[2][1:3] = ["B", "A"]
        edges[4][1:3] = ["C", "B"]
    return {
        "format_version": 1,
        "structure": {
            "kind": "network",
            "nodes": ["S", "A", "B", "C", "T"],
            "edges": [
                {"id": i, "from": u, "to": v, "directed": directed, "max_capacity": c}
                for i, u, v, c in edges
            ],
            "source": "S",
            "sink": "T",
        },
    }


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_paths_listing(write_doc, capsys):
    f = write_doc(sum_doc())
    code, out, _ = run(capsys, ["paths", f, "--level", "4"])
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "minimal path vectors at level 4: 19"
    assert len(lines) == 20
    assert lines[1:] == sorted(lines[1:])
    assert lines[1] == "0 0 2 2"


def test_paths_json(write_doc, capsys):
    f = write_doc(two_of_three())
    code, out, _ = run(capsys, ["paths", f, "--level", "1", "--json"])
    payload = json.loads(out)
    assert code == 0
    assert payload == {"level": 1, "count": 3,
                       "vectors": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}


def test_domination_every_method_agrees_on_sum_doc(write_doc, capsys):
    f = write_doc(sum_doc())
    for method in ["formations", "mobius", "pivotal", "binary", "auto"]:
        code, out, _ = run(capsys, ["domination", f, "--level", "4",
                                    "--method", method, "--no-timing"])
        assert code == 0
        assert out.startswith("d(phi_4) = 0  [method: ")


def test_domination_auto_uses_closed_form_on_threshold_doc(write_doc, capsys):
    f = write_doc(sum_doc())
    code, out, _ = run(capsys, ["domination", f, "--level", "7", "--no-timing"])
    assert code == 0
    assert out == "d(phi_7) = -3  [method: closed_form]\n"


def test_domination_timing_tag(write_doc, capsys):
    f = write_doc(two_of_three())
    _, out, _ = run(capsys, ["domination", f, "--level", "1"])
    assert "[method: " in out and out.rstrip().endswith("s]")


def test_domination_table_output(write_doc, capsys):
    f = write_doc(two_of_three())
    code, out, _ = run(capsys, ["domination", f, "--level", "1",
                                "--table", "--no-timing"])
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "d(phi_1) = -2  [method: binary]"
    rows = [line.split("\t") for line in lines[1:]]
    assert [r[0] for r in rows] == sorted(r[0] for r in rows)
    assert dict((r[0], int(r[1])) for r in rows) == {
        "0 1 1": 1, "1 0 1": 1, "1 1 0": 1, "1 1 1": -2,
    }


def test_domination_json(write_doc, capsys):
    f = write_doc(two_of_three())
    code, out, _ = run(capsys, ["domination", f, "--level", "1",
                                "--json", "--no-timing", "--table"])
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == -2
    assert payload["level"] == 1
    assert "seconds" not in payload
    assert [[1, 1, 1], -2] in payload["table"]


def test_timing_unless_turned_off(write_doc, capsys):
    """Without --no-timing, domination --json carries its seconds, verify
    --json carries each route's, and each of verify's route lines ends in
    its seconds to the millisecond."""
    f = write_doc(two_of_three())
    code, out, _ = run(capsys, ["domination", f, "--level", "1", "--json"])
    payload = json.loads(out)
    assert code == 0 and sorted(payload) == ["level", "method", "seconds", "value"]
    assert isinstance(payload["seconds"], float) and payload["seconds"] >= 0
    code, out, _ = run(capsys, ["verify", f, "--level", "1", "--json"])
    payload = json.loads(out)
    assert code == 0 and payload["value"] == -2
    assert [sorted(rec) for rec in payload["results"]] == [["method", "seconds", "value"]] * 4
    assert all(isinstance(rec["seconds"], float) and rec["seconds"] >= 0
               for rec in payload["results"])
    code, out, _ = run(capsys, ["verify", f, "--level", "1"])
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "agreement: yes" and len(lines) == 6
    for line, method in zip(lines[1:-1], ["formations", "mobius", "pivotal", "binary"]):
        assert re.fullmatch(rf"{method:<12} -2  \(\d+\.\d{{3}}s\)", line), line


def test_network_doc_domination(write_doc, capsys):
    f = write_doc(bridge_doc())
    code, out, _ = run(capsys, ["domination", f, "--level", "3",
                                "--method", "mobius", "--no-timing"])
    assert code == 0
    assert out == "d(phi_3) = -3  [method: mobius]\n"
    cyclic = write_doc(bridge_doc(directed=True, cyclic=True), "cyclic.json")
    code, out, _ = run(capsys, ["domination", cyclic, "--level", "3", "--no-timing"])
    assert code == 0
    assert out == "d(phi_3) = 0  [method: closed_form]\n"


def test_verify_agreement(write_doc, capsys):
    f = write_doc(sum_doc())
    code, out, _ = run(capsys, ["verify", f, "--level", "4", "--no-timing"])
    assert code == 0
    assert out.splitlines()[-1] == "agreement: yes"
    assert "closed_form  0" in out


def test_verify_directed_network_includes_closed_form(write_doc, capsys):
    f = write_doc(bridge_doc(directed=True))
    code, out, _ = run(capsys, ["verify", f, "--level", "3", "--no-timing"])
    lines = out.splitlines()
    assert code == 0
    assert "closed_form  -1" in lines
    assert lines[-1] == "agreement: yes"
    code, out, _ = run(capsys, ["verify", f, "--level", "3", "--json", "--no-timing"])
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["value"] == -1
    assert {"method": "closed_form", "value": -1} in payload["results"]


def test_verify_disagreement_exits_4(write_doc, capsys, monkeypatch):
    monkeypatch.setattr("domikit.cli.pivotal_domination", lambda ls: 99)
    f = write_doc(two_of_three())
    code, out, _ = run(capsys, ["verify", f, "--level", "1", "--no-timing"])
    assert code == 4
    assert out.splitlines()[-1] == "agreement: NO"
    assert "pivotal      99" in out


def test_verify_catches_a_wrong_tabulator(write_doc, capsys, monkeypatch):
    """Pivotal reads the top corners from the system's lanes and binary
    evaluates them one by one, so a tabulator wrong at one top corner
    shows as a disagreement."""
    weighted = Lanes.weighted

    def off_at_one_corner(lanes, weights):
        value = weighted(lanes, weights)
        # lane 0 of the box of top corners of sum_doc is (1, 1, 1, 1), phi = 4
        return value + 1 if lanes.lo == [1, 1, 1, 1] else value

    monkeypatch.setattr(Lanes, "weighted", off_at_one_corner)
    f = write_doc(sum_doc())
    code, out, _ = run(capsys, ["verify", f, "--level", "5", "--no-timing"])
    values = dict(line.split() for line in out.splitlines()[1:-1])
    assert code == 4
    assert out.splitlines()[-1] == "agreement: NO"
    assert values["pivotal"] == str(int(values["binary"]) + 1)
    assert values["binary"] == values["formations"] == values["mobius"]


@pytest.mark.parametrize("command", [["paths"], ["domination"], ["verify"],
                                     ["reliability", "--verify"]])
def test_exit_2_on_a_path_vector_far_outside_the_space(write_doc, capsys, command):
    """The space bound is checked before a thermometer code is sized from
    the largest coordinate, which for 10^30 could not be built at all."""
    doc = {"format_version": 1, "max_states": [2, 2],
           "structure": {"kind": "path_vectors", "levels": {"1": [[1, 0], [0, 10**30]]}},
           "distribution": [["1/3"] * 3] * 2}
    code, out, err = run(capsys, [command[0], write_doc(doc), "--level", "1", *command[1:]])
    assert (code, out) == (2, "")
    assert err == f"error: structure.levels: path vector (0, {10**30}) outside space (2, 2)\n"


@pytest.mark.parametrize("command, answer", [
    ("paths", "minimal path vectors at level 1: 1\n1 0\n"),
    ("domination", "d(phi_1) = 0  [method: binary]\n"),
    ("verify", "signed domination at level 1\n" + "".join(
        f"{method:<12} 0\n" for method in ("formations", "mobius", "pivotal", "binary"))
     + "agreement: yes\n"),
])
def test_a_huge_max_state_sizes_no_thermometer_code(write_doc, capsys, command, answer):
    """The path_vectors code is as wide as the largest state the families
    hold, so a max state of 10^30 that no family vector reaches is
    answered; a family vector holding 10^30 is refused by the code's size
    guard with the field's path."""
    doc = {"format_version": 1, "max_states": [1, 10**30],
           "structure": {"kind": "path_vectors", "levels": {"1": [[1, 0]]}}}
    code, out, err = run(capsys, [command, write_doc(doc), "--level", "1", "--no-timing"])
    assert (code, out, err) == (0, answer, "")
    doc["structure"]["levels"]["1"].append([0, 10**30])
    code, out, err = run(capsys, [command, write_doc(doc), "--level", "1"])
    assert (code, out) == (2, "")
    assert err == (f"error: structure.levels: thermometer code of {10**30 + 1} bits "
                   "exceeds guard (10000000)\n")


def tallied(monkeypatch, module, names):
    """Count the calls of each named function of a domikit module."""
    module = importlib.import_module(module)
    tally = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            tally[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return tally


@pytest.mark.parametrize("command", [
    ["verify", "--no-timing"],
    ["domination", "--method", "mobius", "--table", "--no-timing"],
    ["reliability", "--verify"],
])
def test_one_scan_and_closure_per_invocation(write_doc, capsys, monkeypatch, command):
    calls = tallied(monkeypatch, "domikit.cli", ["minimal_path_vectors", "join_closure"])
    ms = [1, 1, 2, 2, 1, 1, 2]
    dist = [["1/2", "1/2"] if m == 1 else ["1/4", "1/4", "1/2"] for m in ms]
    f = write_doc({"format_version": 1, "max_states": ms, "structure": {"kind": "sum"},
                   "distribution": dist})
    code, _, _ = run(capsys, [command[0], f, "--level", "6", *command[1:]])
    assert code == 0
    assert calls["minimal_path_vectors"] == 1
    assert calls["join_closure"] <= 1


def test_one_cut_enumeration_per_directed_verify(write_doc, capsys, monkeypatch):
    """At a level where the directed bridge reduces to connectivity, the
    cut form of phi, the tightness test and the relevant edges of the
    sign rule all read the network's one family of minimal cut sets."""
    tally = tallied(monkeypatch, "domikit.network", ["minimal_cut_sets", "relevant_edges"])
    f = write_doc(bridge_doc(directed=True))
    code, out, _ = run(capsys, ["verify", f, "--level", "3", "--no-timing"])
    assert code == 0 and "closed_form  -1" in out.splitlines()
    assert tally == {"minimal_cut_sets": 1, "relevant_edges": 1}


def test_one_level_table_per_reliability_verify(write_doc, capsys, monkeypatch):
    """The path vector scan and the enumeration read one tabulation of
    the level function."""
    tally = tallied(monkeypatch, "domikit.systems", ["_level_table"])
    ms = [2, 2, 1, 2, 1, 2, 2]
    doc = bridge_doc()
    doc["distribution"] = [["1/5", "1/5", "3/5"] if m == 2 else ["1/3", "2/3"] for m in ms]
    code, out, _ = run(capsys, ["reliability", write_doc(doc), "--level", "3", "--verify"])
    assert code == 0 and out.splitlines()[-1] == "|diff| = 0"
    assert tally == {"_level_table": 1}


def unit_sum_7() -> dict:
    """The unit sum over seven binary components: 35 path vectors at
    level 3, past the formation guard of 20."""
    return {"format_version": 1, "max_states": [1] * 7, "structure": {"kind": "sum"}}


FORMATION_REFUSAL = ("35 generators exceed the formation guard (20); domination_by_closure_mobius, "
                     "pivotal_domination or a closed-form engine handles larger families")


def test_verify_guard_skips_method(write_doc, capsys):
    code, out, err = run(capsys, ["verify", write_doc(unit_sum_7()), "--level", "3", "--no-timing"])
    assert (code, err) == (0, "")
    assert out.splitlines() == ["signed domination at level 3", f"formations   skipped ({FORMATION_REFUSAL})",
                                "mobius       15", "pivotal      15", "binary       15",
                                "closed_form  15", "agreement: yes"]


def test_reliability_float(write_doc, capsys):
    f = write_doc(two_of_three(distribution=[[0.7, 0.3]] * 3))
    code, out, _ = run(capsys, ["reliability", f, "--level", "1", "--verify"])
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "P(phi >= 1) = 0.216"
    assert lines[1] == "enumeration = 0.216"
    assert float(lines[2].split(" = ")[1]) < 1e-12


def test_reliability_float_output_does_not_follow_the_python_version(write_doc, capsys):
    """Ten pmf entries of 0.1: a left fold and the compensated sum of
    Python 3.12 on disagree in the last bit, which showed as |diff|."""
    f = write_doc({"format_version": 1, "max_states": [9, 1], "structure": {"kind": "sum"},
                   "distribution": [[0.1] * 10, [0.3, 0.7]]})
    code, out, _ = run(capsys, ["reliability", f, "--level", "1", "--verify"])
    assert code == 0
    assert out.splitlines() == ["P(phi >= 1) = 0.97", "enumeration = 0.97", "|diff| = 0"]


def test_reliability_exact(write_doc, capsys):
    f = write_doc(two_of_three(distribution=[["7/10", "3/10"]] * 3))
    code, out, _ = run(capsys, ["reliability", f, "--level", "1"])
    assert code == 0
    assert out == "P(phi >= 1) = 27/125\n"
    code, out, _ = run(capsys, ["reliability", f, "--level", "1", "--json", "--verify"])
    payload = json.loads(out)
    assert payload["value"] == "27/125"
    assert payload["abs_diff"] == "0"


def test_reliability_degenerate_at_top(write_doc, capsys):
    f = write_doc(sum_doc(distribution=[[0, 0, 1]] * 4))
    for k in range(1, 9):
        code, out, _ = run(capsys, ["reliability", f, "--level", str(k)])
        assert code == 0
        assert out == f"P(phi >= {k}) = 1\n"


def test_reliability_needs_distribution(write_doc, capsys):
    f = write_doc(two_of_three())
    code, out, err = run(capsys, ["reliability", f, "--level", "1"])
    assert code == 2
    assert out == ""
    assert "distribution" in err


def test_exit_2_on_bad_inputs(write_doc, capsys, tmp_path):
    code, _, err = run(capsys, ["paths", str(tmp_path / "missing.json"), "--level", "1"])
    assert code == 2 and "error" in err
    garbled = tmp_path / "bad.json"
    garbled.write_text("{nope")
    code, _, err = run(capsys, ["paths", str(garbled), "--level", "1"])
    assert code == 2 and "invalid JSON" in err
    f = write_doc(two_of_three())
    code, _, err = run(capsys, ["paths", f, "--level", "9"])
    assert code == 2 and "level" in err


@pytest.mark.parametrize("command", ["paths", "domination", "reliability", "verify"])
def test_a_document_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    """A 0xff byte inside a JSON string is refused as one error line that
    names the document's root, like any other unreadable document."""
    data = json.dumps(two_of_three()).encode().replace(b'"path_vectors"', b'"path\xffvectors"')
    f = tmp_path / "latin.json"
    f.write_bytes(data)
    code, out, err = run(capsys, [command, str(f), "--level", "1"])
    assert (code, out) == (2, "")
    assert err == ("error: $: invalid UTF-8: 'utf-8' codec can't decode byte 0xff in position "
                   f"{data.index(0xff)}: invalid start byte\n")


def test_exit_3_on_guard(write_doc, capsys):
    code, out, err = run(capsys, ["domination", write_doc(unit_sum_7()), "--level", "3",
                                  "--method", "formations"])
    assert (code, out) == (3, "")
    assert err == f"error: {FORMATION_REFUSAL}\n"


@pytest.mark.parametrize("command", ["paths", "domination", "reliability", "verify"])
def test_no_subcommand_takes_a_guard(write_doc, capsys, command):
    """Every limit is fixed: argparse refuses --guard like any unknown option."""
    f = write_doc(sum_doc())
    with pytest.raises(SystemExit) as exc:
        main([command, f, "--level", "4", "--guard", "30"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --guard 30" in capsys.readouterr().err


def test_parser_is_built_once(write_doc, capsys):
    assert cli.build_parser() is cli.build_parser()
    # a refused command line leaves the shared parser usable
    f = write_doc(two_of_three())
    with pytest.raises(SystemExit):
        main(["domination", f, "--level", "one"])
    code, out, _ = run(capsys, ["domination", f, "--level", "1", "--no-timing"])
    assert code == 0
    assert out == "d(phi_1) = -2  [method: binary]\n"


WEIGHTS_8 = [1, 2, 1, 3, 1, 2, 1, 1]


def weighted_8(kind: str) -> dict:
    """phi(x) = sum of WEIGHTS_8[i] * x_i over eight binary components,
    as a sum or as the same function tabulated."""
    structure = {"kind": "sum", "weights": WEIGHTS_8}
    if kind == "table":
        values = [sum(w for w, b in zip(WEIGHTS_8, format(j, "08b")) if b == "1")
                  for j in range(256)]
        structure = {"kind": "table", "values": values}
    return {"format_version": 1, "max_states": [1] * 8, "structure": structure}


def test_auto_refuses_past_the_guard(write_doc, capsys):
    """A path_vectors document has no closed form, so past 25 components
    auto refuses on the subset guard and names pivotal; below it, auto is
    binary and agrees with pivotal."""
    parallel_26 = {"format_version": 1, "max_states": [1] * 26,
                   "structure": {"kind": "path_vectors",
                                 "levels": {"1": [[int(i == j) for j in range(26)] for i in range(26)]}}}
    code, out, err = run(capsys, ["domination", write_doc(parallel_26, "parallel.json"), "--level", "1",
                                  "--no-timing"])
    assert (code, out) == (3, "")
    assert err == ("error: 26 binary components exceed the subset guard (25); "
                   "--method pivotal runs without the guard but visits as many states\n")
    f = write_doc(weighted_8("table"))
    code, out, _ = run(capsys, ["domination", f, "--level", "6", "--no-timing"])
    assert code == 0
    assert out.endswith("  [method: binary]\n")
    _, pivotal, _ = run(capsys, ["domination", f, "--level", "6", "--method", "pivotal",
                                 "--no-timing"])
    assert pivotal == out.replace("binary", "pivotal")


def weighted_26_reference(level: int) -> int:
    """d(phi_level) of the binary sum with weights WEIGHTS_8 + [1] * 18,
    without its 2^26 corners: the signed sum over the subsets T of the
    first eight components, each times the signed count over the 18 unit
    components, sum over j >= a of (-1)^(18 - j) * C(18, j), which is
    (-1)^(18 - a) * C(17, a - 1) for a >= 1 and 0 for a <= 0."""
    def signed(n: int, count: int) -> int:
        return -count if n % 2 else count

    def units(a: int) -> int:
        return 0 if a <= 0 else signed(18 - a, math.comb(17, a - 1))
    return sum(signed(8 - sum(t), units(level - sum(w for w, b in zip(WEIGHTS_8, t) if b)))
               for t in product((0, 1), repeat=8))


def test_auto_answers_a_weighted_sum_past_the_guard_by_closed_form(write_doc, capsys):
    f = write_doc(weighted_8("sum"))
    code, out, err = run(capsys, ["domination", f, "--level", "6", "--no-timing"])
    assert (code, err) == (0, "")
    assert out.endswith("  [method: closed_form]\n")
    _, pivotal, _ = run(capsys, ["domination", f, "--level", "6", "--method", "pivotal",
                                 "--no-timing"])
    assert pivotal == out.replace("closed_form", "pivotal")
    _, table, _ = run(capsys, ["domination", write_doc(weighted_8("table"), "table.json"),
                               "--level", "6", "--method", "pivotal", "--no-timing"])
    assert table == pivotal
    # 26 components, past the subset guard: binary refuses, auto answers
    doc = {"format_version": 1, "max_states": [1] * 26,
           "structure": {"kind": "sum", "weights": WEIGHTS_8 + [1] * 18}}
    f = write_doc(doc, "weighted_26.json")
    code, out, err = run(capsys, ["domination", f, "--level", "20", "--method", "binary"])
    assert (code, out, err) == (3, "", "error: 26 binary components exceed the subset guard (25)\n")
    assert weighted_26_reference(20) != 0
    code, out, err = run(capsys, ["domination", f, "--level", "20", "--no-timing"])
    assert (code, err) == (0, "")
    assert out == f"d(phi_20) = {weighted_26_reference(20)}  [method: closed_form]\n"


def test_auto_past_the_distribution_bound_refuses_as_before(write_doc, capsys):
    """Weights 2^i over 30 components: n * min(2^n, sum w + 1) is past
    10^7, so the sum route gives way and auto refuses on the subset guard."""
    f = write_doc({"format_version": 1, "max_states": [1] * 30,
                   "structure": {"kind": "sum", "weights": [2 ** i for i in range(30)]}})
    started = time.perf_counter()
    code, out, err = run(capsys, ["domination", f, "--level", str(2 ** 29), "--no-timing"])
    assert time.perf_counter() - started < 1
    assert (code, out) == (3, "")
    assert err == ("error: 30 binary components exceed the subset guard (25); "
                   "--method pivotal runs without the guard but visits as many states\n")


def network_past_the_cut_guard(directed=False) -> dict:
    """The bridge with S-A split into 20 parallel edges, all of capacity 1:
    26 edges, one past the cut guard, and not series-parallel, so no
    closed form takes it.  Directed, the sign rule applies but needs the
    cut sets, so its guard refuses it too."""
    ends = [("S", "A")] * 20 + [("S", "B"), ("A", "B"), ("A", "C"), ("B", "C"),
                                ("C", "T"), ("B", "T")]
    edges = [{"id": i, "from": u, "to": v, "directed": directed, "max_capacity": 1}
             for i, (u, v) in enumerate(ends, 1)]
    return {"format_version": 1,
            "structure": {"kind": "network", "nodes": ["S", "A", "B", "C", "T"],
                          "edges": edges, "source": "S", "sink": "T"}}


def series_parallel_past_the_cut_guard() -> dict:
    """25 parallel unit edges in series with a 26th: 2^26 states, one edge
    past the cut guard, and series-parallel."""
    edges = [{"id": i, "from": "S", "to": "A", "directed": False, "max_capacity": 1}
             for i in range(1, 26)]
    edges.append({"id": 26, "from": "A", "to": "T", "directed": False, "max_capacity": 1})
    return {"format_version": 1,
            "structure": {"kind": "network", "nodes": ["S", "A", "T"], "edges": edges,
                          "source": "S", "sink": "T"}}


def test_pivotal_on_a_network_past_the_cut_guard_exits_3(write_doc, capsys):
    f = write_doc(network_past_the_cut_guard())
    code, out, err = run(capsys, ["domination", f, "--level", "1", "--method", "pivotal",
                                  "--no-timing"])
    assert code == 3
    assert out == ""
    assert err == "error: 26 edges exceed the cut enumeration guard (25)\n"
    # auto refuses on the subset guard and, as pivotal would refuse too,
    # names both refusals and not pivotal
    code, out, err = run(capsys, ["domination", f, "--level", "1", "--no-timing"])
    assert code == 3
    assert out == ""
    assert err == ("error: 26 binary components exceed the subset guard (25); "
                   "26 edges exceed the cut enumeration guard (25)\n")


def test_verify_with_every_method_refused_exits_3(write_doc, capsys):
    f = write_doc(network_past_the_cut_guard())
    code, out, err = run(capsys, ["verify", f, "--level", "1", "--no-timing"])
    assert (code, err) == (3, "")
    lines = out.splitlines()
    assert [line.split()[1] for line in lines[1:-1]] == ["skipped"] * 4
    assert lines[-1] == "agreement: none (every method was refused)"
    code, out, err = run(capsys, ["verify", f, "--level", "1", "--json", "--no-timing"])
    assert (code, err) == (3, "")
    payload = json.loads(out)
    assert payload["agree"] is False
    assert "value" not in payload
    assert all("skipped" in rec for rec in payload["results"])


def test_verify_reports_the_sign_rule_past_the_cut_guard_as_a_refusal(write_doc, capsys):
    """On the directed twin the sign rule applies, but its cut guard
    refuses: one more skipped line after the undirected twin's four."""
    undirected = write_doc(network_past_the_cut_guard(), "undirected.json")
    directed = write_doc(network_past_the_cut_guard(directed=True), "directed.json")
    verify = ["--level", "1", "--no-timing"]
    code, twin, err = run(capsys, ["verify", undirected, *verify])
    assert (code, err) == (3, "")
    code, out, err = run(capsys, ["verify", directed, *verify])
    assert (code, err) == (3, "")
    lines = twin.splitlines()
    assert out.splitlines() == lines[:-1] + [
        "closed_form  skipped (26 edges exceed the cut enumeration guard (25))", lines[-1]]
    assert lines[-1] == "agreement: none (every method was refused)"
    code, out, err = run(capsys, ["verify", directed, *verify, "--json"])
    assert (code, err) == (3, "")
    payload = json.loads(out)
    assert payload["agree"] is False and "value" not in payload
    assert payload["results"][-1] == {
        "method": "closed_form", "skipped": "26 edges exceed the cut enumeration guard (25)"}
    assert [rec["method"] for rec in payload["results"]] == [
        "formations", "mobius", "pivotal", "binary", "closed_form"]


def test_auto_past_the_sign_rule_cut_guard_refuses_as_on_the_undirected_twin(write_doc, capsys):
    """auto goes on from the refused sign rule to binary, and names the
    same two guards on both networks."""
    for directed in (False, True):
        f = write_doc(network_past_the_cut_guard(directed))
        code, out, err = run(capsys, ["domination", f, "--level", "1", "--no-timing"])
        assert (code, out) == (3, "")
        assert err == ("error: 26 binary components exceed the subset guard (25); "
                       "26 edges exceed the cut enumeration guard (25)\n")


def test_series_parallel_network_past_the_cut_guard_by_closed_form(write_doc, capsys):
    """d(phi_1) = d(OR_25) * d(x_26) = 1 * 1, with no cut set enumerated."""
    f = write_doc(series_parallel_past_the_cut_guard())
    code, out, err = run(capsys, ["domination", f, "--level", "1", "--no-timing"])
    assert (code, out, err) == (0, "d(phi_1) = 1  [method: closed_form]\n", "")
    code, out, err = run(capsys, ["verify", f, "--level", "1", "--no-timing"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert [line.split()[1] for line in lines[1:5]] == ["skipped"] * 4
    assert lines[5:] == ["closed_form  1", "agreement: yes"]


def test_declared_paths_need_no_scan_past_the_guard(write_doc, capsys):
    """A path_vectors level is its declared family: over [9]^8, 10^8
    states and past the scan guard, paths, the table and verify still
    run."""
    f = write_doc({"format_version": 1, "max_states": [9] * 8,
                   "structure": {"kind": "path_vectors",
                                 "levels": {"1": [[9] * 4 + [0] * 4, [0] * 4 + [9] * 4]}}})
    code, out, err = run(capsys, ["paths", f, "--level", "1", "--no-timing"])
    assert (code, err) == (0, "")
    assert out == "minimal path vectors at level 1: 2\n0 0 0 0 9 9 9 9\n9 9 9 9 0 0 0 0\n"
    code, out, err = run(capsys, ["domination", f, "--level", "1", "--table", "--no-timing"])
    assert (code, err) == (0, "")
    assert out == ("d(phi_1) = -1  [method: binary]\n0 0 0 0 9 9 9 9\t1\n"
                   "9 9 9 9 0 0 0 0\t1\n9 9 9 9 9 9 9 9\t-1\n")
    code, out, err = run(capsys, ["verify", f, "--level", "1", "--no-timing"])
    assert (code, err) == (0, "")
    assert [line.split()[1] for line in out.splitlines()[1:-1]] == ["-1"] * 4


def test_exit_2_on_non_finite_probability(tmp_path, capsys):
    for token in ("NaN", "Infinity"):
        text = json.dumps(two_of_three(distribution=[[0.7, 0.3]] * 3))
        f = tmp_path / f"{token}.json"
        f.write_text(text.replace("0.3]]", token + "]]"))
        code, out, err = run(capsys, ["reliability", str(f), "--level", "1"])
        assert code == 2
        assert out == ""
        assert "distribution[2][1]" in err


def test_exit_2_on_non_ascii_level_key(write_doc, capsys):
    doc = two_of_three()
    doc["structure"]["levels"] = {"\u00b2": [[1, 1, 0]]}
    code, out, err = run(capsys, ["paths", write_doc(doc), "--level", "1"])
    assert code == 2
    assert out == ""
    assert "structure.levels.\u00b2" in err


def test_exit_2_on_a_level_key_with_a_leading_zero(write_doc, capsys):
    """"01" beside "1" would stand for level 1 twice, and one family would be
    lost; either order of the keys is refused at "01"."""
    for levels, key in (({"1": [[1, 0]], "01": [[0, 1]]}, "01"), ({"01": [[0, 1]], "1": [[1, 0]]}, "01"),
                        ({"1": [[1, 0]], "002": [[1, 1]]}, "002")):
        doc = {"format_version": 1, "max_states": [1, 1],
               "structure": {"kind": "path_vectors", "levels": levels}}
        code, out, err = run(capsys, ["paths", write_doc(doc), "--level", "1"])
        assert code == 2
        assert out == ""
        level = int(key)
        assert f'structure.levels.{key}: level {level} must be written "{level}"' in err


def test_exit_2_on_a_probability_too_large_for_a_float(write_doc, capsys):
    doc = two_of_three(distribution=[[10**400, 0], [0.5, 0.5], [0.5, 0.5]])
    code, out, err = run(capsys, ["reliability", write_doc(doc), "--level", "1"])
    assert code == 2
    assert out == ""
    assert "distribution[0][0]: integer probability too large for a float" in err


#: the most digits int() reads and str() writes; 0 where there is no limit
DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _long_integer_doc(case):
    """(document text, field the error names, what it says is too long),
    written as text, as json.dumps cannot write such integers either."""
    long, half = "1" + "0" * DIGITS, "9" * (DIGITS // 2 + 1)  # half * half has DIGITS + 2 digits
    edge = '{"id": %d, "from": "S", "to": "T", "directed": true, "max_capacity": %s}'
    return {
        "table_value": ('{"format_version": 1, "max_states": [1, 1], "structure": {"kind": "table", '
                        '"values": [0, 0, 0, %s]}}' % long, "structure.values[3]", "an integer"),
        "probability": ('{"format_version": 1, "max_states": [1], "structure": {"kind": "sum"}, '
                        '"distribution": [[1, -%s]]}' % long, "distribution[0][1]", "an integer"),
        "level_key": ('{"format_version": 1, "max_states": [1], "structure": {"kind": "path_vectors", '
                      '"levels": {"1": [[1]], "%s": [[1]]}}}' % long, "structure.levels", "a level key"),
        "sum_max": ('{"format_version": 1, "max_states": [%s], "structure": {"kind": "sum", '
                    '"weights": [%s]}}' % (half, half), "structure.weights", "the system max"),
        "network_max": ('{"format_version": 1, "structure": {"kind": "network", "nodes": ["S", "T"], '
                        '"source": "S", "sink": "T", "edges": [%s, %s]}}'
                        % (edge % (1, "9" * DIGITS), edge % (2, "9" * DIGITS)),
                        "structure.edges", "the system max"),
    }[case]


@pytest.mark.skipif(not DIGITS, reason="this Python reads and writes integers of any length")
@pytest.mark.parametrize("command", [["paths", "--level", "0"], ["verify", "--level", "1"]],
                         ids=["paths", "verify"])
@pytest.mark.parametrize("case", ["table_value", "probability", "level_key", "sum_max", "network_max"])
def test_exit_2_on_an_integer_too_long_to_read_or_print(tmp_path, capsys, command, case):
    """An integer int() cannot read, a level key as long, or a system max
    str() cannot write (the level-range message prints it) is refused at
    parse, with the field's path, not left to raise ValueError."""
    text, path, what = _long_integer_doc(case)
    f = tmp_path / "system.json"
    f.write_text(text)
    code, out, err = run(capsys, [command[0], str(f), *command[1:]])
    assert (code, out, err) == (2, "", f"error: {path}: {what} has more than {DIGITS} digits\n")


@pytest.mark.skipif(not DIGITS, reason="this Python writes integers of any length")
def test_exit_3_on_a_state_space_too_large_to_print(tmp_path, capsys):
    """A state space whose size str() cannot write is refused by the scan's
    guard, naming the size by its power of ten, not left to raise
    ValueError; the closed form still answers."""
    half = DIGITS // 2 + 1  # (10^half)^2 states: more than DIGITS digits
    f = tmp_path / "system.json"
    f.write_text('{"format_version": 1, "max_states": [%s, %s], "structure": {"kind": "sum", '
                 '"weights": [1, 1]}}' % ("9" * half, "9" * half))
    code, out, err = run(capsys, ["paths", str(f), "--level", "1"])
    assert (code, out) == (3, "")
    assert err == f"error: path vector scan over at least 10^{2 * half} states exceeds guard (10000000)\n"
    code, out, err = run(capsys, ["domination", str(f), "--level", "1", "--no-timing"])
    assert (code, out, err) == (0, "d(phi_1) = 0  [method: closed_form]\n", "")


def test_exit_2_on_a_level_key_past_the_levels_given(write_doc, capsys):
    """The level keys are checked against 1..(number of levels), not
    1..(largest key): a list up to a key of 10^20 cannot be built, and
    one up to 10^11 would take 800 GB."""
    doc = {"format_version": 1, "max_states": [1],
           "structure": {"kind": "path_vectors", "levels": {"1": [[1]], str(10**20): [[1]]}}}
    code, out, err = run(capsys, ["paths", write_doc(doc), "--level", "1"])
    assert (code, out) == (2, "")
    assert err == f"error: structure.levels: levels must be exactly 1..{10**20}, got [1, {10**20}]\n"


def test_no_timing_output_is_byte_stable(write_doc, capsys):
    f = write_doc(bridge_doc(directed=True))
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, ["verify", f, "--level", "3", "--no-timing"])
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_a_library_warning_is_one_stderr_line(write_doc):
    """A network whose terminals are disconnected warns that its system is
    constant 0; the command line prints that as one line ahead of the
    error.  Run in a subprocess, as pytest records warnings itself."""
    doc = {"format_version": 1, "structure": {
        "kind": "network", "nodes": ["S", "A", "T"], "source": "S", "sink": "T",
        "edges": [{"id": 1, "from": "S", "to": "A", "directed": False, "max_capacity": 2}]}}
    proc = subprocess.run(
        [sys.executable, "-m", "domikit.cli", "paths", write_doc(doc), "--level", "1"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "warning: terminals are disconnected at full capacity; the system is constant 0\n"
        "error: level 1 outside 1..0\n")


def test_module_entry_point(write_doc):
    f = write_doc(two_of_three())
    proc = subprocess.run(
        [sys.executable, "-m", "domikit.cli", "domination", f,
         "--level", "1", "--no-timing"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "d(phi_1) = -2  [method: binary]\n"
