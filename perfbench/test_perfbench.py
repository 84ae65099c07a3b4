"""Tests of the benchmark itself: oracles, failure counting and tracing.

Run from the root of a checkout with `python3 -m pytest perfbench -q`.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return run.import_domikit()


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = {}
    for name in ("lattice", "network", "binary"):
        out[name] = workloads.build(name, 7, tmp_path_factory.mktemp(name))
    return out


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.BUILDERS)


def test_operations_per_pass(built):
    # odd counts with 0.9 * count near x.5 put both percentiles mid-way
    # through one operation's samples
    assert {name: len(w.ops) for name, w in built.items()} == {
        "lattice": 45, "network": 55, "binary": 25}


def test_generating_function_counts_unit_sum_paths():
    # README example: sum [2, 2, 2, 2] at level 4 has 19 minimal path vectors
    assert oracle.sum_path_count([2, 2, 2, 2], 4) == 19
    lat = oracle.Lattice([2, 2, 2, 2])
    ind = [1 if sum(x) >= 4 else 0 for x in lat.vectors()]
    assert len(lat.minimal_vectors(ind)) == 19
    assert lat.binary_domination(ind) == 0 == oracle.threshold_value(4, 0)


def test_cut_oracle_matches_hand_cut_sets_of_the_bridge():
    doc = {"structure": {
        "kind": "network", "nodes": ["S", "A", "B", "C", "T"], "source": "S", "sink": "T",
        "edges": [{"id": i, "from": u, "to": v, "directed": False, "max_capacity": c}
                  for i, u, v, c in workloads._BRIDGE]}}
    cuts = {tuple(i + 1 for i in c) for c in oracle.network_cuts(doc)}
    assert cuts == {(1, 2), (1, 3, 5, 7), (2, 3, 4), (2, 3, 5, 6), (4, 5, 7), (6, 7)}


def test_graphic_beta_of_the_bridge_with_terminal_link():
    assert oracle.graphic_beta(workloads._BRIDGE_GRAPH) == (3, 4)


def test_same_seed_same_documents(tmp_path):
    builds = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        builds.append(workloads.build("lattice", 3, tmp_path / sub))
    a, b = builds
    assert a.documents == b.documents
    assert [op.label for op in a.ops] == [op.label for op in b.ops]


def _tamper(result, at_end: bool = False):
    """Change one digit of an output: the first one after "= " on the first
    line when there is one (the result itself), else the last one."""
    if isinstance(result, tuple):
        code, text = result
        first = text.split("\n", 1)[0]
        if "= " in first and not at_end:
            digit = re.compile(r"\d").search(text, first.index("= "))
        else:
            digit = list(re.finditer(r"\d", text))[-1]
        swapped = "1" if digit.group() != "1" else "2"
        return code, text[:digit.start()] + swapped + text[digit.end():]
    if isinstance(result, list):
        return result[:-1] + [result[-1] + 1]
    return result + 1


def _one_of_each_kind(ops):
    seen = {}
    for op in ops:
        kind = op.label.rsplit("/", 1)[1]
        seen.setdefault(kind, op)
    return list(seen.values())


@pytest.mark.parametrize("name", ["lattice", "network", "binary"])
def test_tampered_outputs_count_as_failed(name, built, mods):
    ops = _one_of_each_kind(built[name].ops)
    if name == "network":   # skip the slow ten-edge network here
        ops = [op for op in ops if not op.label.startswith("ten_edge")] or ops
    for op in ops:
        honest = run.execute(op, mods)
        loop = run.Loop()
        run.run_op(workloads.Op(op.label, op.check, call=lambda m, r=honest: r), mods, loop)
        assert (loop.attempted, loop.failed) == (1, 0), op.label

        loop = run.Loop()
        forged = _tamper(honest)
        run.run_op(workloads.Op(op.label, op.check, call=lambda m, r=forged: r), mods, loop)
        assert (loop.attempted, loop.failed, loop.wrong) == (1, 1, 1), op.label


def test_a_tampered_table_entry_breaks_the_inversion_identity(built, mods):
    op = next(op for op in built["lattice"].ops if op.label.endswith("/table"))
    honest = run.execute(op, mods)
    op.check(honest)
    with pytest.raises(oracle.CheckFailed):
        op.check(_tamper(honest, at_end=True))


def test_an_operation_that_raises_counts_as_failed(mods):
    def boom(m):
        raise ValueError("broken")

    loop = run.Loop()
    run.run_op(workloads.Op("x/raises", oracle.check_value(0), call=boom), mods, loop)
    assert (loop.attempted, loop.errors, loop.wrong) == (1, 1, 0)


def test_nonzero_exit_fails_the_check():
    with pytest.raises(oracle.CheckFailed):
        oracle.check_domination(0, 1)((4, "d(phi_1) = 0  [method: binary]\n"))


def test_tracer_records_spans_and_restores_every_original(built, mods):
    import domikit
    from domikit import cli, matroid, systems

    before = {name: getattr(cli, name) for name in ("main", "cmd_paths", "cmd_domination")}
    commands = dict(cli._COMMANDS)
    evaluate = systems.MultistateSystem.evaluate
    rank_mask = matroid.Matroid.rank_mask
    ops = [op for op in built["lattice"].ops if op.label.endswith("/table")][:1]
    ops += [op for op in built["binary"].ops if op.label.startswith("uniform_4_9")]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main is not before["main"]
        assert cli._COMMANDS["domination"] is not commands["domination"]
        loop = run.Loop()
        run.run_pass(ops, mods, loop, tracer)
    finally:
        tracer.uninstall()

    assert loop.failed == 0
    values = tracer.layer_totals()
    for metric in ("poset.join_closure_ms", "poset.closure_mobius_ms", "cli.domination_ms",
                   "matroid.beta_ms", "matroid.recursion_ms", "domination.binary_ms"):
        assert values[metric] > 0, metric
    for metric in ("systems.evaluations", "poset.closure_elements", "matroid.rank_calls"):
        assert values[metric] > 0, metric
    assert set(tracer.tree.children) == {op.label for op in ops}

    assert {name: getattr(cli, name) for name in before} == before
    assert cli._COMMANDS == commands
    assert systems.MultistateSystem.evaluate is evaluate
    assert matroid.Matroid.rank_mask is rank_mask
    assert domikit.join_closure is domikit.poset.join_closure


def test_traced_run_alternates_and_uninstalls(built, mods, monkeypatch):
    from domikit import cli

    main = cli.main
    monkeypatch.setattr(run, "MIN_OPS", 1)
    ops = [op for op in built["binary"].ops if op.label.startswith("uniform_4_9")]
    tracer, untraced, traced = run.run_traced(ops, mods, 0.0)
    assert (untraced.passes, traced.passes, untraced.failed, traced.failed) == (1, 1, 0, 0)
    values = run.per_layer(tracer, traced, untraced)
    assert set(values) == set(run.layer_units())
    assert values["matroid.rank_calls"] > 0
    assert cli.main is main
