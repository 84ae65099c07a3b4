"""JSON document parsing, validation paths and canonical serialisation."""

import json
from fractions import Fraction
from itertools import product

import pytest

from conftest import document_to_dict, serialize_system
from domikit import (
    ParseError,
    domination_by_closure_mobius,
    join_closure,
    minimal_path_vectors,
    parse_system,
    parse_system_dict,
    reliability_enumerate,
    reliability_from_domination,
    sum_system,
)
from domikit import poset


def two_of_three_doc(**extra):
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


def bridge_doc(**extra):
    edges = [
        (1, "S", "A", 2), (2, "S", "B", 2), (3, "A", "B", 1), (4, "A", "C", 2),
        (5, "B", "C", 1), (6, "C", "T", 2), (7, "B", "T", 2),
    ]
    doc = {
        "format_version": 1,
        "structure": {
            "kind": "network",
            "nodes": ["S", "A", "B", "C", "T"],
            "edges": [
                {"id": i, "from": u, "to": v, "directed": False, "max_capacity": c}
                for i, u, v, c in edges
            ],
            "source": "S",
            "sink": "T",
        },
    }
    doc.update(extra)
    return doc


def path_of(doc) -> str:
    with pytest.raises(ParseError) as err:
        parse_system_dict(doc)
    return err.value.path


def test_parse_table():
    doc = parse_system_dict({
        "format_version": 1,
        "max_states": [1, 2],
        "structure": {"kind": "table", "values": [0, 0, 1, 0, 1, 2]},
    })
    assert doc.system.kind == "table"
    assert doc.system.max_states == (1, 2)
    assert doc.system.system_max == 2
    assert doc.system.evaluate((1, 1)) == 1


def test_parse_table_over_more_states_than_its_values():
    doc = parse_system_dict({
        "format_version": 1,
        "max_states": [256],
        "structure": {"kind": "table", "values": [0] * 200 + [1] * 57},
    })
    assert doc.system.system_max == 1
    assert doc.system.evaluate((199,)) == 0 and doc.system.evaluate((200,)) == 1


def test_parse_sum_default_weights():
    doc = parse_system_dict({
        "format_version": 1,
        "max_states": [2, 2],
        "structure": {"kind": "sum"},
    })
    assert doc.system.system_max == 4
    assert [doc.system.evaluate(e) for e in ((1, 0), (0, 1))] == [1, 1]  # unit weights


def test_parse_sum_explicit_weights():
    doc = parse_system_dict({
        "format_version": 1,
        "max_states": [2, 3],
        "structure": {"kind": "sum", "weights": [2, 1]},
    })
    assert doc.system.system_max == 7
    assert doc.system.evaluate((1, 3)) == 5


def test_parse_path_vectors():
    doc = parse_system_dict(two_of_three_doc())
    assert doc.system.system_max == 1
    assert doc.system.evaluate((1, 1, 0)) == 1
    assert doc.system.evaluate((1, 0, 0)) == 0


def test_path_vector_codes_are_built_on_first_evaluate(monkeypatch):
    """A document whose grid check passes is parsed without one thermometer
    code; evaluate builds the word of each level its bisection reads, once,
    and the path vector and reliability routes never build one.  A small
    document takes the nesting loop, which tests each level-k vector on
    the word of level k - 1, the word evaluate reads; the pairs check
    encodes its own sorted copy of each family."""
    ms = [2] * 5
    sums = sum_system(ms)
    levels = {str(k): [list(p) for p in minimal_path_vectors(sums.level(k))] for k in range(1, 11)}
    doc = {"format_version": 1, "max_states": ms,
           "structure": {"kind": "path_vectors", "levels": levels},
           "distribution": [["1/4", "1/4", "1/2"]] * 5}
    calls = []
    codes = poset._Packing.codes
    monkeypatch.setattr(poset._Packing, "codes", lambda self, vs: calls.append(vs) or codes(self, vs))
    parsed = parse_system_dict(doc)
    system, dist = parsed.system, parsed.distribution
    assert calls == []
    words = lambda: sorted(k for k, fam in system._paths.items() if any(vs is fam for vs in calls))
    for k in range(1, 11):  # the join loop may encode a copy of a family, never the system's own
        ls = system.level(k)
        table = domination_by_closure_mobius(join_closure(minimal_path_vectors(ls)))
        assert reliability_from_domination(table, dist, ms) == reliability_enumerate(ls, dist)
    assert words() == []
    calls.clear()
    assert system.evaluate((2, 1, 0, 1, 1)) == 5
    assert words() == [5, 6, 8] and len(calls) == 3  # the bisection of 0..10 reads 5, 8, 6
    assert system.evaluate((2, 1, 0, 1, 1)) == 5 and len(calls) == 3
    assert [system.evaluate(x) for x in product(range(3), repeat=5)] \
        == [sum(x) for x in product(range(3), repeat=5)]
    assert words() == list(range(1, 11)) and len(calls) == 10

    calls.clear()
    levels = {"1": [[1, 1, 0], [1, 0, 1], [0, 1, 1]], "2": [[1, 1, 1]]}
    small = parse_system_dict(two_of_three_doc(structure={"kind": "path_vectors", "levels": levels}))
    system = small.system
    assert words() == [1] and len(calls) == 3
    assert [system.evaluate(x) for x in product(range(2), repeat=3)] == [0, 0, 0, 1, 0, 1, 1, 2]
    assert words() == [1, 2] and len(calls) == 4


def test_parse_network():
    doc = parse_system_dict(bridge_doc())
    assert doc.system.kind == "network"
    assert doc.system.max_states == (2, 2, 1, 2, 1, 2, 2)
    assert doc.system.system_max == 4


def test_parse_network_optional_max_states():
    assert parse_system_dict(bridge_doc(max_states=[2, 2, 1, 2, 1, 2, 2])).system.system_max == 4
    assert path_of(bridge_doc(max_states=[2] * 7)) == "max_states"


def test_declared_totals_checked():
    assert parse_system_dict(two_of_three_doc(n=3, system_max=1)).system.system_max == 1
    assert path_of(two_of_three_doc(n=4)) == "n"
    assert path_of(two_of_three_doc(system_max=2)) == "system_max"


def test_top_level_errors():
    assert path_of([]) == "$"
    assert path_of({"format_version": 1, "structure": {"kind": "sum"}, "extra": 1}) == "extra"
    assert path_of({"structure": {"kind": "sum"}}) == "format_version"
    assert path_of(two_of_three_doc(format_version=2)) == "format_version"
    assert path_of(two_of_three_doc(format_version=True)) == "format_version"
    assert path_of({"format_version": 1}) == "structure"


def test_max_states_errors():
    assert path_of({
        "format_version": 1,
        "structure": {"kind": "sum"},
    }) == "max_states"  # required for non-network kinds
    assert path_of({
        "format_version": 1, "max_states": [],
        "structure": {"kind": "sum"},
    }) == "max_states"
    assert path_of({
        "format_version": 1, "max_states": [1, 0],
        "structure": {"kind": "sum"},
    }) == "max_states"
    assert path_of({
        "format_version": 1, "max_states": [1, "2"],
        "structure": {"kind": "sum"},
    }) == "max_states[1]"
    assert path_of(two_of_three_doc(max_states=[1, 1, True])) == "max_states[2]"


def test_structure_errors():
    assert path_of({
        "format_version": 1, "max_states": [1],
        "structure": {"kind": "pipeline"},
    }) == "structure.kind"
    assert path_of({
        "format_version": 1, "max_states": [1],
        "structure": {"kind": "sum", "values": [0, 1]},
    }) == "structure.values"  # field from another kind
    assert path_of({
        "format_version": 1, "max_states": [1],
        "structure": {"kind": "table", "values": [0, 1, 2]},
    }) == "structure.values"  # wrong size
    assert path_of({
        "format_version": 1, "max_states": [1],
        "structure": {"kind": "table", "values": [1, 0]},
    }) == "structure.values"  # not monotone
    for weights, message in (([1, -1, 1], "weights must be non-negative"),
                             ([1, 1], "2 weights for 3 components"),
                             ([1, 1, 1, 1], "4 weights for 3 components")):
        with pytest.raises(ParseError) as err:
            parse_system_dict({"format_version": 1, "max_states": [1, 2, 1],
                               "structure": {"kind": "sum", "weights": weights}})
        assert str(err.value) == f"structure.weights: {message}"


def test_network_errors():
    bad_capacity = bridge_doc()
    bad_capacity["structure"]["edges"][2]["max_capacity"] = 0
    assert path_of(bad_capacity) == "structure"
    missing_field = bridge_doc()
    del missing_field["structure"]["edges"][0]["max_capacity"]
    assert path_of(missing_field) == "structure.edges[0].max_capacity"
    unknown_field = bridge_doc()
    unknown_field["structure"]["edges"][1]["capacity"] = 2
    assert path_of(unknown_field) == "structure.edges[1].capacity"
    bad_node = bridge_doc()
    bad_node["structure"]["nodes"][1] = 7
    assert path_of(bad_node) == "structure.nodes[1]"
    for flag in ("yes", 0, None):  # 0 is no bool, though it compares equal to False
        not_bool = bridge_doc()
        not_bool["structure"]["edges"][3]["directed"] = flag
        with pytest.raises(ParseError) as err:
            parse_system_dict(not_bool)
        assert str(err.value) == f"structure.edges[3].directed: expected true or false, got {flag!r}"


def test_path_vector_errors():
    bad_key = two_of_three_doc()
    bad_key["structure"]["levels"] = {"one": [[1, 1, 1]]}
    assert path_of(bad_key) == "structure.levels.one"
    not_antichain = two_of_three_doc()
    not_antichain["structure"]["levels"] = {"1": [[1, 1, 0], [1, 1, 1]]}
    assert path_of(not_antichain) == "structure.levels"
    bad_entry = two_of_three_doc()
    bad_entry["structure"]["levels"] = {"1": [[1, 1, 0.5]]}
    assert path_of(bad_entry) == "structure.levels.1[0][2]"
    deep = two_of_three_doc()
    deep["max_states"] = [1, 2, 1]
    deep["structure"]["levels"] = {"1": [[1, 1, 0], [0, 1, 1]], "2": [[0, 2, 1], [1, 2, False]]}
    with pytest.raises(ParseError) as err:
        parse_system_dict(deep)
    assert str(err.value) == "structure.levels.2[1][2]: expected an integer, got False"
    deep["structure"]["levels"]["2"][1] = {"0": 1}
    assert path_of(deep) == "structure.levels.2[1]"
    # a family passes one flat type check; a fault is named by the per-vector
    # loop, in reading order, as each vector's own check names it
    for bad in (True, 1.0, "1", None, [1], {"a": 1}):
        for i, j in ((0, 0), (1, 0), (1, 2)):  # the first vector, the last, its last entry
            doc = two_of_three_doc(max_states=[1, 2, 1])
            levels = {"1": [[1, 1, 0], [0, 1, 1]], "2": [[0, 2, 1], [1, 2, 0]]}
            levels["2"][i][j] = bad
            doc["structure"]["levels"] = levels
            with pytest.raises(ParseError) as err:
                parse_system_dict(doc)
            assert str(err.value) == f"structure.levels.2[{i}][{j}]: expected an integer, got {bad!r}"
            levels["2"][1 - i][2] = False  # a second fault, in the other vector: vector 0's is named
            with pytest.raises(ParseError) as err:
                parse_system_dict(doc)
            assert err.value.path == f"structure.levels.2[0][{j if i == 0 else 2}]"
    for bad, name in (({"0": 1}, "dict"), ("1 2 1", "str")):
        for i in (0, 1):
            doc = two_of_three_doc(max_states=[1, 2, 1])
            doc["structure"]["levels"] = {"1": [[1, 1, 0], [0, 1, 1]], "2": [[0, 2, 1], [1, 2, 0]]}
            doc["structure"]["levels"]["2"][i] = bad
            with pytest.raises(ParseError) as err:
                parse_system_dict(doc)
            assert str(err.value) == f"structure.levels.2[{i}]: expected an array, got {name}"
    for key in ("0", "00"):  # no level, whatever its spelling
        zero = two_of_three_doc()
        zero["structure"]["levels"] = {key: [[1, 1, 1]]}
        with pytest.raises(ParseError) as err:
            parse_system_dict(zero)
        assert str(err.value) == f"structure.levels.{key}: level keys must be positive integers"


def test_distribution_errors():
    assert path_of(two_of_three_doc(distribution=[[0.5, 0.5]] * 2)) == "distribution"
    assert path_of(two_of_three_doc(
        distribution=[[0.5, 0.5], [0.5, 0.5], [0.5, 0.3, 0.2]],
    )) == "distribution[2]"
    assert path_of(two_of_three_doc(
        distribution=[[0.5, 0.5], [0.5, 0.5], [0.5, True]],
    )) == "distribution[2][1]"
    assert path_of(two_of_three_doc(
        distribution=[["1/2", "1/2"], [0.5, 0.5], ["1/2", "1/2"]],
    )) == "distribution[1][0]"  # decimal among rationals
    assert path_of(two_of_three_doc(
        distribution=[["1/0", "1/2"], ["1/2", "1/2"], ["1/2", "1/2"]],
    )) == "distribution[0][0]"
    with pytest.raises(ParseError) as err:
        parse_system_dict(two_of_three_doc(
            distribution=[["1/2", "1/2"], ["1/4", "3/4"], ["1", "1/x"]],
        ))
    assert str(err.value).startswith("distribution[2][1]: bad rational '1/x': ")
    assert path_of(two_of_three_doc(
        distribution=[[0.5, 0.5], [0.25, 0.75], [1.0, float("nan")]],
    )) == "distribution[2][1]"
    assert path_of(two_of_three_doc(
        distribution=[[0.5, 0.6], [0.5, 0.5], [0.5, 0.5]],
    )) == "distribution"  # does not sum to 1
    for big in (10**400, -10**400, 2**1024 - 2**970):  # the last rounds up past the largest float
        assert path_of(two_of_three_doc(
            distribution=[[big, 0], [0.5, 0.5], [0.5, 0.5]],
        )) == "distribution[0][0]"
    assert path_of(two_of_three_doc(  # exact input keeps the integer, whose pmf sums past 1
        distribution=[[10**400, 0], ["1/2", "1/2"], ["1/2", "1/2"]],
    )) == "distribution"
    for p in (None, [0.5], {"p": 0.5}):
        with pytest.raises(ParseError) as err:
            parse_system_dict(two_of_three_doc(distribution=[[0.5, 0.5], [0.5, p], [0.5, 0.5]]))
        assert str(err.value) == f"distribution[1][1]: expected a probability, got {p!r}"


def test_distribution_exact_and_float_modes():
    exact = parse_system_dict(two_of_three_doc(
        distribution=[["7/10", "3/10"], ["7/10", "3/10"], [1, 0]],
    ))
    assert exact.distribution.exact
    assert exact.distribution.pmfs[2][0] == Fraction(1)
    inexact = parse_system_dict(two_of_three_doc(
        distribution=[[0.7, 0.3], [0.7, 0.3], [0.7, 0.3]],
    ))
    assert not inexact.distribution.exact


def test_parse_rejects_invalid_json_text():
    with pytest.raises(ParseError) as err:
        parse_system("{not json")
    assert err.value.path == "$"
    assert "invalid JSON" in str(err.value)


def test_serialise_round_trip_is_stable():
    """A parsed document of any kind, written as JSON with its structure
    as a table, parses back to the same system: the same text again."""
    samples = [
        two_of_three_doc(),
        two_of_three_doc(distribution=[["7/10", "3/10"]] * 3),
        two_of_three_doc(distribution=[[0.7, 0.3]] * 3),
        bridge_doc(),
        {
            "format_version": 1,
            "max_states": [1, 2],
            "structure": {"kind": "table", "values": [0, 0, 1, 0, 1, 2]},
        },
        {
            "format_version": 1,
            "max_states": [2, 3],
            "structure": {"kind": "sum", "weights": [2, 1]},
        },
    ]
    for sample in samples:
        text1 = serialize_system(parse_system_dict(sample))
        text2 = serialize_system(parse_system(text1))
        assert text1 == text2
        assert text1.endswith("\n")
        assert json.loads(text1)["format_version"] == 1


def test_serialised_dict_carries_resolved_fields():
    out = document_to_dict(parse_system_dict(bridge_doc()))
    assert out["n"] == 7
    assert out["max_states"] == [2, 2, 1, 2, 1, 2, 2]
    assert out["system_max"] == 4
    exact = parse_system_dict(two_of_three_doc(distribution=[["7/10", "3/10"]] * 3))
    assert document_to_dict(exact)["distribution"][0] == ["7/10", "3/10"]
    inexact = parse_system_dict(two_of_three_doc(distribution=[[0.7, 0.3]] * 3))
    assert document_to_dict(inexact)["distribution"][0] == [0.7, 0.3]
