"""JSON document parsing, validation paths and canonical serialisation."""

import json
from fractions import Fraction

import pytest

from domikit import (
    ParseError,
    document_to_dict,
    parse_system,
    parse_system_dict,
    serialize_system,
)


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
    assert doc.structure_kind == "table"
    assert doc.max_states == (1, 2)
    assert doc.system_max == 2
    assert doc.system.evaluate((1, 1)) == 1


def test_parse_table_over_more_states_than_its_values():
    doc = parse_system_dict({
        "format_version": 1,
        "max_states": [256],
        "structure": {"kind": "table", "values": [0] * 200 + [1] * 57},
    })
    assert doc.system_max == 1
    assert doc.system.evaluate((199,)) == 0 and doc.system.evaluate((200,)) == 1


def test_parse_sum_default_weights():
    doc = parse_system_dict({
        "format_version": 1,
        "max_states": [2, 2],
        "structure": {"kind": "sum"},
    })
    assert doc.system_max == 4
    assert doc.raw_structure == {"kind": "sum", "weights": [1, 1]}


def test_parse_sum_explicit_weights():
    doc = parse_system_dict({
        "format_version": 1,
        "max_states": [2, 3],
        "structure": {"kind": "sum", "weights": [2, 1]},
    })
    assert doc.system_max == 7
    assert doc.system.evaluate((1, 3)) == 5


def test_parse_path_vectors():
    doc = parse_system_dict(two_of_three_doc())
    assert doc.system_max == 1
    assert doc.system.evaluate((1, 1, 0)) == 1
    assert doc.system.evaluate((1, 0, 0)) == 0


def test_parse_network():
    doc = parse_system_dict(bridge_doc())
    assert doc.structure_kind == "network"
    assert doc.net is not None
    assert doc.max_states == (2, 2, 1, 2, 1, 2, 2)
    assert doc.system_max == 4


def test_parse_network_optional_max_states():
    assert parse_system_dict(bridge_doc(max_states=[2, 2, 1, 2, 1, 2, 2])).system_max == 4
    assert path_of(bridge_doc(max_states=[2] * 7)) == "max_states"


def test_declared_totals_checked():
    assert parse_system_dict(two_of_three_doc(n=3, system_max=1)).system_max == 1
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
