"""Signed value distributions: the sum and series-parallel closed forms
against the per-corner binary route and pivotal decomposition, and the
closed forms that systems carry."""

import random
import time
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bridge_network, cut_form_networks, network, path_family_system
from domikit import (
    ComplexityGuardError,
    associated_binary,
    domination_via_binary,
    network_system,
    pivotal_domination,
    sum_system,
    table_system,
    threshold_domination,
)
from domikit.signed import series_parallel_domination, sum_domination


def check_every_level(system, route):
    """route(k) equals binary and pivotal at every level of the system."""
    for k in range(1, system.system_max + 1):
        ls = system.level(k)
        assert route(k) == domination_via_binary(ls) == pivotal_domination(ls), k


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 5)), min_size=1, max_size=12))
def test_sum_route_matches_binary_and_pivotal(components):
    ms, weights = zip(*components)
    check_every_level(sum_system(ms, weights), lambda k: sum_domination(ms, weights, k))


@st.composite
def series_parallel_networks(draw):
    """An undirected two-terminal network grown from one S-T edge by
    series splits, parallel copies and dangling edges, with random
    capacities, edge directions as written and edge ids."""
    ends = [("S", "T")]
    nodes = ["S", "T"]
    for _ in range(draw(st.integers(0, 7))):
        i = draw(st.integers(0, len(ends) - 1))
        u, v = ends[i]
        step = draw(st.sampled_from(["series", "series", "parallel", "parallel", "dangle"]))
        if step == "parallel":
            ends.append((v, u) if draw(st.booleans()) else (u, v))
            continue
        x = f"N{len(nodes)}"
        if step == "series":
            ends[i] = (u, x)
            ends.append((x, v))
        else:
            ends.append((draw(st.sampled_from(nodes)), x))
        nodes.append(x)
    ids = draw(st.permutations(range(1, len(ends) + 1)))
    caps = draw(st.lists(st.integers(1, 3), min_size=len(ends), max_size=len(ends)))
    edges = [(i, u, v, False, c) for i, (u, v), c in zip(ids, ends, caps)]
    return network(draw(st.permutations(nodes)), edges, "S", "T")


@settings(max_examples=60, deadline=None)
@given(series_parallel_networks())
def test_series_parallel_route_matches_binary_and_pivotal(net):
    assert series_parallel_domination(net, 1) is not None
    check_every_level(network_system(net), lambda k: series_parallel_domination(net, k))


def test_unit_sums_over_equal_ranges_give_the_threshold_formula():
    for n in range(1, 6):
        for m in range(1, 4):
            for k in range(1, n * m + 1):
                assert sum_domination([m] * n, [1] * n, k) == threshold_domination(n, m, k)


def test_zero_weight_is_an_irrelevant_component():
    assert [sum_domination([2, 1, 3], [1, 0, 2], k) for k in range(1, 9)] == [0] * 8


def test_weights_of_a_trillion_answer_at_once():
    """D has at most 2^n terms, so its size does not follow the weights."""
    ms, weights = (1, 2, 1), (10**12, 1, 3 * 10**12)
    system = sum_system(ms, weights)
    started = time.perf_counter()
    values = {k: sum_domination(ms, weights, k)
              for k in (1, 2, 10**12, 10**12 + 2, 3 * 10**12 + 1, 4 * 10**12 + 2)}
    assert time.perf_counter() - started < 0.1
    for k, value in values.items():
        assert value == domination_via_binary(system.level(k)), k
    assert values[4 * 10**12 + 2] == 1


def test_sum_route_gives_none_past_the_work_bound():
    """n * min(2^n, sum w + 1) steps: weights 2^i keep every corner's value
    distinct, so 20 components are past 10^7 and 12 are not."""
    assert sum_domination([1] * 30, [2 ** i for i in range(30)], 2 ** 29) is None
    assert sum_domination([1] * 20, [2 ** i for i in range(20)], 1) is None
    assert sum_domination([1] * 12, [2 ** i for i in range(12)], 2 ** 12 - 1) == 1


def test_series_parallel_route_refuses_what_it_cannot_reduce():
    # the bridge is not series-parallel
    assert series_parallel_domination(bridge_network(), 3) is None
    # one directed edge, in any position, is enough
    for directed in ((True, False), (False, True), (True, True)):
        net = network(["S", "A", "T"], [(1, "S", "A", directed[0], 1),
                                        (2, "A", "T", directed[1], 1)], "S", "T")
        assert series_parallel_domination(net, 1) is None
    # past |E| * (sum of capacities + 1)^2 = 10^7
    wide = network(["S", "T"], [(1, "S", "T", False, 2000), (2, "S", "T", False, 2000),
                                (3, "S", "T", False, 2000)], "S", "T")
    assert series_parallel_domination(wide, 1) is None


def test_irrelevant_edges_give_zero():
    loop = network(["S", "T"], [(1, "S", "T", False, 1), (2, "T", "T", False, 1)], "S", "T")
    dangling = network(["S", "A", "T"], [(1, "S", "T", False, 2), (2, "A", "S", False, 1)],
                       "S", "T")
    # a cycle hanging at T: its edges lie on no simple source-sink path
    cycle = network(["S", "A", "B", "T"], [(1, "S", "T", False, 1), (2, "T", "A", False, 1),
                                           (3, "A", "B", False, 1), (4, "B", "T", False, 1)],
                    "S", "T")
    for net in (loop, dangling, cycle):
        check_every_level(network_system(net), lambda k: series_parallel_domination(net, k))
        assert series_parallel_domination(net, 1) == 0



def test_systems_carry_their_closed_form():
    """A sum or network system built in the library gives d(phi_k) as its
    _closed(k) wherever that is not None: the threshold formula, the
    distribution routes and the directed sign rule alike.  A table, a
    path_vectors or an associated binary system has none, and a fully
    directed network past the cut guard refuses."""
    rng = random.Random(20261020)
    sums = [sum_system([m] * n) for n in range(1, 5) for m in range(1, 4)]
    for _ in range(40):
        n = rng.randint(1, 5)
        sums.append(sum_system([rng.randint(1, 3) for _ in range(n)],
                               [rng.randint(0, 4) for _ in range(n)]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the networks with disconnected terminals
        nets = [network_system(net) for net in cut_form_networks()]
    bridges = [network_system(bridge_network(directed=d, cyclic=c))
               for d, c in ((False, False), (True, False), (True, True))]
    answered = {}
    for system in sums + nets + bridges:
        for k in range(1, system.system_max + 1):
            value = system._closed(k)
            if value is not None:
                assert value == pivotal_domination(system.level(k)), (system.max_states, k)
                answered[system.kind] = answered.get(system.kind, 0) + 1
    assert answered["sum"] == sum(s.system_max for s in sums)  # every sum level answers
    assert answered["network"] > 50
    # the undirected bridge is not series-parallel; the directed two reduce at level 3
    assert [b._closed(3) for b in bridges] == [None, -1, 0]

    unit = sum_system([2, 2])
    others = [table_system([1, 1], [0, 0, 0, 1]), path_family_system(unit),
              associated_binary(unit.level(3)).system]
    for system in others:
        assert [system._closed(k) for k in range(1, system.system_max + 1)] \
            == [None] * system.system_max

    chain = network([f"v{i}" for i in range(27)],
                    [(i + 1, f"v{i}", f"v{i + 1}", True, 1) for i in range(26)], "v0", "v26")
    with pytest.raises(ComplexityGuardError, match="26 edges exceed the cut enumeration guard"):
        network_system(chain)._closed(1)
