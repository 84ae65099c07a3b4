"""Acceptance suite.

Twelve checks: exact regressions on the worked examples (1-7) and
property sweeps over seeded random systems and matroids (8-12).  Run
with -v for one pass/fail line per criterion.  Time bounds are asserted
where the corresponding requirement states one.
"""

import math
import random
import time
from collections import Counter
from itertools import combinations, permutations, product

import pytest

from conftest import (
    BRIDGE_CUTS_ACYCLIC,
    BRIDGE_CUTS_CYCLIC,
    BRIDGE_CUTS_UNDIRECTED,
    attained_states,
    bridge_network,
    circuit_masks,
    cycle_circuits,
    exhaustive_rank,
    frozen_level,
    lex_values,
    make_random_system,
    naive_formation_delta,
    random_monotone_table,
    random_pmfs,
    signed_formation_dp,
    vectors,
    vleq,
)
from domikit import (
    ComponentDistribution,
    MatroidSystemLink,
    associated_binary,
    beta_number,
    binary_signed_domination,
    crapo_beta,
    delta_at,
    directed_network_domination,
    domination_by_closure_mobius,
    domination_by_formations,
    domination_from_beta,
    domination_invariant_recursion,
    domination_via_binary,
    find_directed_cycle,
    graphic_matroid,
    join_closure,
    link_structure,
    minimal_cut_sets,
    minimal_path_vectors,
    network_system,
    pivotal_domination,
    reliability_enumerate,
    reliability_from_domination,
    sum_system,
    table_system,
    threshold_domination,
    uniform_matroid,
)


@pytest.fixture(scope="session")
def random_suite():
    """100 seeded systems with, per level, the minimal path vectors and
    the signed domination table over the join closure."""
    suite = []
    for seed in range(100):
        system = make_random_system(seed)
        levels = {}
        for k in range(1, system.system_max + 1):
            paths = minimal_path_vectors(system.level(k))
            levels[k] = (paths, domination_by_closure_mobius(join_closure(paths)))
        suite.append((seed, system, levels))
    return suite


def test_criterion_01_worked_four_generator_example():
    started = time.perf_counter()
    closure = join_closure({(2, 1, 1, 0), (1, 2, 0, 1), (1, 0, 2, 1), (0, 1, 1, 2)})
    gens = closure.generators
    assert len(closure) == 15
    table = domination_by_closure_mobius(closure)
    for element, delta in table.items():
        assert delta == naive_formation_delta(gens, element)
    pattern = Counter(
        (sum(1 for g in gens if vleq(g, element)), delta)
        for element, delta in table.items()
    )
    assert pattern == {(1, 1): 4, (2, -1): 6, (3, 1): 4, (4, -1): 1}
    assert time.perf_counter() - started < 1.0


def test_criterion_02_sum_system_level_four():
    started = time.perf_counter()
    system = sum_system([2, 2, 2, 2])
    ls = system.level(4)
    paths = minimal_path_vectors(ls)
    assert len(paths) == 19
    top = (2, 2, 2, 2)
    assert domination_by_formations(paths).get(top, 0) == 0
    assert domination_by_closure_mobius(join_closure(paths)).get(top, 0) == 0
    assert pivotal_domination(ls) == 0
    assert domination_via_binary(ls) == 0
    assert len(minimal_path_vectors(frozen_level(ls, {3: 2}))) == 6
    assert len(minimal_path_vectors(frozen_level(ls, {3: 1}))) == 7
    assert time.perf_counter() - started < 5.0


def test_criterion_03_threshold_formula_against_formation_counts():
    started = time.perf_counter()
    for n in range(1, 5):
        for m in range(1, 4):
            system = sum_system([m] * n)
            top = (m,) * n
            for k in range(1, n * m + 1):
                paths = minimal_path_vectors(system.level(k))
                reference = signed_formation_dp(paths, top)
                if len(paths) <= 16:
                    assert reference == naive_formation_delta(paths, top)
                assert threshold_domination(n, m, k) == reference
    assert time.perf_counter() - started < 60.0


def test_criterion_04_binary_k_out_of_n_closed_form():
    started = time.perf_counter()
    for n in range(1, 7):
        top = (1,) * n
        for k in range(1, n + 1):
            ls = sum_system([1] * n).level(k)
            want = (-1) ** (n - k) * math.comb(n - 1, k - 1)
            assert delta_at(ls, top) == want
            assert threshold_domination(n, 1, k) == want
    assert time.perf_counter() - started < 10.0


def test_criterion_05_bridge_network_level_three():
    started = time.perf_counter()
    net = bridge_network()
    assert minimal_cut_sets(net) == BRIDGE_CUTS_UNDIRECTED
    ls = network_system(net).level(3)
    assert delta_at(ls, net.max_states) == -3
    assert pivotal_domination(ls) == -3
    assert domination_invariant_recursion(associated_binary(network_system(net).level(3))) == 3
    edges = [(e.id, e.tail, e.head) for e in net.edges] + [("x", "S", "T")]
    assert beta_number(graphic_matroid(edges)) == 3
    assert time.perf_counter() - started < 10.0


def test_criterion_06_directed_variants_level_three():
    started = time.perf_counter()
    acyclic = bridge_network(directed=True)
    assert find_directed_cycle(acyclic) is None
    assert directed_network_domination(acyclic) == -1
    assert (-1) ** (7 - 4) == -1
    ls = network_system(acyclic).level(3)
    assert delta_at(ls, acyclic.max_states) == -1
    assert minimal_cut_sets(acyclic) == BRIDGE_CUTS_ACYCLIC

    cyclic = bridge_network(directed=True, cyclic=True)
    cycle = find_directed_cycle(cyclic)
    assert cycle is not None and set(cycle) == {3, 4, 5}
    assert directed_network_domination(cyclic) == 0
    ls = network_system(cyclic).level(3)
    assert delta_at(ls, cyclic.max_states) == 0
    assert minimal_cut_sets(cyclic) == BRIDGE_CUTS_CYCLIC
    assert time.perf_counter() - started < 10.0


def test_criterion_07_unattained_top_state_forces_zero():
    rng = random.Random(77)
    checked = 0
    while checked < 50:
        n = rng.randint(1, 4)
        max_states = [rng.randint(1, 3) for _ in range(n)]
        capped = rng.randrange(n)
        # the capped component saturates one state below its maximum, so
        # no minimal path vector can use the top state
        cap = max_states[capped] - 1
        inner = random_monotone_table(rng, tuple(max_states), rng.randint(1, 4))

        def phi(x, _c=capped, _cap=cap, _t=inner):
            clipped = list(x)
            clipped[_c] = min(clipped[_c], _cap)
            return _t[tuple(clipped)]

        table = {x: phi(x) for x in product(*(range(m + 1) for m in max_states))}
        system_max = max(table.values())
        if system_max == 0:
            continue
        system = table_system(max_states, lex_values(max_states, table))
        k = rng.randint(1, system_max)
        ls = system.level(k)
        # the top state is attained by no minimal path vector, so the
        # capped component is not strongly relevant
        assert max_states[capped] not in attained_states(ls)[capped]
        assert delta_at(ls, tuple(max_states)) == 0
        checked += 1
    assert checked == 50


def test_criterion_08_inversion_identity_on_full_lattice(random_suite):
    for _, system, levels in random_suite:
        space = list(vectors(system.max_states))
        for k, (_, table) in levels.items():
            ls = system.level(k)
            for y in space:
                total = sum(d for x, d in table.items() if vleq(x, y))
                assert total == ls(y)


def test_criterion_09_cross_method_agreement(random_suite):
    for _, system, levels in random_suite:
        top = system.max_states
        for k, (paths, table) in levels.items():
            ls = system.level(k)
            reference = domination_by_formations(paths).get(top, 0)
            assert table.get(top, 0) == reference
            assert delta_at(ls, top) == reference
            assert domination_via_binary(ls) == reference
            assert pivotal_domination(ls) == reference


def test_criterion_10_isomorphism_invariance(random_suite):
    for _, system, levels in random_suite:
        ms = system.max_states
        n = len(ms)
        for perm in permutations(range(n)):
            apply = lambda x: tuple(x[perm[j]] for j in range(n))
            permuted = table_system(apply(ms), lex_values(
                apply(ms), {apply(x): system.evaluate(x) for x in vectors(ms)}))
            for k, (_, table) in levels.items():
                permuted_table = domination_by_closure_mobius(
                    join_closure(minimal_path_vectors(permuted.level(k)))
                )
                assert permuted_table == {apply(x): d for x, d in table.items()}


def test_criterion_11_reliability_consistency(random_suite):
    for seed, system, levels in random_suite:
        rng = random.Random(10_000 + seed)
        float_rows, exact_rows = random_pmfs(rng, system.max_states)
        float_dist = ComponentDistribution(float_rows)
        exact_dist = ComponentDistribution(exact_rows)
        ms = system.max_states
        for k, (_, table) in levels.items():
            ls = system.level(k)
            inexact = reliability_from_domination(table, float_dist, ms)
            assert abs(inexact - reliability_enumerate(ls, float_dist)) <= 1e-12
            exact = reliability_from_domination(table, exact_dist, ms)
            assert exact == reliability_enumerate(ls, exact_dist)


def test_criterion_12_matroid_suite():
    bridge_edges = [(e.id, e.tail, e.head) for e in bridge_network().edges] + [("x", "S", "T")]
    graphs = [
        [(1, "a", "b"), (2, "b", "c"), ("x", "c", "a")],
        [(1, "a", "b"), (2, "a", "b"), (3, "b", "c"), (4, "b", "c"), ("x", "a", "c")],
        bridge_edges,
    ]
    # (matroid, its circuit family, terminal)
    suite = [(graphic_matroid(edges), cycle_circuits(edges), "x") for edges in graphs]
    suite += [(uniform_matroid(range(n), r), combinations(range(n), r + 1), 0)
              for n, r in [(5, 1), (6, 3), (10, 5)]]
    for matroid, circuits, terminal in suite:
        ground = list(matroid.ground)
        assert len(ground) <= 10
        masks = circuit_masks(ground, circuits)
        for r in range(len(ground) + 1):
            for subset in combinations(ground, r):
                assert crapo_beta(matroid, subset) >= 0
                mask = matroid.to_mask(subset)
                assert matroid.rank_mask(mask) == exhaustive_rank(masks, mask)
        link = MatroidSystemLink(matroid, terminal)
        components = link.components
        d = domination_from_beta(link, components)
        assert d == binary_signed_domination(link_structure(link))
        sign = (-1) ** (len(components) - matroid.rank_mask(matroid.to_mask(ground)))
        assert d == sign * beta_number(matroid)
