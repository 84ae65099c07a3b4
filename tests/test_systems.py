"""System constructors, level cuts, path vectors, relevance, reliability."""

import gc
import importlib
import math
import operator
import random
import tracemalloc
import weakref
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest

from conftest import (
    attained_states,
    bare_systems,
    bridge_network,
    frozen_level,
    lane_kinds,
    lex_values,
    make_random_system,
    network,
    path_family_system,
    random_pmfs,
    vectors,
    vleq,
)
from domikit import (
    ComplexityGuardError,
    ComponentDistribution,
    DimensionError,
    DistributionError,
    DomainError,
    MultistateSystem,
    ValidationError,
    check_monotone,
    domination_by_closure_mobius,
    domination_by_formations,
    join_closure,
    minimal_cut_sets,
    minimal_path_vectors,
    network_system,
    path_vector_system,
    reliability_enumerate,
    reliability_from_domination,
    sum_system,
    table_system,
)
from domikit.lanes import Lanes
from domikit.systems import _level_table

FOUR_GENS = [(2, 1, 1, 0), (1, 2, 0, 1), (1, 0, 2, 1), (0, 1, 1, 2)]


def test_table_system_evaluates_and_validates():
    sys2 = table_system([1, 1], lex_values([1, 1], {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}))
    assert sys2.evaluate((1, 1)) == 1
    assert sys2.evaluate((1, 0)) == 0
    assert sys2.system_max == 1


def test_table_system_rejects_non_monotone():
    with pytest.raises(ValidationError):
        table_system([1, 1], lex_values([1, 1], {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}))


def test_table_system_rejects_wrong_size_and_negatives():
    with pytest.raises(ValidationError):
        table_system([1, 1], [0, 0, 1])
    with pytest.raises(ValidationError):
        table_system([1], [0, -1])


def test_system_bounds_are_checked_on_construction():
    """A component with fewer than two states, a bound that is not an int
    or a negative top level is refused however the system is built.  A
    fractional bound made a fractional top level, 201.5 for [200.5, 1],
    or raised a bare TypeError where it was packed into a byte."""
    with pytest.raises(DomainError, match=r"^component max states must be >= 1, got \(1, 0\)$"):
        MultistateSystem((1, 0), 1, "bare", sum)
    with pytest.raises(DomainError, match=r"^system max level must be >= 0, got -1$"):
        MultistateSystem((1,), -1, "bare", sum)
    with pytest.raises(DomainError, match=r"^component max states must be >= 1, got \(0,\)$"):
        sum_system([0])
    for bounds in ([200.5, 1], [1.5, 1], [1, Fraction(2)]):
        with pytest.raises(DomainError) as exc:
            sum_system(bounds)
        assert str(exc.value) == f"component max states must be integers, got {tuple(bounds)}"
    for bounds in ((1.5,), ("a", 1), (None,)):
        with pytest.raises(DomainError):
            MultistateSystem(bounds, 1, "bare", sum)
    assert sum_system([True, 2]).system_max == 3  # a bool is its int


def test_a_system_with_both_bound_faults_names_its_components():
    """The component bounds are checked before the top level."""
    with pytest.raises(DomainError) as exc:
        MultistateSystem((0, 2), -1, "bare", sum)
    assert str(exc.value) == "component max states must be >= 1, got (0, 2)"


def test_a_bare_system_tabulates_each_state_and_holds_no_cycle():
    """A system given only its structure function carries the per-state
    tabulator, a closure over that function and the top level, not over
    the system: the last reference dropped frees the system, with the
    cycle collector off."""
    system = MultistateSystem((1, 2), 3, "bare", sum)
    lanes, phi = system._lanes((0, 1), (1, 2), None)
    assert [phi >> (j * lanes.bits) & 0xFF for j in range(lanes.size)] == [1, 2, 2, 3]
    gc.disable()
    try:
        ref = weakref.ref(system)
        del system
        assert ref() is None
    finally:
        gc.enable()


def test_table_system_flat_values_in_lex_order():
    sys2 = table_system([1, 1], [0, 1, 1, 2])
    assert sys2.evaluate((0, 1)) == 1
    assert sys2.evaluate((1, 1)) == 2


def test_table_system_rejects_non_integral_values():
    """Fractional levels are refused by name, not truncated by int()."""
    with pytest.raises(ValidationError, match="table value 0.5 is not an integer"):
        table_system([1], [0.5, 1.9])
    with pytest.raises(ValidationError, match="table value 1.9 is not an integer"):
        table_system([1], [0, 1.9])
    with pytest.raises(ValidationError, match="table value '1' is not an integer"):
        table_system([1], [0, "1"])
    assert table_system([1], [False, True]).evaluate((1,)) == 1


def test_sum_system_values():
    s = sum_system([2, 2, 2, 2])
    assert s.evaluate((2, 2, 0, 0)) == 4
    assert s.evaluate((0, 0, 0, 0)) == 0
    assert s.system_max == 8


def test_unit_sums_evaluate_to_the_sum_of_states():
    """At every state, default and explicit unit weights give sum(x), and
    weights with a 0 or a 2 give the sum of w_i * x_i."""
    for ms in ((), (1,), (2, 1, 3), (1,) * 5, (3, 3)):
        for system in (sum_system(ms), sum_system(ms, [1] * len(ms))):
            assert [system.evaluate(x) for x in vectors(ms)] == list(map(sum, vectors(ms)))
    for ms, w in (((1, 2, 1), [1, 0, 1]), ((2, 1, 3), [2, 1, 1]), ((2, 2), [0, 2]), ((1,), [0])):
        system = sum_system(ms, w)
        assert [system.evaluate(x) for x in vectors(ms)] == [
            sum(a * b for a, b in zip(w, x)) for x in vectors(ms)]


def test_weighted_sum_system():
    s = sum_system([2, 1], weights=[3, 2])
    assert s.evaluate((2, 1)) == 8
    assert s.system_max == 8
    with pytest.raises(DimensionError):
        sum_system([2, 1], weights=[1])
    with pytest.raises(ValidationError):
        sum_system([2, 1], weights=[1, -1])


def test_sum_system_rejects_non_integral_weights():
    with pytest.raises(ValidationError, match="weight 0.5 is not an integer"):
        sum_system([1, 1], [0.5, 1.7])
    with pytest.raises(ValidationError, match="weight 2.0 is not an integer"):
        sum_system([1, 1], [1, 2.0])


def test_level_function_values():
    s = sum_system([2, 2, 2, 2])
    l4 = s.level(4)
    assert l4((1, 1, 1, 1)) == 1
    assert l4((2, 1, 0, 0)) == 0
    with pytest.raises(DomainError):
        s.level(0)
    with pytest.raises(DomainError):
        s.level(9)


def test_evaluate_outside_space_rejected():
    """The range check zips x with the max states, which stops at the
    shorter one, so the length test alone refuses a short vector: short,
    long, negative and above-top vectors are refused on every kind."""
    for system in lane_kinds() + bare_systems():
        ms = system.max_states
        bad = [ms + (0,)] + [ms[:-1]] * bool(ms)
        bad += [ms[:i] + (-1,) + ms[i + 1:] for i in range(len(ms))]
        bad += [ms[:i] + (ms[i] + 1,) + ms[i + 1:] for i in range(len(ms))]
        for x in bad:
            with pytest.raises(DomainError) as err:
                system.evaluate(x)
            assert str(err.value) == f"state vector {x} outside space {ms}"
        # the corners of the space are inside it
        assert system.evaluate(ms) >= system.evaluate((0,) * len(ms)) >= 0


def test_evaluate_refuses_non_integer_states():
    """A state of 1/2 is in no space, float or Fraction: every kind
    refuses it with the range check's message, where a sum answered 0.5,
    a table raised KeyError and a path_vectors system TypeError.  So are
    states that compare with no int, a str, None, a list or a complex,
    which the range check's <= let out as a bare TypeError."""
    for system in lane_kinds() + bare_systems():
        ms = system.max_states
        for i, state in product(range(len(ms)), (0.5, Fraction(1, 2), "a", None, [0], 1j)):
            x = (0,) * i + (state,) + (0,) * (len(ms) - i - 1)
            with pytest.raises(DomainError) as err:
                system.evaluate(x)
            assert str(err.value) == f"state vector {x} outside space {ms}"
    for system in (sum_system([1, 1]), table_system([1, 1], [0, 1, 1, 1]),
                   path_vector_system([1, 1], {1: [(1, 0), (0, 1)]})):
        for x in ((0.5, 0), (Fraction(1, 2), 0)):
            with pytest.raises(DomainError):
                system.evaluate(x)
    # an object with __index__ alone packs into a byte, but no kind's phi can
    # add, multiply or compare it: the range check names it, where a sum
    # raised a bare TypeError
    for system in lane_kinds():
        ms = system.max_states
        for i in range(len(ms)):
            x = (0,) * i + (IndexOnly(1),) + (0,) * (len(ms) - i - 1)
            with pytest.raises(DomainError) as err:
                system.evaluate(x)
            assert str(err.value) == f"state vector {x} outside space {ms}"


class IndexOnly:
    """An integer state by __index__ alone: no arithmetic, no comparison."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"IndexOnly({self.value})"


def test_path_vector_system_round_trip():
    s = path_vector_system((2, 2, 2, 2), {1: FOUR_GENS})
    ls = s.level(1)
    assert minimal_path_vectors(ls) == tuple(sorted(FOUR_GENS))
    assert ls((2, 2, 1, 1)) == 1
    assert ls((1, 1, 1, 1)) == 0


def test_path_vector_system_validation():
    with pytest.raises(ValidationError):
        path_vector_system((1, 1), {})
    with pytest.raises(ValidationError):
        path_vector_system((1, 1), {2: [(1, 1)]})  # level 1 missing
    with pytest.raises(ValidationError):
        path_vector_system((1, 1), {1: [(1, 2)]})  # outside space
    with pytest.raises(ValidationError):
        # level-2 vector dominates no level-1 vector
        path_vector_system((1, 1), {1: [(1, 0)], 2: [(0, 1)]})


def _antichain_in(rng, ms, count):
    vecs = {tuple(rng.randint(0, m) for m in ms) for _ in range(count)}
    vecs.discard((0,) * len(ms))
    return [v for v in vecs if not any(u != v and vleq(u, v) for u in vecs)]


def test_path_vector_system_level_check_matches_a_tuple_reference():
    """The level-to-level check and phi, which run on packed codes, against
    plain tuple comparisons on random families."""
    rng = random.Random(3)
    rejected = accepted = 0
    for _ in range(200):
        ms = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        levels = {k: _antichain_in(rng, ms, rng.randint(1, 6)) for k in range(1, rng.randint(2, 4))}
        if not all(levels.values()):
            continue
        expected = None
        for k in range(2, len(levels) + 1):
            lower = levels[k - 1]
            missing = [v for v in sorted(levels[k]) if not any(vleq(u, v) for u in lower)]
            if missing:
                expected = f"level-{k} path vector {missing[0]} dominates no level-{k - 1} path vector"
                break
        if expected is not None:
            rejected += 1
            with pytest.raises(ValidationError) as err:
                path_vector_system(ms, levels)
            assert str(err.value) == expected
            continue
        accepted += 1
        system = path_vector_system(ms, levels)
        for x in product(*(range(m + 1) for m in ms)):
            top = max((k for k, fam in levels.items() if any(vleq(u, x) for u in fam)), default=0)
            assert system.evaluate(x) == top
    assert rejected > 20 and accepted > 20


def test_minimal_path_vectors_sum_level_four():
    """At level 4 of the four-component sum system the minimal path
    vectors are exactly the vectors of coordinate sum 4."""
    ls = sum_system([2, 2, 2, 2]).level(4)
    paths = minimal_path_vectors(ls)
    assert len(paths) == 19
    expected = {x for x in product(range(3), repeat=4) if sum(x) == 4}
    assert set(paths) == expected
    assert list(paths) == sorted(paths)


def test_minimal_path_vectors_series():
    s = path_vector_system((1, 1, 1), {1: [(1, 1, 1)]})
    assert minimal_path_vectors(s.level(1)) == ((1, 1, 1),)


def test_minimal_path_vectors_are_minimal_and_incomparable():
    for seed in range(12):
        system = make_random_system(seed)
        for k in range(1, system.system_max + 1):
            ls = system.level(k)
            paths = minimal_path_vectors(ls)
            for p in paths:
                assert ls(p) == 1
                for i, s in enumerate(p):
                    if s > 0:
                        assert ls(p[:i] + (s - 1,) + p[i + 1:]) == 0
            for a in paths:
                for b in paths:
                    if a != b:
                        assert not vleq(a, b)


def test_minimal_path_vectors_guard():
    s = sum_system([9] * 8)
    with pytest.raises(ComplexityGuardError,
                       match=r"^path vector scan over 100000000 states exceeds guard \(10000000\)$"):
        minimal_path_vectors(s.level(1))

    def unreachable(x):
        raise AssertionError(f"evaluated {x} past the guard")

    # refused by its size alone, before any evaluation
    big = MultistateSystem((9,) * 8, 1, "sum", unreachable)
    with pytest.raises(ComplexityGuardError):
        minimal_path_vectors(big.level(1))


def test_full_lattice_guards_build_no_lanes(monkeypatch):
    def no_lanes(*args):
        raise AssertionError("lanes built past the guard")

    monkeypatch.setattr(Lanes, "__init__", no_lanes)
    s = sum_system([9] * 8)
    dist = ComponentDistribution([[0.1] * 10] * 8)
    for refused in (lambda: minimal_path_vectors(s.level(1)), lambda: check_monotone(s),
                    lambda: reliability_enumerate(s.level(1), dist)):
        with pytest.raises(ComplexityGuardError, match=r"over 100000000 states exceeds guard"):
            refused()


def scan_minimal(ls):
    """Reference: every state where the level holds and each one-step
    drop fails, found by evaluating the level function state by state."""
    return tuple(
        x for x in product(*(range(m + 1) for m in ls.max_states))
        if ls(x) and all(not ls(x[:i] + (s - 1,) + x[i + 1:]) for i, s in enumerate(x) if s)
    )


def test_minimal_path_vectors_every_kind(monkeypatch):
    systems = [
        sum_system([2, 1, 3]),
        sum_system([1, 2, 2], weights=[2, 0, 3]),
        table_system([1, 1], [0, 1, 1, 2]),
        # a mapping given out of lexicographic order
        table_system([1, 2], lex_values([1, 2], {(a, b): a * b + b for a in (1, 0) for b in (2, 1, 0)})),
        path_vector_system((2, 2, 2, 2), {1: FOUR_GENS}),
        path_vector_system((1, 2, 1), {1: [(0, 1, 0), (1, 0, 0)], 2: [(1, 1, 0), (0, 2, 1)],
                                       3: [(1, 2, 1)]}),
        network_system(bridge_network()),
    ]
    for system in systems:
        for k in range(1, system.system_max + 1):
            assert minimal_path_vectors(system.level(k)) == scan_minimal(system.level(k))
    # a network scan tabulates its level in lanes: no evaluation and no max
    # flow; the cut sets are enumerated once, on the first tabulation, and
    # the evaluations after it reuse them
    calls = []
    evaluate = MultistateSystem.evaluate

    def counted(system, x):
        calls.append(tuple(x))
        return evaluate(system, x)

    def tallied(name):
        original = getattr(network_module, name)

        def wrapper(*args, **kwargs):
            tally[name] += 1
            return original(*args, **kwargs)

        return wrapper

    # the package exports a function `network` that shadows the module name
    network_module = importlib.import_module("domikit.network")
    tally = {"max_flow": 0, "minimal_cut_sets": 0}
    monkeypatch.setattr(MultistateSystem, "evaluate", counted)
    for name in tally:
        monkeypatch.setattr(network_module, name, tallied(name))
    net = network_system(bridge_network(directed=True))
    assert tally == {"max_flow": 1, "minimal_cut_sets": 0}
    minimal_path_vectors(net.level(1))
    assert calls == []
    assert tally == {"max_flow": 1, "minimal_cut_sets": 1}
    net.evaluate(net.max_states)
    assert tally == {"max_flow": 1, "minimal_cut_sets": 1}
    # a path_vectors level is its declared family, with no evaluation
    calls.clear()
    declared = path_vector_system((1, 2, 1), {1: [(1, 0, 0), (0, 1, 0)], 2: [(1, 1, 0)]})
    assert minimal_path_vectors(declared.level(1)) == ((0, 1, 0), (1, 0, 0))
    assert declared.level(2)._table == bytes(8) + bytes([1, 1, 1, 1])
    assert calls == []


def test_minimal_path_vectors_decode_by_stride():
    """The path vectors are decoded from the set bits of the level table
    by index and stride, and match the per-state scan: with coordinates
    of ten or more states, on the empty space, and at a level no vector
    reaches."""
    # phi stays at 2 or below, so its top level 3 has no path vector
    capped = MultistateSystem((11, 1), 3, "bare", lambda x: min(x[0] // 4 + x[1], 2))
    systems = [sum_system([12, 1, 3]), sum_system([2, 10, 1], weights=[5, 1, 3]),
               table_system([], [1]), capped]
    for system in systems:
        for k in range(1, system.system_max + 1):
            paths = minimal_path_vectors(system.level(k))
            assert paths == scan_minimal(system.level(k))
    assert minimal_path_vectors(table_system([], [1]).level(1)) == ((),)
    assert minimal_path_vectors(capped.level(3)) == ()
    assert minimal_path_vectors(capped.level(2)) == ((4, 1), (8, 0))


def test_minimal_path_vectors_match_reference_scan():
    for seed in range(40):
        table = make_random_system(seed)
        # the same structure as a table and as declared path vectors
        for system in (table, path_family_system(table)):
            for k in range(1, system.system_max + 1):
                ls = system.level(k)
                assert minimal_path_vectors(ls) == scan_minimal(ls)
    # a constant system on the empty space, and a constant 0 level
    assert minimal_path_vectors(table_system([], [1]).level(1)) == ((),)
    assert minimal_path_vectors(frozen_level(sum_system([2]).level(2), {0: 1})) == ()


def test_path_vector_phi_bisection_matches_top_down_scan():
    for seed in range(30):
        table = make_random_system(seed)
        system = path_family_system(table)
        top = system.system_max
        families = {k: scan_minimal(table.level(k)) for k in range(1, top + 1)}
        for x in vectors(system.max_states):
            scanned = next((k for k in range(top, 0, -1)
                            if any(vleq(u, x) for u in families[k])), 0)
            assert system.evaluate(x) == scanned == table.evaluate(x)


def test_check_monotone():
    assert check_monotone(sum_system([2, 2]))
    values = dict(zip(product((0, 1), repeat=2), [0, 1, 1, 0]))
    broken = MultistateSystem((1, 1), 1, "table", values.__getitem__)
    assert not check_monotone(broken)
    with pytest.raises(ComplexityGuardError):
        check_monotone(sum_system([9] * 8))


def test_relevance_sum_system_strongly_coherent():
    """Every state of every component occurs in a minimal path vector."""
    assert attained_states(sum_system([2, 2, 2, 2]).level(4)) == ((1, 2),) * 4


def test_relevance_ignored_component():
    s = sum_system([2, 2, 2], weights=[1, 1, 0])
    assert attained_states(s.level(2)) == ((1, 2), (1, 2), ())


def test_relevance_series_binary():
    assert attained_states(path_vector_system((1, 1), {1: [(1, 1)]}).level(1)) == ((1,), (1,))


def test_relevance_top_state_not_attained():
    """A component whose top state never appears in a minimal path vector
    is relevant but not strongly relevant."""
    table = {(0,): 0, (1,): 1, (2,): 1}
    assert attained_states(table_system([2], lex_values([2], table)).level(1)) == ((1,),)


def test_distribution_validation():
    with pytest.raises(DistributionError):
        ComponentDistribution([])
    with pytest.raises(DistributionError):
        ComponentDistribution([[0.5, 0.6]])
    with pytest.raises(DistributionError):
        ComponentDistribution([[-0.1, 1.1]])
    with pytest.raises(DistributionError):
        ComponentDistribution([[Fraction(1, 3), Fraction(1, 3)]])
    for one in ([1.0], [Fraction(1)]):
        with pytest.raises(DistributionError) as err:
            ComponentDistribution([[0.5, 0.5], one])
        assert str(err.value) == "component 1: pmf needs at least states 0 and 1"
    d = ComponentDistribution([[0.2, 0.3, 0.5]])
    assert d.survival[0] == (1.0, 0.8, 0.5)
    assert not d.exact
    assert ComponentDistribution([[Fraction(1, 2), Fraction(1, 2)]]).exact


def test_survival_and_pmf_total_are_left_folds():
    """builtin sum compensates float rounding from Python 3.12 on; the
    survival function and the pmf total fold left from 0 on every
    version, as sum did up to 3.11, so float output stays the same."""
    row = [0.1] * 10
    d = ComponentDistribution([row, [0.3, 0.7]])
    assert d.survival[0] == tuple(reduce(operator.add, row[r:], 0) for r in range(10))
    assert d.survival[0][0] == 0.9999999999999999
    with pytest.raises(DistributionError) as err:
        ComponentDistribution([[0.1] * 9 + [0.1 + 2e-12]])
    assert str(err.value) == f"component 0: pmf sums to {reduce(operator.add, [0.1] * 9 + [0.1 + 2e-12], 0)!r}"


def test_distribution_rejects_non_finite_floats():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DistributionError, match="non-finite"):
            ComponentDistribution([[bad, 1.0]])


def test_reliability_single_component():
    table = {(1,): 1}
    d = ComponentDistribution([[0.4, 0.6]])
    assert reliability_from_domination(table, d, (1,)) == pytest.approx(0.6)


def test_reliability_two_of_three_closed_form():
    ls = sum_system([1, 1, 1]).level(2)
    table = domination_by_formations(minimal_path_vectors(ls))
    for p in (0.5, 0.3, 0.9):
        d = ComponentDistribution([[1 - p, p]] * 3)
        expect = 3 * p**2 - 2 * p**3
        assert reliability_from_domination(table, d, (1, 1, 1)) == pytest.approx(expect, abs=1e-15)
        assert reliability_enumerate(ls, d) == pytest.approx(expect, abs=1e-15)


def test_reliability_expansion_matches_enumeration():
    s = path_vector_system((2, 2, 2, 2), {1: FOUR_GENS})
    ls = s.level(1)
    table = domination_by_formations(FOUR_GENS)
    third = [Fraction(1, 3)] * 3
    exact = ComponentDistribution([third] * 4)
    assert reliability_from_domination(table, exact, (2, 2, 2, 2)) == reliability_enumerate(ls, exact)
    uniform = ComponentDistribution([[1 / 3, 1 / 3, 1 / 3]] * 4)
    a = reliability_from_domination(table, uniform, (2, 2, 2, 2))
    b = reliability_enumerate(ls, uniform)
    assert abs(a - b) <= 1e-12


def test_reliability_deterministic_components():
    """Exact input gives a Fraction, at 0 and 1 and from an empty table too."""
    ls = sum_system([1, 1]).level(2)
    table = domination_by_formations(minimal_path_vectors(ls))
    for rows, value in (([[0, 1], [0, 1]], 1), ([[1, 0], [1, 0]], 0),
                        ([[Fraction(1, 3), Fraction(2, 3)], [1, 0]], 0)):
        dist = ComponentDistribution(rows)
        for got in (reliability_from_domination(table, dist, (1, 1)),
                    reliability_enumerate(ls, dist)):
            assert type(got) is Fraction and got == value, rows
        empty = reliability_from_domination({}, dist, (1, 1))
        assert type(empty) is Fraction and empty == 0


def test_reliability_space_mismatch():
    d = ComponentDistribution([[0.5, 0.5]])
    with pytest.raises(DistributionError):
        reliability_from_domination({(1, 1): 1}, d, (1, 1))


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("x", [(1, -1), (2, 1), (1.5, 1), (-3, 0)])
def test_reliability_refuses_a_table_vector_outside_the_space(x, exact):
    """A negative state would index its survival row from the end and
    give a wrong value; a state past the row or between two states would
    raise a bare IndexError or TypeError.  Each is a DomainError naming
    the vector, with floats and with exact input alike."""
    rows = [[0.5, 0.5], [0.25, 0.75]]
    d = ComponentDistribution([[Fraction(p) for p in row] for row in rows] if exact else rows)
    assert reliability_from_domination({(1, 1): 1}, d, (1, 1)) == 0.375
    with pytest.raises(DomainError) as err:
        reliability_from_domination({(1, 1): 1, x: 1}, d, (1, 1))
    assert str(err.value) == f"table vector {x} outside space (1, 1)"


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("x", [(1,), (1, 1, 0)])
def test_reliability_refuses_a_table_vector_of_the_wrong_length(x, exact):
    rows = [[0.5, 0.5], [0.25, 0.75]]
    d = ComponentDistribution([[Fraction(p) for p in row] for row in rows] if exact else rows)
    with pytest.raises(DimensionError) as err:
        reliability_from_domination({(1, 1): 1, x: 1}, d, (1, 1))
    assert str(err.value) == f"table vector {x} for 2 components"


def test_random_reliability_identity():
    for seed in range(10):
        system = make_random_system(seed)
        rng = random.Random(seed + 500)
        floats, exacts = random_pmfs(rng, system.max_states)
        for k in range(1, system.system_max + 1):
            ls = system.level(k)
            table = domination_by_closure_mobius(join_closure(minimal_path_vectors(ls)))
            df = ComponentDistribution(floats)
            de = ComponentDistribution(exacts)
            assert abs(reliability_from_domination(table, df, system.max_states)
                       - reliability_enumerate(ls, df)) <= 1e-12
            assert (reliability_from_domination(table, de, system.max_states)
                    == reliability_enumerate(ls, de))


def test_level_tables_match_the_per_state_loop():
    """The lane table equals one evaluation per state, at every level of
    every kind."""
    for system in lane_kinds():
        for k in range(1, system.system_max + 1):
            ls = system.level(k)
            assert ls._table == bytes(map(ls, vectors(system.max_states))), (system, k)


def test_box_lanes_match_the_structure_function():
    """Over random boxes lo <= x <= hi, phi in lanes equals _func at each
    state of the box, lane j holding the j-th state in lexicographic
    order; given a level k, the lanes are >= k exactly where phi is, and
    the level table of the box holds their indicator.  A system built
    from a bare structure function has the per-state tabulator, and
    every kind's constructor its own."""
    rng = random.Random(14)
    kinds = set()
    for system, bare in [(s, False) for s in lane_kinds()] + [(s, True) for s in bare_systems()]:
        ms = system.max_states
        for _ in range(3):
            lo = [rng.randint(0, m) for m in ms]
            hi = [rng.randint(a, m) for a, m in zip(lo, ms)]
            states = list(product(*(range(a, b + 1) for a, b in zip(lo, hi))))
            values = [system._func(x) for x in states]
            lanes, phi = system._lanes(lo, hi, None)
            assert lanes.size == len(states)
            mask = (1 << lanes.bits) - 1
            assert [phi >> (j * lanes.bits) & mask for j in range(lanes.size)] == values
            for k in range(1, system.system_max + 1):
                lanes, phi = system._lanes(lo, hi, k)
                assert lanes.table(phi, k) == bytes(v >= k for v in values), (system, lo, hi, k)
                assert _level_table(system.level(k), lo, hi) == lanes.table(phi, k)
            # every kind's constructor hands the system its own tabulator
            assert (system._lanes.__qualname__ == "MultistateSystem.__init__.<locals>.lanes") == bare
            kinds.add((system.kind, bare, len(ms) > 0))
    assert {kind for kind, _, _ in kinds} == {"table", "sum", "network", "path_vectors"}
    assert {(bare, n) for _, bare, n in kinds} == {(False, False), (False, True),
                                                   (True, False), (True, True)}


def monotone_by_loop(system):
    """Reference: every one-step drop of every state, evaluated."""
    for x in vectors(system.max_states):
        for i, s in enumerate(x):
            if s and system.evaluate(x[:i] + (s - 1,) + x[i + 1:]) > system.evaluate(x):
                return False
    return True


def test_check_monotone_matches_the_per_state_loop():
    for system in lane_kinds():
        assert check_monotone(system)
    rng = random.Random(7)
    verdicts = set()
    for _ in range(200):
        ms = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        values = [rng.choice((0, 1, 2, 200)) for _ in product(*(range(m + 1) for m in ms))]
        if rng.random() < 0.3:
            values.sort()  # ascending in lexicographic order is monotone
        table = dict(zip(product(*(range(m + 1) for m in ms)), values))
        bare = MultistateSystem(ms, max(values), "table", table.__getitem__)
        verdicts.add(check_monotone(bare))
        assert check_monotone(bare) == monotone_by_loop(bare), (ms, values)
    assert verdicts == {True, False}
    # a drop anywhere along an axis of more states than a lane's value range
    for m in (128, 256):
        for drop in (1, 127, m - 1):
            values = [0] * drop + [1] + [0] * (m - drop)
            table = dict(zip(product(range(m + 1)), values))
            bare = MultistateSystem((m,), 1, "table", table.__getitem__)
            assert not check_monotone(bare) and not monotone_by_loop(bare), (m, drop)
            with pytest.raises(ValidationError):
                table_system([m], values)


def enumerate_by_loop(ls, dist):
    """Reference: the per-state loop, one probability product per state
    where the level holds, added up in lexicographic order."""
    total = Fraction(0) if dist.exact else 0.0
    for x in vectors(ls.max_states):
        if ls(x):
            p = Fraction(1) if dist.exact else 1.0
            for i, s in enumerate(x):
                p *= dist.pmfs[i][s]
            total += p
    return total


def from_domination_by_loop(table, dist):
    """Reference: the domination expansion term by term, one Fraction (or
    float) product per non-zero entry, added up in table order."""
    total = Fraction(0) if dist.exact else 0.0
    for x, d in table.items():
        if d == 0:
            continue
        term = Fraction(d) if dist.exact else float(d)
        for i, s in enumerate(x):
            term *= dist.survival[i][s]
        total += term
    return total


# 1 and primes up to 61, then one near 10^4: pairwise different row denominators
DENOMINATORS = [1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 9973]


def mixed_denominator_pmfs(rng, max_states):
    """Exact pmf rows whose denominators differ pairwise: a row of plain
    ints (a point mass) for denominator 1, else q split into m + 1 parts,
    at least two of them non-zero, so that the row's lcm is q."""
    rows = []
    for m, q in zip(max_states, rng.sample(DENOMINATORS, len(max_states))):
        if q == 1:
            row = [0] * (m + 1)
            row[rng.randint(0, m)] = 1
        else:
            while True:
                cuts = sorted(rng.randint(0, q) for _ in range(m))
                parts = [b - a for a, b in zip([0] + cuts, cuts + [q])]
                if sum(1 for a in parts if a) >= 2:
                    break
            row = [Fraction(a, q) for a in parts]
        rows.append(row)
    return rows


def domination_tables(system):
    """(level system, domination table) at every level."""
    for k in range(1, system.system_max + 1):
        ls = system.level(k)
        yield ls, domination_by_closure_mobius(join_closure(minimal_path_vectors(ls)))


def test_exact_reliability_on_integers_equals_the_fraction_loops():
    """Over a common denominator per row, both routes give the values of
    the per-state and per-term Fraction loops, as a Fraction, on every
    kind and level."""
    rng = random.Random(17)
    denominators = set()
    for system in lane_kinds():
        ms = system.max_states
        if not ms:
            continue
        rows = mixed_denominator_pmfs(rng, ms)
        denominators.update(math.lcm(*(Fraction(p).denominator for p in row)) for row in rows)
        dist = ComponentDistribution(rows)
        assert dist.exact
        for ls, table in domination_tables(system):
            got = reliability_from_domination(table, dist, ms)
            assert type(got) is Fraction and got == from_domination_by_loop(table, dist), (system, ls)
            got = reliability_enumerate(ls, dist)
            assert type(got) is Fraction and got == enumerate_by_loop(ls, dist), (system, ls)
    assert denominators == set(DENOMINATORS)


def test_float_reliability_is_bit_identical_to_the_loops():
    """Both routes make the loops' float operations in the loops' order,
    on every kind and level and with plain ints in float rows."""
    rng = random.Random(12)
    for system in lane_kinds():
        ms = system.max_states
        if not ms:
            continue
        floats = [[rng.random() for _ in range(m + 1)] for m in ms]
        dist = ComponentDistribution([[p / sum(row) for p in row] for row in floats])
        for ls, table in domination_tables(system):
            for got, want in ((reliability_enumerate(ls, dist), enumerate_by_loop(ls, dist)),
                              (reliability_from_domination(table, dist, ms),
                               from_domination_by_loop(table, dist))):
                assert type(got) is float and got == want, (system, ls)
    ls = sum_system([1, 1]).level(2)
    table = domination_by_formations(minimal_path_vectors(ls))
    for rows in ([[0, 1.0], [0.25, 0.75]], [[1.0, 0], [0.5, 0.5]], [[0, 1.0], [0, 1.0]]):
        dist = ComponentDistribution(rows)
        for got, want in ((reliability_from_domination(table, dist, (1, 1)),
                           from_domination_by_loop(table, dist)),
                          (reliability_enumerate(ls, dist), enumerate_by_loop(ls, dist))):
            assert type(got) is float and got == want, rows


def test_survival_is_built_on_first_read():
    """Exact input never reads the survival rows, so parsing does not
    fold them."""
    dist = ComponentDistribution([[0.25, 0.75], [0.5, 0.25, 0.25]])
    assert "survival" not in vars(dist)
    assert dist.survival == ((1.0, 0.75), (1.0, 0.5, 0.25))
    assert "survival" in vars(dist)


def test_integer_weights_are_built_on_first_use():
    dist = ComponentDistribution([[Fraction(1, 7), Fraction(6, 7)], [0, 1]])
    assert "_weights" not in vars(dist)
    reliability_from_domination({(1, 1): 1}, dist, (1, 1))
    rows, survival, scale = vars(dist)["_weights"]
    assert (rows, survival, scale) == (((1, 6), (0, 1)), ((7, 6), (1, 1)), Fraction(1, 7))
    floats = ComponentDistribution([[0.25, 0.75]])
    assert floats._weights == (floats.pmfs, floats.survival, None)


_FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                        "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
                        "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__abs__")


def test_exact_reliability_makes_one_fraction_per_call(monkeypatch):
    """On the 972-state exact bridge both routes add and multiply ints:
    two Fraction operations in all, where a Fraction per state makes
    thousands."""
    system = network_system(bridge_network())
    assert system.size() == 972
    _, exacts = random_pmfs(random.Random(3), system.max_states)
    dist = ComponentDistribution(exacts)
    ls = system.level(3)
    table = domination_by_closure_mobius(join_closure(minimal_path_vectors(ls)))
    want = (from_domination_by_loop(table, dist), enumerate_by_loop(ls, dist))
    calls = []
    for name in _FRACTION_ARITHMETIC:
        def counted(*args, _op=getattr(Fraction, name), _name=name):
            calls.append(_name)
            return _op(*args)
        monkeypatch.setattr(Fraction, name, counted)
    got = (reliability_from_domination(table, dist, system.max_states),
           reliability_enumerate(ls, dist))
    assert len(calls) <= 2, len(calls)
    monkeypatch.undo()
    assert got == want and all(type(v) is Fraction for v in got)


# fixed bound on the lanes alive while one network level is tabulated,
# in units of one full lane int (size * width bytes): the coordinate
# sums, the running minimum, their constants and temporaries
LANES_ALIVE = 12


def ladder(rungs, capacity):
    """Two rails from S to T joined by rungs: many minimal cut sets."""
    nodes = ["S", "T"] + [f"{side}{i}" for side in "ab" for i in range(rungs)]
    pairs = [("S", "a0"), ("S", "b0")]
    for i in range(rungs):
        pairs.append((f"a{i}", f"b{i}"))
        if i + 1 < rungs:
            pairs += [(f"a{i}", f"a{i + 1}"), (f"b{i}", f"b{i + 1}")]
    pairs += [(f"a{rungs - 1}", "T"), (f"b{rungs - 1}", "T")]
    return network(nodes, [(i + 1, u, v, False, capacity) for i, (u, v) in enumerate(pairs)],
                   "S", "T")


@pytest.mark.memory
def test_network_level_table_keeps_a_fixed_number_of_lanes():
    ten_edge = network("SABCDET", [(i + 1, u, v, False, c) for i, (u, v, c) in enumerate([
        ("A", "T", 1), ("C", "T", 2), ("S", "E", 2), ("A", "D", 2), ("B", "D", 2),
        ("D", "T", 1), ("C", "E", 2), ("A", "C", 2), ("S", "C", 2), ("B", "T", 2)])],
        "S", "T")
    shapes = set()
    for net in (ten_edge, ladder(3, 2), ladder(4, 1)):
        system = network_system(net)
        ms = system.max_states
        ls = system.level(1)
        _level_table(ls, (0,) * len(ms), ms)  # enumerates the cut sets
        lane_bytes = system.size() * (sum(ms).bit_length() // 8 + 1)
        tracemalloc.start()
        try:
            _level_table(ls, (0,) * len(ms), ms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= LANES_ALIVE * lane_bytes, (net, peak / lane_bytes)
        shapes.add((len(ms), len(minimal_cut_sets(net))))
    assert len(shapes) == 3 and min(n for n, _ in shapes) >= 10


@pytest.mark.memory
def test_table_system_holds_one_flat_list():
    """A [2]^9 table system, 19 683 states, keeps its values as one flat
    list beside their lanes: under 1 MB after the build, where a dict from
    each state's tuple held 2.9 MB."""
    states = list(product(range(3), repeat=9))
    flat = [sum(x) for x in states]
    table_system([2] * 9, flat)  # one-time allocations stay out of the window
    tracemalloc.start()
    try:
        system = table_system([2] * 9, flat)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**20, held
    assert list(map(system.evaluate, states)) == flat
