"""Join closures, formations and the two closure-side domination routes."""

import math
import random
import tracemalloc
from collections import Counter
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import formations, naive_formation_delta, vjoin, vleq
from domikit import (
    ComplexityGuardError,
    DimensionError,
    DomikitError,
    InvalidGeneratorError,
    domination_by_closure_mobius,
    domination_by_formations,
    join_closure,
    minimal_path_vectors,
    path_vector_system,
    pivotal_domination,
    poset,
    sum_system,
    systems,
)
from domikit.poset import (
    _axes,
    _check_pairs,
    _checked,
    _closure_by_joins,
    _closure_on_grid,
    _mobius_by_substitution,
    _mobius_on_grid,
    _nested_on_grid,
    _validated,
)

FOUR_GENS = [(2, 1, 1, 0), (1, 2, 0, 1), (1, 0, 2, 1), (0, 1, 1, 2)]
TWO_OF_THREE = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]


@pytest.mark.parametrize("check", [join_closure, _validated], ids=["join_closure", "_validated"])
def test_generator_validation_rejects_bad_families(check):
    with pytest.raises(InvalidGeneratorError, match="^generator family is empty$"):
        check([])
    with pytest.raises(InvalidGeneratorError, match=r"^comparable generators \(1, 0\) and \(1, 1\)$"):
        check([(1, 0), (1, 1)])
    with pytest.raises(InvalidGeneratorError, match=r"^comparable generators \(1, 0\) and \(1, 0\)$"):
        check([(1, 0), (1, 0)])
    with pytest.raises(InvalidGeneratorError, match=r"^negative state in generator \(1, -1\)$"):
        check([(1, -1)])
    with pytest.raises(DimensionError, match="^vectors of length 3 and 2$"):
        check([(1, 0), (0, 1, 0)])
    assert _validated([(1, 0), (0, 1)])[0] == ((0, 1), (1, 0))


def test_join_closure_two_binary_generators():
    cl = join_closure([(1, 0), (0, 1)])
    assert cl.elements == ((0, 1), (1, 0), (1, 1))
    assert cl.elements[-1] == (1, 1)
    assert (1, 1) in cl.elements and (0, 0) not in cl.elements


def test_join_closure_single_generator():
    cl = join_closure([(2, 0, 1)])
    assert cl.elements == ((2, 0, 1),)


def test_four_generator_closure_has_fifteen_elements():
    cl = join_closure(FOUR_GENS)
    assert len(cl) == 15
    # lex order is a linear extension: below implies earlier
    for i, x in enumerate(cl.elements):
        for j, y in enumerate(cl.elements):
            if vleq(x, y) and x != y:
                assert i < j


def test_formations_of_the_top_is_the_full_set():
    """Every element of this closure has exactly one formation; the top's
    is the whole generator family."""
    cl = join_closure(FOUR_GENS)
    top_forms = formations((2, 2, 2, 2), FOUR_GENS)
    assert top_forms == [tuple(sorted(FOUR_GENS))]
    for y in cl.elements:
        assert len(formations(y, FOUR_GENS)) == 1


def test_domination_single_generator():
    assert domination_by_formations([(1, 2, 0)]) == {(1, 2, 0): 1}


def test_domination_two_of_three():
    table = domination_by_formations(TWO_OF_THREE)
    assert table[(1, 1, 1)] == 1 - 3
    assert all(table[p] == 1 for p in TWO_OF_THREE)


def test_domination_four_generator_table():
    """+1 on the four generators, -1 on the six pairwise joins, +1 on the
    four triple joins, -1 on the top."""
    table = domination_by_formations(FOUR_GENS)
    assert len(table) == 15
    assert Counter(table.values()) == {1: 8, -1: 7}
    for g in FOUR_GENS:
        assert table[g] == 1
    assert table[(2, 2, 2, 2)] == -1
    assert table[vjoin(FOUR_GENS[0], FOUR_GENS[1])] == -1


def test_formation_guard_comes_before_validation():
    """An invalid family larger than the guard is refused by the guard,
    before an O(s^2) validation; within the guard it is validated."""
    gens = [(i, 0) for i in range(25)]  # a chain: every pair is comparable
    with pytest.raises(ComplexityGuardError) as err:
        domination_by_formations(iter(gens))
    assert str(err.value).startswith("25 generators exceed the formation guard (20); ")
    with pytest.raises(InvalidGeneratorError) as err:
        domination_by_formations(gens[:20])
    assert str(err.value) == "comparable generators (0, 0) and (1, 0)"


def test_formation_guard_names_alternatives():
    gens = [tuple(1 if j == i else 0 for j in range(21)) for i in range(21)]
    with pytest.raises(ComplexityGuardError) as err:
        domination_by_formations(gens)
    assert "pivotal" in str(err.value)
    # 20 generators are counted: a staircase, whose closure stays small
    stairs = [(i, 19 - i) for i in range(20)]
    table = domination_by_formations(stairs)
    assert table == domination_by_closure_mobius(join_closure(stairs))
    assert table[(1, 19)] == -1 and table[(19, 19)] == 0


def test_closure_mobius_route_matches_formations():
    assert domination_by_closure_mobius(join_closure(FOUR_GENS)) == domination_by_formations(FOUR_GENS)
    assert domination_by_closure_mobius(join_closure(TWO_OF_THREE)) == domination_by_formations(TWO_OF_THREE)


def test_closure_mobius_singleton():
    assert domination_by_closure_mobius(join_closure([(3, 1)])) == {(3, 1): 1}


def _random_antichain(rng, n, top, count):
    vecs = {tuple(rng.randint(0, top) for _ in range(n)) for _ in range(count * 3)}
    vecs.discard((0,) * n)
    out = [v for v in vecs if not any(u != v and vleq(u, v) for u in vecs)]
    return sorted(out)[:count]


@pytest.mark.parametrize("seed", range(20))
def test_random_families_formations_equal_mobius(seed):
    rng = random.Random(seed)
    gens = _random_antichain(rng, rng.randint(2, 4), 2, rng.randint(2, 8))
    if not gens:
        pytest.skip("degenerate draw")
    t1 = domination_by_formations(gens)
    t2 = domination_by_closure_mobius(join_closure(gens))
    assert t1 == t2
    # and both equal the naive per-target oracle
    for y, d in t1.items():
        assert d == naive_formation_delta(gens, y)


@pytest.mark.parametrize("seed", range(20))
def test_partial_sums_on_closure_are_one(seed):
    """For every closure element y, the deltas below it sum to 1."""
    rng = random.Random(seed)
    gens = _random_antichain(rng, rng.randint(2, 4), 2, rng.randint(2, 8))
    if not gens:
        pytest.skip("degenerate draw")
    cl = join_closure(gens)
    assert len(cl) <= 2 ** len(gens) - 1
    table = domination_by_closure_mobius(cl)
    for y in cl.elements:
        assert sum(d for x, d in table.items() if vleq(x, y)) == 1


def test_permuting_coordinates_permutes_the_table():
    perm = (2, 0, 3, 1)
    permuted = [tuple(g[perm[i]] for i in range(4)) for g in FOUR_GENS]
    base = domination_by_formations(FOUR_GENS)
    other = domination_by_formations(permuted)
    assert other == {tuple(x[perm[i]] for i in range(4)): d for x, d in base.items()}


# --- the packed kernels against plain tuple references ----------------------


def _tuple_join(vectors):
    j = vectors[0]
    for v in vectors[1:]:
        j = vjoin(j, v)
    return j


def _subsets(gens):
    return (sub for r in range(1, len(gens) + 1) for sub in combinations(gens, r))


def _subset_join_reference(gens):
    """Sorted set of the tuple-max joins of every non-empty subset."""
    return tuple(sorted({_tuple_join(sub) for sub in _subsets(gens)}))


def _first_comparable_reference(vectors):
    """_validated's message, by a pairwise tuple check."""
    gens = sorted(tuple(v) for v in vectors)
    for a, b in combinations(gens, 2):
        if vleq(a, b):
            return f"comparable generators {a} and {b}"
    return None


def _closure_families():
    rng = random.Random(7)
    families = [[(2, 0, 1)], [(9, 0, 3, 0, 7)], [()], [(1, 0)], TWO_OF_THREE, FOUR_GENS]
    for _ in range(25):
        n = rng.randint(1, 4)
        gens = _random_antichain(rng, n, 9, rng.randint(1, 8))
        # a coordinate that is 0 in every generator: a field of width 0
        at = rng.randint(0, n)
        families.append([g[:at] + (0,) + g[at:] for g in gens])
    return families


@pytest.mark.parametrize("gens", _closure_families())
def test_join_closure_equals_tuple_joins_of_every_subset(gens):
    assert join_closure(gens).elements == _subset_join_reference(gens)


def test_generator_validation_names_the_pair_a_tuple_check_names():
    rng = random.Random(11)
    families = [[(1, 0), (1, 1)], [(1, 0), (1, 0)], [(0, 1, 0), (3, 0, 2), (0, 1, 0), (0, 0, 0)]]
    for _ in range(300):
        n = rng.randint(1, 4)
        fam = [tuple(rng.randint(0, 9) for _ in range(n)) for _ in range(rng.randint(1, 7))]
        if rng.random() < 0.3:
            fam.append(rng.choice(fam))  # a duplicate
        families.append(fam)
    raised = 0
    for fam in families:
        expected = _first_comparable_reference(fam)
        if expected is None:
            assert _validated(fam)[0] == tuple(sorted(fam))
            continue
        raised += 1
        with pytest.raises(InvalidGeneratorError) as err:
            _validated(fam)
        assert str(err.value) == expected
    assert raised > 100


def test_formation_counts_match_the_formation_reference():
    """Each entry of the formation count is its target's odd formations
    less its even ones, as the combinations search lists them, and a
    target off the closure has no formation and no entry."""
    rng = random.Random(5)
    checked = 0
    for _ in range(30):
        n = rng.randint(1, 4)
        gens = _random_antichain(rng, n, 4, rng.randint(1, 6))
        table = domination_by_formations(gens)
        targets = list(join_closure(gens).elements)
        for y in list(targets):
            i = rng.randrange(n)
            # above every generator in coordinate i: no formation can reach it
            targets.append(y[:i] + (max(g[i] for g in gens) + rng.randint(1, 5),) + y[i + 1:])
        targets += [tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(5)]
        for y in targets:
            forms = formations(y, gens)
            assert table.get(y) == (sum(1 if len(f) % 2 else -1 for f in forms) if forms else None)
            checked += 1
    assert checked > 100


def _formations_by_walk(generators):
    """The formation count as a depth-first walk: one table update per
    non-empty subset, each join one `|` on its parent's.  The reference
    for domination_by_formations' one signed pass per generator."""
    gens, packing = _validated(generators)
    codes = packing.codes(gens)
    table = {}
    stack = [(1 << i, i, g) for i, g in enumerate(codes)]
    while stack:
        mask, last, v = stack.pop()
        table[v] = table.get(v, 0) + (1 if mask.bit_count() & 1 else -1)
        for j in range(last + 1, len(codes)):
            stack.append((mask | 1 << j, j, v | codes[j]))
    return {packing.vector(v): d for v, d in sorted(table.items())}


def _unit_vectors(s):
    """The pass's worst case: every subset has its own join, 2^s - 1 of them."""
    return [tuple(int(i == j) for j in range(s)) for i in range(s)]


def test_formation_count_matches_the_depth_first_walk():
    """s = 1..14: staircases, random antichains and unit vectors, whose
    closure of 2^s - 1 joins is the pass's worst case, and families where
    most counts cancel (a 2-d staircase and one more axis, the simplex
    layer a + b + c = 3); entries, zeros and order kept."""
    families = [[(0,)], [(0, 0, 0)], [(0, 3), (3, 1), (1, 2)], [(1, 2), (3, 0), (0, 3), (2, 1)],
                [(3, 0, 2), (3, 2, 1), (2, 3, 0), (1, 3, 3), (2, 1, 2), (2, 0, 3)],
                [(i, 12 - i, 0) for i in range(13)] + [(0, 0, 1)],
                [(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]]
    rng = random.Random(15)
    for s in range(1, 15):
        families.append([(i, s - 1 - i) for i in range(s)])
        families.append(_unit_vectors(s))
        for n, top in ((3, 4), (4, 3), (5, 2)):
            gens = _random_antichain(rng, n, top, 4 * s)
            if len(gens) >= s:
                families.append(rng.sample(gens, s))
    sizes, zeros = set(), 0
    for gens in families:
        table = domination_by_formations(gens)
        assert list(table.items()) == list(_formations_by_walk(gens).items()), gens
        sizes.add(len(gens))
        zeros += list(table.values()).count(0)
    assert sizes == set(range(1, 15)) and zeros >= 500, zeros
    assert domination_by_formations([(0, 0)]) == {(0, 0): 1}


def test_formation_count_runs_no_closure_or_mobius_kernel(monkeypatch):
    """The formation count is verify's independent check of the closure
    routes: it runs with join_closure, both closure kernels and both
    Mobius kernels made to raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("the formation count ran a closure or Mobius kernel")

    closure = join_closure(FOUR_GENS)
    for name in ("join_closure", "_closure_by_joins", "_closure_on_grid",
                 "_mobius_on_grid", "_mobius_by_substitution"):
        monkeypatch.setattr(poset, name, refuse)
    for gens in (FOUR_GENS, TWO_OF_THREE, _unit_vectors(6), [(i, 5 - i) for i in range(6)]):
        assert list(domination_by_formations(gens).items()) == list(_formations_by_walk(gens).items())
    with pytest.raises(AssertionError, match="ran a closure or Mobius kernel"):
        domination_by_closure_mobius(closure)  # the patches bite


@pytest.mark.memory
def test_formation_count_memory_stays_near_the_walk():
    """At s = 20 the pass holds one signed count per join seen so far and
    lists no subset: the peak stays within 1.25x of the per-subset walk's,
    whose table of 687 joins it also holds."""
    gens = [(i, 17 - i, 0, 0) for i in range(18)] + [(0, 0, 1, 0), (0, 0, 0, 1)]
    peaks = []
    for count in (lambda: domination_by_formations(gens), lambda: _formations_by_walk(gens)):
        tracemalloc.start()
        try:
            table = count()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(table) == 687
    assert peaks[0] <= 1.25 * peaks[1], peaks


# --- the grid kernels against the pairwise loops ------------------------------


def _minimal(vectors):
    """The minimal vectors of a set: an antichain."""
    vectors = set(vectors)
    return sorted(v for v in vectors if not any(u != v and vleq(u, v) for u in vectors))


@st.composite
def _grid_families(draw):
    """Families over n = 0..8 coordinates, each taking at most three of the
    states 0..9 (so the grid stays within 3^8 cells): an antichain, and
    the same family with a duplicate or a comparable pair injected."""
    n = draw(st.integers(0, 8))
    axes = [draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True)) for _ in range(n)]
    vector = st.tuples(*(st.sampled_from(axis) for axis in axes))
    antichain = _minimal(draw(st.lists(vector, min_size=1, max_size=12)))
    faulty = list(antichain)
    fault = draw(st.sampled_from(["none", "duplicate", "comparable"]))
    if fault == "duplicate":
        faulty.append(draw(st.sampled_from(antichain)))
    elif fault == "comparable":
        v = list(draw(st.sampled_from(antichain)))
        if n:
            i = draw(st.integers(0, n - 1))
            v[i] = draw(st.sampled_from([x for x in range(10) if x != v[i]]))
        faulty.append(tuple(v))
    return antichain, draw(st.permutations(faulty))


def _outcome(call):
    """A call's result, or its error's class and message."""
    try:
        return call()
    except DomikitError as e:
        return type(e).__name__, str(e)


def _routes(grid: bool):
    """Every size selection of poset and systems forced to the grid or the loops."""
    steps = (lambda axes: 0.0) if grid else (lambda axes: math.inf)
    return mock.patch.multiple(poset, _grid_steps=steps), mock.patch.multiple(systems, _grid_steps=steps)


@settings(max_examples=300, deadline=None)
@given(_grid_families())
def test_grid_kernels_equal_the_pairwise_loops(families):
    antichain, faulty = families
    gens, packing = _checked(antichain)
    axes, codes = _axes(gens), packing.codes(gens)
    assert _nested_on_grid([gens], axes)
    elements = _closure_on_grid(gens, axes)
    assert elements == _closure_by_joins(packing, codes) == join_closure(antichain).elements
    closure = join_closure(antichain)
    assert _subset_join_reference(gens)[-1] == closure.elements[-1]
    table = _mobius_on_grid(closure, axes)
    assert list(table.items()) == list(_mobius_by_substitution(closure).items())
    assert list(table.items()) == list(domination_by_formations(gens).items())
    # a faulty family: the grid says so, and the pairs name the fault either way
    gens, packing = _checked(faulty)
    reference = _first_comparable_reference(faulty)
    expected = gens if reference is None else ("InvalidGeneratorError", reference)
    assert _outcome(lambda: _check_pairs(gens, packing.codes(gens)) or gens) == expected
    assert _nested_on_grid([gens], _axes(gens)) == (reference is None)
    assert (_closure_on_grid(gens, _axes(gens)) is None) == (reference is not None)
    for grid in (True, False):
        on_poset, on_systems = _routes(grid)
        with on_poset, on_systems:
            assert _outcome(lambda: _validated(faulty)[0]) == expected
            assert _outcome(lambda: join_closure(faulty).generators) == expected


@st.composite
def _level_families(draw):
    """Path-vector levels 1..M over n = 1..6 coordinates: each level the
    minimal joins of pairs of the level below, with now and then a
    duplicate, a comparable pair, a vector outside the space, a negative,
    short or long vector, an empty level, or a level replaced by an
    unrelated antichain, which the next or it may not nest in."""
    n = draw(st.integers(1, 6))
    vector = st.tuples(*(st.integers(0, 4) for _ in range(n)))
    levels = [_minimal(draw(st.lists(vector, min_size=1, max_size=6)))]
    for _ in range(draw(st.integers(0, 3))):
        below = levels[-1]
        pairs = draw(st.lists(st.tuples(st.sampled_from(below), st.sampled_from(below)),
                              min_size=1, max_size=6))
        levels.append(_minimal(tuple(map(max, a, b)) for a, b in pairs))
    ms = [max(1, *(v[i] for level in levels for v in level)) for i in range(n)]
    clean = list(levels)
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(levels) - 1))
        fault = draw(st.sampled_from(["duplicate", "comparable", "outside", "unrelated", "unrelated",
                                      "negative", "short", "long", "empty"]))
        if fault == "empty":
            levels[k] = []
            continue
        if fault == "unrelated":
            within = st.tuples(*(st.integers(0, m) for m in ms))
            levels[k] = _minimal(draw(st.lists(within, min_size=1, max_size=6)))
            continue
        v = list(draw(st.sampled_from(clean[k])))
        i = draw(st.integers(0, n - 1))
        if fault == "comparable":
            v[i] += 1
        elif fault == "outside":
            v[i] = ms[i] + 1
        elif fault == "negative":
            v[i] = -1
        elif fault == "short":
            v = v[:i]
        elif fault == "long":
            v.append(draw(st.integers(0, 2)))
        levels[k] = levels[k] + [tuple(v)]
    return ms, {k + 1: level for k, level in enumerate(levels)}


@settings(max_examples=300, deadline=None)
@given(_level_families())
def test_path_vector_checks_on_the_grid_name_what_the_loops_name(case):
    ms, levels = case
    outcomes = []
    for grid in (True, False):
        on_poset, on_systems = _routes(grid)
        with on_poset, on_systems:
            outcomes.append(_outcome(lambda: path_vector_system(ms, levels)._paths))
    outcomes.append(_outcome(lambda: path_vector_system(ms, levels)._paths))
    assert outcomes[0] == outcomes[1] == outcomes[2]


@pytest.mark.parametrize("levels, message", [
    ({1: [(1, 0, 0), (1, 1, 0)]}, "comparable generators (1, 0, 0) and (1, 1, 0)"),
    ({1: [(1, 0), (0, 1)], 2: [(1, 0, 0), (1, 1, 0)]}, "comparable generators (1, 0, 0) and (1, 1, 0)"),
    ({1: [(1, 0), (1, 1)], 2: [(1, 0, 0)]}, "comparable generators (1, 0) and (1, 1)"),
    ({1: [(1, 0)], 2: [(1, 1, 1)]}, "path vector (1, 1, 1) outside space (1, 1)"),
    ({1: [(1, 0), (1, 1)], 2: [(2, 0)]}, "comparable generators (1, 0) and (1, 1)"),
    ({1: [(1, 0), (1, 1)], 2: [(1, 0), (0, 1, 1)]}, "comparable generators (1, 0) and (1, 1)"),
    ({1: [(1, 0), (0, 1)], 2: [(1, 1), (1, -1)]}, "negative state in generator (1, -1)"),
    ({1: [(1, 1)], 2: [(0, 1)], 3: [(1, 1), (1, 1)]}, "comparable generators (1, 1) and (1, 1)"),
    ({1: [(1, 1)], 2: [(0, 1)], 3: [(1, 1)]}, "level-2 path vector (0, 1) dominates no level-1 path vector"),
])
def test_path_vector_faults_are_named_in_the_order_the_levels_are_read(levels, message):
    """Level by level, a family's bounds, shape, antichain and length are
    checked in that order, and the nesting of the levels after all of
    them, as when every level was validated pairwise as it was read."""
    with pytest.raises(DomikitError) as err:
        path_vector_system((1, 1), levels)
    assert str(err.value) == message


def _sum_3_8_level_12():
    ls = sum_system((3,) * 8).level(12)
    return ls, minimal_path_vectors(ls)


def test_closure_and_mobius_of_a_unit_sum_over_3_to_the_8():
    """8 092 path vectors, 36 814 closure elements on a grid of 4^8 cells:
    the loops take tens of seconds here, the grid well under one."""
    ls, paths = _sum_3_8_level_12()
    assert len(paths) == 8092
    closure = join_closure(paths)
    assert len(closure) == 36814 and closure.elements[-1] == (3,) * 8
    table = domination_by_closure_mobius(closure)
    assert list(table) == list(closure.elements)
    assert table[(3,) * 8] == pivotal_domination(ls)


@pytest.mark.memory
def test_grid_kernels_hold_a_few_lanes_of_the_grid():
    """On the 4^8-cell grid of the unit sum over [3]^8 at level 12, each
    kernel's memory beyond the result it returns is a few lanes of the grid
    and two lists of lane numbers of the generators: O(cells * width + s),
    where a list or tuple per cell would take 2.4 MB or more."""
    _, paths = _sum_3_8_level_12()
    gens = _validated(paths)[0]
    closure, axes, s = join_closure(gens), _axes(gens), len(gens)
    cells = math.prod(map(len, axes))
    kernels = [(lambda: _nested_on_grid([gens], axes), 1),
               (lambda: _closure_on_grid(gens, axes), poset._grid(axes, s).width),
               (lambda: _mobius_on_grid(closure, axes), poset._grid(axes, max(s, 255)).width)]
    for kernel, width in kernels:
        kernel()  # one-time allocations stay out of the window
        tracemalloc.start()
        try:
            result = kernel()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result
        assert peak - retained <= 12 * cells * width + 96 * s, (peak - retained, width)
