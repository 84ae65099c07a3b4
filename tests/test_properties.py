"""Property-based checks on small random inputs.

Everything here is kept tiny on purpose: the algebraic laws are already
pinned on worked examples elsewhere, these runs just probe odd corners.
"""

from itertools import product

from hypothesis import example, given, settings, strategies as st

from conftest import lex_values, signed_formation_dp, vleq
from domikit import (
    InvalidGeneratorError,
    delta_at,
    domination_by_closure_mobius,
    domination_by_formations,
    domination_via_binary,
    join_closure,
    minimal_path_vectors,
    path_vector_system,
    pivotal_domination,
    sum_system,
    table_system,
    threshold_domination,
)
from domikit.poset import _Packing

vectors = st.lists(st.integers(0, 2), min_size=1, max_size=4).map(tuple)
pairs = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple),
        st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple),
    )
)


@given(pairs)
def test_mobius_product_box_identity(xy):
    """delta_at on the up-set of x is the sum of mu(u, y) over x <= u <= y,
    which is 1 at y = x and 0 at every other non-zero y."""
    x, y = xy
    if not any(x) or not any(y):
        return
    upset = path_vector_system((2,) * len(x), {1: [x]}).level(1)
    assert delta_at(upset, y) == (1 if x == y else 0)


@given(st.sets(
    st.lists(st.integers(0, 2), min_size=3, max_size=3).map(tuple),
    min_size=1, max_size=4,
))
def test_closure_inversion_sums_to_one(raw):
    raw.discard((0, 0, 0))
    try:
        closure = join_closure(raw)
    except InvalidGeneratorError:
        return  # comparable pair drawn; covered by constructor tests
    assert len(closure) <= 2 ** len(closure.generators) - 1
    table = domination_by_closure_mobius(closure)
    for y in closure.elements:
        assert sum(d for x, d in table.items() if vleq(x, y)) == 1


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 2), min_size=1, max_size=3),
    st.data(),
)
def test_cross_method_on_random_tables(max_states, data):
    space = list(product(*(range(m + 1) for m in max_states)))
    raw = {
        x: data.draw(st.integers(0, 3), label=f"raw{x}")
        for x in space
    }
    table = {}
    for x in space:  # lex order visits all predecessors first
        below = [table[tuple(y)] for i in range(len(x))
                 for y in [list(x[:i]) + [x[i] - 1] + list(x[i + 1:])] if x[i] > 0]
        table[x] = max([raw[x]] + below)
    top = tuple(max_states)
    if table[top] == 0:
        return
    system = table_system(max_states, lex_values(max_states, table))
    for k in range(1, table[top] + 1):
        ls = system.level(k)
        paths = minimal_path_vectors(ls)
        reference = signed_formation_dp(paths, top)
        assert domination_by_formations(paths).get(top, 0) == reference
        assert domination_by_closure_mobius(join_closure(paths)).get(top, 0) == reference
        assert pivotal_domination(ls) == reference
        assert domination_via_binary(ls) == reference
        assert delta_at(ls, top) == reference


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 2), st.data())
def test_threshold_formula_matches_formation_count(n, m, data):
    k = data.draw(st.integers(1, n * m), label="k")
    ls = sum_system([m] * n).level(k)
    paths = minimal_path_vectors(ls)
    assert threshold_domination(n, m, k) == signed_formation_dp(paths, (m,) * n)


@st.composite
def nested_families(draw):
    """(max_states, levels, states): random nested antichains, level k's
    vectors each the join of a drawn vector with a level-(k-1) vector, and
    states to evaluate, some far above every family state."""
    n = draw(st.integers(0, 4))
    ms = tuple(draw(st.lists(st.sampled_from([1, 2, 3, 130]), min_size=n, max_size=n)))
    vector = st.tuples(*(st.integers(0, min(m, 3)) for m in ms))
    levels, lower = {}, None
    for k in range(1, draw(st.integers(1, 4)) + 1):
        raw = draw(st.lists(vector, min_size=1, max_size=5))
        if lower is not None:
            raw = [tuple(map(max, v, draw(st.sampled_from(lower)))) for v in raw]
        levels[k] = lower = sorted({v for v in raw if not any(u != v and vleq(u, v) for u in raw)})
    states = draw(st.lists(st.tuples(*(st.integers(0, m) for m in ms)), min_size=1, max_size=8))
    return ms, levels, states


@settings(max_examples=150, deadline=None)
@given(nested_families())
@example(((), {1: [()], 2: [()]}, [()]))  # n = 0
@example(((1, 2), {1: [(0, 0)], 2: [(0, 0)]}, [(0, 0), (1, 2)]))  # all-zero vectors: W = 0
@example(((2, 2), {1: [(1, 0)], 2: [(1, 1)], 3: [(2, 2)]}, [(1, 1), (2, 1), (2, 2)]))  # one vector a level
@example(((1, 1), {1: [(1, 0)], 2: [(1, 0)], 3: [(1, 0)]}, [(0, 1), (1, 0)]))  # one vector repeated
@example(((130, 2), {1: [(1, 0), (0, 1)], 2: [(1, 1)], 3: [(3, 1), (1, 2)]},
          [(130, 2), (130, 0), (0, 2), (2, 1)]))  # states above the family widths
def test_path_vector_phi_is_the_highest_level_below(case):
    """phi of a path_vectors system, one word test per level read, is the
    largest k such that some u in F_k has u <= x, 0 if there is none."""
    ms, levels, states = case
    system = path_vector_system(ms, levels)
    for x in states:
        expected = max((k for k, fam in levels.items() if any(vleq(u, x) for u in fam)), default=0)
        assert system.evaluate(x) == expected


@given(st.lists(st.integers(0, 4), max_size=5).flatmap(lambda widths: st.tuples(
    st.just(widths), st.lists(st.tuples(*(st.integers(0, w) for w in widths)), max_size=6))))
@example(([2, 0, 3], []))
@example(([2, 0, 3], [(1, 0, 3)]))
@example(([], [()]))
def test_codes_by_columns_equal_one_code_per_vector(case):
    widths, vectors = case
    packing = _Packing(widths)
    assert packing.codes(vectors) == list(map(packing.code, vectors))
