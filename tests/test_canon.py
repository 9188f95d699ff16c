import random

import pytest
from hypothesis import given, settings, strategies as st

from wdrd import Digraph, are_isomorphic, canonical_form, cayley_cyclic, johnson
from wdrd.canon import (_refined_colors, canonical_digraph,
                        canonical_permutation, form_digraph)
from wdrd.errors import TooLargeError
from oracles import canonical_permutation_by_lists, refined_colors_by_pairs


def permuted(d, perm):
    return Digraph.from_arcs(d.n, [(perm[u], perm[v]) for u, v in d.arcs()])


@st.composite
def digraph_and_permutation(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True,
                         max_size=len(pairs))) if pairs else []
    perm = draw(st.permutations(range(n)))
    return Digraph.from_arcs(n, arcs), list(perm)


class TestCanonicalForm:
    def test_triangle_reversal_equal(self):
        tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert canonical_form(tri) == canonical_form(tri.reverse())

    def test_cayley_pair_different(self):
        assert canonical_form(cayley_cyclic(6, {1, 2})) != \
            canonical_form(cayley_cyclic(6, {1, 4}))

    @given(digraph_and_permutation())
    @settings(max_examples=120, deadline=None)
    def test_permutation_invariance(self, case):
        d, perm = case
        assert canonical_form(d) == canonical_form(permuted(d, perm))

    def test_canonical_digraph_is_fixed_point(self):
        d = cayley_cyclic(6, {1, 2})
        c = canonical_digraph(d)
        assert canonical_digraph(c) == c
        assert canonical_form(c) == canonical_form(d)
        assert form_digraph(canonical_form(d)) == c

    def test_cap(self):
        g = johnson(6, 3).graph
        with pytest.raises(TooLargeError):
            canonical_form(g)  # 20 vertices > default cap
        canonical_form(g, max_n=20)


def random_digraphs(seed=11, count=200, max_n=8):
    rng = random.Random(seed)
    cases = []
    for n in range(1, max_n + 1):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        cases += [Digraph.from_arcs(n, []), Digraph.from_arcs(n, pairs)]
    for _ in range(count):
        n = rng.randint(1, max_n)
        density = rng.random()
        cases.append(Digraph.from_arcs(n, [
            (u, v) for u in range(n) for v in range(n)
            if u != v and rng.random() < density]))
    return cases


def cayley_digraphs(seed=12, max_m=12):
    # two or three connection elements besides the cycles: near-complete
    # Cayley digraphs tie on almost every order and take the list-based
    # search minutes
    rng = random.Random(seed)
    cases = []
    for m in range(2, max_m + 1):
        conns = {frozenset({1}), frozenset({1, m - 1})}
        if m > 3:
            conns |= {frozenset(rng.sample(range(1, m), rng.randint(2, 3)))
                      for _ in range(2)}
        cases += [cayley_cyclic(m, c) for c in sorted(conns, key=sorted)]
    return cases


ORACLE_CASES = {
    "random": random_digraphs,
    "cayley": cayley_digraphs,
    "johnson": lambda: [johnson(4, 2).graph, johnson(5, 2).graph],
}


class TestAgainstListSearch:
    """The integer-keyed search returns exactly the permutation, and the
    refinement exactly the colours, of the list-based reference."""

    @pytest.mark.parametrize("family", sorted(ORACLE_CASES))
    def test_permutation_and_colours(self, family):
        for d in ORACLE_CASES[family]():
            assert canonical_permutation(d) == \
                canonical_permutation_by_lists(d.adjacency)
            assert _refined_colors(d) == refined_colors_by_pairs(d.adjacency)

    def test_canonical_digraph_is_the_arc_relabelling(self):
        for d in random_digraphs(seed=13, count=100, max_n=7):
            inv = [0] * d.n
            for pos, v in enumerate(canonical_permutation(d)):
                inv[v] = pos
            assert canonical_digraph(d) == Digraph.from_arcs(
                d.n, [(inv[u], inv[v]) for u, v in d.arcs()])


class TestAreIsomorphic:
    def test_reversal_of_cayley(self):
        assert are_isomorphic(cayley_cyclic(6, {1, 2}), cayley_cyclic(6, {4, 5}))

    def test_distinct_cayleys(self):
        assert not are_isomorphic(cayley_cyclic(6, {1, 2}),
                                  cayley_cyclic(6, {1, 4}))

    def test_reflexive(self):
        d = cayley_cyclic(6, {1, 4})
        assert are_isomorphic(d, d)

    def test_fast_reject_on_size(self):
        assert not are_isomorphic(Digraph.from_arcs(2, [(0, 1)]),
                                  Digraph.from_arcs(3, [(0, 1)]))

    def test_fast_reject_on_arc_count(self):
        assert not are_isomorphic(Digraph.from_arcs(3, [(0, 1)]),
                                  Digraph.from_arcs(3, [(0, 1), (1, 2)]))

    def test_underlying_graphs_of_classified_digraphs(self):
        oct_graph = johnson(4, 2).graph
        for conn in ({1, 2}, {1, 4}):
            und = cayley_cyclic(6, conn).underlying_graph()
            assert are_isomorphic(und, oct_graph)
