import functools
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from wdrd import (Digraph, _kernel_py, are_isomorphic, canon, canonical_form,
                  cayley_cyclic, complete_graph, johnson, kernel)
from wdrd._kernel_py import _find, _join_orbits, _refined_colors
from wdrd.canon import canonical_digraph, canonical_permutation, form_digraph
from wdrd.errors import CanonicalizationError, TooLargeError
from wdrd.search import _orientable, word_to_digraph
from oracles import canonical_permutation_by_lists, refined_colors_by_pairs


def permuted(d, perm):
    return Digraph.from_arcs(d.n, [(perm[u], perm[v]) for u, v in d.arcs()])


@st.composite
def digraph_and_permutations(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True,
                         max_size=len(pairs))) if pairs else []
    perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    return Digraph.from_arcs(n, arcs), perms


class TestCanonicalForm:
    def test_triangle_reversal_equal(self):
        tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert canonical_form(tri) == canonical_form(tri.reverse())

    def test_cayley_pair_different(self):
        assert canonical_form(cayley_cyclic(6, {1, 2})) != \
            canonical_form(cayley_cyclic(6, {1, 4}))

    @given(digraph_and_permutations())
    @settings(max_examples=120, deadline=None)
    def test_permutation_invariance(self, case):
        """Every relabelling gives one form, and the search, pruned by the
        automorphisms it finds, returns the list-based reference's
        permutation."""
        d, perms = case
        assert canonical_permutation(d) == \
            canonical_permutation_by_lists(d.adjacency)
        form = canonical_form(d)
        assert all(canonical_form(permuted(d, p)) == form for p in perms)

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

    @pytest.mark.parametrize("order", [(0, 0, 2), (0, 1), (0, 1, 3)],
                             ids=["repeated", "short", "out-of-range"])
    def test_a_relabelling_that_is_no_permutation_raises(self, monkeypatch,
                                                         order):
        """Whether the dispatch or the compiled entry point returns it; the
        C call writes n entries, so a short order leaves a 0 repeated."""

        class Library:
            def wdrd_canonical_permutation(self, n, out_m, in_m, perm):
                for i, v in enumerate(order):
                    perm[i] = v
                return 0

        tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        for module, name, entry in [
                (canon, "canonical_permutation",
                 lambda d, max_n=canon.MAX_N: order),
                (kernel, "canonical_permutation",
                 kernel._Compiled(Library()).canonical_permutation)]:
            with monkeypatch.context() as mp:
                mp.setattr(module, name, entry)
                with pytest.raises(CanonicalizationError,
                                   match="not a permutation"):
                    canonical_digraph(tri)
                with pytest.raises(CanonicalizationError):
                    canonical_form(tri)

    def test_past_the_kernel_limit_the_pure_search_runs(self, monkeypatch):
        """`wdrd iso --max-n` reaches digraphs the kernels do not take."""
        def no_kernel(n, out_m, in_m):
            raise AssertionError("the kernel backend ran")

        n = kernel.MAX_N + 1
        rng = random.Random(16)
        d = Digraph.from_arcs(n, [(u, v) for u in range(n) for v in range(n)
                                  if u != v and rng.random() < 0.5])
        monkeypatch.setattr(kernel, "canonical_permutation", no_kernel)
        assert canonical_permutation(d, max_n=n) == \
            _kernel_py._canonical_permutation(n, d.out_masks, d.in_masks)


def random_digraphs(seed=11, count=200, max_n=8, min_n=1):
    rng = random.Random(seed)
    cases = []
    for n in range(min_n, max_n + 1):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        cases += [Digraph.from_arcs(n, []), Digraph.from_arcs(n, pairs)]
    for _ in range(count):
        n = rng.randint(min_n, max_n)
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


def survivors(graph, max_edges, count):
    d, edges = _orientable(graph, max_edges)
    words = kernel.search_run(d.n, edges, [()])["survivors"]
    assert len(words) == count
    return [word_to_digraph(d.n, edges, w) for w in words]


# The directed and undirected cycles up to C12 (in "cayley"), the Johnson
# graphs, the complete graphs, the Paley tournament and the survivors have
# large automorphism groups, so the search prunes by the automorphisms it
# finds on them.
ORACLE_CASES = {
    "random": random_digraphs,
    "cayley": cayley_digraphs,
    "johnson": lambda: [johnson(4, 2).graph, johnson(5, 2).graph],
    "complete and Paley(7)": lambda: [
        *(complete_graph(n) for n in range(4, 8)),
        cayley_cyclic(7, {1, 2, 4})],
    "J(4,2) survivors": lambda: survivors(johnson(4, 2), 20, 10),
    "K7 survivors": lambda: random.Random(7).sample(
        survivors(complete_graph(7), 21, 240), 24),
}


@functools.cache
def oracle_results(family):
    """Each digraph of the ORACLE_CASES family with the list-based
    reference's permutation."""
    return [(d, canonical_permutation_by_lists(d.adjacency))
            for d in ORACLE_CASES[family]()]


class TestAgainstListSearch:
    """The integer-keyed search, pruned by the automorphisms it finds,
    returns exactly the permutation, and the refinement exactly the
    colours, of the list-based reference."""

    @pytest.mark.parametrize("family", sorted(ORACLE_CASES))
    def test_permutation_and_colours(self, family):
        for d, want in oracle_results(family):
            assert canonical_permutation(d) == want
            assert _refined_colors(d.n, d.out_masks, d.in_masks) == \
                refined_colors_by_pairs(d.adjacency)

    @pytest.mark.parametrize("family", sorted(ORACLE_CASES))
    def test_each_backend_returns_the_reference(self, backend, family):
        for d, want in oracle_results(family):
            assert backend.canonical_permutation(
                d.n, d.out_masks, d.in_masks) == want

    def test_canonical_digraph_is_the_arc_relabelling(self):
        for d in random_digraphs(seed=13, count=100, max_n=7):
            inv = [0] * d.n
            for pos, v in enumerate(canonical_permutation(d)):
                inv[v] = pos
            assert canonical_digraph(d) == Digraph.from_arcs(
                d.n, [(inv[u], inv[v]) for u, v in d.arcs()])


def cycles():
    """The directed and undirected cycles C13-C16."""
    return [cayley_cyclic(m, conn) for m in range(13, 17)
            for conn in ({1}, {1, m - 1})]


def relabelled(d, rng):
    perm = list(range(d.n))
    rng.shuffle(perm)
    return permuted(d, perm)


def random_cayley_digraphs(seed=15, count=16):
    """Relabelled Cayley digraphs of Z_m, 9 <= m <= 16, which refinement
    leaves as one colour block."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        m = rng.randint(9, 16)
        conn = rng.sample(range(1, m), rng.randint(1, m - 2))
        cases.append(relabelled(cayley_cyclic(m, conn), rng))
    return cases


def cycle_unions(seed=17):
    """Relabelled disjoint unions of directed cycles.  A node below the
    root meets automorphisms that move its placed vertices, which must not
    join its orbits; on (4, 4, 4) and (6, 6), joining them skips the
    subtree of the first minimal leaf."""
    rng = random.Random(seed)
    cases = []
    for lengths in [(3, 3, 3), (4, 6), (5, 5), (3, 7), (2, 3, 5),
                    (4, 4, 4), (3, 3, 4, 4), (6, 6), (5, 5, 5)]:
        arcs, start = [], 0
        for m in lengths:
            arcs += [(start + i, start + (i + 1) % m) for i in range(m)]
            start += m
        cases.append(relabelled(Digraph.from_arcs(start, arcs), rng))
    return cases


# Past the list-based reference's reach: the compiled search must return
# the pure search's permutation.
LARGE_CASES = {
    "cycles C13-C16": cycles,
    "unions of directed cycles": cycle_unions,
    "random 9-16": lambda: random_digraphs(seed=14, count=60, max_n=16,
                                           min_n=9),
    "random Cayley 9-16": random_cayley_digraphs,
    "J(6,3), 20 vertices": lambda: [johnson(6, 3).graph],
}


class TestCompiledSearch:
    @pytest.mark.parametrize("family", sorted(LARGE_CASES))
    def test_compiled_returns_the_pure_permutation(self, compiled, family):
        for d in LARGE_CASES[family]():
            args = d.n, d.out_masks, d.in_masks
            assert compiled.canonical_permutation(*args) == \
                _kernel_py.canonical_permutation(*args)

    def test_threads_get_the_serial_forms(self, compiled, monkeypatch):
        monkeypatch.setattr(kernel, "canonical_permutation",
                            compiled.canonical_permutation)
        check_threaded_forms()


def check_threaded_forms(rounds=4, threads=4):
    """Canonicalise the K7 survivors `rounds` times on `threads` threads,
    with a short thread switch interval, and check every form against a
    serial run."""
    digraphs = survivors(complete_graph(7), 21, 240)
    serial = [canonical_form(d) for d in digraphs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            got = list(pool.map(canonical_form, digraphs * rounds,
                                timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == serial * rounds


class TestAutomorphismPruning:
    def test_orbits_join_by_the_generators_that_fix_the_prefix(self):
        """A node skips a candidate only by the automorphisms that fix every
        placed vertex."""
        rotate = [1, 2, 0, 3]        # (0 1 2)
        swap = [0, 1, 3, 2]          # (2 3)

        def orbits(fixed):
            parent = _join_orbits(None, [rotate, swap], fixed, 4)
            if parent is None:
                return None
            roots = [_find(parent, x) for x in range(4)]
            return sorted(sorted(x for x in range(4) if roots[x] == r)
                          for r in set(roots))

        assert orbits([]) == [[0, 1, 2, 3]]
        assert orbits([3]) == [[0, 1, 2], [3]]
        assert orbits([1]) == [[0], [1], [2, 3]]
        assert orbits([0, 3]) is None


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
