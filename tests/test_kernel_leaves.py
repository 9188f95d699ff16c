"""The leaf checks of both kernels against independent oracles.

Every leaf of a few branches on which the distance-layer and two-arc
checks fire goes through both kernels.  The survivors must be exactly the
words that `wdrd_report` finds weakly distance-regular, and the stage that
rejects each leaf must be the first pipeline condition that
`oracles.leaf_stage_by_matrices` finds violated.  So a check that rejects
a true WDRD fails here, and so does a check that compares the wrong thing,
even where a later stage would still reject the leaf.

The degree prune of both kernels is checked the same way: on a few
degree-pruned branches, `examined`, `skipped_degree` and the number of
search nodes must be the counts of `oracles.degree_prune_by_words`, which
decides each word by the rule of a table of degree targets.  Leaf counts
alone cannot see a prune that cuts later than it could (leaving out the
in-only degrees, say): at a leaf every vertex's degrees sum to k, which
makes any such rule cut the same words.

Both modes run the degree-pruned search, and an unpruned call also returns
N, the number of completions that are not strongly connected (see
`_kernel_py`).  On a few unpruned branches, the result of both kernels
must be that of the pruned call plus N, and N must be the count of
`oracles.not_strong_by_words`, which decides each word by its own digraph;
the search must visit the nodes that `oracles.degree_prune_by_words`
counts for the pruned branch, and the full leaf pipeline must run only on
the non-symmetric leaves that the degree prune keeps.  A kernel whose
count memo holds only a few states, or none, must give the same result on
J(4,2) and K6.  `wdrd.search` derives the unpruned counters from N
(tests/test_search.py checks them against the word-by-word counts)."""

import ctypes
import functools
import itertools

import numpy as np
import pytest

from conftest import compiled_variant, pure_variant
from oracles import (degree_prune_by_words, leaf_stage_by_matrices,
                     not_strong_by_words, rows_to_masks_by_bits)
from wdrd import _kernel_py, kernel
from wdrd.analysis import wdrd_report
from wdrd.generators import complete_graph, johnson
from wdrd.search import _branches, _underlying_edges, word_to_digraph

K4 = _underlying_edges(complete_graph(4))
K6 = _underlying_edges(complete_graph(6))
J42 = _underlying_edges(johnson(4, 2).graph)

# name -> (n, edges, prefix, prune_degree)
BRANCHES = {
    # row and class failures and six survivors; on 12 leaves only vertex
    # 0's in-layers differ
    "K4": (4, K4, (), False),
    # row, class, two-arc and tensor failures
    "J(4,2) 0122": (6, J42, (0, 1, 2, 2), False),
    # the degree prune leaves one survivor and two two-arc failures
    "K6 degree 001122001": (6, K6, (0, 0, 1, 1, 2, 2, 0, 0, 1), True),
}

# name -> (n, edges, prefix) of the degree-pruned branches checked against
# the target-table rule; the two labellings of P3 are irregular
PRUNED = {
    "K4": (4, K4, ()),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)], ()),
    "K5": (5, _underlying_edges(complete_graph(5)), ()),
    "3-prism": (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3),
                    (1, 4), (2, 5)], ()),
    "P3": (3, [(0, 1), (1, 2)], ()),
    "P3 centred at 0": (3, [(0, 1), (0, 2)], ()),
    "J(4,2) 0122": BRANCHES["J(4,2) 0122"][:3],
    "K6 001122001": BRANCHES["K6 degree 001122001"][:3],
}

K4_MINUS_AN_EDGE = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
TWO_TRIANGLES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]

# name -> (n, edges, prefix) of the unpruned branches checked against the
# word-by-word count; K4 minus an edge and P3 are irregular, so the pruned
# search cuts every child
FULL = {
    "K4 minus an edge": (4, K4_MINUS_AN_EDGE, ()),
    "K4": (4, K4, ()),
    "C4": PRUNED["C4"],
    "P3": PRUNED["P3"],
    "3-prism": PRUNED["3-prism"],
    "two triangles": (6, TWO_TRIANGLES, ()),
    "J(4,2)": (6, J42, ()),
    "J(4,2) 01": (6, J42, (0, 1)),
    "J(4,2) 0122": (6, J42, (0, 1, 2, 2)),
    # the prefix alone decides: after depth 3 of 4 vertex 0 has only
    # out-arcs and no edge left, so no completion is strongly connected ...
    "K4 0000": (4, K4, (0, 0, 0, 0)),
    # ... and the arcs at depth 4 of 5 are strongly connected, so every
    # completion is
    "K4 02200": (4, K4, (0, 2, 2, 0, 0)),
    # all-digon prefixes: the all-digon word is symmetric, and on the two
    # triangles it is not strongly connected either
    "two triangles 222": (6, TWO_TRIANGLES, (2, 2, 2)),
    "P3 2": (3, PRUNED["P3"][1], (2,)),
    "K4 minus an edge 22": (4, K4_MINUS_AN_EDGE, (2, 2)),
    # no edge: one empty word, strongly connected on one vertex only
    "K1": (1, [], ()),
    "two vertices, no edge": (2, [], ()),
}

# name -> (n, out-masks, in-masks) of single leaves; on the directed
# 64-cycle each of the n = 64 rows holds every class once, so nc = 64 and
# the tensor check's references fill all 64 x 64 sorted keys of the
# kernels' scratch
LEAVES = {
    "directed 64-cycle": (64, [1 << (v + 1) % 64 for v in range(64)],
                          [1 << (v - 1) % 64 for v in range(64)]),
}


@functools.cache
def leaves(name):
    """(word, digraph, wdrd_report) for every leaf of the branch, in
    visiting order."""
    n, edges, prefix, _ = BRANCHES[name]
    out = []
    for rest in itertools.product((0, 1, 2), repeat=len(edges) - len(prefix)):
        word = bytes(prefix + rest)
        d = word_to_digraph(n, edges, word)
        out.append((word, d, wdrd_report(d)))
    return out


def non_symmetric(name):
    return [d for _, d, rep in leaves(name) if rep.non_symmetric]


@functools.cache
def expected_stages(name):
    """(out-masks, in-masks, expected stage) of every non-symmetric leaf."""
    out = []
    for d in non_symmetric(name):
        adj = np.asarray(d.adjacency)
        out.append((rows_to_masks_by_bits(adj), rows_to_masks_by_bits(adj.T),
                    leaf_stage_by_matrices(adj)))
    return out


@pytest.mark.parametrize("name", BRANCHES)
def test_survivors_are_the_wdrd_words(backend, name):
    n, edges, prefix, prune = BRANCHES[name]
    got = backend.search_run(n, edges, [prefix], prune_degree=prune)
    assert got["survivors"] == [w for w, _, rep in leaves(name)
                                if rep.is_wdrd]
    if not prune:
        assert got[kernel.NOT_STRONG_KEY] == sum(
            not rep.strongly_connected for *_, rep in leaves(name))


@pytest.mark.parametrize("name", BRANCHES)
def test_each_leaf_fails_at_its_first_violated_condition(backend, name):
    n = BRANCHES[name][0]
    expected = expected_stages(name)
    assert [backend.leaf_stage(n, out_m, in_m)
            for out_m, in_m, _ in expected] == [want for *_, want in expected]


@pytest.mark.parametrize("name", LEAVES)
def test_largest_leaves_agree_with_the_pure_kernel(compiled, name):
    n, out_m, in_m = LEAVES[name]
    assert compiled.leaf_stage(n, out_m, in_m) == \
        _kernel_py.leaf_stage(n, out_m, in_m)


def generalized_petersen(m, k):
    """Adjacency matrix of GP(m, k): an outer m-cycle, spokes, and inner
    vertices joined k apart."""
    adj = np.zeros((2 * m, 2 * m), dtype=bool)
    for i in range(m):
        for u, v in ((i, (i + 1) % m), (i, m + i), (m + i, m + (i + k) % m)):
            adj[u, v] = adj[v, u] = True
    return adj


def test_the_tensor_check_compares_multisets(backend):
    """The Nauru graph GP(12,5) passes every check before the tensor: it is
    cubic and vertex-transitive, with no triangle and one common neighbour
    for each pair at distance 2.  Of its pairs at distance 3, 144 have one
    neighbour at distance 2 from the other end and 72 have two; their
    tallies differ only in counts, never in which keys occur.  A graph never
    reaches the pipeline in a search, where it is symmetric, but steps 2-6
    are defined on any digraph."""
    adj = generalized_petersen(12, 5)
    masks = rows_to_masks_by_bits(adj)
    assert leaf_stage_by_matrices(adj) == "tensor"
    assert backend.leaf_stage(24, masks, masks) == "tensor"


def test_the_branches_reach_every_stage():
    assert {want for name in BRANCHES
            for *_, want in expected_stages(name)} == set(kernel.LEAF_STAGES)


def test_some_k4_leaves_fail_only_at_the_in_layers():
    """Their out-layer sizes agree on every row, so the stage test above
    sees whether vertex 0's in-layers are compared."""
    def rows_agree(d):
        layers = {tuple(np.bincount(row, minlength=d.n))
                  for row in d.distance_matrix()}
        return len(layers) == 1

    assert sum(want == "layers" and rows_agree(d) for d, (*_, want) in
               zip(non_symmetric("K4"), expected_stages("K4"))) == 12


# counter -> the head of the function whose calls it counts, dfs() or the
# leaf pipeline, in the pure kernel and in the C kernel
COUNTERS = {
    "wdrd_nodes": ("    def dfs(depth, dmax, fmax):\n",
                   "static void dfs(Ctx *c, int depth, int dmax, int fmax)\n"
                   "{\n"),
    "wdrd_pipelines": ("def _leaf_stage(n, out_m, in_m):\n",
                       "static int leaf_stage(Ctx *c)\n{\n"),
}


@functools.cache
def counting_pure_kernel():
    """A copy of `_kernel_py` that counts in COUNTERS, and its counters."""
    variant = pure_variant(*(
        (head, f"{head}{' ' * (head.index('def') + 4)}{name}.value += 1\n")
        for name, (head, _) in COUNTERS.items()))
    for name in COUNTERS:
        setattr(variant, name, ctypes.c_long())
    return variant, [getattr(variant, name) for name in COUNTERS]


@pytest.fixture(scope="module")
def counting_compiled_kernel(tmp_path_factory):
    """The compiled twin of `counting_pure_kernel`."""
    variant = compiled_variant(tmp_path_factory.mktemp("counting"), *(
        (head, f"long {name};\n\n{head}    {name}++;\n")
        for name, (_, head) in COUNTERS.items()))
    return variant, [ctypes.c_long.in_dll(variant.lib, name)
                     for name in COUNTERS]


@pytest.fixture
def counted_run(request, backend):
    """A run of one prefix through a counting copy of `backend`: its
    stats, its calls of dfs() and its leaf pipelines."""
    variant, counters = (counting_pure_kernel() if backend is _kernel_py else
                         request.getfixturevalue("counting_compiled_kernel"))

    def run(n, edges, prefix, prune):
        for counter in counters:
            counter.value = 0
        stats = variant.search_run(n, edges, [prefix], prune_degree=prune)
        return (stats, *(counter.value for counter in counters))

    return run


@pytest.mark.parametrize("name", PRUNED)
def test_degree_prune_cuts_where_the_target_table_cuts(counted_run, name):
    n, edges, prefix = PRUNED[name]
    got, nodes, _ = counted_run(n, edges, prefix, True)
    assert (got["examined"], got["skipped_degree"], nodes) == \
        degree_prune_by_words(n, edges, prefix)


@functools.cache
def not_strong(name):
    """N of the unpruned branch `name`, word by word."""
    return not_strong_by_words(*FULL[name])


@functools.cache
def pruned_nodes(name):
    """The nodes of the degree-pruned search of branch `name`."""
    return degree_prune_by_words(*FULL[name])[2]


@pytest.mark.parametrize("name", FULL)
def test_full_sweep_counts_in_bulk_where_the_rule_settles(backend,
                                                         counted_run, name):
    n, edges, prefix = FULL[name]
    got, nodes, pipelines = counted_run(n, edges, prefix, False)
    kept = backend.search_run(n, edges, [prefix], prune_degree=True)
    assert got == {**kept, kernel.NOT_STRONG_KEY: not_strong(name)}
    assert nodes == pruned_nodes(name)
    assert pipelines == kept["examined"] - kept["symmetric"]
    if name == "J(4,2)":
        assert nodes == 667 and pipelines < 100


# name -> (n, edges, prefix, N) of the unpruned runs with a cut memo: the
# not_strongly_connected counts the search gave before it counted with the
# memoised DP (no all-digon word is among them, as each graph is connected)
BUDGET = {
    "J(4,2)": (6, J42, (), 77_970),
    "K6": (6, K6, (), 709_578),
    "K6 22": (6, K6, (2, 2), 39_438),
}
# memo budgets in bytes: none at all, and 8 states of 6 vertices
BUDGETS = (0, 1024)


def pure_kernel_with_budget(budget):
    """A copy of `_kernel_py` whose memo budget is `budget` bytes."""
    line = f"MEMO_BYTES = 1 << {_kernel_py.MEMO_BYTES.bit_length() - 1}\n"
    return pure_variant((line, f"MEMO_BYTES = {budget}\n"))


@pytest.fixture(scope="module")
def compiled_with_budget(compiled, tmp_path_factory):
    """Builds of `_kernel.c` whose memo budgets are BUDGETS, by budget."""
    line = ("#define MEMO_BYTES "
            f"(1 << {_kernel_py.MEMO_BYTES.bit_length() - 1})\n")
    return {budget: compiled_variant(tmp_path_factory.mktemp("budget"),
                                     (line, f"#define MEMO_BYTES {budget}\n"))
            for budget in BUDGETS}


def check_budget_run(variant, backend, name):
    n, edges, prefix, want = BUDGET[name]
    kept = backend.search_run(n, edges, [prefix], prune_degree=True)
    assert variant.search_run(n, edges, [prefix]) == \
        {**kept, kernel.NOT_STRONG_KEY: want}


# The pure kernel takes 15 s for all of K6 with a cut memo, so it runs the
# K6 branch 22 instead.
@pytest.mark.parametrize("name", ["J(4,2)", "K6 22"])
def test_a_cut_memo_keeps_the_pure_counters(name):
    check_budget_run(pure_kernel_with_budget(1024), _kernel_py, name)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name", BUDGET)
def test_a_cut_memo_keeps_the_compiled_counters(compiled, compiled_with_budget,
                                                name, budget):
    check_budget_run(compiled_with_budget[budget], compiled, name)


def test_a_cut_memo_keeps_a_multi_prefix_call_exact(compiled_with_budget):
    """The prefixes of one call share the memo, up to its budget: the
    reversal plan of J(4,2) at split length 2 counts the same with no
    memo, with 8 states and with the full budget."""
    prefixes = _branches(len(J42), 2, True)[0]
    want = _kernel_py.search_run(6, J42, prefixes)
    for variant in [*compiled_with_budget.values(),
                    pure_kernel_with_budget(1024)]:
        assert variant.search_run(6, J42, prefixes) == want
