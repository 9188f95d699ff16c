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
import subprocess
import types
from pathlib import Path

import numpy as np
import pytest

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


@pytest.fixture(params=["pure", "compiled"])
def backend(request):
    if request.param == "compiled":
        request.getfixturevalue("compiled")  # skips without a C compiler
    return request.param


@pytest.mark.parametrize("name", BRANCHES)
def test_survivors_are_the_wdrd_words(backend, name):
    n, edges, prefix, prune = BRANCHES[name]
    got = kernel.backends()[backend](n, edges, [prefix], prune_degree=prune)
    assert got["survivors"] == [w for w, _, rep in leaves(name)
                                if rep.is_wdrd]
    if not prune:
        assert got[kernel.NOT_STRONG_KEY] == sum(
            not rep.strongly_connected for *_, rep in leaves(name))


@pytest.mark.parametrize("name", BRANCHES)
def test_each_leaf_fails_at_its_first_violated_condition(backend, name):
    stage = kernel.leaf_stages()[backend]
    n = BRANCHES[name][0]
    expected = expected_stages(name)
    assert [stage(n, out_m, in_m) for out_m, in_m, _ in expected] == \
        [want for *_, want in expected]


@pytest.mark.parametrize("name", LEAVES)
def test_largest_leaves_agree_with_the_pure_kernel(compiled, name):
    n, out_m, in_m = LEAVES[name]
    assert kernel.leaf_stages()["compiled"](n, out_m, in_m) == \
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
    assert kernel.leaf_stages()[backend](24, masks, masks) == "tensor"


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


@functools.cache
def counting_pure_kernel():
    """A copy of `_kernel_py` with a counter added at the top of dfs() and
    one at the top of leaf_stage()."""
    source = Path(_kernel_py.__file__).read_text()
    heads = {"dfs": "    def dfs(depth, dmax, fmax):\n",
             "leaf_stage": "def leaf_stage(n, out_m, in_m):\n"}
    for name, head in heads.items():
        assert source.count(head) == 1, "the kernel changed; update this copy"
        body = " " * (head.index("def") + 4)
        source = source.replace(head, f"{head}{body}CALLS[{name!r}] += 1\n")
    module = types.ModuleType("wdrd._kernel_py_counting")
    module.__package__ = "wdrd"
    module.CALLS = dict.fromkeys(heads, 0)
    exec(compile(source, _kernel_py.__file__, "exec"), module.__dict__)
    return module


def pure_pruned_run(n, edges, prefix, prune):
    """(stats, calls of dfs, calls of leaf_stage) of a run of the pure
    kernel."""
    module = counting_pure_kernel()
    module.CALLS.update(dfs=0, leaf_stage=0)
    stats = module.search_run(n, edges, [prefix], prune_degree=prune)
    return stats, module.CALLS["dfs"], module.CALLS["leaf_stage"]


@pytest.fixture(scope="module")
def compiled_pruned_run(tmp_path_factory):
    """The compiled twin of `pure_pruned_run`: a build of `_kernel.c` with
    a counter added at the top of dfs() and one at the top of
    leaf_stage()."""
    source = kernel._SOURCE.read_text()
    heads = {"wdrd_nodes": "static void dfs(Ctx *c, int depth, int dmax, "
                           "int fmax)\n{\n",
             "wdrd_pipelines": "static int leaf_stage(Ctx *c)\n{\n"}
    for counter, head in heads.items():
        assert source.count(head) == 1, "kernel changed; update this fixture"
        source = source.replace(head, f"long {counter};\n\n{head}"
                                      f"    {counter}++;\n")
    build = tmp_path_factory.mktemp("counting")
    (build / "kernel.c").write_text(source)
    subprocess.run([*kernel._COMPILE, "-o", str(build / "kernel.so"),
                    str(build / "kernel.c")], check=True, capture_output=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_library_path", lambda: build / "kernel.so")
        lib = kernel._load()
    counters = [ctypes.c_long.in_dll(lib, counter) for counter in heads]

    def run(n, edges, prefix, prune):
        for counter in counters:
            counter.value = 0
        stats = kernel._run_compiled(lib, n, edges, [prefix],
                                     prune_degree=prune)
        return (stats, *(counter.value for counter in counters))

    return run


@pytest.fixture
def counted_run(request, backend):
    """`pure_pruned_run` or `compiled_pruned_run`, as `backend` says."""
    if backend == "pure":
        return pure_pruned_run
    return request.getfixturevalue("compiled_pruned_run")


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
    kept = kernel.backends()[backend](n, edges, [prefix], prune_degree=True)
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
    source = Path(_kernel_py.__file__).read_text()
    line = f"MEMO_BYTES = 1 << {_kernel_py.MEMO_BYTES.bit_length() - 1}\n"
    assert source.count(line) == 1, "the kernel changed; update this copy"
    module = types.ModuleType("wdrd._kernel_py_budget")
    module.__package__ = "wdrd"
    exec(compile(source.replace(line, f"MEMO_BYTES = {budget}\n"),
                 _kernel_py.__file__, "exec"), module.__dict__)
    return module.search_run


@pytest.fixture(scope="module")
def compiled_with_budget(compiled, tmp_path_factory):
    """search_run of builds of `_kernel.c` whose memo budgets are BUDGETS,
    by budget."""
    source = kernel._SOURCE.read_text()
    line = ("#define MEMO_BYTES "
            f"(1 << {_kernel_py.MEMO_BYTES.bit_length() - 1})\n")
    assert source.count(line) == 1, "kernel changed; update this fixture"
    build = tmp_path_factory.mktemp("budget")
    runs = {}
    for budget in BUDGETS:
        path = build / f"kernel{budget}.c"
        path.write_text(source.replace(line, f"#define MEMO_BYTES {budget}\n"))
        subprocess.run([*kernel._COMPILE, "-o", str(path.with_suffix(".so")),
                        str(path)], check=True, capture_output=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "_library_path",
                       lambda: path.with_suffix(".so"))
            runs[budget] = functools.partial(kernel._run_compiled,
                                             kernel._load())
    return runs


def check_budget_run(run, backend, name):
    n, edges, prefix, want = BUDGET[name]
    kept = kernel.backends()[backend](n, edges, [prefix], prune_degree=True)
    assert run(n, edges, [prefix]) == {**kept, kernel.NOT_STRONG_KEY: want}


# The pure kernel takes 15 s for all of K6 with a cut memo, so it runs the
# K6 branch 22 instead.
@pytest.mark.parametrize("name", ["J(4,2)", "K6 22"])
def test_a_cut_memo_keeps_the_pure_counters(name):
    check_budget_run(pure_kernel_with_budget(1024), "pure", name)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name", BUDGET)
def test_a_cut_memo_keeps_the_compiled_counters(compiled_with_budget, name,
                                                budget):
    check_budget_run(compiled_with_budget[budget], "compiled", name)


def test_a_cut_memo_keeps_a_multi_prefix_call_exact(compiled_with_budget):
    """The prefixes of one call share the memo, up to its budget: the
    reversal plan of J(4,2) at split length 2 counts the same with no
    memo, with 8 states and with the full budget."""
    prefixes = _branches(len(J42), 2, True)[0]
    want = _kernel_py.search_run(6, J42, prefixes)
    for budget in BUDGETS:
        assert compiled_with_budget[budget](6, J42, prefixes) == want, budget
    assert pure_kernel_with_budget(1024)(6, J42, prefixes) == want
