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

The unpruned search counts the leaves of a doomed child in bulk, without
visiting it, once strong connectivity is settled; at a leaf it always is,
so a doomed leaf is never visited either.  On a few unpruned branches, the
counters and the number of search nodes of both kernels must be those of
`oracles.full_sweep_by_words`, which applies that rule word by word, and
the full leaf pipeline must run only on the non-symmetric leaves that the
degree prune keeps."""

import ctypes
import functools
import itertools
import subprocess
import types
from pathlib import Path

import numpy as np
import pytest

from oracles import (degree_prune_by_words, full_sweep_by_words,
                     leaf_stage_by_matrices, rows_to_masks_by_bits)
from wdrd import _kernel_py, kernel
from wdrd.analysis import wdrd_report
from wdrd.generators import complete_graph, johnson
from wdrd.search import _underlying_edges, word_to_digraph

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

# name -> (n, edges, prefix) of the unpruned branches checked against the
# bulk rule; K4 minus an edge is irregular, so every node with a non-digon
# edge is doomed
FULL = {
    "K4 minus an edge": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], ()),
    "K4": (4, K4, ()),
    "C4": PRUNED["C4"],
    "P3": PRUNED["P3"],
    "3-prism": PRUNED["3-prism"],
    "two triangles": (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
                      ()),
    "J(4,2)": (6, J42, ()),
    "J(4,2) 01": (6, J42, (0, 1)),
    "J(4,2) 0122": (6, J42, (0, 1, 2, 2)),
    # settled inside the prefix: at depth 3 of 4 vertex 0 has only out-arcs
    # and no edge left (not_strongly_connected) ...
    "K4 0000": (4, K4, (0, 0, 0, 0)),
    # ... and strongly connected arcs at depth 4 of 5 (axiom)
    "K4 02200": (4, K4, (0, 2, 2, 0, 0)),
}

# name -> (n, out-masks, in-masks) of single leaves; on the directed
# 64-cycle every pair is its own class, so nc = n = 64 and the intersection
# tensor fills all 64^3 entries of the kernels' scratch
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
    got = kernel.backends()[backend](n, edges, prefix=prefix,
                                     prune_degree=prune)
    assert got["survivors"] == [w for w, _, rep in leaves(name)
                                if rep.is_wdrd]
    if not prune:
        assert got["not_strongly_connected"] == sum(
            rep.non_symmetric and not rep.strongly_connected
            for *_, rep in leaves(name))


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
    heads = {"dfs": "    def dfs(depth, nondigon, dmax, fmax):\n",
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
    stats = module.search_run(n, edges, prefix, prune_degree=prune)
    return stats, module.CALLS["dfs"], module.CALLS["leaf_stage"]


@pytest.fixture(scope="module")
def compiled_pruned_run(tmp_path_factory):
    """The compiled twin of `pure_pruned_run`: a build of `_kernel.c` with
    a counter added at the top of dfs() and one at the top of
    leaf_stage()."""
    source = kernel._SOURCE.read_text()
    heads = {"wdrd_nodes": "static void dfs(Ctx *c, int depth, int nondigon, "
                           "int dmax, int fmax)\n{\n",
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
        stats = kernel._run_compiled(lib, n, edges, prefix, prune_degree=prune)
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
def full_sweep(name):
    """The counts of the unpruned branch `name` under the bulk rule."""
    return full_sweep_by_words(*FULL[name])


@pytest.mark.parametrize("name", FULL)
def test_full_sweep_counts_in_bulk_where_the_rule_settles(backend,
                                                         counted_run, name):
    n, edges, prefix = FULL[name]
    got, nodes, pipelines = counted_run(n, edges, prefix, False)
    assert (*(got[key] for key in ("examined", "symmetric",
                                   "not_strongly_connected", "axiom")),
            nodes) == full_sweep(name)
    kept = kernel.backends()[backend](n, edges, prefix, prune_degree=True)
    assert pipelines == kept["examined"] - kept["symmetric"]
    if name == "J(4,2)":
        assert nodes <= 70_000 and pipelines < 100
