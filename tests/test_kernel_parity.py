"""The compiled kernel must agree with the pure-Python reference bit for bit."""

import itertools
import random

import pytest

from wdrd import _kernel_py
from wdrd import kernel, search
from wdrd.digraph import Digraph
from wdrd.generators import cayley_cyclic, complete_graph, johnson
from wdrd.search import report_to_dict, search_commutative_wdrd


def edges_of(n, rnd, p=0.5):
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rnd.random() < p]


CASES = [
    (2, [(0, 1)]),
    (3, [(0, 1), (0, 2), (1, 2)]),
    (4, [(0, 1), (0, 3), (1, 2), (2, 3)]),
    (3, [(0, 1), (1, 2)]),
    (1, []),
    (6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (0, 5)]),
    (64, [(0, 1), (0, 2), (1, 2)]),
    (4, search._underlying_edges(complete_graph(4))),
]

# Prefix branches on which the distance-layer and two-arc checks of the
# leaf pipeline fire (see test_kernel_leaves.py).
BRANCHES = [
    (6, search._underlying_edges(johnson(4, 2).graph), (0, 1, 2, 2)),
    (6, search._underlying_edges(complete_graph(6)),
     (0, 0, 1, 1, 2, 2, 0, 0, 1)),
]


@pytest.mark.parametrize("n,edges", CASES)
@pytest.mark.parametrize("prune", [False, True])
@pytest.mark.parametrize("reversal", [False, True])
def test_full_runs_agree(compiled, n, edges, prune, reversal):
    """With `reversal`, on every branch of the reversal plan, which runs
    prefixes up to the full word length."""
    prefixes, _ = search._branches(len(edges), 0, reversal)
    for prefix in prefixes:
        a = _kernel_py.search_run(n, edges, prefix=prefix, prune_degree=prune)
        b = compiled(n, edges, prefix=prefix, prune_degree=prune)
        assert a == b


@pytest.mark.parametrize("n,edges,prefix", BRANCHES)
@pytest.mark.parametrize("prune", [False, True])
def test_branches_agree(compiled, n, edges, prefix, prune):
    a = _kernel_py.search_run(n, edges, prefix=prefix, prune_degree=prune)
    b = compiled(n, edges, prefix=prefix, prune_degree=prune)
    assert a == b


@pytest.mark.parametrize("n,edges", CASES[:4])
def test_prefix_branches_agree_and_partition(compiled, n, edges):
    k = min(2, len(edges))
    for prune in (False, True):
        total = {key: 0 for key in kernel.STAT_KEYS}
        survivors = []
        for prefix in itertools.product((0, 1, 2), repeat=k):
            a = _kernel_py.search_run(n, edges, prefix=prefix,
                                      prune_degree=prune)
            b = compiled(n, edges, prefix=prefix, prune_degree=prune)
            assert a == b
            assert a["examined"] + a["skipped_degree"] == \
                3 ** (len(edges) - k)
            for key in kernel.STAT_KEYS:
                total[key] += a[key]
            survivors.extend(a["survivors"])
        full = _kernel_py.search_run(n, edges, prune_degree=prune)
        assert {key: full[key] for key in kernel.STAT_KEYS} == total
        assert survivors == full["survivors"]


def test_random_graphs_agree(compiled):
    rnd = random.Random(99)
    for _ in range(25):
        n = rnd.randint(2, 7)
        edges = edges_of(n, rnd, p=rnd.uniform(0.3, 0.9))
        if len(edges) > 9:
            edges = edges[:9]
        for prune in (False, True):
            a = _kernel_py.search_run(n, edges, prune_degree=prune)
            b = compiled(n, edges, prune_degree=prune)
            assert a == b


def test_selected_backend_exposed():
    assert kernel.BACKEND in ("pure", "compiled")
    names = kernel.backends()
    assert "pure" in names


# name -> (graph, prune) of the search-level parity runs
SEARCHES = {
    "K3": (complete_graph(3), "none"),
    "C4": (cayley_cyclic(4, {1, 3}), "none"),
    "P3": (Digraph.from_arcs(3, [(0, 1), (1, 0), (1, 2), (2, 1)]), "none"),
    "K5": (complete_graph(5), "degree"),
    "J(4,2)": (johnson(4, 2), "degree"),
    "Cay(Z6,{1,2,4,5})": (cayley_cyclic(6, {1, 2, 4, 5}), "degree"),
}


def search_with(monkeypatch, run, name, jobs, reversal):
    graph, prune = SEARCHES[name]
    monkeypatch.setattr(kernel, "search_run", run)
    return report_to_dict(search_commutative_wdrd(
        graph, graph_id=name, prune=prune, jobs=jobs, use_reversal=reversal))


@pytest.fixture(params=["pure", "compiled"])
def backend(request):
    """search_run of each kernel; the compiled one skips without cc."""
    if request.param == "pure":
        return _kernel_py.search_run
    return request.getfixturevalue("compiled")


@pytest.mark.parametrize("name", SEARCHES)
@pytest.mark.parametrize("reversal", [False, True])
@pytest.mark.parametrize("jobs", [1, 2])
def test_search_reports_agree(monkeypatch, backend, name, reversal, jobs):
    """The whole search, pool and merge included, reports the same on
    every kernel and worker count as the pure kernel in one process."""
    want = search_with(monkeypatch, _kernel_py.search_run, name, 1, reversal)
    got = search_with(monkeypatch, backend, name, jobs, reversal)
    assert got == {**want, "jobs": jobs}
