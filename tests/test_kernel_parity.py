"""The compiled kernel must agree with the pure-Python reference bit for bit."""

import functools
import itertools
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from oracles import not_strong_by_words
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

# The nine length-2 prefix branches of J(4,2), run at once on threads.
THREADED = [(6, search._underlying_edges(johnson(4, 2).graph), prefix)
            for prefix in itertools.product((0, 1, 2), repeat=2)]


def agreed(compiled, n, edges, prefixes=((),), prune=False):
    """The result of the pure kernel, which `compiled` must equal."""
    want = _kernel_py.search_run(n, edges, prefixes, prune_degree=prune)
    got = compiled.search_run(n, edges, prefixes, prune_degree=prune)
    assert got == want, (n, edges, prefixes, prune)
    return want


def check_threaded_runs(run, rounds=4, threads=4):
    """Run every THREADED branch `rounds` times on `threads` threads, with
    a short thread switch interval, and check each result, stats and
    survivor words, against a serial run."""
    serial = [run(n, edges, [prefix]) for n, edges, prefix in THREADED]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            got = list(pool.map(lambda case: run(case[0], case[1],
                                                 [case[2]]),
                                THREADED * rounds, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == serial * rounds


@pytest.mark.parametrize("n,edges", CASES)
@pytest.mark.parametrize("prune", [False, True])
@pytest.mark.parametrize("reversal", [False, True])
def test_full_runs_agree(compiled, n, edges, prune, reversal):
    """With `reversal`, on every branch of the reversal plan, which runs
    prefixes up to the full word length."""
    prefixes, _ = search._branches(len(edges), 0, reversal)
    for prefix in prefixes:
        agreed(compiled, n, edges, [prefix], prune)


@pytest.mark.parametrize("n,edges,prefix", BRANCHES)
@pytest.mark.parametrize("prune", [False, True])
def test_branches_agree(compiled, n, edges, prefix, prune):
    agreed(compiled, n, edges, [prefix], prune)


@pytest.mark.parametrize("n,edges", CASES[:4])
def test_prefix_branches_agree_and_partition(compiled, n, edges):
    k = min(2, len(edges))
    for prune in (False, True):
        total = {key: 0 for key in kernel.STAT_KEYS}
        survivors = []
        for prefix in itertools.product((0, 1, 2), repeat=k):
            a = agreed(compiled, n, edges, [prefix], prune)
            assert a["examined"] + a["skipped_degree"] == \
                3 ** (len(edges) - k)
            for key in kernel.STAT_KEYS:
                total[key] += a[key]
            survivors.extend(a["survivors"])
        full = _kernel_py.search_run(n, edges, prune_degree=prune)
        assert {key: full[key] for key in kernel.STAT_KEYS} == total
        assert survivors == full["survivors"]


K4 = search._underlying_edges(complete_graph(4))
# name -> (n, edges) of the multi-prefix calls
MULTI = {
    "K4": (4, K4),
    "C4": (4, [(0, 1), (0, 3), (1, 2), (2, 3)]),
    "P3": (3, [(0, 1), (1, 2)]),
    "K4 - e": (4, K4[1:]),
    "J(4,2)": (6, search._underlying_edges(johnson(4, 2).graph)),
}


@functools.cache
def not_strong(name, prefix):
    """N of `prefix` over the graph MULTI[name], word by word."""
    return not_strong_by_words(*MULTI[name], prefix)


def prefix_lists(ne):
    """Prefix lists of one kernel call over `ne` edges: the reversal plans
    at split lengths 0 to 2, whose prefixes differ in length, every prefix
    of length 2, and the two interleaved shares of that list, as
    `search` hands them to two workers."""
    plan = list(itertools.product((0, 1, 2), repeat=min(2, ne)))
    return ([search._branches(ne, k, True)[0] for k in range(3)]
            + [plan, plan[0::2], plan[1::2]])


@pytest.mark.parametrize("name", MULTI)
@pytest.mark.parametrize("prune", [False, True])
def test_one_call_over_prefixes_sums_the_single_prefix_calls(backend, name,
                                                             prune):
    """Counters and N add up, survivors come in prefix order, both
    kernels agree on the whole call, and an unpruned call is the pruned
    one plus N, the word-by-word count."""
    n, edges = MULTI[name]
    keys = kernel.STAT_KEYS + ((kernel.NOT_STRONG_KEY,) if not prune else ())
    for prefixes in prefix_lists(len(edges)):
        got = backend.search_run(n, edges, prefixes, prune_degree=prune)
        singles = [backend.search_run(n, edges, [p], prune_degree=prune)
                   for p in prefixes]
        assert {key: got[key] for key in keys} == \
            {key: sum(r[key] for r in singles) for key in keys}
        assert got["survivors"] == [w for r in singles
                                    for w in r["survivors"]]
        assert got == _kernel_py.search_run(n, edges, prefixes,
                                            prune_degree=prune)
        if not prune:
            assert got == {
                **backend.search_run(n, edges, prefixes, prune_degree=True),
                kernel.NOT_STRONG_KEY: sum(not_strong(name, tuple(p))
                                           for p in prefixes)}


def test_random_graphs_agree(compiled):
    rnd = random.Random(99)
    for _ in range(25):
        n = rnd.randint(2, 7)
        edges = edges_of(n, rnd, p=rnd.uniform(0.3, 0.9))
        if len(edges) > 9:
            edges = edges[:9]
        for prune in (False, True):
            agreed(compiled, n, edges, prune=prune)


def test_compiled_kernel_runs_concurrently_on_threads(compiled):
    """The C kernel keeps all state per call, so `wdrd.search` may run its
    branches on threads."""
    check_threaded_runs(compiled.search_run)


def test_selected_backend_exposed():
    assert kernel.BACKEND in ("pure", "compiled")
    assert kernel.backends()["pure"] is _kernel_py


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


@pytest.mark.parametrize("name", SEARCHES)
@pytest.mark.parametrize("reversal", [False, True])
@pytest.mark.parametrize("jobs", [1, 2])
def test_search_reports_agree(monkeypatch, backend, name, reversal, jobs):
    """The whole search, pool and merge included, reports the same on
    every kernel and worker count as the pure kernel in one process."""
    want = search_with(monkeypatch, _kernel_py.search_run, name, 1, reversal)
    got = search_with(monkeypatch, backend.search_run, name, jobs, reversal)
    assert got == {**want, "jobs": jobs}
