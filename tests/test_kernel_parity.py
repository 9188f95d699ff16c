"""The compiled kernel must agree with the pure-Python reference bit for bit."""

import itertools
import random
import sys
from concurrent.futures import ThreadPoolExecutor

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

# The nine length-2 prefix branches of J(4,2), run at once on threads.
THREADED = [(6, search._underlying_edges(johnson(4, 2).graph), prefix)
            for prefix in itertools.product((0, 1, 2), repeat=2)]


def agreed(compiled, n, edges, prefixes=((),), budget=0):
    """The result of the pure kernel, which `compiled` must equal."""
    want = _kernel_py.search_run(n, edges, prefixes, budget)
    got = compiled.search_run(n, edges, prefixes, budget)
    assert got == want, (n, edges, prefixes, budget)
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
@pytest.mark.parametrize("shares", [False, True])
@pytest.mark.parametrize("reversal", [False, True])
def test_full_runs_agree(compiled, n, edges, shares, reversal):
    """With `reversal`, on every branch of the reversal plan, which runs
    prefixes up to the full word length; with `shares`, on the two shares
    of the plan of two workers, one call each, as `search` runs them."""
    ne = len(edges)
    plan, _ = search._branches(
        ne, search._split_length(2 if shares else 1, ne), reversal)
    calls = [plan[0::2], plan[1::2]] if shares else [[p] for p in plan]
    for prefixes in calls:
        if prefixes:
            agreed(compiled, n, edges, prefixes)


@pytest.mark.parametrize("n,edges,prefix", BRANCHES)
@pytest.mark.parametrize("refined", [False, True])
def test_branches_agree(compiled, n, edges, prefix, refined):
    """With `refined`, as the branch's three children in one call."""
    prefixes = [prefix + (s,) for s in (0, 1, 2)] if refined else [prefix]
    agreed(compiled, n, edges, prefixes)


@pytest.mark.parametrize("n,edges", CASES[:4])
def test_prefix_branches_agree_and_partition(compiled, n, edges):
    k = min(2, len(edges))
    total = {key: 0 for key in kernel.STAT_KEYS}
    survivors = []
    for prefix in itertools.product((0, 1, 2), repeat=k):
        a = agreed(compiled, n, edges, [prefix])
        assert a["examined"] + a["skipped_degree"] == 3 ** (len(edges) - k)
        for key in kernel.STAT_KEYS:
            total[key] += a[key]
        survivors.extend(a["survivors"])
    full = _kernel_py.search_run(n, edges)
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


def prefix_lists(ne):
    """Prefix lists of one kernel call over `ne` edges: the reversal plans
    at split lengths 0 to 2, whose prefixes differ in length, every prefix
    of length 2, and the two interleaved shares of that list, as
    `search` hands them to two workers."""
    plan = list(itertools.product((0, 1, 2), repeat=min(2, ne)))
    return ([search._branches(ne, k, True)[0] for k in range(3)]
            + [plan, plan[0::2], plan[1::2]])


@pytest.mark.parametrize("name", MULTI)
@pytest.mark.parametrize("backwards", [False, True])
def test_one_call_over_prefixes_sums_the_single_prefix_calls(backend, name,
                                                             backwards):
    """Counters add up, survivors come in the order of the prefixes, also
    with each list run `backwards`, and both kernels agree on the whole
    call."""
    n, edges = MULTI[name]
    for prefixes in prefix_lists(len(edges)):
        if backwards:
            prefixes = prefixes[::-1]
        got = backend.search_run(n, edges, prefixes)
        singles = [backend.search_run(n, edges, [p]) for p in prefixes]
        assert {key: got[key] for key in kernel.STAT_KEYS} == \
            {key: sum(r[key] for r in singles) for key in kernel.STAT_KEYS}
        assert got["survivors"] == [w for r in singles
                                    for w in r["survivors"]]
        assert got == _kernel_py.search_run(n, edges, prefixes)


# Leaf budgets: none, one leaf, one that stops within the plans of J(4,2),
# and one above the 3^12 leaves of any MULTI graph.
BUDGETS = [0, 1, 20, 3 ** 12 + 1]


@pytest.mark.parametrize("name", MULTI)
@pytest.mark.parametrize("budget", BUDGETS)
def test_a_budgeted_call_is_the_call_over_its_finished_prefixes(
        backend, name, budget):
    """Both kernels finish the same prefixes, and those are the fewest
    from the first whose examined leaves reach the budget; the call then
    counts and emits what a budget-free call over them does."""
    n, edges = MULTI[name]
    stops = 0
    for prefixes in prefix_lists(len(edges)):
        got = backend.search_run(n, edges, prefixes, budget)
        assert got == _kernel_py.search_run(n, edges, prefixes, budget)
        done = got["finished"]
        assert got == _kernel_py.search_run(n, edges, prefixes[:done])
        if done < len(prefixes):
            stops += 1
            assert budget and got["examined"] >= budget
        if done > 1:
            before = _kernel_py.search_run(n, edges, prefixes[:done - 1])
            assert not budget or before["examined"] < budget
    if name == "J(4,2)" and budget in (1, 20):
        assert stops > 0


@pytest.mark.parametrize("budget", [-1, 0.5, "20", None, True, 2 ** 63])
def test_a_bad_budget_is_rejected(backend, budget):
    with pytest.raises(ValueError, match="budget"):
        kernel.check_arguments(2, [(0, 1)], [()], budget)
    with pytest.raises(ValueError, match="budget"):
        backend.search_run(2, [(0, 1)], [()], budget)


def test_random_graphs_agree(compiled):
    rnd = random.Random(99)
    for _ in range(25):
        n = rnd.randint(2, 7)
        edges = edges_of(n, rnd, p=rnd.uniform(0.3, 0.9))
        if len(edges) > 9:
            edges = edges[:9]
        agreed(compiled, n, edges)


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
