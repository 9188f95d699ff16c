import dataclasses
import functools
import itertools
import json
import multiprocessing
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from wdrd import (
    Digraph,
    are_isomorphic,
    canonical_form,
    cayley_cyclic,
    complete_graph,
    enumerate_orientations,
    johnson,
    search_commutative_wdrd,
    wdrd_report,
)
from wdrd import canon, kernel, search
from wdrd.search import report_to_dict, word_to_digraph
from wdrd.errors import (
    AccountingError,
    BadJobsError,
    NotSymmetricError,
    ReverificationError,
    TooLargeError,
    TooManyEdgesError,
)
from conftest import pure_variant
from oracles import (full_sweep_by_words, not_strong_by_words,
                     search_by_brute_force)


def fake_result(edges, prefixes, survivors):
    """A balanced kernel result: every leaf of `prefixes` examined, and
    each but `survivors` rejected by an axiom."""
    stats = dict.fromkeys(kernel.STAT_KEYS, 0)
    stats["examined"] = sum(3 ** (len(edges) - len(p)) for p in prefixes)
    stats["axiom"] = stats["examined"] - len(survivors)
    return {**stats, "survivors": survivors}


def fake_sweep_with_digon_survivor(n, edges, prefixes=((),)):
    """A balanced kernel result whose one survivor, the all-digon word,
    is symmetric and so not weakly distance-regular."""
    return fake_result(edges, prefixes, [bytes([2] * len(edges))])


def fake_sweep_with_triangle_survivor(n, edges, prefixes=((),)):
    """A balanced K3 kernel call whose one survivor, if one of its
    prefixes holds it, is the directed triangle 0 -> 1 -> 2 -> 0."""
    word = bytes([0, 1, 0])
    survivors = [word] if any(word.startswith(bytes(p))
                              for p in prefixes) else []
    return fake_result(edges, prefixes, survivors)


def c4():
    return cayley_cyclic(4, {1, 3})


class TestEnumerate:
    def test_counts(self):
        assert sum(1 for _ in enumerate_orientations(complete_graph(2))) == 3
        assert sum(1 for _ in enumerate_orientations(complete_graph(3))) == 27

    def test_order_is_lexicographic_with_last_edge_fastest(self):
        cands = list(enumerate_orientations(complete_graph(2)))
        # single edge (0,1): Forward, Backward, Digon
        assert [sorted(c.arcs()) for c in cands] == [
            [(0, 1)], [(1, 0)], [(0, 1), (1, 0)]]
        first, second = itertools.islice(enumerate_orientations(complete_graph(3)), 2)
        assert sorted(first.arcs()) == [(0, 1), (0, 2), (1, 2)]
        assert sorted(second.arcs()) == [(0, 1), (0, 2), (2, 1)]

    def test_underlying_graph_preserved(self):
        g = c4()
        for cand in enumerate_orientations(g):
            assert cand.underlying_graph() == g

    def test_edge_cap(self):
        with pytest.raises(TooManyEdgesError):
            list(enumerate_orientations(johnson(4, 2), max_edges=5))

    def test_needs_symmetric_input(self):
        with pytest.raises(NotSymmetricError):
            list(enumerate_orientations(cayley_cyclic(6, {1, 2})))


class TestToySearches:
    def test_k2_empty(self):
        rep = search_commutative_wdrd(complete_graph(2))
        assert rep.total_candidates == 3 and rep.examined == 3
        assert not rep.iso_classes

    def test_k3_directed_triangle(self):
        rep = search_commutative_wdrd(complete_graph(3))
        assert len(rep.iso_classes) == 1
        tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert are_isomorphic(rep.iso_classes[0].digraph, tri)
        assert rep.wdrd_count == 2  # both chiralities, one class

    def test_c4_directed_cycle(self):
        rep = search_commutative_wdrd(c4())
        assert len(rep.iso_classes) == 1
        cyc = cayley_cyclic(4, {1})
        assert are_isomorphic(rep.iso_classes[0].digraph, cyc)

    @pytest.mark.parametrize("graph,gid", [
        (complete_graph(2), "K2"), (complete_graph(3), "K3"),
        (cayley_cyclic(4, {1, 3}), "C4"),
    ])
    def test_matches_brute_force_oracle(self, graph, gid):
        labelled, forms = search_by_brute_force(
            graph, enumerate_orientations, wdrd_report, canonical_form)
        for reversal in (False, True):
            rep = search_commutative_wdrd(graph, graph_id=gid,
                                          use_reversal=reversal)
            assert rep.wdrd_count == labelled
            assert {c.canonical: c.labelled_count
                    for c in rep.iso_classes} == forms

    @pytest.mark.parametrize("graph,gid", [
        (complete_graph(2), "K2"), (complete_graph(3), "K3"),
        (cayley_cyclic(4, {1, 3}), "C4"),
    ])
    def test_pruned_equals_unpruned(self, graph, gid):
        a = search_commutative_wdrd(graph, graph_id=gid, prune="none")
        b = search_commutative_wdrd(graph, graph_id=gid, prune="degree")
        assert a.core() == b.core()
        # exact leaf accounting in both modes
        for rep in (a, b):
            skipped = rep.prune_stats["skipped_degree"] + \
                rep.prune_stats["skipped_reversal"]
            assert rep.examined + skipped == rep.total_candidates

    def test_irregular_graph_has_no_wdrd(self):
        path = Digraph.from_arcs(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        a = search_commutative_wdrd(path, graph_id="P3")
        b = search_commutative_wdrd(path, graph_id="P3", prune="degree")
        assert not a.iso_classes and a.core() == b.core()
        assert b.examined == 0  # irregular: every leaf degree-pruned
        c = search_commutative_wdrd(path, graph_id="P3", prune="degree",
                                    use_reversal=True)
        # the reversal split drops B?, DB and keeps F?, DF, DD
        assert c.core() == b.core() and c.examined == 0
        assert (c.prune_stats["skipped_degree"],
                c.prune_stats["skipped_reversal"]) == (5, 4)


class TestReversal:
    """`use_reversal` sweeps one word of every reversal pair."""

    @staticmethod
    def words(prefixes, ne):
        for p in prefixes:
            for tail in itertools.product((0, 1, 2), repeat=ne - len(p)):
                yield tuple(p) + tail

    @pytest.mark.parametrize("ne,k", [(ne, k) for ne in range(5)
                                      for k in range(min(ne, 2) + 1)])
    def test_split_keeps_one_word_of_each_pair(self, ne, k):
        kept, skipped = search._branches(ne, k, True)
        words = list(self.words(kept, ne))
        assert len(words) + skipped == 3 ** ne
        flip = {0: 1, 1: 0, 2: 2}
        reversed_words = {tuple(flip[s] for s in w) for w in words}
        assert set(words) & reversed_words == {(2,) * ne}
        assert set(words) | reversed_words == \
            set(itertools.product((0, 1, 2), repeat=ne))
        # the kept words come in the order of the unsplit search
        assert words == sorted(words)

    @pytest.mark.parametrize("ne,k", [(ne, k) for ne in range(6)
                                      for k in range(ne + 1)])
    def test_without_reversal_the_plan_is_every_prefix(self, ne, k):
        assert search._branches(ne, k, False) == \
            (list(itertools.product((0, 1, 2), repeat=k)), 0)

    @pytest.mark.parametrize("graph,prune", [
        (complete_graph(3), "none"), (c4(), "none"), (johnson(4, 2), "degree"),
    ])
    def test_core_equals_the_run_without_reversal(self, graph, prune):
        base = search_commutative_wdrd(graph, prune=prune)
        rev = search_commutative_wdrd(graph, prune=prune, use_reversal=True)
        assert rev.core() == base.core()
        assert rev.examined + rev.prune_stats["skipped_degree"] + \
            rev.prune_stats["skipped_reversal"] == rev.total_candidates

    def test_jobs_identical(self):
        solo = search_commutative_wdrd(c4(), use_reversal=True)
        multi = search_commutative_wdrd(c4(), use_reversal=True, jobs=2)
        da, db = report_to_dict(solo), report_to_dict(multi)
        assert da.pop("jobs") == 1 and db.pop("jobs") == 2
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    @staticmethod
    def record_calls(monkeypatch):
        """(thread, prefixes) of every kernel call, each share run on a
        thread so that the calls are seen here."""
        calls = []
        real = kernel.search_run

        def recording(n, edges, prefixes, *budget):
            calls.append((threading.get_ident(), [tuple(p) for p in prefixes]))
            return real(n, edges, prefixes, *budget)

        monkeypatch.setattr(kernel, "search_run", recording)
        monkeypatch.setattr(search, "ProcessPoolExecutor", ThreadPoolExecutor)
        monkeypatch.setattr(search.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        return calls

    def test_kernel_calls(self, monkeypatch):
        calls = self.record_calls(monkeypatch)
        me = threading.get_ident()
        search_commutative_wdrd(complete_graph(3))
        assert calls == [(me, [()])]
        calls.clear()
        search_commutative_wdrd(complete_graph(3), use_reversal=True)
        assert calls == [(me, [(0,), (2, 0), (2, 2, 0), (2, 2, 2)])]

    @pytest.mark.parametrize("reversal", [False, True])
    def test_one_kernel_call_per_share(self, monkeypatch, reversal):
        """With no leaf budget on the calling thread, under jobs=2 each of
        two calls gets every other branch of the plan, and the calling
        thread runs the first."""
        monkeypatch.setattr(search, "FANOUT_LEAVES", 0)
        calls = self.record_calls(monkeypatch)
        g = johnson(4, 2)
        search_commutative_wdrd(g, jobs=2, use_reversal=reversal)
        plan, _ = search._branches(12, search._split_length(2, 12), reversal)
        assert len(calls) == 2
        calls.sort(key=lambda call: call[1] != plan[0::2])
        assert [prefixes for _, prefixes in calls] == [plan[0::2], plan[1::2]]
        assert calls[0][0] == threading.get_ident() != calls[1][0]

    @pytest.mark.parametrize("graph", [johnson(4, 2), c4()],
                             ids=["J(4,2)", "C4"])
    @pytest.mark.parametrize("reversal", [False, True])
    def test_a_small_sweep_starts_no_pool(self, monkeypatch, graph,
                                          reversal):
        """Under jobs=2 the whole plan of a sweep of fewer leaves than
        FANOUT_LEAVES is one kernel call on the calling thread."""

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a pool was started")

        calls = self.record_calls(monkeypatch)
        monkeypatch.setattr(search, "ThreadPoolExecutor", NoPool)
        monkeypatch.setattr(search, "ProcessPoolExecutor", NoPool)
        rep = search_commutative_wdrd(graph, jobs=2, use_reversal=reversal)
        ne = rep.edge_count
        plan, _ = search._branches(ne, search._split_length(2, ne), reversal)
        assert calls == [(threading.get_ident(), plan)]
        assert rep.core() == search_commutative_wdrd(graph).core()


class TestDeterminismAndParallel:
    def test_repeat_runs_byte_identical(self):
        a = search_commutative_wdrd(complete_graph(3))
        b = search_commutative_wdrd(complete_graph(3))
        assert json.dumps(report_to_dict(a), sort_keys=True) == \
            json.dumps(report_to_dict(b), sort_keys=True)

    @pytest.mark.parametrize("prune", ["none", "degree"])
    def test_jobs_identical(self, prune):
        g = c4()
        solo = search_commutative_wdrd(g, graph_id="C4", prune=prune)
        multi = search_commutative_wdrd(g, graph_id="C4", prune=prune, jobs=2)
        da, db = report_to_dict(solo), report_to_dict(multi)
        da.pop("jobs")
        db.pop("jobs")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    def test_jobs_below_one_rejected(self):
        with pytest.raises(BadJobsError):
            search_commutative_wdrd(c4(), jobs=0)

    def test_pool_bounded_by_usable_cpus(self, monkeypatch):
        """With no leaf budget on the calling thread, three usable CPUs
        make three shares: the calling thread runs one and a pool of two
        workers the other two."""
        monkeypatch.setattr(search, "FANOUT_LEAVES", 0)
        pools = []

        class SerialPool:
            """Records the pool size and runs the shares in-process."""

            def __init__(self, max_workers):
                self.max_workers = max_workers
                self.shares = 0
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work):
                work = list(work)
                self.shares = len(work)
                return map(fn, work)

        # the executor the selected kernel runs its shares on
        executor = ("ThreadPoolExecutor" if kernel.BACKEND == "compiled"
                    else "ProcessPoolExecutor")
        monkeypatch.setattr(search, executor, SerialPool)
        monkeypatch.setattr(search.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        rep = search_commutative_wdrd(c4(), jobs=10**6)
        assert [(p.max_workers, p.shares) for p in pools] == [(2, 2)]
        assert rep.jobs == 10**6
        assert rep.core() == search_commutative_wdrd(c4()).core()

    @pytest.mark.parametrize("prune", ["none", "degree"])
    @pytest.mark.parametrize("reversal", [False, True])
    def test_jobs_identical_when_the_budget_stops_mid_plan(
            self, monkeypatch, prune, reversal):
        """The calling thread's budgeted call finishes some of the J(4,2)
        branches and the pool runs the rest; the JSON is that of --jobs 1
        apart from `jobs`."""
        monkeypatch.setattr(search, "FANOUT_LEAVES", MID_PLAN_LEAVES)
        finished = record_finished(monkeypatch)
        g = johnson(4, 2)
        solo = report_to_dict(search_commutative_wdrd(
            g, graph_id="J(4,2)", prune=prune, use_reversal=reversal))
        multi = report_to_dict(search_commutative_wdrd(
            g, graph_id="J(4,2)", prune=prune, jobs=2,
            use_reversal=reversal))
        (done, planned), = finished
        assert 0 < done < planned
        assert solo.pop("jobs") == 1 and multi.pop("jobs") == 2
        assert json.dumps(multi, sort_keys=True) == \
            json.dumps(solo, sort_keys=True)

    def test_compiled_kernel_branches_start_no_process(self, compiled,
                                                      monkeypatch):
        class NoProcesses:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a process pool was started")

        assert kernel.BACKEND == "compiled"
        monkeypatch.setattr(search, "ProcessPoolExecutor", NoProcesses)
        monkeypatch.setattr(search.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        g = johnson(4, 2)
        rep = search_commutative_wdrd(g, jobs=2)
        assert multiprocessing.active_children() == []
        assert rep.core() == search_commutative_wdrd(g).core()

    def test_reversal_exploit_same_classes(self):
        g = complete_graph(3)
        base = search_commutative_wdrd(g)
        rev = search_commutative_wdrd(g, use_reversal=True)
        assert [c.canonical for c in base.iso_classes] == \
            [c.canonical for c in rev.iso_classes]
        assert rev.examined < base.examined


# A leaf budget that stops the budgeted call within the J(4,2) plan, with
# and without reversal: its 81 branches examine 87 leaves in all.
MID_PLAN_LEAVES = 20


def record_finished(monkeypatch, lie=0):
    """Under two usable CPUs, a list that collects (finished, planned) of
    every budgeted kernel call, whose finished count is reported `lie`
    higher than it is."""
    finished = []
    real = kernel.search_run

    def recording(n, edges, prefixes, budget=0):
        r = real(n, edges, prefixes, budget)
        if budget:
            finished.append((r["finished"], len(prefixes)))
            r["finished"] += lie
        return r

    monkeypatch.setattr(kernel, "search_run", recording)
    monkeypatch.setattr(search, "ProcessPoolExecutor", ThreadPoolExecutor)
    monkeypatch.setattr(search.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    return finished


class TestSoundness:
    def test_unbalanced_leaf_accounting_raises(self, monkeypatch):
        real = kernel.search_run

        def unbalanced(n, edges, prefixes):
            stats = real(n, edges, prefixes)
            stats["examined"] -= 1
            return stats

        monkeypatch.setattr(kernel, "search_run", unbalanced)
        with pytest.raises(AccountingError):
            search_commutative_wdrd(complete_graph(3))

    @pytest.mark.parametrize("prune", ["none", "degree"])
    def test_a_cut_that_counts_one_leaf_too_few_raises(self, monkeypatch,
                                                       prune):
        """A copy of the pure kernel whose cut() adds one leaf less than
        it skips.  The unpruned counters are derived from the graph, so
        only the check of the kernel's own counters can see it."""
        line = '        stats["skipped_degree"] += leaves\n'
        variant = pure_variant((line, line[:-1] + " - 1\n"))
        monkeypatch.setattr(kernel, "search_run", variant.search_run)
        with pytest.raises(AccountingError, match="expected 3\\^6"):
            search_commutative_wdrd(complete_graph(4), prune=prune)

    @pytest.mark.parametrize("lie,error", [
        (-1, "expected 3\\^12"), (1, "expected 3\\^12"),
        (-100, "finished branches"), (100, "finished branches")],
        ids=["one branch twice", "one branch dropped", "below zero",
             "past the plan"])
    def test_a_wrong_finished_count_raises(self, monkeypatch, lie, error):
        """A budgeted call that reports one branch too few has the pool
        run it again, and one too many has no call run it: the leaf
        accounting catches both.  A count outside the plan is refused
        before any pool starts."""
        monkeypatch.setattr(search, "FANOUT_LEAVES", MID_PLAN_LEAVES)
        finished = record_finished(monkeypatch, lie)
        with pytest.raises(AccountingError, match=error):
            search_commutative_wdrd(johnson(4, 2), jobs=2)
        (done, planned), = finished
        assert 0 < done < planned

    def test_more_not_strong_completions_than_leaves_raise(self,
                                                           monkeypatch):
        monkeypatch.setattr(search, "_not_strong_words",
                            lambda n, edges: 3 ** len(edges) + 1)
        with pytest.raises(AccountingError, match="below zero"):
            search_commutative_wdrd(complete_graph(3))

    def test_an_odd_not_strong_count_under_reversal_raises(self,
                                                          monkeypatch):
        """K3 is connected and has 12 words that are not strongly
        connected, which reversal pairs; a 13th cannot be paired.  Without
        reversal the count is only one higher."""
        real = search._not_strong_words
        monkeypatch.setattr(search, "_not_strong_words",
                            lambda n, edges: real(n, edges) + 1)
        search_commutative_wdrd(complete_graph(3))
        with pytest.raises(AccountingError, match="odd"):
            search_commutative_wdrd(complete_graph(3), use_reversal=True)

    def test_canon_cap_checked_before_the_sweep(self, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(kernel, "search_run", sweep)
        with pytest.raises(TooLargeError, match="capped at 16"):
            search_commutative_wdrd(cayley_cyclic(17, {1, 16}),
                                    prune="degree", max_edges=17)

    def test_failed_reverification_is_typed(self, monkeypatch):
        monkeypatch.setattr(kernel, "search_run", fake_sweep_with_digon_survivor)
        with pytest.raises(ReverificationError):
            search_commutative_wdrd(complete_graph(3))

    @pytest.mark.parametrize("reversal,count", [(False, 1), (True, 2)])
    def test_noncommutative_survivor_is_filed_apart(self, monkeypatch,
                                                    reversal, count):
        real = search.wdrd_report

        def noncommutative_report(d):
            return dataclasses.replace(real(d), commutative=False)

        monkeypatch.setattr(kernel, "search_run",
                            fake_sweep_with_triangle_survivor)
        monkeypatch.setattr(search, "wdrd_report", noncommutative_report)
        rep = search_commutative_wdrd(complete_graph(3), use_reversal=reversal)
        assert rep.iso_classes == () and rep.wdrd_count == 0
        (cls,) = rep.noncommutative_classes
        assert not cls.commutative and cls.labelled_count == count
        assert rep.noncommutative_count == count

    @pytest.mark.parametrize("reversal", [False, True])
    def test_one_canonical_search_per_survivor(self, monkeypatch, reversal):
        calls = []
        real = canon.canonical_permutation

        def counting(d, *args, **kwargs):
            calls.append(d)
            return real(d, *args, **kwargs)

        monkeypatch.setattr(canon, "canonical_permutation", counting)
        rep = search_commutative_wdrd(complete_graph(3), use_reversal=reversal)
        assert rep.wdrd_count == 2 and len(calls) == 2

    @pytest.mark.parametrize("bad_first", [False, True],
                             ids=["wdrd-then-bad", "bad-then-wdrd"])
    def test_a_bad_survivor_beside_a_good_one_raises(self, monkeypatch,
                                                     bad_first):
        """Only the first survivor of each class is re-verified, and a
        survivor that is not a WDRD never shares a form with one that
        is, so it opens its own class and raises in either order."""
        words = [bytes([0, 1, 0]), bytes([2, 2, 2])]  # triangle, all-digon
        if bad_first:
            words.reverse()

        def sweep(n, edges, prefixes=((),)):
            return fake_result(edges, prefixes, words)

        monkeypatch.setattr(kernel, "search_run", sweep)
        with pytest.raises(ReverificationError):
            search_commutative_wdrd(complete_graph(3))

    @pytest.mark.parametrize("graph,kwargs,labelled,classes", [
        (johnson(4, 2), {}, 10, 2),
        (johnson(4, 2), {"use_reversal": True}, 10, 2),
        (complete_graph(7), {"prune": "degree", "max_edges": 21}, 240, 1),
    ], ids=["J(4,2)", "J(4,2)-reversal", "K7"])
    def test_one_reverification_per_class(self, monkeypatch, graph, kwargs,
                                          labelled, classes):
        calls = []
        real = search.wdrd_report

        def counting(d):
            calls.append(d)
            return real(d)

        monkeypatch.setattr(search, "wdrd_report", counting)
        rep = search_commutative_wdrd(graph, **kwargs)
        assert rep.wdrd_count == labelled
        assert len(rep.iso_classes) == len(calls) == classes

    def test_survivors_reverify(self):
        rep = search_commutative_wdrd(complete_graph(3))
        for cls in rep.iso_classes:
            check = wdrd_report(cls.digraph)
            assert check.is_wdrd and check.commutative
            assert cls.type_set == tuple(sorted(check.type_set))

    def test_word_to_digraph_round_trip(self):
        edges = [(0, 1), (0, 2), (1, 2)]
        d = word_to_digraph(3, edges, bytes([0, 1, 2]))
        assert sorted(d.arcs()) == [(0, 1), (1, 2), (2, 0), (2, 1)]

    @pytest.mark.parametrize("word", [b"\x00", b"\x00\x01\x02", b"\x07\x05",
                                      b"\x00\x03"],
                             ids=["short", "long", "state 7", "state 3"])
    def test_word_to_digraph_rejects_bad_words(self, word):
        with pytest.raises(ValueError, match="one state 0, 1 or 2"):
            word_to_digraph(3, [(0, 1), (1, 2)], word)

    def test_johnson42_pruned_smoke(self):
        """Small but real: the degree-pruned octahedron search already
        produces the two classified digraphs."""
        rep = search_commutative_wdrd(johnson(4, 2), graph_id="J(4,2)",
                                      prune="degree")
        assert len(rep.iso_classes) == 2
        assert {c.type_set for c in rep.iso_classes} == {(3,), (3, 4)}


def graph_of(n, edges):
    """The graph on vertices 0..n-1 with `edges`, as a symmetric digraph."""
    return Digraph.from_arcs(n, [*edges, *((v, u) for u, v in edges)])


# name -> graph of the unpruned searches whose counters are checked word by
# word: K4 minus an edge and P3 are irregular, the two triangles
# disconnected, and K1 and two isolated vertices have one empty word each
UNPRUNED = {
    "K4": complete_graph(4),
    "C4": c4(),
    "P3": graph_of(3, [(0, 1), (1, 2)]),
    "K4 minus an edge": graph_of(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "two triangles": graph_of(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                  (3, 5)]),
    "K1": graph_of(1, []),
    "two isolated vertices": graph_of(2, []),
}


@functools.cache
def full_sweep(name, prefix):
    """The counts of branch `prefix` of UNPRUNED[name], word by word."""
    g = UNPRUNED[name]
    return full_sweep_by_words(g.n, search._underlying_edges(g), prefix)


@pytest.mark.parametrize("name", UNPRUNED)
@pytest.mark.parametrize("reversal", [False, True])
@pytest.mark.parametrize("jobs", [1, 2])
def test_unpruned_counters_are_the_word_by_word_counts(name, reversal, jobs):
    """The counters that `search` derives for an unpruned run are the sums
    of the word-by-word counts over the branches it plans."""
    rep = search_commutative_wdrd(UNPRUNED[name], jobs=jobs,
                                  use_reversal=reversal)
    ne = rep.edge_count
    workers = min(jobs, search._usable_cpus())
    plan, skipped = search._branches(ne, search._split_length(workers, ne),
                                     reversal)
    sums = tuple(map(sum, zip(*(full_sweep(name, p) for p in plan))))
    assert (rep.examined, *(rep.prune_stats[key] for key in (
        "symmetric", "not_strongly_connected", "axiom"))) == sums
    assert rep.prune_stats["skipped_degree"] == 0
    assert rep.prune_stats["skipped_reversal"] == skipped


def random_edges(seed, n):
    """A seeded graph on n vertices with at most 9 edges."""
    rnd = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    return sorted(rnd.sample(pairs, rnd.randint(0, min(9, len(pairs)))))


# (n, edges) of the graphs whose not strongly connected words are counted
# word by word: the one-vertex graph, edgeless and disconnected graphs,
# and seeded random graphs, some of them disconnected too
NOT_STRONG_CASES = [(1, []), (4, []), (5, [(0, 1), (2, 3), (3, 4)]),
                    *((n, random_edges(seed, n)) for n in range(2, 7)
                      for seed in range(5))]


@pytest.mark.parametrize("n,edges", NOT_STRONG_CASES)
def test_not_strong_words_are_the_word_by_word_count(n, edges):
    assert search._not_strong_words(n, edges) == \
        not_strong_by_words(n, edges)


# name -> (graph, its not strongly connected leaves without and with
# reversal); all 27 words of the disconnected graph are not strongly
# connected, and its all-digon word counts as symmetric
PAIRED = {"disconnected": (graph_of(5, [(0, 1), (2, 3), (3, 4)]), 26, 13),
          "K4": (complete_graph(4), 186, 93)}


@pytest.mark.parametrize("name", PAIRED)
@pytest.mark.parametrize("reversal", [False, True])
@pytest.mark.parametrize("jobs", [1, 2])
def test_reversal_pairs_the_not_strong_words(name, reversal, jobs):
    graph, plain, paired = PAIRED[name]
    rep = search_commutative_wdrd(graph, jobs=jobs, use_reversal=reversal)
    assert rep.prune_stats["not_strongly_connected"] == \
        (paired if reversal else plain)


def graph_where(n, adjacent):
    """The graph on vertices 0..n-1 with an edge {u, v} where
    `adjacent(u, v)`, as a symmetric digraph."""
    return Digraph.from_arcs(n, [(u, v) for u in range(n) for v in range(n)
                                 if u != v and adjacent(u, v)])


def hamming(u, v):
    return bin(u ^ v).count("1")


PETERSEN_EDGES = ([(i, (i + 1) % 5) for i in range(5)]
                  + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                  + [(i, 5 + i) for i in range(5)])

# name -> (graph, classes, labelled count) of the degree-pruned searches of
# graphs from the classifications of Hamming graphs and folded cubes that
# the source paper builds on, within the edge cap
COMPANIONS = {
    "H(2,3)": (graph_where(9, lambda u, v: (u // 3 == v // 3)
                           != (u % 3 == v % 3)), 2, 8),
    "Q3": (graph_where(8, lambda u, v: hamming(u, v) == 1), 1, 6),
    # the 4-cube with antipodes identified: 3-bit words at odd distance,
    # which is K4,4
    "folded 4-cube": (graph_where(8, lambda u, v: hamming(u, v) % 2 == 1),
                      1, 18),
    "Petersen": (Digraph.from_arcs(10, PETERSEN_EDGES
                                   + [(v, u) for u, v in PETERSEN_EDGES]),
                 0, 0),
    "Q4": (graph_where(16, lambda u, v: hamming(u, v) == 1), 0, 0),
}
# companions swept unpruned as well
UNPRUNED_COMPANIONS = ("Q3", "Petersen", "folded 4-cube", "H(2,3)")
# name -> N of graphs too large for the word-by-word count; the 16-cycle
# takes the recurrence longest, about 0.4 s
NOT_STRONG_TOTALS = {"J(4,2)": 77_970, "K7": 201_327_588, "Q3": 268_082,
                     "folded 4-cube": 8_182_466, "H(2,3)": 84_094_152,
                     "Petersen": 8_379_498, "C16": 42_915_650}


@pytest.mark.parametrize("name", COMPANIONS)
def test_companion_graphs_degree_pruned(name):
    graph, classes, labelled = COMPANIONS[name]
    rep = search_commutative_wdrd(graph, prune="degree",
                                  max_edges=kernel.MAX_EDGES)
    assert (len(rep.iso_classes), rep.wdrd_count,
            rep.noncommutative_count) == (classes, labelled, 0)


@pytest.mark.parametrize("name", UNPRUNED_COMPANIONS)
def test_companion_graphs_unpruned_agree_with_degree_pruned(name):
    graph = COMPANIONS[name][0]
    full = search_commutative_wdrd(graph, max_edges=kernel.MAX_EDGES)
    pruned = search_commutative_wdrd(graph, prune="degree",
                                     max_edges=kernel.MAX_EDGES)
    assert full.core() == pruned.core()
    assert full.examined == full.total_candidates


@pytest.mark.parametrize("name", NOT_STRONG_TOTALS)
def test_not_strong_words_of_larger_graphs(name):
    graphs = {"J(4,2)": johnson(4, 2), "K7": complete_graph(7),
              "C16": cayley_cyclic(16, {1, 15}),
              **{k: g for k, (g, *_) in COMPANIONS.items()}}
    d, edges = search._orientable(graphs[name], kernel.MAX_EDGES)
    assert search._not_strong_words(d.n, edges) == NOT_STRONG_TOTALS[name]
