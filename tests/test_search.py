import dataclasses
import itertools
import json
import multiprocessing

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
from oracles import search_by_brute_force


def fake_sweep_with_digon_survivor(n, edges, **kwargs):
    """A balanced kernel result whose one survivor, the all-digon word,
    is symmetric and so not weakly distance-regular."""
    stats = {k: 0 for k in kernel.STAT_KEYS}
    stats["examined"] = 3 ** len(edges)
    return {**stats, "survivors": [bytes([2] * len(edges))]}


def fake_sweep_with_triangle_survivor(n, edges, prefix=(), **kwargs):
    """A balanced K3 kernel branch whose one survivor, if the branch holds
    it, is the directed triangle 0 -> 1 -> 2 -> 0."""
    word = bytes([0, 1, 0])
    stats = {k: 0 for k in kernel.STAT_KEYS}
    stats["examined"] = 3 ** (len(edges) - len(prefix))
    return {**stats, "survivors": [word] if word.startswith(bytes(prefix))
            else []}


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

    def test_kernel_calls(self, monkeypatch):
        prefixes = []
        real = kernel.search_run

        def recording(n, edges, prefix=(), **kwargs):
            prefixes.append(tuple(prefix))
            return real(n, edges, prefix=prefix, **kwargs)

        monkeypatch.setattr(kernel, "search_run", recording)
        search_commutative_wdrd(complete_graph(3))
        assert prefixes == [()]
        prefixes.clear()
        search_commutative_wdrd(complete_graph(3), use_reversal=True)
        assert prefixes == [(0,), (2, 0), (2, 2, 0), (2, 2, 2)]


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
        pools = []

        class SerialPool:
            """Records the pool size and runs the branches in-process."""

            def __init__(self, max_workers):
                self.max_workers = max_workers
                self.branches = 0
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work, chunksize=1):
                work = list(work)
                self.branches = len(work)
                return map(fn, work)

        # the executor the selected kernel runs its branches on
        executor = ("ThreadPoolExecutor" if kernel.BACKEND == "compiled"
                    else "ProcessPoolExecutor")
        monkeypatch.setattr(search, executor, SerialPool)
        monkeypatch.setattr(search.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        rep = search_commutative_wdrd(c4(), jobs=10**6)
        assert [(p.max_workers, p.branches) for p in pools] == [(3, 27)]
        assert rep.jobs == 10**6
        assert rep.core() == search_commutative_wdrd(c4()).core()

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


class TestSoundness:
    def test_unbalanced_leaf_accounting_raises(self, monkeypatch):
        real = kernel.search_run

        def unbalanced(*args, **kwargs):
            stats = real(*args, **kwargs)
            stats["examined"] -= 1
            return stats

        monkeypatch.setattr(kernel, "search_run", unbalanced)
        with pytest.raises(AccountingError):
            search_commutative_wdrd(complete_graph(3))

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
