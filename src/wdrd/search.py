"""Exhaustive orientation search over a prescribed underlying graph.

Every edge of the input graph takes one of three states (Forward, Backward,
Digon), and the kernel accounts for each of the 3^|E| resulting digraphs.
It checks the all-digon digraph and each digraph whose degrees allow a
scheme for being weakly distance-regular, with a fixed filter order
(all-digon shortcut, strong connectivity, scheme axioms).  Every other
digraph is not strongly connected or breaks an axiom, and the kernel
tells which by strong connectivity alone, often for a whole subtree at
once (see `_kernel_py`).  Survivors are re-verified independently, which
also decides whether each is commutative, deduplicated by canonical form
and reported in canonical-form order, so single-threaded and parallel runs
emit byte-identical class lists.

The optional degree prune cuts subtrees that cannot carry constant
digon/out/in valencies (necessary for any association scheme) and never
changes the surviving classes; the skipped-leaf accounting keeps
examined + skipped = 3^|E| exact.

The search runs as a list of branches, each a fixed prefix of edge states
handed to the kernel, all planned by `_branches`: the one branch () for a
single worker, or the 3^k prefixes of length k under `jobs > 1`.  Several
workers run the branches on threads over the compiled kernel, whose ctypes
call releases the GIL and keeps all state per call, and on processes over
the pure kernel, which holds the GIL.
`use_reversal` halves the sweep through the same planner, which drops the
prefixes that reversal maps onto kept ones; the kernel itself knows no
symmetry.  The state codes, kernel limits and counter keys this module
shares with the kernels are defined once, in `_kernel_py`, and reached
through `wdrd.kernel`.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

from . import kernel
from .analysis import WdrdReport, wdrd_report
from .canon import MAX_N as CANON_MAX_N, canonical_form, form_digraph
from .digraph import Digraph, format_dgf
from .errors import (
    AccountingError,
    BadJobsError,
    NotSymmetricError,
    ReverificationError,
    TooLargeError,
    TooManyEdgesError,
)
from .generators import LabeledGraph
from .kernel import BWD, DIG, FWD

PRUNE_MODES = ("none", "degree")


@dataclass(frozen=True)
class FoundClass:
    """One isomorphism class of surviving digraphs, canonically labelled."""

    digraph: Digraph
    canonical: bytes
    commutative: bool
    type_set: tuple[int, ...]
    valencies: tuple[tuple[tuple[int, int], int], ...]
    labelled_count: int


@dataclass(frozen=True)
class SearchReport:
    """Statistics and surviving classes of one orientation search."""

    graph_id: str
    n: int
    edge_count: int
    total_candidates: int
    examined: int
    wdrd_count: int
    iso_classes: tuple[FoundClass, ...]
    noncommutative_count: int
    noncommutative_classes: tuple[FoundClass, ...]
    prune_stats: dict[str, int]
    prune: str
    jobs: int
    use_reversal: bool

    def core(self) -> dict:
        """The semantic payload: everything except traversal diagnostics.

        Pruned and unpruned runs agree on this part; `examined` and
        `prune_stats` legitimately differ between them."""
        d = report_to_dict(self)
        for k in ("examined", "prune_stats", "prune", "jobs", "use_reversal"):
            d.pop(k)
        return d


def _underlying_edges(g: Digraph) -> list[tuple[int, int]]:
    return [(u, v) for u, v in g.arcs() if u < v]


def _orientable(g, max_edges: int):
    """The digraph of graph `g` (unwrapping a LabeledGraph) and its edges in
    lexicographic order, at most `max_edges` of them."""
    d = g.graph if isinstance(g, LabeledGraph) else g
    if not d.is_symmetric():
        raise NotSymmetricError("orientation search needs a graph")
    edges = _underlying_edges(d)
    if len(edges) > max_edges:
        raise TooManyEdgesError(
            f"{len(edges)} edges exceed the cap {max_edges}; raise max_edges "
            "to confirm")
    return d, edges


def word_to_digraph(n: int, edges, word: bytes) -> Digraph:
    """Rebuild the digraph encoded by an edge-state word: one state 0, 1
    or 2 per edge, ValueError otherwise."""
    if len(word) != len(edges) or any(s not in (FWD, BWD, DIG) for s in word):
        raise ValueError(f"need one state 0, 1 or 2 for each of "
                         f"{len(edges)} edges, got {list(word)}")
    arcs = []
    for (u, v), s in zip(edges, word):
        if s == FWD:
            arcs.append((u, v))
        elif s == BWD:
            arcs.append((v, u))
        else:
            arcs.append((u, v))
            arcs.append((v, u))
    return Digraph.from_arcs(n, arcs)


def enumerate_orientations(g, max_edges: int = 20):
    """Yield all 3^|E| orientations of a graph.

    Edges are taken in lexicographic order and states cycle
    Forward -> Backward -> Digon, the last edge fastest."""
    d, edges = _orientable(g, max_edges)
    for word in itertools.product((FWD, BWD, DIG), repeat=len(edges)):
        yield word_to_digraph(d.n, edges, bytes(word))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _branch(args):
    n, edges, prefix, prune_degree = args
    return kernel.search_run(n, edges, prefix=prefix,
                             prune_degree=prune_degree)


def _branches(ne: int, k: int, use_reversal: bool, prefix=()):
    """Plan the kernel branches below `prefix` over `ne` edges.

    Without `use_reversal` these are the 3^k prefixes of length k (k <= ne)
    in search order.  With it, one word of every pair {word, reversed word}
    is kept: the two first differ at the word's first non-digon edge, where
    one is Forward and the other Backward, so the kept words are those whose
    first non-digon edge is Forward, plus the all-digon word, its own
    reversal.  A prefix whose first non-digon state is Backward is dropped;
    a prefix is refined over Forward, Backward, Digon while it is shorter
    than k, or while reversal fixes it (all digons) and it is shorter than
    ne; every other prefix is a branch.  Returns the branches in search
    order and the number of leaves dropped."""
    first = next((s for s in prefix if s != DIG), DIG)
    if use_reversal and first == BWD:
        return [], 3 ** (ne - len(prefix))
    if len(prefix) < k or (use_reversal and first == DIG and
                           len(prefix) < ne):
        kept, skipped = [], 0
        for s in (FWD, BWD, DIG):
            more, dropped = _branches(ne, k, use_reversal, prefix + (s,))
            kept += more
            skipped += dropped
        return kept, skipped
    return [prefix], 0


def search_commutative_wdrd(g, *, graph_id: str | None = None,
                            prune: str = "none", jobs: int = 1,
                            max_edges: int = 20,
                            use_reversal: bool = False) -> SearchReport:
    """Search all orientations of `g` for commutative weakly
    distance-regular digraphs.

    Returns the deduplicated isomorphism classes (re-verified after the
    kernel pass, noncommutative ones apart) plus rejection statistics.
    `prune="degree"` enables the sound valency prune; `jobs > 1` splits the
    edge-state space by fixed prefixes, run on threads over the compiled
    kernel and on processes over the pure one, with a deterministic merge;
    `use_reversal` sweeps one word of every reversal pair and adds the
    reversed survivors, so `core()` is the same as without it."""
    d, edges = _orientable(g, max_edges)
    if prune not in PRUNE_MODES:
        raise ValueError(f"prune must be one of {PRUNE_MODES}")
    if jobs < 1:
        raise BadJobsError(f"jobs must be at least 1, got {jobs}")
    ne = len(edges)
    kernel.check_arguments(d.n, edges, ())
    if d.n > CANON_MAX_N:
        # survivors are canonicalised after the sweep; fail before it
        raise TooLargeError(
            f"exact canonicalization capped at {CANON_MAX_N} vertices")
    if graph_id is None:
        graph_id = f"graph(n={d.n}, edges={ne})"
    prune_degree = prune == "degree"

    # More workers than usable CPUs only adds start-up cost; the report
    # still records the requested `jobs`.  A pool gets at least eight
    # branches per worker, which keeps the last branches short.
    workers = min(jobs, _usable_cpus())
    k = 0
    while workers > 1 and 3 ** k < 8 * workers and k < ne:
        k += 1
    prefixes, skipped_reversal = _branches(ne, k, use_reversal)
    work = [(d.n, edges, p, prune_degree) for p in prefixes]
    if workers == 1:
        results = list(map(_branch, work))
    else:
        executor = (ThreadPoolExecutor if kernel.BACKEND == "compiled"
                    else ProcessPoolExecutor)
        with executor(max_workers=workers) as pool:
            results = list(pool.map(_branch, work, chunksize=1))

    stats = dict.fromkeys(kernel.STAT_KEYS, 0)
    words: list[bytes] = []
    for r in results:
        for k in kernel.STAT_KEYS:
            stats[k] += r[k]
        words.extend(r["survivors"])

    total = 3 ** ne
    accounted = stats["examined"] + stats["skipped_degree"] + skipped_reversal
    if accounted != total:
        raise AccountingError(
            f"examined + skipped leaves = {accounted}, expected 3^{ne} = {total}")

    survivors = [word_to_digraph(d.n, edges, w) for w in words]
    if use_reversal:
        # Each kept survivor stands for its reversal too, a distinct word
        # (only the all-digon word is its own reversal, and it is symmetric).
        survivors += [s.reverse() for s in survivors]
    classes = _dedupe(survivors)
    iso = tuple(c for c in classes if c.commutative)
    iso_nc = tuple(c for c in classes if not c.commutative)

    prune_stats = {k: stats[k] for k in kernel.STAT_KEYS if k != "examined"}
    prune_stats["skipped_reversal"] = skipped_reversal
    return SearchReport(
        graph_id=graph_id,
        n=d.n,
        edge_count=ne,
        total_candidates=total,
        examined=stats["examined"],
        wdrd_count=sum(c.labelled_count for c in iso),
        iso_classes=iso,
        noncommutative_count=sum(c.labelled_count for c in iso_nc),
        noncommutative_classes=iso_nc,
        prune_stats=prune_stats,
        prune=prune,
        jobs=jobs,
        use_reversal=use_reversal,
    )


def _dedupe(survivors) -> tuple[FoundClass, ...]:
    """Re-verify every survivor and group the survivors by canonical form,
    in form order.  A class takes its commutativity, type set and valencies
    from the report of its first survivor; all three are isomorphism
    invariants."""
    classes: dict[bytes, tuple[WdrdReport, int]] = {}
    for s in survivors:
        rep = wdrd_report(s)
        if not rep.is_wdrd:
            raise ReverificationError(
                "kernel survivor failed independent re-verification")
        form = canonical_form(s)
        first, cnt = classes.get(form, (rep, 0))
        classes[form] = (first, cnt + 1)
    out = []
    for form in sorted(classes):
        rep, cnt = classes[form]
        out.append(FoundClass(
            digraph=form_digraph(form),
            canonical=form,
            commutative=rep.commutative,
            type_set=tuple(sorted(rep.type_set)),
            valencies=tuple(sorted(
                zip(rep.scheme.classes, map(int, rep.scheme.k)))),
            labelled_count=cnt,
        ))
    return tuple(out)


def report_to_dict(r: SearchReport) -> dict:
    """Stable JSON-ready serialization of a search report: one key per
    field of SearchReport."""

    def cls_dict(c: FoundClass) -> dict:
        return {
            "canonical": c.canonical.hex(),
            "dgf": format_dgf(c.digraph),
            "commutative": c.commutative,
            "type_set": list(c.type_set),
            "valencies": [[list(lbl), k] for lbl, k in c.valencies],
            "labelled_count": c.labelled_count,
        }

    out = {f.name: getattr(r, f.name) for f in dataclasses.fields(r)}
    for key in ("iso_classes", "noncommutative_classes"):
        out[key] = [cls_dict(c) for c in out[key]]
    out["prune_stats"] = dict(sorted(r.prune_stats.items()))
    return out
