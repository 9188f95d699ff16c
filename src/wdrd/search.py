"""Exhaustive orientation search over a prescribed underlying graph.

Every edge of the input graph takes one of three states (Forward, Backward,
Digon); the kernel checks the 3^|E| resulting digraphs for being weakly
distance-regular, with a fixed filter order (all-digon shortcut, strong
connectivity, scheme axioms).  Survivors are re-verified independently,
which also decides whether each is commutative, deduplicated by canonical
form and reported in canonical-form order, so single-threaded and parallel
runs emit byte-identical class lists.

The optional degree prune cuts subtrees that cannot carry constant
digon/out/in valencies (necessary for any association scheme) and never
changes the surviving classes; the skipped-leaf accounting keeps
examined + skipped = 3^|E| exact.

The search runs as a list of branches, each a fixed prefix of edge states
handed to the kernel: the one branch () for a single worker, or all 3^k
prefixes of length k under `jobs > 1`.  `use_reversal` halves the sweep by
choosing among these prefixes (`_reversal_split`); the kernel itself knows
no symmetry.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
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

_FWD, _BWD, _DIG = 0, 1, 2

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


def word_to_digraph(n: int, edges, word: bytes) -> Digraph:
    """Rebuild the digraph encoded by an edge-state word."""
    arcs = []
    for (u, v), s in zip(edges, word):
        if s == _FWD:
            arcs.append((u, v))
        elif s == _BWD:
            arcs.append((v, u))
        else:
            arcs.append((u, v))
            arcs.append((v, u))
    return Digraph.from_arcs(n, arcs)


def enumerate_orientations(g, max_edges: int = 20):
    """Yield all 3^|E| orientations of a graph.

    Edges are taken in lexicographic order and states cycle
    Forward -> Backward -> Digon, the last edge fastest."""
    d = g.graph if isinstance(g, LabeledGraph) else g
    if not d.is_symmetric():
        raise NotSymmetricError("orientation enumeration needs a graph")
    edges = _underlying_edges(d)
    if len(edges) > max_edges:
        raise TooManyEdgesError(
            f"{len(edges)} edges exceed the cap {max_edges}; raise max_edges "
            "to confirm")
    for word in itertools.product((_FWD, _BWD, _DIG), repeat=len(edges)):
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


def _reversal_split(prefixes, ne: int):
    """Keep one word of every pair {word, reversed word}.

    A word and its reversal first differ at the word's first non-digon
    edge, where one is Forward and the other Backward; the kept words are
    those whose first non-digon edge is Forward (and the all-digon word,
    its own reversal).  A prefix whose first non-digon state is Backward is
    dropped, one whose first is Forward kept, and an all-digon prefix of
    length k becomes D^j F for j = k..ne-1 plus D^ne.  Returns the kept
    prefixes in search order and the number of leaves dropped."""
    kept, skipped = [], 0
    for p in prefixes:
        first = next((s for s in p if s != _DIG), _DIG)
        if first == _FWD:
            kept.append(p)
        elif first == _BWD:
            skipped += 3 ** (ne - len(p))
        else:
            for j in range(len(p), ne):
                kept.append((_DIG,) * j + (_FWD,))
                skipped += 3 ** (ne - j - 1)  # the branch D^j B
            kept.append((_DIG,) * ne)
    return kept, skipped


def search_commutative_wdrd(g, *, graph_id: str | None = None,
                            prune: str = "none", jobs: int = 1,
                            max_edges: int = 20,
                            use_reversal: bool = False) -> SearchReport:
    """Search all orientations of `g` for commutative weakly
    distance-regular digraphs.

    Returns the deduplicated isomorphism classes (re-verified after the
    kernel pass, noncommutative ones apart) plus rejection statistics.
    `prune="degree"` enables the sound valency prune; `jobs > 1` splits the
    edge-state space by fixed prefixes across processes with a
    deterministic merge; `use_reversal` sweeps one word of every reversal
    pair and adds the reversed survivors, so `core()` is the same as
    without it."""
    d = g.graph if isinstance(g, LabeledGraph) else g
    if not d.is_symmetric():
        raise NotSymmetricError("orientation search needs a graph")
    if prune not in PRUNE_MODES:
        raise ValueError(f"prune must be one of {PRUNE_MODES}")
    if jobs < 1:
        raise BadJobsError(f"jobs must be at least 1, got {jobs}")
    edges = _underlying_edges(d)
    ne = len(edges)
    if ne > max_edges:
        raise TooManyEdgesError(
            f"{ne} edges exceed the cap {max_edges}; raise max_edges to confirm")
    if ne > kernel.MAX_EDGES:
        raise TooManyEdgesError(
            f"kernel limit: at most {kernel.MAX_EDGES} edges")
    if d.n > kernel.MAX_N:
        raise TooLargeError(f"kernel limit: at most {kernel.MAX_N} vertices")
    if d.n > CANON_MAX_N:
        # survivors are canonicalised after the sweep; fail before it
        raise TooLargeError(
            f"exact canonicalization capped at {CANON_MAX_N} vertices")
    if graph_id is None:
        graph_id = f"graph(n={d.n}, edges={ne})"
    prune_degree = prune == "degree"

    # More workers than usable CPUs only adds start-up cost; the report
    # still records the requested `jobs`.  A pool gets at least four
    # branches per worker.
    workers = min(jobs, _usable_cpus())
    k = 0
    while workers > 1 and 3 ** k < 4 * workers and k < ne:
        k += 1
    prefixes = list(itertools.product((_FWD, _BWD, _DIG), repeat=k))
    skipped_reversal = 0
    if use_reversal:
        prefixes, skipped_reversal = _reversal_split(prefixes, ne)
    work = [(d.n, edges, p, prune_degree) for p in prefixes]
    if workers == 1:
        results = list(map(_branch, work))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_branch, work, chunksize=1))

    stats = {k: 0 for k in kernel.STAT_KEYS}
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

    prune_stats = {k: stats[k] for k in
                   ("symmetric", "not_strongly_connected", "axiom",
                    "skipped_degree")}
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
    """Stable JSON-ready serialization of a search report."""

    def cls_dict(c: FoundClass) -> dict:
        return {
            "canonical": c.canonical.hex(),
            "dgf": format_dgf(c.digraph),
            "commutative": c.commutative,
            "type_set": list(c.type_set),
            "valencies": [[list(lbl), k] for lbl, k in c.valencies],
            "labelled_count": c.labelled_count,
        }

    return {
        "graph_id": r.graph_id,
        "n": r.n,
        "edge_count": r.edge_count,
        "total_candidates": r.total_candidates,
        "examined": r.examined,
        "wdrd_count": r.wdrd_count,
        "iso_classes": [cls_dict(c) for c in r.iso_classes],
        "noncommutative_count": r.noncommutative_count,
        "noncommutative_classes": [cls_dict(c) for c in r.noncommutative_classes],
        "prune_stats": dict(sorted(r.prune_stats.items())),
        "prune": r.prune,
        "jobs": r.jobs,
        "use_reversal": r.use_reversal,
    }
