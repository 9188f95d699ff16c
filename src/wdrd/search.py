"""Exhaustive orientation search over a prescribed underlying graph.

Every edge of the input graph takes one of three states (Forward, Backward,
Digon), and the search accounts for each of the 3^|E| resulting digraphs.
The kernel runs one degree-pruned search in both prune modes: it checks
the all-digon digraph and each digraph whose degrees allow a scheme for
being weakly distance-regular, with a fixed filter order (all-digon
shortcut, strong connectivity, scheme axioms), and skips the rest.  The
degree prune cuts subtrees that cannot carry constant digon/out/in
valencies (necessary for any association scheme), so it never changes the
surviving classes.  Survivors are grouped by canonical form and reported
in canonical-form order, so single-threaded and parallel runs emit
byte-identical class lists.  The first survivor of each class is
re-verified independently, which also decides whether the class is
commutative.  That proves the whole class: a later survivor joins it only
when its canonical relabelling, which `canon.canonical_digraph` checks to
be a permutation, has exactly the verified survivor's adjacency, so the
two are isomorphic, and being a WDRD, commutativity, the type set and the
valencies are isomorphism invariants.

Leaf accounting holds in both modes, or the search raises AccountingError:
each kernel call's examined leaves split exactly into its rejection
counters and survivors, and over the whole search examined +
skipped_degree + skipped_reversal = 3^|E|.  `prune="none"` runs the same
kernel calls and then reports every leaf that the plan keeps as examined.
A kept leaf is the all-digon word (symmetric), or not strongly connected,
or a survivor, or else it breaks an axiom, so:
  examined = 3^|E| - skipped_reversal and skipped_degree = 0;
  symmetric = 1, since the plan always keeps the all-digon word;
  not_strongly_connected = N - dis, or (N - dis) / 2 under reversal;
  axiom = examined - symmetric - not_strongly_connected - #survivors;
and the survivors are the degree-pruned search's, since the prune never
cuts one.  N is the number of the 3^|E| words whose digraph is not
strongly connected, and dis is 1 when the graph is disconnected, else 0:
the all-digon word is then not strongly connected, but it counts as
symmetric.  Reversal keeps strong connectivity and maps every other word
to a distinct one, and the plan keeps one word of each such pair, so
under reversal N - dis must be even.  A derived count below zero, or an
odd N - dis under reversal, raises AccountingError.

`_not_strong_words` counts N once per graph G = (V, E) by the classical
count of strongly connected digraphs by their source components
(Liskovets, Math. Notes 8, 1970; Wright, Bull. LMS 3, 1971).  For S a set
of vertices, e(S) is the number of edges inside S, c(S) the number of
components of G[S], and s(S) the number of words over the edges of G[S]
whose digraph is strongly connected (0 when G[S] is disconnected).  For
G[S] connected,
  s(S) = 3^e(S) - sum over nonempty T < S of
         (-1)^(c(T)+1) * prod over components C of G[T] of s(C) * 3^e(S - T),
and N = 3^|E| - s(V).  Sound because every digraph has a source
component, a strong component that no arc enters.  The source components
inside T are exactly the components of G[T] when T is a union of them:
two of them share no arc, so no edge, since every edge carries an arc.
So the words on S in which T is a union of source components are those in
which every component of G[T] is strongly connected and each edge between
T and S - T points out of T, with the edges inside S - T free.
Inclusion-exclusion over the nonempty sets of source components counts
each word on S once, which gives 3^e(S) as the same sum over every
nonempty T <= S, and the term T = S is s(S).  The sums run over the
subsets of every connected S, at most 3^|V| terms in all.

The search runs as a list of branches, each a fixed prefix of edge states,
all planned by `_branches`: the one branch () for a single worker, or the
3^k prefixes of length k under `jobs > 1`.  A single worker runs the plan
in one kernel call.  Under `jobs > 1` the calling thread first runs the
whole plan in one kernel call with a leaf budget of FANOUT_LEAVES, which
stops between branches once it has examined that many leaves; a sweep
that small ends there and starts no pool, because the pool would cost
more than it saves.  Only the branches that call left unfinished are
dealt out, one share per worker, every `workers`-th in search order, and
each share goes to the kernel in one call, whose prefixes share one
context.  The calling thread runs the first share; the others run on
threads over the compiled kernel, whose ctypes call releases the GIL and
keeps all state per call, and on processes over the pure kernel, which
holds the GIL.  Every branch runs exactly once, and the counters and
survivors of all calls are merged and checked together, so the report
does not depend on where the budget stopped.
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
from .digraph import Digraph, _mask_bits, format_dgf
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
# Branches per worker under jobs > 1, at least; see `_split_length`.
SPLIT_PER_WORKER = 27
# Leaves that the calling thread examines under jobs > 1 before it deals
# the unfinished branches to workers; 0 deals them all at once.  On a
# 2-vCPU x86-64 host a thread pool over the compiled kernel costs about
# 1.4 ms and a leaf about 0.6 us, so a pool of two pays from about 4,700
# leaves; a process pool over the pure kernel costs about 10 ms and a leaf
# about 60 us, so it pays from about 300.  Between the two, this value
# starts no pool for J(4,2) (87 leaves) or K6 (731) on either kernel.  A
# large sweep on the compiled kernel starts its pool about 1 ms late, or
# later when the branch that crosses the budget is large: 12 ms on K8
# --prune degree, which takes about 1 s at --jobs 2.
FANOUT_LEAVES = 2048


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


def _share(args):
    return kernel.search_run(*args)


def _split_length(workers: int, ne: int) -> int:
    """The prefix length k of the branches for `workers` workers over `ne`
    edges: 0 for one worker, else the least k <= ne with 3^k at least
    SPLIT_PER_WORKER branches per worker.  The calling thread runs the
    branches in order up to its leaf budget (FANOUT_LEAVES), so a short
    sweep is one call whatever k is; the rest are dealt into shares fixed
    before they run, which need enough branches each to even out the
    branches' unequal sizes.  Two workers get k = 4.  On J(5,2) --prune
    degree the larger of the two shares then takes about 5% more CPU time
    than half the sum, against 16-27% at k = 3 and 29-37% at k = 5, where
    a share's branches are those with an even (or odd) count of Backward
    states and that count decides much of a branch's cost (2-vCPU x86-64
    host)."""
    k = 0
    while workers > 1 and 3 ** k < SPLIT_PER_WORKER * workers and k < ne:
        k += 1
    return k


def _branches(ne: int, k: int, use_reversal: bool):
    """Plan the kernel branches over `ne` edges.

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
    kept = []
    skipped = 0

    def plan(prefix, first):
        """`first`: the first non-digon state of `prefix`, else DIG."""
        nonlocal skipped
        if use_reversal and first == BWD:
            skipped += 3 ** (ne - len(prefix))
        elif len(prefix) < k or (use_reversal and first == DIG
                                 and len(prefix) < ne):
            for s in (FWD, BWD, DIG):
                plan(prefix + (s,), s if first == DIG else first)
        else:
            kept.append(prefix)

    plan((), DIG)
    return kept, skipped


def _not_strong_words(n, edges) -> int:
    """N, the number of the 3^|E| words over `edges` on vertices 0..n-1
    whose digraph is not strongly connected, by the source-component
    recurrence of the module docstring.  g[X] is the product of -s(C)
    over the components C of G[X], so g[S] = -s(S) for G[S] connected, and
    s(S) = 3^e(S) + the sum of g[T] 3^e(S - T) over nonempty T < S."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    size = 1 << n
    pow3 = [1] * size  # 3^e(X)
    g = [1] * size
    for x in range(1, size):
        low = x & -x
        v = low.bit_length() - 1
        pow3[x] = pow3[x ^ low] * 3 ** (adj[v] & x).bit_count()
        comp = new = low  # v's component in G[x]
        while new:
            reach = 0
            for w in _mask_bits(new):
                reach |= adj[w]
            new = reach & x & ~comp
            comp |= new
        if comp != x:
            g[x] = g[comp] * g[x ^ comp]
            continue
        total = pow3[x]
        t = (x - 1) & x
        while t:
            total += g[t] * pow3[x ^ t]
            t = (t - 1) & x
        g[x] = -total
    # the last x is V, and s(V) = 0 when G is disconnected
    return 3 ** len(edges) + (g[-1] if comp == size - 1 else 0)


def search_commutative_wdrd(g, *, graph_id: str | None = None,
                            prune: str = "none", jobs: int = 1,
                            max_edges: int = 20,
                            use_reversal: bool = False) -> SearchReport:
    """Search all orientations of `g` for commutative weakly
    distance-regular digraphs.

    Returns the deduplicated isomorphism classes (re-verified after the
    kernel pass, noncommutative ones apart) plus rejection statistics:
    with `prune="degree"` those of the degree-pruned search, with
    `prune="none"` those of every kept leaf; `jobs > 1` splits the
    edge-state space by fixed prefixes, runs them on the calling thread
    up to a leaf budget and deals the rest into one share per worker, one
    kernel call each, run on threads over the compiled kernel and on
    processes over the pure one, with a deterministic merge;
    `use_reversal` sweeps one word of every reversal pair and adds the
    reversed survivors, so `core()` is the same as without it."""
    d, edges = _orientable(g, max_edges)
    if prune not in PRUNE_MODES:
        raise ValueError(f"prune must be one of {PRUNE_MODES}")
    if jobs < 1:
        raise BadJobsError(f"jobs must be at least 1, got {jobs}")
    ne = len(edges)
    kernel.check_arguments(d.n, edges, [()])
    if d.n > CANON_MAX_N:
        # survivors are canonicalised after the sweep; fail before it
        raise TooLargeError(
            f"exact canonicalization capped at {CANON_MAX_N} vertices")
    if graph_id is None:
        graph_id = f"graph(n={d.n}, edges={ne})"

    # More workers than usable CPUs only adds start-up cost; the report
    # still records the requested `jobs`.
    workers = min(jobs, _usable_cpus())
    prefixes, skipped_reversal = _branches(ne, _split_length(workers, ne),
                                           use_reversal)
    results = []
    if workers > 1 and FANOUT_LEAVES:
        first = kernel.search_run(d.n, edges, prefixes, FANOUT_LEAVES)
        done = first["finished"]
        if not 0 <= done <= len(prefixes):
            raise AccountingError(
                f"the budgeted kernel call reports {done} finished branches "
                f"of {len(prefixes)}")
        results.append(first)
        prefixes = prefixes[done:]
    shares = [prefixes[w::workers]
              for w in range(min(workers, len(prefixes)))]
    work = [(d.n, edges, share) for share in shares]
    if len(work) <= 1:
        results += map(_share, work)
    else:
        executor = (ThreadPoolExecutor if kernel.BACKEND == "compiled"
                    else ProcessPoolExecutor)
        with executor(max_workers=len(work) - 1) as pool:
            # map submits the other shares at once; this thread runs the
            # first meanwhile
            rest = pool.map(_share, work[1:])
            results += [_share(work[0]), *rest]

    stats = dict.fromkeys(kernel.STAT_KEYS, 0)
    words: list[bytes] = []
    for w, r in enumerate(results):
        counts = [r[k] for k in kernel.STAT_KEYS]
        split = (r["symmetric"] + r["not_strongly_connected"] + r["axiom"]
                 + len(r["survivors"]))
        if min(counts) < 0 or split != r["examined"]:
            raise AccountingError(
                f"kernel call {w} of {len(results)}: counters {counts} and "
                f"{len(r['survivors'])} survivors do not split its examined "
                "leaves")
        for k in kernel.STAT_KEYS:
            stats[k] += r[k]
        words.extend(r["survivors"])

    total = 3 ** ne
    accounted = stats["examined"] + stats["skipped_degree"] + skipped_reversal
    if accounted != total:
        raise AccountingError(
            f"examined + skipped leaves = {accounted}, expected 3^{ne} = {total}")
    if prune == "none":
        # the unpruned counters, by the identities of the module docstring
        examined = total - skipped_reversal
        nsc = _not_strong_words(d.n, edges) - (not d.is_strongly_connected())
        if use_reversal:
            if nsc % 2:
                raise AccountingError(
                    f"{nsc} words besides the all-digon one are not strongly "
                    "connected, an odd number, which reversal cannot pair")
            nsc //= 2
        stats = dict(examined=examined, skipped_degree=0, symmetric=1,
                     not_strongly_connected=nsc,
                     axiom=examined - 1 - nsc - len(words))
        if min(stats.values()) < 0:
            raise AccountingError(
                f"unpruned counters {stats} go below zero")

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
    """Group the survivors by canonical form, in form order, and re-verify
    the first survivor of each class, which the module docstring shows
    proves the class.  A survivor that is not a WDRD shares no form with
    one that is, so it opens a class of its own and raises."""
    classes: dict[bytes, tuple[WdrdReport, int]] = {}
    for s in survivors:
        form = canonical_form(s)
        if form not in classes:
            rep = wdrd_report(s)
            if not rep.is_wdrd:
                raise ReverificationError(
                    "kernel survivor failed independent re-verification")
            classes[form] = (rep, 0)
        rep, cnt = classes[form]
        classes[form] = (rep, cnt + 1)
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
