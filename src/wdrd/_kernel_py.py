"""Pure-Python orientation-search kernel.

Reference implementation of the hot loop: depth-first enumeration of edge
states (Forward / Backward / Digon) over a fixed underlying graph, with a
full candidate check at every leaf.  `_kernel.c` implements the same
contract in C; `wdrd.kernel` compiles and loads it when a C compiler is
available and otherwise selects this module.

Contract: `search_run(n, edges, prefix=(), prune_degree=False)` visits the
3^(|E| - len(prefix)) completions of `prefix` in one depth-first search,
which tries only `prefix[depth]` at the depths below len(prefix).  It
returns the counters of `wdrd.kernel.STAT_KEYS`, which account for every
leaf of the branch (examined + skipped_degree = 3^(|E| - len(prefix))),
and the surviving words in visiting order.  The kernel knows no symmetry;
`wdrd.search` applies arc reversal by choosing the prefixes.

Leaf pipeline (cheapest first):
  1. all-digon candidates are symmetric, hence never weakly distance-regular;
  2. strong connectivity;
  3. two-way distance partition + constancy of all intersection numbers
     (association-scheme axiom check with early exit).
Every word that passes all three is a survivor; `wdrd.search` classifies
the survivors when it re-verifies them.

Optional degree pruning cuts subtrees that cannot satisfy the valency
constancy a scheme forces: every vertex must carry the same digon-degree d,
the same out-only degree f and the same in-only degree f (out-only equals
in-only because dual classes have equal valencies), with d + 2f = k on a
k-regular underlying graph.  These are necessary conditions, so pruning
never discards a candidate that would have survived the full check.
"""

from __future__ import annotations

from .digraph import _bfs_fill, _bfs_reach

BACKEND = "pure"

_FWD, _BWD, _DIG = 0, 1, 2


def search_run(n, edges, prefix=(), prune_degree=False):
    """Enumerate and check all completions of `prefix` over `edges`.

    edges: sequence of (u, v) with u < v, in processing order.
    prefix: states fixed for edges[:len(prefix)].
    Returns a stats dict with survivor edge-state words (bytes).
    """
    edges = list(edges)
    ne = len(edges)
    np_ = len(prefix)
    stats = {
        "examined": 0,
        "skipped_degree": 0,
        "symmetric": 0,
        "not_strongly_connected": 0,
        "axiom": 0,
    }
    survivors: list[bytes] = []

    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1

    # Feasible (digon-degree, out-only-degree) targets on a k-regular graph
    # (edgeless included).  An irregular graph carries no scheme and has
    # none, so in pruned mode the first edge already cuts every branch.
    pairs: list[tuple[int, int]] = []
    if all(x == deg[0] for x in deg):
        k = deg[0]
        pairs = [(dl, (k - dl) // 2) for dl in range(k + 1) if (k - dl) % 2 == 0]
    full_fmask = (1 << len(pairs)) - 1 if prune_degree else 0

    branch_leaves = 3 ** (ne - np_)

    states = bytearray(ne)
    out_m = [0] * n
    in_m = [0] * n
    dd = [0] * n
    oo = [0] * n
    ii = [0] * n

    def feasible(vtx, fmask):
        m = fmask
        for idx, (dl, f) in enumerate(pairs):
            bit = 1 << idx
            if m & bit and (dd[vtx] > dl or oo[vtx] > f or ii[vtx] > f):
                m ^= bit
        return m

    def apply_state(depth, s):
        u, v = edges[depth]
        if s == _FWD:
            out_m[u] |= 1 << v
            in_m[v] |= 1 << u
            oo[u] += 1
            ii[v] += 1
        elif s == _BWD:
            out_m[v] |= 1 << u
            in_m[u] |= 1 << v
            oo[v] += 1
            ii[u] += 1
        else:
            out_m[u] |= 1 << v
            out_m[v] |= 1 << u
            in_m[u] |= 1 << v
            in_m[v] |= 1 << u
            dd[u] += 1
            dd[v] += 1

    def undo_state(depth, s):
        u, v = edges[depth]
        if s == _FWD:
            out_m[u] &= ~(1 << v)
            in_m[v] &= ~(1 << u)
            oo[u] -= 1
            ii[v] -= 1
        elif s == _BWD:
            out_m[v] &= ~(1 << u)
            in_m[u] &= ~(1 << v)
            oo[v] -= 1
            ii[u] -= 1
        else:
            out_m[u] &= ~(1 << v)
            out_m[v] &= ~(1 << u)
            in_m[u] &= ~(1 << v)
            in_m[v] &= ~(1 << u)
            dd[u] -= 1
            dd[v] -= 1

    def check_leaf(nondigon):
        if nondigon == 0:
            stats["symmetric"] += 1
            return
        full = (1 << n) - 1
        if _bfs_reach(out_m, 0) != full or _bfs_reach(in_m, 0) != full:
            stats["not_strongly_connected"] += 1
            return
        # strongly connected, so the BFS writes every entry and distances
        # are at most n - 1 <= 63: class keys stay below 64*64
        dist = [[0] * n for _ in range(n)]
        for src in range(n):
            _bfs_fill(out_m, src, dist[src])
        # two-way distance labels
        class_of_key: dict[int, int] = {}
        labels = [0] * (n * n)
        counts0 = []
        ok = True
        for x in range(n):
            bx = x * n
            row_counts: list[int] = [0] * (len(class_of_key) + n)
            for y in range(n):
                key = dist[x][y] * 64 + dist[y][x]
                cid = class_of_key.get(key)
                if cid is None:
                    cid = len(class_of_key)
                    class_of_key[key] = cid
                    if x > 0:
                        # new class not seen in row 0: valency differs
                        ok = False
                labels[bx + y] = cid
                if cid < len(row_counts):
                    row_counts[cid] += 1
            if x == 0:
                counts0 = row_counts[: len(class_of_key)]
            elif ok:
                nc = len(class_of_key)
                if len(counts0) < nc or row_counts[:nc] != counts0[:nc]:
                    ok = False
            if not ok:
                stats["axiom"] += 1
                return
        c = len(class_of_key)
        # full intersection-number constancy
        refs: list[dict[int, int] | None] = [None] * c
        for x in range(n):
            bx = x * n
            for y in range(n):
                lab = labels[bx + y]
                tly: dict[int, int] = {}
                for z in range(n):
                    key = labels[bx + z] * c + labels[z * n + y]
                    tly[key] = tly.get(key, 0) + 1
                ref = refs[lab]
                if ref is None:
                    refs[lab] = tly
                elif ref != tly:
                    stats["axiom"] += 1
                    return
        survivors.append(bytes(states))

    def dfs(depth, nondigon, fmask):
        if depth == ne:
            stats["examined"] += 1
            check_leaf(nondigon)
            return
        if depth < np_:  # a fixed state: pruning it cuts the whole branch
            choices, rem_leaves = prefix[depth:depth + 1], branch_leaves
        else:
            choices, rem_leaves = (_FWD, _BWD, _DIG), 3 ** (ne - depth - 1)
        for s in choices:
            apply_state(depth, s)
            states[depth] = s
            if prune_degree:
                u, v = edges[depth]
                nm = feasible(u, fmask)
                if nm:
                    nm = feasible(v, nm)
                if not nm:
                    stats["skipped_degree"] += rem_leaves
                    undo_state(depth, s)
                    continue
            else:
                nm = 0
            dfs(depth + 1, nondigon + (s != _DIG), nm)
            undo_state(depth, s)

    dfs(0, 0, full_fmask)
    out = dict(stats)
    out["survivors"] = survivors
    return out
