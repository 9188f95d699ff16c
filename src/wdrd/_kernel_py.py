"""Pure-Python orientation-search kernel.

Reference implementation of the hot loop: depth-first enumeration of edge
states (Forward / Backward / Digon) over a fixed underlying graph, with a
full candidate check at every leaf.  `_kernel.c` implements the same
contract in C; `wdrd.kernel` compiles and loads it when a C compiler is
available and otherwise selects this module.

Leaf pipeline (cheapest first):
  1. all-digon candidates are symmetric, hence never weakly distance-regular;
  2. strong connectivity;
  3. two-way distance partition + constancy of all intersection numbers
     (association-scheme axiom check with early exit);
  4. commutativity of the intersection tensor.

Optional degree pruning cuts subtrees that cannot satisfy the valency
constancy a scheme forces: every vertex must carry the same digon-degree d,
the same out-only degree f and the same in-only degree f (out-only equals
in-only because dual classes have equal valencies), with d + 2f = k on a
k-regular underlying graph.  These are necessary conditions, so pruning
never discards a candidate that would have survived the full check.
"""

from __future__ import annotations

from .digraph import _bfs_reach

BACKEND = "pure"

_FWD, _BWD, _DIG = 0, 1, 2


def search_run(n, edges, prefix=(), prune_degree=False, use_reversal=False):
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
        "skipped_reversal": 0,
        "symmetric": 0,
        "not_strongly_connected": 0,
        "axiom": 0,
        "noncommutative": 0,
    }
    survivors: list[bytes] = []
    survivors_nc: list[bytes] = []

    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1

    # Feasible (digon-degree, out-only-degree) targets; empty disables leaves
    # entirely in pruned mode (an irregular graph carries no scheme).
    pairs: list[tuple[int, int]] = []
    if prune_degree:
        if ne and all(x == deg[0] for x in deg):
            k = deg[0]
            pairs = [(dl, (k - dl) // 2) for dl in range(k + 1) if (k - dl) % 2 == 0]
        elif ne == 0:
            pairs = [(0, 0)]
        full_fmask = (1 << len(pairs)) - 1
    else:
        full_fmask = 0

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
        dist = _all_pairs(out_m, n)
        # two-way distance labels
        class_of_key: dict[int, int] = {}
        labels = [0] * (n * n)
        counts0 = []
        ok = True
        for x in range(n):
            bx = x * n
            row_counts: list[int] = [0] * (len(class_of_key) + n)
            for y in range(n):
                key = dist[bx + y] * 64 + dist[y * n + x]
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
        # commutativity
        commutative = True
        for ref in refs:
            for key, cnt in ref.items():
                i, j = divmod(key, c)
                if ref.get(j * c + i, 0) != cnt:
                    commutative = False
                    break
            if not commutative:
                break
        if commutative:
            survivors.append(bytes(states))
        else:
            stats["noncommutative"] += 1
            survivors_nc.append(bytes(states))

    # replay the fixed prefix with the same accounting
    fmask = full_fmask
    all_digons = True
    nondigon = 0
    if prune_degree and not pairs:
        stats["skipped_degree"] += branch_leaves
        return _result(stats, survivors, survivors_nc)
    for t in range(np_):
        s = prefix[t]
        if use_reversal and all_digons and s == _BWD:
            stats["skipped_reversal"] += branch_leaves
            return _result(stats, survivors, survivors_nc)
        apply_state(t, s)
        states[t] = s
        nondigon += s != _DIG
        all_digons = all_digons and s == _DIG
        if prune_degree:
            u, v = edges[t]
            fmask = feasible(u, fmask)
            if fmask:
                fmask = feasible(v, fmask)
            if not fmask:
                stats["skipped_degree"] += branch_leaves
                return _result(stats, survivors, survivors_nc)

    def dfs(depth, nondigon, fmask, all_digons):
        if depth == ne:
            stats["examined"] += 1
            check_leaf(nondigon)
            return
        rem_leaves = 3 ** (ne - depth - 1)
        for s in (_FWD, _BWD, _DIG):
            if use_reversal and all_digons and s == _BWD:
                stats["skipped_reversal"] += rem_leaves
                continue
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
            dfs(depth + 1, nondigon + (s != _DIG), nm,
                     all_digons and s == _DIG)
            undo_state(depth, s)

    dfs(np_, nondigon, fmask, all_digons)
    return _result(stats, survivors, survivors_nc)


def _result(stats, survivors, survivors_nc):
    out = dict(stats)
    out["survivors"] = survivors
    out["survivors_noncomm"] = survivors_nc
    return out


def _all_pairs(out_m, n):
    big = 63  # capped sentinel; keys stay below 64*64
    dist = [big] * (n * n)
    for s in range(n):
        base = s * n
        dist[base + s] = 0
        seen = frontier = 1 << s
        depth = 0
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= out_m[low.bit_length() - 1]
                m ^= low
            frontier = nxt & ~seen
            seen |= frontier
            depth += 1
            m = frontier
            while m:
                low = m & -m
                dist[base + low.bit_length() - 1] = depth
                m ^= low
    return dist
