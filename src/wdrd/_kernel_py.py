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
`wdrd.search` applies arc reversal by choosing the prefixes.  The graph
must be simple: a loop or an edge given twice raises ValueError.

Leaf pipeline (cheapest first, the same steps in `_kernel.c`;
`leaf_stage` runs steps 2-6 on one digraph and names the step that
rejects it):
  1. all-digon candidates are symmetric, hence never weakly
     distance-regular (counted as `symmetric`);
  2. strong connectivity: one BFS from vertex 0 over the out-arcs and one
     over the in-arcs must reach every vertex (`not_strongly_connected`);
     they also record the size of each distance layer of vertex 0, and
     the out-BFS writes row 0 of the distance matrix;
  3. layers: vertex 0's in-layer sizes must equal its out-layer sizes,
     then one BFS per further vertex x writes row x and stops at the first
     layer whose size differs from vertex 0's.  Sound because in a scheme
     #{y : d(x,y) = i} is the sum of the valencies of the classes at
     out-distance i, the same for every x, and #{y : d(y,x) = i} equals it
     because dual classes have equal valencies;
  4. classes: every row must hold the two-way distance classes of row 0,
     with the same counts (the valencies);
  5. two-arc paths: #{z : x -> z -> y}, a popcount of out(x) & in(y), must
     depend only on the class of (x, y).  Sound because it is the sum of
     p^l_ij over the classes i, j at out-distance 1, where l is that class;
  6. the full intersection tensor: p^l_ij = #{z : (x,z) in i, (z,y) in j}
     must depend only on the class l of (x, y), checked with early exit.
Steps 3 and 5 reject only leaves that steps 4 and 6 would reject, so all
of steps 3-6 count as `axiom`.  Every word that passes is a survivor;
`wdrd.search` classifies the survivors when it re-verifies them.

Optional degree pruning cuts subtrees that cannot satisfy the valency
constancy a scheme forces: every vertex must carry the same digon-degree d,
the same out-only degree f and the same in-only degree f (out-only equals
in-only because dual classes have equal valencies), with d + 2f = k on a
k-regular underlying graph.  These are necessary conditions, so pruning
never discards a candidate that would have survived the full check.
"""

from __future__ import annotations

BACKEND = "pure"

_FWD, _BWD, _DIG = 0, 1, 2


def check_simple(edges):
    """Raise ValueError on a loop or on an edge given twice (in either
    order): the search orients a simple graph."""
    seen = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop edge ({u}, {v})")
        if (u, v) in seen or (v, u) in seen:
            raise ValueError(f"edge ({u}, {v}) given twice")
        seen.add((u, v))


def _bfs(masks, src, row=None, ref=None):
    """Breadth-first search from `src` over `masks`.  Writes the distance
    of each reached vertex into `row` when given.  Returns the set reached
    and the size of each distance layer, ending with an empty layer; with
    `ref`, returns None at the first layer whose size differs from ref's."""
    seen = frontier = 1 << src
    sizes = []
    depth = 0
    while True:
        size = frontier.bit_count()
        if ref is not None and ref[depth] != size:
            return None
        sizes.append(size)
        if not frontier:
            return seen, sizes
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            v = low.bit_length() - 1
            if row is not None:
                row[v] = depth
            nxt |= masks[v]
            m ^= low
        frontier = nxt & ~seen
        seen |= frontier
        depth += 1


def leaf_stage(n, out_m, in_m):
    """Run a digraph that is not symmetric, given by its out- and
    in-neighbour masks, through the leaf checks in pipeline order.
    Returns the stage that rejects it, as named in `wdrd.kernel.LEAF_STAGES`,
    or None when it passes every check."""
    full = (1 << n) - 1
    dist = [[0] * n for _ in range(n)]
    reached, lay = _bfs(out_m, 0, dist[0])
    if reached != full:
        return "not_strongly_connected"
    reached, lay_in = _bfs(in_m, 0)
    if reached != full:
        return "not_strongly_connected"
    if lay_in != lay:
        return "layers"
    for x in range(1, n):
        if _bfs(out_m, x, dist[x], lay) is None:
            return "layers"
    # every row passed on a strongly connected digraph, so every entry is
    # written and distances are at most n - 1 <= 63: class keys stay below
    # 64*64
    class_of_key: dict[int, int] = {}
    labels = [0] * (n * n)
    counts0 = []
    for x in range(n):
        bx = x * n
        row_counts = [0] * n  # every class is in row 0, so at most n
        for y in range(n):
            key = dist[x][y] * 64 + dist[y][x]
            cid = class_of_key.get(key)
            if cid is None:
                if x > 0:  # a class row 0 lacks: valencies differ
                    return "classes"
                cid = len(class_of_key)
                class_of_key[key] = cid
            labels[bx + y] = cid
            row_counts[cid] += 1
        if x == 0:
            counts0 = row_counts
        elif row_counts != counts0:
            return "classes"
    c = len(class_of_key)
    # two-arc path counts, each a sum of intersection numbers
    ref_arcs = [-1] * c
    for x in range(n):
        bx = x * n
        ox = out_m[x]
        for y in range(n):
            lab = labels[bx + y]
            k = (ox & in_m[y]).bit_count()
            if ref_arcs[lab] < 0:
                ref_arcs[lab] = k
            elif ref_arcs[lab] != k:
                return "arcs"
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
                return "tensor"
    return None


def search_run(n, edges, prefix=(), prune_degree=False):
    """Enumerate and check all completions of `prefix` over `edges`.

    edges: sequence of (u, v) with u < v, in processing order.
    prefix: states fixed for edges[:len(prefix)].
    Returns a stats dict with survivor edge-state words (bytes).
    """
    edges = list(edges)
    check_simple(edges)
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
        stage = leaf_stage(n, out_m, in_m)
        if stage is None:
            survivors.append(bytes(states))
        elif stage == "not_strongly_connected":
            stats[stage] += 1
        else:
            stats["axiom"] += 1

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
