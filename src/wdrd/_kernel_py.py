"""Pure-Python orientation-search kernel.

Reference implementation of the hot loop: depth-first enumeration of edge
states (Forward / Backward / Digon) over a fixed underlying graph, with a
full candidate check at every leaf.  `_kernel.c` implements the same
contract in C; `wdrd.kernel` compiles and loads it when a C compiler is
available and otherwise selects this module.

Contract: this module is the one definition of what `wdrd.search` and
both kernels share; `wdrd.kernel` re-exports it and `_kernel.c` mirrors it
(tests/test_kernel_backend.py checks the C side).  It holds the edge-state
codes FWD, BWD and DIG, the size limits MAX_N and MAX_EDGES, the counter
keys STAT_KEYS, the leaf stages LEAF_STAGES and `check_arguments`.
`search_run(n, edges, prefix=(), prune_degree=False)` covers the
3^(|E| - len(prefix)) completions of `prefix` in one depth-first search,
which tries only `prefix[depth]` at the depths below len(prefix).  It
returns the counters of STAT_KEYS, which account for every leaf of the
branch (examined + skipped_degree = 3^(|E| - len(prefix))), and the
surviving words in visiting order.  The kernel knows no symmetry;
`wdrd.search` applies arc reversal by choosing the prefixes.
`check_arguments` rejects what neither kernel supports: more than
MAX_EDGES edges (TooManyEdgesError) or MAX_N vertices (TooLargeError), and
with ValueError no vertex, an endpoint out of range, a graph that is not
simple, or a bad prefix.

Leaf pipeline (cheapest first, the same steps in `_kernel.c`;
`leaf_stage` runs steps 2-6 on one digraph and names the step that
rejects it; its BFS is `wdrd.digraph._bfs`, the package's only one):
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
constancy a scheme forces: every vertex must carry the same digon degree d,
the same out-only degree f and the same in-only degree f (out-only equals
in-only because dual classes have equal valencies), with d + 2f = k on a
k-regular underlying graph; an irregular graph carries no scheme.  These
are necessary conditions, so pruning never discards a candidate that
would have survived the full check.  The search tests them as one
inequality.  It carries dmax, the largest digon degree of any vertex so
far, and fmax, the largest out-only or in-only degree, and cuts a subtree
when dmax + 2 fmax > k, with k = -1 on an irregular graph so that the
first edge cuts every branch.  Degrees only grow down the tree, so a
target (d, (k - d) / 2) stays reachable iff d >= dmax and
(k - d) / 2 >= fmax: the d in [dmax, k - 2 fmax] with d = k (mod 2).  The
top one, k - 2 fmax, has the parity of k, so some target stays exactly
when dmax + 2 fmax <= k.

The unpruned search carries dmax and fmax as well, and counts whole
subtrees at once.  Call a node doomed when dmax + 2 fmax > k and one of
its edges is not a digon.  No leaf below a doomed node is weakly
distance-regular, since by the argument above it reaches no degree target,
and none is symmetric, since the non-digon edge stays.  So the leaf
pipeline counts each of those leaves as `not_strongly_connected` or as
`axiom`, and strong connectivity alone decides which.  Adding arcs never
breaks strong connectivity, so `settle` decides a doomed node at depth
>= len(prefix), leaf or not: it adds 3^(|E| - depth) to `examined` and to
`axiom` when the arcs oriented so far are already strongly connected, and
to `examined` and to `not_strongly_connected` when they are not even with
every remaining edge added as a digon, the largest completion.  Otherwise
the search descends.  At a leaf no edge remains, so the second test only
negates the first; `settle` skips it and counts the leaf (3^0 = 1) either
way.  The counters and survivors are those of the leaf-by-leaf sweep.  The
non-digon edge matters: on an irregular graph (k = -1) every node is past
the bound, and the symmetric all-digon leaf lies below the nodes whose
edges are all digons.  The degree prune cuts a doomed node before visiting
it, so only the unpruned search meets one.
"""

from __future__ import annotations

from .digraph import _bfs
from .errors import TooLargeError, TooManyEdgesError

# Size limits of both kernels: one 64-bit adjacency mask per vertex in C,
# and 3^|E| must fit in a signed 64-bit counter.
MAX_N = 64
MAX_EDGES = 39

# Edge states, in search order.
FWD, BWD, DIG = 0, 1, 2
# Counter keys of every search_run result, in the order of the C counters.
STAT_KEYS = ("examined", "skipped_degree", "symmetric",
             "not_strongly_connected", "axiom")
# What rejects a leaf that is not symmetric, in the order of the C leaf
# stages; None when nothing does (see `leaf_stage`).
LEAF_STAGES = (None, "not_strongly_connected", "layers", "classes", "arcs",
               "tensor")


def check_arguments(n, edges, prefix):
    """Raise unless `search_run` supports the arguments: at most MAX_EDGES
    edges (TooManyEdgesError) on 1..MAX_N vertices (TooLargeError above),
    a simple graph (no loop, no edge given twice in either order) and at
    most one state 0, 1 or 2 per edge in `prefix`; ValueError otherwise."""
    ne = len(edges)
    if ne > MAX_EDGES:
        raise TooManyEdgesError(f"kernel limit: at most {MAX_EDGES} edges")
    if n > MAX_N:
        raise TooLargeError(f"kernel limit: at most {MAX_N} vertices")
    if n < 1:
        raise ValueError(f"kernel needs at least one vertex, got {n}")
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"loop edge ({u}, {v})")
        if (u, v) in seen or (v, u) in seen:
            raise ValueError(f"edge ({u}, {v}) given twice")
        seen.add((u, v))
    if len(prefix) > ne:
        raise ValueError(f"prefix of {len(prefix)} states for {ne} edges")
    if any(s not in (FWD, BWD, DIG) for s in prefix):
        raise ValueError("prefix states must be 0, 1 or 2")


def leaf_stage(n, out_m, in_m):
    """Run a digraph that is not symmetric, given by its out- and
    in-neighbour masks, through the leaf checks in pipeline order.
    Returns the stage that rejects it, as named in LEAF_STAGES,
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
    check_arguments(n, edges, prefix)
    ne = len(edges)
    np_ = len(prefix)
    stats = dict.fromkeys(STAT_KEYS, 0)
    survivors: list[bytes] = []

    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1

    # An irregular graph carries no scheme: with k = -1 the first edge cuts
    # every branch in pruned mode.
    k = deg[0] if all(x == deg[0] for x in deg) else -1
    branch_leaves = 3 ** (ne - np_)

    states = bytearray(ne)
    out_m = [0] * n
    in_m = [0] * n
    dd = [0] * n
    oo = [0] * n
    ii = [0] * n

    def orient(depth, s, d):
        """Add (d = 1) or remove (d = -1) the arcs of edge `depth` in state
        s.  Toggling the bits is safe because the graph is simple: no other
        edge owns them."""
        u, v = edges[depth]
        if s == BWD:
            u, v = v, u
        out_m[u] ^= 1 << v
        in_m[v] ^= 1 << u
        if s == DIG:
            out_m[v] ^= 1 << u
            in_m[u] ^= 1 << v
            dd[u] += d
            dd[v] += d
        else:
            oo[u] += d
            ii[v] += d

    # rest[d][x]: x's neighbours over edges d.. (none at d = ne)
    rest = [[0] * n for _ in range(ne + 1)]
    for d in range(ne - 1, -1, -1):
        rest[d] = rest[d + 1][:]
        u, v = edges[d]
        rest[d][u] |= 1 << v
        rest[d][v] |= 1 << u
    full = (1 << n) - 1

    def strong(extra=None):
        """Whether the oriented arcs, with each edge of `extra` added both
        ways, form a strongly connected digraph: the forward and the
        backward search from vertex 0 both reach every vertex."""
        for masks in (out_m, in_m):
            if extra is not None:
                masks = [m | e for m, e in zip(masks, extra)]
            if _bfs(masks, 0)[0] != full:
                return False
        return True

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

    def settle(depth):
        """Count the subtree of a doomed node at depth >= len(prefix) in
        bulk when strong connectivity is already settled, as it always is
        at a leaf; returns whether it counted."""
        if strong():
            key = "axiom"
        elif depth == ne or not strong(rest[depth]):
            key = "not_strongly_connected"
        else:
            return False
        stats["examined"] += 3 ** (ne - depth)
        stats[key] += 3 ** (ne - depth)
        return True

    def dfs(depth, nondigon, dmax, fmax):
        """dmax and fmax: the largest digon and the largest out-only or
        in-only degree of any vertex in the edges oriented so far.  The
        node is doomed when dmax + 2 fmax > k and it has a non-digon edge;
        the degree prune cuts such a node before the call.  The bound is
        tested first: it is false on every node of a pruned search."""
        if (dmax + 2 * fmax > k and nondigon and depth >= np_
                and settle(depth)):
            return
        if depth == ne:
            stats["examined"] += 1
            check_leaf(nondigon)
            return
        if depth < np_:  # a fixed state: pruning it cuts the whole branch
            choices, rem_leaves = prefix[depth:depth + 1], branch_leaves
        else:
            choices, rem_leaves = (FWD, BWD, DIG), 3 ** (ne - depth - 1)
        u, v = edges[depth]
        for s in choices:
            orient(depth, s, 1)
            states[depth] = s
            dm = max(dmax, dd[u], dd[v])
            fm = max(fmax, oo[u], ii[u], oo[v], ii[v])
            if prune_degree and dm + 2 * fm > k:
                stats["skipped_degree"] += rem_leaves
            else:
                dfs(depth + 1, nondigon + (s != DIG), dm, fm)
            orient(depth, s, -1)

    dfs(0, 0, 0, 0)
    out = dict(stats)
    out["survivors"] = survivors
    return out
