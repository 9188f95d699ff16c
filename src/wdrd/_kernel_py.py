"""Pure-Python orientation-search kernel.

Reference implementation of the hot loop: depth-first enumeration of edge
states (Forward / Backward / Digon) over a fixed underlying graph, with a
full candidate check at every leaf, and of the canonical search of
`wdrd.canon`.  `_kernel.c` implements the same contract in C.  This
module is the pure backend of `wdrd.kernel`: its `search_run`,
`leaf_stage` and `canonical_permutation` are the three entry points every
backend has, and `wdrd.kernel` selects it when the C kernel is
unavailable.

Contract: this module is the one definition of what `wdrd.search` and
both kernels share; `wdrd.kernel` re-exports it and `_kernel.c` mirrors it
(tests/test_kernel_backend.py checks the C side).  It holds the edge-state
codes FWD, BWD and DIG, the size limits MAX_N and MAX_EDGES, the memo
budget MEMO_BYTES, the counter keys STAT_KEYS and NOT_STRONG_KEY, the
leaf stages LEAF_STAGES, and `check_arguments` and `check_masks`, the
argument checks of the entry points (`check_masks` serves both
`leaf_stage` and `canonical_permutation`).  `search_run(n, edges,
prefixes=((),), prune_degree=False)` runs a list of disjoint prefixes in order, one
degree-pruned depth-first search per prefix, which tries only
`prefix[depth]` at the depths below len(prefix).  Each prefix p stands for
its 3^(|E| - len(p)) completions.  The call returns the search's counters
of STAT_KEYS summed over its prefixes, which account for every leaf of
every prefix (examined + skipped_degree = the sum of 3^(|E| - len(p))),
and the surviving words in prefix order, each prefix's in visiting order.
Unless `prune_degree`, it also returns, under NOT_STRONG_KEY, the number N
of completions whose digraph is not strongly connected, summed over the
prefixes; `wdrd.search` derives the unpruned counters from it.  One call
over a list equals the sum of one call per prefix; the prefixes share only
the memo of N's count.  The kernel knows no symmetry; `wdrd.search`
applies arc reversal by choosing the prefixes.
`check_arguments` rejects what neither kernel supports: more than
MAX_EDGES edges (TooManyEdgesError) or MAX_N vertices (TooLargeError), and
with ValueError no vertex, an endpoint out of range, a graph that is not
simple, no prefix, a bad prefix, or two prefixes of which one extends the
other, which would count the leaves they share twice.  `check_masks`
rejects with ValueError a leaf that `leaf_stage` cannot take: no vertex or
more than MAX_N, other than one out-mask and one in-mask per vertex, or a
mask naming a vertex out of range.  The search's own leaves skip that
check, as they come from arguments already checked.

Leaf pipeline (cheapest first, the same steps in `_kernel.c`;
`leaf_stage` runs steps 2-6 on one digraph and names the step that
rejects it; its BFS is `wdrd.digraph._bfs`, the package's only one):
  1. all-digon candidates are symmetric, hence never weakly
     distance-regular (counted as `symmetric`).  The search spots them by
     fmax = 0 (see below): any one-way arc makes fmax at least 1;
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
     must depend only on the class l of (x, y).  With nc classes, the
     sorted keys class(x,z) nc + class(z,y), z in V, of each pair must
     equal those of its class's first pair (the multiset argument of
     `wdrd.scheme`), checked with early exit.
Steps 5 and 6 compare each pair with the first pair of its class.  Step 4
numbers the classes in order of first appearance in row 0 and rejects a
row with a class that row 0 lacks, so each class's first pair lies in
row 0, where its label first equals the number of classes met so far.
Steps 3 and 5 reject only leaves that steps 4 and 6 would reject, so all
of steps 3-6 count as `axiom`.  Every word that passes is a survivor;
`wdrd.search` classifies the survivors when it re-verifies them.

The search is degree-pruned in both modes.  The prune cuts subtrees
that cannot satisfy the valency constancy a scheme forces: every
vertex must carry the same digon degree d, the same out-only degree f and
the same in-only degree f (out-only equals in-only because dual classes
have equal valencies), with d + 2f = k on a k-regular underlying graph;
an irregular graph carries no scheme.  These are necessary conditions, so
pruning never discards a candidate that would have survived the full
check.  The search tests them as one inequality.  It carries dmax, the
largest digon degree of any vertex so far, and fmax, the largest out-only
or in-only degree, and cuts a subtree when dmax + 2 fmax > k, with k = -1
on an irregular graph so that the first edge cuts every branch.  Degrees
only grow down the tree, so a target (d, (k - d) / 2) stays reachable iff
d >= dmax and (k - d) / 2 >= fmax: the d in [dmax, k - 2 fmax] with
d = k (mod 2).  The top one, k - 2 fmax, has the parity of k, so some
target stays exactly when dmax + 2 fmax <= k.  One function, `cut`,
decides a child past the bound before the search visits it and adds its
3^(|E| - max(d, len(prefix))) leaves, d its depth, to `skipped_degree`.

`not_strong_counter` computes N by a DP over the edges in search order,
from the end of the prefix.  Its state is the depth and the reachability
closure of the arcs oriented so far, kept as the set each vertex reaches
and the set that reaches it; the memo key is the depth and the reach sets.
The closure lemma, closure(D + X) = closure(closure(D) + X), makes the
strong connectivity of every completion a function of the depth and the
closure, so the DP may memoise on them.  A state counts 0 when its closure
is complete (strongly connected already), 3^(|E| - depth) when the arcs
plus every remaining edge as a digon are not strongly connected (adding
arcs never breaks strong connectivity, so no completion is), and otherwise
the sum over Forward, Backward and Digon for the next edge.  The memo
lives per call and starts small; the prefixes of a call share it, which is
sound because a state's count depends on its depth and closure alone, not
on the prefix that reached it.  It holds at most `_memo_states(n)`
states, as many as the memo of `_kernel.c`: a hash table of (n + 2)-word
slots that doubles from the C constant MEMO_MIN (16) slots while it fits
in MEMO_BYTES, and is at most half full.  MEMO_MIN is a power of two and
below the largest table (65,536 slots or more at n <= MAX_N), so that is
half of the largest power of two of slots within MEMO_BYTES.  Past that
the memo stops inserting, and the count stays exact.
"""

from __future__ import annotations

from .digraph import _bfs, _mask_bits
from .errors import CanonicalizationError, TooLargeError, TooManyEdgesError

# Size limits of both kernels: one 64-bit adjacency mask per vertex in C,
# and 3^|E| must fit in a signed 64-bit counter.
MAX_N = 64
MAX_EDGES = 39
# Per-call byte budget of the memo of `not_strong_counter` (see above).
MEMO_BYTES = 1 << 26

# Edge states, in search order.
FWD, BWD, DIG = 0, 1, 2
# Counter keys of every search_run result, in the order of the C counters.
STAT_KEYS = ("examined", "skipped_degree", "symmetric",
             "not_strongly_connected", "axiom")
# Key of N in the result of an unpruned search_run (see above).
NOT_STRONG_KEY = "not_strong_completions"
# What rejects a leaf that is not symmetric, in the order of the C leaf
# stages; None when nothing does (see `leaf_stage`).
LEAF_STAGES = (None, "not_strongly_connected", "layers", "classes", "arcs",
               "tensor")


def check_arguments(n, edges, prefixes):
    """Raise unless `search_run` supports the arguments: at most MAX_EDGES
    edges (TooManyEdgesError) on 1..MAX_N vertices (TooLargeError above),
    a simple graph (no loop, no edge given twice in either order) and a
    non-empty list of prefixes, each a sequence of at most one state 0, 1
    or 2 per edge, none of which extends another; ValueError otherwise."""
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
    if not prefixes:
        raise ValueError("need at least one prefix")
    ordered = []
    for prefix in prefixes:
        try:
            prefix = tuple(prefix)
        except TypeError:
            raise ValueError(f"prefix {prefix!r} is not a sequence of "
                             "states") from None
        if len(prefix) > ne:
            raise ValueError(f"prefix of {len(prefix)} states for {ne} edges")
        if any(s not in (FWD, BWD, DIG) for s in prefix):
            raise ValueError("prefix states must be 0, 1 or 2")
        ordered.append(prefix)
    # in lexicographic order, a prefix extended by any other is extended by
    # the next one
    ordered.sort()
    for a, b in zip(ordered, ordered[1:]):
        if b[:len(a)] == a:
            raise ValueError(f"prefix {list(b)} extends prefix {list(a)}")


def check_masks(n, out_m, in_m):
    """Raise ValueError unless `leaf_stage` and `canonical_permutation`
    support the arguments: 1..MAX_N vertices, and n out-masks and n
    in-masks of vertices 0..n - 1."""
    if not 1 <= n <= MAX_N or len(out_m) != n or len(in_m) != n:
        raise ValueError(f"need 1..{MAX_N} vertices and a mask per vertex")
    if any(m < 0 or m >> n for m in (*out_m, *in_m)):
        raise ValueError(f"mask outside vertices 0..{n - 1}")


def leaf_stage(n, out_m, in_m):
    """Run a digraph that is not symmetric, given by its out- and
    in-neighbour masks, through the leaf checks in pipeline order.
    Returns the stage that rejects it, as named in LEAF_STAGES,
    or None when it passes every check."""
    check_masks(n, out_m, in_m)
    return _leaf_stage(n, out_m, in_m)


def _leaf_stage(n, out_m, in_m):
    """`leaf_stage` without the argument check, for the search's leaves."""
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
    # two-arc path counts, each a sum of intersection numbers; a class's
    # first pair is the one whose label is the number of references so far
    ref_arcs = []
    for x in range(n):
        bx = x * n
        ox = out_m[x]
        for y in range(n):
            lab = labels[bx + y]
            k = (ox & in_m[y]).bit_count()
            if lab == len(ref_arcs):
                ref_arcs.append(k)
            elif ref_arcs[lab] != k:
                return "arcs"
    # full intersection-number constancy, as sorted keys
    refs = []
    for x in range(n):
        bx = x * n
        for y in range(n):
            lab = labels[bx + y]
            keys = sorted([labels[bx + z] * c + labels[z * n + y]
                           for z in range(n)])
            if lab == len(refs):
                refs.append(keys)
            elif refs[lab] != keys:
                return "tensor"
    return None


def _memo_states(n):
    """The most states the memo of `not_strong_counter` holds on n
    vertices: half of the largest power of two of (n + 2)-word slots in
    MEMO_BYTES, as `_kernel.c` keeps it."""
    return (1 << (MEMO_BYTES // (8 * (n + 2))).bit_length()) // 4


def not_strong_counter(n, edges):
    """The function that gives, for a prefix over `edges`, the number N of
    its completions whose digraph is not strongly connected, by the
    memoised reachability DP of the module docstring.  Its calls share
    one memo."""
    ne = len(edges)
    full = (1 << n) - 1
    # rest[d][x]: x's neighbours over edges d.. (none at d = ne)
    rest = [[0] * n for _ in range(ne + 1)]
    for d in range(ne - 1, -1, -1):
        rest[d] = rest[d + 1][:]
        u, v = edges[d]
        rest[d][u] |= 1 << v
        rest[d][v] |= 1 << u
    limit = _memo_states(n)
    memo: dict[tuple[int, ...], int] = {}

    def add_arc(reach, coreach, u, v):
        """The closure with arc u -> v added: x reaches y when it did, or
        when x reaches u and v reaches y.  reach[x] is the set x reaches,
        coreach[y] the set that reaches y."""
        rv, cu = reach[v], coreach[u]
        return ([r | rv if cu >> x & 1 else r for x, r in enumerate(reach)],
                [c | cu if rv >> y & 1 else c for y, c in enumerate(coreach)])

    def orient(reach, coreach, depth, s):
        u, v = edges[depth]
        if s == BWD:
            u, v = v, u
        reach, coreach = add_arc(reach, coreach, u, v)
        if s == DIG:
            reach, coreach = add_arc(reach, coreach, v, u)
        return reach, coreach

    def count(depth, reach, coreach):
        if reach[0] == full and coreach[0] == full:
            return 0
        key = (depth, *reach)
        got = memo.get(key)
        if got is not None:
            return got
        extra = rest[depth]
        if (_bfs([r | e for r, e in zip(reach, extra)], 0)[0] != full
                or _bfs([c | e for c, e in zip(coreach, extra)], 0)[0]
                != full):
            return 3 ** (ne - depth)
        got = sum(count(depth + 1, *orient(reach, coreach, depth, s))
                  for s in (FWD, BWD, DIG))
        if len(memo) < limit:
            memo[key] = got
        return got

    def completions(prefix):
        reach = [1 << x for x in range(n)]
        coreach = reach[:]
        for depth, s in enumerate(prefix):
            reach, coreach = orient(reach, coreach, depth, s)
        return count(len(prefix), reach, coreach)

    return completions


def search_run(n, edges, prefixes=((),), prune_degree=False):
    """Enumerate and check all completions of each of `prefixes` over
    `edges`, the prefixes in order.

    edges: sequence of (u, v) with u < v, in processing order.
    prefixes: disjoint prefixes, each the states fixed for
    edges[:len(prefix)].
    Returns the counters of the degree-pruned search, summed over the
    prefixes, with survivor edge-state words (bytes), and unless
    `prune_degree` the summed N under NOT_STRONG_KEY.
    """
    edges = list(edges)
    prefixes = list(prefixes)
    check_arguments(n, edges, prefixes)
    ne = len(edges)
    stats = dict.fromkeys(STAT_KEYS, 0)
    survivors: list[bytes] = []

    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1

    # An irregular graph carries no scheme: with k = -1 the first edge cuts
    # every branch.
    k = deg[0] if all(x == deg[0] for x in deg) else -1

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

    def check_leaf(fmax):
        """fmax is 0 exactly on the all-digon leaf: a one-way arc makes
        its tail's out-only degree, and so fmax, at least 1."""
        stats["examined"] += 1
        if fmax == 0:
            stats["symmetric"] += 1
            return
        stage = _leaf_stage(n, out_m, in_m)
        if stage is None:
            survivors.append(bytes(states))
        elif stage == "not_strongly_connected":
            stats[stage] += 1
        else:
            stats["axiom"] += 1

    def cut(leaves):
        """Skip the `leaves` leaves of a child past the degree bound without
        visiting it."""
        stats["skipped_degree"] += leaves

    def dfs(depth, dmax, fmax):
        """dmax and fmax: the largest digon and the largest out-only or
        in-only degree of any vertex in the edges oriented so far.  Runs
        below the current `prefix` of the loop at the end, np_ states
        long."""
        if depth == ne:
            check_leaf(fmax)
            return
        choices = prefix[depth:depth + 1] if depth < np_ else (FWD, BWD, DIG)
        leaves = 3 ** (ne - max(depth + 1, np_))
        u, v = edges[depth]
        for s in choices:
            orient(depth, s, 1)
            states[depth] = s
            dm = max(dmax, dd[u], dd[v])
            fm = max(fmax, oo[u], ii[u], oo[v], ii[v])
            if dm + 2 * fm > k:
                cut(leaves)
            else:
                dfs(depth + 1, dm, fm)
            orient(depth, s, -1)

    for prefix in prefixes:
        np_ = len(prefix)
        dfs(0, 0, 0)
    out = {**stats, "survivors": survivors}
    if not prune_degree:
        out[NOT_STRONG_KEY] = sum(map(not_strong_counter(n, edges), prefixes))
    return out


def canonical_permutation(n, out_m, in_m):
    """The vertex order minimizing the layered adjacency key of the digraph
    with out- and in-neighbour masks `out_m` and `in_m`: the search of
    `wdrd.canon`, whose docstring defines the key, the colour refinement
    and the automorphism pruning.  Arguments as for `leaf_stage`."""
    check_masks(n, out_m, in_m)
    return _canonical_permutation(n, out_m, in_m)


def _canonical_permutation(n, out_m, in_m):
    """`canonical_permutation` without the argument check, on any number
    of vertices: `wdrd.canon` runs it above MAX_N."""
    colors = _refined_colors(n, out_m, in_m)
    # positions are filled colour-block by colour-block
    block_color = sorted(colors)
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    outs = [list(_mask_bits(m)) for m in out_m]
    ins = [list(_mask_bits(m)) for m in in_m]

    key = [0] * n
    cur = [0] * n
    perm: list[int] = []
    used = [False] * n
    best: list[int] | None = None
    best_perm: tuple[int, ...] | None = None
    autos: list[list[int]] = []  # automorphisms found, as vertex maps

    # `tied` says cur[:p] == best[:p]; otherwise cur[:p] < best[:p], or
    # there is no best yet.  `best` changes only at a leaf below every
    # open frame, which then ties them all.  Returns whether it changed.
    def dfs(p: int, tied: bool) -> bool:
        nonlocal best, best_perm
        if p == n:
            if tied:
                # perm relabels the digraph exactly as best_perm does
                g = [0] * n
                for a, b in zip(best_perm, perm):
                    g[a] = b
                autos.append(g)
                return False
            best = cur.copy()
            best_perm = tuple(perm)
            return True
        improved = False
        cands = [v for v in by_color[block_color[p]] if not used[v]]
        cands.sort(key=key.__getitem__)
        low = 1 << (n - 1 - p)
        high = low << n
        # orbits of the found automorphisms that fix perm[:p] pointwise,
        # as a union-find forest, extended when a child finds more
        orbit: list[int] | None = None
        folded = 0
        explored: list[int] = []
        for v in cands:
            k = key[v]
            if tied and k > best[p]:
                break  # keys ascend: every later candidate is worse too
            if folded < len(autos):
                orbit = _join_orbits(orbit, autos[folded:], perm, n)
                folded = len(autos)
            if orbit is not None:
                root = _find(orbit, v)
                if any(_find(orbit, u) == root for u in explored):
                    continue  # the image of an explored sibling's subtree
            explored.append(v)
            cur[p] = k
            used[v] = True
            perm.append(v)
            for w in outs[v]:
                key[w] += high
            for w in ins[v]:
                key[w] += low
            if dfs(p + 1, tied and k == best[p]):
                improved = tied = True
            for w in outs[v]:
                key[w] -= high
            for w in ins[v]:
                key[w] -= low
            perm.pop()
            used[v] = False
        return improved

    dfs(0, False)
    if best_perm is None:
        raise CanonicalizationError("the canonical search reached no leaf")
    return best_perm


def _refined_colors(n, out_m, in_m) -> list[int]:
    """Iterated neighbourhood refinement with canonical (sorted) colour ids.

    A vertex's first colour is its signature (out-degree, in-degree, digon
    degree).  Then a vertex's signature is its colour followed by the
    sorted pairs (colour of w, link to w) over w != v, where the link
    2·adj[w, v] + adj[v, w] is below 4; each pair is encoded as colour·4 +
    link, which orders the pairs the same way."""
    colors = _canonical_ids((o.bit_count(), i.bit_count(), (o & i).bit_count())
                            for o, i in zip(out_m, in_m))
    links = [[(w, 2 * (in_m[v] >> w & 1) + (out_m[v] >> w & 1))
              for w in range(n) if w != v] for v in range(n)]
    while True:
        new = _canonical_ids(
            (colors[v], *sorted(4 * colors[w] + link for w, link in row))
            for v, row in enumerate(links))
        if new == colors:
            return colors
        colors = new


def _canonical_ids(sigs) -> list[int]:
    """Each signature's rank among the distinct signatures, sorted."""
    sigs = list(sigs)
    order = {s: i for i, s in enumerate(sorted(set(sigs)))}
    return [order[s] for s in sigs]


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _join_orbits(parent, gens, fixed, n: int):
    """Merge the orbits in the union-find forest `parent` (None: all
    singletons) by each of `gens` that fixes every vertex of `fixed`;
    None while no generator qualifies."""
    for g in gens:
        if any(g[x] != x for x in fixed):
            continue
        if parent is None:
            parent = list(range(n))
        for x in range(n):
            a, b = _find(parent, x), _find(parent, g[x])
            if a != b:
                parent[b] = a
    return parent
