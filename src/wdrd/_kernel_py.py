"""Pure-Python orientation-search kernel.

Reference implementation of the hot loop: depth-first enumeration of edge
states (Forward / Backward / Digon) over a fixed underlying graph, with a
full candidate check at every leaf, of the canonical search of
`wdrd.canon`, and of the two tensor checks of `wdrd.scheme`.  `_kernel.c`
implements the same contract in C.  This module is the pure backend of
`wdrd.kernel`: its `search_run`, `leaf_stage`, `canonical_permutation`,
`axiom_iv_witness` and `product_witness` are the five entry points every
backend has, and `wdrd.kernel` selects it when the C kernel is
unavailable.

Contract: this module is the one definition of what `wdrd.search` and
both kernels share; `wdrd.kernel` re-exports it and `_kernel.c` mirrors it
(tests/test_kernel_backend.py checks the C side).  It holds the edge-state
codes FWD, BWD and DIG, the size limits MAX_N and MAX_EDGES, the counter
keys STAT_KEYS, the leaf stages LEAF_STAGES, and `check_arguments`,
`check_masks`, `check_partition` and `check_tensor`, the argument checks
of the entry points (`check_masks` serves both `leaf_stage` and
`canonical_permutation`).  `search_run(n,
edges, prefixes=((),), budget=0)` runs a list of disjoint prefixes in
order, one degree-pruned depth-first search per prefix, which tries only
`prefix[depth]` at the depths below len(prefix).  Each prefix p stands for
its 3^(|E| - len(p)) completions.  A leaf budget above 0 stops the call
between prefixes: it starts no further prefix once it has examined at
least `budget` leaves, so it always finishes the first; 0 sets no limit.
The call returns the search's counters of STAT_KEYS summed over the
prefixes it finished, which account for every leaf of each of them
(examined + skipped_degree = the sum of 3^(|E| - len(p))), the surviving
words in prefix order, each prefix's in visiting order, and `finished`,
how many prefixes it finished, from the first.  One call over a list
equals the sum of one call per finished prefix.  The budget only decides
where a call stops, so thread safety and the counts of a finished prefix
are the same with it as without.  The kernel
knows no symmetry and counts only the leaves it visits: `wdrd.search`
applies arc reversal by choosing the prefixes, and derives the counters of
an unpruned sweep from the graph alone: `search._not_strong_words` counts
the words whose digraph is not strongly connected once per graph, by the
source-component recurrence that the `wdrd.search` docstring states.
`check_arguments` rejects what neither kernel supports: more than
MAX_EDGES edges (TooManyEdgesError) or MAX_N vertices (TooLargeError), and
with ValueError no vertex, an endpoint out of range, a graph that is not
simple, no prefix, a bad prefix, two prefixes of which one extends the
other, which would count the leaves they share twice, or a budget that is
not an int in 0..2^63 - 1.  `check_masks`
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

The search is degree-pruned.  The prune cuts subtrees that cannot
satisfy the valency constancy a scheme forces: every vertex must carry
the same digon degree d, the same out-only degree f and the same in-only
degree f (out-only equals in-only because dual classes have equal
valencies), with d + 2f = k on a k-regular underlying graph; an irregular
graph carries no scheme.  These are necessary conditions, so pruning
never discards a candidate that would have survived the full check.  The
search tests them as one inequality.  It carries dmax, the
largest digon degree of any vertex so far, and fmax, the largest out-only
or in-only degree, and cuts a subtree when dmax + 2 fmax > k, with k = -1
on an irregular graph so that the first edge cuts every branch.  Degrees
only grow down the tree, so a target (d, (k - d) / 2) stays reachable iff
d >= dmax and (k - d) / 2 >= fmax: the d in [dmax, k - 2 fmax] with
d = k (mod 2).  The top one, k - 2 fmax, has the parity of k, so some
target stays exactly when dmax + 2 fmax <= k.  One function, `cut`,
decides a child past the bound before the search visits it and adds its
3^(|E| - max(d, len(prefix))) leaves, d its depth, to `skipped_degree`.

Scheme checks.  `axiom_iv_witness(class_of, reps)` runs axiom (iv) of
`wdrd.scheme.verify_association_scheme` on an n x n label matrix:
`reps[l]` is a cell x n + y of class l, its representative pair (x, y).
It returns the smallest (i, j, l) such that p^l_ij = #{z : (x,z) in i,
(z,y) in j} is not the same on every pair (x, y) of class l, which no
choice of representatives changes, or None when every intersection
number is constant.  `product_witness(p, commute=False)` takes an
intersection tensor p[i][j][l] = p^l_ij.  It returns the smallest
(i, l, m, j) where sum_r p^r_il p^j_mr differs from sum_t p^t_mi p^j_tl,
the composition identity of `wdrd.scheme.check_intersection_identities`.
With `commute` it returns the smallest (a, b, i, j), a < b, where
(B_a B_b)[i][j] differs from (B_b B_a)[i][j], with B_c[i][j] = p^j_ci.
Either returns None when there is no such place.  Here they run in numpy:
the sorted keys of each pair against its representative's (the multiset
argument of `wdrd.scheme`), and float64 products over one slice at a
time, which BLAS runs.  `_kernel.c` counts the keys in a table instead
and sums products over the tensor's nonzeros, with the same results.
`check_partition` rejects with ValueError a label matrix that is not
square or holds a label outside 0..len(reps) - 1, and representatives
that are not cells of their classes.  `check_tensor` rejects with
ValueError a tensor that is not nc x nc x nc integers, nc >= 1, with
entries in 0..t where nc t^2 < 2^53: then every sum of products is an
exact int64, and an exact float64 here.  The compiled axiom pass takes at
most n classes; a partition with more classes than vertices is never a
scheme, and `wdrd.scheme` runs it here.
"""

from __future__ import annotations

import numpy as np

from .digraph import _bfs, _mask_bits
from .errors import CanonicalizationError, TooLargeError, TooManyEdgesError

# Size limits of both kernels: one 64-bit adjacency mask per vertex in C,
# and 3^|E| must fit in a signed 64-bit counter.
MAX_N = 64
MAX_EDGES = 39

# Edge states, in search order.
FWD, BWD, DIG = 0, 1, 2
_STATES = frozenset((FWD, BWD, DIG))
# Counter keys of every search_run result, in the order of the C counters.
STAT_KEYS = ("examined", "skipped_degree", "symmetric",
             "not_strongly_connected", "axiom")
# What rejects a leaf that is not symmetric, in the order of the C leaf
# stages; None when nothing does (see `leaf_stage`).
LEAF_STAGES = (None, "not_strongly_connected", "layers", "classes", "arcs",
               "tensor")
# Entries of the (x, y, z) key array sorted per chunk of rows x in
# `axiom_iv_witness`; bounds its buffers to a few MB.
_SORT_ENTRIES = 1 << 20


def check_arguments(n, edges, prefixes, budget=0):
    """Raise unless `search_run` supports the arguments: at most MAX_EDGES
    edges (TooManyEdgesError) on 1..MAX_N vertices (TooLargeError above),
    a simple graph (no loop, no edge given twice in either order), a
    non-empty list of prefixes, each a sequence of at most one state 0, 1
    or 2 per edge, none of which extends another, and a leaf budget that
    fits the C kernel's signed 64-bit counter; ValueError otherwise."""
    if (not isinstance(budget, int) or isinstance(budget, bool)
            or not 0 <= budget < 2 ** 63):
        raise ValueError(f"budget must be an int in 0..2^63 - 1, "
                         f"got {budget!r}")
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
            states_ok = _STATES.issuperset(prefix)
        except TypeError:
            raise ValueError(f"prefix {prefix!r} is not a sequence of "
                             "states") from None
        if len(prefix) > ne:
            raise ValueError(f"prefix of {len(prefix)} states for {ne} edges")
        if not states_ok:
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


def search_run(n, edges, prefixes=((),), budget=0):
    """Enumerate and check all completions of each of `prefixes` over
    `edges`, the prefixes in order.

    edges: sequence of (u, v) with u < v, in processing order.
    prefixes: disjoint prefixes, each the states fixed for
    edges[:len(prefix)].
    budget: start no further prefix once this many leaves are examined;
    0 runs them all.
    Returns the counters of the degree-pruned search, summed over the
    prefixes it finished, with survivor edge-state words (bytes) and the
    number of finished prefixes, `finished`.
    """
    edges = list(edges)
    prefixes = list(prefixes)
    check_arguments(n, edges, prefixes, budget)
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

    finished = 0
    for prefix in prefixes:
        if budget and stats["examined"] >= budget:
            break
        np_ = len(prefix)
        dfs(0, 0, 0)
        finished += 1
    return {**stats, "survivors": survivors, "finished": finished}


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


def check_partition(class_of, reps):
    """Raise ValueError unless `axiom_iv_witness` supports the arguments: an
    n x n integer label matrix, n >= 1, with labels in 0..nc - 1, and nc =
    len(reps) cells of it, `reps[l]` a cell (x n + y) of class l."""
    co = np.asarray(class_of)
    reps = np.asarray(reps)
    if (co.ndim != 2 or co.shape[0] != co.shape[1] or not co.size
            or co.dtype.kind not in "iu"):
        raise ValueError("need an n x n integer label matrix, n >= 1")
    nc = len(reps)
    if co.min() < 0 or co.max() >= nc:
        raise ValueError(f"labels must lie in 0..{nc - 1}")
    if (reps.ndim != 1 or reps.dtype.kind not in "iu"
            or reps.min() < 0 or reps.max() >= co.size
            or (co.ravel()[reps] != np.arange(nc)).any()):
        raise ValueError("reps[l] must be a cell of class l")


def check_tensor(p):
    """Raise ValueError unless `product_witness` supports p: an nc x nc x
    nc integer array, nc >= 1, with entries in 0..t where nc t^2 < 2^53."""
    p = np.asarray(p)
    if (p.ndim != 3 or not p.size or len(set(p.shape)) != 1
            or p.dtype.kind not in "iu"):
        raise ValueError("need an nc x nc x nc integer tensor, nc >= 1")
    if p.min() < 0 or len(p) * int(p.max()) ** 2 >= 2 ** 53:
        raise ValueError("tensor entries must lie in 0..t with nc t^2 < 2^53")


def axiom_iv_witness(class_of, reps):
    """The smallest (i, j, l) such that p^l_ij is not constant on class l
    of the label matrix `class_of`, whose representative pairs are the
    cells `reps`; None when every intersection number is constant.

    Each pair's sorted keys class(x,z) nc + class(z,y) are compared with
    those of its class's representative; at the first position where two
    sorted vectors differ the smaller key is the smallest (i, j) whose
    count differs on that pair."""
    check_partition(class_of, reps)
    co = np.asarray(class_of, dtype=np.int64)
    n = len(co)
    first = np.asarray(reps, dtype=np.int64)
    nc = len(first)
    # int32 keys sort about twice as fast as int64 ones.
    ck = co.astype(np.int32 if nc * nc < 2 ** 31 else np.int64)
    rep = np.sort(ck[first // n] * nc + ck.T[first % n], axis=1)
    rows = max(1, _SORT_ENTRIES // (n * n))
    worst = None
    for x0 in range(0, n, rows):
        keys = ck[x0:x0 + rows, None, :] * nc + ck.T[None, :, :]
        keys.sort(axis=2)
        want = rep[ck[x0:x0 + rows]]
        diff = keys != want
        if diff.any():
            t = diff.argmax(axis=2)[..., None]
            bad = np.take_along_axis(diff, t, 2)[..., 0]
            key = np.minimum(np.take_along_axis(keys, t, 2),
                             np.take_along_axis(want, t, 2))[..., 0]
            cand = int((key[bad].astype(np.int64) * nc
                        + co[x0:x0 + rows][bad]).min())
            worst = cand if worst is None else min(worst, cand)
    if worst is None:
        return None
    ij, l = divmod(worst, nc)
    return (*divmod(ij, nc), l)


def product_witness(p, commute=False):
    """The smallest (i, l, m, j) where sum_r p^r_il p^j_mr differs from
    sum_t p^t_mi p^j_tl, or with `commute` the smallest (a, b, i, j), a < b,
    where B_a B_b and B_b B_a differ; None when there is none.  Products
    in float64, one slice at a time: exact by `check_tensor`."""
    check_tensor(p)
    nc = len(p)
    pf = np.asarray(p).astype(np.float64)
    by_second = np.ascontiguousarray(pf.transpose(1, 0, 2)).reshape(nc, nc * nc)
    if commute:
        for a in range(nc - 1):
            ab = (pf[a] @ by_second[:, (a + 1) * nc:]).reshape(nc, -1, nc)  # [i, b, j]
            ba = (pf[a + 1:].reshape(-1, nc) @ pf[a]).reshape(-1, nc, nc)  # [b, i, j]
            neq = ab.transpose(1, 0, 2) != ba
            if neq.any():
                b, i, j = (int(v) for v in np.argwhere(neq)[0])
                return a, a + 1 + b, i, j
        return None
    by_first = pf.reshape(nc, nc * nc)  # [t, (l, j)]
    for i in range(nc):
        lhs = (pf[i] @ by_second).reshape(nc, nc, nc)  # [l, m, j]
        rhs = (pf[:, i] @ by_first).reshape(nc, nc, nc).transpose(1, 0, 2)
        neq = lhs != rhs
        if neq.any():
            return (i, *(int(v) for v in np.argwhere(neq)[0]))
    return None
