"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive (matrix powers, triple loops,
explicit walk enumeration) and shares no code with the paths under test.
"""

from __future__ import annotations

import numpy as np

BIG = 10**6


def floyd_warshall(adj: np.ndarray) -> np.ndarray:
    """Distances of the digraph with adjacency matrix `adj`, BIG where no
    path exists; on a stack (..., n, n), of each digraph in it."""
    n = adj.shape[-1]
    dist = np.full(adj.shape, BIG, dtype=np.int64)
    dist[..., range(n), range(n)] = 0
    dist[adj] = 1
    for k in range(n):
        dist = np.minimum(dist, dist[..., :, k:k + 1] + dist[..., k:k + 1, :])
    return dist


def girth_by_walks(adj: np.ndarray) -> int | None:
    """Shortest closed walk length >= 2 via boolean matrix powers."""
    n = adj.shape[0]
    power = np.eye(n, dtype=bool)
    for length in range(1, n + 1):
        power = power @ adj
        if length >= 2 and power.diagonal().any():
            return length
    return None


def tensor_by_loops(class_of: np.ndarray, nclasses: int):
    """Intersection counts per ordered pair, or None when not constant."""
    n = class_of.shape[0]
    p = np.full((nclasses, nclasses, nclasses), -1, dtype=np.int64)
    for x in range(n):
        for y in range(n):
            counts = np.zeros((nclasses, nclasses), dtype=np.int64)
            for z in range(n):
                counts[class_of[x, z], class_of[z, y]] += 1
            l = class_of[x, y]
            for i in range(nclasses):
                for j in range(nclasses):
                    if p[i, j, l] == -1:
                        p[i, j, l] = counts[i, j]
                    elif p[i, j, l] != counts[i, j]:
                        return None
    return p


def leaf_stage_by_matrices(adj: np.ndarray) -> str | None:
    """The first condition of the kernels' leaf pipeline that a non-symmetric
    digraph violates, or None when it violates none: strong connectivity;
    equal out-distance layer sizes from every vertex, and vertex 0's
    in-distance layer sizes equal to them; equal two-way distance class
    counts in every row; two-arc path counts constant on each class; the
    full intersection tensor constant.  Distances from Floyd–Warshall,
    path counts from the squared adjacency matrix."""
    n = adj.shape[0]
    dist = floyd_warshall(adj)
    if (dist >= BIG).any():
        return "not_strongly_connected"
    layers = [np.bincount(row, minlength=n).tolist() for row in dist]
    in_layers = np.bincount(dist[:, 0], minlength=n).tolist()
    if any(lay != layers[0] for lay in layers) or in_layers != layers[0]:
        return "layers"
    keys = dist * n + dist.T
    if any(sorted(row) != sorted(keys[0]) for row in keys.tolist()):
        return "classes"
    a = adj.astype(np.int64)
    paths = a @ a
    classes, class_of = np.unique(keys, return_inverse=True)
    class_of = class_of.reshape(n, n)
    if any(len(np.unique(paths[class_of == c])) > 1
           for c in range(len(classes))):
        return "arcs"
    if tensor_by_loops(class_of, len(classes)) is None:
        return "tensor"
    return None


def _completions(edges, prefix):
    """Every completion of `prefix` over `edges` as a row of states, the
    last edge fastest."""
    m = len(edges) - len(prefix)
    free = np.indices((3,) * m, dtype=np.int8).reshape(m, 3 ** m).T
    return np.hstack([np.tile(np.asarray(prefix, dtype=np.int8),
                              (len(free), 1)), free])


def _degree_table(n, edges, words):
    """(kept, nodes) of the rule of a table of degree targets, applied to
    each row of `words`.  On a k-regular graph the targets are the
    (d, (k - d) / 2) with k - d even; an irregular graph has none.  A word
    is kept unless some prefix of it (one edge or more) leaves no target
    (d, f) with every vertex's digon degree at most d and its out-only and
    in-only degrees at most f.  `nodes` counts the root and every distinct
    prefix, leaves included, whose own prefixes all leave a target: the
    nodes a depth-first search visits when it cuts at the first prefix
    that leaves none."""
    deg = np.zeros(n, dtype=np.int64)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    k = int(deg[0])
    targets = [(d, (k - d) // 2) for d in range(k + 1) if (k - d) % 2 == 0]
    if (deg != k).any():
        targets = []
    count = len(words)
    digon, out_only, in_only = (np.zeros((count, n), dtype=np.int16)
                                for _ in range(3))
    code = np.zeros(count, dtype=np.int64)       # the first t states, base 3
    kept = np.ones(count, dtype=bool)
    nodes = 1
    for t, (u, v) in enumerate(edges):
        s = words[:, t]
        digon[:, u] += s == 2
        digon[:, v] += s == 2
        out_only[:, u] += s == 0
        in_only[:, v] += s == 0
        out_only[:, v] += s == 1
        in_only[:, u] += s == 1
        code = code * 3 + s
        # every vertex's degrees are at most (d, f) when the largest are
        dmax, fmax = digon.max(1), np.maximum(out_only, in_only).max(1)
        leaves_one = np.zeros(count, dtype=bool)
        for d, f in targets:
            leaves_one |= (dmax <= d) & (fmax <= f)
        kept &= leaves_one
        nodes += len(np.unique(code[kept]))
    return kept, nodes


def degree_prune_by_words(n, edges, prefix=()):
    """(examined, skipped, nodes) of the degree-pruned branch `prefix`,
    decided word by word with the rule of `_degree_table`: a word is
    examined when the rule keeps it and skipped otherwise."""
    kept, nodes = _degree_table(n, edges, _completions(edges, prefix))
    examined = int(kept.sum())
    return examined, len(kept) - examined, nodes


def _strong_by_words(n, edges, words):
    """(adjacency matrices, strongly connected?) of the digraph of each row
    of `words`.  Floyd–Warshall runs on a stack of the matrices, and a
    digraph is strongly connected when it finds no pair that no path
    joins."""
    count = len(words)
    adj = np.zeros((count, n, n), dtype=bool)
    for t, (u, v) in enumerate(edges):
        adj[:, u, v] |= words[:, t] != 1
        adj[:, v, u] |= words[:, t] != 0
    strong = np.concatenate([
        (floyd_warshall(adj[i:i + 4096]) < BIG).all(axis=(-2, -1))
        for i in range(0, count, 4096)])
    return adj, strong


def not_strong_by_words(n, edges, prefix=()):
    """The number of completions of `prefix` over `edges`, the all-digon
    word included, whose digraph is not strongly connected."""
    _, strong = _strong_by_words(n, edges, _completions(edges, prefix))
    return int((~strong).sum())


def full_sweep_by_words(n, edges, prefix=()):
    """(examined, symmetric, not_strongly_connected, axiom) of the
    unpruned branch `prefix`, decided word by word.  Every completion is
    examined.  A word is `symmetric` when every state is a digon;
    otherwise `not_strongly_connected` when `_strong_by_words` says so;
    otherwise `axiom` when the degree rule of `_degree_table` drops it,
    since then no scheme carries it; otherwise `axiom` when
    `leaf_stage_by_matrices` finds a violation, and a survivor when it
    finds none."""
    words = _completions(edges, prefix)
    adj, strong = _strong_by_words(n, edges, words)
    symmetric = (words == 2).all(axis=1)
    kept, _ = _degree_table(n, edges, words)
    axiom = int((~symmetric & strong & ~kept).sum())
    for i in np.flatnonzero(~symmetric & strong & kept):
        axiom += leaf_stage_by_matrices(adj[i]) is not None
    return (len(words), int(symmetric.sum()),
            int((~symmetric & ~strong).sum()), axiom)


def search_by_brute_force(graph, enumerate_orientations, wdrd_report,
                          canonical_form, max_edges=20):
    """Reference search: full enumeration + report-level filtering."""
    forms = {}
    labelled = 0
    for cand in enumerate_orientations(graph, max_edges=max_edges):
        rep = wdrd_report(cand)
        if rep.is_wdrd and rep.commutative:
            labelled += 1
            forms.setdefault(canonical_form(cand), 0)
            forms[canonical_form(cand)] += 1
    return labelled, dict(sorted(forms.items()))


# -- scan-loop references for the vectorised scheme checks -------------------
#
# These are the loops `wdrd.scheme` used before its checks were vectorised:
# one indicator product per (i, j) with a cell-by-cell constancy scan, int64
# einsum identities and pairwise matrix products.  They fix the contract the
# vectorised code must meet exactly: the same verdict, the same scan-order
# witness, the same tensor.

def verify_by_scan(part):
    """Axioms (i)-(iv) by the original scan; an AssociationScheme or the
    first AxiomViolation in (i, j, l) scan order."""
    from wdrd.scheme import AssociationScheme, AxiomViolation

    n = part.n
    co = part.class_of
    nc = len(part.classes)

    diag = co.diagonal()
    d0 = int(diag[0])
    if (diag != d0).any():
        x = int(np.flatnonzero(diag != d0)[0])
        return AxiomViolation(1, "diagonal pairs fall into different classes",
                              {"pairs": [[0, 0], [x, x]]})
    if int((co == d0).sum()) != n:
        off = np.argwhere(co == d0)
        bad = next(([int(a), int(b)] for a, b in off if a != b))
        return AxiomViolation(1, "diagonal class contains an off-diagonal pair",
                              {"pair": bad})
    if d0 != 0:
        return AxiomViolation(1, "diagonal class is not ordered first",
                              {"class": int(d0)})

    dual = []
    cot = co.T
    for i in range(nc):
        vals = np.unique(cot[co == i])
        if len(vals) != 1:
            cells = np.argwhere(co == i)
            w = []
            for a, b in cells:
                if co[b, a] != vals[0]:
                    w = [[int(a), int(b)]]
                    break
            return AxiomViolation(
                3, f"transpose of class {part.classes[i]} meets several classes",
                {"class": list(part.classes[i]), "pair": w})
        dual.append(int(vals[0]))

    indicators = [(co == i).astype(np.int64) for i in range(nc)]
    flat = co.ravel()
    cells = [np.flatnonzero(flat == l) for l in range(nc)]
    p = np.zeros((nc, nc, nc), dtype=np.int64)
    for i in range(nc):
        ai = indicators[i]
        for j in range(nc):
            m = (ai @ indicators[j]).ravel()
            for l in range(nc):
                vals = m[cells[l]]
                v0 = int(vals[0])
                bad = np.flatnonzero(vals != v0)
                if bad.size:
                    first = int(cells[l][0])
                    other = int(cells[l][bad[0]])
                    return AxiomViolation(
                        4, "intersection number not constant on class",
                        {"i": list(part.classes[i]), "j": list(part.classes[j]),
                         "l": list(part.classes[l]),
                         "pair_a": [first // n, first % n],
                         "count_a": v0,
                         "pair_b": [other // n, other % n],
                         "count_b": int(m[other])})
                p[i, j, l] = v0
    k = np.array([int(ind[0].sum()) for ind in indicators], dtype=np.int64)
    return AssociationScheme(part, tuple(dual), k, p)


def identities_by_einsum(s):
    """The three classical identities with int64 einsum products; returns
    (passed, counterexamples) as `check_intersection_identities` reports
    them."""
    p = s.p
    k = s.k
    dual = list(s.dual)
    passed = {}
    cex = {}

    lhs = np.einsum("ijh,h->ij", p, k)
    rhs = np.outer(k, k)
    passed["valency_sum"], cex["valency_sum"] = _first_mismatch(
        lhs, rhs, s.classes, ("i", "j"))

    a = p * k[None, None, :]
    b = p[:, dual, :].transpose(2, 1, 0) * k[:, None, None]
    c = p[dual].transpose(0, 2, 1) * k[None, :, None]
    ok1, w1 = _first_mismatch(a, b, s.classes, ("i", "j", "l"))
    ok2, w2 = _first_mismatch(a, c, s.classes, ("i", "j", "l"))
    passed["valency_transposition"] = ok1 and ok2
    cex["valency_transposition"] = w1 if not ok1 else (w2 if not ok2 else None)

    lhs = np.einsum("ilr,mrj->ilmj", p, p)
    rhs = np.einsum("mit,tlj->ilmj", p, p)
    passed["composition_exchange"], cex["composition_exchange"] = _first_mismatch(
        lhs, rhs, s.classes, ("i", "l", "m", "j"))
    return passed, cex


def _first_mismatch(lhs, rhs, classes, names):
    bad = np.argwhere(lhs != rhs)
    if bad.size == 0:
        return True, None
    idx = tuple(int(v) for v in bad[0])
    wit = {nm: list(classes[i]) for nm, i in zip(names, idx)}
    wit["lhs"] = int(lhs[idx])
    wit["rhs"] = int(rhs[idx])
    return False, wit


def commute_by_pairs(s) -> bool:
    """B_a B_b == B_b B_a for every pair of intersection matrices, by int64
    products."""
    mats = [s.p[i] for i in range(len(s.classes))]
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            if not np.array_equal(mats[a] @ mats[b], mats[b] @ mats[a]):
                return False
    return True


def refined_colors_by_pairs(adj: np.ndarray) -> list[int]:
    """Colour refinement with (colour, link) pairs sorted per vertex, the
    link being 2·adj[w, v] + adj[v, w]; colour ids rank the signatures."""
    n = adj.shape[0]

    def link(u, v):
        return (2 if adj[v, u] else 0) | (1 if adj[u, v] else 0)

    def ranks(sigs):
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        return [order[s] for s in sigs]

    out_deg = adj.sum(axis=1)
    in_deg = adj.sum(axis=0)
    digon = (adj & adj.T).sum(axis=1)
    colors = ranks([(int(out_deg[v]), int(in_deg[v]), int(digon[v]))
                    for v in range(n)])
    while True:
        sigs = []
        for v in range(n):
            around = sorted((colors[w], link(v, w)) for w in range(n) if w != v)
            sigs.append((colors[v], tuple(around)))
        new = ranks(sigs)
        if new == colors:
            return colors
        colors = new


def canonical_permutation_by_lists(adj: np.ndarray) -> tuple[int, ...]:
    """Vertex order minimizing the layered adjacency key, each layer built
    as a list of bits: arcs from the placed vertices into v, then arcs from
    v to them, in position order."""
    n = adj.shape[0]
    if n == 1:
        return (0,)
    colors = refined_colors_by_pairs(adj)
    block_color = sorted(colors)
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)

    best = None
    best_perm = None
    cur: list[int] = []
    perm: list[int] = []
    used = [False] * n

    def layer(v):
        return ([1 if adj[u, v] else 0 for u in perm]
                + [1 if adj[v, u] else 0 for u in perm])

    def dfs(p):
        nonlocal best, best_perm
        if p == n:
            if best is None or cur < best:
                best = cur.copy()
                best_perm = tuple(perm)
            return
        cands = [v for v in by_color[block_color[p]] if not used[v]]
        cands.sort(key=layer)
        for v in cands:
            lay = layer(v)
            cur.extend(lay)
            if best is None or cur <= best[:len(cur)]:
                used[v] = True
                perm.append(v)
                dfs(p + 1)
                perm.pop()
                used[v] = False
            del cur[len(cur) - len(lay):]

    dfs(0)
    return best_perm


def rows_to_masks_by_bits(adj: np.ndarray) -> list[int]:
    masks = []
    for row in adj:
        m = 0
        for v in np.flatnonzero(row):
            m |= 1 << int(v)
        masks.append(m)
    return masks
