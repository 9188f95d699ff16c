"""Canonical forms and exact isomorphism for small digraphs.

The canonical permutation minimizes, over all vertex orders compatible with
a colour refinement, the layered adjacency key (for each new position: bits
to and from the already-placed vertices).  The emitted form is the
row-major adjacency encoding of the digraph relabelled by that minimizing
permutation, so equal forms hold exactly for isomorphic digraphs.
Branch-and-bound over the layered key keeps the search tractable up to a
few dozen vertices even for vertex-transitive inputs.
"""

from __future__ import annotations

from .digraph import Digraph
from .errors import TooLargeError

# Largest vertex count canonicalised exactly.  Colour blocks are searched
# by brute force, so the cost grows factorially with the block size.
MAX_N = 16


def _link(adj, u, v) -> int:
    return (2 if adj[v, u] else 0) | (1 if adj[u, v] else 0)


def _refined_colors(d: Digraph) -> list[int]:
    """Iterated neighbourhood refinement with canonical (sorted) colour ids."""
    adj = d.adjacency
    n = d.n
    out_deg = adj.sum(axis=1)
    in_deg = adj.sum(axis=0)
    digon = (adj & adj.T).sum(axis=1)
    sigs = [(int(out_deg[v]), int(in_deg[v]), int(digon[v])) for v in range(n)]
    colors = _canonical_ids(sigs)
    while True:
        sigs = []
        for v in range(n):
            around = sorted((colors[w], _link(adj, v, w))
                            for w in range(n) if w != v)
            sigs.append((colors[v], tuple(around)))
        new = _canonical_ids(sigs)
        if new == colors:
            return colors
        colors = new


def _canonical_ids(sigs) -> list[int]:
    order = {s: i for i, s in enumerate(sorted(set(sigs)))}
    return [order[s] for s in sigs]


def canonical_permutation(d: Digraph, max_n: int = MAX_N) -> tuple[int, ...]:
    """Vertex order minimizing the layered adjacency key."""
    n = d.n
    if n > max_n:
        raise TooLargeError(f"exact canonicalization capped at {max_n} vertices")
    if n == 1:
        return (0,)
    adj = d.adjacency
    colors = _refined_colors(d)
    # positions are filled colour-block by colour-block
    block_color = sorted(colors)
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)

    best: list[int] | None = None
    best_perm: tuple[int, ...] | None = None
    cur: list[int] = []
    perm: list[int] = []
    used = [False] * n

    def layer(v):
        out = []
        for u in perm:
            out.append(1 if adj[u, v] else 0)
        for u in perm:
            out.append(1 if adj[v, u] else 0)
        return out

    def dfs(p: int):
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
            if best is None or cur <= best[: len(cur)]:
                used[v] = True
                perm.append(v)
                dfs(p + 1)
                perm.pop()
                used[v] = False
            del cur[len(cur) - len(lay):]

    dfs(0)
    assert best_perm is not None
    return best_perm


def canonical_digraph(d: Digraph, max_n: int = MAX_N) -> Digraph:
    """The digraph relabelled by its canonical permutation."""
    perm = canonical_permutation(d, max_n)
    inv = [0] * d.n
    for pos, v in enumerate(perm):
        inv[v] = pos
    arcs = [(inv[u], inv[v]) for u, v in d.arcs()]
    return Digraph.from_arcs(d.n, arcs)


def canonical_form(d: Digraph, max_n: int = MAX_N) -> bytes:
    """Row-major adjacency encoding under the canonical permutation.

    Equal forms if and only if the digraphs are isomorphic (for digraphs on
    the same number of vertices; the vertex count is prepended)."""
    c = canonical_digraph(d, max_n)
    return bytes([c.n]) + np_packbits(c)


def np_packbits(d: Digraph) -> bytes:
    import numpy as np

    return np.packbits(d.adjacency.ravel()).tobytes()


def are_isomorphic(a: Digraph, b: Digraph, max_n: int = MAX_N) -> bool:
    """Exact isomorphism with cheap invariant fast-rejects first."""
    if a.n != b.n or a.arc_count != b.arc_count:
        return False
    if _degree_multiset(a) != _degree_multiset(b):
        return False
    if _two_way_multiset(a) != _two_way_multiset(b):
        return False
    return canonical_form(a, max_n) == canonical_form(b, max_n)


def _degree_multiset(d: Digraph):
    adj = d.adjacency
    digon = adj & adj.T
    return sorted(zip(adj.sum(axis=1).tolist(), adj.sum(axis=0).tolist(),
                      digon.sum(axis=1).tolist()))


def _two_way_multiset(d: Digraph):
    dist = d.distance_matrix()
    return sorted(zip(dist.ravel().tolist(), dist.T.ravel().tolist()))
