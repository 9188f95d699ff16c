"""Canonical forms and exact isomorphism for small digraphs.

The canonical permutation minimizes, over all vertex orders compatible with
a colour refinement, the layered adjacency key.  The layer of the vertex at
position p lists the bits adj[perm[i], v] for i < p, then the bits
adj[v, perm[i]] for i < p.  The emitted form is the row-major adjacency
encoding of the digraph relabelled by that minimizing permutation, so
equal forms hold exactly for isomorphic digraphs.

Layers are integers, kept up to date as vertices are placed and removed.
For every vertex v the search holds

    key[v] = kin[v] * 2**n + kout[v],

where kin[v] sums 1 << (n-1-i) over the placed positions i whose vertex
has an arc to v, and kout[v] sums the same bits over the placed positions
whose vertex v has an arc to.  At depth p both sums are the first and the
second half of v's layer, read as binary numbers and shifted left by
n - p, the same shift for every candidate; kout[v] < 2**n, so comparing
keys compares layers.  Layers at one depth have one length, so comparing
lists of keys, position by position, compares the concatenated layers, and
the search visits the same branch-and-bound tree as a bit-list encoding
would.  Candidates enter a colour block in vertex order and are sorted
stably by key, which keeps the tie order of that encoding too.

Colour blocks are searched exhaustively, so the search tree of a
vertex-transitive digraph grows three- to fourfold per vertex.  On a
2-vCPU Xeon VM with Python 3.11 the directed 12-cycle takes about 0.016 s,
the 14-cycle 0.14 s and the 16-cycle 1.8 s, and `MAX_N` stays at 16.
"""

from __future__ import annotations

import numpy as np

from .digraph import Digraph, _mask_bits
from .errors import TooLargeError

# Largest vertex count canonicalised exactly.  Colour blocks are searched
# by brute force, so the cost grows factorially with the block size.
MAX_N = 16
# The form stores the vertex count in its first byte.
FORM_MAX_N = 255


def _refined_colors(d: Digraph) -> list[int]:
    """Iterated neighbourhood refinement with canonical (sorted) colour ids.

    A vertex's signature is its colour followed by the sorted pairs
    (colour of w, link to w) over w != v, where the link 2·adj[w, v] +
    adj[v, w] is below 4; each pair is encoded as colour·4 + link, which
    orders the pairs the same way."""
    adj = d.adjacency
    n = d.n
    out_deg = adj.sum(axis=1)
    in_deg = adj.sum(axis=0)
    digon = (adj & adj.T).sum(axis=1)
    colors = _canonical_ids(zip(out_deg.tolist(), in_deg.tolist(),
                                digon.tolist()))
    link = 2 * adj.T.astype(np.int64) + adj
    diagonal = np.eye(n, dtype=bool)
    while True:
        c = np.array(colors, dtype=np.int64)
        keys = 4 * c + link
        keys[diagonal] = -1          # sorts first; its column then holds c
        keys.sort(axis=1)
        keys[:, 0] = c
        new = _canonical_ids(map(tuple, keys.tolist()))
        if new == colors:
            return colors
        colors = new


def _canonical_ids(sigs) -> list[int]:
    sigs = list(sigs)
    order = {s: i for i, s in enumerate(sorted(set(sigs)))}
    return [order[s] for s in sigs]


def canonical_permutation(d: Digraph, max_n: int = MAX_N) -> tuple[int, ...]:
    """Vertex order minimizing the layered adjacency key."""
    n = d.n
    if n > max_n:
        raise TooLargeError(f"exact canonicalization capped at {max_n} vertices")
    if n == 1:
        return (0,)
    colors = _refined_colors(d)
    # positions are filled colour-block by colour-block
    block_color = sorted(colors)
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    outs = [list(_mask_bits(m)) for m in d.out_masks]
    ins = [list(_mask_bits(m)) for m in d.in_masks]

    key = [0] * n
    cur = [0] * n
    perm: list[int] = []
    used = [False] * n
    best: list[int] | None = None
    best_perm: tuple[int, ...] | None = None

    # `tied` says cur[:p] == best[:p]; otherwise cur[:p] < best[:p], or
    # there is no best yet.  `best` changes only at a leaf below every
    # open frame, which then ties them all.  Returns whether it changed.
    def dfs(p: int, tied: bool) -> bool:
        nonlocal best, best_perm
        if p == n:
            if tied:
                return False
            best = cur.copy()
            best_perm = tuple(perm)
            return True
        improved = False
        cands = [v for v in by_color[block_color[p]] if not used[v]]
        cands.sort(key=key.__getitem__)
        low = 1 << (n - 1 - p)
        high = low << n
        for v in cands:
            k = key[v]
            if tied and k > best[p]:
                break  # keys ascend: every later candidate is worse too
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
    assert best_perm is not None
    return best_perm


def canonical_digraph(d: Digraph, max_n: int = MAX_N) -> Digraph:
    """The digraph relabelled by its canonical permutation."""
    perm = canonical_permutation(d, max_n)
    return Digraph(d.n, d.adjacency[np.ix_(perm, perm)])


def canonical_form(d: Digraph, max_n: int = MAX_N) -> bytes:
    """Row-major adjacency encoding under the canonical permutation.

    Equal forms if and only if the digraphs are isomorphic (for digraphs on
    the same number of vertices; the vertex count is prepended as one
    byte, so at most FORM_MAX_N vertices)."""
    if d.n > FORM_MAX_N:
        raise TooLargeError(
            f"canonical form encodes at most {FORM_MAX_N} vertices")
    c = canonical_digraph(d, max_n)
    return bytes([c.n]) + np.packbits(c.adjacency.ravel()).tobytes()


def form_digraph(form: bytes) -> Digraph:
    """The canonical digraph that `form` encodes."""
    n = form[0]
    bits = np.unpackbits(np.frombuffer(form, np.uint8, offset=1), count=n * n)
    return Digraph(n, bits.reshape(n, n))


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
