"""Graph generators and intersection-array machinery.

Johnson graphs J(n,e) on e-subsets, folded Johnson graphs on complementary
subset pairs, Cayley digraphs over cyclic groups, complete graphs, plus
distance-regularity detection (`intersection_array`) and the closed-form
arrays (`predicted_array`).

`intersection_array` works on whole arrays: two float64 matrix products
give the count toward layers i-1 and i+1 of every pair at distance i (see
`_layer_counts`), and the result is kept on the graph, so each graph's
array is computed once however often it is asked for.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

import numpy as np

from .digraph import DGF_MAX_N, Digraph, _mask_bits
from .errors import (
    BadParametersError,
    NotConnectedError,
    NotSymmetricError,
)


# Entries of the distance matrix per row block in `_layer_counts`; bounds
# each of its float64 buffers to 8 MB.
_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class IntersectionArray:
    """Distance-regular intersection array (b_0..b_{d-1}; c_1..c_d).

    The a-sequence is derived: a_i = b_0 - b_i - c_i with b_d = 0, c_0 = 0.
    """

    b: tuple[int, ...]
    c: tuple[int, ...]
    a: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if len(self.b) != len(self.c):
            raise BadParametersError("b and c sequences must have equal length")
        d = len(self.c)
        if d < 1 or self.c[0] != 1:
            raise BadParametersError("intersection array requires c_1 = 1")
        b0 = self.b[0]
        bx = self.b + (0,)
        cx = (0,) + self.c
        a = tuple(b0 - bx[i] - cx[i] for i in range(d + 1))
        if any(v < 0 for v in self.b + self.c + a):
            raise BadParametersError(f"negative intersection array entry: {a}")
        object.__setattr__(self, "a", a)

    @property
    def d(self) -> int:
        return len(self.c)


@dataclass(frozen=True)
class NotDistanceRegular:
    """Witness for a failed distance-regularity check.

    `kind` is "b" or "c" for the violated count, at distance `i`, where the
    ordered pair `pair` produced `found` against the first-seen `expected`.
    """

    i: int
    pair: tuple[int, int]
    kind: str
    expected: int
    found: int


class LabeledGraph:
    """A symmetric digraph whose vertices carry e-subset labels of {0..m-1}.

    Labels are stored as bitmasks in ascending order; this fixes the vertex
    numbering deterministically.  For folded graphs each label is the
    canonical representative containing element 0.
    """

    __slots__ = ("graph", "m", "e", "label_masks", "kind", "_index")

    def __init__(self, graph: Digraph, m: int, e: int,
                 label_masks: tuple[int, ...], kind: str):
        self.graph = graph
        self.m = m
        self.e = e
        self.label_masks = label_masks
        self.kind = kind
        self._index = {mask: i for i, mask in enumerate(label_masks)}

    def label_set(self, v: int) -> frozenset[int]:
        return frozenset(_mask_bits(self.label_masks[v]))

    def vertex_of_mask(self, mask: int) -> int:
        """Vertex whose label equals `mask`; folds to the 0-representative."""
        hit = self._index.get(mask)
        if hit is None and self.kind == "folded":
            hit = self._index.get(((1 << self.m) - 1) ^ mask)
        if hit is None:
            raise KeyError(f"no vertex labelled {sorted(_mask_bits(mask))}")
        return hit

    def __repr__(self):
        name = ("J({},{})".format(self.m, self.e) if self.kind == "johnson"
                else "folded-J({},{})".format(self.m, self.e))
        return f"LabeledGraph({name}, n={self.graph.n})"


def _check_size(name: str, m: int, k: int = 1) -> None:
    """Refuse a graph on the C(m, k) k-subsets of an m-set (m vertices for
    k = 1) when that is more than DGF_MAX_N, before any vertex is
    enumerated or any n x n array allocated.  C(m, k) >= m for 0 < k < m,
    so a large m is refused without expanding the binomial."""
    if m > DGF_MAX_N or math.comb(m, k) > DGF_MAX_N:
        raise BadParametersError(
            f"{name} has more vertices than the limit {DGF_MAX_N}")


def _adjacency_from_masks(masks, want: frozenset[int]) -> np.ndarray:
    nv = len(masks)
    adj = np.zeros((nv, nv), dtype=bool)
    for i in range(nv):
        mi = masks[i]
        for j in range(i + 1, nv):
            if (mi & masks[j]).bit_count() in want:
                adj[i, j] = adj[j, i] = True
    return adj


def johnson(n: int, e: int) -> LabeledGraph:
    """Johnson graph J(n,e): e-subsets of an n-set, adjacent when the
    intersection has e-1 points.  Requires n >= 2e and e >= 1."""
    if e < 1 or n < 2 * e:
        raise BadParametersError(f"johnson requires n >= 2e and e >= 1, got ({n}, {e})")
    _check_size(f"J({n},{e})", n, e)
    if e == 1:
        warnings.warn("J(n,1) is a clique", stacklevel=2)
    masks = tuple(sorted(_subset_mask(c) for c in combinations(range(n), e)))
    adj = _adjacency_from_masks(masks, frozenset({e - 1}))
    return LabeledGraph(Digraph(len(masks), adj), n, e, masks, "johnson")


def folded_johnson(e: int) -> LabeledGraph:
    """Folded Johnson graph on complementary e-subset pairs of a 2e-set.

    Vertices are represented by the member containing element 0; two
    representatives are adjacent when their intersection has 1 or e-1
    points.  Requires e >= 2 (a clique for e <= 3)."""
    if e < 2:
        raise BadParametersError(f"folded johnson requires e >= 2, got {e}")
    _check_size(f"folded-J({2 * e},{e})", 2 * e - 1, e - 1)
    if e <= 3:
        warnings.warn("folded Johnson graph with e <= 3 is a clique", stacklevel=2)
    m = 2 * e
    masks = tuple(sorted(_subset_mask((0,) + c)
                         for c in combinations(range(1, m), e - 1)))
    adj = _adjacency_from_masks(masks, frozenset({1, e - 1}))
    return LabeledGraph(Digraph(len(masks), adj), m, e, masks, "folded")


def _subset_mask(elems) -> int:
    mask = 0
    for x in elems:
        mask |= 1 << x
    return mask


def cayley_cyclic(m: int, connection: Iterable[int]) -> Digraph:
    """Cayley digraph on Z_m: arc x -> x+s (mod m) for each s in the
    connection set."""
    conn = frozenset(connection)
    if m < 2:
        raise BadParametersError(f"cyclic group order must be >= 2, got {m}")
    _check_size(f"Cay(Z{m})", m)
    if not conn:
        raise BadParametersError("connection set must be nonempty")
    for s in conn:
        if not (1 <= s < m):
            raise BadParametersError(f"connection element {s} outside 1..{m - 1}")
    adj = np.zeros((m, m), dtype=bool)
    for x in range(m):
        for s in conn:
            adj[x, (x + s) % m] = True
    return Digraph(m, adj)


def complete_graph(n: int) -> Digraph:
    """Complete graph K_n as a symmetric digraph."""
    if n < 1:
        raise BadParametersError(f"complete graph needs n >= 1, got {n}")
    _check_size(f"K{n}", n)
    adj = ~np.eye(n, dtype=bool)
    return Digraph(n, adj)


def intersection_array(g) -> IntersectionArray | NotDistanceRegular:
    """Detect distance-regularity of a connected graph.

    Returns the intersection array when every pair at distance i sees
    constant counts toward layers i-1 and i+1, otherwise the first witness
    pair that breaks constancy (scanned by distance, then source, then
    target vertex, the c count before the b count).  The result is computed
    once per graph and kept on it."""
    d = g.graph if isinstance(g, LabeledGraph) else g
    if not d.is_symmetric():
        raise NotSymmetricError("intersection arrays are defined for graphs")
    if not d.is_strongly_connected():
        raise NotConnectedError("intersection arrays need a connected graph")
    if d._array is None:
        d._array = _layer_counts(d)
    return d._array


def _layer_counts(d: Digraph) -> IntersectionArray | NotDistanceRegular:
    """`intersection_array` of a connected graph, on whole arrays.

    For a pair (x, y) at distance i, each neighbour z of y lies at distance
    i-1, i or i+1 from x; say c, a and b of them.  Then the sums over those
    z of d(x,z) - i and of (d(x,z) - i)^2 are b - c and b + c.  With
    S = dist @ A, T = (dist * dist) @ A and k the degree of y they are
    S - i k and T - 2 i S + i^2 k, so two matrix products give the c and b
    count of every pair, whatever the diameter.  They run in float64 BLAS
    and are exact: every partial sum is an integer of at most n^3 < 2^53.

    The expected counts at distance i are those of the scan's first pair
    there: vertex 0 and its first vertex at distance i.  A pair farther
    apart than vertex 0's eccentricity e never decides the outcome.  When
    one exists, some x has a vertex at distance e+1, so the vertex before
    it on a shortest path from x is a pair at distance e with b >= 1, while
    vertex 0's pairs at distance e have b = 0: a witness at distance e or
    nearer exists.  Such pairs expect the count -1 and always fail."""
    n = d.n
    adj = d.adjacency
    dist = d.distance_matrix()
    diam = int(dist.max())
    row = dist[0]
    ecc = int(row.max())
    layer = np.arange(ecc + 1)[:, None]
    nbrs = adj[(row == layer).argmax(axis=1)]
    want_c = np.full(diam + 1, -1)
    want_b = np.full(diam + 1, -1)
    want_c[:ecc + 1] = ((row == layer - 1) & nbrs).sum(axis=1)
    want_b[:ecc + 1] = ((row == layer + 1) & nbrs).sum(axis=1)

    a = adj.astype(np.float64)
    k = a.sum(axis=0)
    block = max(1, _BLOCK_ENTRIES // n)
    worst = None
    for x0 in range(0, n, block):
        blk = dist[x0:x0 + block]
        df = blk.astype(np.float64)
        s = df @ a
        diff = s - df * k                       # b - c
        both = (df * df) @ a - df * (s + diff)  # b + c
        c = (both - diff) / 2
        b = (both + diff) / 2
        bad_c = c != want_c[blk]
        cells = np.flatnonzero(bad_c | (b != want_b[blk]))
        if cells.size:
            # the first bad cell of the nearest distance, in row-major order
            flat = blk.ravel()
            cell = int(cells[flat[cells].argmin()])
            kind, got = ("c", c) if bad_c.ravel()[cell] else ("b", b)
            cand = (int(flat[cell]), x0 * n + cell, kind, int(got.ravel()[cell]))
            worst = cand if worst is None else min(worst, cand)
    if worst is not None:
        i, pos, kind, found = worst
        expected = int((want_c if kind == "c" else want_b)[i])
        return NotDistanceRegular(i, divmod(pos, n), kind, expected, found)
    return IntersectionArray(b=tuple(want_b[:diam].tolist()),
                             c=tuple(want_c[1:].tolist()))


def predicted_array(kind: str, *params: int) -> IntersectionArray:
    """Closed-form intersection arrays.

    predicted_array("johnson", n, e): diameter e, b_i = (e-i)(n-e-i),
    c_i = i*i, requiring n >= 2e and e >= 2.

    predicted_array("folded", e): diameter e//2, b_i = (e-i)^2, c_i = i*i
    with the even-e override c_d = 2*d*d, requiring e >= 4.  (The top
    a_d follows from b_d = 0, i.e. a_d = e*e - c_d.)
    """
    if kind == "johnson":
        if len(params) != 2:
            raise BadParametersError("johnson prediction takes (n, e)")
        n, e = params
        if e < 2 or n < 2 * e:
            raise BadParametersError(
                f"johnson array requires n >= 2e and e >= 2, got ({n}, {e})")
        b = tuple((e - i) * (n - e - i) for i in range(e))
        c = tuple(i * i for i in range(1, e + 1))
        return IntersectionArray(b=b, c=c)
    if kind == "folded":
        if len(params) != 1:
            raise BadParametersError("folded prediction takes (e,)")
        (e,) = params
        if e < 4:
            raise BadParametersError(f"folded array requires e >= 4, got {e}")
        d = e // 2
        b = tuple((e - i) * (e - i) for i in range(d))
        c = [i * i for i in range(1, d + 1)]
        if e % 2 == 0:
            c[-1] = 2 * d * d
        return IntersectionArray(b=b, c=tuple(c))
    raise BadParametersError(f"unknown array kind {kind!r}")
