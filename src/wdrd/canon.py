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

Colour refinement leaves a vertex-transitive digraph as one colour
block, and the search prunes that block by the automorphisms it finds.
A leaf that ties the best key relabels the digraph exactly as the best
permutation does, so best_perm[i] -> perm[i] is an automorphism; the
search records it.  At a node, a candidate is skipped when the recorded
automorphisms that fix every placed vertex join it to an orbit with a
sibling already explored: its subtree is the image of that sibling's,
with the same keys, and the sibling's leaves all come first in search
order.  So the first minimal leaf is never skipped, and the search
returns the same permutation as without the pruning (McKay & Piperno,
"Practical graph isomorphism, II", J. Symbolic Comput. 60, 2014).
`canonical_digraph` checks that the order it applies is a permutation of
the vertices, so equal forms mean isomorphic digraphs whatever the
search returns.

The search runs in the kernel backend that `wdrd.kernel` selects, as its
entry point `canonical_permutation(n, out_m, in_m)`: `_kernel.c` when the
compiled kernel loaded, `_kernel_py` otherwise.  `_kernel_py` holds the
reference, and `_kernel.c` the same refinement, candidate order and
pruning, with each key held as the pair (kin[v], kout[v]) of 64-bit
words; both return the same permutation.  `canonical_permutation` checks
`max_n` first; a digraph past the kernels' limit of 64 vertices, which
only `wdrd iso --max-n` reaches, goes to the pure search.

Without refinement after each placement, the tree below the first
vertex of a vertex-transitive digraph still grows about threefold per
vertex.  On a 2-vCPU Xeon VM with Python 3.11 and gcc 12, the directed
cycles take (seconds, the median of up to five calls):

    cycle     C12     C13     C14    C15    C16    C17    C18
    pure      0.004   0.009   0.04   0.11   0.21   0.68   2.1
    compiled  0.0002  0.0005  0.002  0.004  0.014  0.04   0.12

`MAX_N` stays at 16 for both: without a C compiler the pure search runs,
and a cap that moved with the backend would make the same search or
`wdrd iso` call fail on one machine and pass on another.
"""

from __future__ import annotations

import numpy as np

from . import _kernel_py, kernel
from .digraph import Digraph
from .errors import CanonicalizationError, TooLargeError

# Largest vertex count canonicalised exactly.  Automorphism pruning skips
# only images of explored subtrees, and nothing refines the colours below
# the root, so the cost still grows exponentially with the block size; the
# pure search sets the cap (see above).
MAX_N = 16
# The form stores the vertex count in its first byte.
FORM_MAX_N = 255


def canonical_permutation(d: Digraph, max_n: int = MAX_N) -> tuple[int, ...]:
    """Vertex order minimizing the layered adjacency key."""
    n = d.n
    if n > max_n:
        raise TooLargeError(f"exact canonicalization capped at {max_n} vertices")
    if n > kernel.MAX_N:
        return _kernel_py._canonical_permutation(n, d.out_masks, d.in_masks)
    return kernel.canonical_permutation(n, d.out_masks, d.in_masks)


def canonical_digraph(d: Digraph, max_n: int = MAX_N) -> Digraph:
    """The digraph relabelled by its canonical permutation."""
    perm = canonical_permutation(d, max_n)
    if sorted(perm) != list(range(d.n)):
        raise CanonicalizationError(
            f"canonical order {list(perm)} is not a permutation of "
            f"0..{d.n - 1}")
    order = np.array(perm)
    return Digraph(d.n, d.adjacency[order[:, None], order])


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
