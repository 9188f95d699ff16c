"""Subset-level structure of Johnson and folded Johnson graphs.

The basic move is the swap x(alpha, beta) = (x \\ alpha) | beta.  For an
edge x ~ y = x(a1, b1) the common neighbourhood splits into Y1 (swaps that
introduce b1) and Y2 (swaps that remove a1); the oracles here verify the
size/distance facts, the symmetry Y_i(x,y) = Y_i(y,x), the exchange law
for z in Y_i, and the mu-graph property (every distance-2 pair plus its
common neighbours induces an octahedron, with its antipodal pairing).

Folded graphs are handled by lifting one edge at a time: the partner label
is replaced by its complement representative whenever the two canonical
representatives meet in a single point, after which all identities are
checked at the subset level and only distances are measured in the
quotient graph.

The oracles compute on the label bitmasks `LabeledGraph` holds and on the
adjacency bitmasks of its `Digraph`: one routine gives the Y1/Y2 label
masks of an edge, and common neighbourhoods are ANDs of out-masks.
`y_sets`, the `SubsetVertex` form of the split, wraps the same routine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .digraph import _mask_bits
from .errors import (
    AlphaNotInXError,
    BetaIntersectsXError,
    DiameterTooSmallError,
    NotAdjacentError,
    NotConnectedError,
    NotSymmetricError,
    SizeMismatchError,
)
from .generators import LabeledGraph, _subset_mask


@dataclass(frozen=True)
class SubsetVertex:
    """An e-subset of {0..m-1} naming a vertex of J(m,e) or its fold."""

    m: int
    members: frozenset[int]

    def __init__(self, m: int, members: Iterable[int]):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "members", frozenset(members))
        if any(not 0 <= x < m for x in self.members):
            raise AlphaNotInXError(
                f"members {sorted(self.members)} outside ground set 0..{m - 1}")

    @property
    def mask(self) -> int:
        return _subset_mask(self.members)

    def __repr__(self):
        return f"SubsetVertex(m={self.m}, {{{', '.join(map(str, sorted(self.members)))}}})"


def subset_swap(x: SubsetVertex, alpha: Iterable[int],
                beta: Iterable[int]) -> SubsetVertex:
    """(x \\ alpha) | beta for alpha inside x and beta outside it."""
    a = frozenset(alpha)
    b = frozenset(beta)
    if not a <= x.members:
        raise AlphaNotInXError(f"alpha {sorted(a)} not contained in x")
    if b & x.members:
        raise BetaIntersectsXError(f"beta {sorted(b)} meets x")
    if len(a) != len(b):
        raise SizeMismatchError(f"|alpha| = {len(a)} but |beta| = {len(b)}")
    if any(not 0 <= t < x.m for t in b):
        raise BetaIntersectsXError(
            f"beta {sorted(b)} outside ground set 0..{x.m - 1}")
    return SubsetVertex(x.m, (x.members - a) | b)


def _y_masks(m: int, x: int, y: int) -> tuple[frozenset[int], frozenset[int]]:
    """Y1/Y2 label masks of the edge between Johnson-adjacent label masks.

    With y = x(a1, b1): Y1 = {x(a, b1) : a in x minus a1} (size e-1),
    Y2 = {x(a1, b) : b outside x and b1} (size m-e-1)."""
    b1 = y & ~x
    keep = x & y
    outside = ((1 << m) - 1) & ~(x | y)
    return (frozenset((x ^ 1 << a) | b1 for a in _mask_bits(keep)),
            frozenset(keep | 1 << b for b in _mask_bits(outside)))


def y_sets(x: SubsetVertex, y: SubsetVertex
           ) -> tuple[frozenset[SubsetVertex], frozenset[SubsetVertex]]:
    """The Y1/Y2 split of the common neighbourhood of a Johnson edge, as
    subsets (see `_y_masks` for the rule)."""
    if x.m != y.m or len(x.members) != len(y.members):
        raise NotAdjacentError("subsets live in different Johnson graphs")
    if len(x.members & y.members) != len(x.members) - 1:
        raise NotAdjacentError(
            f"{sorted(x.members)} and {sorted(y.members)} do not meet in e-1 points")
    y1, y2 = _y_masks(x.m, x.mask, y.mask)
    return (frozenset(SubsetVertex(x.m, _mask_bits(s)) for s in y1),
            frozenset(SubsetVertex(x.m, _mask_bits(s)) for s in y2))


@dataclass(frozen=True)
class NeighbourhoodReport:
    """Per-edge outcome of the three neighbourhood-structure checks.

    distances_ok: the vertices of Y1 and Y2 (e-1 and m-e-1 swaps) make up
    the common neighbourhood, at distance 1 inside each part and distance 2
    across parts.
    symmetry_ok: Y_i(x,y) = Y_i(y,x).
    exchange_ok: for z in Y_i, Y_i(x,y) + y = Y_i(x,z) + z and Y_j(x,y)
    misses both Y-sets of (x,z).
    """

    distances_ok: bool
    symmetry_ok: bool
    exchange_ok: bool
    witness: dict | None = None

    @property
    def ok(self) -> bool:
        return self.distances_ok and self.symmetry_ok and self.exchange_ok


def _edge_lift(g: LabeledGraph, x: int, y: int) -> tuple[int, int]:
    """Represent the edge (x, y) by a Johnson-adjacent label mask pair.

    For folded graphs the partner representative is complemented when the
    two canonical labels meet in a single point."""
    if not g.graph.has_arc(x, y):
        raise NotAdjacentError(f"({x}, {y}) is not an edge")
    mx = g.label_masks[x]
    my = g.label_masks[y]
    inter = (mx & my).bit_count()
    if inter != g.e - 1:
        if g.kind == "folded" and inter == 1:
            my = ((1 << g.m) - 1) ^ my
        else:
            raise NotAdjacentError(
                f"labels of ({x}, {y}) do not meet in e-1 points")
    return mx, my


def _distance_witness(dist, v1: list[int], v2: list[int]) -> dict | None:
    """First pair, scanning Y1 then Y2 in ascending vertex order, at a
    distance other than 1 inside its part or other than 2 across parts."""
    for part, other in ((v1, v2), (v2, v1)):
        for a in part:
            for b in part:
                if a != b and dist[a, b] != 1:
                    return {"check": "within-distance", "pair": [a, b]}
            for b in other:
                if dist[a, b] != 2:
                    return {"check": "cross-distance", "pair": [a, b]}
    return None


def _exchange_failure(m: int, x: int, y: int, y1: frozenset[int],
                      y2: frozenset[int]) -> int | None:
    """First z in Y_i(x,y) with Y_i(x,y) + y != Y_i(x,z) + z, or with
    Y_j(x,y) meeting a Y-set of (x,z); None when the exchange law holds."""
    for i, (part, other) in enumerate(((y1, y2), (y2, y1))):
        for z in part:
            zy = _y_masks(m, x, z)
            if part | {y} != zy[i] | {z} or other & (zy[0] | zy[1]):
                return z
    return None


def verify_neighbourhood_structure(g: LabeledGraph, x: int, y: int
                                   ) -> NeighbourhoodReport:
    """Run the three Y-set checks on one edge of a (folded) Johnson graph."""
    mx, my = _edge_lift(g, x, y)
    y1, y2 = _y_masks(g.m, mx, my)
    v1 = sorted(map(g.vertex_of_mask, y1))
    v2 = sorted(map(g.vertex_of_mask, y2))
    graph = g.graph
    if not graph.is_symmetric():
        raise NotSymmetricError("common neighbours defined on graphs only")

    if _subset_mask(v1 + v2) != graph.out_masks[x] & graph.out_masks[y]:
        witness = {"check": "partition", "edge": [x, y]}
    else:
        witness = _distance_witness(graph.distance_matrix(), v1, v2)
    dist_ok = witness is None

    sym_ok = _y_masks(g.m, my, mx) == (y1, y2)
    if not sym_ok and witness is None:
        witness = {"check": "symmetry", "edge": [x, y]}

    bad_z = _exchange_failure(g.m, mx, my, y1, y2)
    if bad_z is not None and witness is None:
        witness = {"check": "exchange", "edge": [x, y],
                   "z": list(_mask_bits(bad_z))}

    return NeighbourhoodReport(dist_ok, sym_ok, bad_z is None, witness)


@dataclass(frozen=True)
class MuPropertyReport:
    """Sweep result of the octahedron mu-graph property over distance-2 pairs."""

    ok: bool
    pairs_checked: int
    witness_pair: tuple[int, int] | None = None
    witness_mu_size: int | None = None
    witness_detail: str | None = None


def mu_graph_property(g) -> MuPropertyReport:
    """Check every distance-2 pair: four common neighbours, the induced
    subgraph on the pair plus its mu-set is an octahedron, and the unique
    antipodal pairing inside the mu-set exchanges common neighbourhoods.

    Reports the first violating pair with its mu-size.  Raises
    DiameterTooSmallError below diameter 2, NotSymmetricError on a digraph
    and NotConnectedError on a disconnected graph."""
    graph = g.graph if isinstance(g, LabeledGraph) else g
    dist = graph.distance_matrix()
    if int(dist.max()) < 2:
        raise DiameterTooSmallError("mu-graph property needs diameter >= 2")
    if not graph.is_symmetric():
        raise NotSymmetricError("mu-graph property is defined on graphs only")
    if not graph.is_strongly_connected():
        raise NotConnectedError("mu-graph property needs a connected graph")
    out = graph.out_masks
    checked = 0
    for x, z in np.argwhere(np.triu(dist == 2, 1)).tolist():
        checked += 1
        mu = out[x] & out[z]
        if mu.bit_count() != 4:
            return MuPropertyReport(False, checked, (x, z), mu.bit_count(),
                                    "mu-size differs from 4")
        cell = mu | 1 << x | 1 << z
        if any((out[v] & cell).bit_count() != 4 for v in _mask_bits(cell)):
            return MuPropertyReport(False, checked, (x, z), 4,
                                    "induced subgraph is not an octahedron")
        # each mu vertex y1 has its partner y2 at distance 2 within the
        # mu-set, and the pair must exchange common neighbourhoods.  The
        # partner is unique: y1 has four neighbours in the cell, x and z
        # among them, so it is next to exactly two of the three other mu
        # vertices (no loop puts y1 in its own out-mask).  Two mu vertices
        # are both next to x, so distinct non-adjacent ones are at distance 2.
        for y1 in _mask_bits(mu):
            partner = mu & ~out[y1] & ~(1 << y1)
            y2 = partner.bit_length() - 1
            if out[y1] & out[y2] != cell & ~(1 << y1 | partner):
                return MuPropertyReport(False, checked, (x, z), 4,
                                        "antipodal pair has a different "
                                        "common neighbourhood")
    return MuPropertyReport(True, checked)
