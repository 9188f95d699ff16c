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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .digraph import _mask_bits
from .errors import (
    AlphaNotInXError,
    BetaIntersectsXError,
    DiameterTooSmallError,
    NotAdjacentError,
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


def y_sets(x: SubsetVertex, y: SubsetVertex
           ) -> tuple[frozenset[SubsetVertex], frozenset[SubsetVertex]]:
    """The Y1/Y2 split of the common neighbourhood of a Johnson edge.

    With y = x(a1, b1): Y1 collects x(a, b1) for a in x minus a1 (size
    e-1), Y2 collects x(a1, b) for b outside x and b1 (size m-e-1)."""
    if x.m != y.m or len(x.members) != len(y.members):
        raise NotAdjacentError("subsets live in different Johnson graphs")
    if len(x.members & y.members) != len(x.members) - 1:
        raise NotAdjacentError(
            f"{sorted(x.members)} and {sorted(y.members)} do not meet in e-1 points")
    (a1,) = x.members - y.members
    (b1,) = y.members - x.members
    ground = range(x.m)
    y1 = frozenset(SubsetVertex(x.m, (x.members - {a}) | {b1})
                   for a in x.members - {a1})
    y2 = frozenset(SubsetVertex(x.m, (x.members - {a1}) | {b})
                   for b in ground if b not in x.members and b != b1)
    return y1, y2


@dataclass(frozen=True)
class NeighbourhoodReport:
    """Per-edge outcome of the three neighbourhood-structure checks.

    distances_ok: Y1/Y2 partition the common neighbourhood with the right
    sizes, distance 1 inside each part and distance 2 across parts.
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


def _edge_lift(g: LabeledGraph, x: int, y: int) -> tuple[SubsetVertex, SubsetVertex]:
    """Represent the edge (x, y) by a Johnson-adjacent subset pair.

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
    return (SubsetVertex(g.m, frozenset(_mask_bits(mx))),
            SubsetVertex(g.m, frozenset(_mask_bits(my))))


def verify_neighbourhood_structure(g: LabeledGraph, x: int, y: int
                                   ) -> NeighbourhoodReport:
    """Run the three Y-set checks on one edge of a (folded) Johnson graph."""
    sx, sy = _edge_lift(g, x, y)
    y1, y2 = y_sets(sx, sy)
    dist = g.graph.distance_matrix()
    project = {s: g.vertex_of_mask(s.mask) for s in y1 | y2}

    witness = None
    sizes_ok = (len(y1) == g.e - 1 and len(y2) == g.m - g.e - 1)
    union_ok = ({project[s] for s in y1 | y2}
                == set(g.graph.common_neighbours(x, y)))
    dist_ok = sizes_ok and union_ok
    if not dist_ok:
        witness = {"check": "partition", "edge": [x, y]}
    else:
        for part, want_other in ((y1, y2), (y2, y1)):
            for a in part:
                for b in part:
                    if a != b and int(dist[project[a], project[b]]) != 1:
                        dist_ok = False
                        witness = {"check": "within-distance",
                                   "pair": [project[a], project[b]]}
                for b in want_other:
                    if int(dist[project[a], project[b]]) != 2:
                        dist_ok = False
                        witness = {"check": "cross-distance",
                                   "pair": [project[a], project[b]]}

    ry1, ry2 = y_sets(sy, sx)
    sym_ok = (y1 == ry1 and y2 == ry2)
    if not sym_ok and witness is None:
        witness = {"check": "symmetry", "edge": [x, y]}

    exch_ok = True
    for i, (part, other) in enumerate(((y1, y2), (y2, y1)), start=1):
        for z in part:
            zy1, zy2 = y_sets(sx, z)
            zi = zy1 if i == 1 else zy2
            if part | {sy} != zi | {z}:
                exch_ok = False
            if other & zy1 or other & zy2:
                exch_ok = False
            if not exch_ok:
                if witness is None:
                    witness = {"check": "exchange", "edge": [x, y],
                               "z": sorted(z.members)}
                break
        if not exch_ok:
            break

    return NeighbourhoodReport(dist_ok, sym_ok, exch_ok, witness)


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

    Reports the first violating pair with its mu-size."""
    graph = g.graph if isinstance(g, LabeledGraph) else g
    dist = graph.distance_matrix()
    if int(dist.max()) < 2:
        raise DiameterTooSmallError("mu-graph property needs diameter >= 2")
    out = graph.out_masks
    n = graph.n
    checked = 0
    for x in range(n):
        for z in range(x + 1, n):
            if int(dist[x, z]) != 2:
                continue
            checked += 1
            mu = sorted(graph.common_neighbours(x, z))
            if len(mu) != 4:
                return MuPropertyReport(False, checked, (x, z), len(mu),
                                        "mu-size differs from 4")
            cell = mu + [x, z]
            cell_mask = 0
            for v in cell:
                cell_mask |= 1 << v
            for v in cell:
                if (out[v] & cell_mask).bit_count() != 4:
                    return MuPropertyReport(False, checked, (x, z), 4,
                                            "induced subgraph is not an octahedron")
            # unique partner at distance 2 within the mu-set, with the
            # exchanged common neighbourhood
            for y1 in mu:
                partners = [y2 for y2 in mu
                            if y2 != y1 and int(dist[y1, y2]) == 2]
                if len(partners) != 1:
                    return MuPropertyReport(False, checked, (x, z), 4,
                                            f"vertex {y1} has {len(partners)} "
                                            "antipodes in the mu-set")
                y2 = partners[0]
                want = {x, z} | (set(mu) - {y1, y2})
                if set(graph.common_neighbours(y1, y2)) != want:
                    return MuPropertyReport(False, checked, (x, z), 4,
                                            "antipodal pair has a different "
                                            "common neighbourhood")
    return MuPropertyReport(True, checked)
