"""Weak distance-regularity detection and the local combinatorics around it.

A strongly connected digraph is weakly distance-regular when its attached
partition (ordered pairs labelled by two-way distance) is a non-symmetric
association scheme.  This module bundles the detection report with the
local machinery used to study such digraphs: the type set of arcs, the
six-way classification of common neighbours, the a_1/c_2 counting identity
over the intersection tensor, arc purity, and the five-case taxonomy of
(2,2)-pairs with four common neighbours.

The checks read what the digraph already holds: its out-masks, its
distance matrix and the partition's `class_of`.  Common neighbours are one
AND of the underlying graph's out-masks.  Arc purity walks two frontiers
from the head v of each type-q arc for q steps: `pure`, the vertices that
walks of type-q arcs alone reach, and `mixed`, those reached by walks that
used another arc.  A circuit of length q+1 through an arc (u, v) of type q
is such a walk of q arcs from v to u, so some circuit through a type-q arc
into v is mixed exactly when `mixed` meets the tails of those arcs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .digraph import Digraph, _mask_bits, _rows_to_masks
from .errors import (
    BadDistanceError,
    BadMuSizeError,
    MuCaseMatchError,
    NotCommonNeighbourError,
    NotStronglyConnectedError,
    NotType22Error,
    UnderlyingNotDistanceRegularError,
)
from .generators import IntersectionArray, intersection_array
from .scheme import (
    AssociationScheme,
    AxiomViolation,
    attached_partition,
    is_commutative,
    verify_association_scheme,
)


@dataclass(frozen=True)
class WdrdReport:
    """Outcome of the weak distance-regularity check.

    `scheme` is the validated scheme, an AxiomViolation, or None when the
    digraph is not strongly connected.  `commutative` and `type_set` are
    meaningful only when the respective prerequisites hold.
    """

    strongly_connected: bool
    scheme: AssociationScheme | AxiomViolation | None
    non_symmetric: bool
    is_wdrd: bool
    commutative: bool
    type_set: frozenset[int] | None


def wdrd_report(d: Digraph) -> WdrdReport:
    """Full weak distance-regularity report; never raises on bad candidates."""
    non_symmetric = not d.is_symmetric()
    try:
        part = attached_partition(d)
    except NotStronglyConnectedError:
        return WdrdReport(False, None, non_symmetric, False, False, None)
    scheme = verify_association_scheme(part)
    valid = isinstance(scheme, AssociationScheme)
    is_wdrd = valid and non_symmetric
    commutative = bool(is_wdrd and is_commutative(scheme))
    return WdrdReport(True, scheme, non_symmetric, is_wdrd, commutative,
                      _arc_types(part.classes))


def type_set(d: Digraph) -> frozenset[int]:
    """{q+1 : some arc has two-way distance (1, q)}; NotStronglyConnectedError
    unless `d` is strongly connected."""
    return _arc_types(attached_partition(d).classes)


def _arc_types(labels) -> frozenset[int]:
    """The type set read off the two-way distance labels of a digraph."""
    return frozenset(q + 1 for f, q in labels if f == 1)


@dataclass(frozen=True)
class PathClass:
    """One of the six common-neighbour cases with its distance parameters.

    C1 (p,): pure path x->y->z of type (1,p).
    C2 (p,): pure path z->y->x of type (1,p).
    C3 (p, q): mixed path x->y->z, types (1,p),(1,q), p != q.
    C4 (q, p): mixed path z->y->x; (x,y) in class (q,1), (y,z) in (p,1).
    C5 (r, s): non-path with arc x->y; (x,y) in (1,r), (y,z) in (s,1).
    C6 (s, r): non-path with arc y->x; (x,y) in (s,1), (y,z) in (1,r).
    """

    tag: str
    params: tuple[int, ...]


def classify_common_neighbour(d: Digraph, x: int, z: int, y: int) -> PathClass:
    """Classify common neighbour y of an underlying pair (x, z) at distance
    one or two.  A neighbour joined to both x and z by digons reports as the
    forward pure path C1 with p = 1 (the C2 reading coincides there).
    NotStronglyConnectedError unless `d` is strongly connected."""
    for v in (x, z, y):
        d._check_vertex(v)
    if not d.is_strongly_connected():
        raise NotStronglyConnectedError("digraph not strongly connected")
    und = d.underlying_graph()
    if x == z or int(und.distance_matrix()[x, z]) not in (1, 2):
        raise BadDistanceError(
            f"pair ({x}, {z}) not at underlying distance 1 or 2")
    out = und.out_masks
    # the graph is loop-free, so y = x or y = z fails this test too
    if not (out[x] & out[z]) >> y & 1:
        raise NotCommonNeighbourError(
            f"{y} is not a common neighbour of {x} and {z}")
    dist = d.distance_matrix()
    a1, a2 = int(dist[x, y]), int(dist[y, x])
    b1, b2 = int(dist[y, z]), int(dist[z, y])
    if a1 == 1 and b1 == 1:
        return PathClass("C1", (a2,)) if a2 == b2 else PathClass("C3", (a2, b2))
    if a2 == 1 and b2 == 1:
        return PathClass("C2", (a1,)) if a1 == b1 else PathClass("C4", (a1, b1))
    if a1 == 1:  # arc x->y and arc z->y, no path either way
        return PathClass("C5", (a2, b1))
    return PathClass("C6", (a1, b2))


def _underlying_array(d: Digraph) -> IntersectionArray:
    arr = intersection_array(d.underlying_graph())
    if not isinstance(arr, IntersectionArray):
        raise UnderlyingNotDistanceRegularError(
            f"underlying graph not distance-regular: {arr}")
    return arr


def verify_local_counts(d: Digraph, s: AssociationScheme, h) -> bool:
    """Check the local counting identity for class h.

    Summing p^h over all ordered pairs of arc-carrying classes (classes
    with 1 in their label) must give a_1 of the underlying graph when h
    lies at underlying distance 1, and c_2 at distance 2."""
    arr = _underlying_array(d)
    hi = s.class_index(h)
    x0, y0 = s.partition.first_pair(h)
    ud = int(d.underlying_graph().distance_matrix()[x0, y0])
    if ud == 1:
        target = arr.a[1]
    elif ud == 2:
        target = arr.c[1]
    else:
        raise BadDistanceError(
            f"class {tuple(h)} lies at underlying distance {ud}, need 1 or 2")
    arcs = [i for i, label in enumerate(s.classes) if 1 in label]
    return int(s.p[arcs][:, arcs, hi].sum()) == target


class Purity(Enum):
    PURE = "pure"
    MIXED = "mixed"
    NO_SUCH_TYPE = "no-such-type"


def arc_purity(d: Digraph, q: int) -> Purity:
    """Is every circuit of length q+1 through every type-(1,q) arc pure?

    Circuits are closed paths; intermediate vertex repetition is allowed
    (the permissive reading of a circuit -- both classified digraphs agree
    under either reading).  MIXED as soon as one circuit of length q+1
    through a type-(1,q) arc uses an arc of a different type."""
    if not d.is_strongly_connected():
        raise NotStronglyConnectedError("arc purity requires strong connectivity")
    # typed[w, x]: the arc w -> x has type (1, q), that is d(x, w) == q
    typed = d.adjacency & (d.distance_matrix().T == q)
    if not typed.any():
        return Purity.NO_SUCH_TYPE
    out = d.out_masks
    pure_out = _rows_to_masks(typed)
    other_out = [m & ~t for m, t in zip(out, pure_out)]
    for v, tails in enumerate(_rows_to_masks(typed.T)):
        if tails:
            pure, mixed = 1 << v, 0
            for _ in range(q):
                pure, mixed = (_image(pure_out, pure),
                               _image(out, mixed) | _image(other_out, pure))
            if mixed & tails:
                return Purity.MIXED
    return Purity.PURE


def _image(masks, frontier: int) -> int:
    """The union of masks[w] over the vertices w of `frontier`."""
    image = 0
    for w in _mask_bits(frontier):
        image |= masks[w]
    return image


@dataclass(frozen=True)
class MuCase:
    """Matched five-case pattern of a (2,2)-pair with four common neighbours."""

    case: int
    params: tuple[int, ...]


def mu_case(d: Digraph, x: int, z: int) -> MuCase:
    """Match the common-neighbour pattern of a (2,2)-pair to its case.

    The four common neighbours y are encoded as pairs (two-way distance
    (x,y), two-way distance (y,z)) and compared as a multiset against the
    five templates:

      1: four digon pure paths            ((1,1),(1,1)) x4
      2: two pure paths each way at p = 2 ((1,2),(1,2)) x2 + ((2,1),(2,1)) x2
      3: four mixed paths                 ((1,p),(1,q)), ((1,q),(1,p)),
                                          ((p,1),(q,1)), ((q,1),(p,1))
      4: two digon paths + two non-paths  ((1,1),(1,1)) x2 + ((1,r),(r,1)),
                                          ((r,1),(1,r))
      5: two pure paths + two non-paths   ((1,p),(1,p)), ((p,1),(p,1)),
                                          ((1,r),(r,1)), ((r,1),(1,r))

    with p < q in case 3 and p, r >= 2 in cases 4 and 5.  The parameters
    range over the distances that occur in the pattern.  Raises
    NotStronglyConnectedError unless `d` is strongly connected, and
    MuCaseMatchError when no template (or more than one) matches.
    """
    d._check_vertex(x)
    d._check_vertex(z)
    if not d.is_strongly_connected():
        raise NotStronglyConnectedError("digraph not strongly connected")
    if d.is_symmetric():
        raise NotType22Error(
            "symmetric digraph: not a weakly distance-regular candidate")
    dist = d.distance_matrix()
    if int(dist[x, z]) != 2 or int(dist[z, x]) != 2:
        raise NotType22Error(
            f"pair ({x}, {z}) has two-way distance "
            f"({int(dist[x, z])}, {int(dist[z, x])}), not (2, 2)")
    out = d.underlying_graph().out_masks
    common = list(_mask_bits(out[x] & out[z]))
    if len(common) != 4:
        raise BadMuSizeError(
            f"pair ({x}, {z}) has {len(common)} common neighbours, need 4")
    pats = sorted(((int(dist[x, y]), int(dist[y, x])),
                   (int(dist[y, z]), int(dist[z, y]))) for y in common)
    dists = sorted({t for pair in pats for two_way in pair for t in two_way})
    matches = [case for case, want in _mu_templates(dists)
               if pats == sorted(want)]
    if len(matches) != 1:
        raise MuCaseMatchError(
            f"pattern {pats} matches "
            f"{[m.case for m in matches] or 'no'} case template(s)")
    return matches[0]


def _mu_templates(dists):
    """(MuCase, pattern as a list) of the five templates of `mu_case`, with
    every parameter taken from `dists`."""
    digon = ((1, 1), (1, 1))
    yield MuCase(1, ()), [digon] * 4
    yield MuCase(2, ()), [((1, 2), (1, 2))] * 2 + [((2, 1), (2, 1))] * 2
    for p in dists:
        for q in dists:
            if p < q:
                yield MuCase(3, (p, q)), [((1, p), (1, q)), ((1, q), (1, p)),
                                          ((p, 1), (q, 1)), ((q, 1), (p, 1))]
    for r in dists:
        if r >= 2:
            non_paths = [((1, r), (r, 1)), ((r, 1), (1, r))]
            yield MuCase(4, (r,)), [digon, digon, *non_paths]
            for p in dists:
                if p >= 2:
                    yield MuCase(5, (p, r)), [((1, p), (1, p)),
                                              ((p, 1), (p, 1)), *non_paths]
