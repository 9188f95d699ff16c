"""Weak distance-regularity detection and the local combinatorics around it.

A strongly connected digraph is weakly distance-regular when its attached
partition (ordered pairs labelled by two-way distance) is a non-symmetric
association scheme.  This module bundles the detection report with the
local machinery used to study such digraphs: the type set of arcs, the
six-way classification of common neighbours, the a_1/c_2 counting identity
over the intersection tensor, arc purity, and the five-case taxonomy of
(2,2)-pairs with four common neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .digraph import Digraph, _mask_bits
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
    forward pure path C1 with p = 1 (the C2 reading coincides there)."""
    for v in (x, z, y):
        d._check_vertex(v)
    und = d.underlying_graph()
    du = und.distance_matrix()
    if x == z or int(du[x, z]) not in (1, 2):
        raise BadDistanceError(
            f"pair ({x}, {z}) not at underlying distance 1 or 2")
    if y in (x, z) or not (und.has_arc(x, y) and und.has_arc(y, z)):
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
    und = d.underlying_graph().distance_matrix()
    x0, y0 = s.partition.members(tuple(h))[0]
    ud = int(und[x0, y0])
    if ud == 1:
        target = arr.a[1]
    elif ud == 2:
        target = arr.c[1]
    else:
        raise BadDistanceError(
            f"class {tuple(h)} lies at underlying distance {ud}, need 1 or 2")
    arc_classes = [i for i, (f, b) in enumerate(s.classes)
                   if (f == 1 or b == 1) and (f, b) != (0, 0)]
    total = int(sum(s.p[i, j, hi] for i in arc_classes for j in arc_classes))
    return total == target


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
    dist = d.distance_matrix()
    arcs_q = [(u, v) for u, v in d.arcs() if int(dist[v, u]) == q]
    if not arcs_q:
        return Purity.NO_SUCH_TYPE
    out = d.out_masks
    for u, v in arcs_q:
        # walks (u, v, w_2, ..., w_q) closed by the arc (w_q, u); search over
        # states (vertex, steps taken, mixed arc seen) -- at most 2*n*q states
        seen = {(v, 1, False)}
        frontier = [(v, 1, False)]
        while frontier:
            pos, steps, mixed = frontier.pop()
            if steps == q:
                if (out[pos] >> u) & 1:
                    if mixed or int(dist[u, pos]) != q:
                        return Purity.MIXED
                continue
            for w in _mask_bits(out[pos]):
                state = (w, steps + 1, mixed or int(dist[w, pos]) != q)
                if state not in seen:
                    seen.add(state)
                    frontier.append(state)
    return Purity.PURE


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
    MuCaseMatchError when no template (or more than one) matches.
    """
    d._check_vertex(x)
    d._check_vertex(z)
    if d.is_symmetric():
        raise NotType22Error(
            "symmetric digraph: not a weakly distance-regular candidate")
    dist = d.distance_matrix()
    if int(dist[x, z]) != 2 or int(dist[z, x]) != 2:
        raise NotType22Error(
            f"pair ({x}, {z}) has two-way distance "
            f"({int(dist[x, z])}, {int(dist[z, x])}), not (2, 2)")
    common = sorted(d.underlying_graph().common_neighbours(x, z))
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
