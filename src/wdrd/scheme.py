"""Relation partitions, association-scheme validation and intersection numbers.

The attached partition of a strongly connected digraph labels each ordered
vertex pair by its two-way distance.  `verify_association_scheme` certifies
the four scheme axioms (diagonal relation, partition, transpose closure,
constant intersection numbers) and, on success, returns the full tensor
p[i][j][l] together with the dual map and valencies; on failure it returns
a structured AxiomViolation with a witness instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .digraph import Digraph, _bfs_reach, _rows_to_masks
from .errors import NotConnectedError, NotStronglyConnectedError, NotSymmetricError, UnknownClassError

Label = tuple[int, int]


class RelationPartition:
    """A partition of ordered vertex pairs into labelled relation classes.

    Classes are ordered with the diagonal label first, then lexicographically;
    this makes every derived table byte-reproducible.
    """

    __slots__ = ("n", "classes", "class_of")

    def __init__(self, n: int, classes: Sequence[Label], class_of: np.ndarray):
        self.n = n
        self.classes = tuple(classes)
        class_of = np.ascontiguousarray(class_of, dtype=np.int16)
        class_of.setflags(write=False)
        self.class_of = class_of

    def class_index(self, label: Label) -> int:
        try:
            return self.classes.index(tuple(label))
        except ValueError:
            raise UnknownClassError(f"no class labelled {label}") from None

    def members(self, label: Label) -> list[tuple[int, int]]:
        idx = self.class_index(label)
        return [(int(x), int(y)) for x, y in np.argwhere(self.class_of == idx)]

    def __repr__(self):
        return f"RelationPartition(n={self.n}, classes={list(self.classes)})"


def attached_partition(d: Digraph) -> RelationPartition:
    """Partition of ordered pairs by two-way distance, (0,0) class first."""
    if not d.is_strongly_connected():
        raise NotStronglyConnectedError(
            "attached partition requires a strongly connected digraph")
    dist = d.distance_matrix()
    fwd = dist
    bwd = dist.T
    keys = fwd * (d.n + 1) + bwd  # lexicographic on (forward, backward)
    uniq, inv = np.unique(keys, return_inverse=True)
    classes = [(int(k // (d.n + 1)), int(k % (d.n + 1))) for k in uniq]
    return RelationPartition(d.n, classes, inv.reshape(d.n, d.n))


def distance_partition(g: Digraph) -> RelationPartition:
    """Distance partition of a connected graph; equals its attached partition."""
    if not g.is_symmetric():
        raise NotSymmetricError("distance partition is defined for graphs")
    if not g.is_strongly_connected():
        raise NotConnectedError("distance partition requires a connected graph")
    return attached_partition(g)


@dataclass(frozen=True)
class AxiomViolation:
    """Structured scheme-axiom failure; axiom is 1..4 per the usual numbering."""

    axiom: int
    message: str
    witness: dict


class AssociationScheme:
    """A validated association scheme with its full intersection tensor.

    p[i, j, l] counts, for any pair (x, y) in class l, the vertices z with
    (x, z) in class i and (z, y) in class j.  k[i] is the valency of class
    i and dual[i] the transpose class.
    """

    __slots__ = ("partition", "classes", "dual", "k", "p")

    def __init__(self, partition: RelationPartition, classes: tuple[Label, ...],
                 dual: tuple[int, ...], k: np.ndarray, p: np.ndarray):
        self.partition = partition
        self.classes = classes
        self.dual = dual
        k = np.asarray(k, dtype=np.int64)
        p = np.asarray(p, dtype=np.int64)
        k.setflags(write=False)
        p.setflags(write=False)
        self.k = k
        self.p = p

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def d(self) -> int:
        """Number of classes minus one."""
        return len(self.classes) - 1

    def class_index(self, label: Label) -> int:
        try:
            return self.classes.index(tuple(label))
        except ValueError:
            raise UnknownClassError(f"no class labelled {label}") from None

    def has_class(self, label: Label) -> bool:
        return tuple(label) in self.classes

    def k_of(self, label: Label) -> int:
        return int(self.k[self.class_index(label)])

    def p_num(self, i: Label, j: Label, l: Label) -> int:
        """Intersection number p_{i,j}^l addressed by class labels."""
        return int(self.p[self.class_index(i), self.class_index(j),
                          self.class_index(l)])

    def replace_tensor(self, p: np.ndarray) -> "AssociationScheme":
        """Copy with a substituted tensor (fault injection in tests)."""
        return AssociationScheme(self.partition, self.classes, self.dual,
                                 self.k.copy(), p)

    def __repr__(self):
        return (f"AssociationScheme(n={self.n}, classes={list(self.classes)}, "
                f"k={self.k.tolist()})")


def verify_association_scheme(part: RelationPartition):
    """Check axioms (i)-(iv) on a relation partition.

    Returns an AssociationScheme on success, otherwise an AxiomViolation
    carrying the first witness found (deterministic scan order).
    """
    n = part.n
    co = part.class_of
    nc = len(part.classes)

    # (i) diagonal relation is a single class, present nowhere else
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

    # (ii) the label matrix is a partition by construction; nothing to scan.

    # (iii) transpose closure: each class transposes onto a single class
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

    # (iv) constancy of every intersection number
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
    return AssociationScheme(part, part.classes, tuple(dual), k, p)


def is_commutative(s: AssociationScheme) -> bool:
    """True iff p_{i,j}^l = p_{j,i}^l for all classes."""
    return bool(np.array_equal(s.p, s.p.transpose(1, 0, 2)))


def is_symmetric_scheme(s: AssociationScheme) -> bool:
    """True iff every relation equals its transpose."""
    return all(s.dual[i] == i for i in range(len(s.classes)))


def is_primitive(s: AssociationScheme) -> bool:
    """True iff every non-diagonal relation digraph is strongly connected."""
    co = s.partition.class_of
    full = (1 << s.n) - 1
    for i in range(1, len(s.classes)):
        rows = co == i
        if (_bfs_reach(_rows_to_masks(rows), 0) != full
                or _bfs_reach(_rows_to_masks(rows.T), 0) != full):
            return False
    return True


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of the standard intersection-number identities.

    Keys: "valency_sum"          k_i k_j = sum_h p_{i,j}^h k_h
          "valency_transposition" p_{i,j}^l k_l = p_{l,j*}^i k_i = p_{i*,l}^j k_j
          "composition_exchange"  sum_r p_{i,l}^r p_{m,r}^j = sum_t p_{m,i}^t p_{t,l}^j
    """

    passed: dict[str, bool]
    counterexamples: dict[str, dict | None]

    @property
    def ok(self) -> bool:
        return all(self.passed.values())


def check_intersection_identities(s: AssociationScheme) -> IdentityReport:
    """Evaluate the three classical identities on the stored tensor."""
    p = s.p
    k = s.k
    dual = list(s.dual)
    passed = {}
    cex: dict[str, dict | None] = {}

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

    return IdentityReport(passed=passed, counterexamples=cex)


def _first_mismatch(lhs, rhs, classes, names):
    bad = np.argwhere(lhs != rhs)
    if bad.size == 0:
        return True, None
    idx = tuple(int(v) for v in bad[0])
    wit = {nm: list(classes[i]) for nm, i in zip(names, idx)}
    wit["lhs"] = int(lhs[idx])
    wit["rhs"] = int(rhs[idx])
    return False, wit


@dataclass(frozen=True)
class IntersectionMatrix:
    """Matrix B of one class c: B[i][j] = p^j_{c,i}, classes in scheme order."""

    cls: Label
    classes: tuple[Label, ...]
    B: np.ndarray


def intersection_matrix(s: AssociationScheme, c: Label) -> IntersectionMatrix:
    ci = s.class_index(c)
    B = np.array(s.p[ci], dtype=np.int64)
    B.setflags(write=False)
    return IntersectionMatrix(cls=tuple(c), classes=s.classes, B=B)


def matrices_commute(s: AssociationScheme) -> bool:
    """True iff B_a B_b = B_b B_a for every pair of intersection matrices.

    Equivalent to commutativity of the scheme.
    """
    mats = [s.p[i] for i in range(len(s.classes))]
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            if not np.array_equal(mats[a] @ mats[b], mats[b] @ mats[a]):
                return False
    return True


def scheme_table(s: AssociationScheme) -> dict:
    """JSON-ready stable serialization: classes, dual map, valencies, tensor."""
    return {
        "n": s.n,
        "classes": [list(c) for c in s.classes],
        "dual": [list(s.classes[s.dual[i]]) for i in range(len(s.classes))],
        "valencies": s.k.tolist(),
        "p": s.p.tolist(),
    }
