"""Relation partitions, association-scheme validation and intersection numbers.

The attached partition of a strongly connected digraph labels each ordered
vertex pair by its two-way distance.  `verify_association_scheme` certifies
the four scheme axioms (diagonal relation, partition, transpose closure,
constant intersection numbers) and, on success, returns the full tensor
p[i][j][l] together with the dual map and valencies; on failure it returns
a structured AxiomViolation with a witness instead of raising.

Axiom (iv) is checked as a multiset equality.  With nc classes, give the
pair (x, y) the n keys class(x,z)*nc + class(z,y), one per vertex z; key
i*nc + j occurs exactly p_{i,j}(x,y) times.  So every intersection number
is constant on every class exactly when each pair's sorted key vector
equals that of its class's representative pair, and at the first position
where two sorted vectors differ the smaller key is the smallest (i, j)
whose count differs.  One sort of n^3 keys replaces nc^2 indicator
products and an nc^3 scan, and gives the same first witness.

The composition identity and the commutation test multiply intersection
matrices in float64, which BLAS runs.  This is exact: every tensor entry is
an integer in 0..n and every sum has nc terms, so each partial sum is an
integer of at most nc*n^2 < 2^53.  A valid scheme has at most n classes,
so the bound holds up to n = 208,063; AssociationScheme enforces the entry
range and the bound and raises TensorRangeError otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .digraph import Digraph
from .errors import (
    NotConnectedError,
    NotStronglyConnectedError,
    NotSymmetricError,
    TensorRangeError,
    UnknownClassError,
)

Label = tuple[int, int]

# Entries of the (x, y, z) key array sorted per chunk of rows x in the
# axiom (iv) check; bounds its buffers to a few MB.
_SORT_ENTRIES = 1 << 20


class RelationPartition:
    """A partition of ordered vertex pairs into labelled relation classes.

    Classes are ordered with the diagonal label first, then lexicographically;
    this makes every derived table byte-reproducible.
    """

    __slots__ = ("n", "classes", "class_of")

    def __init__(self, n: int, classes: Sequence[Label], class_of: np.ndarray):
        self.n = n
        self.classes = tuple(classes)
        class_of = np.ascontiguousarray(class_of, dtype=np.int32)
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

    __slots__ = ("partition", "dual", "k", "p")

    def __init__(self, partition: RelationPartition, dual: tuple[int, ...],
                 k: np.ndarray, p: np.ndarray):
        self.partition = partition
        self.dual = dual
        k = np.asarray(k, dtype=np.int64)
        p = np.asarray(p, dtype=np.int64)
        n = partition.n
        if p.size and (p.min() < 0 or p.max() > n):
            raise TensorRangeError(
                f"intersection numbers must lie in 0..{n}, got "
                f"{p.min()}..{p.max()}")
        if len(self.classes) * n * n >= 2 ** 53:
            raise TensorRangeError(
                f"{len(self.classes)} classes on {n} vertices exceed exact "
                "float64 products")
        k.setflags(write=False)
        p.setflags(write=False)
        self.k = k
        self.p = p

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def classes(self) -> tuple[Label, ...]:
        return self.partition.classes

    @property
    def d(self) -> int:
        """Number of classes minus one."""
        return len(self.classes) - 1

    def class_index(self, label: Label) -> int:
        return self.partition.class_index(label)

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
        return AssociationScheme(self.partition, self.dual, self.k.copy(), p)

    def __repr__(self):
        return (f"AssociationScheme(n={self.n}, classes={list(self.classes)}, "
                f"k={self.k.tolist()})")


def verify_association_scheme(part: RelationPartition):
    """Check axioms (i)-(iv) on a relation partition.

    Returns an AssociationScheme on success, otherwise an AxiomViolation
    carrying the first witness in scan order: the smallest class for (iii),
    the lexicographically first (i, j, l) for (iv).
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

    # (iii) transpose closure: each class transposes onto a single class.
    # One sorted pass over the (class, transposed class) pairs; the first
    # pair of each class is its smallest transposed class.
    co = co.astype(np.int64)
    flat = co.ravel()
    tflat = co.T.ravel()
    pairs, first = np.unique(flat * nc + tflat, return_index=True)
    meets = np.bincount(pairs // nc, minlength=nc)
    if (meets != 1).any():
        i = int(np.flatnonzero(meets != 1)[0])
        cells = np.flatnonzero(flat == i)
        w = []
        if cells.size:
            smallest = int(pairs[np.searchsorted(pairs, i * nc)] % nc)
            a = int(cells[np.flatnonzero(tflat[cells] != smallest)[0]])
            w = [[a // n, a % n]]
        return AxiomViolation(
            3, f"transpose of class {part.classes[i]} meets several classes",
            {"class": list(part.classes[i]), "pair": w})
    dual = tuple(int(v) for v in pairs % nc)

    # (iv) constancy of every intersection number, as a multiset equality
    # (module docstring): each pair's sorted keys against those of its
    # class's representative, the class's first cell in row-major order,
    # which `first` holds now that each class has one transposed class.
    # int32 keys sort about twice as fast as int64 ones.
    ck = co.astype(np.int32 if nc * nc < 2 ** 31 else np.int64)
    rep = np.sort(ck[first // n] * nc + ck.T[first % n], axis=1)
    rows = max(1, _SORT_ENTRIES // (n * n))
    worst = None
    for x0 in range(0, n, rows):
        keys = ck[x0:x0 + rows, None, :] * nc + ck.T[None, :, :]
        keys.sort(axis=2)
        want = rep[ck[x0:x0 + rows]]
        diff = keys != want
        if diff.any():
            # at the first differing position the smaller key is the
            # smallest (i, j) whose count differs on that pair
            t = diff.argmax(axis=2)[..., None]
            bad = np.take_along_axis(diff, t, 2)[..., 0]
            key = np.minimum(np.take_along_axis(keys, t, 2),
                             np.take_along_axis(want, t, 2))[..., 0]
            cand = int((key[bad].astype(np.int64) * nc
                        + co[x0:x0 + rows][bad]).min())
            worst = cand if worst is None else min(worst, cand)
    if worst is not None:
        ij, l = divmod(worst, nc)
        i, j = divmod(ij, nc)
        m = ((co == i).astype(np.int64) @ (co == j).astype(np.int64)).ravel()
        cells = np.flatnonzero(flat == l)
        vals = m[cells]
        a = int(cells[0])
        b = int(cells[np.flatnonzero(vals != vals[0])[0]])
        return AxiomViolation(
            4, "intersection number not constant on class",
            {"i": list(part.classes[i]), "j": list(part.classes[j]),
             "l": list(part.classes[l]),
             "pair_a": [a // n, a % n], "count_a": int(m[a]),
             "pair_b": [b // n, b % n], "count_b": int(m[b])})
    # p[i, j, l] counts key i*nc + j among the keys of class l's representative
    offsets = np.arange(nc, dtype=np.int64)[:, None] * (nc * nc)
    p = np.bincount((rep + offsets).ravel(), minlength=nc ** 3)
    p = np.ascontiguousarray(p.reshape(nc, nc, nc).transpose(1, 2, 0))
    k = np.bincount(co[0], minlength=nc)
    return AssociationScheme(part, dual, k, p)


def is_commutative(s: AssociationScheme) -> bool:
    """True iff p_{i,j}^l = p_{j,i}^l for all classes."""
    return bool(np.array_equal(s.p, s.p.transpose(1, 0, 2)))


def is_symmetric_scheme(s: AssociationScheme) -> bool:
    """True iff every relation equals its transpose."""
    return all(s.dual[i] == i for i in range(len(s.classes)))


def is_primitive(s: AssociationScheme) -> bool:
    """True iff every non-diagonal relation digraph is strongly connected."""
    co = s.partition.class_of
    return all(Digraph(s.n, co == i).is_strongly_connected()
               for i in range(1, len(s.classes)))


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

    passed["composition_exchange"], cex["composition_exchange"] = \
        _composition_exchange(p, s.classes)

    return IdentityReport(passed=passed, counterexamples=cex)


def _composition_exchange(p, classes):
    """First (i, l, m, j) where sum_r p_{i,l}^r p_{m,r}^j differs from
    sum_t p_{m,i}^t p_{t,l}^j, one slice of fixed i at a time."""
    nc = len(classes)
    pf = p.astype(np.float64)  # exact: see the module docstring
    by_first = pf.reshape(nc, nc * nc)  # [t, (l, j)]
    by_second = np.ascontiguousarray(pf.transpose(1, 0, 2)).reshape(nc, nc * nc)
    for i in range(nc):
        lhs = (pf[i] @ by_second).reshape(nc, nc, nc)  # [l, m, j]
        rhs = (pf[:, i] @ by_first).reshape(nc, nc, nc).transpose(1, 0, 2)
        ok, wit = _first_mismatch(lhs, rhs, classes, ("l", "m", "j"))
        if not ok:
            return False, {"i": list(classes[i]), **wit}
    return True, None


def _first_mismatch(lhs, rhs, classes, names):
    neq = lhs != rhs
    if not neq.any():
        return True, None
    idx = tuple(int(v) for v in np.argwhere(neq)[0])
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
    nc = len(s.classes)
    pf = s.p.astype(np.float64)  # exact: see the module docstring
    by_second = np.ascontiguousarray(pf.transpose(1, 0, 2)).reshape(nc, nc * nc)
    for a in range(nc - 1):
        ab = (pf[a] @ by_second[:, (a + 1) * nc:]).reshape(nc, -1, nc)  # [i, b, j]
        ba = (pf[a + 1:].reshape(-1, nc) @ pf[a]).reshape(-1, nc, nc)  # [b, i, j]
        if not np.array_equal(ab.transpose(1, 0, 2), ba):
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
