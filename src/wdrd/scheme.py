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
is constant on every class exactly when each pair's key counts equal
those of its class's representative pair, the class's first cell in
row-major order.  The kernel backend runs this test as
`axiom_iv_witness`: the compiled one counts each pair's keys against its
representative's in an nc^2 table, the pure one compares sorted keys.
Both return the smallest (i, j, l) whose count differs, the first witness
of a scan over (i, j, l), and this module builds the witness's pairs and,
on success, the tensor from the representatives' keys.  A partition with
more classes than vertices is never a scheme, since the valencies are at
least 1 and sum to n; its test runs on the pure backend, because the
compiled pass takes at most n classes.

The composition identity and the commutation test run as the backend's
`product_witness`: the compiled one sums int64 products over the tensor's
nonzero entries, one row at a time, the pure one multiplies slices in
float64, which BLAS runs.  Both are exact: every tensor entry is an
integer in 0..n and every sum has nc terms, so each partial sum is an
integer of at most nc*n^2 < 2^53.  A valid scheme has at most n classes,
so the bound holds up to n = 208,063; AssociationScheme enforces the entry
range and the bound and raises TensorRangeError otherwise.  The axiom (iv)
witness product of two 0/1 class matrices runs in float64 BLAS; its
partial sums are at most n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernel_py, kernel
from .digraph import Digraph
from .errors import (
    BadPartitionError,
    NotConnectedError,
    NotStronglyConnectedError,
    NotSymmetricError,
    TensorRangeError,
    UnknownClassError,
)

Label = tuple[int, int]


class RelationPartition:
    """A partition of ordered vertex pairs into labelled relation classes.

    Classes are ordered with the diagonal label first, then lexicographically;
    this makes every derived table byte-reproducible.  `class_of` must be
    an n x n integer matrix of labels in 0..len(classes) - 1
    (BadPartitionError otherwise).
    """

    __slots__ = ("n", "classes", "class_of")

    def __init__(self, n: int, classes: Sequence[Label], class_of: np.ndarray):
        self.n = n
        self.classes = tuple(classes)
        class_of = np.asarray(class_of)
        if class_of.shape != (n, n) or not np.issubdtype(class_of.dtype,
                                                         np.integer):
            raise BadPartitionError(
                f"need an {n} x {n} integer label matrix, got shape "
                f"{class_of.shape} of {class_of.dtype}")
        if class_of.size and (class_of.min() < 0
                              or class_of.max() >= len(self.classes)):
            raise BadPartitionError(
                f"labels must lie in 0..{len(self.classes) - 1}, got "
                f"{class_of.min()}..{class_of.max()}")
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

    def first_pair(self, label: Label) -> tuple[int, int]:
        """The first pair of the class in row-major order: `members(label)[0]`
        without the list (IndexError for an empty class, as there)."""
        idx = self.class_index(label)
        return divmod(int(np.flatnonzero(self.class_of == idx)[0]), self.n)

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

    # (iv) constancy of every intersection number (module docstring),
    # against the representatives, each class's first cell in row-major
    # order, which `first` holds now that each class has one transposed
    # class.
    found = (_kernel_py if nc > n else kernel).axiom_iv_witness(
        part.class_of, first)
    if found is not None:
        i, j, l = found
        # exact in float64: see the module docstring
        m = ((co == i).astype(np.float64) @ (co == j).astype(np.float64)).ravel()
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
    rep = co[first // n] * nc + co.T[first % n]
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

    found = kernel.product_witness(p)
    passed["composition_exchange"] = found is None
    cex["composition_exchange"] = None
    if found is not None:
        i, l, m, j = found
        cex["composition_exchange"] = {
            **{nm: list(s.classes[c]) for nm, c in zip("ilmj", found)},
            "lhs": int(p[i, l] @ p[m, :, j]), "rhs": int(p[m, i] @ p[:, l, j])}

    return IdentityReport(passed=passed, counterexamples=cex)


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
    return kernel.product_witness(s.p, commute=True) is None


def scheme_table(s: AssociationScheme) -> dict:
    """JSON-ready stable serialization: classes, dual map, valencies, tensor."""
    return {
        "n": s.n,
        "classes": [list(c) for c in s.classes],
        "dual": [list(s.classes[s.dual[i]]) for i in range(len(s.classes))],
        "valencies": s.k.tolist(),
        "p": s.p.tolist(),
    }
