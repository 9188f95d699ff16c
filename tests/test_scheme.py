import itertools
import random

import numpy as np
import pytest

from wdrd import (
    AssociationScheme,
    AxiomViolation,
    attached_partition,
    cayley_cyclic,
    check_intersection_identities,
    complete_graph,
    distance_partition,
    intersection_matrix,
    is_commutative,
    is_primitive,
    is_symmetric_scheme,
    johnson,
    matrices_commute,
    verify_association_scheme,
)
from wdrd import _kernel_py, kernel
from wdrd.digraph import Digraph
from wdrd.errors import (
    BadPartitionError,
    NotStronglyConnectedError,
    TensorRangeError,
    UnknownClassError,
    WdrdError,
)
from wdrd.scheme import RelationPartition
from oracles import (
    BIG,
    commute_by_pairs,
    floyd_warshall,
    identities_by_einsum,
    replace_tensor,
    tensor_by_loops,
    verify_by_scan,
)


def scheme_of(d):
    s = verify_association_scheme(attached_partition(d))
    assert isinstance(s, AssociationScheme), s
    return s


def wide_digraph() -> Digraph:
    """The path 0 -> 1 -> ... -> 269 closed by the arcs 269 -> v, v < 268:
    36,315 two-way distance classes, more than int16 ids can hold."""
    arcs = [(i, i + 1) for i in range(269)] + [(269, v) for v in range(268)]
    return Digraph.from_arcs(270, arcs)


class TestAttachedPartition:
    def test_cay14_classes(self):
        part = attached_partition(cayley_cyclic(6, {1, 4}))
        assert part.classes == ((0, 0), (1, 2), (2, 1), (3, 3))

    def test_cay12_classes(self):
        part = attached_partition(cayley_cyclic(6, {1, 2}))
        assert len(part.classes) == 6
        assert part.classes[0] == (0, 0)
        assert list(part.classes) == sorted(part.classes)

    def test_requires_strong_connectivity(self):
        with pytest.raises(NotStronglyConnectedError):
            attached_partition(Digraph.from_arcs(2, [(0, 1)]))

    def test_class_ids_do_not_wrap(self):
        part = attached_partition(wide_digraph())
        assert len(part.classes) == 36315
        assert part.class_of.min() == 0
        assert part.class_of.max() == len(part.classes) - 1

    def test_symmetric_graph_gives_distance_partition(self):
        g = johnson(5, 2).graph
        assert attached_partition(g).classes == \
            tuple((i, i) for i in range(3))
        assert distance_partition(g).classes == attached_partition(g).classes


def test_first_pair_is_first_member():
    rng = random.Random(7)
    parts = [attached_partition(cayley_cyclic(8, {1, 2, 5}))]
    parts += [random_partition(rng) for _ in range(200)]
    for part in parts:
        for label in part.classes:
            members = part.members(label)
            if members:
                assert part.first_pair(label) == members[0]
            else:
                with pytest.raises(IndexError):
                    part.first_pair(label)


class TestVerification:
    def test_cay14_valencies(self):
        s = scheme_of(cayley_cyclic(6, {1, 4}))
        assert s.k.tolist() == [1, 2, 2, 1]
        assert sum(s.k) == s.n

    def test_three_vertex_violation(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 0), (1, 2), (2, 0)])
        v = verify_association_scheme(attached_partition(d))
        assert isinstance(v, AxiomViolation)
        assert v.axiom == 4
        # the (1,1) class has a neighbour at vertex 0 but none at vertex 2
        assert v.witness["i"] == [1, 1] and v.witness["l"] == [0, 0]
        assert {v.witness["count_a"], v.witness["count_b"]} == {0, 1}

    def test_j52_distance_partition_valid_symmetric(self):
        s = scheme_of(johnson(5, 2).graph)
        assert is_symmetric_scheme(s)
        assert is_commutative(s)

    def test_tensor_matches_loop_oracle(self):
        for d in (cayley_cyclic(6, {1, 4}), cayley_cyclic(6, {1, 2}),
                  johnson(5, 2).graph):
            part = attached_partition(d)
            s = verify_association_scheme(part)
            ref = tensor_by_loops(np.asarray(part.class_of), len(part.classes))
            assert ref is not None
            assert np.array_equal(s.p, ref)

    def test_loop_oracle_rejects_bad_partition(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 0), (1, 2), (2, 0)])
        part = attached_partition(d)
        assert tensor_by_loops(np.asarray(part.class_of), len(part.classes)) is None


class TestPredicates:
    def test_commutative(self):
        assert is_commutative(scheme_of(cayley_cyclic(6, {1, 2})))
        assert is_commutative(scheme_of(cayley_cyclic(6, {1, 4})))
        assert is_commutative(scheme_of(johnson(4, 2).graph))

    def test_symmetric_scheme(self):
        assert is_symmetric_scheme(scheme_of(johnson(4, 2).graph))
        assert not is_symmetric_scheme(scheme_of(cayley_cyclic(6, {1, 4})))
        assert not is_symmetric_scheme(scheme_of(cayley_cyclic(6, {1, 2})))

    def test_primitive(self):
        assert not is_primitive(scheme_of(cayley_cyclic(6, {1, 4})))
        assert not is_primitive(scheme_of(johnson(4, 2).graph))
        assert is_primitive(scheme_of(johnson(5, 2).graph))
        # J(2e,e) distance schemes are imprimitive for e in {2, 3}
        assert not is_primitive(scheme_of(johnson(6, 3).graph))
        for d in (cayley_cyclic(6, {1, 2}), cayley_cyclic(6, {1, 4}),
                  johnson(4, 2).graph, johnson(5, 2).graph,
                  johnson(6, 3).graph, complete_graph(4)):
            s = scheme_of(d)
            co = np.asarray(s.partition.class_of)
            reach = all((floyd_warshall(co == i) < BIG).all()
                        for i in range(1, len(s.classes)))
            assert is_primitive(s) == reach

    def test_dual_involution_and_valency(self):
        for d in (cayley_cyclic(6, {1, 2}), cayley_cyclic(8, {1, 2, 5})):
            if not d.is_strongly_connected():
                continue
            res = verify_association_scheme(attached_partition(d))
            if not isinstance(res, AssociationScheme):
                continue
            for i, _ in enumerate(res.classes):
                assert res.dual[res.dual[i]] == i
                assert res.k[res.dual[i]] == res.k[i]

    def test_row_sum_law(self):
        for d in (cayley_cyclic(6, {1, 4}), johnson(5, 2).graph):
            s = scheme_of(d)
            # sum_j p_{i,j}^l = k_i for every i, l
            sums = s.p.sum(axis=1)
            want = np.tile(s.k[:, None], (1, len(s.classes)))
            assert np.array_equal(sums, want)


class TestIdentities:
    def test_pass_on_valid_schemes(self):
        for d in (cayley_cyclic(6, {1, 4}), cayley_cyclic(6, {1, 2}),
                  johnson(6, 2).graph):
            rep = check_intersection_identities(scheme_of(d))
            assert rep.ok, rep

    def test_perturbed_tensor_fails_valency_sum(self):
        s = scheme_of(cayley_cyclic(6, {1, 4}))
        p = s.p.copy()
        p[1, 2, 3] += 1
        rep = check_intersection_identities(replace_tensor(s, p))
        assert not rep.passed["valency_sum"]
        assert rep.counterexamples["valency_sum"] is not None


class TestIntersectionMatrices:
    def test_cay14_entries(self):
        s = scheme_of(cayley_cyclic(6, {1, 4}))
        m = intersection_matrix(s, (1, 2))
        i12 = s.class_index((1, 2))
        i21 = s.class_index((2, 1))
        assert m.B[i12, i21] == 2
        assert m.B[i21, 0] == s.k_of((1, 2)) == 2

    def test_diagonal_class_identity(self):
        for d in (cayley_cyclic(6, {1, 4}), johnson(5, 2).graph):
            s = scheme_of(d)
            m = intersection_matrix(s, (0, 0))
            assert np.array_equal(m.B, np.eye(len(s.classes), dtype=np.int64))

    def test_unknown_class(self):
        s = scheme_of(cayley_cyclic(6, {1, 4}))
        with pytest.raises(UnknownClassError):
            intersection_matrix(s, (9, 9))

    def test_commute_iff_commutative(self):
        for d in (cayley_cyclic(6, {1, 2}), cayley_cyclic(6, {1, 4}),
                  johnson(5, 2).graph):
            s = scheme_of(d)
            assert matrices_commute(s) == is_commutative(s)

    def test_injected_noncommutative_tensor(self):
        s = scheme_of(cayley_cyclic(6, {1, 4}))
        p = s.p.copy()
        p[1, 2, 3] += 1  # break p_{i,j}^l = p_{j,i}^l
        sbad = replace_tensor(s, p)
        assert not is_commutative(sbad)
        assert not matrices_commute(sbad)


class TestRandomCayleySchemes:
    def test_identities_on_random_translation_partitions(self):
        """Seeded sweep: every validating attached partition of a random
        cyclic Cayley digraph satisfies the identities and the
        matrix-commutation equivalence."""
        rng = random.Random(20240809)
        seen = valid = 0
        while seen < 60:
            m = rng.randint(4, 12)
            size = rng.randint(1, m - 1)
            conn = set(rng.sample(range(1, m), size))
            d = cayley_cyclic(m, conn)
            if not d.is_strongly_connected():
                continue
            seen += 1
            res = verify_association_scheme(attached_partition(d))
            if isinstance(res, AxiomViolation):
                continue
            valid += 1
            assert check_intersection_identities(res).ok
            assert matrices_commute(res) == is_commutative(res)
            assert sum(res.k) == res.n
        assert valid > 0


def test_complete_graph_scheme():
    s = scheme_of(complete_graph(4))
    assert s.classes == ((0, 0), (1, 1))
    assert s.k.tolist() == [1, 3]


# -- the vectorised checks against the scan-loop oracles ----------------------

def assert_same_outcome(got, want):
    """Equal AxiomViolation (axiom, message, witness) or equal scheme."""
    assert type(got) is type(want)
    if isinstance(want, AxiomViolation):
        assert (got.axiom, got.message, got.witness) == \
            (want.axiom, want.message, want.witness)
    else:
        assert got.classes == want.classes and got.dual == want.dual
        assert got.k.dtype == want.k.dtype and got.p.dtype == want.p.dtype
        assert np.array_equal(got.k, want.k)
        assert np.array_equal(got.p, want.p)


def random_partition(rng):
    """A relation partition on at most 12 points: a fusion of the thin
    cyclic scheme, a nearly transpose-closed random labelling, or a plain
    random labelling; sometimes with a broken diagonal, reordered class
    ids or an empty class."""
    n = rng.randint(1, 12)
    kind = rng.random()
    if kind < 0.4:
        fuse = [0] + [rng.randint(1, rng.randint(1, n)) for _ in range(1, n)]
        co = np.array([[fuse[(y - x) % n] for y in range(n)] for x in range(n)])
    elif kind < 0.7:
        nc = rng.randint(1, 5)
        dual = list(range(nc + 1))
        for c in range(1, nc + 1):
            if rng.random() < 0.5:
                e = rng.randint(1, nc)
                dual[c], dual[e] = e, c
        co = np.zeros((n, n), dtype=int)
        for x in range(n):
            for y in range(x + 1, n):
                c = rng.randint(1, nc)
                co[x, y] = c
                co[y, x] = dual[c] if rng.random() < 0.97 else rng.randint(1, nc)
    else:
        nc = rng.randint(1, 4)
        co = np.array([[0 if x == y else rng.randint(1, nc) for y in range(n)]
                       for x in range(n)])
    r = rng.random()
    if r < 0.05 and n > 1:
        co[rng.randrange(n), rng.randrange(n)] = 0
    elif r < 0.1 and n > 1:
        x = rng.randrange(n)
        co[x, x] = rng.randint(0, 3)
    ids = sorted(set(co.ravel().tolist()))
    order = list(range(len(ids)))
    if rng.random() < 0.05:
        rng.shuffle(order)
    remap = dict(zip(ids, order))
    co = np.array([[remap[v] for v in row] for row in co.tolist()])
    nc = len(ids) + (rng.random() < 0.03)  # sometimes one empty class
    return RelationPartition(n, [(c, c + 1) for c in range(nc)], co)


def perturbed_cayley(rng, m):
    """A relabelled cyclic Cayley digraph with up to two arcs toggled."""
    conn = rng.sample(range(1, m), rng.randint(1, min(4, m - 1)))
    perm = list(range(m))
    rng.shuffle(perm)
    arcs = {(perm[u], perm[v]) for u, v in cayley_cyclic(m, set(conn)).arcs()}
    for _ in range(rng.choice((0, 0, 1, 2))):
        arcs ^= {tuple(rng.sample(range(m), 2))}
    return Digraph.from_arcs(m, sorted(arcs))


def thin_scheme_s3() -> RelationPartition:
    """The regular scheme of S3: (x, y) lies in class x^-1 y.  Valid and
    not commutative."""
    perms = list(itertools.permutations(range(3)))
    index = {q: c for c, q in enumerate(perms)}

    def quotient(x, y):  # x^-1 y
        inv = [0] * 3
        for pos, v in enumerate(x):
            inv[v] = pos
        return tuple(inv[y[t]] for t in range(3))

    co = [[index[quotient(x, y)] for y in perms] for x in perms]
    return RelationPartition(6, [(c, c) for c in range(6)], np.array(co))


def perturbed_tensors(rng, s, count):
    for _ in range(count):
        p = s.p.copy()
        idx = tuple(rng.randrange(size) for size in p.shape)
        p[idx] = rng.randint(0, s.n)
        yield replace_tensor(s, p)


@pytest.fixture
def scheme_backend(backend, monkeypatch):
    """`wdrd.scheme` running its tensor checks on each backend."""
    monkeypatch.setattr(kernel, "axiom_iv_witness", backend.axiom_iv_witness)
    monkeypatch.setattr(kernel, "product_witness", backend.product_witness)
    return backend


def more_classes_than_vertices() -> RelationPartition:
    """Seven transpose-closed classes on three points: axioms (i)-(iii)
    hold, and (iv) cannot, as the valencies of a scheme sum to n."""
    co = np.array([[0, 1, 3], [2, 0, 5], [4, 6, 0]])
    return RelationPartition(3, [(c, c) for c in range(7)], co)


def check_relabelled_perturbed_cayley():
    """The attached partitions of about 250 relabelled, perturbed cyclic
    Cayley digraphs and one on 64 points give the scan oracle's outcome."""
    rng = random.Random(11)
    outcomes = set()
    sizes = set()
    for m in [rng.randint(3, 20) for _ in range(250)] + [64]:
        d = perturbed_cayley(rng, m)
        if not d.is_strongly_connected():
            continue
        part = attached_partition(d)
        want = verify_by_scan(part)
        assert_same_outcome(verify_association_scheme(part), want)
        outcomes.add(getattr(want, "axiom", 0))
        sizes.add(m)
    assert {0, 4} <= outcomes and 64 in sizes


def test_sort_chunks_of_one_row(monkeypatch):
    """The pure axiom (iv) pass with one row x per sort chunk, so the
    first witness has to be found across chunks."""
    monkeypatch.setattr(_kernel_py, "_SORT_ENTRIES", 1)
    monkeypatch.setattr(kernel, "axiom_iv_witness",
                        _kernel_py.axiom_iv_witness)
    check_relabelled_perturbed_cayley()


@pytest.mark.usefixtures("scheme_backend")
class TestAgainstScanOracles:
    def test_random_partitions(self):
        rng = random.Random(7)
        outcomes = set()
        for _ in range(400):
            part = random_partition(rng)
            want = verify_by_scan(part)
            assert_same_outcome(verify_association_scheme(part), want)
            outcomes.add(getattr(want, "axiom", 0))
        assert outcomes == {0, 1, 3, 4}

    def test_relabelled_perturbed_cayley(self):
        check_relabelled_perturbed_cayley()

    def test_more_classes_than_vertices(self):
        """Such a partition runs on the pure pass on either backend."""
        part = more_classes_than_vertices()
        want = verify_by_scan(part)
        assert want.axiom == 4
        assert_same_outcome(verify_association_scheme(part), want)

    def test_noncommutative_thin_scheme(self):
        part = thin_scheme_s3()
        got = verify_association_scheme(part)
        assert_same_outcome(got, verify_by_scan(part))
        assert not is_commutative(got)

    def test_thin_scheme_on_64_points(self):
        part = attached_partition(cayley_cyclic(64, {1}))
        got = verify_association_scheme(part)
        assert_same_outcome(got, verify_by_scan(part))
        assert len(got.classes) == 64

    def test_identities_and_commutation_on_perturbed_tensors(self):
        rng = random.Random(5)
        failed = passed = 0
        schemes = [scheme_of(d) for d in (
            cayley_cyclic(6, {1, 2}), cayley_cyclic(6, {1, 4}),
            cayley_cyclic(7, {1, 2, 4}), johnson(6, 3).graph,
            cayley_cyclic(16, {1}))]
        schemes.append(verify_association_scheme(thin_scheme_s3()))
        for s in schemes:
            for t in (s, *perturbed_tensors(rng, s, 40)):
                rep = check_intersection_identities(t)
                assert (rep.passed, rep.counterexamples) == identities_by_einsum(t)
                assert matrices_commute(t) == commute_by_pairs(t)
                failed += not rep.passed["composition_exchange"]
                passed += rep.ok
        assert failed and passed

    def test_tensor_outside_zero_to_n_rejected(self):
        s = scheme_of(cayley_cyclic(6, {1, 4}))
        for value in (-1, s.n + 1):
            p = s.p.copy()
            p[1, 2, 3] = value
            with pytest.raises(TensorRangeError):
                replace_tensor(s, p)
        p = s.p.copy()
        p[1, 2, 3] = s.n
        assert replace_tensor(s, p).p[1, 2, 3] == s.n


BAD_LABELS = {
    "label past the classes": np.array([[0, 2], [1, 0]]),
    "negative label": np.array([[0, -1], [1, 0]]),
    "not square": np.zeros((2, 3), dtype=int),
    "not a matrix": np.zeros(4, dtype=int),
    "float labels": np.zeros((2, 2)),
}


@pytest.mark.parametrize("co", BAD_LABELS.values(), ids=BAD_LABELS)
def test_bad_label_matrix_is_rejected(co):
    """Rejected when the partition is made, before any check indexes by
    the labels."""
    with pytest.raises(BadPartitionError) as error:
        RelationPartition(2, [(0, 0), (1, 1)], co)
    assert isinstance(error.value, WdrdError)
    assert isinstance(error.value, ValueError)


def scheme_entry_cases(seed):
    """Arguments for both tensor entry points: (class_of, reps) of random
    partitions and perturbed Cayley digraphs with at most n classes, none
    empty, each class represented by its first cell and by its last, and
    tensors of valid schemes, perturbed or not."""
    rng = random.Random(seed)
    parts = [random_partition(rng) for _ in range(120)]
    parts += [attached_partition(d) for d in
              (perturbed_cayley(rng, m) for m in (5, 9, 12, 16, 24, 64))
              if d.is_strongly_connected()]
    partitions = []
    for part in parts:
        labels, first = np.unique(part.class_of, return_index=True)
        if len(labels) == len(part.classes) <= part.n:
            _, last = np.unique(part.class_of.ravel()[::-1], return_index=True)
            partitions += [(part.class_of, first),
                           (part.class_of, part.class_of.size - 1 - last)]
    schemes = [scheme_of(d) for d in (cayley_cyclic(7, {1, 2, 4}),
                                      johnson(6, 3).graph,
                                      cayley_cyclic(12, {1}))]
    schemes.append(verify_association_scheme(thin_scheme_s3()))
    tensors = [t.p for s in schemes for t in (s, *perturbed_tensors(rng, s, 15))]
    return partitions, tensors


def check_scheme_parity(backend, seed=3):
    """`backend`'s tensor entry points return what the pure reference
    returns on `scheme_entry_cases(seed)`; the outcomes are mixed."""
    partitions, tensors = scheme_entry_cases(seed)
    seen = set()
    for args in partitions:
        got = backend.axiom_iv_witness(*args)
        assert got == _kernel_py.axiom_iv_witness(*args)
        seen.add(("axiom", got is None))
    for p in tensors:
        for commute in (False, True):
            got = backend.product_witness(p, commute)
            assert got == _kernel_py.product_witness(p, commute)
            seen.add((commute, got is None))
    assert len(seen) == 6


def test_entry_points_match_the_pure_reference(backend):
    check_scheme_parity(backend)
