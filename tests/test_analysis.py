import pytest

from wdrd import (
    AssociationScheme,
    AxiomViolation,
    Digraph,
    PathClass,
    Purity,
    arc_purity,
    attached_partition,
    cayley_cyclic,
    classify_common_neighbour,
    johnson,
    mu_case,
    type_set,
    verify_association_scheme,
    verify_local_counts,
    wdrd_report,
)
from wdrd.analysis import MuCase
from wdrd.errors import (
    BadDistanceError,
    BadMuSizeError,
    MuCaseMatchError,
    NotCommonNeighbourError,
    NotStronglyConnectedError,
    NotType22Error,
    UnderlyingNotDistanceRegularError,
    VertexOutOfRangeError,
)
from wdrd.search import _underlying_edges, word_to_digraph


def johnson42_orientation(word):
    """The orientation of J(4,2) with edge states `word` over its edges in
    lexicographic order."""
    g = johnson(4, 2).graph
    return word_to_digraph(g.n, _underlying_edges(g), bytes(word))


@pytest.fixture(scope="module")
def cay14():
    return cayley_cyclic(6, {1, 4})


@pytest.fixture(scope="module")
def cay12():
    return cayley_cyclic(6, {1, 2})


def scheme_of(d):
    s = verify_association_scheme(attached_partition(d))
    assert isinstance(s, AssociationScheme)
    return s


class TestWdrdReport:
    def test_both_cayley_digraphs_are_commutative_wdrd(self, cay14, cay12):
        for d in (cay14, cay12):
            rep = wdrd_report(d)
            assert rep.strongly_connected and rep.non_symmetric
            assert rep.is_wdrd and rep.commutative

    def test_axiom_violation_candidate(self):
        rep = wdrd_report(Digraph.from_arcs(3, [(0, 1), (1, 0), (1, 2), (2, 0)]))
        assert not rep.is_wdrd
        assert isinstance(rep.scheme, AxiomViolation)

    def test_symmetric_graph_is_not_wdrd(self):
        rep = wdrd_report(johnson(4, 2).graph)
        assert rep.strongly_connected and not rep.non_symmetric
        assert not rep.is_wdrd
        assert isinstance(rep.scheme, AssociationScheme)

    def test_disconnected(self):
        rep = wdrd_report(Digraph.from_arcs(2, [(0, 1)]))
        assert not rep.strongly_connected and rep.scheme is None
        assert not rep.is_wdrd and rep.type_set is None

    def test_strong_connectivity_checked_once(self, cay12, monkeypatch):
        calls = []
        real = Digraph.is_strongly_connected
        monkeypatch.setattr(Digraph, "is_strongly_connected",
                            lambda d: calls.append(d) or real(d))
        assert wdrd_report(cay12).type_set == {3, 4}
        assert len(calls) == 1


class TestTypeSet:
    def test_values(self, cay14, cay12):
        assert type_set(cay12) == {3, 4}
        assert type_set(cay14) == {3}
        assert type_set(johnson(4, 2).graph) == {2}

    def test_requires_connectivity(self):
        with pytest.raises(NotStronglyConnectedError):
            type_set(Digraph.from_arcs(2, [(0, 1)]))

    def test_min_two_iff_digon(self, cay12):
        assert min(type_set(cay12)) > 2  # no digons
        with_digon = Digraph.from_arcs(
            3, [(0, 1), (1, 0), (1, 2), (2, 0), (0, 2)])
        assert min(type_set(with_digon)) == 2


class TestClassifyCommonNeighbour:
    def test_pure_path(self, cay14):
        assert classify_common_neighbour(cay14, 0, 2, 1) == PathClass("C1", (2,))

    def test_non_path(self, cay14):
        assert classify_common_neighbour(cay14, 0, 3, 1) == PathClass("C5", (2, 2))

    def test_mixed_reverse_path(self, cay12):
        assert classify_common_neighbour(cay12, 0, 3, 4) == PathClass("C4", (2, 3))

    def test_digon_neighbour_reports_c1(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0)])
        assert classify_common_neighbour(d, 0, 2, 1) == PathClass("C1", (1,))

    def test_exhaustive_and_single_valued(self, cay14, cay12):
        tags = {"C1": 0, "C2": 0, "C3": 0, "C4": 0, "C5": 0, "C6": 0}
        for d in (cay14, cay12):
            und = d.underlying_graph()
            du = und.distance_matrix()
            for x in range(6):
                for z in range(6):
                    if x != z and int(du[x, z]) in (1, 2):
                        for y in und.common_neighbours(x, z):
                            pc = classify_common_neighbour(d, x, z, y)
                            tags[pc.tag] += 1
        assert all(v > 0 for k, v in tags.items() if k in
                   ("C1", "C2", "C3", "C4", "C5", "C6")), tags

    def test_errors(self, cay14):
        with pytest.raises(NotCommonNeighbourError):
            classify_common_neighbour(cay14, 0, 2, 3)
        with pytest.raises(BadDistanceError):
            classify_common_neighbour(cay14, 0, 0, 1)

    @pytest.mark.parametrize("bad", [6, -1])
    def test_vertices_checked_first(self, cay14, bad):
        for args in ((bad, 2, 1), (0, bad, 1), (0, 2, bad)):
            with pytest.raises(VertexOutOfRangeError):
                classify_common_neighbour(cay14, *args)

    def test_requires_connectivity(self):
        # every edge forward: no path leads back to vertex 0, and the no-path
        # distance must not become a case parameter
        d = johnson42_orientation([0] * 12)
        with pytest.raises(NotStronglyConnectedError):
            classify_common_neighbour(d, 0, 1, 2)


class TestLocalCounts:
    def test_reference_values(self, cay14, cay12):
        assert verify_local_counts(cay14, scheme_of(cay14), (1, 2))
        assert verify_local_counts(cay12, scheme_of(cay12), (2, 2))
        assert verify_local_counts(cay12, scheme_of(cay12), (1, 3))

    def test_all_near_classes_both_digraphs(self, cay14, cay12):
        for d in (cay14, cay12):
            s = scheme_of(d)
            und = d.underlying_graph().distance_matrix()
            for lbl in s.classes:
                if lbl == (0, 0):
                    continue
                x0, y0 = s.partition.members(lbl)[0]
                if int(und[x0, y0]) in (1, 2):
                    assert verify_local_counts(d, s, lbl), lbl

    def test_underlying_must_be_distance_regular(self):
        # directed path glued to a cycle: underlying graph irregular
        d = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 2)])
        s = verify_association_scheme(attached_partition(d))
        if isinstance(s, AssociationScheme):
            with pytest.raises(UnderlyingNotDistanceRegularError):
                verify_local_counts(d, s, s.classes[1])


class TestArcPurity:
    def test_cay12(self, cay12):
        assert arc_purity(cay12, 2) is Purity.PURE
        assert arc_purity(cay12, 3) is Purity.MIXED

    def test_cay14(self, cay14):
        assert arc_purity(cay14, 3) is Purity.NO_SUCH_TYPE
        assert arc_purity(cay14, 2) is Purity.PURE

    def test_digon_type_always_pure(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 0), (1, 2), (2, 0), (0, 2)])
        assert arc_purity(d, 1) is Purity.PURE


class TestMuCase:
    def test_cay12_all_pairs_case_three(self, cay12):
        for x in range(6):
            for z in range(x + 1, 6):
                if cay12.two_way_distance(x, z) == (2, 2):
                    assert mu_case(cay12, x, z) == MuCase(3, (2, 3))

    def test_no_22_class(self, cay14):
        with pytest.raises(NotType22Error):
            mu_case(cay14, 0, 3)

    def test_symmetric_input_rejected(self):
        with pytest.raises(NotType22Error):
            mu_case(johnson(4, 2).graph, 0, 5)

    def test_mu_size_guard(self):
        # directed 4-cycle: (0,2) has two-way distance (2,2) but only
        # two common neighbours
        c4 = cayley_cyclic(4, {1})
        with pytest.raises(BadMuSizeError):
            mu_case(c4, 0, 2)

    def test_case_one_on_double_cover_style_digraph(self):
        # two digon 4-cycles through the pair (0, 1) and two single arcs
        arcs = []
        for u, v in [(0, 2), (2, 1), (1, 3), (3, 0), (0, 4), (4, 1), (1, 5), (5, 0)]:
            arcs.append((u, v))
            arcs.append((v, u))
        d = Digraph.from_arcs(6, arcs + [(2, 3), (4, 5)])
        assert mu_case(d, 0, 1) == MuCase(1, ())

    # orientations of the octahedron J(4,2) whose antipodal pair (0, 5)
    # has two-way distance (2, 2); all are strongly connected
    def test_case_two(self):
        d = Digraph.from_arcs(6, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 5), (2, 4),
                                  (2, 5), (3, 0), (3, 1), (3, 4), (4, 0), (4, 2),
                                  (5, 3), (5, 4)])
        assert mu_case(d, 0, 5) == MuCase(2, ())

    def test_case_four(self):
        d = Digraph.from_arcs(6, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (2, 0),
                                  (2, 4), (2, 5), (3, 0), (3, 4), (3, 5), (4, 0),
                                  (4, 5), (5, 1), (5, 3), (5, 4)])
        assert mu_case(d, 0, 5) == MuCase(4, (2,))

    def test_case_five(self):
        d = Digraph.from_arcs(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (2, 5),
                                  (3, 0), (3, 4), (4, 0), (4, 5), (5, 1), (5, 3)])
        assert mu_case(d, 0, 5) == MuCase(5, (2, 2))

    def test_no_template(self):
        d = Digraph.from_arcs(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 5),
                                  (2, 4), (2, 5), (3, 4), (3, 5), (4, 0), (5, 4)])
        with pytest.raises(MuCaseMatchError, match="matches no case"):
            mu_case(d, 0, 5)

    @pytest.mark.parametrize("bad", [6, -1, -6])
    def test_vertices_checked_first(self, cay12, bad):
        for x, z in ((bad, 0), (0, bad), (bad, 2)):
            with pytest.raises(VertexOutOfRangeError):
                mu_case(cay12, x, z)

    def test_requires_connectivity(self):
        # (0, 5) has two-way distance (2, 2), but some pairs have no path
        d = johnson42_orientation([0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1])
        assert d.two_way_distance(0, 5) == (2, 2)
        with pytest.raises(NotStronglyConnectedError):
            mu_case(d, 0, 5)
