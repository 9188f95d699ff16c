import numpy as np
import pytest

from wdrd import (
    NotDistanceRegular,
    are_isomorphic,
    cayley_cyclic,
    complete_graph,
    folded_johnson,
    intersection_array,
    johnson,
    predicted_array,
)
from wdrd.digraph import DGF_MAX_N, Digraph
from wdrd.errors import BadParametersError, NotConnectedError, NotSymmetricError


class TestJohnson:
    def test_j42_octahedron(self):
        g = johnson(4, 2)
        assert g.graph.n == 6
        assert g.graph.arc_count == 24  # 12 edges
        assert all(m.bit_count() == 4 for m in g.graph.out_masks)

    def test_j52_six_regular(self):
        g = johnson(5, 2)
        assert g.graph.n == 10
        assert all(m.bit_count() == 6 for m in g.graph.out_masks)

    def test_j31_clique_with_warning(self):
        with pytest.warns(UserWarning, match="clique"):
            g = johnson(3, 1)
        assert g.graph.arc_count == 6

    def test_bad_parameters(self):
        with pytest.raises(BadParametersError):
            johnson(3, 2)
        with pytest.raises(BadParametersError):
            johnson(4, 0)

    def test_labels_match_adjacency(self):
        g = johnson(6, 3)
        for u in range(g.graph.n):
            for v in range(g.graph.n):
                if u != v:
                    want = (g.label_masks[u] & g.label_masks[v]).bit_count() == 2
                    assert g.graph.has_arc(u, v) == want

    def test_label_order_ascending(self):
        g = johnson(5, 2)
        assert list(g.label_masks) == sorted(g.label_masks)


class TestFoldedJohnson:
    def test_f4(self):
        g = folded_johnson(4)
        assert g.graph.n == 35
        assert all(m.bit_count() == 16 for m in g.graph.out_masks)

    def test_f5(self):
        g = folded_johnson(5)
        assert g.graph.n == 126
        assert all(m.bit_count() == 25 for m in g.graph.out_masks)

    def test_f3_clique_with_warning(self):
        with pytest.warns(UserWarning, match="clique"):
            g = folded_johnson(3)
        assert g.graph.n == 10
        assert g.graph.arc_count == 90

    def test_labels_contain_zero(self):
        g = folded_johnson(4)
        assert all(m & 1 for m in g.label_masks)

    def test_bad_parameters(self):
        with pytest.raises(BadParametersError):
            folded_johnson(1)


class TestCayley:
    def test_arc_counts_and_digons(self):
        for conn in ({1, 2}, {1, 4}):
            d = cayley_cyclic(6, conn)
            assert d.arc_count == 12
            assert not (d.adjacency & d.adjacency.T).any()

    def test_symmetric_four_cycle(self):
        d = cayley_cyclic(4, {1, 3})
        assert d.is_symmetric() and d.arc_count == 8

    def test_vertex_transitive_degrees(self):
        d = cayley_cyclic(9, {1, 3, 7})
        assert all(m.bit_count() == 3 for m in d.out_masks)
        assert all(m.bit_count() == 3 for m in d.in_masks)

    def test_bad_parameters(self):
        with pytest.raises(BadParametersError):
            cayley_cyclic(6, set())
        with pytest.raises(BadParametersError):
            cayley_cyclic(6, {0})
        with pytest.raises(BadParametersError):
            cayley_cyclic(6, {6})


class TestIntersectionArray:
    def test_j63(self):
        arr = intersection_array(johnson(6, 3))
        assert arr.b == (9, 4, 1) and arr.c == (1, 4, 9)

    def test_folded4_even_override(self):
        arr = intersection_array(folded_johnson(4))
        assert arr.b == (16, 9) and arr.c == (1, 8)
        assert arr.a == (0, 6, 8)

    def test_path_not_distance_regular(self):
        p3 = Digraph.from_arcs(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        res = intersection_array(p3)
        assert isinstance(res, NotDistanceRegular)

    def test_errors(self):
        with pytest.raises(NotSymmetricError):
            intersection_array(cayley_cyclic(6, {1, 2}))
        disconnected = Digraph.from_arcs(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        with pytest.raises(NotConnectedError):
            intersection_array(disconnected)

    @pytest.mark.parametrize("n,e", [(4, 2), (5, 2), (6, 2), (7, 2), (8, 2),
                                     (12, 2), (6, 3), (7, 3), (8, 3), (11, 3),
                                     (8, 4), (9, 4), (10, 5)])
    def test_johnson_matches_prediction(self, n, e):
        # up to C(10,5) = 252 vertices
        assert intersection_array(johnson(n, e)) == predicted_array("johnson", n, e)

    @pytest.mark.parametrize("e", [4, 5, 6])
    def test_folded_matches_prediction(self, e):
        # e = 6 is the largest fold under 500 vertices (462)
        assert intersection_array(folded_johnson(e)) == predicted_array("folded", e)

    def test_sum_rule(self):
        for arr in (intersection_array(johnson(7, 3)),
                    intersection_array(folded_johnson(4)),
                    predicted_array("johnson", 9, 4),
                    predicted_array("folded", 6)):
            b = arr.b + (0,)
            c = (0,) + arr.c
            assert all(arr.a[i] + b[i] + c[i] == arr.b[0]
                       for i in range(arr.d + 1))


class TestPredictedArray:
    def test_johnson_7_3(self):
        arr = predicted_array("johnson", 7, 3)
        assert arr.b == (12, 6, 2) and arr.c == (1, 4, 9)
        assert arr.a == (0, 5, 6, 3)

    def test_folded_5(self):
        arr = predicted_array("folded", 5)
        assert arr.b == (25, 16) and arr.c == (1, 4)
        assert arr.a[1] == 8
        # the top entry follows from b_d = 0, not from the generic formula
        assert arr.a[2] == 25 - 4

    def test_folded_4_override(self):
        arr = predicted_array("folded", 4)
        assert arr.c[-1] == 8 and arr.a[-1] == 8

    def test_bad_parameters(self):
        with pytest.raises(BadParametersError):
            predicted_array("johnson", 4, 1)
        with pytest.raises(BadParametersError):
            predicted_array("folded", 3)
        with pytest.raises(BadParametersError):
            predicted_array("grassmann", 4, 2)


class TestIsomorphicPairs:
    def test_johnson_complement_labels(self):
        """J(n,e) and J(n,n-e) are isomorphic; the (n,n-e) side is built
        directly from complement labels since the generator enforces
        n >= 2e."""
        g = johnson(5, 2)
        from itertools import combinations

        verts = sorted(sum(1 << i for i in c) for c in combinations(range(5), 3))
        adj = np.zeros((10, 10), dtype=bool)
        for i in range(10):
            for j in range(10):
                if i != j and (verts[i] & verts[j]).bit_count() == 2:
                    adj[i, j] = True
        assert are_isomorphic(g.graph, Digraph(10, adj))

    def test_johnson_self_complement_center(self):
        g = johnson(6, 3)
        import random

        rnd = random.Random(3)
        perm = list(range(20))
        rnd.shuffle(perm)
        relabeled = Digraph.from_arcs(20, [(perm[u], perm[v])
                                       for u, v in g.graph.arcs()])
        assert are_isomorphic(g.graph, relabeled, max_n=20)


def test_complete_graph():
    k4 = complete_graph(4)
    assert k4.is_symmetric() and k4.arc_count == 12
    with pytest.raises(BadParametersError):
        complete_graph(0)


OVERSIZE = {
    "J(15,7)": lambda: johnson(15, 7),
    "J(4097,1)": lambda: johnson(DGF_MAX_N + 1, 1),
    "J(10^7,5*10^6)": lambda: johnson(10 ** 7, 5 * 10 ** 6),
    "folded-J(16,8)": lambda: folded_johnson(8),
    "Cay(Z4097)": lambda: cayley_cyclic(DGF_MAX_N + 1, {1}),
    "K4097": lambda: complete_graph(DGF_MAX_N + 1),
}


@pytest.mark.parametrize("make", OVERSIZE.values(), ids=OVERSIZE)
def test_generators_refuse_more_vertices_than_the_limit(make):
    """Each case but the huge Johnson graph is just above DGF_MAX_N
    vertices (J(15,7) and folded-J(16,8) have 6,435).  All fail before
    enumerating a vertex, the huge one without computing its binomial."""
    with pytest.raises(BadParametersError, match="more vertices than the limit"):
        make()


def test_generators_accept_the_vertex_limit():
    assert complete_graph(DGF_MAX_N).n == DGF_MAX_N
