import random

import pytest

from wdrd import (
    Digraph,
    SubsetVertex,
    cayley_cyclic,
    folded_johnson,
    johnson,
    mu_graph_property,
    subset_swap,
    verify_neighbourhood_structure,
    y_sets,
)
from wdrd.generators import LabeledGraph
from wdrd.errors import (
    AlphaNotInXError,
    BetaIntersectsXError,
    DiameterTooSmallError,
    NotAdjacentError,
    NotConnectedError,
    NotSymmetricError,
    SizeMismatchError,
)
from wdrd import complete_graph, structure


def relabelled_johnson_62(arcs) -> LabeledGraph:
    """J(6,2)'s labels on the digraph with these arcs."""
    g = johnson(6, 2)
    return LabeledGraph(Digraph.from_arcs(g.graph.n, arcs), 6, 2,
                        g.label_masks, "johnson")


class TestSubsetSwap:
    def test_basic(self):
        x = SubsetVertex(5, {1, 2})
        assert subset_swap(x, {1}, {3}) == SubsetVertex(5, {2, 3})

    def test_identity(self):
        x = SubsetVertex(5, {1, 2})
        assert subset_swap(x, set(), set()) == x

    def test_pair_swap(self):
        x = SubsetVertex(7, {1, 2, 3, 4})
        assert subset_swap(x, {1, 2}, {5, 6}) == SubsetVertex(7, {3, 4, 5, 6})

    def test_errors(self):
        x = SubsetVertex(5, {1, 2})
        with pytest.raises(AlphaNotInXError):
            subset_swap(x, {3}, {4})
        with pytest.raises(BetaIntersectsXError):
            subset_swap(x, {1}, {2})
        with pytest.raises(SizeMismatchError):
            subset_swap(x, {1}, {3, 4})


class TestYSets:
    def test_m4(self):
        y1, y2 = y_sets(SubsetVertex(4, {0, 1}), SubsetVertex(4, {0, 2}))
        assert y1 == {SubsetVertex(4, {1, 2})}
        assert y2 == {SubsetVertex(4, {0, 3})}

    def test_m6_sizes(self):
        y1, y2 = y_sets(SubsetVertex(6, {0, 1, 2}), SubsetVertex(6, {0, 1, 3}))
        assert len(y1) == 2 and len(y2) == 2

    def test_not_adjacent(self):
        with pytest.raises(NotAdjacentError):
            y_sets(SubsetVertex(6, {0, 1, 2}), SubsetVertex(6, {3, 4, 5}))

    @pytest.mark.parametrize("n,e", [(5, 2), (6, 3), (7, 3)])
    def test_partition_of_common_neighbourhood(self, n, e):
        g = johnson(n, e)
        for u, v in g.graph.arcs():
            if u >= v:
                continue
            y1, y2 = y_sets(SubsetVertex(n, g.label_set(u)),
                            SubsetVertex(n, g.label_set(v)))
            assert len(y1) == e - 1 and len(y2) == n - e - 1
            got = {g.vertex_of_mask(s.mask) for s in y1 | y2}
            assert got == set(g.graph.common_neighbours(u, v))


class TestNeighbourhoodStructure:
    @pytest.mark.parametrize("make", [
        lambda: johnson(6, 2),
        lambda: johnson(6, 3),
        lambda: folded_johnson(4),
    ])
    def test_all_edges_pass(self, make):
        g = make()
        for u, v in g.graph.arcs():
            if u < v:
                rep = verify_neighbourhood_structure(g, u, v)
                assert rep.ok, (u, v, rep)

    def test_folded_five_sample(self):
        g = folded_johnson(5)
        rnd = random.Random(1)
        edges = [(u, v) for u, v in g.graph.arcs() if u < v]
        for u, v in rnd.sample(edges, 60):
            assert verify_neighbourhood_structure(g, u, v).ok

    def test_mislabeled_graph_fails(self):
        g = johnson(6, 2)
        masks = list(g.label_masks)
        rnd = random.Random(7)
        rnd.shuffle(masks)
        bad = LabeledGraph(g.graph, 6, 2, tuple(masks), "johnson")
        failed = False
        for u, v in bad.graph.arcs():
            if u >= v:
                continue
            try:
                rep = verify_neighbourhood_structure(bad, u, v)
            except NotAdjacentError:
                failed = True
                break
            if not rep.ok:
                assert rep.witness is not None
                failed = True
                break
        assert failed

    def test_first_failing_pair_is_reported(self):
        # edge (0, 1) = ({0,1}, {0,2}): Y1 = {vertex 2}, Y2 = {3, 6, 10};
        # the chord {2, 3} puts 2 and 3 at distance 1, so both (2, 3) and
        # (3, 2) fail the cross-distance check, and (2, 3) comes first
        bad = relabelled_johnson_62([*johnson(6, 2).graph.arcs(), (2, 3), (3, 2)])
        rep = verify_neighbourhood_structure(bad, 0, 1)
        assert (rep.distances_ok, rep.symmetry_ok, rep.exchange_ok) == \
            (False, True, True)
        assert rep.witness == {"check": "cross-distance", "pair": [2, 3]}

    def test_non_symmetric_graph_rejected(self):
        arcs = [a for a in johnson(6, 2).graph.arcs() if a != (4, 2)]
        with pytest.raises(NotSymmetricError):
            verify_neighbourhood_structure(relabelled_johnson_62(arcs), 0, 1)

    def test_non_edge_rejected(self):
        g = johnson(6, 2)
        dist = g.graph.distance_matrix()
        x, z = next((x, z) for x in range(g.graph.n) for z in range(g.graph.n)
                    if dist[x, z] == 2)
        with pytest.raises(NotAdjacentError):
            verify_neighbourhood_structure(g, x, z)


class TestMuProperty:
    @pytest.mark.parametrize("make", [
        lambda: johnson(6, 2),
        lambda: johnson(7, 2),
        lambda: johnson(7, 3),
        lambda: folded_johnson(5),
    ])
    def test_passes(self, make):
        rep = mu_graph_property(make())
        assert rep.ok and rep.pairs_checked > 0

    def test_folded_four_fails_with_mu_eight(self):
        assert mu_graph_property(folded_johnson(4)) == structure.MuPropertyReport(
            ok=False, pairs_checked=1, witness_pair=(0, 7), witness_mu_size=8,
            witness_detail="mu-size differs from 4")

    def test_antipodal_pair_with_a_further_common_neighbour_fails(self):
        # the chord {1, 7} leaves the first distance-2 pair's mu-set and
        # octahedron intact but adds a common neighbour to an antipodal pair
        g = relabelled_johnson_62([*johnson(6, 2).graph.arcs(), (1, 7), (7, 1)])
        assert mu_graph_property(g) == structure.MuPropertyReport(
            ok=False, pairs_checked=1, witness_pair=(0, 5), witness_mu_size=4,
            witness_detail="antipodal pair has a different common neighbourhood")

    def test_directed_graph_rejected(self):
        with pytest.raises(NotSymmetricError):
            mu_graph_property(cayley_cyclic(6, {1}))

    def test_diameter_guard(self):
        with pytest.raises(DiameterTooSmallError):
            mu_graph_property(complete_graph(4))

    def test_disconnected_graph_rejected(self):
        # no pair lies at distance 2, so only the connectivity check stops
        # a vacuous pass
        triangles = [(u, v) for t in (0, 3) for u in range(t, t + 3)
                     for v in range(t, t + 3) if u != v]
        with pytest.raises(NotConnectedError):
            mu_graph_property(Digraph.from_arcs(6, triangles))


def test_oracles_compute_on_masks(monkeypatch):
    """Neither oracle goes through the subset API or the digraph's
    per-pair common-neighbour query."""
    def refuse(*args, **kwargs):
        raise AssertionError("subset-level path taken")
    monkeypatch.setattr(structure, "SubsetVertex", refuse)
    monkeypatch.setattr(structure, "y_sets", refuse)
    monkeypatch.setattr(Digraph, "common_neighbours", refuse)
    for g in (johnson(6, 3), folded_johnson(4)):
        assert all(verify_neighbourhood_structure(g, u, v).ok
                   for u, v in g.graph.arcs() if u < v)
    assert mu_graph_property(johnson(6, 3)).ok
