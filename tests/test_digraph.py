import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wdrd import INFINITY, Digraph, cayley_cyclic, digraph, format_dgf, parse_dgf
from wdrd.digraph import DGF_MAX_N
from wdrd.errors import (
    DgfError,
    DuplicateArcError,
    EqualVerticesError,
    LoopArcError,
    NoCircuitError,
    NotStronglyConnectedError,
    NotSymmetricError,
    VertexOutOfRangeError,
)
from oracles import floyd_warshall, girth_by_walks, rows_to_masks_by_bits, BIG


def octahedron():
    return cayley_cyclic(6, {1, 2, 4, 5})


@st.composite
def digraphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) \
        if pairs else []
    return Digraph.from_arcs(n, arcs)


class TestConstruction:
    def test_directed_triangle(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert d.arc_count == 3
        assert d.has_arc(0, 1) and not d.has_arc(1, 0)

    def test_loop_rejected(self):
        with pytest.raises(LoopArcError):
            Digraph.from_arcs(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexOutOfRangeError):
            Digraph.from_arcs(2, [(0, 2)])
        d = Digraph.from_arcs(2, [(0, 1)])
        with pytest.raises(VertexOutOfRangeError):
            d.has_arc(0, 5)

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateArcError):
            Digraph.from_arcs(3, [(0, 1), (0, 1)])

    def test_cayley_equivalence(self):
        arcs = [(x, (x + s) % 6) for x in range(6) for s in (1, 4)]
        assert Digraph.from_arcs(6, arcs) == cayley_cyclic(6, {1, 4})


class TestConnectivityAndDistance:
    def test_triangle_strongly_connected(self):
        tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert tri.is_strongly_connected()

    def test_single_arc_not(self):
        assert not Digraph.from_arcs(2, [(0, 1)]).is_strongly_connected()

    def test_cayley_12_connected(self):
        assert cayley_cyclic(6, {1, 2}).is_strongly_connected()

    def test_distances_cayley(self):
        d12 = cayley_cyclic(6, {1, 2}).distance_matrix()
        assert d12[0, 5] == 3
        d14 = cayley_cyclic(6, {1, 4}).distance_matrix()
        assert d14[0, 3] == 3 and d14[3, 0] == 3

    def test_distances_match_floyd_warshall_on_both_paths(self):
        """Seeded digraphs on each side of the layer-product rule: n = 1,
        not strongly connected, directed cycles up to 128 and random ones."""
        rng = np.random.default_rng(7)
        adjs = [np.zeros((1, 1), dtype=bool)]
        adjs += [cayley_cyclic(m, {1}).adjacency
                 for m in (2, 3, 16, 64, 65, 100, 128)]
        for n, p in ((5, 0.3), (30, 0.08), (40, 0.5), (90, 0.05), (150, 0.03)):
            adj = rng.random((n, n)) < p
            np.fill_diagonal(adj, False)
            adjs += [adj, adj & ~np.eye(n, k=1, dtype=bool)]
        sides = set()
        for adj in adjs:
            d = Digraph(len(adj), adj)
            ref = floyd_warshall(adj)
            finite = ref < BIG
            dist = d.distance_matrix()
            assert (dist[finite] == ref[finite]).all()
            assert (dist[~finite] == INFINITY).all()
            assert d.is_strongly_connected() == bool(finite.all())
            ecc = d._eccentricity0()
            sides.add((ecc >= 0, 0 <= ecc and d.n * ecc <= digraph._PRODUCT_BUDGET))
            if finite.all():  # the products also hold past the rule's budget
                assert (digraph._layer_products(adj) == ref).all()
        assert sides == {(False, False), (True, False), (True, True)}

    def test_connectivity_decided_once(self, monkeypatch):
        calls = []
        real = digraph._bfs
        monkeypatch.setattr(digraph, "_bfs",
                            lambda *args: calls.append(args[1]) or real(*args))
        d = cayley_cyclic(12, {1, 5})
        for _ in range(3):
            assert d.is_strongly_connected()
        d.distance_matrix()
        assert calls == [0, 0]  # out and in from vertex 0; then products

    def test_two_way_distance_sets(self):
        assert cayley_cyclic(6, {1, 4}).two_way_distance_set() == \
            {(0, 0), (1, 2), (2, 1), (3, 3)}
        assert cayley_cyclic(6, {1, 2}).two_way_distance_set() == \
            {(0, 0), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)}
        k3 = Digraph.from_arcs(3, [(u, v) for u in range(3)
                                   for v in range(3) if u != v])
        assert k3.two_way_distance_set() == {(0, 0), (1, 1)}

    def test_two_way_needs_connectivity(self):
        with pytest.raises(NotStronglyConnectedError):
            Digraph.from_arcs(2, [(0, 1)]).two_way_distance_set()


class TestUnderlyingAndGirth:
    def test_underlying_cayley(self):
        und = cayley_cyclic(6, {1, 4}).underlying_graph()
        assert und == octahedron()

    def test_underlying_idempotent_on_symmetric(self):
        g = octahedron()
        assert g.underlying_graph() is g

    def test_triangle_underlying_is_k3(self):
        und = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)]).underlying_graph()
        assert und.arc_count == 6

    def test_girth(self):
        assert Digraph.from_arcs(2, [(0, 1), (1, 0)]).girth() == 2
        assert cayley_cyclic(6, {1, 2}).girth() == 3
        assert cayley_cyclic(6, {1, 4}).girth() == 3

    def test_no_circuit(self):
        with pytest.raises(NoCircuitError):
            Digraph.from_arcs(3, [(0, 1), (1, 2)]).girth()


class TestReverse:
    def test_shares_derived_data(self, monkeypatch):
        d = cayley_cyclic(8, {1, 2, 5})
        d.distance_matrix()
        d.underlying_graph().distance_matrix()

        def refuse(*args):
            raise AssertionError("a distance layer was computed")

        monkeypatch.setattr(digraph, "_bfs", refuse)
        monkeypatch.setattr(digraph, "_layer_products", refuse)
        r = d.reverse()
        assert r.is_strongly_connected()
        assert (r.distance_matrix() == d.distance_matrix().T).all()
        assert not r.distance_matrix().flags.writeable
        assert r.out_masks == d.in_masks and r.in_masks == d.out_masks
        assert d.reverse().underlying_graph() is d.underlying_graph()
        r.underlying_graph().distance_matrix()

    def test_reverse_before_the_original_computes(self):
        d = cayley_cyclic(7, {1, 3})
        r = d.reverse()
        assert r.underlying_graph() is d.underlying_graph()
        assert (r.distance_matrix() == floyd_warshall(d.adjacency.T)).all()
        assert r.reverse() == d
        assert (r.reverse().distance_matrix() == d.distance_matrix()).all()

    def test_disconnected(self):
        r = Digraph.from_arcs(3, [(0, 1), (1, 2)]).reverse()
        assert not r.is_strongly_connected()
        assert r == Digraph.from_arcs(3, [(1, 0), (2, 1)])
        with pytest.raises(NoCircuitError):
            r.girth()


class TestCommonNeighbours:
    def test_octahedron_antipodal(self):
        assert octahedron().common_neighbours(0, 3) == {1, 2, 4, 5}

    def test_octahedron_adjacent(self):
        assert len(octahedron().common_neighbours(0, 1)) == 2

    def test_k2_empty(self):
        k2 = Digraph.from_arcs(2, [(0, 1), (1, 0)])
        assert k2.common_neighbours(0, 1) == frozenset()

    def test_errors(self):
        with pytest.raises(EqualVerticesError):
            octahedron().common_neighbours(2, 2)
        with pytest.raises(NotSymmetricError):
            cayley_cyclic(6, {1, 2}).common_neighbours(0, 3)


class TestMasks:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 130])
    def test_rows_to_masks_matches_bit_loop(self, n):
        rng = np.random.default_rng(n)
        adj = rng.random((n, n)) < 0.4
        adj[0] = True
        adj[-1] = False
        for rows in (adj, adj.T, adj[:, :0]):
            assert digraph._rows_to_masks(rows) == rows_to_masks_by_bits(rows)


class TestProperties:
    @given(digraphs())
    @settings(max_examples=120, deadline=None)
    def test_distance_matches_floyd_warshall(self, d):
        dist = d.distance_matrix()
        ref = floyd_warshall(d.adjacency)
        finite = ref < BIG
        assert (dist[finite] == ref[finite]).all()
        assert (dist[~finite] == INFINITY).all()
        assert d.is_strongly_connected() == bool(finite.all())
        assert Digraph.from_out_masks(d.out_masks) == d

    @given(digraphs())
    @settings(max_examples=120, deadline=None)
    def test_arc_iff_distance_one(self, d):
        dist = d.distance_matrix()
        assert ((dist == 1) == d.adjacency).all()

    @given(digraphs())
    @settings(max_examples=80, deadline=None)
    def test_reverse_matches_transposed_adjacency(self, d):
        r = d.reverse()
        assert r == Digraph(d.n, d.adjacency.T)
        assert r.is_symmetric() == bool((d.adjacency == d.adjacency.T).all())
        ref = floyd_warshall(d.adjacency.T)
        finite = ref < BIG
        assert (r.distance_matrix()[finite] == ref[finite]).all()
        assert (r.distance_matrix()[~finite] == INFINITY).all()
        assert r.is_strongly_connected() == bool(finite.all())
        assert list(r.out_masks) == rows_to_masks_by_bits(d.adjacency.T)

    @given(digraphs())
    @settings(max_examples=80, deadline=None)
    def test_underlying_symmetric_idempotent(self, d):
        und = d.underlying_graph()
        assert und.is_symmetric()
        assert und.underlying_graph() == und

    @given(digraphs())
    @settings(max_examples=80, deadline=None)
    def test_two_way_swap_closure(self, d):
        if d.is_strongly_connected():
            s = d.two_way_distance_set()
            assert {(b, a) for a, b in s} == s
            assert (0, 0) in s

    @given(digraphs())
    @settings(max_examples=80, deadline=None)
    def test_girth_two_iff_digon(self, d):
        has_digon = bool((d.adjacency & d.adjacency.T).any())
        ref = girth_by_walks(d.adjacency)
        if ref is None:
            with pytest.raises(NoCircuitError):
                d.girth()
        else:
            g = d.girth()
            assert (g == 2) == has_digon
            # a shortest circuit is a shortest closed walk of length >= 2
            assert g == ref


class TestDgf:
    def test_round_trip(self):
        d = cayley_cyclic(6, {1, 2})
        assert parse_dgf(format_dgf(d)) == d

    def test_comments_and_blanks(self):
        d = parse_dgf("# hello\n\nn 2\n0 1\n# bye\n1 0\n")
        assert d.arc_count == 2

    @pytest.mark.parametrize("text", [
        "", "m 3\n0 1", "n 2\n0 1 2", "n 2\n0 x", "n 2\n0 0", "n 2\n0 1\n0 1",
        "n 1\n0 1",
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(DgfError):
            parse_dgf(text)

    @pytest.mark.parametrize("text,message", [
        ("n 3\n1 2\n0 3\n2 2\n", "arc (0, 3) outside 0..2"),
        ("n 3\n1 2\n2 2\n0 3\n", "loop arc (2, 2)"),
        ("n 3\n0 1\n1 0\n0 1\n", "duplicate arc (0, 1)"),
        ("n 0\n", "vertex count must be >= 1, got 0"),
        ("n 5000\n0 1\n", "vertex count 5000 exceeds the DGF limit 4096"),
        ("n 2\n0 1 1\n", "bad arc line '0 1 1'"),
    ])
    def test_first_fault_reported(self, text, message):
        with pytest.raises(DgfError) as info:
            parse_dgf(text)
        assert str(info.value) == message

    def test_plain_form_parsed_whole(self):
        """`format_dgf` output takes the whole-array parse; other spellings,
        and plain text with a fault, are left to the line parser."""
        d = cayley_cyclic(9, {1, 3, 7})
        text = format_dgf(d)
        assert digraph._parse_plain_dgf(text) == d
        for other in (format_dgf(d, comment="c"), text.rstrip("\n"),
                      text.replace(" ", "  "), text.replace("\n", "\r\n"),
                      text.replace("n 9\n", "n 9\n0 1\n")):
            assert digraph._parse_plain_dgf(other) is None
        assert parse_dgf(format_dgf(d, comment="c")) == d
        assert parse_dgf(text.replace(" ", "  ")) == d

    def test_oversize_header_rejected_before_allocation(self):
        with pytest.raises(DgfError, match="DGF limit"):
            parse_dgf("n 100000000\n0 1\n")
        # one past the limit would allocate n^2 bytes for the adjacency
        tracemalloc.start()
        try:
            with pytest.raises(DgfError, match="DGF limit"):
                parse_dgf(f"n {DGF_MAX_N + 1}\n0 1\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_header_at_the_limit_accepted(self, monkeypatch):
        monkeypatch.setattr(digraph, "DGF_MAX_N", 3)
        assert parse_dgf("n 3\n0 1\n").n == 3
        with pytest.raises(DgfError, match="DGF limit 3"):
            parse_dgf("n 4\n0 1\n")
