import random

import pytest
from hypothesis import given, settings, strategies as st

from specmatch.graph import (Graph, GraphError, SIDE_A, bipartite_join, bits,
                             complete, complete_bipartite, cycle,
                             disjoint_union, edge_counts, empty, from_edges,
                             graph6_decode, graph6_encode, infer_bipartition,
                             is_connected, join, remove_star)
from specmatch.families import extremal_kfactor

from conftest import isomorphic_small, path, seeded_random_graph


class TestConstructors:
    def test_complete_small(self):
        assert complete(1).m == 0
        assert complete(4).m == 6
        g0 = complete(0)
        assert g0.n == 0 and g0.m == 0

    def test_complete_bipartite(self):
        c4 = complete_bipartite(2, 2)
        assert c4.m == 4 and isomorphic_small(c4, cycle(4))
        assert complete_bipartite(4, 4).m == 16
        star = complete_bipartite(1, 3)
        assert sorted(star.degrees()) == [1, 1, 1, 3]

    def test_join_degree_profile(self):
        g = join(complete(2), disjoint_union(complete(7), empty(1)))
        assert g.n == 10
        assert min(g.degrees()) == 2
        assert g.sides is None

    def test_join_identities(self):
        j = join(complete(1), complete(1))
        assert (j.n, j.adj) == (2, complete(2).adj)
        g = complete(5)
        j = join(empty(0), g)
        assert (j.n, j.adj) == (g.n, g.adj)

    def test_union_edge_counts(self):
        assert disjoint_union(complete(7), complete(1)).m == 21
        g = complete(4)
        u = disjoint_union(g, empty(0))
        assert (u.n, u.adj) == (g.n, g.adj)
        indep = disjoint_union(empty(2), empty(3))
        assert indep.m == 0 and indep.n == 5

    def test_bipartite_join_counts(self):
        g = bipartite_join(complete_bipartite(1, 3), complete_bipartite(4, 2))
        assert g.n == 10
        assert g.m == 3 + 8 + 1 * 2
        # every X1 vertex sees all of Y1 and all of Y2
        assert g.degree(0) == 5

    def test_bipartite_join_identity(self):
        g = complete_bipartite(2, 3)
        j = bipartite_join(g, complete_bipartite(0, 0))
        assert (j.n, j.adj) == (g.n, g.adj)

    def test_bipartite_join_requires_bipartitions(self):
        with pytest.raises(GraphError):
            bipartite_join(complete(3), complete_bipartite(1, 1))

    def test_remove_star(self):
        g = remove_star(complete_bipartite(4, 4), 0, 3)
        assert g.degree(0) == 1
        h = complete_bipartite(3, 3)
        r = remove_star(h, 0, 0)
        assert (r.n, r.adj) == (h.n, h.adj)
        assert remove_star(complete_bipartite(5, 5), 0, 4).m == 21
        with pytest.raises(GraphError):
            remove_star(complete_bipartite(2, 2), 0, 3)

    def test_validation(self):
        with pytest.raises(GraphError):
            Graph(2, (1, 0))  # self-loop at 0
        with pytest.raises(GraphError):
            Graph(2, (2, 0))  # asymmetric
        with pytest.raises(GraphError):
            Graph(2, (2, 1), (SIDE_A, SIDE_A))  # edge inside a side
        with pytest.raises(GraphError):
            from_edges(2, [(0, 5)])
        for row in (1 << 2, -1):
            with pytest.raises(GraphError,
                               match="vertex 0: neighbor out of range"):
                Graph(2, (row, 0))


class TestSizeInvariants:
    @settings(derandomize=True, max_examples=40)
    @given(st.integers(0, 123456), st.integers(0, 7), st.integers(0, 7))
    def test_join_size(self, seed, n1, n2):
        g = seeded_random_graph(seed, n1, 0.5)
        h = seeded_random_graph(seed + 1, n2, 0.5)
        assert join(g, h).m == g.m + h.m + g.n * h.n


class TestQueries:
    def test_edge_counts(self):
        g = complete(6)
        inside, cross = edge_counts(g, [0, 1, 2], [3, 4])
        assert inside == 3 and cross == 6
        kb = complete_bipartite(3, 4)
        _, cross = edge_counts(kb, [0, 1, 2], [3, 4, 5, 6])
        assert cross == 12
        with pytest.raises(GraphError):
            edge_counts(g, [0, 1], [1, 2])

    def test_edge_counts_on_factor_extremal(self):
        g = extremal_kfactor(8, 2)  # vertex 0 has the single neighbor 7
        assert g.degree(0) == 1
        nb = list(bits(g.adj[0]))
        assert nb == [7]
        rest = [v for v in range(8) if v != 0 and v not in nb]
        inside, cross = edge_counts(g, nb, rest)
        assert (inside, cross) == (0, 3)
        # the 3x3 block between the other A vertices and the removed leaves
        inside_big, cross_big = edge_counts(g, [1, 2, 3], [4, 5, 6])
        assert (inside_big, cross_big) == (0, 9)

    def test_connectivity(self):
        assert is_connected(complete(5))
        assert not is_connected(disjoint_union(complete(2), complete(2)))
        assert is_connected(empty(1))
        assert is_connected(empty(0))


class TestGraph6:
    def test_fixed_strings(self):
        assert graph6_encode(complete(3)) == "Bw"
        assert graph6_encode(empty(1)) == "@"
        d = graph6_decode("Bw")
        assert (d.n, d.adj) == (3, complete(3).adj)

    def test_roundtrip_many(self):
        rng = random.Random(1)
        for trial in range(1000):
            n = rng.randrange(0, 40)
            g = seeded_random_graph(rng.randrange(1 << 30), n, rng.random())
            d = graph6_decode(graph6_encode(g))
            assert (d.n, d.adj) == (g.n, g.adj)

    def test_long_form(self):
        g = seeded_random_graph(7, 100, 0.08)
        text = graph6_encode(g)
        assert text.startswith("~")
        d = graph6_decode(text)
        assert (d.n, d.adj) == (g.n, g.adj)

    def test_errors(self):
        with pytest.raises(GraphError):
            graph6_decode("B")  # truncated bit stream
        with pytest.raises(GraphError):
            graph6_decode("B" + chr(20))  # char out of range
        with pytest.raises(GraphError):
            graph6_decode("")
        with pytest.raises(GraphError):
            graph6_decode("Bw~")  # extra characters
        # nonzero padding: K2 encodes as 'A_' (bit 1 then zero padding)
        with pytest.raises(GraphError):
            graph6_decode("A" + chr(63 + 0b111111))
        with pytest.raises(GraphError):
            graph6_encode(empty(300000))


class TestIsomorphism:
    def test_basics(self):
        g = seeded_random_graph(3, 9, 0.4)
        assert isomorphic_small(g, g)
        assert not isomorphic_small(complete_bipartite(3, 3), cycle(6))

    def test_relabeled_copy(self):
        g = extremal_kfactor(8, 2)
        rng = random.Random(5)
        perm = list(range(8))
        rng.shuffle(perm)
        h = from_edges(8, [(perm[u], perm[v]) for u, v in g.edges()])
        assert isomorphic_small(g.drop_bipartition(), h)

    def test_equivalence_properties(self):
        graphs = [seeded_random_graph(s, 7, 0.5) for s in range(6)]
        for a in graphs:
            assert isomorphic_small(a, a)
            for b in graphs:
                assert isomorphic_small(a, b) == isomorphic_small(b, a)

    def test_order_limit(self):
        with pytest.raises(GraphError):
            isomorphic_small(complete(17), complete(17))


class TestInferBipartition:
    def test_even_cycle(self):
        g = infer_bipartition(cycle(6).drop_bipartition())
        assert g is not None
        assert g.side_mask(SIDE_A).bit_count() == 3

    def test_odd_cycle(self):
        assert infer_bipartition(cycle(5)) is None

    def test_balancing_across_components(self):
        # K_{1,3} plus two isolated vertices: balance needs 3 on each side
        g = disjoint_union(complete_bipartite(1, 3).drop_bipartition(),
                           empty(2))
        gb = infer_bipartition(g)
        assert gb is not None
        assert gb.side_mask(SIDE_A).bit_count() == 3

    def test_path_helper(self):
        assert path(4).m == 3
