import random

import pytest
from hypothesis import given, settings, strategies as st

from specmatch.graph import (Graph, GraphError, SIDE_A, SIDE_B, bits,
                             complete, complete_bipartite, cycle,
                             disjoint_union, empty, from_edges,
                             graph6_decode, graph6_encode,
                             graph6_encode_many, infer_bipartition,
                             is_connected, join)
from specmatch.families import extremal_kfactor

from conftest import (bipartite_join, edge_counts, isomorphic_small, path,
                      ref_graph6_decode, ref_graph6_encode,
                      ref_infer_bipartition, remove_star, seeded_random_graph)


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
        assert g.side_a is None

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
        with pytest.raises(GraphError, match=r"edge \(0,1\) inside one side"):
            Graph(2, (2, 1), 0b11)
        with pytest.raises(GraphError):
            from_edges(2, [(0, 5)])
        for row in (1 << 2, -1):
            with pytest.raises(GraphError,
                               match="vertex 0: neighbor out of range"):
                Graph(2, (row, 0))


class TestSideMask:
    def test_mask_out_of_range(self):
        for side_a in (0b100, 0b101, 1 << 40, -1, -2):
            with pytest.raises(GraphError, match="side A mask out of range"):
                Graph(2, (2, 1), side_a)
        with pytest.raises(GraphError, match="side A mask out of range"):
            Graph(0, (), 1)

    def test_edge_inside_a_side_names_the_first_pair(self):
        # the pair named before the mask: the lowest v, then the lowest
        # u > v, on the same side as v
        rng = random.Random(15)
        raised = 0
        for i in range(300):
            n = rng.randrange(2, 13)
            g = seeded_random_graph(i, n, rng.choice((0.1, 0.3)))
            side_a = rng.getrandbits(n)
            pairs = [(v, u) for v in range(n) for u in bits(g.adj[v])
                     if u > v and (side_a >> v ^ side_a >> u) & 1 == 0]
            if not pairs:
                assert Graph(n, g.adj, side_a).side_a == side_a
                continue
            with pytest.raises(GraphError) as info:
                Graph(n, g.adj, side_a)
            assert str(info.value) == (
                f"edge ({pairs[0][0]},{pairs[0][1]}) inside one side")
            raised += 1
        assert raised > 100

    def test_builders_set_the_mask(self):
        assert cycle(6).side_a == 0b010101
        assert cycle(5).side_a is None
        k23 = complete_bipartite(2, 3)
        assert (k23.side_a, k23.side_mask(SIDE_B)) == (0b00011, 0b11100)
        u = disjoint_union(cycle(4), k23)
        assert u.side_a == 0b000110101
        assert u.induced([1, 2, 4, 5, 8]).side_a == 0b01110
        assert bipartite_join(cycle(4), k23).side_a == u.side_a
        assert u.drop_bipartition().side_a is None
        with pytest.raises(GraphError, match="break the bipartition"):
            u.with_edge_toggled(0, 2)
        assert u.with_edge_toggled(0, 3).side_a == u.side_a


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


class TestGraph6AgainstReference:
    """The word-level decoder returns the per-bit reference decoder's
    adjacency on every valid line and its GraphError message on every
    malformed one."""

    @staticmethod
    def outcome(decode, text):
        try:
            g = decode(text)
        except GraphError as exc:
            return "error", str(exc)
        return g.n, g.adj

    @staticmethod
    def lines():
        rng = random.Random(11)
        out = ["", " \n", "?", "@", "A_", "A`", "Bw", "B", "~", "~~", "~?",
               "~??", "~???", "~?A?", "~~??????", "B\x7f", "B\u00e9", "B w",
               "Bw\t\n", "  @  ", ">", "\x00"]
        for n in list(range(31)) + [62, 63, 64, 100, 200, 300]:
            for p in (0.0, 0.02, 0.3, 1.0):
                text = graph6_encode(
                    seeded_random_graph(rng.randrange(1 << 30), n, p))
                out += [text, text[:-1], text + "?", text + "~"]
                # the last character with each padding bit set in turn
                out += [text[:-1] + chr(ord(text[-1]) | 1 << b)
                        for b in range(6)]
                for _ in range(4):
                    pos = rng.randrange(len(text))
                    out.append(text[:pos] + chr(rng.randrange(30, 131))
                               + text[pos + 1:])
        return out

    def test_same_graphs_and_errors(self):
        kinds = set()
        for text in self.lines():
            want = self.outcome(ref_graph6_decode, text)
            assert self.outcome(graph6_decode, text) == want, repr(text)
            kinds.add(" ".join(want[1].split()[:3])
                      if want[0] == "error" else "valid")
        # valid lines and every error that the decoder raises are exercised
        assert kinds == {"valid", "empty graph6 string",
                         "malformed graph6 character",
                         "graph6 long-long form", "truncated graph6 header",
                         "graph6 bit stream", "nonzero graph6 padding"}


class TestGraph6EncodeAgainstReference:
    """The stacked encoder and its one-graph case write the per-bit
    reference encoder's line for every graph, and the decoder reads it
    back."""

    @staticmethod
    def every_graph(n):
        pairs = [(u, v) for v in range(n) for u in range(v)]
        for mask in range(1 << len(pairs)):
            yield from_edges(n, [pair for i, pair in enumerate(pairs)
                                 if mask >> i & 1])

    @staticmethod
    def seeded_graphs(n):
        rng = random.Random(n)
        return [seeded_random_graph(rng.randrange(1 << 30), n, p)
                for p in (0.0, 0.02, 0.3, 0.5, 0.9, 1.0)]

    def assert_encodes(self, graphs):
        want = [ref_graph6_encode(g) for g in graphs]
        assert graph6_encode_many(graphs) == want
        assert [graph6_encode(g) for g in graphs] == want
        for g, text in zip(graphs, want):
            d = graph6_decode(text)
            assert (d.n, d.adj) == (g.n, g.adj), text

    def test_every_small_graph(self):
        # order 6: all 32,768 graphs in one encoding stack
        for n in range(7):
            self.assert_encodes(list(self.every_graph(n)))

    def test_seeded_graphs(self):
        # both header forms: one byte through n = 62, "~" and three above
        for n in [*range(7, 21), 62, 63, 64, 200, 300]:
            graphs = self.seeded_graphs(n)
            self.assert_encodes(graphs)
            assert graph6_encode(graphs[0]).startswith("~") == (n > 62)

    def test_no_graphs(self):
        assert graph6_encode_many([]) == []


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

    def test_matches_reference(self):
        # bipartite or not, connected or not, odd and even orders
        rng = random.Random(2211)
        bipartite = 0
        for i in range(3000):
            n = rng.randrange(0, 16)
            label = rng.getrandbits(n)
            prob = rng.choice((0.15, 0.3, 0.6))
            adj = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if (label >> u ^ label >> v) & 1 and rng.random() < prob:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
            if n >= 2 and rng.random() < 0.3:
                u, v = rng.sample(range(n), 2)
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            g = Graph(n, tuple(adj))
            got, want = infer_bipartition(g), ref_infer_bipartition(g)
            assert (got is None) == (want is None), i
            if got is not None:
                assert got.side_a == want.side_a, i
                bipartite += 1
        assert 2000 < bipartite < 3000

    def test_path_helper(self):
        assert path(4).m == 3
