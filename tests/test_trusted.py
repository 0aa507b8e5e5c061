"""The builders that make their graphs with ``Graph._trusted`` skip only
checks that their construction already meets: each graph they give equals
``Graph(g.n, g.adj, g.side_a)``, which validates it in full, and its rows
are a tuple of Python ints."""
import random

from specmatch.families import (FAMILIES, FamilyParams, construct_family,
                                member)
from specmatch.graph import (Graph, GraphError, complete, cycle,
                             disjoint_union, empty, from_edges,
                             graph6_decode, infer_bipartition)
from specmatch import harness as hz

import test_graph
import test_harness


def assert_valid(g: Graph) -> None:
    assert type(g.adj) is tuple and all(type(r) is int for r in g.adj)
    assert Graph(g.n, g.adj, g.side_a) == g


class TestSampler:
    # verify-sample and acceptance parameters of each theorem
    PARAMS = test_harness.TestSampler.PARAMS

    def test_samples(self):
        cases = [(name, p, construct_family(hz.THEOREMS[name].family, p))
                 for name, p in self.PARAMS.items()]
        # no perturbation of this base stays in the class, so odd indices
        # fall back to the base
        cases += [("t1.1", self.PARAMS["t1.1"], complete(10))]
        kinds = set()
        for name, p, base in cases:
            for seed in (3, 11, 2024):
                for i in range(24):
                    g = hz.sample_for_theorem(hz.THEOREMS[name], p, base,
                                              hz.rng_for(seed, i), i)
                    assert_valid(g)
                    assert (g.side_a is None) != hz.THEOREMS[name].bipartite
                    kinds.add("extremal" if g is base
                              else "draw" if i % 2 == 0 else "perturb")
        assert kinds == {"draw", "perturb", "extremal"}

    def test_random_draws(self):
        for i in range(60):
            rng = hz.rng_for(5, i)
            n = i % 13
            assert_valid(hz.random_graph(rng, n, hz.P_SWEEP[i % 4]))
            assert_valid(hz.random_bipartite(rng, n // 2, n - n // 2,
                                             hz.P_SWEEP[i % 4]))


class TestInferBipartition:
    @staticmethod
    def random_bipartite_relabeled(seed: int, n: int, p: float) -> Graph:
        """A random 2-coloring of n vertices with each cross pair an edge
        with probability p, without its bipartition."""
        rng = random.Random(seed)
        color = [rng.randrange(2) for _ in range(n)]
        return from_edges(n, [(u, v) for u in range(n)
                              for v in range(u + 1, n)
                              if color[u] != color[v] and rng.random() < p])

    def test_disconnected_and_odd_orders(self):
        graphs = [empty(0), empty(1), empty(5), cycle(6),
                  disjoint_union(cycle(4), empty(3)),
                  disjoint_union(cycle(8), cycle(6))]
        graphs += [self.random_bipartite_relabeled(s, n, p)
                   for s in range(8) for n in range(1, 16)
                   for p in (0.1, 0.3, 0.8)]
        assert any(g.n % 2 for g in graphs)
        for g in graphs:
            h = infer_bipartition(g)
            assert_valid(h)
            assert h.adj == g.adj and h.side_a is not None
        assert infer_bipartition(cycle(5)) is None


class TestBlowUps:
    def test_family_members(self):
        built = 0
        for family in FAMILIES:
            for n in range(25):
                for k in range(1, 6):
                    for delta in range(1, 8):
                        try:
                            blowup = member(family,
                                            FamilyParams(n, k, delta))
                        except GraphError:
                            continue
                        assert_valid(blowup.graph())
                        built += 1
        assert built > 300

    def test_lemma_sides(self):
        cells = [cell for i, cell in enumerate(hz._cells_22())
                 if i % hz.DENSE_STRIDE == 0]
        cells += [cell for i, cell in enumerate(hz._cells_23())
                  if i % hz.DENSE_STRIDE == 0]
        cells += list(hz._cells_26())
        assert len(cells) > 1000
        for _, lhs, rhs in cells:
            assert_valid(lhs.graph())
            assert_valid(rhs.graph())


def test_cross_check_enumeration():
    graphs = list(hz._enumerated_graphs(4))
    assert len(graphs) == 2 + 8 + 64
    assert len({(g.n, g.adj) for g in graphs}) == len(graphs)
    for g in graphs:
        assert_valid(g)


def test_graph6_lines():
    decoded = 0
    for text in test_graph.TestGraph6AgainstReference.lines():
        try:
            g = graph6_decode(text)
        except GraphError:
            continue
        assert_valid(g)
        assert g.side_a is None
        decoded += 1
    assert decoded > 200
