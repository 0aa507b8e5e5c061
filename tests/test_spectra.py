import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specmatch.graph import (GraphError, complete, complete_bipartite, cycle,
                             disjoint_union, empty, is_connected)
from specmatch import spectra as sp
from specmatch.spectra import (ConvergenceError, Partition, QuotientMatrix,
                               adjacency_matrices, adjacency_matrix,
                               degree_sum_identity, fms_bound, full_spectrum,
                               largest_eigenvalues, quotient,
                               refine_equitable, rho_dense, rho_dense_many,
                               spectral_radius, spectral_radius_many,
                               sqrt_m_bound)
from specmatch.families import (FamilyParams, extremal_kext_bipartite,
                                extremal_kext_general, extremal_kfactor,
                                family_quotient)
from specmatch.harness import LEMMA_MAX_N, cmd_verify

from conftest import (charpoly_quartic, path, petersen,
                      quartic_largest_root, ref_degree_sum_identity,
                      ref_fms_bound, ref_largest_eigenvalue,
                      ref_spectral_radius, ref_symmetrized,
                      seeded_random_graph)

GOLDEN = (1 + math.sqrt(5)) / 2


class TestAdjacencyMatrix:
    @staticmethod
    def per_bit(g):
        a = np.zeros((g.n, g.n))
        for v in range(g.n):
            for u in range(g.n):
                if (g.adj[v] >> u) & 1:
                    a[v, u] = 1.0
        return a

    def test_matches_per_bit_reference(self):
        for n in (0, 1, 7, 8, 9, 16, 17, 64, 300):
            for g in (seeded_random_graph(n, n, 0.4), complete(n), empty(n)):
                a = adjacency_matrix(g)
                assert a.shape == (n, n)
                assert a.dtype == np.float64
                assert a.flags.c_contiguous
                assert np.array_equal(a, self.per_bit(g))

    def test_stack_is_the_single_matrices(self):
        for n in (1, 7, 8, 9, 17):
            graphs = [seeded_random_graph(s, n, 0.4) for s in range(5)]
            graphs += [complete(n), empty(n)]
            a = adjacency_matrices(graphs)
            assert a.shape == (len(graphs), n, n)
            assert a.dtype == np.float64
            assert a.flags.c_contiguous
            for got, g in zip(a, graphs):
                assert got.tobytes() == adjacency_matrix(g).tobytes()


class TestSpectralRadius:
    def test_complete_graphs(self):
        for n in (2, 5, 10, 26):
            res = spectral_radius(complete(n))
            assert abs(res.rho - (n - 1)) <= 1e-10
            assert res.residual <= res.tol

    def test_complete_bipartite(self):
        for p, q in ((4, 4), (1, 9), (3, 7)):
            res = spectral_radius(complete_bipartite(p, q))
            assert abs(res.rho - math.sqrt(p * q)) <= 1e-10

    def test_factor_extremal_closed_form(self):
        g = extremal_kfactor(8, 2)
        want = math.sqrt((13 + math.sqrt(133)) / 2)
        assert abs(spectral_radius(g).rho - want) <= 1e-10

    def test_perron_positive_on_connected(self):
        from specmatch.graph import is_connected
        found = 0
        for seed in range(20):
            g = seeded_random_graph(seed, 9, 0.5)
            if not is_connected(g):
                continue
            found += 1
            assert np.all(spectral_radius(g).perron > 0)
        assert found > 5

    def test_disconnected_takes_max(self):
        g = disjoint_union(complete(3), complete(5))
        res = spectral_radius(g)
        assert abs(res.rho - 4) <= 1e-10
        # the vector is supported on the dominant component only
        assert np.all(res.perron[:3] == 0) and np.all(res.perron[3:] > 0)

    def test_empty_order_rejected(self):
        with pytest.raises(GraphError):
            spectral_radius(empty(0))

    def test_matches_dense_route(self):
        for seed in range(12):
            g = seeded_random_graph(seed, 11, 0.4)
            if g.m == 0:
                continue
            assert abs(spectral_radius(g).rho - rho_dense(g)) <= 1e-9


def _reference_pool():
    """n = 1 and 2, disconnected graphs (isolated vertices, tied components,
    components of different orders), G(n, p) draws at n 1-24 over a range of
    densities, and long-header orders up to 300."""
    graphs = [empty(1), empty(2), complete(2), empty(5), petersen(),
              disjoint_union(complete(3), empty(2)),
              disjoint_union(complete(4), complete(4)),
              disjoint_union(empty(3), cycle(5)),
              disjoint_union(seeded_random_graph(1, 40, 0.2),
                             seeded_random_graph(2, 30, 0.3))]
    rng = random.Random(12)
    graphs += [seeded_random_graph(rng.randrange(1 << 30),
                                   rng.randrange(1, 25),
                                   rng.choice((0.05, 0.15, 0.3, 0.6, 0.9)))
               for _ in range(80)]
    graphs += [seeded_random_graph(seed, n, p) for seed, n, p in
               ((3, 63, 0.1), (4, 100, 0.03), (5, 200, 0.3), (6, 300, 0.3),
                (7, 300, 0.005))]
    return graphs


class TestAgainstReference:
    """Power iteration, identity (13) and the FMS bound give exactly what
    the reference copies of their earlier versions give: the same floats
    bit for bit, the same Perron vector bytes and matvec counts."""

    @pytest.fixture(scope="class")
    def pool(self):
        graphs = _reference_pool()
        assert any(not is_connected(g) for g in graphs)
        assert max(g.n for g in graphs) == 300
        return graphs

    @pytest.mark.parametrize("tol", [None, 1e-12])
    def test_spectral_radius(self, pool, tol):
        self.assert_same([spectral_radius(g, tol) for g in pool],
                         [ref_spectral_radius(g, tol) for g in pool])

    @staticmethod
    def assert_same(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a.rho, a.residual, a.tol, a.matvecs) == (
                b.rho, b.residual, b.tol, b.matvecs)
            assert a.perron.dtype == b.perron.dtype
            assert a.perron.tobytes() == b.perron.tobytes()

    def test_spectral_radius_many(self, pool):
        """The stacked solve gives each graph's reference power iteration
        bit for bit, whatever the order of the stream; unmarked, so that it
        checks numpy's slice-by-slice BLAS matmul on every interpreter."""
        shuffled = random.Random(3).sample(pool, len(pool))
        for tol in (None, 1e-12):
            for graphs in (pool, shuffled):
                self.assert_same(spectral_radius_many(graphs, tol),
                                 [ref_spectral_radius(g, tol)
                                  for g in graphs])
        # more connected graphs of order 40 than one stack holds, and
        # disconnected ones among them
        crossing = [seeded_random_graph(s, 40, 0.05 + s % 5 * 0.1)
                    for s in range(sp.STACK_CELLS // 40 ** 2 + 8)]
        assert sum(map(is_connected, crossing)) > sp.STACK_CELLS // 40 ** 2
        assert not all(map(is_connected, crossing))
        # isolated vertices and edgeless components, tied components
        crossing += [empty(1), empty(4), disjoint_union(empty(3), path(4)),
                     disjoint_union(disjoint_union(complete(3), complete(3)),
                                    empty(1)),
                     disjoint_union(path(2), empty(2)), empty(1)]
        self.assert_same(spectral_radius_many(crossing),
                         [ref_spectral_radius(g) for g in crossing])
        assert spectral_radius_many([]) == []
        with pytest.raises(GraphError, match="n >= 1"):
            spectral_radius_many([cycle(4), empty(0)])

    def test_spectral_radius_many_convergence_error(self, monkeypatch):
        """Short of matvecs, the stacked solve raises the ConvergenceError
        of the first graph of the stream on which the reference power
        iteration fails, with its best residual, wherever the stream
        starts."""
        monkeypatch.setattr(sp, "MAX_MATVECS", 9)
        stream = [complete(9), empty(4), seeded_random_graph(1, 12, 0.5),
                  complete(12), seeded_random_graph(2, 9, 0.4),
                  disjoint_union(seeded_random_graph(3, 12, 0.6), empty(2)),
                  seeded_random_graph(5, 300, 0.3),
                  seeded_random_graph(4, 12, 0.3), empty(1), complete(20)]
        failures = 0
        for start in range(len(stream)):
            graphs = stream[start:]
            want = None
            for g in graphs:
                try:
                    ref_spectral_radius(g)
                except ConvergenceError as exc:
                    want = exc
                    break
            if want is None:
                self.assert_same(spectral_radius_many(graphs),
                                 [ref_spectral_radius(g) for g in graphs])
                continue
            failures += 1
            with pytest.raises(ConvergenceError) as got:
                spectral_radius_many(graphs)
            assert str(got.value) == (
                f"power iteration exceeded 9 matrix-vector products "
                f"(best residual {want.best_residual:.3e})")
            assert got.value.best_residual == want.best_residual
        assert failures == 8

    def test_degree_sum_identity(self, pool):
        for g in pool:
            for u in range(g.n):
                assert degree_sum_identity(g, u) == ref_degree_sum_identity(
                    g, u)

    def test_fms_bound(self, pool):
        connected = [g for g in pool if g.n >= 2 and is_connected(g)]
        assert len(connected) > 40
        for g in connected:
            assert fms_bound(g) == ref_fms_bound(g)


class TestFullSpectrum:
    def test_k2(self):
        vals = full_spectrum(adjacency_matrix(complete(2)))
        assert np.allclose(vals, [1, -1], atol=1e-12)

    def test_zero_matrix(self):
        assert np.allclose(full_spectrum(np.zeros((4, 4))), 0)

    def test_c4_closed_form(self):
        vals = full_spectrum(adjacency_matrix(cycle(4)))
        assert np.allclose(vals, [2, 0, 0, -2], atol=1e-12)

    def test_symmetry_required(self):
        with pytest.raises(GraphError):
            full_spectrum(np.array([[0.0, 1.0], [0.5, 0.0]]))


class TestEquitableRefinement:
    def test_join_family_classes(self):
        g = extremal_kext_general(10, 1, 2)
        part = refine_equitable(g)
        assert [len(c) for c in part.classes] == [2, 7, 1]

    def test_vertex_transitive_single_class(self):
        for g in (cycle(6), complete_bipartite(3, 3), petersen()):
            part = refine_equitable(g)
            assert len(part.classes) == 1

    def test_factor_extremal_classes(self):
        g = extremal_kfactor(8, 2)
        part = refine_equitable(g)
        got = {frozenset(c) for c in part.classes}
        want = {frozenset({0}), frozenset({1, 2, 3}), frozenset({7}),
                frozenset({4, 5, 6})}
        assert got == want

    def test_seed_respected(self):
        g = complete(6)
        seed = Partition.of([{0, 1}, {2, 3, 4, 5}])
        part = refine_equitable(g, seed)
        assert [len(c) for c in part.classes] == [2, 4]


class TestQuotient:
    def test_paper_overlay_matrix(self):
        g = extremal_kext_bipartite(10, 1, 1)
        part = Partition.of([{0}, {4, 5, 6, 7}, {1, 2, 3}, {8, 9}])
        q = quotient(g, part)
        assert q.entries == ((0, 0, 3, 2), (0, 0, 0, 2), (1, 0, 0, 0),
                             (1, 4, 0, 0))
        assert q.class_sizes == (1, 4, 3, 2)

    def test_complete_trivial(self):
        q = quotient(complete(7), Partition.trivial(7))
        assert q.entries == ((6,),)

    def test_join_family_matrix(self):
        n, k, delta = 10, 1, 2
        g = extremal_kext_general(n, k, delta)
        q = quotient(g, refine_equitable(g))
        assert q.entries == ((delta - 1, n - 2 * delta + 2 * k - 1,
                              delta - 2 * k + 1),
                             (delta, n - 2 * delta + 2 * k - 2, 0),
                             (delta, 0, 0))
        assert abs(q.largest_eigenvalue() - rho_dense(g)) <= 1e-10

    def test_non_equitable_rejected(self):
        g = path(4)
        with pytest.raises(GraphError):
            quotient(g, Partition.of([{0, 1}, {2, 3}]))

    def test_asymmetric_quotient_rejected(self):
        # b_01 * s_0 = 2 but b_10 * s_1 = 1: no graph has this quotient
        q = QuotientMatrix(((0, 2), (1, 0)), (1, 1))
        with pytest.raises(GraphError, match=r"\(0,1\)"):
            q.largest_eigenvalue()
        # in a stack, the bad quotient's first pair is named, with the scalar
        # symmetrization's message: (0,1) agrees, (0,2) does not
        good = QuotientMatrix(((0, 1), (1, 0)), (1, 1))
        bad = QuotientMatrix(((0, 1, 2), (1, 0, 0), (1, 1, 0)), (1, 1, 1))
        for batch, culprit in (([q], q), ([bad], bad),
                               ([good, bad, good], bad)):
            with pytest.raises(GraphError) as got:
                largest_eigenvalues(batch)
            with pytest.raises(GraphError) as want:
                ref_symmetrized(culprit)
            assert str(got.value) == str(want.value)
        assert "(0,2)" in str(want.value)

    def test_eigenvalue_containment(self):
        # every quotient eigenvalue appears in the dense spectrum
        for g in (extremal_kext_general(12, 1, 3),
                  extremal_kfactor(10, 3),
                  extremal_kext_bipartite(12, 1, 2)):
            q = quotient(g, refine_equitable(g))
            dense = full_spectrum(adjacency_matrix(g))
            for lam in q.eigenvalues():
                assert min(abs(dense - lam)) <= 1e-8


class TestStackedSolves:
    """A stacked solve gives each matrix the float of its single solve."""

    def test_quotients_match_scalar_reference(self):
        graphs = [extremal_kext_general(12, 1, 3), extremal_kfactor(10, 3),
                  extremal_kext_bipartite(12, 1, 2), complete(5), petersen(),
                  path(7)] + [seeded_random_graph(s, 9, 0.5) for s in range(8)]
        qs = [quotient(g, refine_equitable(g)) for g in graphs]
        # sizes past int64 products and past int64 itself
        qs += [family_quotient("kext-general", FamilyParams(n, 1, 3))
               for n in (10 ** 12, 10 ** 30)]
        ref = [ref_largest_eigenvalue(q) for q in qs]
        assert len({q.size for q in qs}) > 3
        assert largest_eigenvalues(qs) == ref
        assert [q.largest_eigenvalue() for q in qs] == ref
        for q in qs:
            assert np.array_equal(
                q.eigenvalues(), np.linalg.eigvalsh(ref_symmetrized(q))[::-1])
        assert largest_eigenvalues([]) == []
        with pytest.raises(GraphError):
            largest_eigenvalues([QuotientMatrix((), ())])

    def test_rho_dense_many_matches_rho_dense(self):
        graphs = [complete(1), empty(3), cycle(6), petersen(), path(9),
                  disjoint_union(complete(4), cycle(5))]
        graphs += [seeded_random_graph(s, 6 + s % 5, 0.4) for s in range(20)]
        assert rho_dense_many(graphs) == [rho_dense(g) for g in graphs]
        assert rho_dense_many([]) == []
        with pytest.raises(GraphError, match="n >= 1"):
            rho_dense_many([cycle(4), empty(0)])


class TestQuarticClosedForm:
    """The overlay quotient's closed form (in conftest), the oracle of the
    l2.6 sweep."""

    def test_exact_coefficients(self):
        c4, c2, c0 = charpoly_quartic(10, 1, 1)
        assert (c4, c2, c0) == (1, -13, 24)

    def test_against_numeric_charpoly(self):
        # oracle: numpy characteristic polynomial of the exact 4x4 quotient
        for (n, k, s) in ((10, 1, 1), (16, 2, 2), (24, 3, 1), (40, 4, 5)):
            g = extremal_kext_bipartite(n, k, s)
            half = n // 2
            x1 = set(range(s))
            y1 = set(range(s, 2 * s + k + 1))
            x2 = set(range(2 * s + k + 1, s + k + 1 + half))
            y2 = set(range(s + k + 1 + half, n))
            q = quotient(g, Partition.of([x1, x2, y1, y2]))
            coeffs = np.poly(np.array(q.entries, dtype=float))
            c4, c2, c0 = charpoly_quartic(n, k, s)
            assert abs(coeffs[1]) <= 1e-9 and abs(coeffs[3]) <= 1e-9
            assert abs(coeffs[2] - float(c2)) <= 1e-9
            assert abs(coeffs[4] - float(c0)) <= 1e-9

    def test_largest_root_matches_dense(self):
        root = quartic_largest_root(charpoly_quartic(10, 1, 1))
        g = extremal_kext_bipartite(10, 1, 1)
        assert abs(root - rho_dense(g)) <= 1e-8

    def test_s_zero_constant_term(self):
        _, _, c0 = charpoly_quartic(12, 2, 0)
        assert c0 == 0

    def test_invalid_sizes(self):
        with pytest.raises(GraphError):
            charpoly_quartic(10, 1, 4)  # n/2 - s - k - 1 < 0
        with pytest.raises(GraphError):
            charpoly_quartic(11, 1, 1)

    def test_lemma_26_sweep(self):
        # both sides of every l2.6 cell, solved on the overlay quotient
        cells = [(n, k, s) for k in range(1, 5) for s in range(1, 6)
                 for n in range(4 * s + 2 * k + 2, LEMMA_MAX_N + 1, 2)]
        rows = cmd_verify("l2.6", None, samples=0, seed=0).rows
        assert len(rows) == len(cells) == 230
        for row, (n, k, s) in zip(rows, cells):
            assert row["graph"] == f"l2.6 k={k} s={s} n={n}"
            for value, side in ((row["rho"], s), (row["rho_star"], s - 1)):
                want = quartic_largest_root(charpoly_quartic(n, k, side))
                assert abs(value - want) <= 1e-13, (row["graph"], side)


class TestBounds:
    def test_fms_regular_equality(self):
        val, _ = fms_bound(cycle(6))
        assert abs(val - 2) <= 1e-12

    def test_fms_semiregular_equality(self):
        for p, q in ((4, 4), (2, 5)):
            g = complete_bipartite(p, q)
            val, _ = fms_bound(g)
            assert abs(val - math.sqrt(p * q)) <= 1e-12
            assert abs(val - rho_dense(g)) <= 1e-9

    def test_fms_p3_tight_p4_slack(self):
        val3, _ = fms_bound(path(3))
        assert abs(val3 - math.sqrt(2)) <= 1e-12
        val4, _ = fms_bound(path(4))
        assert abs(val4 - math.sqrt(3)) <= 1e-12
        assert abs(rho_dense(path(4)) - GOLDEN) <= 1e-9
        assert val4 > rho_dense(path(4))

    def test_fms_rejects_disconnected(self):
        with pytest.raises(GraphError):
            fms_bound(disjoint_union(complete(2), complete(2)))

    def test_identity_examples(self):
        star = complete_bipartite(1, 3)
        assert degree_sum_identity(star, 0) == (3, 3)
        k6 = complete(6)
        assert degree_sum_identity(k6, 2) == (25, 25)
        g = extremal_kfactor(8, 2)
        assert degree_sum_identity(g, 0) == (4, 4)

    @settings(derandomize=True, max_examples=60)
    @given(st.integers(0, 99999), st.integers(1, 12))
    def test_identity_random(self, seed, n):
        g = seeded_random_graph(seed, n, 0.45)
        for u in range(n):
            lhs, rhs = degree_sum_identity(g, u)
            assert lhs == rhs

    def test_sqrt_m(self):
        assert abs(sqrt_m_bound(complete_bipartite(4, 4)) - 4) <= 1e-12
        c6 = cycle(6)
        assert sqrt_m_bound(c6) == math.sqrt(6)
        assert sqrt_m_bound(c6) > rho_dense(c6) - 1e-9
        assert abs(sqrt_m_bound(complete_bipartite(1, 1)) - 1) <= 1e-12
        with pytest.raises(GraphError):
            sqrt_m_bound(complete_bipartite(3, 0))
        with pytest.raises(GraphError):
            sqrt_m_bound(complete(3))
