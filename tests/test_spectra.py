import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specmatch.graph import (GraphError, complete, complete_bipartite, cycle,
                             disjoint_union, empty)
from specmatch.spectra import (ConvergenceError, Partition, QuotientMatrix,
                               SymMatrix,
                               adjacency_matrix, charpoly_quartic,
                               degree_sum_identity, fms_bound, full_spectrum,
                               quartic_largest_root, quotient,
                               refine_equitable, rho_dense, spectral_radius,
                               sqrt_m_bound)
from specmatch.families import (extremal_kext_bipartite,
                                extremal_kext_general, extremal_kfactor)

from conftest import path, petersen, seeded_random_graph

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
            SymMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))


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

    def test_eigenvalue_containment(self):
        # every quotient eigenvalue appears in the dense spectrum
        for g in (extremal_kext_general(12, 1, 3),
                  extremal_kfactor(10, 3),
                  extremal_kext_bipartite(12, 1, 2)):
            q = quotient(g, refine_equitable(g))
            dense = full_spectrum(adjacency_matrix(g))
            for lam in q.eigenvalues():
                assert min(abs(dense - lam)) <= 1e-8


class TestQuarticClosedForm:
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
