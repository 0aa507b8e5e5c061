import ast
import inspect
import json
import random
import re
import sys
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from specmatch import matchfactor as mf
from specmatch.graph import (GraphError, SIDE_A, SIDE_B, bits, complete,
                             complete_bipartite, cycle, disjoint_union, empty,
                             from_edges, graph6_decode, graph6_encode,
                             infer_bipartition, is_connected, mask_of)
from specmatch.matchfactor import (Certificate, FactorSpec,
                                   decompose_edge_disjoint_pms,
                                   find_k_factor_flow, hamiltonian_cycle,
                                   has_f_factor_ore, has_perfect_matching,
                                   is_k_extendable_chen,
                                   is_k_extendable_definitional,
                                   is_k_extendable_plummer,
                                   is_k_factor_critical,
                                   max_matching_bipartite,
                                   max_matching_general,
                                   validate_certificate)
from specmatch.families import (FamilyParams, construct_family,
                                extremal_kext_bipartite,
                                extremal_kext_general, extremal_kfactor,
                                extremal_kfc, recognize)
from specmatch.harness import (P_SWEEP, ROUTES, THEOREMS, random_bipartite,
                               random_graph, rng_for, sample_for_theorem)
from specmatch.spectra import rho_dense, spectral_radius

from conftest import (_k_disjoint_edges, brute_is_k_extendable,
                      brute_max_matching_size, falling_path, petersen,
                      ref_f_factor_flow, ref_first_failing_k_matching,
                      ref_hamiltonian_cycle, ref_has_f_factor_ore,
                      ref_is_k_extendable_chen, ref_is_k_extendable_plummer,
                      ref_is_k_factor_critical,
                      ref_is_k_factor_critical_by_definition,
                      ref_iter_k_matchings, ref_max_matching,
                      ref_max_matching_bipartite, ref_max_matching_general,
                      ref_max_matching_value, ref_recognize,
                      ref_unpruned_chen_violating_set,
                      ref_unpruned_kfc_violating_set,
                      ref_unpruned_plummer_violating_subset, remove_star,
                      seeded_random_graph)


def random_balanced_bipartite(seed: int, half: int, p: float):
    return random_bipartite(rng_for(seed, 0), half, half, p)


def _shallow(call):
    """``call()`` under a recursion limit 30 frames above the current
    depth, so that a search that recurses once per step of a long path
    raises RecursionError."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        return call()
    finally:
        sys.setrecursionlimit(limit)


class TestMaxMatching:
    def test_bipartite_fixed(self):
        for p, q in ((3, 5), (4, 4), (1, 6)):
            assert max_matching_bipartite(
                complete_bipartite(p, q)).size == min(p, q)
        assert max_matching_bipartite(cycle(6)).size == 3

    def test_bipartite_vs_brute(self):
        for seed in range(30):
            g = random_balanced_bipartite(seed, 4, 0.4)
            mm = max_matching_bipartite(g)
            mm.validate(g)
            assert mm.size == brute_max_matching_size(g)

    def test_general_fixed(self):
        assert max_matching_general(complete(3)).size == 1
        assert max_matching_general(complete(8)).size == 4
        assert max_matching_general(petersen()).size == 5
        assert brute_max_matching_size(petersen()) == 5

    def test_general_vs_brute(self):
        for seed in range(30):
            g = seeded_random_graph(seed, 9, 0.35)
            mm = max_matching_general(g)
            mm.validate(g)
            assert mm.size == brute_max_matching_size(g)

    def test_order_limit(self):
        # the blossom matching has no order limit; the definitional scan,
        # one perfect-matching test per size-k matching, keeps its own
        assert max_matching_general(complete(25)).size == 12
        with pytest.raises(GraphError, match="definitional check limited"):
            is_k_extendable_definitional(complete(26), 1)

    def test_has_perfect_matching(self):
        assert has_perfect_matching(complete(6))
        assert not has_perfect_matching(complete(5))
        assert not has_perfect_matching(complete_bipartite(1, 3))


def _nu_on(g, alive, match=None):
    """nu(G[alive]) by the blossom core, warm-started from ``match`` or
    from scratch: the largest ``need`` that ``_reaching`` meets. Each
    matching it returns must be a matching of G[alive] of that size."""
    start = [-1] * g.n if match is None else match
    nu = 0
    while True:
        got = mf._reaching(g.adj, alive, start, nu + 1)
        if got is None:
            return nu
        covered = 0
        for v in bits(alive):
            p = got[v]
            if p >= 0:
                assert got[p] == v and alive >> p & 1 and g.has_edge(v, p)
                covered += 1
        assert covered // 2 > nu
        nu += 1


def _nu(g):
    return mf._pairs(mf._blossom_matching(g))


def odd_wheel(spokes: int):
    """The hub 0 joined to every vertex of the odd cycle 1..spokes."""
    rim = [(i, i % spokes + 1) for i in range(1, spokes + 1)]
    return from_edges(spokes + 1, rim + [(0, i) for i in range(1, spokes + 1)])


def triangle_chain(triangles: int, cycle_len: int, pendant: bool):
    """Triangles t = 0, 1, ..., each joined to the next through an odd cycle
    of ``cycle_len`` that passes through a vertex of each; with
    ``pendant``, vertex 0 also gets a leaf. Every blossom search in it
    contracts triangles inside larger odd cycles."""
    edges = []
    n = 3 * triangles
    for t in range(triangles):
        a = 3 * t
        edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
    for t in range(triangles - 1):
        u, v = 3 * t + 2, 3 * t + 3
        # u - x - v, then back from v to u over cycle_len - 2 edges
        path = [u, n, v] + list(range(n + 1, n + cycle_len - 2)) + [u]
        n += cycle_len - 2
        edges += list(zip(path, path[1:]))
    if pendant:
        edges.append((0, n))
        n += 1
    return from_edges(n, edges)


class TestBlossom:
    """Edmonds' blossom core against the memoized search it replaced
    (``ref_max_matching_value``), networkx, and relabeling; the
    reconstruction and the warm-started decide scans against their
    reference copies."""

    def test_every_small_graph_and_submask(self):
        for g in _all_graphs(6):
            memo = {}
            assert _nu(g) == ref_max_matching_value(g.adj, g.full_mask(),
                                                    memo)
            masks = range(1 << g.n) if g.n <= 5 else (g.full_mask(),)
            for alive in masks:
                assert _nu_on(g, alive) == ref_max_matching_value(
                    g.adj, alive, memo), (g.adj, alive)

    def test_seeded_submasks_cold_and_warm(self):
        rng = random.Random(18)
        for i, n in enumerate(tuple(range(7, 21)) * 3):
            g = random_graph(rng_for(18, i), n, P_SWEEP[i % len(P_SWEEP)])
            match = mf._blossom_matching(g)
            memo = {}
            for _ in range(6):
                alive = rng.getrandbits(n)
                nu = ref_max_matching_value(g.adj, alive, memo)
                assert _nu_on(g, alive) == nu
                assert _nu_on(g, alive, match) == nu
                for need in (nu - 1, nu, nu + 1):
                    got = mf._reaching(g.adj, alive, match, need)
                    assert (got is not None) == (nu >= need), need

    def nested(self):
        yield petersen()
        for spokes in (3, 5, 7, 9, 11):
            yield odd_wheel(spokes)
        for triangles in (1, 2, 3, 4):
            for cycle_len in (3, 5, 7):
                for pendant in (False, True):
                    g = triangle_chain(triangles, cycle_len, pendant)
                    if g.n <= mf.GENERAL_MATCHING_LIMIT:
                        yield g

    def test_nested_blossoms(self):
        graphs = 0
        for g in self.nested():
            graphs += 1
            full = g.full_mask()
            match = mf._blossom_matching(g)
            memo = {}
            assert _nu(g) == ref_max_matching_value(g.adj, full, memo)
            # every one- and two-vertex deletion, cold and warm
            for u in range(g.n):
                for v in range(u, g.n):
                    alive = full & ~(1 << u | 1 << v)
                    nu = ref_max_matching_value(g.adj, alive, memo)
                    assert _nu_on(g, alive) == nu, (g.adj, u, v)
                    assert _nu_on(g, alive, match) == nu, (g.adj, u, v)
            assert (max_matching_general(g).edges
                    == ref_max_matching_general(g).edges)
        assert graphs == 28

    def test_networkx_oracle(self):
        nx = pytest.importorskip("networkx")
        for i in range(60):
            n = 20 + i % 21
            g = random_graph(rng_for(19, i), n, (0.05, 0.1, 0.2, 0.5)[i % 4])
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            want = len(nx.max_weight_matching(h, maxcardinality=True))
            assert _nu_on(g, g.full_mask()) == want, graph6_encode(g)

    def test_reconstruction_is_the_reference_edge_list(self):
        graphs = [random_graph(rng_for(20, i), 2 + i % 15,
                               P_SWEEP[i % len(P_SWEEP)] / 2)
                  for i in range(90)]
        stars = [complete_bipartite(1, r).drop_bipartition()
                 for r in (1, 3, 6)]
        # K_4 on 0-3 whose vertex 3 is the center of a star on 4-9
        star_clique = from_edges(
            10, list(combinations(range(4), 2))
            + [(3, leaf) for leaf in range(4, 10)])
        for g in graphs + stars + [star_clique]:
            assert (max_matching_general(g).edges
                    == ref_max_matching_general(g).edges), graph6_encode(g)
        # nu < k: the no-size-k-matching certificate lists those edges
        hosts = [(stars[1], 2), (star_clique, 3)]
        for host, k in hosts:
            want = [list(e) for e in ref_max_matching(host).edges]
            assert len(want) < k
            for check in (is_k_extendable_chen, is_k_extendable_definitional):
                ok, cert = check(host, k)
                assert not ok
                assert cert.payload == {"reason": "no-size-k-matching",
                                        "k": k, "max_matching": want}
                assert validate_certificate(host, cert)

    def test_no_k_matching_revalidates_above_the_general_limit(self):
        # re-validation reads nu from a cold blossom, which has no order
        # limit: a star on 26 vertices without sides still shows nu = 1
        star = complete_bipartite(1, 25).drop_bipartition()
        for k, holds in ((2, True), (1, False)):
            cert = Certificate("FailingMatching", {
                "reason": "no-size-k-matching", "k": k,
                "max_matching": [[0, 1]]})
            assert validate_certificate(star, cert) is holds

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(st.integers(1, 24), st.integers(0, 123456),
           st.sampled_from((0.1, 0.2) + P_SWEEP), st.data())
    def test_nu_under_relabeling(self, n, seed, p, data):
        g = seeded_random_graph(seed, n, p)
        moved = _relabeled(g, data.draw(st.permutations(range(n))))
        assert _nu(moved) == _nu(g)

    @staticmethod
    def scan_graphs():
        """Seeded draws of order 8-18, denser where the graph is small, so
        that the scans meet positives and late first failures."""
        for i, n in enumerate(range(8, 19)):
            for j, p in enumerate((0.3, 0.5, 0.8)):
                if n > 12 and p > 0.5:
                    continue
                yield random_graph(rng_for(21, 3 * i + j), n, p)
        yield complete(10)
        yield cycle(12)
        yield extremal_kext_general(16, 2, 4)
        yield extremal_kfc(15, 1, 2)

    def test_first_failing_k_matching(self):
        verdicts = Counter()
        for g in self.scan_graphs():
            if g.n % 2:
                continue
            match = mf._blossom_matching(g)
            for k in (1, 2, 3):
                want = ref_first_failing_k_matching(g, k)
                assert mf._first_failing_k_matching(g, k, match) == want
                verdicts[want is None] += 1
        assert verdicts[True] and verdicts[False]

    def test_is_k_factor_critical(self):
        verdicts = Counter()
        for g in self.scan_graphs():
            for k in (1, 2):
                want = ref_is_k_factor_critical_by_definition(g, k)
                assert is_k_factor_critical(g, k)[0] is want, (g.adj, k)
                verdicts[want] += 1
        assert verdicts[True] and verdicts[False]


def _brute_outer_set(g, alive: int, memo: dict) -> int:
    """D(G[alive]) by its definition: the vertices v of ``alive`` with
    nu(G[alive]-v) = nu(G[alive])."""
    nu = ref_max_matching_value(g.adj, alive, memo)
    return mask_of(v for v in bits(alive)
                   if ref_max_matching_value(g.adj, alive ^ 1 << v,
                                             memo) == nu)


class TestOuterSet:
    """The blossom search's outer set. From the only vertex that a maximum
    matching of G[alive] leaves exposed, the completed tree's outer set is
    the Gallai-Edmonds set D(G[alive]); with several exposed vertices, D is
    the union of the searches from each. A search that ends once a target
    is outer returns part of D covering the target; a target outside D
    gets the completed tree."""

    @staticmethod
    def cases():
        """(graph, alive): every induced subgraph of every graph on <= 5
        vertices, then seeded graphs of odd order 7-15 and the odd-order
        kfc-general members to n = 15, whole."""
        for g in _all_graphs(5):
            for alive in range(1, 1 << g.n):
                yield g, alive
        for i, n in enumerate(tuple(range(7, 16, 2)) * 8):
            g = random_graph(rng_for(22, i), n, (0.2, 0.3, 0.5, 0.7)[i % 4])
            yield g, g.full_mask()
        for g in _join_members("kfc-general", 15):
            if g.n % 2:
                yield g, g.full_mask()

    def test_outer_set_is_d(self):
        single = several = 0
        for g, alive in self.cases():
            memo = {}
            want = _brute_outer_set(g, alive, memo)
            nu = ref_max_matching_value(g.adj, alive, memo)
            match = mf._reaching(g.adj, alive, [-1] * g.n, nu)
            exposed = [v for v in bits(alive) if match[v] < 0]
            got = 0
            for root in exposed:
                trial = list(match)
                got |= mf._blossom_augment(g.adj, alive, trial, root)
                assert trial == match  # a maximum matching: no augmenting
            assert got == want, (g.adj, alive, exposed)
            single += len(exposed) == 1
            several += len(exposed) > 1
        assert single > 1000 and several > 1000

    def test_barrier_is_n_of_d_minus_d(self):
        # _barrier, warm-started from a maximum matching of the whole graph
        # and cold, against A = N(D) - D with D by its definition
        several = 0
        for g, alive in self.cases():
            memo = {}
            d = _brute_outer_set(g, alive, memo)
            want = mf._neighborhood_mask(g.adj, d) & alive & ~d
            for match in (mf._blossom_matching(g), [-1] * g.n):
                assert mf._barrier(g.adj, alive, match) == want, (
                    g.adj, alive)
            nu = ref_max_matching_value(g.adj, alive, memo)
            several += alive.bit_count() - 2 * nu > 1
        assert several > 1000

    def test_target_ends_the_search(self):
        checked = [0, 0]
        for g, alive in self.cases():
            if alive.bit_count() % 2 == 0:
                continue
            memo = {}
            nu = ref_max_matching_value(g.adj, alive, memo)
            if 2 * nu + 1 != alive.bit_count():
                continue
            d = _brute_outer_set(g, alive, memo)
            match = mf._reaching(g.adj, alive, [-1] * g.n, nu)
            root = next(v for v in bits(alive) if match[v] < 0)
            for t in bits(alive & ~(1 << root)):
                got = mf._blossom_augment(g.adj, alive, list(match), root,
                                          1 << t)
                inside = bool(d >> t & 1)
                if inside:
                    assert got >> t & 1 and not got & ~d, (g.adj, alive, t)
                else:
                    assert got == d, (g.adj, alive, t)
                missed = mf._outer_misses(g.adj, alive, match, root, 1 << t)
                assert missed == (0 if inside else 1 << t)
                # the root's entry is restored
                assert match[root] == -1
                checked[inside] += 1
        assert all(c > 1000 for c in checked), checked


class TestDefinitional:
    def test_small_positives(self):
        ok, cert = is_k_extendable_definitional(complete_bipartite(2, 2), 1)
        assert ok and cert is None
        ok, _ = is_k_extendable_definitional(complete(4), 1)
        assert ok

    def test_join_extremal_fails_inside_clique(self):
        g = extremal_kext_general(10, 1, 2)
        ok, cert = is_k_extendable_definitional(g, 1)
        assert not ok
        assert cert.kind == "FailingMatching"
        assert cert.payload["matching"] == [[0, 1]]
        assert validate_certificate(g, cert)

    def test_input_contract(self):
        with pytest.raises(GraphError):
            is_k_extendable_definitional(complete(5), 1)
        with pytest.raises(GraphError):
            is_k_extendable_definitional(
                disjoint_union(complete(2), complete(2)), 1)
        with pytest.raises(GraphError):
            is_k_extendable_definitional(complete(4), 0)

    def test_no_k_matching_case(self):
        star = complete_bipartite(1, 3)
        ok, cert = is_k_extendable_definitional(star, 2)
        assert not ok
        assert cert.payload["reason"] == "no-size-k-matching"
        assert validate_certificate(star, cert)


class TestChen:
    def test_join_extremal(self):
        g = extremal_kext_general(10, 1, 2)
        ok, cert = is_k_extendable_chen(g, 1)
        assert not ok
        assert cert.payload["set"] == [0, 1]
        assert cert.payload["odd_components"] == 2
        assert validate_certificate(g, cert)

    def test_small_positives(self):
        assert is_k_extendable_chen(complete(6), 2)[0]
        assert is_k_extendable_chen(cycle(6), 1)[0]

    def test_star_above_the_general_limit(self):
        # K_{1,25}: 26 vertices, nu = 1, so no size-2 matching; the
        # certificate lists a maximum matching at any order
        star = complete_bipartite(1, 25).drop_bipartition()
        ok, cert = is_k_extendable_chen(star, 2)
        assert not ok
        assert cert.payload == {"reason": "no-size-k-matching", "k": 2,
                                "max_matching": [[0, 1]]}
        assert validate_certificate(star, cert)

    def test_matches_definitional_on_random(self):
        for seed in range(60):
            n = (4, 6, 8)[seed % 3]
            g = seeded_random_graph(seed, n, 0.5)
            from specmatch.graph import is_connected
            if not is_connected(g):
                continue
            for k in (1, 2):
                assert (is_k_extendable_chen(g, k)[0]
                        == is_k_extendable_definitional(g, k)[0]
                        == brute_is_k_extendable(g, k))


class TestPlummer:
    def test_overlay_extremal_certificate(self):
        g = extremal_kext_bipartite(10, 1, 1)
        ok, cert = is_k_extendable_plummer(g, 1)
        assert not ok
        assert cert.payload["subset"] == [4, 5, 6, 7]
        assert cert.payload["neighborhood"] == [8, 9]
        assert validate_certificate(g, cert)
        # the surplus route's Hall failure is the excess-maximal subset
        # that the reference search finds on these overlays (at (12, 1, 2)
        # it is not: [6, 7, 8] against the search's [6, 7, 8, 9])
        for n, k, s in ((10, 1, 1), (16, 2, 2), (18, 3, 1)):
            g = extremal_kext_bipartite(n, k, s)
            want = ref_unpruned_plummer_violating_subset(g, k)
            assert is_k_extendable_plummer(g, k) == (False, want)

    def test_complete_balanced(self):
        for k in (1, 2, 3):
            assert is_k_extendable_plummer(complete_bipartite(k + 1, k + 1),
                                           k)[0]

    def test_cycle(self):
        assert is_k_extendable_plummer(cycle(8), 1)[0]

    def test_long_augmenting_paths(self):
        # the replicated Hall tests at cycle(100) augment along paths
        # through 49 units; Kuhn's search must not recurse once per unit
        ok, cert = _shallow(lambda: is_k_extendable_plummer(cycle(100), 1))
        assert ok and cert is None

    def test_unbalanced_sides(self):
        for g in (complete_bipartite(3, 5), complete_bipartite(2, 3),
                  remove_star(complete_bipartite(4, 2), 0, 1)):
            ok, cert = is_k_extendable_plummer(g, 1)
            assert not ok
            assert cert.payload["reason"] == "unbalanced-sides"
            assert validate_certificate(g, cert)
            # N(larger side) as a set, recomputed here
            larger = cert.payload["subset"]
            assert cert.payload["neighborhood"] == sorted(
                {w for v in larger for w in bits(g.adj[v])})
        _, cert = is_k_extendable_plummer(complete_bipartite(2, 3), 1)
        assert cert.payload["neighborhood"] == [0, 1]

    def test_k_equals_side_size(self):
        # the only size-q matchings are perfect; existence decides
        assert is_k_extendable_plummer(complete_bipartite(3, 3), 3)[0]
        broken = complete_bipartite(3, 3).without_edges([(0, 3), (0, 4),
                                                         (0, 5)])
        assert not is_k_extendable_plummer(broken, 3)[0]

    def test_matches_definitional_on_random(self):
        from specmatch.graph import is_connected
        compared = 0
        for seed in range(80):
            g = random_balanced_bipartite(seed, 3, 0.55)
            if not is_connected(g):
                continue
            compared += 1
            for k in (1, 2):
                assert (is_k_extendable_plummer(g, k)[0]
                        == brute_is_k_extendable(g, k))
        assert compared > 10


class TestOreAndFlow:
    def test_factor_extremal(self):
        g = extremal_kfactor(8, 2)
        ok, cert = has_f_factor_ore(g, FactorSpec.constant(8, 2))
        assert not ok
        assert cert.payload["subset"] == [0]
        assert cert.payload["lhs"] == 2 and cert.payload["rhs"] == 1
        assert cert.payload["y_deficient"] == [7]
        assert validate_certificate(g, cert)
        ok2, cert2 = find_k_factor_flow(g, 2)
        assert not ok2
        assert validate_certificate(g, cert2)

    def test_complete_bipartite_two_factor(self):
        assert has_f_factor_ore(complete_bipartite(4, 4),
                                FactorSpec.constant(8, 2))[0]

    def test_cycle_factors(self):
        c8 = cycle(8)
        assert has_f_factor_ore(c8, FactorSpec.constant(8, 1))[0]
        assert has_f_factor_ore(c8, FactorSpec.constant(8, 2))[0]

    def test_sum_mismatch(self):
        g = complete_bipartite(2, 4)
        ok, cert = has_f_factor_ore(g, FactorSpec((1, 1, 1, 1, 1, 1)))
        assert not ok
        assert cert.payload["reason"] == "target-sum-mismatch"
        assert validate_certificate(g, cert)

    def test_flow_builds_regular_factor(self):
        ok, cert = find_k_factor_flow(complete_bipartite(4, 4), 3)
        assert ok
        assert validate_certificate(complete_bipartite(4, 4), cert)
        deg = [0] * 8
        for u, v in cert.payload["edges"]:
            deg[u] += 1
            deg[v] += 1
        assert deg == [3] * 8

    def test_flow_k0_and_unbalanced(self):
        ok, cert = find_k_factor_flow(complete_bipartite(3, 3), 0)
        assert ok and cert.payload["edges"] == []
        with pytest.raises(GraphError):
            find_k_factor_flow(complete_bipartite(2, 3), 1)

    def test_ore_equals_flow_on_random(self):
        for seed in range(50):
            g = random_balanced_bipartite(seed, 4, 0.5)
            for k in (1, 2, 3):
                assert (has_f_factor_ore(g, FactorSpec.constant(8, k))[0]
                        == find_k_factor_flow(g, k)[0])

    @staticmethod
    def brute_ore(g, targets):
        """(subset, lhs, rhs) of the first nonempty subset X of side A, in
        the lexicographic order of sorted tuples, at the largest positive
        excess lhs - rhs; None when no subset has one."""
        a_verts = g.side_vertices(SIDE_A)
        best = None
        for x in sorted(tuple(c) for r in range(1, len(a_verts) + 1)
                        for c in combinations(a_verts, r)):
            nbh = {y for v in x for y in range(g.n) if g.has_edge(v, y)}
            lhs = sum(targets[v] for v in x)
            rhs = sum(min(targets[y], sum(g.has_edge(v, y) for v in x))
                      for y in nbh)
            if lhs - rhs > 0 and (best is None
                                  or lhs - rhs > best[1] - best[2]):
                best = (list(x), lhs, rhs)
        return best

    def test_ore_against_brute_force(self):
        """Every balanced bipartite graph with |A| <= 3, and seeded draws
        with |A| 4-7; constant targets 1-3 and seeded targets 0-3 with
        equal side sums."""
        graphs = list(_balanced_bipartite_graphs(3))
        graphs += [random_bipartite(rng_for(27, i), 4 + i % 4, 4 + i % 4,
                                    P_SWEEP[i % len(P_SWEEP)])
                   for i in range(120)]
        negatives = 0
        for i, g in enumerate(graphs):
            half = g.n // 2
            rng = random.Random(i)
            a_targets = [rng.randrange(4) for _ in range(half)]
            specs = [FactorSpec.constant(g.n, k) for k in (1, 2, 3)]
            specs.append(FactorSpec(tuple(a_targets) + tuple(
                rng.sample(a_targets, half))))
            for spec in specs:
                ok, cert = has_f_factor_ore(g, spec)
                want = self.brute_ore(g, spec.targets)
                assert ok == (want is None), (g.adj, spec)
                if want is not None:
                    p = cert.payload
                    assert (p["subset"], p["lhs"], p["rhs"]) == want
                    assert validate_certificate(g, cert)
                    negatives += 1
        assert negatives > 500


class TestOddComponents:
    """``_odd_components`` against a union-find count, on every graph with
    n <= 5 and every vertex mask of it."""

    @staticmethod
    def union_find_odd(g, alive):
        parent = list(range(g.n))

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for u, v in g.edges():
            if (alive >> u) & 1 and (alive >> v) & 1:
                parent[find(u)] = find(v)
        sizes = Counter(find(v) for v in range(g.n) if (alive >> v) & 1)
        return sum(size % 2 for size in sizes.values())

    def test_every_graph_and_mask(self):
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            for emask in range(1 << len(pairs)):
                g = from_edges(n, [e for i, e in enumerate(pairs)
                                   if (emask >> i) & 1])
                for alive in range(1 << n):
                    assert (mf._odd_components(g.adj, alive)
                            == self.union_find_odd(g, alive)), (g.adj, alive)


class TestDecomposition:
    def test_complete_bipartite(self):
        pms = decompose_edge_disjoint_pms(complete_bipartite(3, 3))
        assert len(pms) == 3
        assert all(m.size == 3 for m in pms)

    def test_cycle(self):
        pms = decompose_edge_disjoint_pms(cycle(8))
        assert len(pms) == 2
        union = {e for m in pms for e in m.edges}
        assert union == set(cycle(8).edges())

    def test_from_flow_factor(self):
        k44 = complete_bipartite(4, 4)
        _, cert = find_k_factor_flow(k44, 3)
        h = from_edges(8, [tuple(e) for e in cert.payload["edges"]],
                       side_a=k44.side_a)
        pms = decompose_edge_disjoint_pms(h)
        assert len(pms) == 3
        seen = set()
        for m in pms:
            assert m.size == 4
            assert not seen & set(m.edges)
            seen |= set(m.edges)
        assert seen == set(h.edges())

    def test_rejects_irregular(self):
        with pytest.raises(GraphError):
            decompose_edge_disjoint_pms(complete_bipartite(2, 3))
        with pytest.raises(GraphError):
            decompose_edge_disjoint_pms(
                remove_star(complete_bipartite(3, 3), 0, 1))


class TestFactorCritical:
    def test_complete_graphs(self):
        assert is_k_factor_critical(complete(5), 1)[0]
        assert is_k_factor_critical(complete(6), 2)[0]
        assert is_k_factor_critical(complete(5), 3)[0]

    def test_k22_not_2fc_though_1_extendable(self):
        g = complete_bipartite(2, 2)
        assert is_k_extendable_plummer(g, 1)[0]
        ok, cert = is_k_factor_critical(g, 2)
        assert not ok
        assert validate_certificate(g, cert)

    def test_kfc_extremal(self):
        g = extremal_kfc(15, 1, 2)
        ok, cert = is_k_factor_critical(g, 1)
        assert not ok
        assert cert.payload["set"] == [0, 1]
        assert validate_certificate(g, cert)

    def test_parity(self):
        ok, cert = is_k_factor_critical(complete(6), 1)
        assert not ok
        assert validate_certificate(complete(6), cert)


def _outcome(fn, g, k):
    """(verdict, certificate JSON) of a checker, or the error it raised."""
    try:
        ok, cert = fn(g, k)
    except GraphError as exc:
        return "GraphError", str(exc)
    return ok, cert.to_json() if cert is not None else None


def _verdict(fn, g, k):
    """A checker's verdict, or the error it raised; a negative's
    certificate must re-validate on ``g``."""
    try:
        ok, cert = fn(g, k)
    except GraphError as exc:
        return "GraphError", str(exc)
    assert ok or validate_certificate(g, cert), (fn, k, cert)
    return ok


def _all_graphs(max_n: int, min_n: int = 1):
    for n in range(min_n, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield from_edges(n, [e for i, e in enumerate(pairs)
                                 if (mask >> i) & 1])


@pytest.fixture(scope="module")
def graphs_on_six():
    """The 32,768 labeled graphs on six vertices, built once for the two
    slow tests that take every one."""
    return tuple(_all_graphs(6, min_n=6))


def _excess(cert, k: int) -> int:
    """The violation that an odd-set certificate shows: o(G-S)-|S|+2k
    (Chen), o(G-S)-|S|+k (factor-criticality)."""
    p = cert.payload
    c = 2 * k if p["criterion"] == "extendability" else k
    return p["odd_components"] - len(p["set"]) + c


class TestDecideThenCertify:
    """Each checker decides with one route and certifies a negative with
    that route's own witness: verdicts and errors must be those of the
    reference always-exhaustive checkers, and every certificate must
    re-validate. The references certify with the excess-maximal, lex-least
    set, so certificates are not compared."""

    ROUTES = ((is_k_extendable_chen, ref_is_k_extendable_chen),
              (is_k_factor_critical, ref_is_k_factor_critical))
    PLUMMER = ((is_k_extendable_plummer, ref_is_k_extendable_plummer),)

    def assert_same(self, routes, g, ks):
        for k in ks:
            for checker, reference in routes:
                assert (_verdict(checker, g, k)
                        == _verdict(reference, g, k)), (checker, k)

    def assert_all_routes(self, g, ks):
        self.assert_same(self.ROUTES, g, ks)
        gb = infer_bipartition(g)
        if gb is not None:
            self.assert_same(self.PLUMMER, gb, ks)

    def test_all_graphs_up_to_five_vertices(self):
        graphs = 0
        for g in _all_graphs(5):
            self.assert_all_routes(g, (1, 2, 3))
            graphs += 1
        assert graphs == 1 + 2 + 8 + 64 + 1024

    @pytest.mark.slow
    def test_all_graphs_on_six_vertices(self, graphs_on_six):
        verdicts = Counter()
        for g in graphs_on_six:
            gb = infer_bipartition(g)
            for routes, host in ((self.ROUTES, g), (self.PLUMMER, gb)):
                if host is None:
                    continue
                for k in (1, 2, 3):
                    for checker, reference in routes:
                        got = _verdict(checker, host, k)
                        assert got == _verdict(reference, host, k), (
                            checker, k)
                        verdicts[checker, got] += 1
        assert len(graphs_on_six) == 1 << 15
        for checker, _ in self.ROUTES + self.PLUMMER:
            assert verdicts[checker, True] and verdicts[checker, False]

    def test_seeded_random_graphs(self):
        for i, n in enumerate(tuple(range(6, 17)) * 2):
            g = random_graph(rng_for(11, i), n, P_SWEEP[i % len(P_SWEEP)])
            self.assert_all_routes(g, (1, 2))

    def test_seeded_random_bipartite(self):
        negatives = 0
        for i, half in enumerate((3, 4, 5, 6, 7, 8, 9, 10) * 2):
            g = random_bipartite(rng_for(12, i), half, half,
                                 P_SWEEP[i % len(P_SWEEP)])
            self.assert_same(self.PLUMMER, g, (1, 2))
            negatives += not is_k_extendable_plummer(g, 1)[0]
            if half <= 6:
                self.assert_same(self.ROUTES[:1], g, (1, 2))
        assert 0 < negatives < 16

    def test_near_extremal_samples(self):
        p = FamilyParams(n=10, k=1, delta=2)
        spec = THEOREMS["t1.1"]
        extremal = extremal_kext_general(10, 1, 2)
        for i in range(12):
            g = sample_for_theorem(spec, p, extremal, rng_for(13, i), i)
            self.assert_all_routes(g, (1, 2))

    def test_t45_samples(self):
        p = FamilyParams(n=15, k=1, delta=2)
        spec = THEOREMS["t4.5"]
        extremal = extremal_kfc(15, 1, 2)
        for i in range(12):
            g = sample_for_theorem(spec, p, extremal, rng_for(14, i), i)
            self.assert_same(self.ROUTES[1:], g, (1, 3))

    def test_decisions_on_theorem_samples(self):
        # the outer-set decisions against the literal scans (every size-k
        # matching, every k-set deletion) on 300 samples at verify-check's
        # point and at t4.5's point
        for name, p in (("t1.1", FamilyParams(n=18, k=1, delta=3)),
                        ("t4.5", FamilyParams(n=15, k=1, delta=2))):
            spec = THEOREMS[name]
            extremal = construct_family(spec.family, p)
            verdicts = Counter()
            for i in range(300):
                g = sample_for_theorem(spec, p, extremal, rng_for(31, i), i)
                match = mf._blossom_matching(g)
                if name == "t1.1":
                    want = mf._first_failing_k_matching(g, 1, match) is None
                    got = mf._chen_decides(g, 1, match) is None
                else:
                    want = ref_is_k_factor_critical_by_definition(g, 1)
                    got = mf._kfc_decides(g, 1, match) is None
                assert got is want, (name, i)
                verdicts[want] += 1
            assert verdicts[True] and verdicts[False], (name, verdicts)

    def test_extremal_families(self):
        for n, k, d in ((10, 1, 2), (12, 1, 3), (16, 2, 4), (18, 1, 3)):
            self.assert_same(self.ROUTES[:1], extremal_kext_general(n, k, d),
                             (k,))
        for n, k, s in ((10, 1, 1), (12, 1, 2), (16, 2, 2), (18, 3, 1)):
            self.assert_same(self.PLUMMER, extremal_kext_bipartite(n, k, s),
                             (k,))
        for n, k, d in ((15, 1, 2), (10, 2, 2), (12, 2, 2), (13, 3, 3)):
            self.assert_same(self.ROUTES[1:], extremal_kfc(n, k, d), (k,))


def _join_members(family: str, max_n: int):
    """Every member of a join family (kext-general or kfc-general) with
    n <= ``max_n`` and k <= 3."""
    for n in range(2, max_n + 1):
        for k in (1, 2, 3):
            for delta in range(k, n):
                try:
                    yield construct_family(family,
                                           FamilyParams(n=n, k=k, delta=delta))
                except GraphError:
                    pass


def _deficiency(g, removed: int) -> int:
    """|V(G'')| - 2*nu(G'') for G'' = ``g`` without the vertices of
    ``removed``, by the reference matching."""
    rest = g.induced(bits(g.full_mask() ^ removed))
    return rest.n - 2 * ref_max_matching(rest).size


class TestBarrier:
    """A Chen or factor-criticality negative is certified by S = R + A. R
    is what the decision stops at: the vertices of the failing size-k
    matching M (the certificate's witness edges), or the failing k-set T.
    A is the Gallai-Edmonds barrier of G'' = G-R. S must contain R,
    re-validate, and violate the odd-component criterion by exactly the
    deficiency |V(G'')| - 2*nu(G''), taken from ``ref_max_matching``: that
    equality makes A a barrier of G'', not just any violating set.
    Verdicts are held to the literal definitions
    (``ref_first_failing_k_matching``,
    ``ref_is_k_factor_critical_by_definition``), which take every order up
    to 20."""

    @staticmethod
    def assert_barriers(g, ks) -> Counter:
        """Both checkers on ``g`` (Chen when ``g`` is connected and of even
        order) for each k in ``ks`` up to n; the verdicts met."""
        seen = Counter()
        match = mf._blossom_matching(g)
        chen = g.n % 2 == 0 and is_connected(g)
        for k in ks:
            if k > g.n:
                continue
            cases = [(is_k_factor_critical,
                      ref_is_k_factor_critical_by_definition(g, k))]
            if chen:
                cases.append((is_k_extendable_chen,
                              ref_max_matching(g).size >= k
                              and ref_first_failing_k_matching(g, k) is None))
            for checker, want in cases:
                ok, cert = checker(g, k)
                assert ok is want, (checker, k, graph6_encode(g))
                seen[checker, ok] += 1
                if ok:
                    continue
                assert validate_certificate(g, cert)
                if cert.kind == "FailingMatching":
                    continue
                if checker is is_k_extendable_chen:
                    m_edges = tuple(map(tuple, cert.payload["witness_edges"]))
                    assert m_edges == mf._chen_decides(g, k, match)
                    removed = mask_of(v for e in m_edges for v in e)
                else:
                    removed = mask_of(mf._kfc_decides(g, k, match))
                assert not removed & ~mask_of(cert.payload["set"])
                assert _excess(cert, k) == _deficiency(g, removed) > 0, (
                    checker, k, graph6_encode(g))
        return seen

    @staticmethod
    def assert_both_verdicts(seen):
        for checker in (is_k_extendable_chen, is_k_factor_critical):
            assert seen[checker, True] and seen[checker, False], seen

    def test_all_graphs_up_to_five_vertices(self):
        seen = Counter()
        for g in _all_graphs(5):
            seen += self.assert_barriers(g, (1, 2, 3))
        self.assert_both_verdicts(seen)

    @pytest.mark.slow
    def test_all_graphs_on_six_vertices(self, graphs_on_six):
        seen = Counter()
        for g in graphs_on_six:
            seen += self.assert_barriers(g, (1, 2, 3))
        self.assert_both_verdicts(seen)

    def test_seeded_random_graphs(self):
        # connected G(n, p) at n 6-20, each the first connected draw of its
        # stream; k = 3 to n = 16 (the definitional scan at k = 3 on a
        # dense n = 20 graph takes seconds)
        seen = Counter()
        for i, n in enumerate(tuple(range(6, 21)) * 3):
            rng = rng_for(29, i)
            p = (0.3, 0.5, 0.7)[i % 3]
            g = random_graph(rng, n, p)
            while not is_connected(g):
                g = random_graph(rng, n, p)
            seen += self.assert_barriers(g, (1, 2, 3) if n <= 16 else (1, 2))
        self.assert_both_verdicts(seen)

    def test_extremal_members(self):
        seen = Counter()
        members = 0
        for family, max_n in (("kext-general", 14), ("kfc-general", 17)):
            for g in _join_members(family, max_n):
                seen += self.assert_barriers(g, (1, 2, 3))
                members += 1
        assert members == 61
        assert seen[is_k_extendable_chen, False]
        assert seen[is_k_factor_critical, False]

    def test_extremal_certificates_are_the_search_sets(self):
        # on these extremal graphs S is the excess-maximal set that the
        # reference search finds; at (20, 2, 4) that search takes seconds,
        # and its set was [0, 1, 2, 3]
        for n, k, d in ((10, 1, 2), (18, 1, 3)):
            g = extremal_kext_general(n, k, d)
            want = ref_unpruned_chen_violating_set(g, k)
            assert is_k_extendable_chen(g, k) == (False, want)
        g = extremal_kext_general(20, 2, 4)
        cert = is_k_extendable_chen(g, 2)[1]
        assert cert.payload["set"] == [0, 1, 2, 3]
        g = extremal_kfc(15, 1, 2)
        want = ref_unpruned_kfc_violating_set(g, 1)
        assert is_k_factor_critical(g, 1) == (False, want)

    def test_kfc_single_vertex_line(self):
        # graph6-stream seed 7, round 0: n = 17, m = 38, not
        # 1-factor-critical; the failing vertex 4 leaves two odd components
        # and an empty barrier, as the excess-maximal search found
        g = graph6_decode("POQ@@aaL??PEMRCwOBcD?ASW")
        assert (g.n, g.m) == (17, 38)
        assert mf._kfc_decides(g, 1, mf._blossom_matching(g)) == (4,)
        ok, cert = is_k_factor_critical(g, 1)
        assert not ok
        assert (cert.payload["set"], cert.payload["odd_components"]) == (
            [4], 2)



def _violation(cert, k: int) -> int | None:
    """How far a ``ViolatingSetS`` misses Chen's or the factor-criticality
    bound (``_excess``), or a ``ViolatingSubsetX`` Plummer's: |X|+k-|N(X)|.
    None for the size certificates (no size-k matching, unbalanced
    sides), which measure nothing."""
    p = cert.payload
    if cert.kind == "ViolatingSetS":
        return _excess(cert, k)
    if cert.kind == "ViolatingSubsetX" and "reason" not in p:
        return len(p["subset"]) + k - len(p["neighborhood"])
    return None


class TestSubtreeBound:
    """The bound that Plummer's subset search pruned its subtrees by:
    Konig's deficiency formula caps every subset's excess |X|+k-|N(X)| at
    k+|A|-nu(G). The surplus route certifies with its failing Hall test
    instead of a search, so its certificate is held to that cap and to the
    best excess of the reference subset search
    (``ref_unpruned_plummer_violating_subset``), whose verdict it must
    share."""

    def test_seeded_random_bipartite(self):
        # balanced sides of 6-18 vertices, k = 1-3
        verdicts = Counter()
        for i, half in enumerate(tuple(range(6, 19)) * 3):
            g = random_bipartite(rng_for(28, i), half, half,
                                 P_SWEEP[i % len(P_SWEEP)])
            ceiling = half - ref_max_matching_bipartite(g).size
            for k in (1, 2, 3):
                ok, cert = is_k_extendable_plummer(g, k)
                want = ref_unpruned_plummer_violating_subset(g, k)
                assert ok is (want is None), (i, k)
                verdicts[ok] += 1
                if ok:
                    continue
                assert validate_certificate(g, cert), (i, k)
                assert cert.kind == want.kind, (i, k)
                got = _violation(cert, k)
                if got is not None:
                    best = _violation(want, k)
                    assert 0 < got <= best <= k + ceiling, (i, k)
        assert verdicts[True] and verdicts[False], verdicts

def _balanced_bipartite_graphs(max_half: int):
    """Every graph on sides {0..h-1} and {h..2h-1}, for h <= max_half."""
    for h in range(1, max_half + 1):
        pairs = [(a, b) for a in range(h) for b in range(h, 2 * h)]
        for mask in range(1 << len(pairs)):
            yield from_edges(2 * h, [e for i, e in enumerate(pairs)
                                     if (mask >> i) & 1], (1 << h) - 1)


class TestMatchingReferences:
    """The one augmenting-path routine and Ore's criterion give exactly the
    reference copies' outputs: maximum matchings, surplus-route
    certificates (the reference's ``enum_limit=0`` leaves its surplus route
    alone) and Ore certificates, on every balanced bipartite graph with
    n <= 6 and on seeded draws with halves 3-8."""

    @staticmethod
    def graphs():
        yield from _balanced_bipartite_graphs(3)
        for i in range(240):
            half = 3 + i % 6
            yield random_bipartite(rng_for(15, i), half, half,
                                   P_SWEEP[i % len(P_SWEEP)])

    def test_max_matching_bipartite(self):
        for g in self.graphs():
            assert max_matching_bipartite(g) == ref_max_matching_bipartite(g)

    def test_surplus_route(self):
        def reference(h, j):
            return ref_is_k_extendable_plummer(h, j, enum_limit=0)

        hall_exits = 0
        for g in self.graphs():
            min_b = min(g.degree(b) for b in g.side_vertices(SIDE_B))
            for k in (1, 2, 3):
                got = _outcome(is_k_extendable_plummer, g, k)
                assert got == _outcome(reference, g, k), k
                # no side-B vertex of degree <= k: the replicated Hall test
                # gave the negative
                hall_exits += (got[0] is False and k < g.n // 2
                               and min_b > k)
        assert hall_exits > 20

    def test_ore(self):
        for i, g in enumerate(self.graphs()):
            specs = [FactorSpec.constant(g.n, k) for k in (1, 2, 3)]
            # prescribed degrees with equal side sums
            rng = random.Random(i)
            a_targets = [rng.randrange(4) for _ in range(g.n // 2)]
            specs.append(FactorSpec(tuple(a_targets) + tuple(
                rng.sample(a_targets, len(a_targets)))))
            for spec in specs:
                assert (_outcome(has_f_factor_ore, g, spec)
                        == _outcome(ref_has_f_factor_ore, g, spec)), spec


class TestStackSearches:
    """The searches that keep their own stacks give exactly the outputs of
    the reference copies of their recursive forms."""

    def test_flow_route(self):
        # every balanced bipartite graph with |A| <= 3, then seeded draws
        # with |A| 2-10, half of them relabeled so that the sides interleave
        graphs = list(_balanced_bipartite_graphs(3))
        rng = random.Random(33)
        for i in range(300):
            half = 2 + i % 9
            g = random_bipartite(rng_for(33, i), half, half,
                                 P_SWEEP[i % len(P_SWEEP)])
            graphs.append(_relabeled(g, rng.sample(range(g.n), g.n))
                          if i % 2 else g)
        cuts = 0
        for g in graphs:
            for k in (1, 2, 3):
                targets = FactorSpec.constant(g.n, k).targets
                got = mf._f_factor_flow(g, targets)
                assert got == ref_f_factor_flow(g, targets), (g, k)
                cuts += not got[0]
        assert cuts > 500

    def test_hamilton(self):
        found = 0
        for g in _balanced_bipartite_graphs(4):
            got = hamiltonian_cycle(g)
            assert got == ref_hamiltonian_cycle(g), g
            found += got[0]
        assert found > 1000

    def test_k_matchings(self, graphs_on_six):
        for g in (*_all_graphs(5), *graphs_on_six):
            for k in (0, 1, 2, 3):
                assert (list(mf.iter_k_matchings(g, k))
                        == list(ref_iter_k_matchings(g, k))), (g, k)

    def test_validator_spans(self):
        # both read only the edges inside the mask, so the graphs whose
        # edges all lie inside it stand for every graph with n <= 6
        for n in range(7):
            for mask in range(1 << n):
                pairs = list(combinations(bits(mask), 2))
                for emask in range(1 << len(pairs)):
                    adj = from_edges(n, [e for i, e in enumerate(pairs)
                                         if emask >> i & 1]).adj
                    for k in (0, 1, 2, 3):
                        assert ((mf._reaching(adj, mask, [-1] * n, k) is None)
                                == (_k_disjoint_edges(adj, mask, k) is None)
                                ), (adj, mask, k)


def _self_calls(source: str) -> list[str]:
    """The functions of ``source``, closures and methods included, that call
    themselves by name (``f(...)`` or ``obj.f(...)``), sorted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call)
                and node.name in (getattr(call.func, "id", None),
                                  getattr(call.func, "attr", None))
                for call in ast.walk(node)):
            found.append(node.name)
    return sorted(found)


class TestShallowStack:
    """Each search of ``matchfactor`` keeps its own stack, so input of any
    size stays within the recursion limit: every case fails when a search
    recurses once per step."""

    def test_flow_route(self):
        # the last A-vertex's augmenting path runs back along all 200
        g = falling_path(100)
        ok, cert = _shallow(lambda: find_k_factor_flow(g, 1))
        assert ok and validate_certificate(g, cert)

    def test_hamilton(self):
        ok, cert = _shallow(lambda: hamiltonian_cycle(cycle(60), 60))
        assert ok and cert.payload["cycle"] == list(range(60))

    def test_k_matchings(self):
        first = _shallow(lambda: next(mf.iter_k_matchings(cycle(80), 39)))
        assert first == ((0, 1),) + tuple((v, v + 1) for v in range(2, 78, 2))

    def test_validator(self):
        # every vertex of a star with 100 leaves, centre last: the set
        # spans no two disjoint edges
        g = from_edges(101, [(v, 100) for v in range(100)])
        cert = Certificate("ViolatingSetS", {
            "criterion": "extendability", "k": 2, "set": list(range(101))})
        assert _shallow(lambda: validate_certificate(g, cert)) is False

    def test_no_function_calls_itself(self):
        assert _self_calls(
            "def f(n):\n    return f(n - 1)\n"
            "def g():\n    def rec():\n        yield from rec()\n"
            "class C:\n    def m(self):\n        return self.m()\n"
            "def h():\n    return f(1)\n") == ["f", "m", "rec"]
        source = inspect.getsource(mf)
        assert _self_calls(source) == []


def _relabeled(g, perm):
    """g with vertex v renamed perm[v], sides carried along."""
    side_a = None
    if g.side_a is not None:
        side_a = mask_of(perm[v] for v in bits(g.side_a))
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()],
                      side_a)


RECOGNIZE_CASES = [
    ("kext-general", FamilyParams(n=10, k=1, delta=2)),
    ("kext-general", FamilyParams(n=16, k=2, delta=4)),
    ("kext-bipartite", FamilyParams(n=10, k=1, delta=1)),
    ("kext-bipartite", FamilyParams(n=12, k=1, delta=2)),
    ("kext-bipartite", FamilyParams(n=8, k=1, delta=2)),
    ("kfactor-bipartite", FamilyParams(n=10, k=3)),
    ("kfc-general", FamilyParams(n=15, k=1, delta=2)),
    ("hamilton-bipartite", FamilyParams(n=8)),
]


class TestRelabeling:
    """Metamorphic: each checker gives the same verdict after a
    relabeling, and its certificate re-validates on the relabeled
    graph."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 123456),
           st.sampled_from(P_SWEEP), st.integers(1, 3), st.data())
    def test_searches_under_relabeling(self, n, seed, p, k, data):
        # the witness searches behind each negative (the first failing
        # size-k matching or k-set and the barrier of what it leaves, the
        # failing Hall test): the relabeled graph's certificates are
        # barriers of its own remainders; in both labelings each verdict is
        # the excess-maximal reference search's, whose best excess does not
        # move, and no certificate re-validates with a larger one
        g = seeded_random_graph(seed, n, p)
        perm = data.draw(st.permutations(range(n)))
        TestBarrier.assert_barriers(_relabeled(g, perm), (k,))
        searches = [(is_k_extendable_chen, ref_unpruned_chen_violating_set,
                     g),
                    (is_k_factor_critical, ref_unpruned_kfc_violating_set,
                     g)]
        gb = infer_bipartition(g)
        if gb is not None:
            searches.append((is_k_extendable_plummer,
                             ref_unpruned_plummer_violating_subset, gb))
        for checker, reference, host in searches:
            best = []
            for h in (host, _relabeled(host, perm)):
                try:
                    want = reference(h, k)
                except GraphError as exc:
                    with pytest.raises(GraphError, match=re.escape(str(exc))):
                        checker(h, k)
                    continue
                ok, cert = checker(h, k)
                assert ok is (want is None), checker
                if ok:
                    continue
                assert validate_certificate(h, cert), checker
                assert cert.kind == want.kind, checker
                best.append(_violation(want, k))
                got = _violation(cert, k)
                assert got is None or 0 < got <= best[-1], checker
            assert len(set(best)) <= 1, checker

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 123456),
           st.sampled_from(P_SWEEP), st.integers(1, 3), st.data())
    def test_checkers_under_relabeling(self, n, seed, p, k, data):
        # the deciding routes: same verdict (or error) and certificate kind,
        # and every certificate re-validates on the relabeled graph
        g = seeded_random_graph(seed, n, p)
        perm = data.draw(st.permutations(range(n)))
        checkers = [(is_k_extendable_chen, g), (is_k_factor_critical, g)]
        gb = infer_bipartition(g)
        if gb is not None:
            checkers += [(is_k_extendable_plummer, gb),
                         (find_k_factor_flow, gb),
                         (lambda h, j: has_f_factor_ore(
                             h, FactorSpec.constant(h.n, j)), gb)]
        for checker, host in checkers:
            moved = _relabeled(host, perm)
            got = _outcome(checker, moved, k)
            want = _outcome(checker, host, k)
            assert got[0] == want[0], checker
            if got[0] == "GraphError":
                assert got == want
            elif got[1] is not None:
                cert = Certificate(**json.loads(got[1]))
                assert cert.kind == json.loads(want[1])["kind"]
                assert validate_certificate(moved, cert), checker

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 123456),
           st.sampled_from(P_SWEEP), st.data())
    def test_spectra_and_hamilton_under_relabeling(self, n, seed, p, data):
        # the same rho from both routes, and the same Hamilton verdict with
        # a certificate that re-validates on the relabeled graph
        g = seeded_random_graph(seed, n, p)
        perm = data.draw(st.permutations(range(n)))
        moved = _relabeled(g, perm)
        rho = rho_dense(g)
        assert abs(rho_dense(moved) - rho) <= 1e-9 * max(1.0, rho)
        for h in (g, moved):
            assert abs(spectral_radius(h).rho - rho) <= 1e-8 * max(1.0, rho)
        gb = infer_bipartition(g)
        if gb is not None:
            moved_b = _relabeled(gb, perm)
            got = _outcome(lambda h, _: hamiltonian_cycle(h), moved_b, 0)
            want = _outcome(lambda h, _: hamiltonian_cycle(h), gb, 0)
            assert got[0] == want[0]
            if got[0] is True:
                cert = Certificate(**json.loads(got[1]))
                assert validate_certificate(moved_b, cert)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(st.sampled_from(RECOGNIZE_CASES), st.integers(0, 2), st.data())
    def test_recognize_under_relabeling(self, case, edits, data):
        # a family member, possibly with toggled pairs: the same answer
        # under any labeling, and the same as the per-family reference
        family, p = case
        g = construct_family(family, p).drop_bipartition()
        for _ in range(edits):
            u, v = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2,
                                      max_size=2, unique=True))
            g = g.with_edge_toggled(u, v)
        moved = _relabeled(g, data.draw(st.permutations(range(g.n))))
        want = recognize(family, p, g)
        assert want or edits
        for h in (moved, infer_bipartition(moved)):
            if h is not None:
                assert recognize(family, p, h) == want
                assert ref_recognize(family, p, h) == want


class TestHamilton:
    def test_cycle_is_hamiltonian(self):
        ok, cert = hamiltonian_cycle(cycle(8))
        assert ok
        assert validate_certificate(cycle(8), cert)

    def test_star_deleted_is_not(self):
        g = remove_star(complete_bipartite(4, 4), 0, 3)
        assert not hamiltonian_cycle(g)[0]

    def test_complete_bipartite(self):
        ok, cert = hamiltonian_cycle(complete_bipartite(4, 4))
        assert ok
        assert validate_certificate(complete_bipartite(4, 4), cert)

    def test_unbalanced_is_false(self):
        assert not hamiltonian_cycle(complete_bipartite(3, 5))[0]

    def test_contract(self):
        with pytest.raises(GraphError):
            hamiltonian_cycle(complete(6))
        with pytest.raises(GraphError):
            hamiltonian_cycle(complete_bipartite(11, 11))


class TestChecksAgainstEachOther:
    def test_extendability_monotone_in_k(self):
        for seed in range(40):
            g = seeded_random_graph(seed, 8, 0.6)
            from specmatch.graph import is_connected
            if not is_connected(g):
                continue
            if is_k_extendable_chen(g, 2)[0]:
                assert is_k_extendable_chen(g, 1)[0]
                assert has_perfect_matching(g)

    def test_2k_factor_critical_is_k_extendable(self):
        # deleting the 2k ends of any k-matching of a 2k-factor-critical
        # graph leaves a perfect matching, and such a graph on n >= 2k+2
        # vertices is connected
        positives = 0
        for seed in range(50):
            for n in (6, 8, 10):
                for p in (0.7, 0.9):
                    g = seeded_random_graph(1000 * n + seed, n, p)
                    for k in (1, 2):
                        if ROUTES["kfc"].check(g, 2 * k, n)[0]:
                            assert ROUTES["chen"].check(g, k, n)[0], (
                                graph6_encode(g), k)
                            positives += 1
        assert positives == 386

    def test_min_degree_below_k_never_extendable(self):
        # holds for n >= 2k+2 (at n = 2k any k-matching is already perfect)
        g = extremal_kfactor(8, 2)  # has a vertex of degree 1
        gb = infer_bipartition(g.drop_bipartition())
        assert not is_k_extendable_plummer(gb, 2)[0]
        pendant_k5 = from_edges(6, [(u, v) for u in range(5)
                                    for v in range(u + 1, 5)] + [(0, 5)])
        assert not is_k_extendable_chen(pendant_k5, 2)[0]
        assert not is_k_extendable_definitional(pendant_k5, 2)[0]

    def test_tampered_certificates_fail(self):
        g = extremal_kfactor(8, 2)
        _, cert = has_f_factor_ore(g, FactorSpec.constant(8, 2))
        bad = Certificate(cert.kind, dict(cert.payload, subset=[1]))
        assert not validate_certificate(g, bad)
        _, cert = is_k_extendable_chen(extremal_kext_general(10, 1, 2), 1)
        bad = Certificate(cert.kind, dict(cert.payload, set=[2, 3]))
        assert not validate_certificate(extremal_kext_general(10, 1, 2), bad)
        # the centre of K_{1,3} leaves three odd components, but a set that
        # spans no edge holds no size-1 matching
        bad = Certificate("ViolatingSetS", {
            "criterion": "extendability", "k": 1, "set": [0]})
        assert not validate_certificate(complete_bipartite(1, 3), bad)


C6 = cycle(6)  # bipartition by parity: A = {0, 2, 4}


class TestMalformedCertificates:
    """A certificate that is malformed for its host graph re-validates as
    False, never as True and never with an exception."""

    CASES = {
        "set-out-of-range": (C6, "ViolatingSetS", {
            "criterion": "extendability", "k": 1, "set": [0, 6]}),
        "set-repeated-vertex": (C6, "ViolatingSetS", {
            "criterion": "factor-critical", "k": 1, "set": [0, 0]}),
        "set-mistyped-k": (C6, "ViolatingSetS", {
            "criterion": "extendability", "k": "1", "set": [0, 1]}),
        "set-no-criterion": (C6, "ViolatingSetS", {"k": 1, "set": [0, 1]}),
        # counted twice, [0, 0] would beat |N(X)| = 2
        "subset-repeated-vertex": (C6, "ViolatingSubsetX", {
            "criterion": "extendability", "k": 1, "subset": [0, 0],
            "neighborhood": [1, 5]}),
        "subset-negative-vertex": (C6, "ViolatingSubsetX", {
            "criterion": "extendability", "k": 1, "subset": [-1],
            "neighborhood": []}),
        "subset-host-without-sides": (C6.drop_bipartition(),
                                      "ViolatingSubsetX", {
            "criterion": "extendability", "k": 1, "subset": [0],
            "neighborhood": [1, 5]}),
        "subset-short-targets": (C6, "ViolatingSubsetX", {
            "criterion": "f-factor", "targets": [1], "subset": [0, 2],
            "neighborhood": [1, 3, 5]}),
        "factor-repeated-edge": (complete_bipartite(1, 1), "FactorSubgraph", {
            "k": 2, "edges": [[0, 1], [0, 1]]}),
        # -1 would alias vertex 5, and (5, 0) is an edge
        "factor-negative-vertex": (C6, "FactorSubgraph", {
            "k": 1, "edges": [[-1, 0], [1, 2], [3, 4]]}),
        "factor-not-a-pair": (C6, "FactorSubgraph", {
            "k": 1, "edges": [[0, 1, 2]]}),
        "cycle-negative-vertex": (C6, "HamCycle", {
            "cycle": [0, 1, 2, 3, 4, -1]}),
        "cycle-out-of-range": (C6, "HamCycle", {
            "cycle": [0, 1, 2, 3, 4, 6]}),
        "cycle-not-a-list": (C6, "HamCycle", {"cycle": 6}),
        "matching-non-edge": (C6, "FailingMatching", {
            "k": 1, "matching": [[0, 3]]}),
        "matching-shared-vertex": (C6, "FailingMatching", {
            "k": 2, "matching": [[0, 1], [1, 2]]}),
        "matching-out-of-range": (C6, "FailingMatching", {
            "k": 1, "matching": [[5, 6]]}),
        "matching-missing": (C6, "FailingMatching", {"k": 1}),
        # k must be an int, at least 1 (0 for a factor)
        "set-negative-k": (empty(6), "ViolatingSetS", {
            "criterion": "factor-critical", "k": -5, "set": []}),
        "set-zero-k": (empty(6), "ViolatingSetS", {
            "criterion": "factor-critical", "k": 0, "set": []}),
        "matching-fractional-k": (complete(3), "FailingMatching", {
            "reason": "no-size-k-matching", "k": 2.5, "max_matching": []}),
        "matching-bool-k": (empty(2), "FailingMatching", {
            "reason": "no-size-k-matching", "k": True, "max_matching": []}),
        "factor-negative-k": (empty(0), "FactorSubgraph", {
            "k": -1, "edges": []}),
        "payload-not-a-dict": (C6, "HamCycle", [0, 1, 2, 3, 4, 5]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_false_never_raises(self, case):
        g, kind, payload = self.CASES[case]
        assert validate_certificate(g, Certificate(kind, payload)) is False
