import json
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from specmatch import matchfactor as mf
from specmatch.graph import (GraphError, SIDE_A, SIDE_B, bits, complete,
                             complete_bipartite, cycle, disjoint_union,
                             from_edges, graph6_decode, graph6_encode,
                             infer_bipartition, mask_of)
from specmatch.matchfactor import (Certificate, FactorSpec,
                                   chen_violating_set,
                                   decompose_edge_disjoint_pms,
                                   find_k_factor_flow, hamiltonian_cycle,
                                   has_f_factor_ore, has_perfect_matching,
                                   is_k_extendable_chen,
                                   is_k_extendable_definitional,
                                   is_k_extendable_plummer,
                                   is_k_factor_critical,
                                   max_matching_bipartite,
                                   max_matching_general,
                                   plummer_violating_subset,
                                   validate_certificate)
from specmatch.families import (FamilyParams, construct_family,
                                extremal_kext_bipartite,
                                extremal_kext_general, extremal_kfactor,
                                extremal_kfc, recognize)
from specmatch.harness import (P_SWEEP, ROUTES, THEOREMS, random_bipartite,
                               random_graph, rng_for, sample_for_theorem)
from specmatch.spectra import rho_dense, spectral_radius

from conftest import (brute_is_k_extendable, brute_max_matching_size,
                      petersen, ref_chen_violating_set,
                      ref_first_failing_k_matching, ref_has_f_factor_ore,
                      ref_is_k_extendable_chen, ref_is_k_extendable_plummer,
                      ref_is_k_factor_critical,
                      ref_is_k_factor_critical_by_definition,
                      ref_kfc_violating_set, ref_max_matching,
                      ref_max_matching_bipartite, ref_max_matching_general,
                      ref_max_matching_value, ref_recognize,
                      ref_unpruned_chen_violating_set,
                      ref_unpruned_kfc_violating_set,
                      ref_unpruned_plummer_violating_subset, remove_star,
                      seeded_random_graph)


def random_balanced_bipartite(seed: int, half: int, p: float):
    return random_bipartite(rng_for(seed, 0), half, half, p)


def kfc_search(g, k, limit=mf.EXHAUSTIVE_LIMIT):
    """The factor-criticality search on its own: the checker's input
    checks, then ``_kfc_search`` from a cold maximum matching."""
    mf._require_kfc_input(g, k, limit)
    return mf._kfc_search(g, k, mf._blossom_matching(g))


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
        with pytest.raises(GraphError):
            max_matching_general(complete(25))

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
                assert mf._outer_covers(g.adj, alive, match, root,
                                        1 << t) is inside
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

    def test_complete_balanced(self):
        for k in (1, 2, 3):
            assert is_k_extendable_plummer(complete_bipartite(k + 1, k + 1),
                                           k)[0]

    def test_cycle(self):
        assert is_k_extendable_plummer(cycle(8), 1)[0]

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


def _search_outcome(search, g, k):
    def as_checker(h, j):
        cert = search(h, j)
        return cert is None, cert
    return _outcome(as_checker, g, k)


def _plummer_reference_search(g, k):
    return ref_is_k_extendable_plummer(g, k)[1]


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


def _excess(cert, k: int):
    """The violation a search certificate shows: o(G-S)-|S|+2k (Chen),
    o(G-S)-|S|+k (factor-criticality), |X|+k-|N(X)| (Plummer); the reason
    for the certificates of cases that need no search."""
    p = cert.payload
    if cert.kind == "ViolatingSetS":
        c = 2 * k if p["criterion"] == "extendability" else k
        return p["odd_components"] - len(p["set"]) + c
    if cert.kind == "ViolatingSubsetX" and "reason" not in p:
        return len(p["subset"]) + k - len(p["neighborhood"])
    return p["reason"]


def _search_exit(g, k: int, cert, nu: int) -> str | None:
    """How a violating-set search on ``g`` (matching number ``nu``) ended:
    "positive" (no witness; every set was searched or pruned), "stopped"
    (the certificate reaches the Tutte-Berge or Konig bound, so the search
    returned there) or "below-bound" (a negative searched to the end);
    None for the cases settled without a search."""
    if cert is None:
        return "positive"
    excess = _excess(cert, k)
    if isinstance(excess, str):
        return None
    if cert.kind == "ViolatingSetS":
        extendability = cert.payload["criterion"] == "extendability"
        bound = g.n - 2 * nu + (2 * k if extendability else k)
    else:
        bound = k + len(g.side_vertices(SIDE_A)) - nu
    assert excess <= bound
    return "stopped" if excess == bound else "below-bound"


class TestDecideThenCertify:
    """The checkers decide with one fast route and search only to certify a
    negative; verdicts, certificates and errors must match the reference
    always-exhaustive checkers, and so must the public searches."""

    ROUTES = (
        (is_k_extendable_chen, chen_violating_set, ref_is_k_extendable_chen),
        (is_k_factor_critical, kfc_search, ref_is_k_factor_critical),
    )
    PLUMMER = (is_k_extendable_plummer, plummer_violating_subset,
               ref_is_k_extendable_plummer)

    def assert_same(self, routes, g, ks):
        for k in ks:
            for checker, search, reference in routes:
                expected = _outcome(reference, g, k)
                assert _outcome(checker, g, k) == expected, (checker, k)
                assert _search_outcome(search, g, k) == expected, (search, k)

    def assert_all_routes(self, g, ks):
        self.assert_same(self.ROUTES, g, ks)
        gb = infer_bipartition(g)
        if gb is not None:
            self.assert_same((self.PLUMMER,), gb, ks)

    def test_all_graphs_up_to_five_vertices(self):
        graphs = 0
        for g in _all_graphs(5):
            self.assert_all_routes(g, (1, 2, 3))
            graphs += 1
        assert graphs == 1 + 2 + 8 + 64 + 1024

    @pytest.mark.slow
    def test_all_graphs_on_six_vertices(self, graphs_on_six):
        # The searches, and the Chen and factor-criticality checkers, which
        # take their certificates from them, against the reference
        # searches; ref_is_k_extendable_chen and ref_is_k_factor_critical
        # give their searches' outcomes, so those are the checkers'
        # references too. Each search must also end both ways: at the
        # matching bound, and by exhausting the tree (positives, and
        # negatives below the bound).
        searches = (
            (chen_violating_set, ref_chen_violating_set, False,
             is_k_extendable_chen),
            (kfc_search, ref_kfc_violating_set, False, is_k_factor_critical),
            (plummer_violating_subset, _plummer_reference_search, True,
             None),
        )
        exits = {search: Counter() for search, _, _, _ in searches}
        verdicts = Counter()
        for g in graphs_on_six:
            gb = infer_bipartition(g)
            nu = brute_max_matching_size(g)
            for search, reference, bipartite, checker in searches:
                host = gb if bipartite else g
                if host is None:
                    continue
                for k in (1, 2, 3):
                    expected = _search_outcome(reference, host, k)
                    if checker is not None:
                        assert _outcome(checker, host, k) == expected, (
                            checker, k)
                        verdicts[checker, expected[0]] += 1
                    try:
                        cert = search(host, k)
                    except GraphError as exc:
                        assert expected == ("GraphError", str(exc))
                        continue
                    assert expected == (
                        cert is None, cert.to_json() if cert else None), (
                        search, k)
                    exits[search][_search_exit(host, k, cert, nu)] += 1
        assert len(graphs_on_six) == 1 << 15
        for search, seen in exits.items():
            assert all(seen[how] for how in
                       ("positive", "stopped", "below-bound")), (search, seen)
        for checker in (is_k_extendable_chen, is_k_factor_critical):
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
            self.assert_same((self.PLUMMER,), g, (1, 2))
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
                    got = mf._chen_decides(g, 1, match)
                else:
                    want = ref_is_k_factor_critical_by_definition(g, 1)
                    got = mf._kfc_decides(g, 1, match)
                assert got is want, (name, i)
                verdicts[want] += 1
            assert verdicts[True] and verdicts[False], (name, verdicts)

    def test_extremal_families(self):
        for n, k, d in ((10, 1, 2), (12, 1, 3), (16, 2, 4), (18, 1, 3)):
            self.assert_same(self.ROUTES[:1], extremal_kext_general(n, k, d),
                             (k,))
        for n, k, s in ((10, 1, 1), (12, 1, 2), (16, 2, 2), (18, 3, 1)):
            self.assert_same((self.PLUMMER,),
                             extremal_kext_bipartite(n, k, s), (k,))
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


class TestSubtreeBound:
    """The Chen and factor-criticality searches skip a subtree when the
    Tutte-Berge bound on G-S shows that no superset of S beats the best
    excess, and Plummer's search when Konig's deficiency formula on
    G[L, B-N(X)] (L the side-A vertices after X's last one) shows that no
    superset of X does. Skipping may only save work: every verdict and
    certificate equals the one the search gives without that bound
    (``ref_unpruned_*``; Plummer's on the bipartite form of each graph that
    has one), and the slow negatives the bound was made for stay cheap,
    counted in ``_odd_components`` calls or ``excess`` evaluations rather
    than in seconds."""

    SEARCHES = (
        (chen_violating_set, ref_unpruned_chen_violating_set, (1, 2)),
        (kfc_search, ref_unpruned_kfc_violating_set, (1, 2, 3)),
    )
    PLUMMER = (plummer_violating_subset,
               ref_unpruned_plummer_violating_subset, (1, 2, 3))
    # graph6-stream seed 7, round 0: n = 17, m = 38, not 1-factor-critical,
    # certified by the single vertex 4 (two odd components); the search
    # without the bound makes 58,439 odd-component scans on it
    KFC_LINE = "POQ@@aaL??PEMRCwOBcD?ASW"
    # graph6-stream seed 7, round 0: n = 32 (|A| = 16), m = 69, not
    # 1-extendable, certified by X = [2] with N(X) = [24]; the search
    # without the bound makes 40,621 excess evaluations on it at k = 1 and
    # 27,159 at k = 2, with it 80 at each
    PLUMMER_LINE = ("_????????????????????@?CEB?ChaOG?FioEI??D{_AAC?GPC?O?K?@aq"
                    "??_O_?`JW?@@C???R???CH@???")

    @staticmethod
    def assert_same_search(g, search, reference, ks):
        for k in ks:
            assert (_search_outcome(search, g, k)
                    == _search_outcome(reference, g, k)), (search, k)

    def assert_same(self, g):
        for search, reference, ks in self.SEARCHES:
            self.assert_same_search(g, search, reference, ks)
        gb = infer_bipartition(g)
        if gb is not None:
            self.assert_same_search(gb, *self.PLUMMER)

    def test_all_graphs_up_to_five_vertices(self):
        for g in _all_graphs(5):
            self.assert_same(g)

    @pytest.mark.slow
    def test_all_graphs_on_six_vertices(self, graphs_on_six):
        for g in graphs_on_six:
            self.assert_same(g)

    def test_seeded_random_graphs(self):
        for i, n in enumerate(tuple(range(7, 17)) * 3):
            self.assert_same(random_graph(rng_for(16, i), n,
                                          P_SWEEP[i % len(P_SWEEP)]))

    def test_seeded_random_bipartite(self):
        # balanced sides of 6-18 vertices: the bound runs its matchings
        # only on subtrees over at least _SUBTREE_MIN side-A vertices
        search, reference, ks = self.PLUMMER
        verdicts = Counter()
        for i, half in enumerate(tuple(range(6, 19)) * 3):
            g = random_bipartite(rng_for(28, i), half, half,
                                 P_SWEEP[i % len(P_SWEEP)])
            for k in ks:
                got = _search_outcome(search, g, k)
                assert got == _search_outcome(reference, g, k), (i, k)
                verdicts[got[0]] += 1
        assert verdicts[True] and verdicts[False], verdicts

    def test_extremal_members(self):
        members = 0
        for family, max_n in (("kext-general", 14), ("kfc-general", 17)):
            for g in _join_members(family, max_n):
                self.assert_same(g)
                members += 1
        assert members == 61

    @staticmethod
    def count_scans(monkeypatch):
        calls = [0]
        scan = mf._odd_components

        def counted(adj, alive):
            calls[0] += 1
            return scan(adj, alive)

        monkeypatch.setattr(mf, "_odd_components", counted)
        return calls

    def test_chen_extremal_n20_work(self, monkeypatch):
        # best excess 2 at [0, 1, 2, 3] against a Tutte-Berge ceiling of 4:
        # without the subtree bound the search runs to the end, 615,316
        # scans
        g = extremal_kext_general(20, 2, 4)
        calls = self.count_scans(monkeypatch)
        cert = chen_violating_set(g, 2)
        assert cert.payload["set"] == [0, 1, 2, 3]
        assert _excess(cert, 2) == 2
        assert calls[0] <= 1000
        calls[0] = 0
        assert is_k_extendable_chen(g, 2) == (False, cert)
        assert calls[0] <= 1000

    @staticmethod
    def count_excess(monkeypatch):
        calls = [0]
        search = mf._lex_max_excess

        def counted(verts, adj, excess, hopeless, ceiling):
            def scored(*args):
                calls[0] += 1
                return excess(*args)
            return search(verts, adj, scored, hopeless, ceiling)

        monkeypatch.setattr(mf, "_lex_max_excess", counted)
        return calls

    def test_plummer_stream_line_work(self, monkeypatch):
        g = infer_bipartition(graph6_decode(self.PLUMMER_LINE))
        assert (g.n, g.m, g.side_a.bit_count()) == (32, 69, 16)
        calls = self.count_excess(monkeypatch)
        for k in (1, 2):
            calls[0] = 0
            cert = plummer_violating_subset(g, k)
            assert (cert.payload["subset"],
                    cert.payload["neighborhood"]) == ([2], [24])
            assert calls[0] <= 100
            calls[0] = 0
            assert is_k_extendable_plummer(g, k) == (False, cert)
            assert calls[0] <= 100

    def test_kfc_single_vertex_line_work(self, monkeypatch):
        g = graph6_decode(self.KFC_LINE)
        assert (g.n, g.m) == (17, 38)
        calls = self.count_scans(monkeypatch)
        cert = kfc_search(g, 1)
        assert (cert.payload["set"], cert.payload["odd_components"]) == (
            [4], 2)
        assert calls[0] <= 20
        calls[0] = 0
        assert is_k_factor_critical(g, 1) == (False, cert)
        assert calls[0] <= 20


def _balanced_bipartite_graphs(max_half: int):
    """Every graph on sides {0..h-1} and {h..2h-1}, for h <= max_half."""
    for h in range(1, max_half + 1):
        pairs = [(a, b) for a in range(h) for b in range(h, 2 * h)]
        for mask in range(1 << len(pairs)):
            yield from_edges(2 * h, [e for i, e in enumerate(pairs)
                                     if (mask >> i) & 1], (1 << h) - 1)


class TestMatchingReferences:
    """The one augmenting-path routine and Ore's criterion on the shared
    violating-set search give exactly the reference copies' outputs:
    maximum matchings, surplus-route certificates (``limit=0`` leaves
    the surplus route alone) and Ore certificates, on every balanced
    bipartite graph with n <= 6 and on seeded draws with halves 3-8."""

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
        def surplus(h, j):
            return is_k_extendable_plummer(h, j, limit=0)

        def reference(h, j):
            return ref_is_k_extendable_plummer(h, j, enum_limit=0)

        hall_exits = 0
        for g in self.graphs():
            min_b = min(g.degree(b) for b in g.side_vertices(SIDE_B))
            for k in (1, 2, 3):
                got = _outcome(surplus, g, k)
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


def _relabeled(g, perm):
    """g with vertex v renamed perm[v], sides carried along."""
    side_a = None
    if g.side_a is not None:
        side_a = mask_of(perm[v] for v in bits(g.side_a))
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()],
                      side_a)


def _relabel_invariant(search, g, k):
    """What relabeling must not change: the error, or the verdict with the
    certificate's kind and excess (the lex-least set itself may change)."""
    try:
        cert = search(g, k)
    except GraphError as exc:
        return "GraphError", str(exc)
    if cert is None:
        return True, None
    return False, cert.kind, _excess(cert, k)


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
    """Metamorphic: each violating-set search gives the same verdict and
    the same excess after a relabeling, and its certificate re-validates
    on the relabeled graph."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 123456),
           st.sampled_from(P_SWEEP), st.integers(1, 3), st.data())
    def test_searches_under_relabeling(self, n, seed, p, k, data):
        g = seeded_random_graph(seed, n, p)
        perm = data.draw(st.permutations(range(n)))
        gb = infer_bipartition(g)
        for search, host in ((chen_violating_set, g), (kfc_search, g),
                             (plummer_violating_subset, gb)):
            if host is None:
                continue
            moved = _relabeled(host, perm)
            got = _relabel_invariant(search, moved, k)
            assert got == _relabel_invariant(search, host, k), search
            if got[0] is False:
                assert validate_certificate(moved, search(moved, k))

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
        "payload-not-a-dict": (C6, "HamCycle", [0, 1, 2, 3, 4, 5]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_false_never_raises(self, case):
        g, kind, payload = self.CASES[case]
        assert validate_certificate(g, Certificate(kind, payload)) is False
