import math
import random
from itertools import combinations

import pytest

from specmatch.graph import (Graph, GraphError, bits, graph6_encode,
                             from_edges, infer_bipartition, is_connected)
from specmatch.spectra import (Partition, largest_eigenvalues, quotient,
                               rho_dense)
from specmatch.matchfactor import (find_k_factor_flow, hamiltonian_cycle,
                                   has_f_factor_ore, FactorSpec,
                                   is_k_extendable_chen,
                                   is_k_extendable_plummer,
                                   is_k_factor_critical)
from specmatch.families import (FAMILIES, READS, FamilyParams,
                                construct_family, extremal_hamilton,
                                extremal_kext_bipartite,
                                extremal_kext_general, extremal_kfactor,
                                extremal_kfc, family_quotient, member,
                                overlay, recognize, threshold_F,
                                threshold_rho)
from specmatch.harness import (LEMMA_MAX_N, THEOREMS, _cells_22, _cells_23,
                               rng_for, sample_for_theorem)

from conftest import (charpoly_quartic, isomorphic_small,
                      quartic_largest_root, ref_family_member,
                      ref_join_cliques_quotient, ref_largest_eigenvalue,
                      ref_overlay, ref_recognize)


def relabel(g, seed=0):
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestThresholdF:
    def test_values(self):
        assert threshold_F(1, 2) == 10
        assert threshold_F(1, 3) == 18
        assert threshold_F(2, 4) == 16

    def test_contract(self):
        with pytest.raises(GraphError):
            threshold_F(1, 1)


class TestConstructors:
    def test_kext_general(self):
        g = extremal_kext_general(10, 1, 2)
        assert g.n == 10 and min(g.degrees()) == 2 and is_connected(g)
        h = extremal_kext_general(16, 2, 4)
        # delta - 2k + 1 = 1 isolated-class vertex of degree delta
        assert sorted(h.degrees()).count(4) == 1
        b = extremal_kext_general(12, 1, 2)  # boundary delta = 2k
        assert sorted(b.degrees())[0] == 2

    def test_kext_general_errors(self):
        with pytest.raises(GraphError):
            extremal_kext_general(11, 1, 2)
        with pytest.raises(GraphError):
            extremal_kext_general(10, 1, 1)
        with pytest.raises(GraphError):
            extremal_kext_general(6, 1, 4)  # n-2*delta+2k-1 < 1

    def test_kext_bipartite(self):
        g = extremal_kext_bipartite(10, 1, 1)
        assert g.m == 13
        h = extremal_kext_bipartite(16, 2, 2)
        # K_{2,5} overlaid on K_{6,3}
        assert h.m == 2 * 5 + 6 * 3 + 2 * 3
        degenerate = extremal_kext_bipartite(8, 1, 2)  # right part empty
        assert not is_connected(degenerate)

    def test_kfactor(self):
        g = extremal_kfactor(8, 2)
        a_deg = sorted(g.degree(v) for v in range(4))
        b_deg = sorted(g.degree(v) for v in range(4, 8))
        assert a_deg == [1, 4, 4, 4] and b_deg == [3, 3, 3, 4]
        assert extremal_kfactor(10, 2).m == 21
        edge_case = extremal_kfactor(10, 4)  # k = n/2 - 1: two edges removed
        assert edge_case.m == 25 - 2
        with pytest.raises(GraphError):
            extremal_kfactor(8, 4)

    def test_kfc(self):
        g = extremal_kfc(15, 1, 2)
        assert g.n == 15 and min(g.degrees()) == 2
        # join clique 2 + big clique 11 + 2 independents
        assert sorted(g.degrees())[:2] == [2, 2]
        assert g.m == 1 + 55 + 2 * 13
        with pytest.raises(GraphError):
            extremal_kfc(16, 1, 2)  # parity

    def test_hamilton(self):
        h, f = extremal_hamilton(8), extremal_kfactor(8, 2)
        assert (h.n, h.adj) == (f.n, f.adj)
        assert extremal_hamilton(8).m == 13
        with pytest.raises(GraphError):
            extremal_hamilton(6)

    def test_dispatcher(self):
        g = construct_family("kext-general",
                             FamilyParams(n=10, k=1, delta=2))
        assert g.n == 10
        with pytest.raises(GraphError):
            construct_family("nope", FamilyParams(n=4))


class TestThresholdRho:
    def test_factor_family_closed_form(self):
        thr = threshold_rho("kfactor-bipartite", FamilyParams(n=8, k=2))
        want = math.sqrt((13 + math.sqrt(133)) / 2)
        assert abs(thr.rho_star - want) <= 1e-10

    def test_overlay_quartic(self):
        thr = threshold_rho("kext-bipartite", FamilyParams(n=10, k=1, delta=1))
        want = quartic_largest_root(charpoly_quartic(10, 1, 1))
        assert abs(thr.rho_star - want) <= 1e-10

    def test_quotient_matches_dense(self):
        cases = [
            ("kext-general", FamilyParams(n=12, k=1, delta=2)),
            ("kext-general", FamilyParams(n=20, k=2, delta=5)),
            ("kext-bipartite", FamilyParams(n=12, k=1, delta=2)),
            ("kfactor-bipartite", FamilyParams(n=14, k=3)),
            ("kfc-general", FamilyParams(n=23, k=1, delta=3)),
            ("hamilton-bipartite", FamilyParams(n=10)),
        ]
        for family, p in cases:
            thr = threshold_rho(family, p)
            g = construct_family(family, p)
            assert abs(thr.rho_star - rho_dense(g)) <= 1e-8, family

    def test_join_family_lower_bound(self):
        # the join family dominates its big clique: rho* > n-delta+2k-2
        for (n, k, d) in ((10, 1, 2), (16, 2, 4), (26, 1, 4)):
            thr = threshold_rho("kext-general",
                                FamilyParams(n=n, k=k, delta=d))
            assert thr.rho_star > n - d + 2 * k - 2

    def test_hamilton_exceeds_near_balanced_bound(self):
        for n in range(8, 42, 2):
            thr = threshold_rho("hamilton-bipartite", FamilyParams(n=n))
            assert thr.rho_star > math.sqrt((n / 2) * (n / 2 - 1))


class TestRecognize:
    CASES = [
        ("kext-general", FamilyParams(n=10, k=1, delta=2)),
        ("kext-general", FamilyParams(n=12, k=1, delta=3)),
        ("kext-general", FamilyParams(n=16, k=2, delta=4)),
        ("kext-bipartite", FamilyParams(n=10, k=1, delta=1)),
        ("kext-bipartite", FamilyParams(n=16, k=2, delta=2)),
        ("kfactor-bipartite", FamilyParams(n=8, k=2)),
        ("kfactor-bipartite", FamilyParams(n=12, k=4)),
        ("kfc-general", FamilyParams(n=15, k=1, delta=2)),
        ("hamilton-bipartite", FamilyParams(n=10)),
    ]

    def test_accepts_construction(self):
        for family, p in self.CASES:
            g = construct_family(family, p)
            assert recognize(family, p, g), family

    def test_invariant_under_relabeling(self):
        for i, (family, p) in enumerate(self.CASES):
            g = relabel(construct_family(family, p), seed=i)
            assert recognize(family, p, g), family

    def test_rejects_perturbations(self):
        for family, p in self.CASES:
            g = construct_family(family, p)
            mutated = None
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if not g.has_edge(u, v):
                        if g.side_a is not None and not (
                                g.side_a >> u ^ g.side_a >> v) & 1:
                            continue
                        mutated = g.with_edge_toggled(u, v)
                        break
                if mutated is not None:
                    break
            assert mutated is not None
            assert not recognize(family, p, mutated), family

    def test_rejects_wrong_params(self):
        g = construct_family("kext-general", FamilyParams(n=10, k=1, delta=2))
        assert not recognize("kext-general",
                             FamilyParams(n=10, k=1, delta=3), g)
        assert not recognize("kfactor-bipartite", FamilyParams(n=8, k=2),
                             extremal_kfactor(8, 3))

    def test_agrees_with_isomorphism(self):
        for i, (family, p) in enumerate(self.CASES):
            if p.n > 12:
                continue
            g = construct_family(family, p)
            h = relabel(g, seed=100 + i)
            assert isomorphic_small(g.drop_bipartition(), h)
            assert recognize(family, p, h)


class TestFamiliesFailTheirProperty:
    def test_kext_general_not_extendable(self):
        for (n, k, d) in ((10, 1, 2), (12, 1, 3), (16, 2, 4), (18, 1, 4)):
            g = extremal_kext_general(n, k, d)
            assert not is_k_extendable_chen(g, k)[0]
            assert not is_k_extendable_definitional_safe(g, k)

    def test_kext_bipartite_not_extendable(self):
        for (n, k, s) in ((10, 1, 1), (12, 1, 2), (16, 2, 2), (18, 3, 1)):
            g = extremal_kext_bipartite(n, k, s)
            assert not is_k_extendable_plummer(g, k)[0]

    def test_kfactor_has_no_factor(self):
        for (n, k) in ((8, 2), (10, 2), (12, 3), (16, 5)):
            g = extremal_kfactor(n, k)
            assert not has_f_factor_ore(g, FactorSpec.constant(n, k))[0]
            assert not find_k_factor_flow(g, k)[0]

    def test_kfc_not_critical(self):
        g = extremal_kfc(15, 1, 2)
        assert not is_k_factor_critical(g, 1)[0]

    def test_hamilton_not_hamiltonian(self):
        for n in (8, 10, 12):
            assert not hamiltonian_cycle(extremal_hamilton(n))[0]


def is_k_extendable_definitional_safe(g, k):
    from specmatch.matchfactor import is_k_extendable_definitional
    return is_k_extendable_definitional(g, k)[0]


class TestQuotientShapes:
    def test_family_quotient_matches_refinement(self):
        from specmatch.spectra import quotient, refine_equitable
        for family, p in TestRecognize.CASES:
            g = construct_family(family, p)
            analytic = family_quotient(family, p)
            refined = quotient(g, refine_equitable(g))
            assert abs(analytic.largest_eigenvalue()
                       - refined.largest_eigenvalue()) <= 1e-10, family
            # the description's classes are an equitable partition of its
            # graph, with exactly the description's quotient
            classes = Partition.of(bits(mask) for mask
                                   in member(family, p).masks() if mask)
            assert quotient(g, classes) == analytic, family


def _param_grid(orders):
    """(family, params, accepted) for every family over small parameters,
    with only the fields the family reads set; accepted means
    ``construct_family`` takes the parameters."""
    grid = []
    for n in orders:
        grid.append(("hamilton-bipartite", FamilyParams(n=n)))
        for k in range(-1, 6):
            grid.append(("kfactor-bipartite", FamilyParams(n=n, k=k)))
            for d in range(-1, 9):
                grid += [("kext-general", FamilyParams(n=n, k=k, delta=d)),
                         ("kfc-general", FamilyParams(n=n, k=k, delta=d)),
                         ("kext-bipartite",
                          FamilyParams(n=n, k=k, delta=d))]
    out = []
    for family, p in grid:
        try:
            construct_family(family, p)
        except GraphError:
            out.append((family, p, False))
        else:
            out.append((family, p, True))
    return out


class TestBlowUpReference:
    """Each description gives the graph and the quotient of the builders
    it replaced (``conftest.ref_family_member``), labels, sides and class
    order included, so rho* keeps its bits."""

    def test_family_members(self):
        quotients, thresholds = [], []
        for family, p, accepted in _param_grid(range(0, 61)):
            if not accepted:
                continue
            g, q = construct_family(family, p), family_quotient(family, p)
            ref_g, ref_q = ref_family_member(family, p)
            assert (g.n, g.adj, g.side_a) == (ref_g.n, ref_g.adj,
                                              ref_g.side_a), (family, p)
            assert q == ref_q, (family, p)
            quotients.append(q)
            thresholds.append(threshold_rho(family, p).rho_star)
        assert len(quotients) == 1770
        # every threshold, alone and in one stacked batch, is the scalar
        # symmetrization's float
        ref = [ref_largest_eigenvalue(q) for q in quotients]
        assert thresholds == ref
        assert largest_eigenvalues(quotients) == ref

    def test_lemma_22_23_quotients(self):
        # every lhs and every distinct rhs of the l2.2 and l2.3 sweeps
        sides = sorted({side for cells in (_cells_22(), _cells_23())
                        for _, *pair in cells for side in pair})
        assert len(sides) > 25_000
        quotients = [side.quotient() for side in sides]
        for side, q in zip(sides, quotients):
            # the s-clique, then each clique size as often as it occurs
            (s, _), *cliques = side.classes
            sizes = [z for z, copies in cliques for _ in range(copies)]
            assert q == ref_join_cliques_quotient(s, sizes), side
        assert largest_eigenvalues(quotients) == [
            ref_largest_eigenvalue(q) for q in quotients]

    def test_lemma_26_overlays(self):
        for k in range(1, 5):
            for s in range(1, 6):
                for n in range(4 * s + 2 * k + 2, LEMMA_MAX_N + 1, 2):
                    g, ref = overlay(n, k, s - 1).graph(), ref_overlay(
                        n, k, s - 1)
                    assert (g.n, g.adj, g.side_a) == (ref.n, ref.adj,
                                                      ref.side_a), (n, k, s)


class TestFamilyTable:
    def test_members_read_only_their_fields(self):
        # setting the fields a family does not read changes nothing
        assert set(READS) == set(FAMILIES)
        junk = {"k": 99, "delta": 99}
        for family, p, accepted in _param_grid(range(0, 30)):
            noisy = FamilyParams(p.n, **{f: junk[f] for f in junk
                                         if f not in READS[family]},
                                 **{f: getattr(p, f) for f in READS[family]})
            try:
                got = member(family, noisy)
            except GraphError:
                assert not accepted, (family, p)
            else:
                assert accepted and got == member(family, p), (family, p)

    @pytest.mark.parametrize("family, params, err", [
        ("kext-general", FamilyParams(10, k=1),
         "kext-general needs n, k, delta"),
        ("kext-bipartite", FamilyParams(10, delta=2),
         "kext-bipartite needs n, k, delta"),
        ("kfactor-bipartite", FamilyParams(10, delta=2),
         "kfactor-bipartite needs n, k"),
        ("kfc-general", FamilyParams(10),
         "kfc-general needs n, k, delta"),
        ("kfc-genera", FamilyParams(10), "unknown family 'kfc-genera'"),
    ])
    def test_missing_parameter_messages(self, family, params, err):
        with pytest.raises(GraphError) as info:
            member(family, params)
        assert str(info.value) == err

    def test_kfc_at_2_is_kext_at_1(self):
        # both join a delta-clique to the same cliques (c = 2), so wherever
        # both accept they are one graph with one rho*
        both = 0
        for n in range(80):
            for d in range(12):
                kfc = FamilyParams(n=n, k=2, delta=d)
                kext = FamilyParams(n=n, k=1, delta=d)
                try:
                    a = construct_family("kfc-general", kfc)
                    b = construct_family("kext-general", kext)
                except GraphError:
                    continue
                assert (a.n, a.adj) == (b.n, b.adj), (n, d)
                assert (threshold_rho("kfc-general", kfc).rho_star
                        == threshold_rho("kext-general", kext).rho_star)
                both += 1
        assert both == 108


class TestOneOwner:
    """Only the family definitions decide whether a member exists: the
    quotient and the threshold raise exactly where the constructor does."""

    def test_quotient_raises_exactly_when_constructor_does(self):
        grid = _param_grid(range(-2, 60))
        # fields left unset
        for family in ("kext-general", "kext-bipartite", "kfactor-bipartite",
                       "kfc-general"):
            for n, k, d in ((16, None, 3), (16, 1, None), (16, None, None),
                            (23, 1, None), (23, None, 3)):
                p = FamilyParams(n=n, k=k, delta=d)
                try:
                    construct_family(family, p)
                except GraphError:
                    grid.append((family, p, False))
                else:
                    grid.append((family, p, True))
        assert 0 < sum(accepted for *_, accepted in grid) < len(grid)
        for family, p, accepted in grid:
            for route in (family_quotient, threshold_rho):
                try:
                    route(family, p)
                except GraphError:
                    got = False
                else:
                    got = True
                assert got == accepted, (route.__name__, family, p)


def _all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if (mask >> i) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        yield Graph(n, tuple(adj))


def _with_bipartition(g):
    """g, and g with its inferred bipartition when it has one."""
    gb = infer_bipartition(g)
    return (g,) if gb is None else (g, gb)


class TestRecognizeReference:
    """``recognize`` against the per-family recognizers it replaced
    (``ref_recognize``): the same answer wherever a family member exists,
    and False wherever none does."""

    def test_every_small_graph(self):
        grid = _param_grid(range(1, 7))
        by_order = {}
        for family, p, accepted in grid:
            if accepted:
                by_order.setdefault(p.n, []).append((family, p))
        assert {f for cases in by_order.values() for f, _ in cases} == {
            "kext-general", "kext-bipartite", "kfactor-bipartite"}
        hits = 0
        for n, cases in by_order.items():
            for g in _all_graphs(n):
                for h in _with_bipartition(g):
                    for family, p in cases:
                        got = recognize(family, p, h)
                        assert got == ref_recognize(family, p, h), (
                            family, p, graph6_encode(h))
                        hits += got
        assert hits > 0

    def test_members_exactly_when_constructed(self):
        grid = _param_grid(range(1, 25))
        members = {}
        for family, p, accepted in grid:
            if accepted:
                g = construct_family(family, p)
                members.setdefault(p.n, []).append(g)
                for h in (g, relabel(g, seed=p.n),
                          infer_bipartition(relabel(g, seed=p.n))):
                    if h is not None:
                        assert recognize(family, p, h), (family, p)
                        assert ref_recognize(family, p, h), (family, p)
        assert len(members) > 10
        # no member: nothing of that order is recognized, not even
        # another family's member
        for family, p, accepted in grid:
            if not accepted:
                for g in members.get(p.n, []):
                    assert not recognize(family, p, g), (family, p)

    @pytest.mark.parametrize("theorem, p", [
        ("t1.1", FamilyParams(n=10, k=1, delta=2)),
        ("t1.1", FamilyParams(n=18, k=1, delta=3)),
        ("t1.2", FamilyParams(n=10, k=1, delta=1)),
        ("t1.2", FamilyParams(n=16, k=1, delta=2)),
        ("t1.3", FamilyParams(n=8, k=2)),
        ("t1.3", FamilyParams(n=10, k=3)),
        ("t4.3", FamilyParams(n=8)),
        ("t4.3", FamilyParams(n=10)),
        ("t4.5", FamilyParams(n=15, k=1, delta=2)),
    ])
    def test_near_extremal(self, theorem, p):
        # the extremal graph, a sampler stream, every single toggle and
        # seeded double toggles of the extremal graph, each also relabeled
        spec = THEOREMS[theorem]
        extremal = construct_family(spec.family, p)
        graphs = [extremal] + [
            sample_for_theorem(spec, p, extremal, rng_for(11, i), i)
            for i in range(120)]
        base = extremal.drop_bipartition()
        pairs = list(combinations(range(base.n), 2))
        graphs += [base.with_edge_toggled(u, v) for u, v in pairs]
        rng = random.Random(len(pairs))
        for _ in range(200):
            (a, b), (c, d) = rng.sample(pairs, 2)
            graphs.append(base.with_edge_toggled(a, b).with_edge_toggled(c, d))
        hits = 0
        for i, g in enumerate(graphs):
            for h in (g,) + _with_bipartition(relabel(g, seed=i)):
                got = recognize(spec.family, p, h)
                assert got == ref_recognize(spec.family, p, h), (
                    graph6_encode(h))
                hits += got
        assert 0 < hits < len(graphs)
