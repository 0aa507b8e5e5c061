"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Stated tolerances and sample counts are pinned here and must not be
loosened.
"""
import math
import time
from fractions import Fraction

import pytest

from specmatch.graph import complete, complete_bipartite, is_connected
from specmatch.spectra import (adjacency_matrix, degree_sum_identity,
                               fms_bound, full_spectrum, quotient,
                               refine_equitable, rho_dense, spectral_radius,
                               sqrt_m_bound)
from specmatch.matchfactor import (FactorSpec, decompose_edge_disjoint_pms,
                                   find_k_factor_flow, hamiltonian_cycle,
                                   has_f_factor_ore, is_k_extendable_chen,
                                   is_k_extendable_definitional,
                                   is_k_extendable_plummer,
                                   is_k_factor_critical, validate_certificate)
from specmatch.families import (FamilyParams, construct_family,
                                extremal_hamilton, extremal_kext_bipartite,
                                extremal_kext_general, extremal_kfactor,
                                extremal_kfc, family_quotient, threshold_F,
                                threshold_rho)
from specmatch.harness import (cmd_cross_check, cmd_verify, random_bipartite,
                               random_graph, random_regular_bipartite,
                               rng_for)

from conftest import charpoly_quartic, quartic_largest_root


def _report(num: int, detail: str) -> None:
    print(f"[acceptance] criterion {num}: PASS ({detail})")


def _assert_search_clean(report, tol: float) -> None:
    assert report.summary.get("counterexample-candidate", 0) == 0
    for row in report.rows:
        if isinstance(row["margin"], float) and row["margin"] >= -tol:
            assert row["extremal"] is True or row["verdict"] is True, row


def test_criterion_1_theorem_11_tightness():
    t0 = time.monotonic()
    for (n, k, delta) in ((10, 1, 2), (18, 1, 3), (16, 2, 4)):
        assert n == threshold_F(k, delta)
        g = extremal_kext_general(n, k, delta)
        chen_ok, cert = is_k_extendable_chen(g, k)
        defn_ok, _ = is_k_extendable_definitional(g, k)
        assert chen_ok is False and defn_ok is False
        assert validate_certificate(g, cert)
        q = family_quotient("kext-general",
                            FamilyParams(n=n, k=k, delta=delta))
        assert q.size == 3
        rho = spectral_radius(g).rho
        assert abs(rho - q.largest_eigenvalue()) <= 1e-8
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    _report(1, f"3 parameter triples, {elapsed:.1f}s")


def test_criterion_2_theorem_11_search():
    t0 = time.monotonic()
    tol = 1e-8
    report = cmd_verify("t1.1", FamilyParams(n=10, k=1, delta=2),
                        samples=10_000, seed=20240811, tol=tol)
    assert len(report.rows) == 10_001
    _assert_search_clean(report, tol)
    # adding any edge to this extremal graph raises its minimum degree, so
    # in-class samples sit below rho*; require near-threshold coverage
    near = sum(1 for r in report.rows[1:]
               if isinstance(r["margin"], float) and r["margin"] > -0.5)
    assert near > 100
    assert report.summary.get("extremal-hit", 0) >= 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _report(2, f"10000 samples, {near} within 0.5 of threshold, "
               f"0 counterexamples, {elapsed:.1f}s")


def test_criterion_3_theorem_12_tightness():
    coeffs = charpoly_quartic(10, 1, 1)
    assert coeffs == (Fraction(1), Fraction(-13), Fraction(24))
    root = quartic_largest_root(coeffs)
    g = extremal_kext_bipartite(10, 1, 1)
    assert abs(root - rho_dense(g)) <= 1e-8
    assert abs(root - spectral_radius(g).rho) <= 1e-8
    ok, cert = is_k_extendable_plummer(g, 1)
    assert ok is False
    assert len(cert.payload["subset"]) == 4
    assert len(cert.payload["neighborhood"]) == 2
    assert validate_certificate(g, cert)
    _report(3, "quartic x^4-13x^2+24 exact; root = rho; |X|=4, |N(X)|=2")


def test_criterion_4_lemma_26_monotonicity():
    t0 = time.monotonic()
    report = cmd_verify("l2.6", FamilyParams(n=0), samples=0, seed=0)
    cells = 0
    for row in report.rows:
        assert row["verdict"] is True, row
        assert row["margin"] > 1e-9
        cells += 1
    expected = sum(1 for k in range(1, 5) for s in range(1, 6)
                   for n in range(4 * s + 2 * k + 2, 41) if n % 2 == 0)
    assert cells == expected
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _report(4, f"{cells} grid cells, strict margins via quotient and dense "
               f"routes, {elapsed:.1f}s")


def test_criterion_5_theorem_13():
    t0 = time.monotonic()
    g = extremal_kfactor(8, 2)
    ore_ok, ore_cert = has_f_factor_ore(g, FactorSpec.constant(8, 2))
    flow_ok, flow_cert = find_k_factor_flow(g, 2)
    assert ore_ok is False and flow_ok is False
    assert ore_cert.payload["subset"] == [0]
    assert validate_certificate(g, ore_cert)
    assert validate_certificate(g, flow_cert)
    rho = spectral_radius(g).rho
    assert abs(rho - math.sqrt((13 + math.sqrt(133)) / 2)) <= 1e-6
    assert rho > math.sqrt(12)
    tol = 1e-8
    report = cmd_verify("t1.3", FamilyParams(n=8, k=2), samples=10_000,
                        seed=8128, tol=tol)
    assert len(report.rows) == 10_001
    _assert_search_clean(report, tol)
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _report(5, f"certificate X=[0]; rho = sqrt((13+sqrt(133))/2); "
               f"10000 samples clean, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_6_oracle_equivalence():
    t0 = time.monotonic()
    report = cmd_cross_check(8, samples=5_000, seed=61803,
                             bipartite_extra=2_000)
    assert report.summary["disagreements"] == 0
    assert report.summary["graphs"] >= 2 ** 15 + 10_000
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _report(6, f"{report.summary['graphs']} graphs, 0 disagreements, "
               f"{elapsed:.1f}s")


def test_criterion_7_decomposition():
    done = 0
    idx = 0
    while done < 100:
        rng = rng_for(11235, idx)
        idx += 1
        k = 1 + done % 5
        half = k + 1 + (done * 7) % (20 - k)
        h = random_regular_bipartite(rng, half, k)
        pms = decompose_edge_disjoint_pms(h)
        assert len(pms) == k
        seen = set()
        for m in pms:
            m.validate(h)
            assert m.size == half
            assert not seen & set(m.edges)
            seen |= set(m.edges)
        assert len(seen) == h.m
        done += 1
    _report(7, "100 random regular bipartite graphs decomposed")


def _family_grid_instances():
    cases = []
    for k in (1, 2):
        for delta in (2 * k, 2 * k + 1, 2 * k + 2):
            for n in (threshold_F(k, delta), 60, 120, 200):
                if n % 2 == 0 and n - 2 * delta + 2 * k - 1 >= 1:
                    cases.append(("kext-general",
                                  FamilyParams(n=n, k=k, delta=delta)))
    for k in (1, 2):
        for s in (1, 2, 3):
            for n in (4 * s + 2 * k + 2, 60, 120, 200):
                if n % 2 == 0 and n // 2 - s - k - 1 >= 0:
                    cases.append(("kext-bipartite",
                                  FamilyParams(n=n, k=k, delta=s)))
    for k in (2, 3, 7):
        for n in (8, 60, 120, 200):
            if 2 <= k <= n // 2 - 1:
                cases.append(("kfactor-bipartite", FamilyParams(n=n, k=k)))
    for (n, k, delta) in ((23, 1, 3), (60, 2, 4), (199, 1, 3)):
        cases.append(("kfc-general", FamilyParams(n=n, k=k, delta=delta)))
    for n in (8, 60, 200):
        cases.append(("hamilton-bipartite", FamilyParams(n=n)))
    return cases


def test_criterion_8_spectral_sanity():
    t0 = time.monotonic()
    for n in range(1, 51):
        assert abs(spectral_radius(complete(n)).rho - (n - 1)) <= 1e-10
    for p in range(1, 51):
        for q in range(p, 51):
            got = spectral_radius(complete_bipartite(p, q)).rho
            assert abs(got - math.sqrt(p * q)) <= 1e-10
    # equitable quotient spectra embed into the dense spectra
    instances = _family_grid_instances()
    assert any(p.n == 200 for _, p in instances)
    for family, p in instances:
        g = construct_family(family, p)
        q = quotient(g, refine_equitable(g))
        dense = full_spectrum(adjacency_matrix(g))
        for lam in q.eigenvalues():
            assert min(abs(dense - lam)) <= 1e-8, (family, p)
    # neighbor-degree-sum identity, exact integers
    for i in range(10_000):
        rng = rng_for(13, i)
        n = 1 + rng.randrange(14)
        g = random_graph(rng, n, 0.1 + 0.8 * rng.random())
        u = rng.randrange(n)
        lhs, rhs = degree_sum_identity(g, u)
        assert lhs == rhs
    # spectral bounds never violated
    fms_checked = sqrt_checked = 0
    i = 0
    while fms_checked < 5_000 or sqrt_checked < 5_000:
        rng = rng_for(17, i)
        i += 1
        if fms_checked < 5_000:
            g = random_graph(rng, 2 + rng.randrange(11), 0.2 + 0.7 * rng.random())
            if is_connected(g) and g.m:
                assert rho_dense(g) <= fms_bound(g)[0] + 1e-9
                fms_checked += 1
        if sqrt_checked < 5_000:
            h = random_bipartite(rng, 2 + rng.randrange(5),
                                 2 + rng.randrange(5),
                                 0.2 + 0.7 * rng.random())
            if h.m:
                assert rho_dense(h) <= sqrt_m_bound(h) + 1e-9
                sqrt_checked += 1
    elapsed = time.monotonic() - t0
    _report(8, f"{len(instances)} family instances to n=200; 10k identity "
               f"checks; 10k bound checks, {elapsed:.1f}s")


def test_criterion_9_lemma_sweeps():
    t0 = time.monotonic()
    for lemma in ("l2.2", "l2.3"):
        report = cmd_verify(lemma, FamilyParams(n=0), samples=0, seed=0)
        assert report.rows
        for row in report.rows:
            assert row["verdict"] is True, row
            assert row["margin"] > 1e-9
    elapsed = time.monotonic() - t0
    _report(9, f"both clique-union sweeps strict, {elapsed:.1f}s")


def test_criterion_10_theorems_43_45():
    t0 = time.monotonic()
    g = extremal_hamilton(8)
    assert hamiltonian_cycle(g)[0] is False
    thr = threshold_rho("hamilton-bipartite", FamilyParams(n=8))
    assert abs(spectral_radius(g).rho - thr.rho_star) <= 1e-8
    kfc = extremal_kfc(15, 1, 2)
    ok, cert = is_k_factor_critical(kfc, 1)
    assert ok is False
    assert cert.kind == "ViolatingSetS"
    assert validate_certificate(kfc, cert)
    tol = 1e-8
    r43 = cmd_verify("t4.3", FamilyParams(n=8), samples=1_000, seed=433,
                     tol=tol)
    _assert_search_clean(r43, tol)
    r45 = cmd_verify("t4.5", FamilyParams(n=15, k=1, delta=2),
                     samples=1_000, seed=455, tol=tol)
    _assert_search_clean(r45, tol)
    elapsed = time.monotonic() - t0
    _report(10, f"tightness + 2x1000 samples clean, {elapsed:.1f}s")
