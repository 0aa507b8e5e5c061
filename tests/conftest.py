"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately use different algorithms from the library
(plain recursion over edge lists, no memoization, no bit tricks beyond
vertex masks) so that test expectations are computed independently.
The reference checkers and the reference sampler at the end are the
exception: they keep the library's earlier always-exhaustive checkers and
its earlier Graph-per-draw sampler as differential baselines. ``path`` and
``isomorphic_small`` are graph helpers that only the tests use.
"""
from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest

from specmatch import harness as hz
from specmatch import matchfactor as mf
from specmatch.graph import (Graph, GraphError, SIDE_A, SIDE_B, bits,
                             from_edges, is_connected, mask_of)


def brute_max_matching_size(g: Graph) -> int:
    edges = g.edges()
    best = 0

    def rec(i: int, used: int, size: int):
        nonlocal best
        if size > best:
            best = size
        for j in range(i, len(edges)):
            u, v = edges[j]
            m = (1 << u) | (1 << v)
            if not used & m:
                rec(j + 1, used | m, size + 1)

    rec(0, 0, 0)
    return best


def brute_has_perfect_matching(g: Graph) -> bool:
    return g.n % 2 == 0 and 2 * brute_max_matching_size(g) == g.n


def brute_is_k_extendable(g: Graph, k: int) -> bool:
    """Direct transcription of the definition, no shortcuts."""
    if g.n % 2:
        return False
    edges = g.edges()
    k_matchings = []
    for combo in combinations(edges, k):
        used = 0
        ok = True
        for u, v in combo:
            m = (1 << u) | (1 << v)
            if used & m:
                ok = False
                break
            used |= m
        if ok:
            k_matchings.append((combo, used))
    if not k_matchings:
        return False
    for combo, used in k_matchings:
        rest = [v for v in range(g.n) if not (used >> v) & 1]
        if not brute_has_perfect_matching(g.induced(rest)):
            return False
    return True


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs at least 1 vertex")
    return from_edges(n, [(v, v + 1) for v in range(n - 1)])


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return from_edges(10, edges)


def seeded_random_graph(seed: int, n: int, p: float) -> Graph:
    rng = random.Random(seed)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, tuple(adj))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


ISO_LIMIT = 16


def isomorphic_small(g: Graph, h: Graph, limit: int = ISO_LIMIT) -> bool:
    """Exact isomorphism test by pruned backtracking; order <= ``limit``."""
    if g.n > limit or h.n > limit:
        raise GraphError(f"isomorphism test limited to n <= {limit}")
    if g.n != h.n or g.m != h.m:
        return False
    n = g.n

    def invariants(x: Graph) -> list[tuple[int, tuple[int, ...]]]:
        deg = x.degrees()
        return [(deg[v], tuple(sorted(deg[u] for u in bits(x.adj[v]))))
                for v in range(n)]

    gi, hi = invariants(g), invariants(h)
    if sorted(gi) != sorted(hi):
        return False
    # rarest invariant classes first
    freq = Counter(gi)
    order = sorted(range(n), key=lambda v: (freq[gi[v]], -gi[v][0], v))
    cand = [[w for w in range(n) if hi[w] == gi[v]] for v in order]
    mapping = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in cand[i]:
            if used[w]:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if g.has_edge(v, u) != h.has_edge(w, mapping[u]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    return extend(0)


# -- reference checkers ----------------------------------------------------
# The always-exhaustive checkers the library ran before it decided each
# verdict with one fast route: every call runs the full excess-maximal
# search, and Plummer and factor-criticality also run their second route and
# require agreement. Differential tests hold the library's verdicts and
# certificates to these. The one deliberate change is the unbalanced-sides
# neighborhood, which is the set N(larger side), not a multiset. The Chen
# and factor-criticality searches are also kept on their own
# (``ref_chen_violating_set``, ``ref_kfc_violating_set``): the scans of all
# 2^n vertex sets that the library's searches replaced.


def ref_chen_violating_set(g: Graph, k: int,
                           limit: int = mf.EXHAUSTIVE_LIMIT):
    mf._require_extendable_input(g, k)
    if g.n > limit:
        raise GraphError(f"criterion enumeration limited to n <= {limit}")
    if mf.max_matching(g, min(g.n, mf.GENERAL_MATCHING_LIMIT)).size < k:
        mm = mf.max_matching(g, mf.GENERAL_MATCHING_LIMIT)
        return mf.Certificate("FailingMatching", {
            "reason": "no-size-k-matching",
            "k": k,
            "max_matching": [list(e) for e in mm.edges],
        })
    n = g.n
    adj = g.adj
    full = g.full_mask()
    best_key = None
    best = None
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size < 2 * k or n - size <= size - 2 * k:
            continue
        o = mf._odd_components(adj, full & ~mask)
        excess = o - (size - 2 * k)
        if excess <= 0:
            continue
        if mf._k_disjoint_edges(adj, mask, k) is None:
            continue
        key = (-excess, tuple(bits(mask)))
        if best_key is None or key < best_key:
            best_key = key
            best = (mask, o)
    if best is None:
        return None
    mask, o = best
    witness = mf._k_disjoint_edges(adj, mask, k)
    return mf.Certificate("ViolatingSetS", {
        "criterion": "extendability",
        "k": k,
        "set": list(bits(mask)),
        "odd_components": o,
        "witness_edges": [sorted(e) for e in witness],
    })


def ref_is_k_extendable_chen(g: Graph, k: int,
                             limit: int = mf.EXHAUSTIVE_LIMIT):
    cert = ref_chen_violating_set(g, k, limit)
    return cert is None, cert


def _ref_plummer_enumerate(g: Graph, a_verts: list[int], k: int):
    q = len(a_verts)
    best_key = None
    best = None
    for r in range(1, q - k + 1):
        for comb in combinations(a_verts, r):
            nbh = mf._neighborhood_mask(g.adj, mask_of(comb))
            excess = (r + k) - nbh.bit_count()
            if excess <= 0:
                continue
            key = (-excess, comb)
            if best_key is None or key < best_key:
                best_key = key
                best = (comb, nbh)
    if best is None:
        return True, None
    comb, nbh = best
    return False, mf.Certificate("ViolatingSubsetX", {
        "criterion": "extendability",
        "k": k,
        "subset": list(comb),
        "neighborhood": list(bits(nbh)),
    })


def ref_is_k_extendable_plummer(g: Graph, k: int,
                                enum_limit: int = mf.EXHAUSTIVE_LIMIT):
    if g.sides is None:
        raise GraphError("criterion needs a bipartition")
    if k < 1:
        raise GraphError(
            "k must be >= 1; use has_perfect_matching for the base case")
    a_verts = g.side_vertices(SIDE_A)
    b_verts = g.side_vertices(SIDE_B)
    if len(a_verts) != len(b_verts):
        larger = a_verts if len(a_verts) > len(b_verts) else b_verts
        return False, mf.Certificate("ViolatingSubsetX", {
            "criterion": "extendability",
            "k": k,
            "reason": "unbalanced-sides",
            "side_sizes": [len(a_verts), len(b_verts)],
            "subset": larger,
            "neighborhood": sorted({w for v in larger
                                    for w in bits(g.adj[v])}),
        })
    q = len(a_verts)
    if q == 0:
        raise GraphError("empty graph")
    if k >= q:
        mm = mf.max_matching_bipartite(g)
        if k == q and mm.size == q:
            return True, None
        return False, mf.Certificate("FailingMatching", {
            "reason": "no-size-k-matching",
            "k": k,
            "max_matching": [list(e) for e in mm.edges],
        })
    verdict_s, cert_s = mf._plummer_surplus(g, a_verts, b_verts, k)
    if q <= enum_limit:
        verdict_e, cert_e = _ref_plummer_enumerate(g, a_verts, k)
        if verdict_e != verdict_s:
            raise RuntimeError(
                "internal: surplus and enumeration routes disagree")
        return verdict_e, cert_e
    return verdict_s, cert_s


def ref_kfc_violating_set(g: Graph, k: int,
                          limit: int = mf.EXHAUSTIVE_LIMIT):
    if k < 1:
        raise GraphError(
            "k must be >= 1; use has_perfect_matching for the base case")
    if g.n > limit:
        raise GraphError(f"criterion enumeration limited to n <= {limit}")
    if k > g.n:
        raise GraphError("k exceeds the order")
    n = g.n
    adj = g.adj
    full = g.full_mask()
    best_key = None
    best = None
    for mask in range(1 << n):
        size = mask.bit_count()
        if size < k or n - size <= size - k:
            continue
        o = mf._odd_components(adj, full & ~mask)
        excess = o - (size - k)
        if excess <= 0:
            continue
        key = (-excess, tuple(bits(mask)))
        if best_key is None or key < best_key:
            best_key = key
            best = (mask, o)
    if best is None:
        return None
    mask, o = best
    return mf.Certificate("ViolatingSetS", {
        "criterion": "factor-critical",
        "k": k,
        "set": list(bits(mask)),
        "odd_components": o,
    })


def ref_is_k_factor_critical(g: Graph, k: int,
                             limit: int = mf.EXHAUSTIVE_LIMIT):
    cert = ref_kfc_violating_set(g, k, limit)
    n = g.n
    adj = g.adj
    full = g.full_mask()
    memo: dict[int, int] = {}
    definitional = all(
        mf._has_pm_mask(adj, full ^ mask_of(comb), memo)
        for comb in combinations(range(n), k))
    criterion = cert is None and n % 2 == k % 2
    if criterion != definitional:
        raise RuntimeError(
            "internal: criterion and definitional routes disagree")
    if criterion:
        return True, None
    if cert is None:
        mask = mask_of(range(k))
        cert = mf.Certificate("ViolatingSetS", {
            "criterion": "factor-critical",
            "k": k,
            "set": list(range(k)),
            "odd_components": mf._odd_components(adj, full & ~mask),
        })
    return False, cert


# -- reference sampler -----------------------------------------------------
# The sampler the library ran before it drew adjacency rows: every draw and
# every perturbation edit is a validated Graph. The one addition is the exit
# label returned beside the sample ("draw", "perturb" or "extremal"), so a
# differential test can show that it reached all three exits.


def ref_random_graph(rng: random.Random, n: int, p: float) -> Graph:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def ref_random_bipartite(rng: random.Random, p_side: int, q_side: int,
                         prob: float) -> Graph:
    n = p_side + q_side
    adj = [0] * n
    for a in range(p_side):
        for b in range(p_side, n):
            if rng.random() < prob:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    sides = (SIDE_A,) * p_side + (SIDE_B,) * q_side
    return Graph(n, tuple(adj), sides)


def _ref_in_hypothesis_class(spec, g: Graph, delta: int | None) -> bool:
    if spec.requires_connected and not is_connected(g):
        return False
    if delta is not None and min(g.degrees()) != delta:
        return False
    return True


def _ref_perturb(rng: random.Random, base: Graph, edits: int) -> Graph:
    g = base
    for _ in range(edits):
        if base.sides is not None:
            a_side = base.side_vertices(SIDE_A)
            b_side = base.side_vertices(SIDE_B)
            u = a_side[rng.randrange(len(a_side))]
            v = b_side[rng.randrange(len(b_side))]
        else:
            u = rng.randrange(base.n)
            v = rng.randrange(base.n)
            while v == u:
                v = rng.randrange(base.n)
        g = g.with_edge_toggled(u, v)
    return g


def ref_sample_for_theorem(spec, p, extremal: Graph, rng: random.Random,
                           index: int) -> tuple[Graph, str]:
    delta = hz._theorem_delta(hz.THEOREMS[spec.name], p)
    half = p.n // 2

    def random_candidate(prob: float) -> Graph:
        if spec.bipartite:
            return ref_random_bipartite(rng, half, half, prob)
        return ref_random_graph(rng, p.n, prob)

    if index % 2 == 0:
        prob = hz.P_SWEEP[(index // 2) % len(hz.P_SWEEP)]
        for _ in range(hz.SAMPLE_ATTEMPTS):
            g = random_candidate(prob)
            if _ref_in_hypothesis_class(spec, g, delta):
                return g, "draw"
    for _ in range(hz.SAMPLE_ATTEMPTS):
        g = _ref_perturb(rng, extremal, 1 + rng.randrange(3))
        if _ref_in_hypothesis_class(spec, g, delta):
            return g, "perturb"
    return extremal, "extremal"
