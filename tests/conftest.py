"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately use different algorithms from the library
(plain recursion over edge lists, no memoization, no bit tricks beyond
vertex masks) so that test expectations are computed independently.
The reference checkers and the reference sampler at the end are the
exception: they keep the library's earlier always-exhaustive checkers, its
earlier Graph-per-draw sampler, its earlier matching routines (three
separate augmenting-path copies and the subset loop of Ore's criterion),
its earlier per-family recognizers, its earlier per-theorem hypotheses, and
its earlier power iteration, identity (13), FMS bound and graph6 decoder,
its earlier family graph builders and quotients, and its odd-set search
before the per-subtree Tutte-Berge bound as differential baselines.
``path`` and ``isomorphic_small`` are graph helpers that only the tests
use.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from functools import reduce
from itertools import combinations

import numpy as np
import pytest

from specmatch import harness as hz
from specmatch import matchfactor as mf
from specmatch import spectra as sp
from specmatch.graph import (Graph, GraphError, SIDE_A, SIDE_B,
                             bipartite_join, bits, complete,
                             complete_bipartite, component_masks,
                             disjoint_union, edge_counts, empty, from_edges,
                             infer_bipartition, is_connected, join, mask_of,
                             remove_star)


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
    if mf.max_matching(g).size < k:
        mm = mf.max_matching(g)
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
    verdict_s, cert_s = ref_plummer_surplus(g, a_verts, b_verts, k)
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


# -- reference odd-set search ----------------------------------------------
# The lexicographic branch and bound and the odd-component search before a
# subtree could be skipped by the Tutte-Berge bound on G-S: a subtree goes
# only when its smallest proper superset T, with o(G-T) <= n-|T|, cannot
# beat the best excess, and the ceiling's matching number is computed on
# its own. The Chen and factor-criticality searches on top of it
# (``ref_unpruned_chen_violating_set``, ``ref_unpruned_kfc_violating_set``)
# are the baseline the pruned searches must match certificate for
# certificate.


def _ref_lex_max_excess(verts, adj, excess, hopeless, ceiling):
    last = len(verts)
    best = 0
    best_set = None
    stop = None
    stack = [(0, 0, 1, 0)]
    while stack:
        i, mask, size, nbh = stack.pop()
        while i < last:
            v = verts[i]
            i += 1
            m = mask | 1 << v
            nb = nbh | adj[v]
            e = excess(m, size, nb, best)
            if e > best:
                best, best_set = e, (m, nb)
                if stop is None:
                    stop = ceiling()
                if e >= stop:
                    return best_set
            if i < last and not hopeless(size, nb, best):
                stack.append((i, mask, size, nbh))
                mask, size, nbh = m, size + 1, nb
    return best_set


def ref_odd_set_search(g: Graph, c: int, nu, spans=None):
    n = g.n
    adj = g.adj
    full = g.full_mask()

    def excess(mask, size, nbh, best):
        if size < c or n - 2 * size + c <= best:
            return 0
        e = mf._odd_components(adj, full ^ mask) - size + c
        if e > best and spans is not None and not spans(mask):
            return 0
        return e

    found = _ref_lex_max_excess(
        range(n), adj, excess,
        lambda size, nbh, best: n - 2 * (size + 1) + c <= best,
        lambda: n - 2 * nu() + c)
    return None if found is None else found[0]


def ref_unpruned_chen_violating_set(g: Graph, k: int,
                                    limit: int = mf.EXHAUSTIVE_LIMIT):
    mf._require_extendable_input(g, k)
    mf._require_enumerable(g.n, limit)
    mm = mf.max_matching(g)
    if mm.size < k:
        return mf._no_k_matching_certificate(k, mm)
    adj = g.adj
    mask = ref_odd_set_search(
        g, 2 * k, lambda: mm.size,
        lambda s: mf._k_disjoint_edges(adj, s, k) is not None)
    if mask is None:
        return None
    witness = mf._k_disjoint_edges(adj, mask, k)
    return mf._odd_set_certificate(g, "extendability", k, mask,
                                   witness_edges=[sorted(e) for e in witness])


def ref_unpruned_kfc_violating_set(g: Graph, k: int,
                                   limit: int = mf.EXHAUSTIVE_LIMIT):
    mf._require_kfc_input(g, k, limit)
    mask = ref_odd_set_search(g, k, lambda: mf.max_matching(g).size)
    if mask is None:
        return None
    return mf._odd_set_certificate(g, "factor-critical", k, mask)


# -- reference matching routines -------------------------------------------
# The library's matching routines before one augmenting-path function and
# one violating-set search served them all: each kept its own copy of Kuhn's
# augmenting path, and Ore's criterion ranked every subset of side A by its
# own sort key. Differential tests hold the library's outputs to these.


def ref_max_matching_bipartite(g: Graph) -> mf.Matching:
    if g.sides is None:
        raise GraphError("bipartite matching needs a bipartition")
    match = [-1] * g.n

    def augment(a: int, seen: set[int]) -> bool:
        for b in bits(g.adj[a]):
            if b in seen:
                continue
            seen.add(b)
            if match[b] == -1 or augment(match[b], seen):
                match[b] = a
                match[a] = b
                return True
        return False

    for a in range(g.n):
        if g.sides[a] == SIDE_A and match[a] == -1:
            augment(a, set())
    return mf.matching_of([(a, match[a]) for a in range(g.n)
                           if g.sides[a] == SIDE_A and match[a] != -1])


def _ref_subset_certificate(adj, k: int, x) -> mf.Certificate:
    nbh = mf._neighborhood_mask(adj, mask_of(x))
    return mf.Certificate("ViolatingSubsetX", {
        "criterion": "extendability",
        "k": k,
        "subset": sorted(x),
        "neighborhood": list(bits(nbh)),
    })


def ref_plummer_surplus(g: Graph, a_verts: list[int], b_verts: list[int],
                        k: int):
    q = len(a_verts)
    adj = g.adj
    for b in b_verts:
        if adj[b].bit_count() <= k:
            pool = [a for a in a_verts if not (adj[b] >> a) & 1]
            return False, _ref_subset_certificate(adj, k, pool[:q - k])
    for b in b_verts:
        a_pool = [a for a in a_verts if not (adj[b] >> a) & 1]
        for a in a_pool:
            bad = _ref_replicated_hall_failure(adj, a_pool, a, k)
            if bad is not None:
                return False, _ref_subset_certificate(adj, k, bad)
    return True, None


def _ref_replicated_hall_failure(adj, a_pool: list[int], special: int,
                                 k: int) -> list[int] | None:
    units = [a for a in a_pool] + [special] * k
    match_b: dict[int, int] = {}  # b vertex -> unit index

    def augment(i: int, seen: set[int]) -> bool:
        for b in bits(adj[units[i]]):
            if b in seen:
                continue
            seen.add(b)
            j = match_b.get(b)
            if j is None or augment(j, seen):
                match_b[b] = i
                return True
        return False

    for i in range(len(units)):
        seen: set[int] = set()
        if not augment(i, seen):
            deficient = {units[i]}
            for b in seen:
                deficient.add(units[match_b[b]])
            return sorted(deficient)
    return None


def ref_has_f_factor_ore(g: Graph, f, enum_limit: int = mf.EXHAUSTIVE_LIMIT):
    targets = mf._factor_targets(g, f)
    a_verts, b_verts = mf._ore_sides(g)
    sum_a = sum(targets[v] for v in a_verts)
    sum_b = sum(targets[v] for v in b_verts)
    if sum_a != sum_b:
        heavier = a_verts if sum_a > sum_b else b_verts
        return False, mf.Certificate("ViolatingSubsetX", {
            "criterion": "f-factor",
            "reason": "target-sum-mismatch",
            "sums": [sum_a, sum_b],
            "targets": list(targets),
            "subset": heavier,
            "neighborhood": [],
        })
    if len(a_verts) > enum_limit:
        raise GraphError(
            f"criterion enumeration limited to |A| <= {enum_limit}")
    adj = g.adj
    best_key = None
    best = None
    for r in range(1, len(a_verts) + 1):
        for comb in combinations(a_verts, r):
            x_mask = mask_of(comb)
            lhs = sum(targets[v] for v in comb)
            nbh = mf._neighborhood_mask(adj, x_mask)
            rhs = sum(min(targets[y], (adj[y] & x_mask).bit_count())
                      for y in bits(nbh))
            excess = lhs - rhs
            if excess <= 0:
                continue
            key = (-excess, comb)
            if best_key is None or key < best_key:
                best_key = key
                best = (comb, x_mask, lhs, rhs, nbh)
    if best is None:
        return True, None
    comb, x_mask, lhs, rhs, nbh = best
    y1, y2 = [], []
    for y in bits(nbh):
        d_x = (adj[y] & x_mask).bit_count()
        (y1 if d_x >= targets[y] else y2).append(y)
    return False, mf.Certificate("ViolatingSubsetX", {
        "criterion": "f-factor",
        "targets": list(targets),
        "subset": list(comb),
        "neighborhood": list(bits(nbh)),
        "lhs": lhs,
        "rhs": rhs,
        "y_saturated": y1,
        "y_deficient": y2,
    })


def ref_random_regular_bipartite(rng: random.Random, half: int,
                                 k: int) -> Graph:
    if k > half:
        raise hz.UsageError("regular degree exceeds side size")
    adj = [0] * (2 * half)
    for _ in range(k):
        prefs = []
        for a in range(half):
            free = [b for b in range(half, 2 * half)
                    if not (adj[a] >> b) & 1]
            rng.shuffle(free)
            prefs.append(free)
        order = list(range(half))
        rng.shuffle(order)
        match = [-1] * (2 * half)

        def augment(a: int, seen: set[int]) -> bool:
            for b in prefs[a]:
                if b in seen:
                    continue
                seen.add(b)
                if match[b] == -1 or augment(match[b], seen):
                    match[b] = a
                    match[a] = b
                    return True
            return False

        for a in order:
            if not augment(a, set()):
                raise hz.UsageError(
                    "internal: free graph lost its perfect matching")
        for a in range(half):
            b = match[a]
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return Graph(2 * half, tuple(adj), (SIDE_A,) * half + (SIDE_B,) * half)


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


def _ref_theorem_delta(spec, p) -> int | None:
    """The minimum degree a theorem pins: delta, for t1.1, t1.2 and t4.5."""
    if not spec.pins_min_degree:
        return None
    return p.delta


def ref_sample_for_theorem(spec, p, extremal: Graph, rng: random.Random,
                           index: int) -> tuple[Graph, str]:
    delta = _ref_theorem_delta(spec, p)
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


# -- reference recognizers -------------------------------------------------
# The library's family recognizers before one twin-class isomorphism test
# replaced them: a degree-class test per family, each behind its own
# parameter guard. Differential tests hold ``recognize`` to these on every
# parameter set that ``construct_family`` accepts.


def _ref_recognize_join_family(g: Graph, n: int, delta: int, a: int,
                               t: int) -> bool:
    if g.n != n or n != delta + a + t:
        return False
    expected_m = (delta * (delta - 1) // 2 + a * (a - 1) // 2
                  + delta * (a + t))
    if g.m != expected_m:
        return False
    deg = g.degrees()
    dominating = [v for v in range(n) if deg[v] == n - 1]
    if len(dominating) != delta:
        return False
    rest = [v for v in range(n) if deg[v] != n - 1]
    sub = g.induced(rest)
    comps = component_masks(sub)
    sizes = sorted(c.bit_count() for c in comps)
    if sizes != sorted([a] + [1] * t):
        return False
    for c in comps:
        cn = c.bit_count()
        inside = sum((sub.adj[v] & c).bit_count() for v in bits(c)) // 2
        if inside != cn * (cn - 1) // 2:
            return False
    return True


def _ref_sides_or_inferred(g: Graph) -> Graph | None:
    return g if g.sides is not None else infer_bipartition(g)


def _ref_recognize_kext_bipartite(g: Graph, n: int, k: int, s: int) -> bool:
    half = n // 2
    pp, q = half - s, half - s - k - 1
    if g.n != n or q < 0 or s < 1:
        return False
    gb = _ref_sides_or_inferred(g)
    if gb is None:
        return False
    if q == 0:
        isolated = [v for v in range(n) if gb.degree(v) == 0]
        if len(isolated) != pp:
            return False
        core = gb.induced([v for v in range(n) if gb.degree(v) > 0])
        degs = sorted(core.degrees())
        if degs != sorted([s + k + 1] * s + [s] * (s + k + 1)):
            return False
        return core.m == s * (s + k + 1) and _ref_is_complete_bipartite(core)
    side_a = gb.side_mask(SIDE_A)
    side_b = gb.side_mask(SIDE_B)
    for x_side, y_side in ((side_a, side_b), (side_b, side_a)):
        if _ref_check_overlay(gb, x_side, y_side, half, k, s, pp, q):
            return True
    return False


def _ref_check_overlay(g: Graph, x_side: int, y_side: int, half: int, k: int,
                       s: int, pp: int, q: int) -> bool:
    if x_side.bit_count() != half or y_side.bit_count() != half:
        return False
    x1 = [v for v in bits(x_side) if g.degree(v) == half]
    x2 = [v for v in bits(x_side) if g.degree(v) == q]
    y1 = [v for v in bits(y_side) if g.degree(v) == s]
    y2 = [v for v in bits(y_side) if g.degree(v) == half]
    if (len(x1), len(x2), len(y1), len(y2)) != (s, pp, s + k + 1, q):
        return False
    if len(x1) + len(x2) != half or len(y1) + len(y2) != half:
        return False
    y_all = mask_of(y1) | mask_of(y2)
    y2_mask = mask_of(y2)
    return (all(g.adj[v] == y_all for v in x1)
            and all(g.adj[v] == y2_mask for v in x2))


def _ref_is_complete_bipartite(g: Graph) -> bool:
    gb = _ref_sides_or_inferred(g)
    if gb is None:
        return False
    return gb.m == (gb.side_mask(SIDE_A).bit_count()
                    * gb.side_mask(SIDE_B).bit_count())


def _ref_recognize_kfactor(g: Graph, n: int, k: int) -> bool:
    half = n // 2
    if g.n != n or not 2 <= k <= half - 1:
        return False
    deg = g.degrees()
    low = [v for v in range(n) if deg[v] == k - 1]
    if len(low) != 1:
        return False
    u = low[0]
    nu = g.adj[u]
    if any(deg[v] != half for v in bits(nu)):
        return False
    b_rest = [v for v in range(n) if deg[v] == half - 1]
    if len(b_rest) != half - k + 1:
        return False
    b_mask = nu | mask_of(b_rest)
    if b_mask.bit_count() != half:
        return False
    a_rest = [v for v in range(n)
              if v != u and not (b_mask >> v) & 1]
    return all(g.adj[v] == b_mask for v in a_rest) and len(a_rest) == half - 1


def ref_recognize(family: str, p, g: Graph) -> bool:
    try:
        if family == "kext-general":
            a = p.n - 2 * p.delta + 2 * p.k - 1
            if a < 1 or p.delta < 2 * p.k or p.k < 1 or p.n % 2:
                return False
            return _ref_recognize_join_family(g, p.n, p.delta, a,
                                              p.delta - 2 * p.k + 1)
        if family == "kfc-general":
            a = p.n - 2 * p.delta + p.k - 1
            if a < 1 or p.delta < p.k or p.k < 1:
                return False
            return _ref_recognize_join_family(g, p.n, p.delta, a,
                                              p.delta - p.k + 1)
        if family == "kext-bipartite":
            return _ref_recognize_kext_bipartite(g, p.n, p.k, p.delta)
        if family == "kfactor-bipartite":
            return _ref_recognize_kfactor(g, p.n, p.k)
        if family == "hamilton-bipartite":
            return _ref_recognize_kfactor(g, p.n, 2)
    except GraphError:
        return False
    raise GraphError(f"unknown family {family!r}")


# -- reference hypotheses --------------------------------------------------
# The library's theorem hypotheses before they were read from the family
# definitions: one branch per theorem, each restating its family's
# conditions. ``validate_hypotheses`` must accept exactly what this accepts.


def ref_hypotheses_hold(name: str, p) -> bool:
    from specmatch.families import threshold_F
    if name == "t1.1":
        return (p.k is not None and p.delta is not None and p.k >= 1
                and p.delta >= 2 * p.k and p.n % 2 == 0
                and p.n >= threshold_F(p.k, p.delta))
    if name == "t1.2":
        s = p.delta
        return (p.k is not None and s is not None and p.n % 2 == 0
                and 1 <= p.k <= p.n // 2 - 1 and s >= 1
                and p.n // 2 - s - p.k - 1 >= 0
                and p.n >= 4 * s + 2 * p.k + 2)
    if name == "t1.3":
        return (p.k is not None and p.n % 2 == 0
                and 2 <= p.k <= p.n // 2 - 1)
    if name == "t4.3":
        return p.n % 2 == 0 and p.n >= 8
    if name == "t4.5":
        return (p.k is not None and p.delta is not None and p.k >= 1
                and p.delta >= p.k and p.n % 2 == p.k % 2
                and p.n >= max(8 * p.delta - 5 * p.k + 4,
                               p.delta * (p.delta - p.k) ** 2 + p.delta - 1))
    raise ValueError(name)


# -- reference family builders ---------------------------------------------
# Each family's hand-written graph builder and quotient from before the
# families became blow-up descriptions, built from the public graph
# constructors. Differential tests hold every description's graph and
# quotient to these, labels and class order included.


def ref_join_cliques(s: int, clique_sizes) -> Graph:
    return join(complete(s),
                reduce(disjoint_union, map(complete, clique_sizes), empty(0)))


def ref_join_cliques_quotient(s: int, clique_sizes) -> sp.QuotientMatrix:
    counts = sorted(Counter(clique_sizes).items(), reverse=True)
    rows = [tuple([s - 1] + [z * mult for z, mult in counts])]
    for i, (z, _) in enumerate(counts):
        row = [s] + [0] * len(counts)
        row[1 + i] = z - 1
        rows.append(tuple(row))
    return sp.QuotientMatrix(tuple(rows),
                             tuple([s] + [z * mult for z, mult in counts]))


def ref_overlay(n: int, k: int, s: int) -> Graph:
    return bipartite_join(complete_bipartite(s, s + k + 1),
                          complete_bipartite(n // 2 - s, n // 2 - s - k - 1))


def ref_overlay_quotient(n: int, k: int, s: int) -> sp.QuotientMatrix:
    half = n // 2
    q = half - s - k - 1
    rows = [(0, 0, s + k + 1, q), (0, 0, 0, q),
            (s, 0, 0, 0), (s, half - s, 0, 0)]
    c = 4 if q else 3
    return sp.QuotientMatrix(tuple(r[:c] for r in rows[:c]),
                             (s, half - s, s + k + 1, q)[:c])


def ref_minus_star(n: int, k: int) -> Graph:
    return remove_star(complete_bipartite(n // 2, n // 2),
                       center=0, leaf_count=n // 2 - k + 1)


def ref_minus_star_quotient(n: int, k: int) -> sp.QuotientMatrix:
    half = n // 2
    leaves = half - k + 1
    rows = ((0, 0, k - 1, 0), (0, 0, k - 1, leaves),
            (1, half - 1, 0, 0), (0, half - 1, 0, 0))
    return sp.QuotientMatrix(rows, (1, half - 1, k - 1, leaves))


def ref_family_member(family: str, p) -> tuple[Graph, sp.QuotientMatrix]:
    """The graph and quotient of the member at ``p``, which ``family``
    must accept."""
    if family in ("kext-general", "kfc-general"):
        c = 2 * p.k if family == "kext-general" else p.k
        args = (p.delta, [p.n - 2 * p.delta + c - 1]
                + [1] * (p.delta - c + 1))
        return ref_join_cliques(*args), ref_join_cliques_quotient(*args)
    if family == "kext-bipartite":
        args = (p.n, p.k, p.delta)
        return ref_overlay(*args), ref_overlay_quotient(*args)
    args = (p.n, 2 if family == "hamilton-bipartite" else p.k)
    return ref_minus_star(*args), ref_minus_star_quotient(*args)


# -- reference spectra and graph6 decoder ----------------------------------
# The library's power iteration, identity (13), FMS bound and graph6 decoder
# before the ``rho`` path was made faster: ``np.linalg.norm`` for the norm,
# an induced copy of every component, neighbor lists with ``edge_counts``,
# a generator over each row's neighbors, and a decode loop over single bits.
# Differential tests hold the library's results to these, float bits and
# error messages included.


def ref_power_iteration(a: np.ndarray, tol: float):
    n = a.shape[0]
    if n == 1:
        return 0.0, np.ones(1), 0.0, 0
    shift = float(a.sum(axis=1).max())
    x = np.full(n, 1.0 / math.sqrt(n))
    best = (0.0, x, math.inf)
    matvecs = 0
    while matvecs < sp.MAX_MATVECS:
        y = a @ x
        matvecs += 1
        z = y + shift * x
        norm = float(np.linalg.norm(z))
        if norm == 0.0:
            return 0.0, x, 0.0, matvecs
        x_next = z / norm
        if matvecs % sp.RESIDUAL_CHECK_EVERY == 0 or matvecs == 1:
            rho = float(x @ y)
            res = float(np.max(np.abs(y - rho * x)))
            if res < best[2]:
                best = (rho, x, res)
            if res <= tol:
                return rho, x, res, matvecs
        x = x_next
    raise sp.ConvergenceError("power iteration exceeded the budget", best[2])


def ref_spectral_radius(g: Graph, tol: float | None = None):
    if tol is None:
        tol = sp.default_tol(g.n)
    best_rho = -math.inf
    best = None
    total_matvecs = 0
    for comp in component_masks(g):
        verts = list(bits(comp))
        rho, x, res, mv = ref_power_iteration(
            sp.adjacency_matrix(g.induced(verts)), tol)
        total_matvecs += mv
        if rho > best_rho + tol:
            best_rho = rho
            best = (verts, x, res)
    verts, x, res = best
    perron = np.zeros(g.n)
    perron[verts] = x
    return sp.SpectralResult(rho=best_rho, perron=perron, residual=res,
                             tol=tol, matvecs=total_matvecs)


def ref_degree_sum_identity(g: Graph, u: int) -> tuple[int, int]:
    nbrs = list(bits(g.adj[u]))
    lhs = sum(g.degree(v) for v in nbrs)
    rest = [v for v in range(g.n) if v != u and not g.has_edge(u, v)]
    inside, cross = edge_counts(g, nbrs, rest)
    return lhs, g.degree(u) + 2 * inside + cross


def ref_fms_bound(g: Graph) -> tuple[float, int]:
    deg = g.degrees()
    best_val, best_v = -1, 0
    for v in range(g.n):
        r = sum(deg[u] for u in bits(g.adj[v]))
        if r > best_val:
            best_val, best_v = r, v
    return math.sqrt(best_val), best_v


def ref_graph6_decode(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise GraphError("empty graph6 string")
    vals = []
    for ch in s:
        o = ord(ch)
        if not 63 <= o <= 126:
            raise GraphError(f"malformed graph6 character {ch!r}")
        vals.append(o - 63)
    if vals[0] < 63:
        n = vals[0]
        body = vals[1:]
    else:
        if len(vals) >= 2 and vals[1] == 63:
            raise GraphError("graph6 long-long form not supported")
        if len(vals) < 4:
            raise GraphError("truncated graph6 header")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise GraphError(
            f"graph6 bit stream has {len(body)} chars, expected {need}")
    adj = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if (body[idx // 6] >> (5 - idx % 6)) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    if need and nbits % 6:
        pad = body[-1] & ((1 << (6 - nbits % 6)) - 1)
        if pad:
            raise GraphError("nonzero graph6 padding bits")
    return Graph(n, tuple(adj), None)
