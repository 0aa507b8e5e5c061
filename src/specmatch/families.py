"""Extremal family constructors, their spectral thresholds and structural
recognizers.

Canonical labeling: join/dominating classes come first, then the large
clique, then the independent class (general families); X1, Y1, X2, Y2 in
order for the bipartite overlay families. This keeps fixtures stable and
the recognizers degree-class based.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import (Graph, GraphError, SIDE_A, SIDE_B, bits, complete,
                    complete_bipartite, component_masks, disjoint_union,
                    empty, infer_bipartition, join, bipartite_join, mask_of,
                    remove_star)
from .spectra import QuotientMatrix

FAMILIES = ("kext-general", "kext-bipartite", "kfactor-bipartite",
            "kfc-general", "hamilton-bipartite")


@dataclass(frozen=True)
class FamilyParams:
    n: int
    k: int | None = None
    delta: int | None = None
    s: int | None = None


@dataclass(frozen=True)
class Threshold:
    rho_star: float


def threshold_F(k: int, delta: int) -> int:
    """Order threshold for the general extendability theorem."""
    if k < 1:
        raise GraphError("k must be >= 1")
    if delta < 2 * k:
        raise GraphError("threshold needs delta >= 2k")
    return max(8 * delta - 10 * k + 4,
               delta * (delta - 2 * k) ** 2 + delta - 1)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise GraphError(msg)


# -- constructors --------------------------------------------------------


def _join_family_graph(delta: int, a: int, t: int) -> Graph:
    """A delta-clique joined to an a-clique plus t isolated vertices, in
    canonical order."""
    return join(complete(delta), disjoint_union(complete(a), empty(t)))


def _overlay(n: int, k: int, s: int) -> Graph:
    """K_{s,s+k+1} overlaid on K_{n/2-s,n/2-s-k-1} (X1, Y1, X2, Y2); at
    s = 0, K_{n/2,n/2-k-1} plus k+1 isolated vertices."""
    return bipartite_join(complete_bipartite(s, s + k + 1),
                          complete_bipartite(n // 2 - s, n // 2 - s - k - 1))


def extremal_kext_general(n: int, k: int, delta: int) -> Graph:
    """Join of a delta-clique with (clique + independent set): the unique
    spectral maximizer among non-k-extendable graphs of minimum degree
    delta at orders above the threshold."""
    _require(k >= 1, f"k={k} violates k >= 1")
    _require(n % 2 == 0, f"n={n} violates even order")
    _require(delta >= 2 * k, f"delta={delta} violates delta >= 2k={2 * k}")
    a = n - 2 * delta + 2 * k - 1
    _require(a >= 1, f"n-2*delta+2k-1={a} violates >= 1")
    return _join_family_graph(delta, a, delta - 2 * k + 1)


def extremal_kext_bipartite(n: int, k: int, s: int) -> Graph:
    """Bipartite overlay of K_{s,s+k+1} onto K_{n/2-s,n/2-s-k-1}."""
    _require(k >= 1, f"k={k} violates k >= 1")
    _require(s >= 1, f"s={s} violates s >= 1")
    _require(n % 2 == 0, f"n={n} violates even order")
    q = n // 2 - s - k - 1
    _require(q >= 0, f"n/2-s-k-1={q} violates >= 0")
    return _overlay(n, k, s)


def extremal_kfactor(n: int, k: int) -> Graph:
    """Complete balanced bipartite graph minus a star: one vertex of
    degree k-1, so no k-regular spanning subgraph exists."""
    _require(n % 2 == 0, f"n={n} violates even order")
    _require(2 <= k <= n // 2 - 1,
             f"k={k} violates 2 <= k <= n/2-1={n // 2 - 1}")
    return remove_star(complete_bipartite(n // 2, n // 2),
                       center=0, leaf_count=n // 2 - k + 1)


def extremal_kfc(n: int, k: int, delta: int) -> Graph:
    """Join extremal family for k-factor-criticality."""
    _require(k >= 1, f"k={k} violates k >= 1")
    _require(n % 2 == k % 2, f"n={n} violates n = k (mod 2) for k={k}")
    _require(delta >= k, f"delta={delta} violates delta >= k={k}")
    bound = max(8 * delta - 5 * k + 4, delta * (delta - k) ** 2 + delta - 1)
    _require(n >= bound, f"n={n} violates n >= {bound}")
    a = n - 2 * delta + k - 1
    _require(a >= 1, f"n-2*delta+k-1={a} violates >= 1")
    return _join_family_graph(delta, a, delta - k + 1)


def extremal_hamilton(n: int) -> Graph:
    """Hamiltonicity extremal graph; identical to the k=2 factor family."""
    _require(n % 2 == 0 and n >= 8, f"n={n} violates even n >= 8")
    return extremal_kfactor(n, 2)


def construct_family(family: str, p: FamilyParams) -> Graph:
    if family == "kext-general":
        _require(p.k is not None and p.delta is not None,
                 "kext-general needs n, k, delta")
        return extremal_kext_general(p.n, p.k, p.delta)
    if family == "kext-bipartite":
        s = p.s if p.s is not None else p.delta
        _require(p.k is not None and s is not None,
                 "kext-bipartite needs n, k and s (or delta)")
        return extremal_kext_bipartite(p.n, p.k, s)
    if family == "kfactor-bipartite":
        _require(p.k is not None, "kfactor-bipartite needs n, k")
        return extremal_kfactor(p.n, p.k)
    if family == "kfc-general":
        _require(p.k is not None and p.delta is not None,
                 "kfc-general needs n, k, delta")
        return extremal_kfc(p.n, p.k, p.delta)
    if family == "hamilton-bipartite":
        return extremal_hamilton(p.n)
    raise GraphError(f"unknown family {family!r}")


# -- exact quotient matrices and thresholds ------------------------------


def _join_family_quotient(n: int, delta: int, a: int, t: int) -> QuotientMatrix:
    rows = ((delta - 1, a, t),
            (delta, a - 1, 0),
            (delta, 0, 0))
    return QuotientMatrix(rows, (delta, a, t))


def family_quotient(family: str, p: FamilyParams) -> QuotientMatrix:
    """The small exact quotient matrix of the family member (classes in
    canonical order)."""
    if family == "kext-general":
        a = p.n - 2 * p.delta + 2 * p.k - 1
        _require(a >= 1 and p.delta >= 2 * p.k and p.k >= 1,
                 "invalid kext-general parameters")
        return _join_family_quotient(p.n, p.delta, a, p.delta - 2 * p.k + 1)
    if family == "kfc-general":
        a = p.n - 2 * p.delta + p.k - 1
        _require(a >= 1 and p.delta >= p.k and p.k >= 1,
                 "invalid kfc-general parameters")
        return _join_family_quotient(p.n, p.delta, a, p.delta - p.k + 1)
    if family == "kext-bipartite":
        s = p.s if p.s is not None else p.delta
        half = p.n // 2
        pp = half - s
        q = half - s - p.k - 1
        _require(p.n % 2 == 0 and s >= 1 and q >= 0,
                 "invalid kext-bipartite parameters")
        rows = [(0, 0, s + p.k + 1, q),
                (0, 0, 0, q),
                (s, 0, 0, 0),
                (s, pp, 0, 0)]
        sizes = [s, pp, s + p.k + 1, q]
        if q == 0:
            rows = [r[:3] for r in rows[:3]]
            sizes = sizes[:3]
        return QuotientMatrix(tuple(tuple(r) for r in rows), tuple(sizes))
    if family in ("kfactor-bipartite", "hamilton-bipartite"):
        k = 2 if family == "hamilton-bipartite" else p.k
        half = p.n // 2
        _require(p.n % 2 == 0 and 2 <= k <= half - 1,
                 "invalid kfactor parameters")
        leaves = half - k + 1
        rows = ((0, 0, k - 1, 0),
                (0, 0, k - 1, leaves),
                (1, half - 1, 0, 0),
                (0, half - 1, 0, 0))
        return QuotientMatrix(rows, (1, half - 1, k - 1, leaves))
    raise GraphError(f"unknown family {family!r}")


def threshold_rho(family: str, p: FamilyParams) -> Threshold:
    """Spectral threshold of a family from its exact quotient."""
    return Threshold(rho_star=family_quotient(family, p).largest_eigenvalue())


# -- structural recognizers ----------------------------------------------


def _recognize_join_family(g: Graph, n: int, delta: int, a: int,
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


def _sides_or_inferred(g: Graph) -> Graph | None:
    return g if g.sides is not None else infer_bipartition(g)


def _recognize_kext_bipartite(g: Graph, n: int, k: int, s: int) -> bool:
    half = n // 2
    pp, q = half - s, half - s - k - 1
    if g.n != n or q < 0 or s < 1:
        return False
    gb = _sides_or_inferred(g)
    if gb is None:
        return False
    if q == 0:
        # overlay degenerates to K_{s,s+k+1} plus pp isolated vertices
        isolated = [v for v in range(n) if gb.degree(v) == 0]
        if len(isolated) != pp:
            return False
        core = gb.induced([v for v in range(n) if gb.degree(v) > 0])
        degs = sorted(core.degrees())
        if degs != sorted([s + k + 1] * s + [s] * (s + k + 1)):
            return False
        return core.m == s * (s + k + 1) and _is_complete_bipartite(core)
    side_a = gb.side_mask(SIDE_A)
    side_b = gb.side_mask(SIDE_B)
    for x_side, y_side in ((side_a, side_b), (side_b, side_a)):
        if _check_overlay(gb, x_side, y_side, half, k, s, pp, q):
            return True
    return False


def _check_overlay(g: Graph, x_side: int, y_side: int, half: int, k: int,
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


def _is_complete_bipartite(g: Graph) -> bool:
    gb = _sides_or_inferred(g)
    if gb is None:
        return False
    return gb.m == (gb.side_mask(SIDE_A).bit_count()
                    * gb.side_mask(SIDE_B).bit_count())


def _recognize_kfactor(g: Graph, n: int, k: int) -> bool:
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


def recognize(family: str, p: FamilyParams, g: Graph) -> bool:
    """Structural membership test; accepts exactly the family member for
    the given parameters, under any vertex labeling."""
    try:
        if family == "kext-general":
            a = p.n - 2 * p.delta + 2 * p.k - 1
            if a < 1 or p.delta < 2 * p.k or p.k < 1 or p.n % 2:
                return False
            return _recognize_join_family(g, p.n, p.delta, a,
                                          p.delta - 2 * p.k + 1)
        if family == "kfc-general":
            a = p.n - 2 * p.delta + p.k - 1
            if a < 1 or p.delta < p.k or p.k < 1:
                return False
            return _recognize_join_family(g, p.n, p.delta, a,
                                          p.delta - p.k + 1)
        if family == "kext-bipartite":
            s = p.s if p.s is not None else p.delta
            return _recognize_kext_bipartite(g, p.n, p.k, s)
        if family == "kfactor-bipartite":
            return _recognize_kfactor(g, p.n, p.k)
        if family == "hamilton-bipartite":
            return _recognize_kfactor(g, p.n, 2)
    except GraphError:
        return False
    raise GraphError(f"unknown family {family!r}")
