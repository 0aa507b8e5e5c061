"""Extremal family constructors, their spectral thresholds and one
recognizer for all of them.

This module alone decides each family's admissibility (``member_args``),
sizes (``join_sizes``) and bounds (``_order_bound``); graphs, quotients,
thresholds and the recognizer all read them, and a theorem adds only its
least order.

Canonical labeling: join/dominating classes come first, then the large
clique, then the independent class (general families); X1, Y1, X2, Y2 in
order for the bipartite overlay families. This keeps fixtures stable and
fixes the class order of the exact quotients, on which the bytes of rho*
depend. ``recognize`` ignores the labeling: it compares the twin-class form
of a graph with the form of the constructed family member, which is an
exact isomorphism test.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import permutations
from typing import Sequence

from .graph import (Graph, GraphError, complete, complete_bipartite,
                    disjoint_union, empty, join, bipartite_join, remove_star)
from .spectra import QuotientMatrix


@dataclass(frozen=True)
class FamilyParams:
    n: int
    k: int | None = None
    delta: int | None = None
    s: int | None = None

    @property
    def overlay_s(self) -> int | None:
        """The overlay parameter s of ``kext-bipartite``, which is also
        t1.2's minimum degree: ``s`` when set, else ``delta``."""
        return self.s if self.s is not None else self.delta


@dataclass(frozen=True)
class Threshold:
    rho_star: float


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise GraphError(msg)


def _order_bound(c: int, delta: int) -> int:
    """max(8*delta-5c+4, delta*(delta-c)^2+delta-1): F(k, delta) at c = 2k,
    the kfc-general order bound at c = k."""
    return max(8 * delta - 5 * c + 4, delta * (delta - c) ** 2 + delta - 1)


def threshold_F(k: int, delta: int) -> int:
    """Order threshold for the general extendability theorem."""
    _require(k >= 1, "k must be >= 1")
    _require(delta >= 2 * k, "threshold needs delta >= 2k")
    return _order_bound(2 * k, delta)


def join_sizes(n: int, c: int, delta: int) -> list[int]:
    """Clique sizes under the delta-clique of a join family member: one of
    n-2*delta+c-1, then delta-c+1 singles; c = 2k (kext) or k (kfc)."""
    return [n - 2 * delta + c - 1] + [1] * (delta - c + 1)


def member_args(family: str, p: FamilyParams) -> tuple:
    """The arguments of the family's graph and quotient builders at ``p``.

    The one place that decides whether ``family`` has a member at ``p``:
    raises GraphError naming the first violated condition."""
    n, k, delta = p.n, p.k, p.delta
    if family == "kext-general":
        _require(k is not None and delta is not None,
                 "kext-general needs n, k, delta")
        _require(k >= 1, f"k={k} violates k >= 1")
        _require(n % 2 == 0, f"n={n} violates even order")
        _require(delta >= 2 * k,
                 f"delta={delta} violates delta >= 2k={2 * k}")
        sizes = join_sizes(n, 2 * k, delta)
        _require(sizes[0] >= 1, f"n-2*delta+2k-1={sizes[0]} violates >= 1")
        return delta, sizes
    if family == "kext-bipartite":
        s = p.overlay_s
        _require(k is not None and s is not None,
                 "kext-bipartite needs n, k and s (or delta)")
        _require(k >= 1, f"k={k} violates k >= 1")
        _require(s >= 1, f"s={s} violates s >= 1")
        _require(n % 2 == 0, f"n={n} violates even order")
        q = n // 2 - s - k - 1
        _require(q >= 0, f"n/2-s-k-1={q} violates >= 0")
        return n, k, s
    if family == "kfactor-bipartite":
        _require(k is not None, "kfactor-bipartite needs n, k")
        _require(n % 2 == 0, f"n={n} violates even order")
        _require(2 <= k <= n // 2 - 1,
                 f"k={k} violates 2 <= k <= n/2-1={n // 2 - 1}")
        return n, k
    if family == "kfc-general":
        _require(k is not None and delta is not None,
                 "kfc-general needs n, k, delta")
        _require(k >= 1, f"k={k} violates k >= 1")
        _require(n % 2 == k % 2, f"n={n} violates n = k (mod 2) for k={k}")
        _require(delta >= k, f"delta={delta} violates delta >= k={k}")
        bound = _order_bound(k, delta)
        # n >= bound also keeps the large clique nonempty
        _require(n >= bound, f"n={n} violates n >= {bound}")
        return delta, join_sizes(n, k, delta)
    if family == "hamilton-bipartite":
        # the k = 2 member of kfactor-bipartite
        _require(n % 2 == 0 and n >= 8, f"n={n} violates even n >= 8")
        return n, 2
    raise GraphError(f"unknown family {family!r}")


# -- graph and quotient builders -----------------------------------------


def join_cliques(s: int, clique_sizes: Sequence[int]) -> Graph:
    """An s-clique joined to the disjoint union of cliques of the given
    sizes, labeled in that order."""
    return join(complete(s),
                reduce(disjoint_union, map(complete, clique_sizes), empty(0)))


def join_cliques_quotient(s: int,
                          clique_sizes: Sequence[int]) -> QuotientMatrix:
    """Exact quotient of ``join_cliques(s, clique_sizes)``: the s-clique,
    then one class per clique size, largest first; equal-size cliques
    share a class."""
    counts = sorted(Counter(clique_sizes).items(), reverse=True)
    rows = [tuple([s - 1] + [z * mult for z, mult in counts])]
    for i, (z, _) in enumerate(counts):
        row = [s] + [0] * len(counts)
        row[1 + i] = z - 1
        rows.append(tuple(row))
    return QuotientMatrix(tuple(rows),
                          tuple([s] + [z * mult for z, mult in counts]))


def _overlay(n: int, k: int, s: int) -> Graph:
    """K_{s,s+k+1} overlaid on K_{n/2-s,n/2-s-k-1} (X1, Y1, X2, Y2); at
    s = 0, K_{n/2,n/2-k-1} plus k+1 isolated vertices."""
    return bipartite_join(complete_bipartite(s, s + k + 1),
                          complete_bipartite(n // 2 - s, n // 2 - s - k - 1))


def _overlay_quotient(n: int, k: int, s: int) -> QuotientMatrix:
    """Exact quotient of ``_overlay(n, k, s)`` for s >= 1; the last class
    is dropped when it is empty."""
    half = n // 2
    q = half - s - k - 1
    rows = [(0, 0, s + k + 1, q), (0, 0, 0, q),
            (s, 0, 0, 0), (s, half - s, 0, 0)]
    c = 4 if q else 3
    return QuotientMatrix(tuple(r[:c] for r in rows[:c]),
                          (s, half - s, s + k + 1, q)[:c])


def _minus_star(n: int, k: int) -> Graph:
    """K_{n/2,n/2} minus a star that leaves vertex 0 with degree k-1."""
    return remove_star(complete_bipartite(n // 2, n // 2),
                       center=0, leaf_count=n // 2 - k + 1)


def _minus_star_quotient(n: int, k: int) -> QuotientMatrix:
    """Exact quotient of ``_minus_star(n, k)``."""
    half = n // 2
    leaves = half - k + 1
    rows = ((0, 0, k - 1, 0), (0, 0, k - 1, leaves),
            (1, half - 1, 0, 0), (0, half - 1, 0, 0))
    return QuotientMatrix(rows, (1, half - 1, k - 1, leaves))


# family -> (graph builder, quotient builder), both taking member_args
_BUILDERS = {
    "kext-general": (join_cliques, join_cliques_quotient),
    "kext-bipartite": (_overlay, _overlay_quotient),
    "kfactor-bipartite": (_minus_star, _minus_star_quotient),
    "kfc-general": (join_cliques, join_cliques_quotient),
    "hamilton-bipartite": (_minus_star, _minus_star_quotient),
}
FAMILIES = tuple(_BUILDERS)


def construct_family(family: str, p: FamilyParams) -> Graph:
    """The family member at ``p``; raises GraphError when there is none."""
    args = member_args(family, p)
    return _BUILDERS[family][0](*args)


def family_quotient(family: str, p: FamilyParams) -> QuotientMatrix:
    """The small exact quotient matrix of the family member (classes in
    canonical order); raises exactly when ``construct_family`` does."""
    args = member_args(family, p)
    return _BUILDERS[family][1](*args)


def threshold_rho(family: str, p: FamilyParams) -> Threshold:
    """Spectral threshold of a family from its exact quotient."""
    return Threshold(rho_star=family_quotient(family, p).largest_eigenvalue())


# -- named constructors ----------------------------------------------------


def extremal_kext_general(n: int, k: int, delta: int) -> Graph:
    """Join of a delta-clique with (clique + independent set): the unique
    spectral maximizer among non-k-extendable graphs of minimum degree
    delta at orders above the threshold."""
    return construct_family("kext-general", FamilyParams(n, k, delta))


def extremal_kext_bipartite(n: int, k: int, s: int) -> Graph:
    """Bipartite overlay of K_{s,s+k+1} onto K_{n/2-s,n/2-s-k-1}."""
    return construct_family("kext-bipartite", FamilyParams(n, k, s=s))


def extremal_kfactor(n: int, k: int) -> Graph:
    """Complete balanced bipartite graph minus a star: one vertex of
    degree k-1, so no k-regular spanning subgraph exists."""
    return construct_family("kfactor-bipartite", FamilyParams(n, k))


def extremal_kfc(n: int, k: int, delta: int) -> Graph:
    """Join extremal family for k-factor-criticality."""
    return construct_family("kfc-general", FamilyParams(n, k, delta))


def extremal_hamilton(n: int) -> Graph:
    """Hamiltonicity extremal graph; identical to the k=2 factor family."""
    return construct_family("hamilton-bipartite", FamilyParams(n))


# -- recognizer ------------------------------------------------------------


def _twin_classes(g: Graph) -> list[tuple[int, bool]]:
    """The twin classes of ``g`` as (vertex mask, clique) pairs.

    Vertices with equal closed neighborhoods form a clique class. The other
    vertices, grouped by equal open neighborhoods, form independent classes;
    a class of one counts as independent. No vertex has twins of both kinds,
    and a vertex sees all of a class or none of it, so ``g`` is the blow-up
    of its classes."""
    closed: dict[int, int] = {}
    for v, row in enumerate(g.adj):
        key = row | 1 << v
        closed[key] = closed.get(key, 0) | 1 << v
    cliques = [c for c in closed.values() if c & (c - 1)]
    in_cliques = sum(cliques)  # the masks are disjoint
    open_rows: dict[int, int] = {}
    for v, row in enumerate(g.adj):
        if not in_cliques >> v & 1:
            open_rows[row] = open_rows.get(row, 0) | 1 << v
    return ([(c, True) for c in cliques]
            + [(c, False) for c in open_rows.values()])


def _twin_form(g: Graph, classes: list[tuple[int, bool]]) -> tuple:
    """``g`` up to isomorphism: the least, over orderings of its twin
    classes, of each class's size, clique flag and adjacency to the classes
    in that order. Two graphs are isomorphic exactly when their forms are
    equal."""
    rows = [g.adj[(c & -c).bit_length() - 1] for c, _ in classes]
    return min(tuple((classes[i][0].bit_count(), classes[i][1],
                      tuple(bool(rows[i] & classes[j][0]) for j in order))
                     for i in order)
               for order in permutations(range(len(classes))))


@lru_cache(maxsize=256)
def _family_form(family: str, p: FamilyParams) -> tuple | None:
    """(n, m, class count, twin form) of the family member, or None when
    ``construct_family`` rejects ``p``."""
    try:
        h = construct_family(family, p)
    except GraphError:
        return None
    classes = _twin_classes(h)
    return h.n, h.m, len(classes), _twin_form(h, classes)


def recognize(family: str, p: FamilyParams, g: Graph) -> bool:
    """True exactly when ``g`` is isomorphic to ``construct_family(family,
    p)``, under any vertex labeling and whatever bipartition ``g`` carries;
    False when ``construct_family`` rejects ``p``, so no member exists."""
    if family not in FAMILIES:
        raise GraphError(f"unknown family {family!r}")
    ref = _family_form(family, p)
    if ref is None or (g.n, g.m) != ref[:2]:
        return False
    classes = _twin_classes(g)
    # members have at most four classes, so at most 4! orderings are tried
    return len(classes) == ref[2] and _twin_form(g, classes) == ref[3]
