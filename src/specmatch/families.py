"""Extremal families as blow-ups, their spectral thresholds and one
recognizer for all of them.

Each family member is one description, a ``BlowUp`` of at most four
classes, which ``member`` alone gives or refuses; the graph, the exact
quotient, rho* and the recognizer all read it. It keeps two orders, as
bytes pin both: the quotient's class order fixes the bits of rho*, the
label order fixes graph6 output. They differ for the bipartite families:
the overlay labels X1, Y1, X2, Y2 but its quotient lists X1, X2, Y1, Y2,
and K_{n/2,n/2} minus a star labels its leaves (the lowest B labels)
before the kept B vertices but lists them after. ``recognize`` ignores
both orders: it compares twin-class forms, an exact isomorphism test.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import NamedTuple, Sequence

from .graph import SIDE_A, SIDE_B, Graph, GraphError, bits
from .spectra import QuotientMatrix


@dataclass(frozen=True)
class FamilyParams:
    n: int
    k: int | None = None
    delta: int | None = None


@dataclass(frozen=True)
class Threshold:
    rho_star: float


class BlowUp(NamedTuple):
    """Class i, in quotient order, is ``copies`` disjoint copies of K_z,
    ``classes[i] = (z, copies)``, completely joined to the classes in the
    bitmask ``joins[i]``. ``labels`` lists the classes in the order they
    take vertex labels; ``sides`` gives each class's side, or is None. An
    empty class takes no vertex and no quotient row."""
    classes: tuple[tuple[int, int], ...]
    joins: tuple[int, ...]
    labels: tuple[int, ...]
    sides: tuple[int, ...] | None = None

    def masks(self) -> list[int]:
        """Each class's vertices as a bitmask."""
        out = [0] * len(self.classes)
        start = 0
        for i in self.labels:
            size = self.classes[i][0] * self.classes[i][1]
            out[i] = ((1 << size) - 1) << start
            start += size
        return out

    def graph(self) -> Graph:
        """Each class on consecutive labels, the classes in label order."""
        masks = self.masks()
        adj: list[int] = []
        for i in self.labels:
            z, copies = self.classes[i]
            joined = sum(masks[j] for j in bits(self.joins[i]))
            for _ in range(copies):
                clique = ((1 << z) - 1) << len(adj)
                adj += [joined | (clique ^ 1 << v)
                        for v in range(len(adj), len(adj) + z)]
        side_a = None if self.sides is None else sum(
            mask for mask, side in zip(masks, self.sides) if side == SIDE_A)
        # valid by construction: a clique row drops its own bit, and the
        # joins of every library blow-up are symmetric; its sided ones (the
        # overlay, the k-factor member) have single-vertex cliques and join
        # only classes on opposite sides
        return Graph._trusted(len(adj), tuple(adj), side_a)

    def quotient(self) -> QuotientMatrix:
        """Entry (i, j) is class j's size if i and j are joined, z-1 if
        i = j, else 0."""
        size = {i: z * copies for i, (z, copies) in enumerate(self.classes)
                if z * copies}
        return QuotientMatrix(
            tuple(tuple(self.classes[i][0] - 1 if i == j
                        else size[j] if self.joins[i] >> j & 1 else 0
                        for j in size) for i in size),
            tuple(size.values()))


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


def join_sizes(n: int, c: int, delta: int) -> tuple[int, ...]:
    """Clique sizes under the delta-clique of a join family member: one of
    n-2*delta+c-1, then delta-c+1 singles; c = 2k (kext) or k (kfc)."""
    return (n - 2 * delta + c - 1,) + (1,) * (delta - c + 1)


def join_cliques(s: int, clique_sizes: Sequence[int]) -> BlowUp:
    """An s-clique joined to disjoint cliques of the given sizes: the
    s-clique, then one class per size, largest first. Labels follow
    ``clique_sizes``; equal sizes take theirs where the size first occurs."""
    counts = Counter(clique_sizes)
    order = {z: i for i, z in enumerate(sorted(counts, reverse=True), 1)}
    return BlowUp(((s, 1),) + tuple((z, counts[z]) for z in order),
                  (((1 << len(order)) - 1) << 1,) + (1,) * len(order),
                  (0,) + tuple(order[z] for z in counts))


def overlay(n: int, k: int, s: int) -> BlowUp:
    """K_{s,s+k+1} overlaid on K_{n/2-s,n/2-s-k-1}: X1, X2, Y1, Y2, with
    X1 joined to Y1 and Y2, X2 to Y2; labeled X1, Y1, X2, Y2. At s = 0,
    K_{n/2,n/2-k-1} plus k+1 isolated vertices."""
    half = n // 2
    return BlowUp(((1, s), (1, half - s), (1, s + k + 1),
                   (1, half - s - k - 1)),
                  (0b1100, 0b1000, 0b0001, 0b0011), (0, 2, 1, 3),
                  (SIDE_A, SIDE_A, SIDE_B, SIDE_B))


# family -> the parameters besides n that its member reads. kext-bipartite
# reads delta as its overlay size s, which is the member's minimum degree
# only from t1.2's least order 4*delta+2k+2 up.
READS = {
    "kext-general": ("k", "delta"),
    "kext-bipartite": ("k", "delta"),
    "kfactor-bipartite": ("k",),
    "kfc-general": ("k", "delta"),
    "hamilton-bipartite": (),
}
FAMILIES = tuple(READS)


def member(family: str, p: FamilyParams) -> BlowUp:
    """The family's member at ``p``, read from n and ``READS[family]``.

    The one place that decides whether ``family`` has a member at ``p``:
    raises GraphError naming the first violated condition."""
    if family not in READS:
        raise GraphError(f"unknown family {family!r}")
    _require(all(getattr(p, name) is not None for name in READS[family]),
             f"{family} needs n, {', '.join(READS[family])}")
    n, k, delta = p.n, p.k, p.delta
    if family == "kext-general":
        _require(k >= 1, f"k={k} violates k >= 1")
        _require(n % 2 == 0, f"n={n} violates even order")
        _require(delta >= 2 * k,
                 f"delta={delta} violates delta >= 2k={2 * k}")
        sizes = join_sizes(n, 2 * k, delta)
        _require(sizes[0] >= 1, f"n-2*delta+2k-1={sizes[0]} violates >= 1")
        return join_cliques(delta, sizes)
    if family == "kext-bipartite":
        _require(k >= 1, f"k={k} violates k >= 1")
        _require(delta >= 1, f"delta={delta} violates delta >= 1")
        _require(n % 2 == 0, f"n={n} violates even order")
        q = n // 2 - delta - k - 1
        _require(q >= 0, f"n/2-delta-k-1={q} violates >= 0")
        return overlay(n, k, delta)
    if family == "kfactor-bipartite":
        _require(n % 2 == 0, f"n={n} violates even order")
        _require(2 <= k <= n // 2 - 1,
                 f"k={k} violates 2 <= k <= n/2-1={n // 2 - 1}")
        # K_{n/2,n/2} minus the star from vertex 0 to the lowest B labels,
        # leaving it degree k-1: center, A-rest, kept, leaves
        half = n // 2
        return BlowUp(((1, 1), (1, half - 1), (1, k - 1),
                       (1, half - k + 1)),
                      (0b0100, 0b1100, 0b0011, 0b0010), (0, 1, 3, 2),
                      (SIDE_A, SIDE_A, SIDE_B, SIDE_B))
    if family == "kfc-general":
        _require(k >= 1, f"k={k} violates k >= 1")
        _require(n % 2 == k % 2, f"n={n} violates n = k (mod 2) for k={k}")
        _require(delta >= k, f"delta={delta} violates delta >= k={k}")
        bound = _order_bound(k, delta)
        # n >= bound also keeps the large clique nonempty
        _require(n >= bound, f"n={n} violates n >= {bound}")
        return join_cliques(delta, join_sizes(n, k, delta))
    # hamilton-bipartite
    _require(n % 2 == 0 and n >= 8, f"n={n} violates even n >= 8")
    return member("kfactor-bipartite", FamilyParams(n, 2))


def construct_family(family: str, p: FamilyParams) -> Graph:
    """The family member at ``p``; raises GraphError when there is none."""
    return member(family, p).graph()


def family_quotient(family: str, p: FamilyParams) -> QuotientMatrix:
    """The exact quotient of the family member; raises exactly when
    ``construct_family`` does."""
    return member(family, p).quotient()


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
    return construct_family("kext-bipartite", FamilyParams(n, k, delta=s))


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
