"""Exact matchings, extendability and factor criteria, flow-based factor
construction, perfect-matching decomposition and Hamilton-cycle search.

Every negative verdict carries a certificate that re-validates against the
host graph by an independent recomputation (see ``validate_certificate``).

The extendability and factor-criticality checkers decide, then certify.
One fast exact route gives the verdict: Gallai-Edmonds outer sets for
``is_k_extendable_chen`` and ``is_k_factor_critical`` (whether every
size-k matching, or every k-set deletion, leaves a perfect matching,
decided by one blossom search per (k-1)-prefix, and for Chen per vertex
of it; ``_chen_decides``, ``_kfc_decides``), and the surplus route for
``is_k_extendable_plummer``.
The violating-set search (``chen_violating_set``,
``plummer_violating_subset``, ``_kfc_search``) runs only on a negative, to
find the certificate. So a Chen or factor-criticality negative is
confirmed inside its route, where the outer-set decision and the
criterion search must agree. The literal definitional scan, one
perfect-matching test per size-k matching
(``is_k_extendable_definitional``), is an oracle only: Plummer's in
``harness.ROUTES``, and every criterion's opponent in ``cross-check``.

Violating-set certificates are excess-maximal: among all witnesses the one
with the largest violation is returned, ties broken by the
lexicographically least vertex list. The four searches (the three above
and Ore's criterion in ``has_f_factor_ore``) run on one lexicographic
branch and bound (``_lex_max_excess``), which visits the vertex sets in
that tie-break order; Chen and factor-criticality share the odd-component
search ``_odd_set_search``. The first three stop as soon as a set reaches
an upper bound on the excess that one maximum matching gives (the
Tutte-Berge formula; Konig's theorem for Plummer), and skip the subtrees
in which no set can beat the best excess found. ``hopeless(mask, size,
nbh, best)`` decides the skip from the set itself: for the odd-component
search it is the Tutte-Berge formula on G-S, so a subtree goes as soon as
nu(G-S) shows that no superset of S can beat the best excess. Ore's search
prunes nothing, so it stays independent of the flow route it is checked
against.

General matchings come from Edmonds' blossom algorithm on the bitset rows
(``_blossom_augment``: one search from an exposed root inside an ``alive``
mask, augmenting a partner list in place, or else returning its tree's
outer vertices). Each Chen, definitional and factor-criticality call
finds one maximum matching of G and warm-starts every later question from
it: a test on G-D (a (k-1)-matching's or a size-k matching's vertices, a
set of deleted vertices, or the set S of the odd-set search) drops the
pairs that leave G-D and augments only from the vertices left exposed
(``_reaching``). The (near-)perfect matchings of the outer-set decisions,
the tests of the definitional scan and the pruning test nu(G-S) >= b of
``hopeless`` are such tests. The edge list of
``max_matching_general`` (smallest active vertex, smallest partner) is
rebuilt the same way, one test per candidate partner; the checkers read
only the matching number and build that list only for a
``no-size-k-matching`` certificate.

One augmenting-path routine, ``_augment`` (Kuhn), serves every bipartite
matching: maximum matchings, the surplus route's replicated Hall test and
``harness.random_regular_bipartite``; each caller keeps its own unit
order, candidate order and failure policy.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .graph import (Graph, GraphError, SIDE_A, SIDE_B, bits, is_connected,
                    mask_of, row_components)

EXHAUSTIVE_LIMIT = 20
GENERAL_MATCHING_LIMIT = 24
# the odd-set search solves nu(G-S) only for subtrees over at least this
# many vertices; below it a matching costs more than the sets it prunes
_SUBTREE_MIN = 5

CERTIFICATE_KINDS = frozenset({
    "ViolatingSetS", "ViolatingSubsetX", "FactorSubgraph", "HamCycle",
    "FailingMatching",
})


@dataclass
class Certificate:
    kind: str
    payload: dict

    def __post_init__(self):
        if self.kind not in CERTIFICATE_KINDS:
            raise GraphError(f"unknown certificate kind {self.kind!r}")

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, "payload": self.payload},
                          sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Matching:
    edges: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.edges)

    def validate(self, g: Graph) -> None:
        seen = 0
        for u, v in self.edges:
            if not g.has_edge(u, v):
                raise GraphError(f"({u},{v}) is not an edge")
            pair = (1 << u) | (1 << v)
            if seen & pair:
                raise GraphError(f"({u},{v}) shares a vertex")
            seen |= pair


def matching_of(pairs: Sequence[tuple[int, int]]) -> Matching:
    edges = tuple(sorted((min(u, v), max(u, v)) for u, v in pairs))
    return Matching(edges)


@dataclass(frozen=True)
class FactorSpec:
    targets: tuple[int, ...]

    def __post_init__(self):
        if any(t < 0 for t in self.targets):
            raise GraphError("factor targets must be nonnegative")

    @staticmethod
    def constant(n: int, k: int) -> "FactorSpec":
        return FactorSpec((k,) * n)


# -- maximum matchings ---------------------------------------------------


def _augment(cands: Sequence[Sequence[int]], owner: dict[int, int],
             unit: int, seen: set[int]) -> bool:
    """Kuhn's augmenting path from ``unit``: its candidates are tried in the
    order ``cands[unit]`` lists them, and a candidate that another unit owns
    is taken when that unit can move on. On success ``owner`` maps each
    candidate on the path to its new unit; ``seen`` collects every
    candidate visited, so on failure the units owning them, with ``unit``,
    have too few candidates between them (Hall's condition fails)."""
    for b in cands[unit]:
        if b in seen:
            continue
        seen.add(b)
        other = owner.get(b)
        if other is None or _augment(cands, owner, other, seen):
            owner[b] = unit
            return True
    return False


def max_matching_bipartite(g: Graph) -> Matching:
    """Maximum matching of a bipartite graph via augmenting paths from the
    side-A vertices in ascending order; a vertex without one stays
    unmatched."""
    if g.side_a is None:
        raise GraphError("bipartite matching needs a bipartition")
    cands = [list(bits(row)) for row in g.adj]
    owner: dict[int, int] = {}
    for a in bits(g.side_a):
        _augment(cands, owner, a, set())
    return matching_of([(a, b) for b, a in owner.items()])


def _blossom_lca(base: list[int], parent: list[int], match: list[int],
                 a: int, b: int) -> int:
    """The base of the blossom that the tree edge (a, b) closes: the first
    base on b's path to the root that a's path also meets."""
    seen = 0
    while True:
        a = base[a]
        seen |= 1 << a
        if match[a] < 0:  # the root
            break
        a = parent[match[a]]
    while True:
        b = base[b]
        if seen >> b & 1:
            return b
        b = parent[match[b]]


def _blossom_mark(base: list[int], parent: list[int], match: list[int],
                  v: int, top: int, child: int) -> int:
    """Walk from the outer vertex ``v`` up to the blossom base ``top``,
    pointing each outer vertex's ``parent`` back along the cycle (starting
    at ``child``); returns the mask of the bases met."""
    mask = 0
    while base[v] != top:
        mask |= 1 << base[v] | 1 << base[match[v]]
        parent[v] = child
        child = match[v]
        v = parent[child]
    return mask


def _blossom_augment(adj: Sequence[int], alive: int, match: list[int],
                     root: int, target: int = -1) -> int:
    """Edmonds' blossom search (Edmonds 1965, "Paths, trees, and flowers")
    from the exposed vertex ``root`` of G[alive]: an alternating tree that
    contracts each odd cycle it closes into its base. When it reaches an
    exposed vertex, ``match`` (each vertex's partner, or -1) is augmented
    along the path in place and 0 returned. Only entries of vertices in
    ``alive`` are read or written.

    Otherwise the mask of the tree's outer vertices is returned (never 0:
    the root is outer). Each ends an even alternating path from ``root``,
    so a matching of the same size misses it. When no augmenting path
    starts at ``root``, the tree is completed, and if ``root`` is the only
    vertex of G[alive] that ``match`` leaves exposed, its outer vertices
    are exactly the Gallai-Edmonds set D(G[alive]): the vertices v with
    nu(G[alive]-v) = nu(G[alive]) (Lovasz-Plummer, *Matching Theory*).
    Given a ``target`` mask, the search ends early, returning the outer
    vertices found so far, once they include all of it; the default -1
    names no target.

    The tree grows breadth-first from every outer vertex before any edge
    between two outer vertices is examined, so a plain alternating path to
    an exposed vertex ends the search without a contraction. Edmonds'
    search may examine the edges at outer vertices in any order."""
    n = len(match)
    # each inner vertex's tree predecessor; a contraction also links the
    # outer vertices of the odd cycle, so that paths can pass through it
    parent = [-1] * n
    base = list(range(n))
    outer = tree = 1 << root
    queue = [root]  # outer vertices, in the order they turned outer
    grown = 0  # queue[:grown] had their edges out of the tree examined
    scanned = 0  # queue[:scanned] had their edges to outer vertices examined
    while True:
        if target >= 0 and not target & ~outer:
            return outer
        if grown < len(queue):
            v = queue[grown]
            grown += 1
            part = adj[v] & alive & ~tree
            while part:
                b = part & -part
                part ^= b
                if tree & b:  # joined as the mate of an earlier neighbor
                    continue
                to = b.bit_length() - 1
                parent[to] = v
                mate = match[to]
                if mate < 0:
                    while to >= 0:
                        v = parent[to]
                        mate = match[v]
                        match[to] = v
                        match[v] = to
                        to = mate
                    return 0
                tree |= b | 1 << mate
                outer |= 1 << mate
                queue.append(mate)
            continue
        if scanned == len(queue):
            return outer
        # the tree cannot grow: contract the odd cycle that an edge between
        # two outer vertices closes, which turns its inner vertices outer
        v = queue[scanned]
        scanned += 1
        part = adj[v] & alive & outer
        while part:
            b = part & -part
            part ^= b
            to = b.bit_length() - 1
            if base[v] == base[to]:
                continue
            top = _blossom_lca(base, parent, match, v, to)
            blossom = (_blossom_mark(base, parent, match, v, top, to)
                       | _blossom_mark(base, parent, match, to, top, v))
            rest = tree
            while rest:
                b = rest & -rest
                rest ^= b
                u = b.bit_length() - 1
                if blossom >> base[u] & 1:
                    base[u] = top
                    if not outer & b:
                        outer |= b
                        queue.append(u)


def _reaching(adj: Sequence[int], alive: int, match: Sequence[int],
              need: int) -> list[int] | None:
    """A matching of G[alive] with at least ``need`` pairs, or None when
    nu(G[alive]) < ``need``. Warm start: a copy of ``match`` without the
    pairs that leave ``alive``, augmented from the vertices it leaves
    exposed, ascending, until ``need`` pairs are matched. A vertex whose
    search fails never gains an augmenting path by later augmentations, so
    it stays exposed: the search stops once those vertices leave too few
    to hold ``need`` pairs (for a perfect matching, at the first
    failure)."""
    out = list(match)
    exposed = []
    rest = alive
    while rest:
        b = rest & -rest
        rest ^= b
        v = b.bit_length() - 1
        p = out[v]
        if p < 0 or not alive >> p & 1:
            out[v] = -1
            exposed.append(v)
    room = alive.bit_count()
    pairs = (room - len(exposed)) // 2
    for v in exposed:
        if pairs >= need:
            return out
        if out[v] >= 0:
            continue
        if not _blossom_augment(adj, alive, out, v):  # 0: augmented
            pairs += 1
        else:
            room -= 1
            if room // 2 < need:
                return None
    return out if pairs >= need else None


def _has_perfect_on(adj: Sequence[int], alive: int,
                    match: Sequence[int]) -> bool:
    size = alive.bit_count()
    return size % 2 == 0 and _reaching(adj, alive, match,
                                       size // 2) is not None


def _blossom_matching(g: Graph) -> list[int]:
    """A maximum matching of ``g`` from scratch, as each vertex's partner
    (or -1); the warm start of every later test on ``g``. One search from
    each vertex still exposed at its turn suffices, since a failed search
    stays failed."""
    match = [-1] * g.n
    full = g.full_mask()
    for v in range(g.n):
        if match[v] < 0:
            _blossom_augment(g.adj, full, match, v)
    return match


def _pairs(match: Sequence[int]) -> int:
    """The size of a matching given on every vertex of its graph."""
    return sum(p >= 0 for p in match) // 2


def max_matching_general(g: Graph) -> Matching:
    """Exact maximum matching of any graph: Edmonds' blossom algorithm,
    then a deterministic reconstruction (smallest active vertex, smallest
    partner). An edge (v, u) is taken when G-v-u keeps all but one pair,
    tested by augmenting from the current maximum matching."""
    if g.n > GENERAL_MATCHING_LIMIT:
        raise GraphError(
            f"general matching limited to n <= {GENERAL_MATCHING_LIMIT}")
    adj = g.adj
    match = _blossom_matching(g)
    remaining = _pairs(match)
    edges = []
    mask = g.full_mask()
    while remaining:
        v = next(c for c in bits(mask) if adj[c] & mask)
        for u in bits(adj[v] & mask):
            nxt = mask ^ (1 << v) ^ (1 << u)
            trial = _reaching(adj, nxt, match, remaining - 1)
            if trial is not None:
                edges.append((v, u))
                mask, match = nxt, trial
                remaining -= 1
                break
        else:
            # no maximum matching covers v, so ``match`` leaves it exposed
            mask ^= 1 << v
    return matching_of(edges)


def max_matching(g: Graph) -> Matching:
    if g.side_a is not None:
        return max_matching_bipartite(g)
    return max_matching_general(g)


def has_perfect_matching(g: Graph) -> bool:
    if g.n % 2:
        return False
    return 2 * max_matching(g).size == g.n


def _k_disjoint_edges(adj: Sequence[int], mask: int,
                      k: int) -> list[tuple[int, int]] | None:
    """Some k pairwise disjoint edges inside ``mask``, or None."""
    if k == 0:
        return []
    m = mask
    while m:
        b = m & -m
        v = b.bit_length() - 1
        if adj[v] & mask:
            break
        m ^= b
        mask ^= b
    else:
        return None
    nb = adj[v] & mask
    while nb:
        b = nb & -nb
        nb ^= b
        rest = _k_disjoint_edges(adj, mask ^ (1 << v) ^ b, k - 1)
        if rest is not None:
            return [(v, b.bit_length() - 1)] + rest
    return _k_disjoint_edges(adj, mask ^ (1 << v), k)


def iter_k_matchings(g: Graph, k: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All matchings of size k, in lexicographic order of their edge lists."""
    edges = g.edges()
    m = len(edges)

    def rec(start: int, chosen: list, used: int):
        if len(chosen) == k:
            yield tuple(chosen)
            return
        for i in range(start, m - (k - len(chosen)) + 1):
            u, v = edges[i]
            pair = (1 << u) | (1 << v)
            if used & pair:
                continue
            chosen.append(edges[i])
            yield from rec(i + 1, chosen, used | pair)
            chosen.pop()

    yield from rec(0, [], 0)


# -- odd components on raw bitsets (hot path) ----------------------------


def _odd_components(adj: Sequence[int], alive: int) -> int:
    cnt = 0
    rest = alive
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                nxt |= adj[b.bit_length() - 1]
                f ^= b
            nxt &= rest & ~comp
            comp |= nxt
            frontier = nxt
        rest &= ~comp
        if comp.bit_count() & 1:
            cnt += 1
    return cnt


# -- excess-maximal violating sets ---------------------------------------


def _lex_max_excess(verts: Sequence[int], adj: Sequence[int], excess,
                    hopeless, ceiling) -> tuple[int, int] | None:
    """Lexicographic branch and bound: the excess-maximal, lex-least
    nonempty subset of ``verts`` (ascending), as (mask, neighborhood), or
    None when no subset has a positive excess.

    A pre-order DFS over ascending vertex tuples, children in ascending
    order, meets the sets in the lexicographic order of their sorted vertex
    lists. So the first set met at an excess is the lex-least one at it,
    and a later set replaces the best only at a strictly greater excess.

    ``excess(mask, size, nbh, best)`` scores a set with neighborhood
    ``nbh``: its excess when that beats ``best`` and the set is a witness,
    else any value <= ``best``. ``hopeless(mask, size, nbh, best)`` is true
    when no proper superset of the set ``mask`` (``size`` vertices) can
    beat ``best``; its subtree, the sets that add vertices after the
    set's last one, is then skipped. ``ceiling()`` bounds every excess; it
    is called once, at the first witness, and the search stops when the
    best excess reaches it."""
    last = len(verts)
    best = 0
    best_set = None
    stop = None
    # each entry resumes a level: (next index into verts, the parent's
    # mask, the size of the sets met there, the parent's neighborhood)
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
            if i < last and not hopeless(m, size, nb, best):
                stack.append((i, mask, size, nbh))
                mask, size, nbh = m, size + 1, nb
    return best_set


def _odd_set_search(g: Graph, c: int, match: Sequence[int],
                    spans=None) -> int | None:
    """Odd-component criterion with offset ``c`` (2k for extendability, k
    for factor-criticality): the mask of the excess-maximal, lex-least
    vertex set S with |S| >= c, o(G-S) > |S|-c and, when given,
    ``spans(S)``; None when there is none.

    The sets are searched by ``_lex_max_excess``. By the Tutte-Berge
    formula no excess o(G-S)-|S|+c exceeds n-2*nu(G)+c (``match`` is a
    maximum matching of G), so the search stops once a set reaches that
    bound. The same formula on H = G-S bounds every set T >= S:
    o(G-T)-|T|+c <= n-2|S|-2*nu(G-S)+c. A subtree is skipped when that
    bound, or the bound n-2(|S|+1)+c of its smallest proper superset,
    cannot beat the best excess found. nu(G-S) is computed only when it
    can pay: when a near-perfect nu(G-S) would prune (c-|S| plus the
    parity of n-|S| is at most the best excess) and at least
    ``_SUBTREE_MIN`` vertices follow the last vertex of S. Only whether
    nu(G-S) reaches the pruning bound is asked: ``_reaching`` warm-starts
    from ``match`` restricted to G-S and augments from the vertices it
    leaves exposed, until the bound is reached or cannot be."""
    n = g.n
    adj = g.adj
    full = g.full_mask()
    nu = _pairs(match)

    def excess(mask: int, size: int, nbh: int, best: int) -> int:
        if size < c or n - 2 * size + c <= best:
            return 0  # o(G-S) <= n-|S| caps the excess
        e = _odd_components(adj, full ^ mask) - size + c
        if e > best and spans is not None and not spans(mask):
            return 0
        return e

    def hopeless(mask: int, size: int, nbh: int, best: int) -> bool:
        if n - 2 * (size + 1) + c <= best:
            return True
        if (c - size + ((n - size) & 1) > best
                or n - mask.bit_length() < _SUBTREE_MIN):
            return False
        # n-2|S|-2*nu(G-S)+c <= best, solved for nu(G-S)
        need = (n - 2 * size + c - best + 1) // 2
        return _reaching(adj, full ^ mask, match, need) is not None

    found = _lex_max_excess(
        range(n), adj, excess, hopeless, lambda: n - 2 * nu + c)
    return None if found is None else found[0]


def _odd_set_certificate(g: Graph, criterion: str, k: int, mask: int,
                         **extra) -> Certificate:
    """The ``ViolatingSetS`` for the vertex set ``mask``."""
    return Certificate("ViolatingSetS", {
        "criterion": criterion,
        "k": k,
        "set": list(bits(mask)),
        "odd_components": _odd_components(g.adj, g.full_mask() ^ mask),
        **extra,
    })


# -- k-extendability -----------------------------------------------------


def _require_extendable_input(g: Graph, k: int) -> None:
    if k < 1:
        raise GraphError(
            "k must be >= 1; use has_perfect_matching for the base case")
    if g.n % 2:
        raise GraphError("extendability needs even order")
    if not is_connected(g):
        raise GraphError("extendability checkers need a connected graph")


def _no_k_matching_certificate(k: int, mm: Matching) -> Certificate:
    """Certificate for a graph whose maximum matching ``mm`` is below k."""
    return Certificate("FailingMatching", {
        "reason": "no-size-k-matching",
        "k": k,
        "max_matching": [list(e) for e in mm.edges],
    })


def _require_enumerable(size: int, limit: int, of: str = "n") -> None:
    if size > limit:
        raise GraphError(
            f"criterion enumeration limited to {of} <= {limit}")


def _first_failing_k_matching(
        g: Graph, k: int,
        match: Sequence[int]) -> tuple[tuple[int, int], ...] | None:
    """The lex-first size-k matching whose removal leaves no perfect
    matching, or None: the literal scan of the definition, one
    perfect-matching test per size-k matching, which only
    ``is_k_extendable_definitional`` (the oracle that ``cross-check`` and
    the t1.2 route hold the criteria to) runs. Each test warm-starts from
    the maximum matching ``match`` of ``g``: the partners of the removed
    vertices lose their pairs, and only the vertices left exposed are
    augmented from."""
    full = g.full_mask()
    for m_edges in iter_k_matchings(g, k):
        used = 0
        for u, v in m_edges:
            used |= (1 << u) | (1 << v)
        if not _has_perfect_on(g.adj, full ^ used, match):
            return m_edges
    return None


def _outer_covers(adj: Sequence[int], alive: int, match: list[int],
                  root: int, target: int) -> bool:
    """Whether every vertex of ``target`` lies in D(G[alive]), the
    vertices that some maximum matching of G[alive] misses, given a
    matching ``match`` of G[alive] that leaves only ``root`` exposed
    (``match[root]`` may name a partner outside ``alive``: it is read as
    -1 and restored on return). One blossom search from ``root`` decides
    all of ``target``: it ends once they are all outer, or with the
    completed tree, whose outer vertices are D."""
    mate = match[root]
    match[root] = -1
    outer = _blossom_augment(adj, alive, match, root, target)
    match[root] = mate
    return not target & ~outer


def _chen_decides(g: Graph, k: int, match: Sequence[int]) -> bool:
    """Whether every size-k matching of ``g`` leaves a perfect matching,
    given a maximum matching ``match`` of ``g`` with at least k pairs.

    A size-k matching is a (k-1)-matching P and an edge uv of
    G' = G - V(P). For each P, in lex order, a perfect matching M' of G'
    is warm-started from ``match``. Without one, P and any edge of G'
    fail (G'-u-v has no perfect matching either), so a G' with an edge is
    a negative; a G' without one extends P to no size-k matching. With
    M', G'-u-v has a perfect matching exactly when v is in D(G'-u), in
    which M' leaves only M'(u) exposed; so one search from M'(u) decides
    every edge from u to a later vertex v other than M'(u)
    (``_outer_covers``), and a v that never turns outer is a negative."""
    adj = g.adj
    full = g.full_mask()
    for prefix in iter_k_matchings(g, k - 1):
        alive = full
        for u, v in prefix:
            alive ^= 1 << u | 1 << v
        perfect = _reaching(adj, alive, match, alive.bit_count() // 2)
        if perfect is None:
            if any(adj[v] & alive for v in bits(alive)):
                return False
            continue
        later = alive
        while later:
            b = later & -later
            later ^= b
            u = b.bit_length() - 1
            root = perfect[u]
            target = adj[u] & later & ~(1 << root)
            if target and not _outer_covers(adj, alive ^ b, perfect, root,
                                            target):
                return False
    return True


def is_k_extendable_definitional(
        g: Graph, k: int) -> tuple[bool, Certificate | None]:
    """Directly: a size-k matching exists and each one extends to a perfect
    matching. The first failing matching (lex order) is certified."""
    _require_extendable_input(g, k)
    if g.n > GENERAL_MATCHING_LIMIT:
        raise GraphError(
            f"definitional check limited to n <= {GENERAL_MATCHING_LIMIT}")
    match = _blossom_matching(g)
    if _pairs(match) < k:
        return False, _no_k_matching_certificate(k, max_matching(g))
    m_edges = _first_failing_k_matching(g, k, match)
    if m_edges is None:
        return True, None
    return False, Certificate("FailingMatching", {
        "k": k,
        "matching": [list(e) for e in m_edges],
    })


def _chen_search(g: Graph, k: int,
                 match: Sequence[int]) -> Certificate | None:
    """``chen_violating_set`` after its input checks, given a maximum
    matching ``match`` of ``g`` (each vertex's partner, or -1). The
    ``no-size-k-matching`` certificate lists ``max_matching(g)``."""
    if _pairs(match) < k:
        return _no_k_matching_certificate(k, max_matching(g))
    adj = g.adj
    mask = _odd_set_search(
        g, 2 * k, match,
        lambda s: _k_disjoint_edges(adj, s, k) is not None)
    if mask is None:
        return None
    witness = _k_disjoint_edges(adj, mask, k)
    return _odd_set_certificate(g, "extendability", k, mask,
                                witness_edges=[sorted(e) for e in witness])


def chen_violating_set(g: Graph, k: int,
                       limit: int = EXHAUSTIVE_LIMIT) -> Certificate | None:
    """Odd-component criterion over the vertex sets S spanning k disjoint
    edges (order <= ``limit``): the excess-maximal, lex-least S with
    o(G-S) > |S|-2k (``_odd_set_search``), or None when G is
    k-extendable. A graph without a size-k matching gets a
    ``no-size-k-matching`` certificate."""
    _require_extendable_input(g, k)
    _require_enumerable(g.n, limit)
    return _chen_search(g, k, _blossom_matching(g))


def is_k_extendable_chen(
        g: Graph, k: int,
        limit: int = EXHAUSTIVE_LIMIT) -> tuple[bool, Certificate | None]:
    """k-extendability of a connected graph of even order <= ``limit``.

    Outer sets decide (``_chen_decides``): a size-k matching exists, and
    for every (k-1)-matching P and vertex u of G' = G - V(P), every later
    neighbor v of u lies in the Gallai-Edmonds set D(G'-u), so that
    G'-u-v keeps a perfect matching. One maximum matching of G, found by
    Edmonds' blossom algorithm, warm-starts the perfect matching of every
    G'. Only a negative runs the ``chen_violating_set`` search, on the
    same matching, and its certificate is returned."""
    _require_extendable_input(g, k)
    _require_enumerable(g.n, limit)
    match = _blossom_matching(g)
    if _pairs(match) >= k and _chen_decides(g, k, match):
        return True, None
    cert = _chen_search(g, k, match)
    if cert is None:
        raise RuntimeError(
            "internal: outer-set decision and odd-component criterion "
            "disagree")
    return False, cert


def _neighborhood_mask(adj: Sequence[int], x_mask: int) -> int:
    out = 0
    for v in bits(x_mask):
        out |= adj[v]
    return out


def _surplus_certificate(adj: Sequence[int], k: int, subset: list[int],
                         **extra) -> Certificate:
    """The extendability ``ViolatingSubsetX``: ``subset`` (ascending) with
    its neighborhood, plus any ``extra`` payload fields."""
    nbh = _neighborhood_mask(adj, mask_of(subset))
    return Certificate("ViolatingSubsetX", {
        "criterion": "extendability",
        "k": k,
        "subset": subset,
        "neighborhood": list(bits(nbh)),
        **extra,
    })


def _plummer_decided(g: Graph,
                     k: int) -> tuple[bool, Certificate | None] | None:
    """Validate the input and settle the cases that need no criterion:
    unbalanced sides (an immediate negative with a size certificate) and
    k >= |A|, where the only size-k matchings are perfect. None otherwise."""
    if g.side_a is None:
        raise GraphError("criterion needs a bipartition")
    if k < 1:
        raise GraphError(
            "k must be >= 1; use has_perfect_matching for the base case")
    a_verts = g.side_vertices(SIDE_A)
    b_verts = g.side_vertices(SIDE_B)
    if len(a_verts) != len(b_verts):
        larger = a_verts if len(a_verts) > len(b_verts) else b_verts
        return False, _surplus_certificate(
            g.adj, k, larger, reason="unbalanced-sides",
            side_sizes=[len(a_verts), len(b_verts)])
    q = len(a_verts)
    if q == 0:
        raise GraphError("empty graph")
    if k >= q:
        mm = max_matching_bipartite(g)
        if k == q and mm.size == q:
            return True, None
        return False, _no_k_matching_certificate(k, mm)
    return None


def plummer_violating_subset(
        g: Graph, k: int,
        limit: int = EXHAUSTIVE_LIMIT) -> Certificate | None:
    """Neighborhood-surplus criterion for bipartite graphs, over the
    subsets X of side A (|A| <= ``limit``) with |X| <= |A|-k: the
    excess-maximal, lex-least X with |N(X)| < |X|+k, or None when G is
    k-extendable. Unbalanced sides and k >= |A| are settled as in
    ``is_k_extendable_plummer``.

    The subsets are searched by ``_lex_max_excess``, carrying N(X) down
    the tree. By Konig's theorem no excess |X|+k-|N(X)| exceeds
    k+|A|-nu(G), so the search stops once a subset reaches that bound; a
    subtree is skipped when |X| >= |A|-k or |A|-|N(X)| cannot beat the
    best excess found."""
    decided = _plummer_decided(g, k)
    if decided is not None:
        return decided[1]
    a_verts = g.side_vertices(SIDE_A)
    q = len(a_verts)
    _require_enumerable(q, limit, "|A|")
    found = _lex_max_excess(
        a_verts, g.adj,
        lambda mask, size, nbh, best: size + k - nbh.bit_count(),
        lambda mask, size, nbh, best: (size >= q - k
                                       or q - nbh.bit_count() <= best),
        lambda: k + q - max_matching_bipartite(g).size)
    if found is None:
        return None
    return _surplus_certificate(g.adj, k, list(bits(found[0])))


def _plummer_surplus(g: Graph, a_verts: list[int], b_verts: list[int],
                     k: int):
    """Polynomial surplus route: neighborhood expansion by at least k for
    every admissible subset of side A, tested by saturating matchings with
    one A-vertex replicated k extra times inside each co-neighborhood.

    The units of a test are the co-neighborhood's vertices, ascending,
    then the k replicas, matched in that order (``_hall_failure``). So the
    pool is matched once per side-B vertex, and each special vertex only
    augments its replicas, on a copy of that matching."""
    q = len(a_verts)
    adj = g.adj
    for b in b_verts:
        if adj[b].bit_count() <= k:
            pool = [a for a in a_verts if not (adj[b] >> a) & 1]
            return False, _surplus_certificate(adj, k, pool[:q - k])
    nbrs = [list(bits(row)) for row in adj]
    for b in b_verts:
        a_pool = [a for a in a_verts if not (adj[b] >> a) & 1]
        cands = [nbrs[a] for a in a_pool]
        owner: dict[int, int] = {}  # b vertex -> unit index
        bad = _hall_failure(cands, a_pool, owner, 0)
        for a in a_pool:
            if bad is not None:
                break
            bad = _hall_failure(cands + [nbrs[a]] * k, a_pool + [a] * k,
                                dict(owner), len(a_pool))
        if bad is not None:
            cert = _surplus_certificate(adj, k, bad)
            if len(cert.payload["neighborhood"]) >= len(bad) + k:
                raise RuntimeError(
                    "internal: replicated Hall failure is not a "
                    "violating subset")
            return False, cert
    return True, None


def _hall_failure(cands: Sequence[list[int]], units: list[int],
                  owner: dict[int, int], start: int) -> list[int] | None:
    """Match ``units[start:]`` (side-A vertices, repeats allowed; unit i
    takes the candidates ``cands[i]``) into ``owner``, whose matching of
    the earlier units it extends, one unit at a time in order; on a
    failure return the deficient A-set, ascending, else None."""
    for i in range(start, len(units)):
        seen: set[int] = set()
        if not _augment(cands, owner, i, seen):
            return sorted({units[i]} | {units[owner[b]] for b in seen})
    return None


def is_k_extendable_plummer(
        g: Graph, k: int,
        limit: int = EXHAUSTIVE_LIMIT) -> tuple[bool, Certificate | None]:
    """k-extendability of a bipartite graph by the neighborhood-surplus
    criterion.

    The polynomial surplus route decides. On a negative with side A of at
    most ``limit`` vertices, the ``plummer_violating_subset`` search
    supplies the excess-maximal certificate; above that size the
    surplus route's own certificate is returned. Unbalanced sides yield an
    immediate negative with a size certificate.
    """
    decided = _plummer_decided(g, k)
    if decided is not None:
        return decided
    a_verts = g.side_vertices(SIDE_A)
    verdict, cert = _plummer_surplus(g, a_verts, g.side_vertices(SIDE_B), k)
    if verdict or len(a_verts) > limit:
        return verdict, cert
    cert = plummer_violating_subset(g, k, limit)
    if cert is None:
        raise RuntimeError(
            "internal: surplus and enumeration routes disagree")
    return False, cert


# -- bipartite f-factors -------------------------------------------------


def _factor_targets(g: Graph, f) -> tuple[int, ...]:
    if isinstance(f, FactorSpec):
        targets = f.targets
    else:
        targets = tuple(int(t) for t in f)
    if len(targets) != g.n:
        raise GraphError("factor spec length != order")
    if any(t < 0 for t in targets):
        raise GraphError("factor targets must be nonnegative")
    return targets


def _ore_sides(g: Graph) -> tuple[list[int], list[int]]:
    if g.side_a is None:
        raise GraphError("factor criteria need a bipartition")
    return g.side_vertices(SIDE_A), g.side_vertices(SIDE_B)


def _deficiency_certificate(adj: Sequence[int], criterion: str, targets,
                            subset: list[int]) -> Certificate:
    """The factor ``ViolatingSubsetX``: a side-A set X (ascending) whose
    demand lhs = sum of f over X exceeds what N(X) can absorb,
    rhs = sum over y in N(X) of min(f(y), |N(y) & X|). The neighbors with
    at least f(y) edges into X are ``y_saturated``, the rest
    ``y_deficient``."""
    x_mask = mask_of(subset)
    nbh = _neighborhood_mask(adj, x_mask)
    rhs = 0
    y1, y2 = [], []
    for y in bits(nbh):
        d_x = (adj[y] & x_mask).bit_count()
        rhs += min(targets[y], d_x)
        (y1 if d_x >= targets[y] else y2).append(y)
    return Certificate("ViolatingSubsetX", {
        "criterion": criterion,
        "targets": list(targets),
        "subset": subset,
        "neighborhood": list(bits(nbh)),
        "lhs": sum(targets[v] for v in subset),
        "rhs": rhs,
        "y_saturated": y1,
        "y_deficient": y2,
    })


def has_f_factor_ore(g: Graph, f,
                     limit: int = EXHAUSTIVE_LIMIT
                     ) -> tuple[bool, Certificate | None]:
    """Degree-prescribed spanning subgraph criterion for bipartite graphs
    (Ore), exhaustive over the subsets X of side A: the excess-maximal,
    lex-least X with lhs > rhs certifies a negative.

    The subsets are searched by ``_lex_max_excess`` without pruning, and
    the search stops early only at the trivial bound sum of f over A, so
    the criterion stays independent of the flow route."""
    targets = _factor_targets(g, f)
    a_verts, b_verts = _ore_sides(g)
    sum_a = sum(targets[v] for v in a_verts)
    sum_b = sum(targets[v] for v in b_verts)
    if sum_a != sum_b:
        heavier = a_verts if sum_a > sum_b else b_verts
        return False, Certificate("ViolatingSubsetX", {
            "criterion": "f-factor",
            "reason": "target-sum-mismatch",
            "sums": [sum_a, sum_b],
            "targets": list(targets),
            "subset": heavier,
            "neighborhood": [],
        })
    _require_enumerable(len(a_verts), limit, "|A|")
    adj = g.adj

    def excess(mask: int, size: int, nbh: int, best: int) -> int:
        lhs = sum(targets[v] for v in bits(mask))
        if lhs <= best:
            return 0
        return lhs - sum(min(targets[y], (adj[y] & mask).bit_count())
                         for y in bits(nbh))

    found = _lex_max_excess(a_verts, adj, excess,
                            lambda mask, size, nbh, best: False,
                            lambda: sum_a)
    if found is None:
        return True, None
    return False, _deficiency_certificate(adj, "f-factor", targets,
                                          list(bits(found[0])))


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add(self, u: int, v: int, c: int) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for e in self.head[u]:
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] == -1:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] == -1:
                return flow
            it = [0] * self.n

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    e = self.head[u][it[u]]
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[e]))
                        if got:
                            self.cap[e] -= got
                            self.cap[e ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 60)
                if not pushed:
                    break
                flow += pushed

    def reachable_from(self, s: int) -> set[int]:
        seen = {s}
        queue = [s]
        for u in queue:
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


def _f_factor_flow(g: Graph, targets) -> tuple[bool, list[tuple[int, int]] | list[int]]:
    """Max-flow route; returns (True, factor edges) or (False, violating X)."""
    a_verts, b_verts = _ore_sides(g)
    pos = {v: i for i, v in enumerate(a_verts + b_verts)}
    net = _Dinic(2 + g.n)
    s, t = 0, 1 + g.n
    for a in a_verts:
        net.add(s, 1 + pos[a], targets[a])
    edge_arcs = []
    for a in a_verts:
        for b in bits(g.adj[a]):
            edge_arcs.append((a, b, net.add(1 + pos[a], 1 + pos[b], 1)))
    for b in b_verts:
        net.add(1 + pos[b], t, targets[b])
    want = sum(targets[a] for a in a_verts)
    got = net.max_flow(s, t)
    if got == want:
        edges = sorted((min(a, b), max(a, b))
                       for a, b, e in edge_arcs if net.cap[e] == 0)
        return True, edges
    reach = net.reachable_from(s)
    x = sorted(a for a in a_verts if 1 + pos[a] in reach)
    return False, x


def find_k_factor_flow(g: Graph, k: int) -> tuple[bool, Certificate | None]:
    """k-regular spanning subgraph of a balanced bipartite graph by max
    flow; agrees with the exhaustive criterion and certifies both ways."""
    if k < 0:
        raise GraphError("k must be nonnegative")
    a_verts, b_verts = _ore_sides(g)
    if len(a_verts) != len(b_verts):
        raise GraphError("flow factor needs balanced sides")
    if k == 0:
        return True, Certificate("FactorSubgraph", {"k": 0, "edges": []})
    targets = FactorSpec.constant(g.n, k).targets
    ok, data = _f_factor_flow(g, targets)
    if ok:
        return True, Certificate("FactorSubgraph", {
            "k": k,
            "edges": [list(e) for e in data],
        })
    return False, _deficiency_certificate(g.adj, "k-factor", targets, data)


def decompose_edge_disjoint_pms(h: Graph) -> list[Matching]:
    """Split a k-regular balanced bipartite graph into k edge-disjoint
    perfect matchings by repeated extraction."""
    a_verts, b_verts = _ore_sides(h)
    if len(a_verts) != len(b_verts):
        raise GraphError("decomposition needs balanced sides")
    degs = set(h.degrees())
    if len(degs) > 1:
        raise GraphError("decomposition needs a regular graph")
    k = degs.pop() if degs else 0
    q = len(a_verts)
    out = []
    work = h
    for _ in range(k):
        mm = max_matching_bipartite(work)
        if mm.size != q:
            raise GraphError(
                "internal: regular bipartite graph without perfect matching")
        out.append(mm)
        work = work.without_edges(mm.edges)
    if work.m != 0:
        raise GraphError("internal: leftover edges after decomposition")
    return out


# -- factor criticality --------------------------------------------------


def _require_kfc_input(g: Graph, k: int, limit: int) -> None:
    if k < 1:
        raise GraphError(
            "k must be >= 1; use has_perfect_matching for the base case")
    _require_enumerable(g.n, limit)
    if k > g.n:
        raise GraphError("k exceeds the order")


def _kfc_search(g: Graph, k: int,
                match: Sequence[int]) -> Certificate | None:
    """Odd-component criterion for k-factor-criticality over the sets of
    size >= k, on input that ``_require_kfc_input`` passed, given a
    maximum matching ``match`` of ``g``: the excess-maximal, lex-least S with
    o(G-S) > |S|-k (``_odd_set_search``), or None when G is
    k-factor-critical. An odd n-k needs no special case: every k-set S then
    leaves an odd component, so o(G-S) > 0 = |S|-k."""
    mask = _odd_set_search(g, k, match)
    if mask is None:
        return None
    return _odd_set_certificate(g, "factor-critical", k, mask)


def _kfc_decides(g: Graph, k: int, match: Sequence[int]) -> bool:
    """Whether n-k is even and every k-set T leaves a perfect matching,
    given a maximum matching ``match`` of ``g``.

    A k-set is a (k-1)-set prefix T' and a later vertex t. For each T', in
    lex order, a near-perfect matching of the odd-order G - T' is
    warm-started from ``match``; without one no t works. With it, G-T'-t
    has a perfect matching exactly when t is in D(G-T'), and one search
    from the exposed vertex decides every later t (``_outer_covers``)."""
    n = g.n
    if n % 2 != k % 2:
        return False
    adj = g.adj
    full = g.full_mask()
    # a prefix whose last vertex is n-1 has no later vertex
    for prefix in combinations(range(n - 1), k - 1):
        alive = full ^ mask_of(prefix)
        near = _reaching(adj, alive, match, alive.bit_count() // 2)
        if near is None:
            return False
        root = next(v for v in bits(alive) if near[v] < 0)
        target = (full & -(2 << prefix[-1]) if prefix else full) & ~(1 << root)
        if target and not _outer_covers(adj, alive, near, root, target):
            return False
    return True


def is_k_factor_critical(
        g: Graph, k: int,
        limit: int = EXHAUSTIVE_LIMIT) -> tuple[bool, Certificate | None]:
    """k-factor-criticality of a graph of order <= ``limit``.

    Outer sets decide (``_kfc_decides``): n-k is even, and for every
    (k-1)-set T', every vertex after T' lies in the Gallai-Edmonds set
    D(G-T'), so that deleting it too leaves a perfect matching. One
    maximum matching of G, found by Edmonds' blossom algorithm,
    warm-starts the near-perfect matching of every G-T'. Only a negative
    runs ``_kfc_search``, on the same matching, and its certificate is
    returned."""
    _require_kfc_input(g, k, limit)
    match = _blossom_matching(g)
    if _kfc_decides(g, k, match):
        return True, None
    cert = _kfc_search(g, k, match)
    if cert is None:
        raise RuntimeError(
            "internal: outer-set decision and odd-component criterion "
            "disagree")
    return False, cert


# -- Hamilton cycles -----------------------------------------------------


def hamiltonian_cycle(
        g: Graph,
        limit: int = EXHAUSTIVE_LIMIT) -> tuple[bool, Certificate | None]:
    """Backtracking Hamilton-cycle search on balanced bipartite graphs with
    degree and connectivity pruning."""
    if g.side_a is None:
        raise GraphError("search expects a bipartite graph")
    if g.n > limit:
        raise GraphError(f"search limited to n <= {limit}")
    n = g.n
    if n < 4 or n % 2:
        return False, None
    if 2 * g.side_a.bit_count() != n:
        return False, None
    if min(g.degrees()) < 2:
        return False, None
    if not is_connected(g):
        return False, None
    adj = g.adj
    full = g.full_mask()
    path = [0]

    def feasible(visited: int, current: int) -> bool:
        open_mask = (full & ~visited) | (1 << current) | 1
        rest = full & ~visited
        for v in bits(rest):
            if (adj[v] & open_mask).bit_count() < 2:
                return False
        # unvisited region plus the current endpoint must stay connected
        return len(row_components(adj, rest | (1 << current))) == 1

    def extend(visited: int) -> bool:
        current = path[-1]
        if len(path) == n:
            return bool((adj[current] >> 0) & 1)
        if not feasible(visited, current):
            return False
        for u in bits(adj[current] & ~visited):
            path.append(u)
            if extend(visited | (1 << u)):
                return True
            path.pop()
        return False

    if extend(1):
        return True, Certificate("HamCycle", {"cycle": list(path)})
    return False, None


# -- certificate re-validation -------------------------------------------


def _vertex_mask(g: Graph, vertices) -> int | None:
    """The mask of ``vertices`` when they are distinct vertices of ``g``,
    else None."""
    mask = 0
    for v in vertices:
        if not isinstance(v, int) or not 0 <= v < g.n or (mask >> v) & 1:
            return None
        mask |= 1 << v
    return mask


def validate_certificate(g: Graph, cert: Certificate) -> bool:
    """Recheck a certificate against its host graph from scratch. A
    malformed certificate (missing or mistyped fields, vertices that are
    repeated or not in ``g``, pairs that are not edges) is False; this never
    raises."""
    try:
        return _certificate_holds(g, cert)
    except (LookupError, TypeError, ValueError):
        return False


def _certificate_holds(g: Graph, cert: Certificate) -> bool:
    p = cert.payload
    if cert.kind == "ViolatingSetS":
        s = p["set"]
        mask = _vertex_mask(g, s)
        if mask is None:
            return False
        o = _odd_components(g.adj, g.full_mask() & ~mask)
        if o != p.get("odd_components", o):
            return False
        k = p["k"]
        if p["criterion"] == "extendability":
            if _k_disjoint_edges(g.adj, mask, k) is None:
                return False
            return o > len(s) - 2 * k
        return len(s) >= k and o > len(s) - k
    if cert.kind == "ViolatingSubsetX":
        x = p["subset"]
        x_mask = _vertex_mask(g, x)
        if not x or x_mask is None:
            return False
        nbh = _neighborhood_mask(g.adj, x_mask)
        if p["criterion"] == "extendability":
            k = p["k"]
            # side_mask raises, so a host without sides is False
            a_count = g.side_mask(SIDE_A).bit_count()
            if p.get("reason") == "unbalanced-sides":
                return 2 * a_count != g.n
            return (nbh.bit_count() < len(x) + k
                    and len(x) <= a_count - k)
        targets = p["targets"]
        if p.get("reason") == "target-sum-mismatch":
            a, b = _ore_sides(g)
            return (sum(targets[v] for v in a)
                    != sum(targets[v] for v in b))
        lhs = sum(targets[v] for v in x)
        rhs = sum(min(targets[y], (g.adj[y] & x_mask).bit_count())
                  for y in bits(nbh))
        return lhs > rhs
    if cert.kind == "FactorSubgraph":
        k = p["k"]
        deg = [0] * g.n
        seen: set[tuple[int, int]] = set()
        for u, v in p["edges"]:
            if _vertex_mask(g, (u, v)) is None or not g.has_edge(u, v):
                return False
            e = (min(u, v), max(u, v))
            if e in seen:
                return False
            seen.add(e)
            deg[u] += 1
            deg[v] += 1
        return all(d == k for d in deg) if k else not p["edges"]
    if cert.kind == "HamCycle":
        cyc = p["cycle"]
        if len(cyc) != g.n or _vertex_mask(g, cyc) is None:
            return False
        return all(g.has_edge(cyc[i], cyc[(i + 1) % g.n])
                   for i in range(g.n))
    if cert.kind == "FailingMatching":
        k = p["k"]
        if p.get("reason") == "no-size-k-matching":
            return _pairs(_blossom_matching(g)) < k
        edges = [tuple(e) for e in p["matching"]]
        used = _vertex_mask(g, [v for e in edges for v in e])
        if (used is None or len(edges) != k
                or any(len(e) != 2 or not g.has_edge(*e) for e in edges)):
            return False
        return not _has_perfect_on(g.adj, g.full_mask() ^ used,
                                   [-1] * g.n)
    return False
