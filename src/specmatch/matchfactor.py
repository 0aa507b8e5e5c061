"""Exact matchings, extendability and factor criteria, flow-based factor
construction, perfect-matching decomposition and Hamilton-cycle search.

Every negative verdict carries a certificate that re-validates against the
host graph by an independent recomputation (see ``validate_certificate``).

Each extendability and factor-criticality checker runs one route, and a
negative's certificate is that route's own witness.
``is_k_extendable_chen`` and ``is_k_factor_critical`` decide from
Gallai-Edmonds outer sets whether every size-k matching, or every k-set
deletion, leaves a perfect matching: one blossom search per
(k-1)-prefix, and for Chen per vertex of it (``_chen_decides``,
``_kfc_decides``), which is polynomial for fixed k. A negative decision
stops at its first failing size-k matching M, or k-set T. The remainder
G'' = G-V(M), or G-T, has no perfect matching, and its Gallai-Edmonds
barrier A (``_barrier``) completes the certificate: S = V(M)+A, or T+A,
leaves |A| plus the deficiency of G'' odd components, so it violates the
odd-component criterion by exactly that deficiency.
``is_k_extendable_plummer`` decides by the surplus route, whose failing
replicated Hall test is a violating subset of side A. The literal
definitional scan, one perfect-matching test per size-k matching
(``is_k_extendable_definitional``), is an oracle only: Plummer's in
``harness.ROUTES``, and the opponent of both extendability routes in
``cross-check``. Ore's criterion (``has_f_factor_ore``), the flow route's
oracle, searches the subsets of side A in lexicographic order without
pruning and certifies with the excess-maximal, lex-least one.

General matchings come from Edmonds' blossom algorithm on the bitset rows
(``_blossom_augment``: one search from an exposed root inside an ``alive``
mask, augmenting a partner list in place, or else returning its tree's
outer vertices). Each Chen, definitional and factor-criticality call
finds one maximum matching of G and warm-starts every later question from
it: a matching of G-D (D a (k-1)-matching's or a size-k matching's
vertices, or a set of deleted vertices) keeps the pairs that stay inside
G-D and augments only from the vertices left exposed (``_reaching``,
``_barrier``). The (near-)perfect matchings of the outer-set decisions,
the tests of the definitional scan and the maximum matching of a
barrier's remainder are such matchings. The edge list of
``max_matching_general`` (smallest active vertex, smallest partner) is
rebuilt the same way, one test per candidate partner; the checkers read
only the matching number and build that list only for a
``no-size-k-matching`` certificate.

One augmenting-path routine, ``_augment`` (Kuhn), serves every bipartite
matching: maximum matchings, the surplus route's replicated Hall test and
``harness.random_regular_bipartite``; each caller keeps its own unit
order, candidate order and failure policy.

No search recurses, so the recursion limit bounds no input: Kuhn's
(``_augment``), the blossom search, Dinic's (``_Dinic``), Ore's DFS, the
Hamilton search and ``iter_k_matchings`` each keep an explicit stack.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .graph import (Graph, GraphError, SIDE_A, SIDE_B, bits, is_connected,
                    mask_of, row_components)

# the largest order of the Hamilton search, and side A of Ore's criterion
EXHAUSTIVE_LIMIT = 20
# the largest order of the definitional scan
GENERAL_MATCHING_LIMIT = 24

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
    have too few candidates between them (Hall's condition fails). The
    path is kept on an explicit stack, not on the interpreter's, so its
    length is not bounded by the recursion limit."""
    path: list[int] = []  # the candidate that each unit on the path takes
    tries = [iter(cands[unit])]  # each such unit's candidates not yet tried
    while tries:
        for b in tries[-1]:
            if b in seen:
                continue
            seen.add(b)
            path.append(b)
            other = owner.get(b)
            if other is None:
                # each unit takes its candidate from the next one
                for taken in path:
                    owner[taken], unit = unit, owner.get(taken)
                return True
            tries.append(iter(cands[other]))
            break
        else:
            # the last unit cannot move on: the one before it tries on
            tries.pop()
            if path:
                path.pop()
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


def _restricted(match: Sequence[int],
                alive: int) -> tuple[list[int], list[int]]:
    """A copy of ``match`` without the pairs that leave ``alive``, and the
    vertices of ``alive`` that it leaves exposed, ascending."""
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
    return out, exposed


def _reaching(adj: Sequence[int], alive: int, match: Sequence[int],
              need: int) -> list[int] | None:
    """A matching of G[alive] with at least ``need`` pairs, or None when
    nu(G[alive]) < ``need``. Warm start: ``match`` restricted to ``alive``
    (``_restricted``), augmented from the vertices it leaves exposed,
    ascending, until ``need`` pairs are matched. A vertex whose search
    fails never gains an augmenting path by later augmentations, so it
    stays exposed: the search stops once those vertices leave too few to
    hold ``need`` pairs (for a perfect matching, at the first failure)."""
    out, exposed = _restricted(match, alive)
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
    return 2 * _pairs(_blossom_matching(g)) == g.n


def iter_k_matchings(g: Graph, k: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All matchings of size k: the k-combinations of ``g.edges()`` whose
    edges share no vertex, in lexicographic order. The chosen edges are an
    explicit stack, each with an iterator of the later edges that may
    follow it; an edge that meets them is skipped."""
    if k == 0:
        yield ()
        return
    edges = g.edges()
    pairs = [1 << u | 1 << v for u, v in edges]
    stop = len(edges) - k + 1  # the edge at depth d has index < stop + d
    chosen: list[tuple[int, int]] = []
    # per depth d: the indices left to try there, and the vertices that
    # chosen[:d] cover
    tries = [(iter(range(stop)), 0)]
    while tries:
        left, used = tries[-1]
        for i in left:
            if not used & pairs[i]:
                chosen.append(edges[i])
                if len(chosen) == k:
                    yield tuple(chosen)
                    chosen.pop()
                    continue
                tries.append((iter(range(i + 1, stop + len(chosen))),
                              used | pairs[i]))
                break
        else:
            tries.pop()
            del chosen[-1:]  # the edge that opened this depth, if any


# -- odd components and Gallai-Edmonds barriers --------------------------


def _odd_components(adj: Sequence[int], alive: int) -> int:
    """The number of odd components of the subgraph that ``adj`` induces
    on ``alive``."""
    return sum(c.bit_count() & 1 for c in row_components(adj, alive))


def _neighborhood_mask(adj: Sequence[int], x_mask: int) -> int:
    out = 0
    for v in bits(x_mask):
        out |= adj[v]
    return out


def _barrier(adj: Sequence[int], alive: int, match: Sequence[int]) -> int:
    """The Gallai-Edmonds barrier A = N(D)-D of G[alive], D being the
    vertices that some maximum matching of G[alive] misses (Lovasz-Plummer,
    *Matching Theory*). The odd components of G[alive]-A are those of
    G[D], |A| plus the deficiency |alive|-2*nu(G[alive]) of them; the rest
    of G[alive]-A has a perfect matching.

    A maximum matching is warm-started from ``match`` (``_restricted``),
    with one blossom search from each vertex still exposed at its turn,
    and D is the union of the outer sets of the searches that fail. A
    failed search completes its tree, no later augmenting path enters it
    and no edge leaves its outer vertices (Edmonds' Hungarian tree), so
    its outer set is the same under the final maximum matching."""
    out, exposed = _restricted(match, alive)
    d = 0
    for v in exposed:
        if out[v] < 0:
            d |= _blossom_augment(adj, alive, out, v)  # 0 when it augments
    return _neighborhood_mask(adj, d) & alive & ~d


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


def _barrier_certificate(g: Graph, criterion: str, k: int, removed: int,
                         match: Sequence[int], **extra) -> Certificate:
    """The ``ViolatingSetS`` S = ``removed`` + A for a set ``removed`` (the
    vertices of a size-k matching, or k vertices) whose deletion leaves no
    perfect matching, A being the barrier of G'' = G-``removed``
    (``_barrier``, warm-started from the maximum matching ``match`` of G).
    G-S = G''-A has |A| + def(G'') odd components, so the excess
    o(G-S)-|S|+c is def(G'') >= 1, c being |``removed``| (2k for
    extendability, k for factor-criticality)."""
    alive = g.full_mask() ^ removed
    return _odd_set_certificate(g, criterion, k,
                                removed | _barrier(g.adj, alive, match),
                                **extra)


# -- k-extendability -----------------------------------------------------


def _require_positive_k(k: int) -> None:
    if k < 1:
        raise GraphError(
            "k must be >= 1; use has_perfect_matching for the base case")


def _require_extendable_input(g: Graph, k: int) -> None:
    _require_positive_k(k)
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


def _outer_misses(adj: Sequence[int], alive: int, match: list[int],
                  root: int, target: int) -> int:
    """The vertices of ``target`` outside D(G[alive]), the vertices that
    some maximum matching of G[alive] misses (0 when D holds all of
    ``target``), given a matching ``match`` of G[alive] that leaves only
    ``root`` exposed (``match[root]`` may name a partner outside ``alive``:
    it is read as -1 and restored on return). One blossom search from
    ``root`` decides all of ``target``: it ends once they are all outer,
    or with the completed tree, whose outer vertices are D."""
    mate = match[root]
    match[root] = -1
    outer = _blossom_augment(adj, alive, match, root, target)
    match[root] = mate
    return target & ~outer


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _chen_decides(g: Graph, k: int, match: Sequence[int]
                  ) -> tuple[tuple[int, int], ...] | None:
    """The first size-k matching of ``g`` whose removal leaves no perfect
    matching, or None when every size-k matching leaves one, given a
    maximum matching ``match`` of ``g`` with at least k pairs.

    A size-k matching is a (k-1)-matching P and an edge uv of
    G' = G - V(P). For each P, in lex order, a perfect matching M' of G'
    is warm-started from ``match``. Without one, P and any edge of G' fail
    (G'-u-v has no perfect matching either), so P with the lex-first edge
    of G' is returned; a G' without an edge extends P to no size-k
    matching. With M', G'-u-v has a perfect matching exactly when v is in
    D(G'-u), in which M' leaves only M'(u) exposed; so one search from
    M'(u) decides every edge from u to a later vertex v other than M'(u)
    (``_outer_misses``), and P with uv, v the least vertex it misses, is
    returned."""
    adj = g.adj
    full = g.full_mask()
    for prefix in iter_k_matchings(g, k - 1):
        alive = full
        for u, v in prefix:
            alive ^= 1 << u | 1 << v
        perfect = _reaching(adj, alive, match, alive.bit_count() // 2)
        if perfect is None:
            for u in bits(alive):
                if adj[u] & alive:
                    return prefix + ((u, _lowest(adj[u] & alive)),)
            continue
        later = alive
        while later:
            b = later & -later
            later ^= b
            u = b.bit_length() - 1
            root = perfect[u]
            target = adj[u] & later & ~(1 << root)
            missed = target and _outer_misses(adj, alive ^ b, perfect, root,
                                              target)
            if missed:
                return prefix + ((u, _lowest(missed)),)
    return None


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


def is_k_extendable_chen(g: Graph,
                         k: int) -> tuple[bool, Certificate | None]:
    """k-extendability of a connected graph of even order.

    Outer sets decide (``_chen_decides``): a size-k matching exists, and
    for every (k-1)-matching P and vertex u of G' = G - V(P), every later
    neighbor v of u lies in the Gallai-Edmonds set D(G'-u), so that
    G'-u-v keeps a perfect matching. One maximum matching of G, found by
    Edmonds' blossom algorithm, warm-starts the perfect matching of every
    G'. A negative is certified by the failing size-k matching M that the
    decision stops at: S = V(M) plus the barrier of G - V(M)
    (``_barrier_certificate``), with M's edges as its witness. A graph
    without a size-k matching gets a ``no-size-k-matching`` certificate
    that lists ``max_matching(g)``."""
    _require_extendable_input(g, k)
    match = _blossom_matching(g)
    if _pairs(match) < k:
        return False, _no_k_matching_certificate(k, max_matching(g))
    m_edges = _chen_decides(g, k, match)
    if m_edges is None:
        return True, None
    removed = mask_of(v for e in m_edges for v in e)
    return False, _barrier_certificate(
        g, "extendability", k, removed, match,
        witness_edges=[list(e) for e in m_edges])


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
    _require_positive_k(k)
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
        g: Graph, k: int) -> tuple[bool, Certificate | None]:
    """k-extendability of a bipartite graph by the neighborhood-surplus
    criterion: the polynomial surplus route (``_plummer_surplus``) decides,
    and its failing Hall test certifies a negative. Unbalanced sides yield
    an immediate negative with a size certificate."""
    decided = _plummer_decided(g, k)
    if decided is not None:
        return decided
    return _plummer_surplus(g, g.side_vertices(SIDE_A),
                            g.side_vertices(SIDE_B), k)


# -- bipartite f-factors -------------------------------------------------


def _factor_targets(g: Graph, f) -> tuple[int, ...]:
    """The targets of ``f``: a ``FactorSpec`` is taken as it is, and any
    other iterable becomes one once its length is checked."""
    spec = isinstance(f, FactorSpec)
    targets = f.targets if spec else tuple(int(t) for t in f)
    if len(targets) != g.n:
        raise GraphError("factor spec length != order")
    return targets if spec else FactorSpec(targets).targets


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
    (Ore), exhaustive over the nonempty subsets X of side A
    (|A| <= ``limit``): the excess-maximal, lex-least X with lhs > rhs
    certifies a negative, lhs being the sum of f over X and rhs the sum
    over y in N(X) of min(f(y), |N(y) & X|).

    The subsets are met by a pre-order DFS over ascending tuples of side-A
    vertices, children in ascending order, which meets them in the
    lexicographic order of their sorted vertex lists: a tuple comes right
    after its parent (a prefix, so smaller) and before its later siblings
    (a larger vertex at the first difference). So the first set met at an
    excess is the lex-least one at it, and a later set replaces the best
    only at a strictly greater excess. Nothing is pruned: rhs is skipped
    for a set whose lhs cannot beat the best (rhs >= 0), and the search
    stops early only when the best reaches the sum of f over A, which no
    excess exceeds. So the criterion stays independent of the flow
    route."""
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
    last = len(a_verts)
    best = 0
    best_set = 0
    # each entry resumes a level: (next index into a_verts, the parent's
    # mask, neighborhood and lhs)
    stack = [(0, 0, 0, 0)]
    while stack:
        i, mask, nbh, lhs = stack.pop()
        while i < last:
            v = a_verts[i]
            i += 1
            m = mask | 1 << v
            nb = nbh | adj[v]
            s = lhs + targets[v]
            if s > best:
                e = s - sum(min(targets[y], (adj[y] & m).bit_count())
                            for y in bits(nb))
                if e > best:
                    best, best_set = e, m
                    if e >= sum_a:
                        stack.clear()
                        break
            if i < last:
                stack.append((i, mask, nbh, lhs))
                mask, nbh, lhs = m, nb, s
    if not best_set:
        return True, None
    return False, _deficiency_certificate(adj, "f-factor", targets,
                                          list(bits(best_set)))


class _Dinic:
    def __init__(self, n: int):
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
        """Dinic's maximum flow from ``s`` to ``t``. A phase levels the
        residual arcs breadth-first from ``s``, then walks up the levels on
        an explicit path of arcs, each vertex resuming at its current arc,
        and pushes the path's least capacity whenever it reaches ``t``.
        The last ``level`` is kept: its vertices >= 0 are the residual
        reach from ``s``, the source side of a minimum cut."""
        head, to, cap = self.head, self.to, self.cap
        flow = 0
        while True:
            level = [-1] * len(head)
            level[s] = 0
            queue = [s]
            for u in queue:
                for e in head[u]:
                    v = to[e]
                    if cap[e] > 0 and level[v] == -1:
                        level[v] = level[u] + 1
                        queue.append(v)
            self.level = level
            if level[t] == -1:
                return flow
            it = [0] * len(head)
            path: list[int] = []  # the arcs from s to u
            u = s
            while True:
                arcs, up = head[u], level[u] + 1
                i = it[u]
                while i < len(arcs) and not (cap[arcs[i]] > 0
                                             and level[to[arcs[i]]] == up):
                    i += 1
                it[u] = i
                if i < len(arcs):
                    path.append(arcs[i])
                    u = to[arcs[i]]
                elif path:  # a dead end: retire the arc into it
                    u = to[path.pop() ^ 1]
                    it[u] += 1
                else:
                    break
                if u == t:
                    pushed = min(cap[e] for e in path)
                    for e in path:
                        cap[e] -= pushed
                        cap[e ^ 1] += pushed
                    flow += pushed
                    path.clear()
                    u = s


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
    if net.max_flow(s, t) == sum(targets[a] for a in a_verts):
        return True, sorted((min(a, b), max(a, b))
                            for a, b, e in edge_arcs if net.cap[e] == 0)
    return False, [a for a in a_verts if net.level[1 + pos[a]] >= 0]


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


def _require_kfc_input(g: Graph, k: int) -> None:
    _require_positive_k(k)
    if k > g.n:
        raise GraphError("k exceeds the order")


def _kfc_decides(g: Graph, k: int,
                 match: Sequence[int]) -> tuple[int, ...] | None:
    """The first k-set T of ``g`` whose deletion leaves no perfect
    matching, or None when every k-set leaves one, given a maximum matching
    ``match`` of ``g``. When n-k is odd every k-set fails, and T is
    {0, ..., k-1}.

    A k-set is a (k-1)-set prefix T' and a later vertex t. For each T', in
    lex order, a near-perfect matching of the odd-order G - T' is
    warm-started from ``match``; without one every t fails, and T' with
    the least later t is returned. With it, G-T'-t has a perfect matching
    exactly when t is in D(G-T'), and one search from the exposed vertex
    decides every later t (``_outer_misses``); T' with the least t it
    misses is returned."""
    n = g.n
    if n % 2 != k % 2:
        return tuple(range(k))
    adj = g.adj
    full = g.full_mask()
    # a prefix whose last vertex is n-1 has no later vertex
    for prefix in combinations(range(n - 1), k - 1):
        alive = full ^ mask_of(prefix)
        later = full & -(2 << prefix[-1]) if prefix else full
        near = _reaching(adj, alive, match, alive.bit_count() // 2)
        if near is None:
            missed = later
        else:
            root = next(v for v in bits(alive) if near[v] < 0)
            target = later & ~(1 << root)
            missed = target and _outer_misses(adj, alive, near, root,
                                              target)
        if missed:
            return prefix + (_lowest(missed),)
    return None


def is_k_factor_critical(g: Graph,
                         k: int) -> tuple[bool, Certificate | None]:
    """k-factor-criticality of a graph.

    Outer sets decide (``_kfc_decides``): n-k is even, and for every
    (k-1)-set T', every vertex after T' lies in the Gallai-Edmonds set
    D(G-T'), so that deleting it too leaves a perfect matching. One
    maximum matching of G, found by Edmonds' blossom algorithm,
    warm-starts the near-perfect matching of every G-T'. A negative is
    certified by the failing k-set T that the decision stops at: S = T
    plus the barrier of G - T (``_barrier_certificate``)."""
    _require_kfc_input(g, k)
    match = _blossom_matching(g)
    failing = _kfc_decides(g, k, match)
    if failing is None:
        return True, None
    return False, _barrier_certificate(g, "factor-critical", k,
                                       mask_of(failing), match)


# -- Hamilton cycles -----------------------------------------------------


def hamiltonian_cycle(
        g: Graph,
        limit: int = EXHAUSTIVE_LIMIT) -> tuple[bool, Certificate | None]:
    """Backtracking Hamilton-cycle search on balanced bipartite graphs with
    degree and connectivity pruning: a path from vertex 0 tries the
    neighbours of its end in ascending order, one iterator per path vertex
    on an explicit stack, and steps back once its end has none left."""
    if g.side_a is None:
        raise GraphError("search expects a bipartite graph")
    if g.n > limit:
        raise GraphError(f"search limited to n <= {limit}")
    n = g.n
    if (n < 4 or n % 2 or 2 * g.side_a.bit_count() != n
            or min(g.degrees()) < 2 or not is_connected(g)):
        return False, None
    adj = g.adj
    full = g.full_mask()

    def feasible(visited: int, current: int) -> bool:
        rest = full & ~visited
        open_mask = rest | (1 << current) | 1
        if any((adj[v] & open_mask).bit_count() < 2 for v in bits(rest)):
            return False
        # unvisited region plus the current endpoint must stay connected
        return len(row_components(adj, rest | (1 << current))) == 1

    path, visited = [0], 1
    # each path vertex's neighbours not yet tried as its successor
    tries = [bits(adj[0])] if feasible(1, 0) else []
    while tries:
        u = next(tries[-1], None)
        if u is None:
            tries.pop()  # the path's end has no neighbour left: step back
        else:
            path.append(u)
            visited |= 1 << u
            if len(path) == n:
                if adj[u] & 1:
                    return True, Certificate("HamCycle", {"cycle": path})
            elif feasible(visited, u):
                tries.append(bits(adj[u] & ~visited))
                continue
        visited ^= 1 << path.pop()
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


def _k_of(p: dict, least: int = 1) -> int:
    """The payload's k, which must be an int (not a bool) >= ``least``."""
    k = p["k"]
    if not isinstance(k, int) or isinstance(k, bool) or k < least:
        raise ValueError(f"k must be an int >= {least}, got {k!r}")
    return k


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
        k = _k_of(p)
        if p["criterion"] == "extendability":
            if _reaching(g.adj, mask, [-1] * g.n, k) is None:
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
            k = _k_of(p)
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
        k = _k_of(p, 0)
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
        k = _k_of(p)
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
