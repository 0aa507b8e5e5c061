"""Exact graph representation on bitset adjacency, construction algebra,
structural queries and graph6 I/O.

Vertices are always 0..n-1. ``adj[v]`` is an int whose bit ``u`` is set iff
``u ~ v``. Graphs are immutable; every constructor validates symmetry,
irreflexivity and (when present) the bipartition.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

SIDE_A = 0
SIDE_B = 1

GRAPH6_MAX_N = 258047  # largest order of the 4-byte long form
_GRAPH6_BAD_CHAR = re.compile(r"[^?-~]")
# the graph6 character of code 63 + v as the six bits of v, least
# significant first, indexed by code
_GRAPH6_BITS_REVERSED = [""] * 63 + [f"{v:06b}"[::-1] for v in range(64)]


class GraphError(ValueError):
    """A construction or query violated a structural contract."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with an optional bipartition.

    ``sides``, when not None, labels each vertex 0 (side A) or 1 (side B);
    every edge must then join A to B.
    """

    n: int
    adj: tuple[int, ...]
    sides: tuple[int, ...] | None = None

    def __post_init__(self):
        n = self.n
        if n < 0:
            raise GraphError("negative order")
        if len(self.adj) != n:
            raise GraphError("adjacency length != order")
        upper = 0
        total = 0
        for v, row in enumerate(self.adj):
            if row >> n:
                raise GraphError(f"vertex {v}: neighbor out of range")
            if (row >> v) & 1:
                raise GraphError(f"self-loop at {v}")
            total += row.bit_count()
            hi = row >> (v + 1)
            for off in bits(hi):
                u = v + 1 + off
                if not (self.adj[u] >> v) & 1:
                    raise GraphError(f"asymmetric pair ({v},{u})")
                upper += 1
        if total != 2 * upper:
            raise GraphError("asymmetric adjacency")
        if self.sides is not None:
            if len(self.sides) != n:
                raise GraphError("sides length != order")
            if any(s not in (SIDE_A, SIDE_B) for s in self.sides):
                raise GraphError("side labels must be 0 or 1")
            for v in range(n):
                for u in bits(self.adj[v] >> (v + 1)):
                    if self.sides[v] == self.sides[v + 1 + u]:
                        raise GraphError(
                            f"edge ({v},{v + 1 + u}) inside one side")

    # -- basic queries -------------------------------------------------

    @property
    def m(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            for off in bits(self.adj[v] >> (v + 1)):
                out.append((v, v + 1 + off))
        return out

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def side_mask(self, side: int) -> int:
        if self.sides is None:
            raise GraphError("graph carries no bipartition")
        return mask_of(v for v in range(self.n) if self.sides[v] == side)

    def side_vertices(self, side: int) -> list[int]:
        return list(bits(self.side_mask(side)))

    # -- derived graphs ------------------------------------------------

    def without_edges(self, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = list(self.adj)
        for u, v in edges:
            if not (adj[u] >> v) & 1:
                raise GraphError(f"edge ({u},{v}) not present")
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        return Graph(self.n, tuple(adj), self.sides)

    def with_edge_toggled(self, u: int, v: int) -> "Graph":
        if u == v:
            raise GraphError("cannot toggle a loop")
        if self.sides is not None and self.sides[u] == self.sides[v]:
            raise GraphError("toggle would break the bipartition")
        adj = list(self.adj)
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        return Graph(self.n, tuple(adj), self.sides)

    def drop_bipartition(self) -> "Graph":
        return Graph(self.n, self.adj, None) if self.sides is not None else self

    def induced(self, keep: Iterable[int]) -> "Graph":
        """Induced subgraph on ``keep``, relabeled densely in sorted order."""
        order = sorted(set(keep))
        pos = {v: i for i, v in enumerate(order)}
        if order and (order[0] < 0 or order[-1] >= self.n):
            raise GraphError("induced vertex out of range")
        adj = [0] * len(order)
        for i, v in enumerate(order):
            for u in bits(self.adj[v]):
                j = pos.get(u)
                if j is not None:
                    adj[i] |= 1 << j
        sides = None
        if self.sides is not None:
            sides = tuple(self.sides[v] for v in order)
        return Graph(len(order), tuple(adj), sides)


# -- constructors ------------------------------------------------------


def from_edges(n: int, edges: Iterable[tuple[int, int]],
               sides: Sequence[int] | None = None) -> Graph:
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range")
        if u == v:
            raise GraphError(f"self-loop at {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj), tuple(sides) if sides is not None else None)


def empty(n: int) -> Graph:
    return Graph(n, (0,) * n, None)


def complete(n: int) -> Graph:
    if n < 0:
        raise GraphError("negative order")
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)), None)


def complete_bipartite(p: int, q: int) -> Graph:
    if p < 0 or q < 0:
        raise GraphError("negative part size")
    a_mask = (1 << p) - 1
    b_mask = ((1 << q) - 1) << p
    adj = [b_mask] * p + [a_mask] * q
    sides = (SIDE_A,) * p + (SIDE_B,) * q
    return Graph(p + q, tuple(adj), sides)


def cycle(n: int) -> Graph:
    """Cycle C_n; bipartition by parity when n is even, none otherwise."""
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    edges = [(v, (v + 1) % n) for v in range(n)]
    sides = tuple(v & 1 for v in range(n)) if n % 2 == 0 else None
    return from_edges(n, edges, sides)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    adj = list(g.adj) + [row << g.n for row in h.adj]
    sides = None
    if g.sides is not None and h.sides is not None:
        sides = g.sides + h.sides
    return Graph(g.n + h.n, tuple(adj), sides)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint copies of g and h plus all cross edges; bipartition dropped."""
    u = disjoint_union(g.drop_bipartition(), h.drop_bipartition())
    g_mask = (1 << g.n) - 1
    h_mask = ((1 << h.n) - 1) << g.n
    adj = list(u.adj)
    for v in range(g.n):
        adj[v] |= h_mask
    for v in range(g.n, g.n + h.n):
        adj[v] |= g_mask
    return Graph(u.n, tuple(adj), None)


def bipartite_join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all edges between side A of g1 and side B of g2."""
    if g1.sides is None or g2.sides is None:
        raise GraphError("bipartite join needs bipartitions on both inputs")
    u = disjoint_union(g1, g2)
    x1 = g1.side_mask(SIDE_A)
    y2 = g2.side_mask(SIDE_B) << g1.n
    adj = list(u.adj)
    for v in bits(x1):
        adj[v] |= y2
    for v in bits(y2):
        adj[v] |= x1
    return Graph(u.n, tuple(adj), u.sides)


def remove_star(g: Graph, center: int, leaf_count: int) -> Graph:
    """Delete the edges from ``center`` to its ``leaf_count`` lowest neighbors."""
    if not 0 <= center < g.n:
        raise GraphError("center out of range")
    if leaf_count < 0:
        raise GraphError("negative leaf count")
    if g.degree(center) < leaf_count:
        raise GraphError(
            f"center {center} has degree {g.degree(center)} < {leaf_count}")
    leaves = []
    for u in bits(g.adj[center]):
        if len(leaves) == leaf_count:
            break
        leaves.append(u)
    return g.without_edges((center, u) for u in leaves)


# -- structural queries ------------------------------------------------


def _check_vertex_set(g: Graph, s: Iterable[int]) -> int:
    m = 0
    for v in s:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range")
        m |= 1 << v
    return m


def row_components(adj: Sequence[int], alive: int) -> list[int]:
    """Connected components (as bitmasks) of the subgraph that the adjacency
    rows ``adj`` induce on ``alive``, lowest vertex first."""
    comps = []
    rest = alive
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            nxt = 0
            while frontier:
                b = frontier & -frontier
                nxt |= adj[b.bit_length() - 1]
                frontier ^= b
            frontier = nxt & rest & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def rows_connected(adj: Sequence[int]) -> bool:
    """Whether the graph with adjacency rows ``adj`` is connected."""
    return len(adj) <= 1 or len(row_components(adj, (1 << len(adj)) - 1)) == 1


def component_masks(g: Graph) -> list[int]:
    """Connected components of ``g`` as bitmasks."""
    return row_components(g.adj, g.full_mask())


def is_connected(g: Graph) -> bool:
    return rows_connected(g.adj)


def edge_counts(g: Graph, x: Iterable[int], y: Iterable[int]) -> tuple[int, int]:
    """(#edges inside x, #edges between x and y); x and y must be disjoint."""
    x_mask = _check_vertex_set(g, x)
    y_mask = _check_vertex_set(g, y)
    if x_mask & y_mask:
        raise GraphError("cross count needs disjoint sets")
    inside = sum((g.adj[v] & x_mask).bit_count() for v in bits(x_mask)) // 2
    cross = sum((g.adj[v] & y_mask).bit_count() for v in bits(x_mask))
    return inside, cross


def infer_bipartition(g: Graph) -> Graph | None:
    """Two-color g if bipartite, flipping components so side A hits n//2
    vertices when possible; returns None on an odd cycle."""
    if g.sides is not None:
        return g
    color = [-1] * g.n
    comp_choices = []  # (vertices, colors) per component
    for comp in component_masks(g):
        root = (comp & -comp).bit_length() - 1
        color[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for u in bits(g.adj[v]):
                    if color[u] == -1:
                        color[u] = color[v] ^ 1
                        nxt.append(u)
                    elif color[u] == color[v]:
                        return None
            frontier = nxt
        verts = list(bits(comp))
        a_count = sum(1 for v in verts if color[v] == 0)
        comp_choices.append((verts, a_count))
    target = g.n // 2
    # suffix-reachable side-A totals; prefer the unflipped orientation
    reach = [set() for _ in range(len(comp_choices) + 1)]
    reach[-1].add(0)
    for i in range(len(comp_choices) - 1, -1, -1):
        verts, a_count = comp_choices[i]
        b_count = len(verts) - a_count
        reach[i] = {a_count + r for r in reach[i + 1]}
        reach[i] |= {b_count + r for r in reach[i + 1]}
    flips = []
    need = target
    feasible = g.n % 2 == 0 and need in reach[0]
    for i, (verts, a_count) in enumerate(comp_choices):
        b_count = len(verts) - a_count
        if feasible and need - a_count in reach[i + 1]:
            flips.append(False)
            need -= a_count
        elif feasible and need - b_count in reach[i + 1]:
            flips.append(True)
            need -= b_count
        else:
            flips.append(False)
    sides = [0] * g.n
    for (verts, _), flip in zip(comp_choices, flips):
        for v in verts:
            sides[v] = color[v] ^ (1 if flip else 0)
    return Graph(g.n, g.adj, tuple(sides))


# -- graph6 ------------------------------------------------------------


def graph6_encode(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= GRAPH6_MAX_N:
        head = "~" + chr(63 + ((n >> 12) & 63)) + chr(63 + ((n >> 6) & 63)) \
            + chr(63 + (n & 63))
    else:
        raise GraphError(f"graph6 supports n <= {GRAPH6_MAX_N}")
    chunks = []
    acc = 0
    nb = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nb += 1
            if nb == 6:
                chunks.append(chr(acc + 63))
                acc = 0
                nb = 0
    if nb:
        chunks.append(chr((acc << (6 - nb)) + 63))
    return head + "".join(chunks)


def graph6_decode(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise GraphError("empty graph6 string")
    bad = _GRAPH6_BAD_CHAR.search(s)
    if bad:
        raise GraphError(f"malformed graph6 character {bad.group()!r}")
    raw = s.encode("ascii")
    if raw[0] < 126:
        n = raw[0] - 63
        body = raw[1:]
    else:
        if len(raw) >= 2 and raw[1] == 126:
            raise GraphError("graph6 long-long form not supported")
        if len(raw) < 4:
            raise GraphError("truncated graph6 header")
        n = ((raw[1] - 63) << 12) | ((raw[2] - 63) << 6) | (raw[3] - 63)
        body = raw[4:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise GraphError(
            f"graph6 bit stream has {len(body)} chars, expected {need}")
    # bit i of ``stream`` is bit i of the body's bit stream
    stream = int("".join(map(_GRAPH6_BITS_REVERSED.__getitem__,
                             reversed(body))) or "0", 2)
    if stream >> nbits:
        raise GraphError("nonzero graph6 padding bits")
    adj = [0] * n
    for j in range(1, n):
        col = stream & ((1 << j) - 1)  # the pairs (i, j) with i < j
        stream >>= j
        adj[j] = col
        for i in bits(col):
            adj[i] |= 1 << j
    return Graph(n, tuple(adj), None)
