"""Exact graph representation on bitset adjacency, construction algebra,
structural queries and graph6 I/O.

Vertices are always 0..n-1. ``adj[v]`` is an int whose bit ``u`` is set iff
``u ~ v``. A bipartition is one such vertex mask, ``side_a``: side A is its
set bits, side B every other vertex. Graphs are immutable.

A graph is validated once, where it enters the library: ``Graph(...)``
checks the range, symmetry and irreflexivity of its rows and (when present)
the bipartition, and so do the public constructors built on it
(``from_edges`` and the derived graphs). ``graph6_decode``'s text checks
validate a graph6 line. Builders whose rows are valid by construction (the
graph6 decoder after those checks, ``infer_bipartition``, the samplers and
the family blow-ups) make their graph with ``Graph._trusted``, which skips
the row checks.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

SIDE_A = 0
SIDE_B = 1

GRAPH6_MAX_N = 258047  # largest order of the 4-byte long form
_GRAPH6_BAD_CHAR = re.compile(r"[^?-~]")


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

    ``side_a``, when not None, is the vertex mask of side A; side B is every
    other vertex, and every edge must then join A to B.

    ``Graph(...)`` validates its fields (``__post_init__``) and raises
    GraphError naming the first fault. ``Graph._trusted`` builds a graph
    from rows that are valid by construction, without that check.
    """

    n: int
    adj: tuple[int, ...]
    side_a: int | None = None

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
        side_a = self.side_a
        if side_a is not None:
            if side_a < 0 or side_a >> n:
                raise GraphError("side A mask out of range")
            side_b = ((1 << n) - 1) ^ side_a
            for v, row in enumerate(self.adj):
                # the rows are symmetric, so the first row with a bad bit
                # meets its lowest pair here
                bad = row & (side_a if side_a >> v & 1 else side_b)
                if bad:
                    u = (bad & -bad).bit_length() - 1
                    raise GraphError(f"edge ({v},{u}) inside one side")

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...],
                 side_a: int | None = None) -> "Graph":
        """The graph with these fields, set without ``__post_init__``'s
        checks: for library builders whose rows are symmetric, loop-free
        and in range, and whose ``side_a`` is a bipartition of them, by
        construction."""
        g = object.__new__(cls)
        vars(g).update(n=n, adj=adj, side_a=side_a)
        return g

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
        side_a = self.side_a
        if side_a is None:
            raise GraphError("graph carries no bipartition")
        return side_a if side == SIDE_A else self.full_mask() ^ side_a

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
        return Graph(self.n, tuple(adj), self.side_a)

    def with_edge_toggled(self, u: int, v: int) -> "Graph":
        if u == v:
            raise GraphError("cannot toggle a loop")
        if self.side_a is not None and not (self.side_a >> u
                                            ^ self.side_a >> v) & 1:
            raise GraphError("toggle would break the bipartition")
        adj = list(self.adj)
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        return Graph(self.n, tuple(adj), self.side_a)

    def drop_bipartition(self) -> "Graph":
        return Graph(self.n, self.adj) if self.side_a is not None else self

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
        side_a = None
        if self.side_a is not None:
            side_a = mask_of(i for i, v in enumerate(order)
                             if self.side_a >> v & 1)
        return Graph(len(order), tuple(adj), side_a)


# -- constructors ------------------------------------------------------


def from_edges(n: int, edges: Iterable[tuple[int, int]],
               side_a: int | None = None) -> Graph:
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range")
        if u == v:
            raise GraphError(f"self-loop at {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj), side_a)


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
    return Graph(p + q, (b_mask,) * p + (a_mask,) * q, a_mask)


def cycle(n: int) -> Graph:
    """Cycle C_n; when n is even, side A is the even vertices, else there is
    no bipartition."""
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    edges = [(v, (v + 1) % n) for v in range(n)]
    # (4^(n/2) - 1) / 3 sets bits 0, 2, ..., n-2
    return from_edges(n, edges, ((1 << n) - 1) // 3 if n % 2 == 0 else None)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    adj = list(g.adj) + [row << g.n for row in h.adj]
    side_a = None
    if g.side_a is not None and h.side_a is not None:
        side_a = g.side_a | h.side_a << g.n
    return Graph(g.n + h.n, tuple(adj), side_a)


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


def adjacency_bits(graphs: Sequence[Graph]) -> np.ndarray:
    """The 0/1 uint8 adjacency matrices of m >= 1 graphs of one order n, as
    one C-contiguous (m, n, n) stack: each row's bitset is written out as
    little-endian bytes and the stack is unpacked bit by bit in one call.
    ``bitset_rows`` is its inverse."""
    n = graphs[0].n
    nb = (n + 7) // 8
    packed = np.frombuffer(b"".join(row.to_bytes(nb, "little")
                                    for g in graphs for row in g.adj),
                           dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(graphs), n, nb), axis=2,
                         count=n, bitorder="little")


def bitset_rows(adj: np.ndarray) -> Iterator[list[int]]:
    """The bitset rows of each matrix of a stack of boolean adjacency
    matrices, in stack order; the rows of one matrix are built only when
    the iteration reaches it."""
    count, n = adj.shape[:2]
    packed = np.packbits(adj, axis=2, bitorder="little")
    width = packed.shape[2]
    data = packed.tobytes()
    for j in range(count):
        base = j * n * width
        yield [int.from_bytes(data[base + i * width:base + (i + 1) * width],
                              "little") for i in range(n)]


# -- structural queries ------------------------------------------------


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


def infer_bipartition(g: Graph) -> Graph | None:
    """Two-color g if bipartite, flipping components so side A hits n//2
    vertices when possible; returns None on an odd cycle.

    Each component is colored by its BFS layers, its lowest vertex on side
    A. Earlier components choose first, and a component is flipped only
    when keeping it can no longer reach n//2."""
    if g.side_a is not None:
        return g
    adj = g.adj
    comps = []  # (component, its vertices at even BFS depth)
    rest = g.full_mask()
    while rest:
        comp = frontier = rest & -rest
        layers = [frontier, 0]
        depth = 0
        while frontier:
            nxt = 0
            while frontier:
                b = frontier & -frontier
                nxt |= adj[b.bit_length() - 1]
                frontier ^= b
            frontier = nxt & rest & ~comp
            comp |= frontier
            depth ^= 1
            layers[depth] |= frontier
        comps.append((comp, layers[0]))
        rest &= ~comp
    side_a = sum(even for _, even in comps)
    for v, row in enumerate(adj):
        if row & (side_a if side_a >> v & 1 else ~side_a):
            return None
    # reach[i]: bit t is set when components i.. can put t vertices on A
    reach = [1]
    for comp, even in reversed(comps):
        a = even.bit_count()
        reach.append(reach[-1] << a | reach[-1] << comp.bit_count() - a)
    reach.reverse()
    need = g.n // 2
    if g.n % 2 or not reach[0] >> need & 1:
        return Graph._trusted(g.n, adj, side_a)
    for (comp, even), after in zip(comps, reach[1:]):
        a = even.bit_count()
        if need < a or not after >> (need - a) & 1:
            side_a ^= comp
            a = comp.bit_count() - a
        need -= a
    return Graph._trusted(g.n, adj, side_a)


# -- graph6 ------------------------------------------------------------


@lru_cache(maxsize=64)
def _graph6_cells(n: int) -> np.ndarray:
    """The flat cells u * n + v of an n x n adjacency matrix whose bits,
    packed eight at a time, are a graph6 body's characters less 63: each
    character's two high bits and the last one's padding read cell 0, the
    diagonal entry (0, 0), which is zero in every graph; its six low bits
    read the next six of the strictly lower triangle, row-major. Read-only:
    every caller shares the cached array."""
    lower = np.flatnonzero(np.tri(n, k=-1, dtype=bool))
    at = np.arange(len(lower))
    cells = np.zeros(8 * ((len(lower) + 5) // 6), dtype=np.intp)
    cells[at // 6 * 8 + 2 + at % 6] = lower
    cells.flags.writeable = False
    return cells


def graph6_encode(g: Graph) -> str:
    """The graph6 line of ``g``: the one-graph case of
    ``graph6_encode_many``."""
    return graph6_encode_many([g])[0]


def graph6_encode_many(graphs: Sequence[Graph]) -> list[str]:
    """The graph6 line of each of the graphs, all of one order n, in order.

    The graphs' rows are unpacked into one 0/1 stack (``adjacency_bits``),
    so a caller passes at most one stack's worth of graphs at a time
    (verify passes one eigensolve stack, ``spectra.stack_size(n)``).
    Each graph's bit stream is its strictly lower triangle read row-major,
    the order ``graph6_decode`` describes, zero-padded to whole six-bit
    groups; each group, most significant bit first, plus 63 is one body
    character (``_graph6_cells`` reads the groups off the stack). One
    ASCII decode makes the bodies text."""
    if not graphs:
        return []
    n = graphs[0].n
    if n <= 62:
        head = chr(n + 63)
    elif n <= GRAPH6_MAX_N:
        head = "~" + chr(63 + ((n >> 12) & 63)) + chr(63 + ((n >> 6) & 63)) \
            + chr(63 + (n & 63))
    else:
        raise GraphError(f"graph6 supports n <= {GRAPH6_MAX_N}")
    cells = _graph6_cells(n)
    need = len(cells) // 8
    m = len(graphs)
    body = np.packbits(adjacency_bits(graphs).reshape(m, n * n)[:, cells],
                       axis=1)
    text = (body + np.uint8(63)).tobytes().decode("ascii")
    return [head + text[i * need:(i + 1) * need] for i in range(m)]


def graph6_decode(text: str) -> Graph:
    """The graph of one graph6 line (surrounding whitespace ignored).

    The text checks are the line's validation, and each raises GraphError:
    every character lies in '?'..'~', the header is a short or 4-byte long
    form, the body has exactly the characters that n(n-1)/2 bits need, and
    the padding bits are zero. Each body character is 63 plus six bits,
    most significant first; the bit stream lists the pairs (i, j), i < j,
    column by column: (0,1), (0,2), (1,2), (0,3), ... That is the row-major
    order of the strictly lower triangle, entry (j, i), so the stream is
    written there in one pass and mirrored. Rows so built are symmetric
    and loop-free, and the graph is made without further checks."""
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
    if need and (body[-1] - 63) & ((1 << (6 * need - nbits)) - 1):
        raise GraphError("nonzero graph6 padding bits")
    # each character's six bits: the low six of the eight of its value
    groups = np.frombuffer(body, dtype=np.uint8) - np.uint8(63)
    stream = np.unpackbits(groups[:, None], axis=1)[:, 2:].reshape(-1)
    lower = np.zeros((n, n), dtype=bool)
    lower[np.tri(n, k=-1, dtype=bool)] = stream[:nbits]
    adj = (lower | lower.T)[None]
    return Graph._trusted(n, tuple(next(bitset_rows(adj))))
