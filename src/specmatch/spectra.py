"""Dense symmetric eigensolving, Perron vectors, equitable partitions,
quotient matrices and adjacency spectral bounds.

Every printed spectral radius comes from one route: ``rho_dense`` takes the
top eigenvalue from LAPACK's ``eigvalsh``. It gives the spectral radius of
verify's extremal row, through ``rho_rows`` in ``rho`` rows, and through
``rho_dense_many`` in verify's sample rows, in ``check`` and ``scan`` rows
and in the dense rechecks of the lemma sweeps.
``spectral_radius``, a shifted power iteration (deterministic all-ones
start, shift = max degree) that also returns the Perron vector and its
residual, is kept only as a second, independent route: the re-solve of
a counterexample candidate (``harness._reverify_candidate``) and the
oracle of the acceptance tests.
Every lemma sweep (l2.2, l2.3 and l2.6) takes its printed values from
exact blow-up quotients through ``largest_eigenvalues``. ``full_spectrum``
(all eigenvalues, residual-checked) serves the tests.

Many small problems are solved in stacks: ``largest_eigenvalues``,
``rho_dense_many`` and ``rho_rows`` hand each stack of matrices of one size,
``stack_size`` matrices (at most STACK_CELLS matrix cells) a stack, to one
solver call; verify draws its samples in chunks of that size. LAPACK solves
each matrix of a stack on its own, so a stacked value is bit-identical to
the single solve (``largest_eigenvalue``, ``rho_dense``). A quotient's
symmetrization has one implementation, ``_symmetrized``, which both the
stacked and the single solve use. Graph stacks come from
``adjacency_matrices``, whose one-graph case is ``adjacency_matrix``.

One adjacency stack per order gives the three spectral columns of a
``rho`` row (``rho_rows``): the spectral radius, the Favaron-Maheo-Sacle
bound max_v sqrt(sum of the degrees of v's neighbours), and both sides of
identity (13) at each vertex u,
sum_{v~u} d(v) = d(u) + 2 e(N(u)) + e(N(u), V minus N[u]).
The two sides come from separate exact integer matrix products, formed in
row blocks of at most about PRODUCT_MADDS multiply-adds through order
PRODUCT_BLOCK_ORDER and of at least PRODUCT_MIN_ROWS rows above it.
``fms_bound`` and ``degree_sum_identity`` are their one-graph case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .graph import (Graph, GraphError, adjacency_bits, bits,
                    component_masks)

MAX_MATVECS = 10 ** 6
RESIDUAL_CHECK_EVERY = 4
# matrix cells per stacked eigvalsh call; bounds a stack's memory
STACK_CELLS = 1 << 15
# multiply-adds per matmul call of the identity (13) products, one row at
# least, through order PRODUCT_BLOCK_ORDER: at order 300 such blocks stayed
# on one OpenBLAS thread and one gemm buffer, where the whole product went
# multithreaded and grew the RSS
PRODUCT_MADDS = 1 << 20
PRODUCT_BLOCK_ORDER = 300
# rows per block, at least, above PRODUCT_BLOCK_ORDER: every matmul call
# re-reads the whole n x n matrix, so blocks of the few rows that
# PRODUCT_MADDS allows there leave the product memory-bound
PRODUCT_MIN_ROWS = 32


class ConvergenceError(RuntimeError):
    """Eigensolve failed to reach the requested residual."""

    def __init__(self, msg: str, best_residual: float):
        super().__init__(f"{msg} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


def default_tol(dim: int) -> float:
    return 1e-10 if dim <= 256 else 1e-8


def adjacency_matrices(graphs: Sequence[Graph]) -> np.ndarray:
    """Dense 0/1 float64 adjacency matrices of m >= 1 graphs of one order n,
    as one C-contiguous (m, n, n) stack: ``adjacency_bits`` as floats."""
    return adjacency_bits(graphs).astype(float)


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 float64 adjacency matrix, C-contiguous: the one-graph
    stack of ``adjacency_matrices``."""
    return adjacency_matrices([g])[0]


@dataclass(eq=False)
class SpectralResult:
    rho: float
    perron: np.ndarray
    residual: float
    tol: float
    matvecs: int


def _power_iteration(a: np.ndarray,
                     tol: float) -> tuple[float, np.ndarray, float, int]:
    n = a.shape[0]
    if n == 1:
        return 0.0, np.ones(1), 0.0, 0
    shift = float(a.sum(axis=1).max())
    x = np.full(n, 1.0 / math.sqrt(n))
    best = (0.0, x, math.inf)
    matvecs = 0
    while matvecs < MAX_MATVECS:
        y = a @ x
        matvecs += 1
        z = y + shift * x
        # the same float as np.linalg.norm(z) for a 1-D float64 array
        norm = math.sqrt(z.dot(z))
        if norm == 0.0:
            return 0.0, x, 0.0, matvecs  # edgeless component
        if matvecs % RESIDUAL_CHECK_EVERY == 0 or matvecs == 1:
            rho = float(x @ y)
            res = float(np.abs(y - rho * x).max())
            if res < best[2]:
                best = (rho, x, res)
            if res <= tol:
                return rho, x, res, matvecs
        x = z / norm
    raise ConvergenceError(
        f"power iteration exceeded {MAX_MATVECS} matrix-vector products",
        best[2])


def spectral_radius(g: Graph, tol: float | None = None) -> SpectralResult:
    """Largest adjacency eigenvalue with its Perron vector, by shifted power
    iteration (all-ones start, shift = max degree) at ``tol`` (default
    ``default_tol`` of the graph's order).

    Disconnected graphs are solved per component, on its vertices' rows
    and columns of the adjacency matrix; the returned vector is supported
    on the first component attaining the maximum.
    """
    if g.n < 1:
        raise GraphError("spectral radius needs n >= 1")
    if tol is None:
        tol = default_tol(g.n)
    a = adjacency_matrix(g)
    best_rho = -math.inf
    best = None
    total_matvecs = 0
    for comp in component_masks(g):
        verts = list(bits(comp))
        rho, x, res, mv = _power_iteration(a[np.ix_(verts, verts)], tol)
        total_matvecs += mv
        if rho > best_rho + tol:
            best_rho = rho
            best = (verts, x, res)
    verts, x, res = best
    perron = np.zeros(g.n)
    perron[verts] = x
    return SpectralResult(rho=best_rho, perron=perron, residual=res,
                          tol=tol, matvecs=total_matvecs)


def full_spectrum(m: np.ndarray, tol: float | None = None) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix in descending order,
    residual-checked."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GraphError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise GraphError("matrix entries must be finite")
    if not np.array_equal(a, a.T):
        raise GraphError("matrix must be symmetric")
    if a.shape[0] == 0:
        return np.zeros(0)
    if tol is None:
        tol = default_tol(a.shape[0])
    w, v = np.linalg.eigh(a)
    res = float(np.max(np.abs(a @ v - v * w)))
    scale = max(1.0, float(np.max(np.abs(w))))
    if res > tol * scale * 10:
        raise ConvergenceError("dense eigensolve residual too large", res)
    return w[::-1].copy()


def rho_dense(g: Graph) -> float:
    """Fast dense route for the spectral radius (no Perron vector)."""
    if g.n == 0:
        raise GraphError("spectral radius needs n >= 1")
    return float(np.linalg.eigvalsh(adjacency_matrix(g))[-1])


def stack_size(dim: int) -> int:
    """Matrices of order ``dim`` in one stacked solve: at most STACK_CELLS
    matrix cells, and at least one matrix."""
    return max(1, STACK_CELLS // (dim * dim))


def _stacked(items: Sequence, size: Callable[..., int],
             stack: Callable[[list], np.ndarray],
             solve: Callable[[np.ndarray], list]) -> list:
    """``solve``'s per-matrix results for each item's matrix, with one
    ``solve`` call per stack of items of one matrix size (``stack_size``
    items at most). ``stack`` gives the (m, size, size) matrices of m items
    of one size, and ``solve`` a list of m results from such a stack."""
    groups: dict[int, list[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault(size(item), []).append(i)
    out = [None] * len(items)
    for dim, idx in groups.items():
        step = stack_size(dim)
        for start in range(0, len(idx), step):
            part = idx[start:start + step]
            for i, value in zip(part, solve(stack([items[i] for i in part]))):
                out[i] = value
    return out


def _top_eigenvalues(a: np.ndarray) -> list[float]:
    """The largest eigenvalue of each symmetric matrix of a stack."""
    return np.linalg.eigvalsh(a)[:, -1].tolist()


def rho_dense_many(graphs: Sequence[Graph]) -> list[float]:
    """``rho_dense`` of each graph, bit for bit, in stacked solves of graphs
    of one order."""
    if any(g.n == 0 for g in graphs):
        raise GraphError("spectral radius needs n >= 1")
    return _stacked(graphs, lambda g: g.n, adjacency_matrices,
                    _top_eigenvalues)


def _degree_sums(a: np.ndarray, start: int = 0,
                 stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of identity (13) at vertices start..stop-1 (default all)
    of each graph of a 0/1 adjacency stack (m, n, n), as int64 arrays of
    m rows: lhs = A d with d = A 1, and rhs = d + 2 (inside // 2) + cross
    with inside = rowsum(A^2 * A) and cross = rowsum(A^2 * (J - A - I)).

    A^2 is formed in row blocks of at most PRODUCT_MADDS multiply-adds
    (one row at least) through order PRODUCT_BLOCK_ORDER, and of at least
    PRODUCT_MIN_ROWS rows above it; J - A - I is formed only on a block's
    rows. Every entry is an integer below 2^53, so the float sums are
    exact in any order."""
    m, n, _ = a.shape
    stop = n if stop is None else stop
    d = a.sum(axis=2)
    lhs = np.empty((m, stop - start))
    inside = np.empty_like(lhs)
    cross = np.empty_like(lhs)
    least = 1 if n <= PRODUCT_BLOCK_ORDER else PRODUCT_MIN_ROWS
    step = max(least, PRODUCT_MADDS // (m * n * n))
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        rows = a[:, lo:hi]
        out = slice(lo - start, hi - start)
        square = np.matmul(rows, a)  # rows lo..hi-1 of A^2
        lhs[:, out] = np.matmul(rows, d[:, :, None])[:, :, 0]
        inside[:, out] = np.einsum("mij,mij->mi", square, rows)
        rest = 1.0 - rows
        rest[:, np.arange(hi - lo), np.arange(lo, hi)] = 0.0
        cross[:, out] = np.einsum("mij,mij->mi", square, rest)
    rhs = d[:, start:stop] + 2 * (inside // 2) + cross
    return lhs.astype(np.int64), rhs.astype(np.int64)


def _fms(lhs: np.ndarray) -> tuple[float, int]:
    """(sqrt of the largest neighbour degree sum, the first vertex with
    it) from one graph's row of ``_degree_sums``'s lhs."""
    v = int(lhs.argmax())
    return math.sqrt(int(lhs[v])), v


@dataclass(frozen=True, eq=False)
class RhoRow:
    """The spectral columns of one graph's ``rho`` row: the spectral radius
    (``rho_dense``'s float), the FMS bound with its vertex (``fms_bound``'s
    value, also computed for a disconnected graph), and both sides of
    identity (13) at each vertex (``degree_sum_identity``'s integers)."""

    rho: float
    fms: tuple[float, int]
    lhs: np.ndarray
    rhs: np.ndarray


def _rho_rows(a: np.ndarray) -> list[RhoRow]:
    """The ``RhoRow`` of each graph of an adjacency stack."""
    top = _top_eigenvalues(a)
    lhs, rhs = _degree_sums(a)
    return [RhoRow(rho, _fms(lhs[i]), lhs[i], rhs[i])
            for i, rho in enumerate(top)]


def rho_rows(graphs: Sequence[Graph]) -> list[RhoRow]:
    """The ``RhoRow`` of each graph, from one adjacency stack per stack of
    graphs of one order: rho is ``rho_dense``'s float bit for bit, as in
    ``rho_dense_many``."""
    if any(g.n == 0 for g in graphs):
        raise GraphError("spectral radius needs n >= 1")
    return _stacked(graphs, lambda g: g.n, adjacency_matrices, _rho_rows)


# -- equitable partitions and quotients ---------------------------------


@dataclass(frozen=True)
class Partition:
    classes: tuple[frozenset[int], ...]

    def validate(self, n: int) -> None:
        seen = 0
        for c in self.classes:
            if not c:
                raise GraphError("empty partition class")
            m = 0
            for v in c:
                if not 0 <= v < n:
                    raise GraphError(f"vertex {v} out of range")
                m |= 1 << v
            if m & seen:
                raise GraphError("partition classes overlap")
            seen |= m
        if seen != (1 << n) - 1:
            raise GraphError("partition does not cover all vertices")

    @staticmethod
    def trivial(n: int) -> "Partition":
        return Partition((frozenset(range(n)),))

    @staticmethod
    def of(classes: Iterable[Iterable[int]]) -> "Partition":
        return Partition(tuple(frozenset(c) for c in classes))


def refine_equitable(g: Graph, seed: Partition | None = None) -> Partition:
    """Coarsest equitable refinement of ``seed`` (one class if omitted).

    Classes are split by exact neighbor-count signatures until stable;
    subclasses are ordered by their smallest vertex, which keeps the
    result deterministic under any seed.
    """
    if g.n == 0:
        return Partition(())
    if seed is None:
        seed = Partition.trivial(g.n)
    seed.validate(g.n)
    classes = [sorted(c) for c in seed.classes]
    while True:
        masks = [sum(1 << v for v in c) for c in classes]
        new_classes: list[list[int]] = []
        changed = False
        for c in classes:
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in c:
                sig = tuple((g.adj[v] & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            parts = sorted(groups.values(), key=lambda vs: vs[0])
            if len(parts) > 1:
                changed = True
            new_classes.extend(parts)
        classes = new_classes
        if not changed:
            return Partition.of(classes)


@dataclass(frozen=True)
class QuotientMatrix:
    """Equitable quotient: entries[i][j] = neighbors in class j of any
    vertex of class i (exact integers)."""

    entries: tuple[tuple[int, ...], ...]
    class_sizes: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.class_sizes)

    def eigenvalues(self) -> np.ndarray:
        if self.size == 0:
            return np.zeros(0)
        return np.linalg.eigvalsh(_symmetrized([self])[0])[::-1].copy()

    def largest_eigenvalue(self) -> float:
        return largest_eigenvalues([self])[0]


# entries and class sizes below this keep b_ij * s_i exact in int64
_INT64_SAFE = 2 ** 31


def _symmetrized(quotients: Sequence[QuotientMatrix]) -> np.ndarray:
    """D B D^{-1} with D = diag(sqrt sizes), stacked over quotients of one
    size. It is symmetric: the entry (i,j) equals e(i,j)/sqrt(s_i s_j)
    with an integer numerator e(i,j) = b_ij s_i, which must equal
    e(j,i) = b_ji s_j; the first pair that differs is named."""
    b = np.array([q.entries for q in quotients])
    s = np.array([q.class_sizes for q in quotients])
    if b.dtype == object or s.dtype == object or max(
            np.abs(b).max(), s.max()) >= _INT64_SAFE:
        b, s = b.astype(object), s.astype(object)  # Python ints
    num = b * s[:, :, None]
    bad = np.argwhere(num != num.transpose(0, 2, 1))
    if len(bad):
        m, i, j = bad[0].tolist()
        raise GraphError(
            f"quotient not symmetrizable at ({i},{j}): "
            f"b_ij*s_i={num[m, i, j]} != b_ji*s_j={num[m, j, i]}")
    root = np.sqrt(s.astype(float))
    return np.asarray(num / (root[:, :, None] * root[:, None, :]),
                      dtype=float)


def largest_eigenvalues(quotients: Sequence[QuotientMatrix]) -> list[float]:
    """``largest_eigenvalue`` of each quotient, bit for bit, in stacked
    solves of quotients of one size."""
    if any(q.size == 0 for q in quotients):
        raise GraphError("a quotient without classes has no eigenvalue")
    return _stacked(quotients, lambda q: q.size, _symmetrized,
                    _top_eigenvalues)


def quotient(g: Graph, p: Partition) -> QuotientMatrix:
    """Quotient matrix of g under p; raises unless p is equitable.

    Validation is exact integer arithmetic on neighbor counts.
    """
    p.validate(g.n)
    masks = [sum(1 << v for v in c) for c in p.classes]
    rows = []
    for i, c in enumerate(p.classes):
        counts = None
        for v in sorted(c):
            sig = tuple((g.adj[v] & m).bit_count() for m in masks)
            if counts is None:
                counts = sig
            elif counts != sig:
                raise GraphError(
                    f"partition not equitable: class {i} has differing "
                    f"neighbor counts {counts} vs {sig}")
        rows.append(counts)
    return QuotientMatrix(tuple(rows), tuple(len(c) for c in p.classes))


# -- spectral bounds -----------------------------------------------------


def fms_bound(g: Graph) -> tuple[float, int]:
    """max_v sqrt(sum of neighbor degrees): an upper bound on the spectral
    radius of a connected graph; returns (bound, first attaining vertex).
    The one-graph case of ``rho_rows``'s FMS value."""
    if g.n < 2:
        raise GraphError("bound needs n >= 2")
    if len(component_masks(g)) != 1:
        raise GraphError("bound requires a connected graph")
    return _fms(_degree_sums(adjacency_matrices([g]))[0][0])


def degree_sum_identity(g: Graph, u: int) -> tuple[int, int]:
    """Both sides of identity (13) at u: the sum of u's neighbor degrees,
    and d(u) + 2 e(N(u)) + e(N(u), V minus N[u]); computed independently.
    The one-graph case of ``rho_rows``'s lhs and rhs."""
    if not 0 <= u < g.n:
        raise GraphError("vertex out of range")
    lhs, rhs = _degree_sums(adjacency_matrices([g]), u, u + 1)
    return int(lhs[0, 0]), int(rhs[0, 0])


def sqrt_m_bound(g: Graph) -> float:
    """sqrt(edge count): an upper bound on the spectral radius of a
    bipartite graph with at least one edge."""
    if g.side_a is None:
        raise GraphError("bound requires a bipartition")
    m = g.m
    if m < 1:
        raise GraphError("bound needs at least one edge")
    return math.sqrt(m)
