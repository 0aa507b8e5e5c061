"""Dense symmetric eigensolving, Perron vectors, equitable partitions,
quotient matrices and adjacency spectral bounds.

Two numeric routes to the spectral radius are kept on purpose.
``spectral_radius_many`` is a shifted power iteration (deterministic
all-ones start, shift = max degree) that also returns each Perron vector
and its residual; the ``rho`` mode solves its lines with it, and the
re-solve of a counterexample candidate (``harness._reverify_candidate``)
calls ``spectral_radius``, its one-graph case.
``rho_dense`` takes the top eigenvalue from LAPACK's ``eigvalsh`` and gives
the spectral radius everywhere else: in verify, check and scan rows, and,
through ``rho_dense_many``, in the dense rechecks of the lemma sweeps.
Every lemma sweep (l2.2, l2.3 and l2.6) takes its printed values from
exact blow-up quotients through ``largest_eigenvalues``. ``full_spectrum``
(all eigenvalues, residual-checked) serves the tests.

Many small problems are solved in stacks: ``largest_eigenvalues`` makes
one ``eigvalsh`` call per quotient size and ``rho_dense_many`` one per
graph order. LAPACK solves each matrix of a stack on its own, so a stacked
value is bit-identical to the single solve (``largest_eigenvalue``,
``rho_dense``). A quotient's symmetrization has one implementation,
``_symmetrized``, which both the stacked and the single solve use.
``spectral_radius_many`` runs one lockstep power iteration per stack of
components of one order, at most STACK_CELLS matrix cells; ``matmul``
multiplies a stack slice by slice with the BLAS call of the single
product, so each result is that of the graph solved alone
(``_power_iteration`` on each component), Perron vector bytes and matvec
count included. Graph stacks come from ``adjacency_matrices``,
whose one-graph case is ``adjacency_matrix``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .graph import Graph, GraphError, bits, component_masks, mask_of

MAX_MATVECS = 10 ** 6
RESIDUAL_CHECK_EVERY = 4
# matrix cells per stacked power iteration; bounds a stack's memory
STACK_CELLS = 1 << 15


class ConvergenceError(RuntimeError):
    """Eigensolve failed to reach the requested residual."""

    def __init__(self, msg: str, best_residual: float):
        super().__init__(f"{msg} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


def default_tol(dim: int) -> float:
    return 1e-10 if dim <= 256 else 1e-8


def adjacency_matrices(graphs: Sequence[Graph]) -> np.ndarray:
    """Dense 0/1 float64 adjacency matrices of m >= 1 graphs of one order n,
    as one C-contiguous (m, n, n) stack: each row's bitset is written out as
    little-endian bytes and the stack is unpacked bit by bit in one call."""
    n = graphs[0].n
    nb = (n + 7) // 8
    packed = np.frombuffer(b"".join(row.to_bytes(nb, "little")
                                    for g in graphs for row in g.adj),
                           dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(graphs), n, nb), axis=2,
                         count=n, bitorder="little").astype(float)


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
    """Largest adjacency eigenvalue with its Perron vector: the one-graph
    case of ``spectral_radius_many``."""
    return spectral_radius_many([g], tol)[0]


def _power_iterations(a: np.ndarray, tol: float) -> list:
    """``_power_iteration`` on each matrix of an (m, n, n) stack, m, n >= 2,
    in lockstep. ``matmul`` multiplies a stack slice by slice with the BLAS
    call of the single product, so every slice sees the floats of its
    single solve, bit for bit; a slice leaves the stack when it stops. A
    slice still running after MAX_MATVECS products gets the
    ConvergenceError of the single solve in place of its result."""
    m, n, _ = a.shape
    out: list = [None] * m
    live = np.arange(m)
    shift = a.sum(axis=1).max(axis=1, keepdims=True)
    x = np.full((m, n), 1.0 / math.sqrt(n))
    best = np.full(m, math.inf)
    matvecs = 0
    while matvecs < MAX_MATVECS:
        y = np.matmul(a, x[:, :, None])[:, :, 0]
        matvecs += 1
        z = y + shift * x
        norm = np.sqrt(np.matmul(z[:, None, :], z[:, :, None])[:, 0, 0])
        stop = norm == 0.0  # edgeless
        if matvecs % RESIDUAL_CHECK_EVERY == 0 or matvecs == 1:
            rho = np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]
            res = np.abs(y - rho[:, None] * x).max(axis=1)
            best = np.fmin(best, res)
            stop |= res <= tol
        if stop.any():
            for i in np.flatnonzero(stop).tolist():
                out[live[i]] = ((0.0, x[i].copy(), 0.0, matvecs)
                                if norm[i] == 0.0 else
                                (float(rho[i]), x[i].copy(), float(res[i]),
                                 matvecs))
            keep = ~stop
            if not keep.any():
                return out
            a, live, shift, best = a[keep], live[keep], shift[keep], best[keep]
            z, norm = z[keep], norm[keep]
        x = z / norm[:, None]
    for i, residual in zip(live.tolist(), best.tolist()):
        out[i] = ConvergenceError(
            f"power iteration exceeded {MAX_MATVECS} matrix-vector products",
            residual)
    return out


def spectral_radius_many(graphs: Sequence[Graph],
                         tol: float | None = None) -> list[SpectralResult]:
    """Largest adjacency eigenvalue of each graph, with its Perron vector,
    by shifted power iteration (all-ones start, shift = max degree) at
    ``tol`` (default ``default_tol`` of the graph's order).

    Disconnected graphs are solved per component; a graph's vector is
    supported on its first component attaining the maximum. The graphs'
    components are grouped by (order, tolerance) and each group is solved
    in stacks of at most STACK_CELLS matrix cells, built when solved and
    dropped after: a stack of one matrix by ``_power_iteration``, a larger
    one by ``_power_iterations``, which gives each slice the floats of its
    single solve. A failed solve raises the ConvergenceError of the first
    failing graph in input order, at its first failing component."""
    if any(g.n < 1 for g in graphs):
        raise GraphError("spectral radius needs n >= 1")
    tols = [default_tol(g.n) if tol is None else tol for g in graphs]
    comps = [[list(bits(c)) for c in component_masks(g)] for g in graphs]
    groups: dict[tuple[int, float], list[tuple[int, int]]] = {}
    for i, verts_of in enumerate(comps):
        for j, verts in enumerate(verts_of):
            groups.setdefault((len(verts), tols[i]), []).append((i, j))
    solved: dict[tuple[int, int], object] = {}
    # the largest components first, while few results are held
    for (order, group_tol), keys in sorted(groups.items(), reverse=True):
        size = max(1, STACK_CELLS // (order * order)) if order > 1 else 1
        for start in range(0, len(keys), size):
            stack = keys[start:start + size]
            subs = [graphs[i] if len(comps[i]) == 1
                    else graphs[i].induced(comps[i][j]) for i, j in stack]
            if len(stack) == 1:
                try:
                    results = [_power_iteration(adjacency_matrix(subs[0]),
                                                group_tol)]
                except ConvergenceError as exc:
                    results = [exc]
            else:
                results = _power_iterations(adjacency_matrices(subs),
                                            group_tol)
            solved.update(zip(stack, results))
    out = []
    for i, g in enumerate(graphs):
        best_rho = -math.inf
        best = None
        total_matvecs = 0
        for j, verts in enumerate(comps[i]):
            result = solved[i, j]
            if isinstance(result, ConvergenceError):
                raise result
            rho, x, res, mv = result
            total_matvecs += mv
            if rho > best_rho + tols[i]:
                best_rho = rho
                best = (verts, x, res)
        verts, x, res = best
        perron = np.zeros(g.n)
        perron[verts] = x
        out.append(SpectralResult(rho=best_rho, perron=perron, residual=res,
                                  tol=tols[i], matvecs=total_matvecs))
    return out


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


def _stacked_top(items: Sequence, size: Callable[..., int],
                 stack: Callable[[list], np.ndarray]) -> list[float]:
    """The largest eigenvalue of each item's symmetric matrix, with one
    ``eigvalsh`` call per matrix size; ``stack`` gives the (m, size, size)
    matrices of m items of one size."""
    groups: dict[int, list[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault(size(item), []).append(i)
    out = [0.0] * len(items)
    for idx in groups.values():
        top = np.linalg.eigvalsh(stack([items[i] for i in idx]))[:, -1]
        for i, value in zip(idx, top.tolist()):
            out[i] = value
    return out


def rho_dense_many(graphs: Sequence[Graph]) -> list[float]:
    """``rho_dense`` of each graph, bit for bit, in one stacked solve per
    order."""
    if any(g.n == 0 for g in graphs):
        raise GraphError("spectral radius needs n >= 1")
    return _stacked_top(graphs, lambda g: g.n, adjacency_matrices)


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
    """``largest_eigenvalue`` of each quotient, bit for bit, in one stacked
    solve per quotient size."""
    if any(q.size == 0 for q in quotients):
        raise GraphError("a quotient without classes has no eigenvalue")
    return _stacked_top(quotients, lambda q: q.size, _symmetrized)


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
    radius of a connected graph; returns (bound, attaining vertex)."""
    if g.n < 2:
        raise GraphError("bound needs n >= 2")
    if len(component_masks(g)) != 1:
        raise GraphError("bound requires a connected graph")
    deg = g.degrees()
    # plane b holds the vertices whose degree has bit b set, so a row's
    # neighbor degree sum is the sum of its popcount in plane b times 2^b
    planes = [mask_of(u for u in range(g.n) if deg[u] >> b & 1)
              for b in range(max(deg).bit_length())]
    best_val = -1
    best_v = 0
    for v, row in enumerate(g.adj):
        r = sum((row & plane).bit_count() << b
                for b, plane in enumerate(planes))
        if r > best_val:
            best_val = r
            best_v = v
    return math.sqrt(best_val), best_v


def degree_sum_identity(g: Graph, u: int) -> tuple[int, int]:
    """Both sides of: sum of neighbor degrees at u equals
    d(u) + 2 e(N(u)) + e(N(u), V minus (N(u) + u)); computed independently."""
    if not 0 <= u < g.n:
        raise GraphError("vertex out of range")
    adj = g.adj
    nbrs = adj[u]
    rest = g.full_mask() & ~nbrs & ~(1 << u)
    lhs = inside_ends = cross = 0
    for v in bits(nbrs):
        row = adj[v]
        lhs += row.bit_count()
        inside_ends += (row & nbrs).bit_count()  # both ends of each edge
        cross += (row & rest).bit_count()
    rhs = nbrs.bit_count() + 2 * (inside_ends // 2) + cross
    return lhs, rhs


def sqrt_m_bound(g: Graph) -> float:
    """sqrt(edge count): an upper bound on the spectral radius of a
    bipartite graph with at least one edge."""
    if g.side_a is None:
        raise GraphError("bound requires a bipartition")
    m = g.m
    if m < 1:
        raise GraphError("bound needs at least one edge")
    return math.sqrt(m)
