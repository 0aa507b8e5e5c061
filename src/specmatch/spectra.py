"""Dense symmetric eigensolving, Perron vectors, equitable partitions,
quotient matrices and adjacency spectral bounds.

Two independent numeric routes are kept on purpose: ``spectral_radius``
is a self-contained shifted power iteration (deterministic all-ones start,
shift = max degree), while ``full_spectrum`` goes through LAPACK. Sweeps
and cross-checks compare the two.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .graph import Graph, GraphError, bits, component_masks, edge_counts

MAX_MATVECS = 10 ** 6
RESIDUAL_CHECK_EVERY = 4


class ConvergenceError(RuntimeError):
    """Eigensolve failed to reach the requested residual."""

    def __init__(self, msg: str, best_residual: float):
        super().__init__(f"{msg} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


def default_tol(dim: int) -> float:
    return 1e-10 if dim <= 256 else 1e-8


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 float64 adjacency matrix: each row's bitset is written out
    as little-endian bytes and unpacked bit by bit."""
    n = g.n
    nb = (n + 7) // 8
    packed = np.frombuffer(b"".join(row.to_bytes(nb, "little")
                                    for row in g.adj), dtype=np.uint8)
    return np.unpackbits(packed.reshape(n, nb), axis=1, count=n,
                         bitorder="little").astype(float)


@dataclass(eq=False)
class SymMatrix:
    """Real symmetric matrix with validated entries."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise GraphError("matrix must be square")
        if not np.all(np.isfinite(m)):
            raise GraphError("matrix entries must be finite")
        if not np.array_equal(m, m.T):
            raise GraphError("matrix must be symmetric")
        self.entries = m


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
        norm = float(np.linalg.norm(z))
        if norm == 0.0:
            return 0.0, x, 0.0, matvecs  # edgeless component
        x_next = z / norm
        if matvecs % RESIDUAL_CHECK_EVERY == 0 or matvecs == 1:
            rho = float(x @ y)
            res = float(np.max(np.abs(y - rho * x)))
            if res < best[2]:
                best = (rho, x, res)
            if res <= tol:
                return rho, x, res, matvecs
        x = x_next
    raise ConvergenceError(
        f"power iteration exceeded {MAX_MATVECS} matrix-vector products",
        best[2])


def spectral_radius(g: Graph, tol: float | None = None) -> SpectralResult:
    """Largest adjacency eigenvalue with its Perron vector.

    Disconnected graphs are solved per component; the returned vector is
    supported on the first component attaining the maximum.
    """
    if g.n < 1:
        raise GraphError("spectral radius needs n >= 1")
    if tol is None:
        tol = default_tol(g.n)
    comps = component_masks(g)
    best_rho = -math.inf
    best = None
    total_matvecs = 0
    for comp in comps:
        verts = list(bits(comp))
        sub = g.induced(verts)
        rho, x, res, mv = _power_iteration(adjacency_matrix(sub), tol)
        total_matvecs += mv
        if rho > best_rho + tol:
            best_rho = rho
            best = (verts, x, res)
    verts, x, res = best
    perron = np.zeros(g.n)
    perron[verts] = x
    return SpectralResult(rho=best_rho, perron=perron, residual=res,
                          tol=tol, matvecs=total_matvecs)


def full_spectrum(m: SymMatrix | np.ndarray,
                  tol: float | None = None) -> np.ndarray:
    """All eigenvalues in descending order, residual-checked."""
    a = m.entries if isinstance(m, SymMatrix) else SymMatrix(np.asarray(m)).entries
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

    def _symmetrized(self) -> np.ndarray:
        # D B D^{-1} with D = diag(sqrt sizes) is symmetric: the entry
        # (i,j) equals e(i,j)/sqrt(s_i s_j) with an integer numerator
        # e(i,j) = b_ij s_i, which must equal e(j,i) = b_ji s_j.
        k = self.size
        s = self.class_sizes
        b = self.entries
        out = np.zeros((k, k))
        for i in range(k):
            for j in range(k):
                num = b[i][j] * s[i]
                if num != b[j][i] * s[j]:
                    raise GraphError(
                        f"quotient not symmetrizable at ({i},{j}): "
                        f"b_ij*s_i={num} != b_ji*s_j={b[j][i] * s[j]}")
                out[i, j] = num / (math.sqrt(s[i]) * math.sqrt(s[j]))
        return out

    def eigenvalues(self) -> np.ndarray:
        if self.size == 0:
            return np.zeros(0)
        return np.linalg.eigvalsh(self._symmetrized())[::-1].copy()

    def largest_eigenvalue(self) -> float:
        return float(self.eigenvalues()[0])


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


# -- closed form for the balanced-bipartite overlay family ---------------


def charpoly_quartic(n: int, k: int, s: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (c4, c2, c0) of the even quartic x^4 + c2 x^2 + c0 attached to
    the 4-class quotient of the overlay family with parameters (n, k, s)."""
    if n % 2:
        raise GraphError("order must be even")
    if s < 0 or k < 0:
        raise GraphError("negative parameter")
    half = n // 2
    if half - s < 0 or half - s - k - 1 < 0:
        raise GraphError(
            f"part sizes negative for (n,k,s)=({n},{k},{s})")
    c2 = Fraction((2 * k + 2 * s + 2 - n) * n, 4) - Fraction((s + k + 1) * s)
    c0 = -Fraction(s * (n - 2 * s) * (s + k + 1) * (2 * s - n + 2 * k + 2), 4)
    return Fraction(1), c2, c0


def quartic_largest_root(coeffs: tuple[Fraction, Fraction, Fraction]) -> float:
    """Largest real root of x^4 + c2 x^2 + c0 (c4 must be 1)."""
    c4, c2, c0 = coeffs
    if c4 != 1:
        raise GraphError("leading coefficient must be 1")
    disc = c2 * c2 - 4 * c0
    if disc < 0:
        raise GraphError("quartic has no real roots in x^2")
    y = (-float(c2) + math.sqrt(float(disc))) / 2.0
    if y < 0:
        raise GraphError("quartic has no real roots")
    return math.sqrt(y)


# -- spectral bounds -----------------------------------------------------


def fms_bound(g: Graph) -> tuple[float, int]:
    """max_v sqrt(sum of neighbor degrees): an upper bound on the spectral
    radius of a connected graph; returns (bound, attaining vertex)."""
    if g.n < 2:
        raise GraphError("bound needs n >= 2")
    if len(component_masks(g)) != 1:
        raise GraphError("bound requires a connected graph")
    deg = g.degrees()
    best_val = -1
    best_v = 0
    for v in range(g.n):
        r = sum(deg[u] for u in bits(g.adj[v]))
        if r > best_val:
            best_val = r
            best_v = v
    return math.sqrt(best_val), best_v


def degree_sum_identity(g: Graph, u: int) -> tuple[int, int]:
    """Both sides of: sum of neighbor degrees at u equals
    d(u) + 2 e(N(u)) + e(N(u), V minus (N(u) + u)); computed independently."""
    if not 0 <= u < g.n:
        raise GraphError("vertex out of range")
    nbrs = list(bits(g.adj[u]))
    lhs = sum(g.degree(v) for v in nbrs)
    rest = [v for v in range(g.n) if v != u and not g.has_edge(u, v)]
    inside, cross = edge_counts(g, nbrs, rest)
    rhs = g.degree(u) + 2 * inside + cross
    return lhs, rhs


def sqrt_m_bound(g: Graph) -> float:
    """sqrt(edge count): an upper bound on the spectral radius of a
    bipartite graph with at least one edge."""
    if g.sides is None:
        raise GraphError("bound requires a bipartition")
    m = g.m
    if m < 1:
        raise GraphError("bound needs at least one edge")
    return math.sqrt(m)
