"""Report building and experiment orchestration behind the CLI.

``verify`` (on its samples) and ``scan`` (on its input lines) run every
graph through one pipeline, ``_evaluate``: spectral margin, recognizer,
checker, classification, re-verification of counterexample candidates and
certificate re-validation. Every mode takes its graphs' spectral radii
from stacked solves: ``rho`` from ``sp.rho_rows``; ``check`` and ``scan``
from one ``sp.rho_dense_many`` call over their lines; ``verify`` from one
such call per chunk of samples, a chunk being one eigensolve stack; the
lemma sweeps' dense rechecks from one per chunk of cells. Only verify's
extremal row solves alone (``sp.rho_dense``); every stacked value is its
single solve bit for bit. ``verify`` also encodes a chunk's graph6 column
as one bit stack (``graph6_encode_many``), whose lines are
``graph6_encode``'s.

Each theorem, lemma and property the CLI accepts is one row of
``THEOREMS``, ``LEMMAS`` or ``PROPERTIES``; theorems and properties run the
checker routes of ``ROUTES``. Dispatch looks rows up.

Determinism contract: identical configuration (seed included) produces a
byte-identical report. Per-graph randomness is derived from
(seed, sample index), so each sample's stream is its own, and rows are
emitted in input order. Random draws read the
``random.Random`` stream in numpy blocks (``_pair_bits``), word for word
as scalar ``random()`` calls would, and each pair bit is the scalar
draw's ``random() < prob``, so every drawn graph is the one the scalar
draws give; a sampler's stream is its sample's alone, and it may read
past a kept draw before it is discarded.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from math import ceil, comb
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from . import families as fam
from . import matchfactor as mf
from . import spectra as sp
from .graph import (Graph, GraphError, SIDE_A, SIDE_B, bitset_rows,
                    graph6_decode, graph6_encode, graph6_encode_many,
                    infer_bipartition, is_connected, rows_connected)

P_SWEEP = (0.3, 0.5, 0.7, 0.9)
SAMPLE_ATTEMPTS = 60
# The draw branch draws its attempts in blocks that grow by DRAW_GROWTH:
# one numpy block costs about as much as a few hundred pair draws, so a
# block grows while its draws are still likely to be needed. The first
# holds about the attempts that can hold one keep, by an upper bound on
# the keep rate (``_block_sizes``): one attempt for an unpinned class,
# which often keeps its first draw, and every attempt for a branch that
# cannot keep. DRAW_BUDGET caps the pair draws of one block, which bounds
# its memory.
DRAW_GROWTH = 3
DRAW_BUDGET = 8192
DEFAULT_TOL = 1e-8
# re-verification asks power iteration for tol/100, which float64 reaches
# down to about 1e-14 on the family members
MIN_TOL = 1e-12
LEMMA_MARGIN = 1e-9
DENSE_STRIDE = 25  # l2.2 and l2.3 recheck every DENSE_STRIDE-th cell densely
LEMMA_CHUNK = 2048  # lemma cells per stacked solve; bounds a sweep's memory
LEMMA_MAX_N = 40  # the upper order of every lemma sweep

PROPERTY_COLUMNS = ("graph", "rho", "rho_star", "margin", "verdict",
                    "certificate", "extremal")
RHO_COLUMNS = ("graph", "rho", "fms_bound", "sqrt_m", "identity13")


class UsageError(ValueError):
    """Bad parameters or unreadable input; maps to exit code 2."""


@dataclass
class Report:
    mode: str
    columns: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def count(self, category: str) -> None:
        self.summary[category] = self.summary.get(category, 0) + 1

    def flag(self, note: str | None) -> None:
        """Count a counterexample candidate beside the row categories and
        say why in a note; no-op for None."""
        if note:
            self.notes.append(note)
            self.count("counterexample-candidate")

    def exit_code(self) -> int:
        if self.summary.get("counterexample-candidate", 0) > 0:
            return 1
        if self.summary.get("disagreements", 0) > 0:
            return 1
        return 0


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def render_csv(report: Report, out: TextIO) -> None:
    """Write the report to ``out`` as CSV, a row at a time, so that a long
    report is never held as one string beside its rows."""
    import csv
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(report.columns)
    for row in report.rows:
        writer.writerow([_fmt(row.get(c)) for c in report.columns])
    for key in sorted(report.summary):
        out.write(f"# {key}={report.summary[key]}\n")
    for note in report.notes:
        out.write(f"# note: {note}\n")


def render_json(report: Report) -> str:
    rows = []
    for row in report.rows:
        rows.append({c: (_fmt(row.get(c)) if isinstance(row.get(c), float)
                         else row.get(c)) for c in report.columns})
    doc = {"mode": report.mode, "columns": list(report.columns),
           "rows": rows, "summary": report.summary, "notes": report.notes}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def render(report: Report, fmt: str, out: TextIO) -> None:
    """Write the report to ``out`` as ``fmt``: "json", else CSV."""
    if fmt == "json":
        out.write(render_json(report))
    else:
        render_csv(report, out)


# -- deterministic sampling ----------------------------------------------


def rng_for(seed: int, index: int) -> random.Random:
    return random.Random(((seed * 0x9E3779B97F4A7C15) ^ index) & (2**63 - 1))


@lru_cache(maxsize=64)
def _pair_cells(n: int, side: int | None) -> np.ndarray:
    """The flat cells u * n + v of the vertex pairs that a draw visits, in
    stream order: every (u, v) with u < v, row by row; or, when ``side`` is
    given, every (a, b) with a < side <= b, side A's rows first. Read-only:
    every caller shares the cached array."""
    if side is None:
        pairs = np.triu(np.ones((n, n), dtype=bool), 1)
    else:
        pairs = np.zeros((n, n), dtype=bool)
        pairs[:side, side:] = True
    cells = np.flatnonzero(pairs)
    cells.flags.writeable = False
    return cells


@lru_cache(maxsize=64)
def _pair_ends(n: int, side: int | None) -> np.ndarray:
    """The incidence matrix, shape (pairs, n), of the pairs of
    ``_pair_cells``: row i is 1 at both ends of pair i. A block of pair
    bits times it gives each attempt's degrees; the float32 sums of 0/1
    terms are exact integers, since no degree reaches 2**24. Read-only,
    like ``_pair_cells``."""
    cells = _pair_cells(n, side)
    ends = np.zeros((len(cells), n), dtype=np.float32)
    rows = np.arange(len(cells))
    ends[rows, cells // n] = 1
    ends[rows, cells % n] = 1
    ends.flags.writeable = False
    return ends


def _pair_bits(rng: random.Random, n: int, side: int | None, prob: float,
               attempts: int) -> np.ndarray:
    """The pair bits, shape (attempts, pairs), of ``attempts`` consecutive
    draws: each pair of ``_pair_cells`` is an edge when its uniform is
    below ``prob``. Consumes exactly the stream of ``attempts`` scalar
    draws, and each bit is that draw's ``rng.random() < prob``.

    ``random()`` reads two MT19937 words w0, w1 and returns K / 2**53, K
    being ((w0 >> 5) << 26) | (w1 >> 6); ``getrandbits(64 * count)`` reads
    the same words, least significant first, so each 64-bit little-endian
    value is w0 + w1 * 2**32. K / 2**53 < prob exactly when the integer K
    is below ceil(prob * 2**53), a product that is exact in float64, so
    the bits come from K without forming the uniforms."""
    pairs = len(_pair_cells(n, side))
    count = attempts * pairs
    x = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count,
                                                           "little"),
                      dtype="<u8")
    below = np.uint64(ceil(prob * 2**53))
    return ((((x & 0xFFFFFFE0) << 21) | (x >> 38)) < below).reshape(
        attempts, pairs)


def _adjacency(bits: np.ndarray, n: int, side: int | None) -> np.ndarray:
    """The boolean adjacency matrices, shape (attempts, n, n), of the draws
    whose pair bits are the rows of ``bits``."""
    adj = np.zeros((len(bits), n, n), dtype=bool)
    adj.reshape(len(bits), n * n)[:, _pair_cells(n, side)] = bits
    return adj | adj.transpose(0, 2, 1)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """A G(n, p) draw: one attempt of the block draw."""
    bits = _pair_bits(rng, n, None, p, 1)
    rows = next(bitset_rows(_adjacency(bits, n, None)))
    return Graph._trusted(n, tuple(rows))


def random_bipartite(rng: random.Random, p_side: int, q_side: int,
                     prob: float) -> Graph:
    """A random bipartite draw, side A first: one attempt of the block
    draw."""
    n = p_side + q_side
    bits = _pair_bits(rng, n, p_side, prob, 1)
    rows = next(bitset_rows(_adjacency(bits, n, p_side)))
    return Graph._trusted(n, tuple(rows), (1 << p_side) - 1)


def random_regular_bipartite(rng: random.Random, half: int,
                             k: int) -> Graph:
    """Union of k edge-disjoint random perfect matchings; each matching is
    drawn from the still-free pairs (always possible: the free graph stays
    regular, so a perfect matching exists)."""
    if k > half:
        raise UsageError("regular degree exceeds side size")
    adj = [0] * (2 * half)
    for _ in range(k):
        prefs = []
        for a in range(half):
            free = [b for b in range(half, 2 * half)
                    if not (adj[a] >> b) & 1]
            rng.shuffle(free)
            prefs.append(free)
        order = list(range(half))
        rng.shuffle(order)
        owner: dict[int, int] = {}
        for a in order:
            if not mf._augment(prefs, owner, a, set()):
                raise UsageError(
                    "internal: free graph lost its perfect matching")
        for b, a in owner.items():
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return Graph(2 * half, tuple(adj), (1 << half) - 1)


# -- route, property, theorem and lemma tables ---------------------------


@dataclass(frozen=True)
class Route:
    """A checker route and, where one exists, an oracle that is different
    code: both are called as (g, k, limit) and look ``mf`` functions up at
    call time, so a patched or traced one runs. The oracle returns whether
    the property holds, or None (abstains) when it cannot take the graph."""
    prop: str
    bipartite: bool
    check: Callable[..., tuple[bool, mf.Certificate | None]]
    oracle: Callable[..., bool | None] | None = None


def _plummer_oracle(g: Graph, k: int, limit: int) -> bool | None:
    """The definitional scan on a connected graph of order
    <= ``mf.GENERAL_MATCHING_LIMIT``; abstains on any other graph."""
    if is_connected(g) and g.n <= mf.GENERAL_MATCHING_LIMIT:
        return mf.is_k_extendable_definitional(g, k)[0]
    return None


def _ore_oracle(g: Graph, k: int, limit: int) -> bool | None:
    """Ore's criterion while |A| <= ``limit``; abstains above it."""
    if g.side_mask(SIDE_A).bit_count() > limit:
        return None
    return mf.has_f_factor_ore(g, mf.FactorSpec.constant(g.n, k), limit)[0]


# An oracle is different code from its route's checker, or absent. Each
# route certifies a negative with its own witness, which the emitting mode
# re-validates (``_revalidation_note``): chen and kfc with the barrier of
# the failing matching's or set's remainder, plummer with the surplus
# route's Hall failure. Plummer's only independent check of its verdict is
# the definitional oracle; flow's is Ore's criterion. Of the routes only
# hamilton reads ``limit``.
ROUTES = {
    "chen": Route(
        "k-extendable", False,
        lambda g, k, limit: mf.is_k_extendable_chen(g, k)),
    "plummer": Route(
        "k-extendable", True,
        lambda g, k, limit: mf.is_k_extendable_plummer(g, k),
        _plummer_oracle),
    "flow": Route(
        "k-factor", True,
        lambda g, k, limit: mf.find_k_factor_flow(g, k), _ore_oracle),
    "hamilton": Route(
        "hamiltonian", True,
        lambda g, k, limit: mf.hamiltonian_cycle(g, limit)),
    "kfc": Route(
        "k-factor-critical", False,
        lambda g, k, limit: mf.is_k_factor_critical(g, k)),
}
# (property, needs a bipartition) -> its route
_ROUTE_OF = {(r.prop, r.bipartite): r for r in ROUTES.values()}

# property -> the least --k that ``check`` accepts; None takes no k
PROPERTIES = {"k-extendable": 1, "k-factor": 0, "k-factor-critical": 1,
              "hamiltonian": None}


@dataclass(frozen=True)
class TheoremSpec:
    family: str
    route: str
    requires_connected: bool
    # the least order the theorem needs beyond its family's own conditions
    least_order: Callable[[fam.FamilyParams], int] | None = None

    @property
    def bipartite(self) -> bool:
        return ROUTES[self.route].bipartite

    @property
    def pins_min_degree(self) -> bool:
        """Whether the samples keep minimum degree ``p.delta``: exactly
        when the family reads delta. That is the member's minimum degree at
        every point that ``validate_hypotheses`` accepts."""
        return "delta" in fam.READS[self.family]


THEOREMS = {
    "t1.1": TheoremSpec("kext-general", "chen", True,
                        lambda p: fam.threshold_F(p.k, p.delta)),
    "t1.2": TheoremSpec("kext-bipartite", "plummer", False,
                        lambda p: 4 * p.delta + 2 * p.k + 2),
    "t1.3": TheoremSpec("kfactor-bipartite", "flow", True),
    "t4.3": TheoremSpec("hamilton-bipartite", "hamilton", False),
    "t4.5": TheoremSpec("kfc-general", "kfc", True),
}


def validate_hypotheses(name: str, p: fam.FamilyParams) -> None:
    """Raise UsageError naming the violated hypothesis: either the
    theorem's family has no member at ``p`` (its conditions are the rest of
    the theorem's hypotheses), or n is below the theorem's least order."""
    if name not in THEOREMS:
        raise UsageError(f"unknown theorem {name!r}; theorems are "
                         f"{', '.join(THEOREMS)}")
    spec = THEOREMS[name]
    try:
        fam.member(spec.family, p)
    except GraphError as exc:
        raise UsageError(f"{name}: hypothesis violated: {exc}") from exc
    least = spec.least_order(p) if spec.least_order else p.n
    if p.n < least:
        raise UsageError(f"{name}: hypothesis violated: n={p.n} < "
                         f"least order {least}")


def check_property_for_theorem(name: str, g: Graph, p: fam.FamilyParams,
                               limit: int = mf.EXHAUSTIVE_LIMIT
                               ) -> tuple[bool, mf.Certificate | None]:
    """The theorem's route; ``limit`` bounds the Hamilton search, the only
    route that is exhaustive."""
    return ROUTES[THEOREMS[name].route].check(g, p.k, limit)


def oracle_property_for_theorem(name: str, g: Graph, p: fam.FamilyParams,
                                limit: int = mf.EXHAUSTIVE_LIMIT
                                ) -> bool | None:
    """The oracle's verdict; None where the route has none or it abstains."""
    oracle = ROUTES[THEOREMS[name].route].oracle
    return None if oracle is None else oracle(g, p.k, limit)


def _in_hypothesis_class(spec: TheoremSpec, rows: list[int],
                         delta: int | None) -> bool:
    if delta is not None and min(map(int.bit_count, rows)) != delta:
        return False
    return not spec.requires_connected or rows_connected(rows)


def _perturb(rng: random.Random, base: Graph, edits: int) -> list[int]:
    """Adjacency rows of ``base`` with ``edits`` random pairs toggled, across
    the bipartition when ``base`` carries one."""
    rows = list(base.adj)
    if base.side_a is not None:
        a_side = base.side_vertices(SIDE_A)
        b_side = base.side_vertices(SIDE_B)
    for _ in range(edits):
        if base.side_a is not None:
            u = a_side[rng.randrange(len(a_side))]
            v = b_side[rng.randrange(len(b_side))]
        else:
            u = rng.randrange(base.n)
            v = rng.randrange(base.n)
            while v == u:
                v = rng.randrange(base.n)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return rows


def _keep_bound(n: int, side: int | None, delta: int | None,
                prob: float) -> float:
    """An upper bound on the share of draws that keep: 1 without a pinned
    ``delta``; else the sum over the vertices v of P(Bin(d_v, prob) =
    delta), since a kept draw has a vertex of degree exactly ``delta``;
    d_v is v's number of candidate neighbours, n-1, or the other side's
    size."""
    if delta is None:
        return 1.0
    cands = ([n - 1] * n if side is None
             else [n - side] * side + [side] * (n - side))
    return sum(comb(d, delta) * prob ** delta * (1 - prob) ** (d - delta)
               for d in cands if d >= delta)


@lru_cache(maxsize=256)
def _block_sizes(n: int, side: int | None, delta: int | None,
                 prob: float) -> tuple[int, ...]:
    """The attempts of each draw block, summing to ``SAMPLE_ATTEMPTS``: a
    first block of floor(1/q) attempts, q being ``_keep_bound`` (at least
    one; all ``SAMPLE_ATTEMPTS`` when q * SAMPLE_ATTEMPTS <= 1, so that
    even a whole branch likely keeps nothing), then ``DRAW_GROWTH`` times
    the last; each cut to at most ``DRAW_BUDGET`` pair draws (and at least
    one attempt)."""
    cap = max(1, DRAW_BUDGET // max(1, len(_pair_cells(n, side))))
    rate = _keep_bound(n, side, delta, prob)
    size = (max(1, int(1 / rate)) if rate * SAMPLE_ATTEMPTS > 1
            else SAMPLE_ATTEMPTS)
    sizes, left = [], SAMPLE_ATTEMPTS
    while left:
        sizes.append(min(size, cap, left))
        left -= sizes[-1]
        size *= DRAW_GROWTH
    return tuple(sizes)


def _drawn_sample(spec: TheoremSpec, n: int, delta: int | None,
                  rng: random.Random, prob: float) -> Graph | None:
    """The first of ``SAMPLE_ATTEMPTS`` random draws that lies in the
    hypothesis class, or None when none does.

    The attempts are drawn a block at a time (``_block_sizes``): a first
    block of about the attempts that can hold one keep, so a branch that
    cannot keep reads its attempts in as few blocks as the budget allows,
    and an unpinned class starts with one attempt. A whole block is
    filtered at once by minimum degree, from degrees summed over its pair
    bits: it must equal the pinned ``delta``, or, in a connected class
    without one, be positive. Adjacency matrices and rows are built only
    for the attempts that pass, and those are tested for connectivity in
    attempt order, so the kept draw is the one the attempts one by one
    would keep, whatever the blocks.

    An exhausted branch leaves ``rng`` where ``SAMPLE_ATTEMPTS`` single
    draws leave it. A kept draw may leave ``rng`` past its own words, by
    the rest of its block."""
    side = n // 2 if spec.bipartite else None
    side_a = (1 << side) - 1 if spec.bipartite else None
    for size in _block_sizes(n, side, delta, prob):
        bits = _pair_bits(rng, n, side, prob, size)
        if delta is not None or (spec.requires_connected and n > 1):
            low = (bits @ _pair_ends(n, side)).min(axis=1)
            # a connected graph has no isolated vertex
            bits = bits[low == delta] if delta is not None else bits[low > 0]
            if not len(bits):
                continue
        for rows in bitset_rows(_adjacency(bits, n, side)):
            if not spec.requires_connected or rows_connected(rows):
                return Graph._trusted(n, tuple(rows), side_a)
    return None


def sample_for_theorem(spec: TheoremSpec, p: fam.FamilyParams,
                       extremal: Graph, rng: random.Random,
                       index: int) -> Graph:
    """One graph from the theorem's hypothesis class: random graphs over an
    edge-probability sweep, alternating with near-extremal perturbations
    (up to 3 edge edits); rejection until class membership, else the
    extremal graph itself. A class that ``spec.pins_min_degree`` keeps
    minimum degree ``p.delta``, exactly the member's: only points where the
    two agree pass ``validate_hypotheses``.

    Even indices first try ``SAMPLE_ATTEMPTS`` draws (``_drawn_sample``);
    an exhausted draw branch, and every odd index, go on to the
    perturbations, which read ``rng`` on from where the draws left it.
    ``rng`` belongs to this one sample (the callers pass ``rng_for(seed,
    index)``): past a kept draw it may have read further than the draw
    itself, and it is discarded then.

    Draws and perturbations are adjacency rows, tested for class membership
    as rows; rejected ones never become ``Graph`` objects. Only the kept
    sample is built as a ``Graph``, with ``Graph._trusted``: a draw sets
    each pair in both rows and only across the sides of a bipartite draw,
    and a perturbation toggles a pair of distinct vertices in both rows,
    across the extremal graph's sides when it has them."""
    delta = p.delta if spec.pins_min_degree else None
    if index % 2 == 0:
        prob = P_SWEEP[(index // 2) % len(P_SWEEP)]
        drawn = _drawn_sample(spec, p.n, delta, rng, prob)
        if drawn is not None:
            return drawn
    for _ in range(SAMPLE_ATTEMPTS):
        rows = _perturb(rng, extremal, 1 + rng.randrange(3))
        if _in_hypothesis_class(spec, rows, delta):
            return Graph._trusted(extremal.n, tuple(rows), extremal.side_a)
    return extremal


# -- verify mode ----------------------------------------------------------


def _classify_row(holds: bool | None, is_extremal: bool, margin: float,
                  tol: float) -> str:
    if is_extremal:
        return "extremal-hit"
    if abs(margin) <= tol:
        return "borderline"
    if margin < -tol:
        return "consistent"
    return "consistent" if holds else "counterexample-candidate"


def _row(graph: str, verdict, rho: float | None = None,
         rho_star: float | None = None, margin: float | None = None,
         certificate: str = "", extremal="") -> dict:
    """One ``PROPERTY_COLUMNS`` row; an unset cell renders empty in CSV and
    as null (numbers) or "" (text) in JSON."""
    return {"graph": graph, "rho": rho, "rho_star": rho_star,
            "margin": margin, "verdict": verdict,
            "certificate": certificate, "extremal": extremal}


def _add_row(report: Report, row: dict, category: str,
             note: str | None = None, bad: str | None = None) -> None:
    """Append a row with its category, its note (if any) and its failed
    re-validation (if any)."""
    report.rows.append(row)
    report.count(category)
    if note:
        report.notes.append(note)
    report.flag(bad)


def _evaluate(report: Report, where: str, text: str, g: Graph, rho: float,
              theorem: str, p: fam.FamilyParams, thr: fam.Threshold,
              tol: float, limit: int) -> None:
    """The one pipeline that verify's samples and scan's lines run: spectral
    margin, recognizer, checker (only at or above the threshold, and only
    off the extremal family), classification, re-verification of a
    counterexample candidate and certificate re-validation.

    Appends the row of ``g`` (shown as ``text``) to ``report``; ``where``
    prefixes both of its notes. ``rho`` is ``g``'s ``rho_dense``, which
    the callers solve in stacks (``sp.rho_dense_many``), bit for bit the
    single solve. A checker that cannot take ``g`` skips the row."""
    spec = THEOREMS[theorem]
    margin = rho - thr.rho_star
    recognized = fam.recognize(spec.family, p, g)
    holds: bool | None = None
    cert = None
    if margin >= -tol and not recognized:
        try:
            holds, cert = check_property_for_theorem(theorem, g, p, limit)
        except GraphError as exc:
            _add_row(report, _row(text, f"skipped: {exc}", rho, thr.rho_star,
                                  margin), "skipped")
            return
    category = _classify_row(holds, recognized, margin, tol)
    note = None
    if category == "counterexample-candidate":
        confirmed, why = _reverify_candidate(theorem, g, p, thr, tol, limit)
        if not confirmed:
            category = "consistent"
            note = f"{where} {why}"
    row = _row(text, "" if holds is None else holds, rho, thr.rho_star,
               margin, cert.to_json() if cert else "", recognized)
    _add_row(report, row, category, note, _revalidation_note(g, cert, where))


def cmd_verify(theorem: str, p: fam.FamilyParams | None, samples: int,
               seed: int, tol: float = DEFAULT_TOL,
               limit: int = mf.EXHAUSTIVE_LIMIT) -> Report:
    """A theorem's report (its extremal row, then ``samples`` samples), or
    a lemma's sweep, which takes no parameters: ``p`` may be None.

    The samples are drawn a chunk at a time. One ``sp.rho_dense_many``
    call solves a chunk's rho and one ``graph6_encode_many`` call writes
    its graph6 column before its rows are evaluated in index order. A
    chunk is one eigensolve stack (``sp.stack_size(n)`` samples: 327 at
    n = 10, 101 at n = 18), so the chunk's solve is a single ``eigvalsh``
    call, its encoding a single stack, and the samples held at once stay
    bounded for any ``samples``. Each sample draws from its own
    ``rng_for(seed, i)``, so the chunking changes no row."""
    report = Report(mode=f"verify {theorem}", columns=PROPERTY_COLUMNS)
    if theorem in LEMMAS:
        LEMMAS[theorem](report)
        return report
    validate_hypotheses(theorem, p)
    spec = THEOREMS[theorem]
    if theorem == "t1.1" and p.delta == 2 * p.k:
        report.notes.append(
            "boundary delta=2k accepted; the supporting comparison is "
            "stated for delta >= 2k+1")
    extremal = fam.construct_family(spec.family, p)
    thr = fam.threshold_rho(spec.family, p)
    rho_ext = sp.rho_dense(extremal)
    # The extremal row runs the samples' checker at their order first, so
    # a checker that cannot take this order ends the run here (exit 2).
    holds, cert = check_property_for_theorem(theorem, extremal, p, limit)
    recognized = fam.recognize(spec.family, p, extremal)
    report.rows.append(_row(graph6_encode(extremal), holds, rho_ext,
                            thr.rho_star, rho_ext - thr.rho_star,
                            cert.to_json() if cert else "", recognized))
    report.count("extremal-hit")
    if abs(rho_ext - thr.rho_star) > tol:
        report.flag(f"tightness violated: |rho - rho_star| = "
                    f"{abs(rho_ext - thr.rho_star):.3e} > tol")
    if holds:
        report.flag("extremal graph unexpectedly has the property")
    report.flag(_revalidation_note(extremal, cert, "extremal"))

    chunk = sp.stack_size(p.n)
    for start in range(0, samples, chunk):
        indices = range(start, min(start + chunk, samples))
        graphs = [sample_for_theorem(spec, p, extremal, rng_for(seed, i), i)
                  for i in indices]
        for i, g, text, rho in zip(indices, graphs,
                                   graph6_encode_many(graphs),
                                   sp.rho_dense_many(graphs)):
            _evaluate(report, f"sample {i}:", text, g, rho, theorem, p, thr,
                      tol, limit)
    return report


def _revalidation_note(g: Graph, cert: mf.Certificate | None,
                       where: str) -> str | None:
    """The note "<where> certificate failed re-validation" when ``cert``
    does not re-validate on ``g``, else None. Every certificate that
    verify, check and scan emit is re-validated here."""
    if cert is None or mf.validate_certificate(g, cert):
        return None
    return f"{where} certificate failed re-validation"


def _reverify_candidate(theorem: str, g: Graph, p: fam.FamilyParams,
                        thr: fam.Threshold, tol: float,
                        limit: int) -> tuple[bool, str]:
    """(confirmed, why dropped) for a counterexample candidate. rho is
    solved again at tol/100, and a candidate below the threshold then is
    dropped; so is one on which the route's oracle finds the property. Where
    the oracle abstains (None), the re-solve alone confirms."""
    tight = tol / 100
    rho = sp.spectral_radius(g, tol=min(tight, sp.default_tol(g.n))).rho
    if rho - thr.rho_star < -tight:
        return False, "candidate dropped: rho below threshold when re-solved"
    if oracle_property_for_theorem(theorem, g, p, limit):
        return False, "candidate dropped: property holds via oracle route"
    return True, ""


# -- lemma sweeps ----------------------------------------------------------


def _cells_22() -> Iterable[tuple[str, fam.BlowUp, fam.BlowUp]]:
    """Lemma 2.2: an s-clique joined to t cliques of sizes >= p, against
    the most unbalanced such sizes."""
    for t in range(2, 5):
        for prt in range(1, 4):
            for s in range(1, 6):
                for n in range(s + t * prt + 1, LEMMA_MAX_N + 1):
                    cap = n - s - prt * (t - 1) - 1
                    # one rhs per (t, p, s, n), shared by its cells
                    rhs = fam.join_cliques(
                        s, (n - s - prt * (t - 1),) + (prt,) * (t - 1))
                    for part in _partitions(n - s, t, prt, cap):
                        yield (f"l2.2 t={t} p={prt} s={s} n={n} "
                               f"parts={'+'.join(map(str, part))}",
                               fam.join_cliques(s, part), rhs)


def _partitions(total: int, parts: int, minimum: int,
                cap: int) -> Iterable[tuple[int, ...]]:
    """Decreasing integer tuples of length ``parts`` summing to ``total``,
    entries in [minimum, cap]."""
    def rec(remaining, slots, hi):
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        lo = max(minimum, -(-remaining // slots))
        for first in range(min(hi, remaining - minimum * (slots - 1)),
                           lo - 1, -1):
            for rest in rec(remaining - first, slots - 1, first):
                yield (first,) + rest

    if cap < minimum or total < parts * minimum:
        return
    yield from rec(total, parts, cap)


def _cells_23() -> Iterable[tuple[str, fam.BlowUp, fam.BlowUp]]:
    """Lemma 2.3: a 2k-clique joined to two cliques, against the join of
    the kext-general member, built for odd n too."""
    for k in (1, 2):
        for delta in range(2 * k + 1, 6):
            for n in range(8 * delta - 10 * k + 4, LEMMA_MAX_N + 1):
                yield (f"l2.3 k={k} delta={delta} n={n}",
                       fam.join_cliques(2 * k, (delta - 2 * k + 1,
                                                n - delta - 1)),
                       fam.join_cliques(delta, fam.join_sizes(n, 2 * k,
                                                              delta)))


def _cells_26() -> Iterable[tuple[str, fam.BlowUp, fam.BlowUp]]:
    """Lemma 2.6: the overlay at s against the overlay at s-1, from t1.2's
    least order 4s+2k+2 up."""
    for k in range(1, 5):
        for s in range(1, 6):
            for n in range(4 * s + 2 * k + 2, LEMMA_MAX_N + 1, 2):
                yield (f"l2.6 k={k} s={s} n={n}", fam.overlay(n, k, s),
                       fam.overlay(n, k, s - 1))


def _sweep_rows(report: Report,
                cells: Iterable[tuple[str, fam.BlowUp, fam.BlowUp]],
                stride: int) -> None:
    """One row per (label, lhs, rhs) cell, each side a ``BlowUp``: the
    lemma holds when rho(rhs) exceeds rho(lhs). Both come from exact
    quotients; every ``stride``-th cell also checks them against the dense
    spectra of the graphs. l2.2 and l2.3 pass DENSE_STRIDE, l2.6 passes 1
    and so rechecks every cell.

    Cells are read LEMMA_CHUNK at a time. A chunk's lhs quotients are
    solved in one stacked batch, and so are its rhs and its rechecked
    sides that no earlier chunk solved; each distinct side is solved once
    per sweep. A chunk keeps each lhs's quotient, and the lhs itself only
    on a rechecked cell: a ``BlowUp`` is a tuple subclass, which the garbage
    collector never untracks, so a chunk of them would lengthen every
    collection (measured: lemma sweeps about 4% slower)."""
    rhs_rho: dict[fam.BlowUp, float] = {}
    dense: dict[fam.BlowUp, float] = {}
    cells = iter(cells)
    start = 0
    while True:
        labels, quotients, rhss, checked = [], [], [], {}
        for i, (label, lhs, rhs) in enumerate(islice(cells, LEMMA_CHUNK)):
            labels.append(label)
            quotients.append(lhs.quotient())
            rhss.append(rhs)
            if (start + i) % stride == 0:
                checked[i] = lhs
        if not labels:
            return
        los = sp.largest_eigenvalues(quotients)
        _solve_new(rhs_rho, rhss, _quotient_rhos)
        _solve_new(dense, (side for i, lhs in checked.items()
                           for side in (lhs, rhss[i])), _dense_rhos)
        for i, (label, lo, rhs) in enumerate(zip(labels, los, rhss)):
            hi = rhs_rho[rhs]
            margin = hi - lo
            ok = margin > LEMMA_MARGIN
            if i in checked:
                ok = (ok and abs(lo - dense[checked[i]]) <= 1e-8
                      and abs(hi - dense[rhs]) <= 1e-8)
            report.rows.append(_row(label, ok, lo, hi, margin))
            report.count("consistent" if ok else "counterexample-candidate")
        start += len(labels)


def _quotient_rhos(sides: list[fam.BlowUp]) -> list[float]:
    return sp.largest_eigenvalues([side.quotient() for side in sides])


def _dense_rhos(sides: list[fam.BlowUp]) -> list[float]:
    return sp.rho_dense_many([side.graph() for side in sides])


def _solve_new(known: dict[fam.BlowUp, float], sides: Iterable[fam.BlowUp],
               solve: Callable[[list[fam.BlowUp]], list[float]]) -> None:
    """Add to ``known`` the values of the sides it lacks, each solved once
    in one ``solve`` call."""
    new = list(dict.fromkeys(side for side in sides if side not in known))
    known.update(zip(new, solve(new)))


# lemma -> the builder of its sweep's rows
LEMMAS: dict[str, Callable[[Report], None]] = {
    "l2.2": lambda report: _sweep_rows(report, _cells_22(), DENSE_STRIDE),
    "l2.3": lambda report: _sweep_rows(report, _cells_23(), DENSE_STRIDE),
    "l2.6": lambda report: _sweep_rows(report, _cells_26(), 1),
}


# -- cross-check mode ------------------------------------------------------


def _compare_on_graph(g: Graph) -> list[str]:
    """All applicable oracle equivalences on one graph; returns mismatch
    descriptions (empty when everything agrees).

    The Chen and Plummer routes run here on every graph that they take,
    against the definitional scan, which neither runs; Ore's criterion
    runs against the flow route on every balanced bipartite graph, with
    |A| <= 4 here, far inside its default limit."""
    issues = []
    if g.n % 2 == 0 and g.n >= 2 and is_connected(g):
        for k in (1, 2):
            chen = mf.is_k_extendable_chen(g, k)
            defn = mf.is_k_extendable_definitional(g, k)
            issues += _disagreement("chen!=definitional", k, chen, defn, g)
            issues += _failed_revalidations(g, g, (chen, defn))
    gb = infer_bipartition(g)
    if gb is not None and gb.side_a.bit_count() * 2 == gb.n and gb.n >= 2:
        if is_connected(gb) and gb.n % 2 == 0:
            for k in (1, 2):
                plum = mf.is_k_extendable_plummer(gb, k)
                defn = mf.is_k_extendable_definitional(gb, k)
                issues += _disagreement("plummer!=definitional", k, plum,
                                        defn, g)
                issues += _failed_revalidations(gb, g, (plum, defn))
        for k in (1, 2, 3):
            ore = mf.has_f_factor_ore(gb, mf.FactorSpec.constant(gb.n, k))
            flow = mf.find_k_factor_flow(gb, k)
            issues += _disagreement("ore!=flow", k, ore, flow, g)
            issues += _failed_revalidations(gb, g, (ore, flow))
    return issues


def _disagreement(routes: str, k: int, first, second, g: Graph) -> list[str]:
    """The mismatch description when two (verdict, certificate) results on
    ``g`` disagree, else nothing."""
    if first[0] == second[0]:
        return []
    return [f"{routes} k={k}: {first[0]} vs {second[0]} on "
            f"{graph6_encode(g)}; certificates {_cert_str(first[1])} | "
            f"{_cert_str(second[1])}"]


def _failed_revalidations(host: Graph, g: Graph, results) -> list[str]:
    """One mismatch description per certificate among ``results`` that fails
    re-validation on ``host`` (``g`` or its bipartite form)."""
    return [f"certificate failed revalidation on {graph6_encode(g)}: "
            f"{_cert_str(cert)}" for _, cert in results
            if cert is not None and not mf.validate_certificate(host, cert)]


def _cert_str(cert: mf.Certificate | None) -> str:
    return cert.to_json() if cert is not None else "-"


def _enumerated_graphs(max_n: int) -> Iterator[Graph]:
    """Every labeled graph of order 2..min(max_n, 6): by order, then by the
    mask whose bit i is the i-th pair (u, v), u < v, in row order."""
    for n in range(2, min(max_n, 6) + 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            adj = [0] * n
            for i, (u, v) in enumerate(pairs):
                if (mask >> i) & 1:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
            yield Graph._trusted(n, tuple(adj))


def cmd_cross_check(max_n: int, samples: int, seed: int,
                    bipartite_extra: int = 0) -> Report:
    report = Report(mode="cross-check", columns=PROPERTY_COLUMNS)
    processed = 0
    issues_total = 0

    def handle(g: Graph):
        nonlocal processed, issues_total
        processed += 1
        for issue in _compare_on_graph(g):
            issues_total += 1
            report.rows.append(_row(graph6_encode(g), False,
                                    certificate=issue))

    for g in _enumerated_graphs(max_n):
        handle(g)
    idx = 0
    for n in range(7, max_n + 1):
        for _ in range(samples):
            rng = rng_for(seed, idx)
            handle(random_graph(rng, n, P_SWEEP[idx % len(P_SWEEP)]))
            idx += 1
    for j in range(bipartite_extra):
        rng = rng_for(seed, 10 ** 6 + j)
        half = 3 + (j % 2)
        handle(random_bipartite(rng, half, half, P_SWEEP[j % len(P_SWEEP)]))
    report.summary["graphs"] = processed
    report.summary["disagreements"] = issues_total
    return report


# -- stream modes ----------------------------------------------------------


def _decode_lines(lines: Iterable[str], report: Report,
                  strict: bool = False) -> list[tuple[int, str, Graph]]:
    """(index, text, graph) for each nonblank line that decodes as graph6;
    the index counts every line from 0.

    A malformed line raises UsageError naming it when ``strict``; otherwise
    it is left out and counted once, under ``parse-errors`` in the report's
    summary, and UsageError is raised when every nonblank line is
    malformed."""
    out = []
    for idx, line in enumerate(lines):
        text = line.strip()
        if not text:
            continue
        try:
            out.append((idx, text, graph6_decode(text)))
        except GraphError as exc:
            if strict:
                raise UsageError(f"line {idx + 1}: {exc}") from exc
            report.count("parse-errors")
    if not out and "parse-errors" in report.summary:
        raise UsageError("all input lines were malformed")
    return out


def _rho_row(text: str, g: Graph, cols: sp.RhoRow | None) -> dict:
    """A ``rho`` row from the line's ``sp.RhoRow`` (None when n = 0): rho
    and identity (13) when n >= 1, the FMS bound when the line is
    connected with n >= 2, and sqrt(m) when it is bipartite with an
    edge."""
    row = {"graph": text, "rho": None,
           "fms_bound": None, "sqrt_m": None, "identity13": ""}
    if cols is not None:
        row["rho"] = cols.rho
        if g.n >= 2 and is_connected(g):
            row["fms_bound"] = cols.fms[0]
        row["identity13"] = ("ok" if np.array_equal(cols.lhs, cols.rhs)
                             else "fail")
    gb = infer_bipartition(g)
    if gb is not None and gb.m >= 1:
        row["sqrt_m"] = sp.sqrt_m_bound(gb)
    return row


def cmd_rho(lines: Iterable[str]) -> Report:
    """One row per decoded line: its spectral radius, the bounds and
    identity (13). One ``sp.rho_rows`` call gives the spectral radius, the
    FMS bound and both sides of identity (13) of every line with n >= 1,
    from one adjacency stack per stack of lines of one order; each row's
    rho is the line's ``rho_dense``, as in verify, check and scan rows."""
    report = Report(mode="rho", columns=RHO_COLUMNS)
    decoded = _decode_lines(lines, report)
    solved = iter(sp.rho_rows([g for _, _, g in decoded if g.n >= 1]))
    for _, text, g in decoded:
        cols = next(solved) if g.n >= 1 else None
        _add_row(report, _rho_row(text, g, cols), "consistent")
    return report


def _check_row(report: Report, idx: int, text: str, g: Graph,
               rho: float | None, prop: str, k: int | None,
               limit: int) -> None:
    """The property's bipartite route on the bipartite form of the line when
    it has one, else its general route on the line; a line that no route
    takes, or that its route cannot take, is skipped. ``rho`` is the
    line's ``rho_dense`` (None when n = 0)."""
    route = _ROUTE_OF.get((prop, True))
    host = infer_bipartition(g) if route else None
    if host is None:
        route, host = _ROUTE_OF.get((prop, False)), g
    cert = None
    if route is None:
        verdict = "skipped: input is not bipartite"
    else:
        try:
            verdict, cert = route.check(host, k, limit)
        except GraphError as exc:
            verdict = f"skipped: {exc}"
    row = _row(text, verdict, rho,
               certificate=cert.to_json() if cert else "")
    _add_row(report, row,
             "skipped" if isinstance(verdict, str) else "consistent",
             bad=_revalidation_note(host, cert, f"line {idx + 1}:"))


def cmd_check(lines: Iterable[str], prop: str, k: int | None,
              limit: int = mf.EXHAUSTIVE_LIMIT) -> Report:
    if prop not in PROPERTIES:
        raise UsageError(f"unknown property {prop!r}; properties are "
                         f"{', '.join(PROPERTIES)}")
    least = PROPERTIES[prop]
    if least is not None and (k is None or k < least):
        raise UsageError(f"property {prop} needs --k >= {least}, "
                         f"got --k {k}")
    report = Report(mode=f"check {prop}", columns=PROPERTY_COLUMNS)
    decoded = _decode_lines(lines, report, strict=True)
    # one stacked rho_dense solve for every line with n >= 1, as in cmd_rho
    rhos = iter(sp.rho_dense_many([g for _, _, g in decoded if g.n >= 1]))
    for idx, text, g in decoded:
        _check_row(report, idx, text, g, next(rhos) if g.n >= 1 else None,
                   prop, k, limit)
    return report


def _scan_host(g: Graph, theorem: str, p: fam.FamilyParams) -> Graph | str:
    """The graph that scan evaluates for a line: the line itself, or its
    bipartite form for a bipartite theorem; or, for a line of the wrong
    order or a non-bipartite line for a bipartite theorem, the verdict that
    skips it."""
    if g.n != p.n:
        return f"skipped: order {g.n} != {p.n}"
    if THEOREMS[theorem].bipartite:
        host = infer_bipartition(g)
        return "skipped: not bipartite" if host is None else host
    return g


def cmd_scan(lines: Iterable[str], theorem: str, p: fam.FamilyParams,
             tol: float = DEFAULT_TOL,
             limit: int = mf.EXHAUSTIVE_LIMIT) -> Report:
    """One row per decoded line, in line order: ``_evaluate`` on the lines
    that pass the order and bipartiteness filters, whose rho comes from one
    ``sp.rho_dense_many`` call, as in ``cmd_check``; a skipped row for each
    other line."""
    validate_hypotheses(theorem, p)
    thr = fam.threshold_rho(THEOREMS[theorem].family, p)
    report = Report(mode=f"scan {theorem}", columns=PROPERTY_COLUMNS)
    decoded = _decode_lines(lines, report)
    hosts = [_scan_host(g, theorem, p) for _, _, g in decoded]
    rhos = iter(sp.rho_dense_many([h for h in hosts if isinstance(h, Graph)]))
    for (idx, text, _), host in zip(decoded, hosts):
        if isinstance(host, str):
            _add_row(report, _row(text, host, rho_star=thr.rho_star),
                     "skipped")
        else:
            _evaluate(report, f"line {idx + 1}:", text, host, next(rhos),
                      theorem, p, thr, tol, limit)
    return report


def cmd_construct(family: str, p: fam.FamilyParams) -> str:
    return graph6_encode(fam.construct_family(family, p))
