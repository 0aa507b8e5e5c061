"""Seeded inputs for the benchmark workloads.

A workload is an endless sequence of rounds; a round is a list of
``Command`` objects, each one ``specmatch`` invocation (argv plus graph6
lines on stdin). Everything is derived from (benchmark seed, round index)
with ``harness.rng_for``, so the same seed always gives the same commands.
The program only ever sees argv and stdin lines.

Round composition is fixed per workload; the seed only draws the random
parts (sampler seeds, graph edges). Graph orders follow fixed schedules
because checker cost grows as 2^n: a seed-drawn order would make the rate
swing with the draw rather than with the code.
"""
from __future__ import annotations

from dataclasses import dataclass

from specmatch import families as fam
from specmatch import harness as hz
from specmatch import spectra as sp
from specmatch.graph import graph6_encode, infer_bipartition, is_connected

# Cells of the fixed lemma grids; a report with another count is wrong.
LEMMA_CELLS = {"l2.2": 59340, "l2.3": 62, "l2.6": 230}
# Graphs of order 2..6 enumerated exhaustively by cross-check.
EXHAUSTIVE_GRAPHS = sum(1 << (n * (n - 1) // 2) for n in range(2, 7))

CROSS_CHECK_SAMPLES = 50  # per order 7 and 8

# verify-check: each command has VC_SAMPLES samples of which exactly
# VC_CHECKED reach the Chen checker (the natural share is about 4.7 %).
# Fixing the share keeps the rate from following the Poisson count of
# checked rows, each of which costs about 100x an unchecked one.
VC_PARAMS = fam.FamilyParams(n=18, k=1, delta=3)
VC_SAMPLES = 40
VC_CHECKED = 2

RHO_SMALL = 240          # lines of order 12..20 per round
RHO_LARGE = (200, 300)   # tail orders, one line each per round
KEXT_GENERAL = (12, 14, 16) * 3
KEXT_BIPARTITE_HALF = (10, 12, 14, 16) * 2
KFC_ORDERS = (12, 13, 15, 17) * 2
DENSITIES = (0.3, 0.5, 0.7)
RHO_DENSITIES = (0.2, 0.3, 0.5, 0.7)


@dataclass
class Command:
    kind: str                 # verify | lemma | rho | check | cross-check
    argv: list[str]
    items: int                # samples, cells, lines or graphs
    stdin: str = ""
    theorem: str = ""
    checked: int | None = None  # rows the screen expects at the checker

    def label(self) -> str:
        return " ".join(self.argv)


def _verify(theorem: str, p: fam.FamilyParams, samples: int,
            seed: int) -> Command:
    argv = ["verify", "--theorem", theorem, "--n", str(p.n)]
    if p.k is not None:
        argv += ["--k", str(p.k)]
    if p.delta is not None:
        argv += ["--delta", str(p.delta)]
    argv += ["--samples", str(samples), "--seed", str(seed), "--jobs", "1"]
    return Command("verify", argv, samples, theorem=theorem)


def _stream(kind: str, argv: list[str], lines: list[str]) -> Command:
    return Command(kind, argv + ["--jobs", "1"], len(lines),
                   stdin="".join(line + "\n" for line in lines))


def _connected_general(rng, n: int, p: float):
    while True:
        g = hz.random_graph(rng, n, p)
        if is_connected(g) and infer_bipartition(g) is None:
            return g


def _connected_bipartite(rng, half: int, p: float):
    while True:
        g = hz.random_bipartite(rng, half, half, p)
        if is_connected(g):
            return g


class VerifyCheckScreen:
    """Finds sampler seeds whose first VC_SAMPLES samples send exactly
    VC_CHECKED rows to the checker, using the library's own sampler,
    threshold and recognizer (the rule of ``harness.cmd_verify``)."""

    def __init__(self):
        self.spec = hz.THEOREMS["t1.1"]
        self.extremal = fam.construct_family(self.spec.family, VC_PARAMS)
        self.rho_star = fam.threshold_rho(self.spec.family,
                                          VC_PARAMS).rho_star

    def checked_rows(self, seed: int, stop_above: int) -> int:
        count = 0
        for i in range(VC_SAMPLES):
            g = hz.sample_for_theorem(self.spec, VC_PARAMS, self.extremal,
                                      hz.rng_for(seed, i), i)
            margin = sp.rho_dense(g) - self.rho_star
            if margin >= -hz.DEFAULT_TOL and not fam.recognize(
                    self.spec.family, VC_PARAMS, g):
                count += 1
                if count > stop_above:
                    break
        return count

    def seed(self, rng) -> int:
        while True:
            seed = rng.randrange(2 ** 31)
            if self.checked_rows(seed, VC_CHECKED) == VC_CHECKED:
                return seed


def _verify_sample(rng, _state) -> list[Command]:
    return [
        _verify("t1.1", fam.FamilyParams(n=10, k=1, delta=2), 1000,
                rng.randrange(2 ** 31)),
        _verify("t1.3", fam.FamilyParams(n=8, k=2), 1000,
                rng.randrange(2 ** 31)),
        _verify("t1.2", fam.FamilyParams(n=16, k=1, delta=2), 200,
                rng.randrange(2 ** 31)),
    ]


def _verify_check(rng, screen: VerifyCheckScreen) -> list[Command]:
    cmd = _verify("t1.1", VC_PARAMS, VC_SAMPLES, screen.seed(rng))
    cmd.checked = VC_CHECKED
    return [cmd]


def _lemma_sweep(_rng, _state) -> list[Command]:
    return [Command("lemma", ["verify", "--theorem", lemma, "--n", "40",
                              "--jobs", "1"], cells, theorem=lemma)
            for lemma, cells in LEMMA_CELLS.items()]


def _graph6_stream(rng, _state) -> list[Command]:
    rho_lines = [graph6_encode(hz.random_graph(
        rng, 12 + i % 9, RHO_DENSITIES[i % 4])) for i in range(RHO_SMALL)]
    rho_lines += [graph6_encode(hz.random_graph(rng, n, 0.3))
                  for n in RHO_LARGE]
    kext = [graph6_encode(_connected_general(
        rng, n, DENSITIES[i % 3])) for i, n in enumerate(KEXT_GENERAL)]
    kext += [graph6_encode(_connected_bipartite(
        rng, half, DENSITIES[i % 3]))
        for i, half in enumerate(KEXT_BIPARTITE_HALF)]
    kfc = [graph6_encode(hz.random_graph(rng, n, DENSITIES[i % 3]))
           for i, n in enumerate(KFC_ORDERS)]
    return [
        _stream("rho", ["rho"], rho_lines),
        _stream("check", ["check", "--property", "k-extendable", "--k", "1"],
                kext),
        _stream("check", ["check", "--property", "k-factor-critical",
                          "--k", "1"], kfc),
    ]


def _cross_check(rng, _state) -> list[Command]:
    argv = ["cross-check", "--n", "8", "--samples", str(CROSS_CHECK_SAMPLES),
            "--seed", str(rng.randrange(2 ** 31)), "--jobs", "1"]
    return [Command("cross-check", argv,
                    EXHAUSTIVE_GRAPHS + 2 * CROSS_CHECK_SAMPLES)]


@dataclass(frozen=True)
class Workload:
    make_round: object          # (rng, state) -> list[Command]
    make_state: object = None   # () -> per-run generator state
    setup_mode: str = "run"     # run: zero-item commands; parse: parse only
    longest: int = 0            # index in a round of the longest command


WORKLOADS = {
    "verify-sample": Workload(_verify_sample),
    "verify-check": Workload(_verify_check, make_state=VerifyCheckScreen),
    "lemma-sweep": Workload(_lemma_sweep, setup_mode="parse"),
    "graph6-stream": Workload(_graph6_stream, longest=1),
    "cross-check": Workload(_cross_check, setup_mode="parse"),
}


class Rounds:
    """Lazily generated, cached rounds of one workload for one seed; the
    set-up probe and the timed pass share the first round."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.state = workload.make_state() if workload.make_state else None
        self.cache: list[list[Command]] = []

    def __getitem__(self, index: int) -> list[Command]:
        while len(self.cache) <= index:
            rng = hz.rng_for(self.seed, len(self.cache))
            self.cache.append(self.workload.make_round(rng, self.state))
        return self.cache[index]


def setup_commands(workload: Workload, first_round: list[Command]
                   ) -> list[list[str]]:
    """argv lists for the set-up probe: each command of a round with zero
    items (verify --samples 0; stream commands get empty stdin)."""
    out = []
    for cmd in first_round:
        argv = list(cmd.argv)
        if cmd.kind == "verify":
            argv[argv.index("--samples") + 1] = "0"
        out.append(argv)
    return out
