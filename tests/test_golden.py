"""Golden reports: the sha256 of stdout and the exit code of small CLI runs.

The digests were recorded before the matching layer was consolidated (one
augmenting-path routine, one violating-set search for all four criteria),
the three t1.3, t4.3 and t4.5 scans before the per-family recognizers gave
way to one isomorphism test, the l2.2 sweep before l2.2 and l2.3 came to
share one clique-pair evaluator, the two ``rho`` reports before power
iteration, identity (13) and the graph6 decoder were made faster, the t1.1
run at (20, 2, 4) before the odd-set searches skipped subtrees by the
Tutte-Berge bound on G-S, the t1.1 run at (18, 1, 3) before the sampler
drew its attempts in numpy blocks, the five verify runs with more samples
than two eigensolve stacks hold and the ``scanmix`` scan (lines of another
order and non-bipartite lines between evaluated ones) before verify and
scan took rho from stacked solves, and none may change. Two changes
recorded digests again. The l2.6 sweep moved from the overlay's
closed-form quartic to its exact quotient: one printed margin digit moved,
and the closed form's digit was the correctly rounded one. The Chen,
factor-criticality and Plummer routes came to certify a negative with
their own witness (the barrier of the failing matching's or k-set's
remainder; the surplus route's Hall failure) instead of an excess-maximal,
lex-least set: the t1.2 runs at (10, 1, 1) and at (16, 1, 2) over 300
samples and the ``ext1``, ``kfc``, ``kfc17`` and ``kfcbip`` checks were
recorded again. In them only the certificates of negative rows moved, and
the n = 22 line of ``kfcbip``, skipped while factor-criticality stopped
at n = 20, is now certified. Every certificate kind, every checker route and every family's
``extremal-hit`` rows that reach a report are covered. Graph6 input lines
are built from the library's constructors and the tests' graph helpers,
or decoded from graph6 literals, and passed with ``--input``.
"""
import hashlib
import random

import pytest

from specmatch import cli
from specmatch.families import (extremal_hamilton, extremal_kext_bipartite,
                                extremal_kext_general, extremal_kfactor,
                                extremal_kfc)
from specmatch.graph import (complete, complete_bipartite, cycle,
                             disjoint_union, empty, from_edges, graph6_decode,
                             graph6_encode, join)
from specmatch.harness import random_bipartite, random_graph, rng_for

from conftest import remove_star


def _n60_finding():
    """The pinned t1.2 finding: the (60, 2, 3) overlay plus edge (4, 25);
    |A| = 30 > 20, so its certificate comes from the surplus route."""
    g = extremal_kext_bipartite(60, 2, 3)
    return from_edges(60, g.edges() + [(4, 25)])


def _bipartite_draws(seed: int, count: int):
    return [random_bipartite(rng_for(seed, i), 3 + i % 4, 3 + i % 4,
                             (0.3, 0.5, 0.7)[i % 3]) for i in range(count)]


def _relabeled(g, seed: int):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _near_extremal(g, other, seed: int):
    """Three relabelings of the extremal graph ``g``, a relabeled graph of
    the same order that is not it, then every single toggle of ``g`` (across
    the sides when ``g`` has them), each relabeled."""
    toggles = [g.with_edge_toggled(u, v) for u in range(g.n)
               for v in range(u + 1, g.n)
               if g.side_a is None or (g.side_a >> u ^ g.side_a >> v) & 1]
    return ([_relabeled(g, seed + i) for i in range(3)]
            + [_relabeled(h, seed + 3 + i)
               for i, h in enumerate([other] + toggles)])


def _interleaved(first, second):
    """first[0], second[0], first[1], ...; the longer list's rest last."""
    out = [g for pair in zip(first, second) for g in pair]
    rest = len(min(first, second, key=len))
    return out + first[rest:] + second[rest:]


def _lines():
    k33_minus_star = remove_star(complete_bipartite(3, 3), 0, 3)
    return {
        "ext1": [extremal_kext_general(10, 1, 2), complete(6), cycle(8),
                 extremal_kext_bipartite(10, 1, 1), complete_bipartite(3, 5),
                 empty(2)] + _bipartite_draws(31, 8),
        "ext2": [_n60_finding(), extremal_kext_bipartite(16, 2, 2),
                 k33_minus_star, complete_bipartite(4, 4)],
        "ext3": [k33_minus_star, remove_star(complete_bipartite(4, 4), 1, 2)],
        "surplus": [extremal_kext_bipartite(10, 1, 1),
                    extremal_kext_bipartite(12, 1, 2),
                    extremal_kfactor(10, 3)] + _bipartite_draws(32, 12),
        "factor": [extremal_kfactor(8, 2), complete_bipartite(4, 4),
                   cycle(8), complete(5)] + _bipartite_draws(33, 8),
        "kfc": [extremal_kfc(15, 1, 2), complete(5), complete(6), cycle(7)]
               + [random_graph(rng_for(34, i), 7 + i % 4, 0.5)
                  for i in range(6)],
        # bipartite lines only: k-factor-critical has no bipartite route,
        # so these run its general route on the line as given
        # the k-factor-critical command of graph6-stream seed 7, round 0;
        # line 4 (n = 17) and line 7 (n = 15) are certified by one vertex
        "kfc17": [graph6_decode(line) for line in (
            "KCF?AxEg?GVe", "L_rTu^Q~Ru\\Sj`", "N|Snyxyym~PRv|~vJ^G",
            "POQ@@aaL??PEMRCwOBcD?ASW", "KzFYowpyAz^h", "LgJhmh~vDnhZkn",
            "NIT?@d?NCPGAOBZC_F?", "PYKGB[mfx|wiv`MNOG`a_HEk")],
        "kfcbip": [extremal_kfactor(8, 2), complete_bipartite(3, 4), cycle(8),
                   extremal_hamilton(8), extremal_kext_bipartite(10, 1, 1),
                   complete_bipartite(11, 11)] + _bipartite_draws(38, 6),
        "ham": [extremal_hamilton(8), cycle(8), complete_bipartite(4, 4),
                complete(5)] + _bipartite_draws(35, 6),
        "scan11": [random_graph(rng_for(36, i), 10, 0.5) for i in range(12)]
                  + [extremal_kext_general(10, 1, 2)],
        "scan12": [extremal_kext_bipartite(10, 1, 1).drop_bipartition()]
                  + [random_bipartite(rng_for(37, i), 5, 5, 0.6)
                     .drop_bipartition() for i in range(10)],
        "scan13": _near_extremal(extremal_kfactor(10, 3),
                                 extremal_kfactor(10, 2), 40),
        "scan43": _near_extremal(extremal_hamilton(10),
                                 extremal_kfactor(10, 3), 41),
        "scan45": _near_extremal(extremal_kfc(15, 1, 2),
                                 join(complete(3), disjoint_union(
                                     complete(10), empty(2))), 42),
        # n = 0, 1 and 2, disconnected lines (isolated vertices, tied
        # components), bipartite lines, long graph6 headers (n >= 63) and
        # G(n, p) draws at n 12-20, some of them disconnected
        "rho": [empty(0), empty(1), empty(2), complete(2),
                disjoint_union(complete(4), empty(3)),
                disjoint_union(cycle(5), disjoint_union(complete(3),
                                                        empty(1))),
                disjoint_union(complete(4), complete(4)),
                complete_bipartite(3, 5), cycle(8),
                extremal_kext_bipartite(10, 1, 1), _bipartite_draws(39, 1)[0],
                random_graph(rng_for(39, 0), 63, 0.1),
                random_graph(rng_for(39, 1), 64, 0.5),
                random_graph(rng_for(39, 2), 200, 0.05),
                random_graph(rng_for(39, 3), 300, 0.02)]
               + [random_graph(rng_for(40, i), 12 + i % 9,
                               (0.1, 0.3, 0.5, 0.8)[i % 4])
                  for i in range(24)],
        # t1.3 at n = 10: evaluated lines (three relabelings of the extremal
        # graph; K_{5,5} and three toggles of the extremal graph, which reach
        # the checker; draws below the threshold) between lines of another
        # order (n = 0 among them) and non-bipartite lines
        "scanmix": _interleaved(
            _near_extremal(extremal_kfactor(10, 3), complete_bipartite(5, 5),
                           43)[:7]
            + [random_bipartite(rng_for(44, i), 5, 5, 0.5).drop_bipartition()
               for i in range(3)],
            [empty(0), complete(10), cycle(8),
             disjoint_union(cycle(5), cycle(5)), complete_bipartite(4, 4),
             join(complete(1), cycle(9))]),
    }


# (argv, input lines or None, sha256 of stdout, exit code[, id suffix]);
# the id is argv's first three words and the input's name, and a suffix
# keeps a later case from renaming an earlier one with the same words
GOLDEN = [
    (["verify", "--theorem", "t1.1", "--n", "10", "--k", "1", "--delta",
      "2", "--samples", "40", "--seed", "5"], None,
     "97a2f0529765f62053266f977fce346278f44e09d49db83d4984c0447d8874d1",
     0),
    (["verify", "--theorem", "t1.2", "--n", "10", "--k", "1", "--delta",
      "1", "--samples", "40", "--seed", "2"], None,
     "500c140625df0a42d9d533c7800c93cbcc5f894361761dae9735674f058ed806",
     1),
    (["verify", "--theorem", "t1.2", "--n", "16", "--k", "1", "--delta",
      "2", "--samples", "40", "--seed", "5", "--exhaustive-limit", "4"],
     None,
     "ea854f60e155c90cdc6103cb1d3bc58683cf80a76949f411737503909ab2a154",
     1),
    (["verify", "--theorem", "t1.3", "--n", "8", "--k", "2", "--samples",
      "40", "--seed", "5", "--format", "json"], None,
     "9d21ecae33a282e3fed9dd24f61ad3d654c1082a652f5825a2b6c7e5a9db127f",
     0),
    (["verify", "--theorem", "t4.3", "--n", "8", "--samples", "20",
      "--seed", "5"], None,
     "0c68e271d12622ddf2ae939c1fce12b35df5da20f6dc8187d82d9e2e413c5d75",
     0),
    (["verify", "--theorem", "t4.5", "--n", "15", "--k", "1", "--delta",
      "2", "--samples", "20", "--seed", "5"], None,
     "ea6d65b1148202d50405b727443dab2aa6758d5b22c684d3cb8101ef8a2ee6ed",
     0),
    # the extremal row's Chen certificate at n = 20, k = 2
    (["verify", "--theorem", "t1.1", "--n", "20", "--k", "2", "--delta",
      "4", "--samples", "0"], None,
     "6fa9f81fc006ed120bda78a6a2d65eaf5cc2e36aef58e92aa8c4caaff91e5de8",
     0, "n20"),
    # verify-check's point: at p = 0.7 and 0.9 no draw has minimum degree
    # 3, so every such sample exhausts its draws and then perturbs
    (["verify", "--theorem", "t1.1", "--n", "18", "--k", "1", "--delta",
      "3", "--samples", "40", "--seed", "5"], None,
     "40d3a3a8c1b8c24dd5726063e016e90ed9af9ddf2ef5dfa3641f0f72790016bc",
     0, "n18"),
    # more samples than two eigensolve stacks of their order hold
    # (STACK_CELLS // n^2: 327 at n = 10, 512 at 8, 128 at 16, 145 at 15,
    # 101 at 18)
    (["verify", "--theorem", "t1.1", "--n", "10", "--k", "1", "--delta",
      "2", "--samples", "700", "--seed", "9"], None,
     "d6c81a77ed84fbf07671a8499a8fa4a74b737948b280bfb4a24f792408a295c7",
     0, "chunks"),
    (["verify", "--theorem", "t1.3", "--n", "8", "--k", "2", "--samples",
      "1100", "--seed", "9"], None,
     "9c9264e1fcde90aec91d4db46729ee3aad2a88e0c42972d2f9ce8a2c11b6e323",
     0, "chunks"),
    (["verify", "--theorem", "t1.2", "--n", "16", "--k", "1", "--delta",
      "2", "--samples", "300", "--seed", "9"], None,
     "e7e6c20347cd86e623b1cfd591dd1f69b84004854e0f1edfcbf170bb3397d28b",
     1, "chunks"),
    (["verify", "--theorem", "t4.5", "--n", "15", "--k", "1", "--delta",
      "2", "--samples", "320", "--seed", "9"], None,
     "87c2bc1285c90fd8f40e3e67d5827ba01c6fd7c966eea4812ed0c42a1ce29c6b",
     0, "chunks"),
    (["verify", "--theorem", "t1.1", "--n", "18", "--k", "1", "--delta",
      "3", "--samples", "250", "--seed", "9"], None,
     "8e085c0c465c40c739de7cdbc5ad5067dbf76ff5b22f76b7f3338a1fc6fa342c",
     0, "n18", "chunks"),
    (["verify", "--theorem", "l2.3", "--n", "40"], None,
     "2822c5e487c326b9b31d6df02eeedd405e31dd019da28349a1cfa41fdddd4ee3",
     0),
    # the margin of row k=1 s=3 n=26 reads 0.490488140842, not the closed
    # form's correctly rounded 0.490488140841 (exact 0.4904881408414969...)
    (["verify", "--theorem", "l2.6", "--n", "40"], None,
     "89e6d9242c0ce4b9129cbc8c9b7bc4a88de7e5832ff51d83646bbe93f2e8d409",
     0),
    (["check", "--property", "k-extendable", "--k", "1"], "ext1",
     "d7172d73bb04c8cdb1e26e86e52f90673b287725e68bb1f1ea9d34c50b6f7516",
     0),
    (["check", "--property", "k-extendable", "--k", "2"], "ext2",
     "9e4c4c5b0807860ff5dcdbc9d90306c1554e8b666c6faea1f1ab8977c0f89b66",
     0),
    (["check", "--property", "k-extendable", "--k", "3"], "ext3",
     "1357d0fc21146558a7e60741be9cbbfb887b73482ad99d33b54f7958b7f99cf5",
     0),
    (["check", "--property", "k-extendable", "--k", "1",
      "--exhaustive-limit", "0"], "surplus",
     "d19dbffa055b0bf1d98ed9a21519f1095833d605a54b30eaa6b28cccd32fa223",
     0),
    (["check", "--property", "k-factor", "--k", "2", "--format", "json"],
     "factor",
     "7ea272f0d623a9e1a3e947850d9cbf73490cb056e1ca18dc1100b991957b12a0",
     0),
    (["check", "--property", "k-factor-critical", "--k", "1"], "kfc",
     "8ee54680f4d9bae4d20e7f5ed00adaea344890f3fa99c9ac0d96f4e7c5bbb7fb",
     0),
    (["check", "--property", "k-factor-critical", "--k", "1"], "kfc17",
     "fbb5589f7386c6e02b96355cbad5dd41254d01bacef6c6868bb882b3e7e4c0b3",
     0),
    (["check", "--property", "k-factor-critical", "--k", "1"], "kfcbip",
     "9581066b688c5c8b1cbef6b9a2dcb87822b032097209ebb146428cddb71fe569",
     0),
    (["check", "--property", "hamiltonian"], "ham",
     "87b52a219ece6e91da4b782801a1d9dc31610a613c78a175d5e4de3e1f95da21",
     0),
    (["scan", "--theorem", "t1.1", "--n", "10", "--k", "1", "--delta", "2"],
     "scan11",
     "90658645eb5e771553e2b1da6d8a1cae78a9e001b889e8abd5dcae67240ea038",
     0),
    (["scan", "--theorem", "t1.2", "--n", "10", "--k", "1", "--delta", "1"],
     "scan12",
     "bd594a0e019eef0908e8d741641b527fb4f6db9554fc2e74896860d52064e156",
     1),
    (["scan", "--theorem", "t1.3", "--n", "10", "--k", "3"], "scan13",
     "695fcff50fd31b8fd174125c6df9a3cccf49a2c886794aad6b0358ec1d595bb6",
     0),
    (["scan", "--theorem", "t4.3", "--n", "10"], "scan43",
     "acf382125507485c3b49397c0f48472af8244c67a705867feb6a8692b6ec0dc5",
     0),
    (["scan", "--theorem", "t4.5", "--n", "15", "--k", "1", "--delta", "2"],
     "scan45",
     "6c7f7e7d5401f45884be7e7a40fc028f1e076c9e07ee77c778bf89ac4da504de",
     0),
    (["scan", "--theorem", "t1.3", "--n", "10", "--k", "3"], "scanmix",
     "6de3b5f25ae983178a791b556b8551c029bd5a5e11814801eed0dfe6fe4f63c7",
     0),
    (["rho"], "rho",
     "d2d1aa401633129b4e5389536db007ca0fd9cac81742e5ccb16c3b640602f3ad", 0),
    (["rho", "--format", "json"], "rho",
     "89df831d41b4f384475e381bef86a18c0bbe18dca9c5fb62945ab3a00bd473f7", 0),
    (["cross-check", "--n", "5", "--samples", "0"], None,
     "ee0288e37711ff4d4c502b79a01f0c60e711d70be235e4d22da0633665b6bc69",
     0),
]
# the same, for runs of about 10 s
SLOW_GOLDEN = [
    (["verify", "--theorem", "l2.2", "--n", "40"], None,
     "090c0888ddc8c84f9b2a12d074855d4366ada68153999dc41080113d9c6212c7",
     0),
]


@pytest.fixture(scope="module")
def lines():
    return {name: "".join(graph6_encode(g) + "\n" for g in graphs)
            for name, graphs in _lines().items()}


@pytest.mark.parametrize(
    "argv, stream, digest, code",
    [c[:4] for c in GOLDEN]
    + [pytest.param(*c[:4], marks=pytest.mark.slow) for c in SLOW_GOLDEN],
    ids=[" ".join(c[0][:3]) + "".join(f" {w}" for w in (c[1],) + c[4:] if w)
         for c in GOLDEN + SLOW_GOLDEN])
def test_report_bytes(argv, stream, digest, code, lines, tmp_path, capsys):
    if stream is not None:
        path = tmp_path / f"{stream}.g6"
        path.write_text(lines[stream], encoding="utf-8")
        argv = argv + ["--input", str(path)]
    got = cli.main(argv)
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), got) == (digest, code)
