"""Golden reports: the sha256 of stdout and the exit code of small CLI runs.

The digests were recorded before the matching layer was consolidated (one
augmenting-path routine, one violating-set search for all four criteria),
the three t1.3, t4.3 and t4.5 scans before the per-family recognizers gave
way to one isomorphism test, the l2.2 sweep before l2.2 and l2.3 came to
share one clique-pair evaluator, the two ``rho`` reports before power
iteration, identity (13) and the graph6 decoder were made faster, the t1.1
run at (20, 2, 4) and the ``kfc17`` check before the odd-set searches
skipped subtrees by the Tutte-Berge bound on G-S, and none may change:
every certificate kind, every checker route and every family's
``extremal-hit`` rows that reach a report are covered. Graph6 input lines
are built from the library's constructors, or decoded from graph6
literals, and passed with ``--input``.
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
                             graph6_encode, join, remove_star)
from specmatch.harness import random_bipartite, random_graph, rng_for


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
               if g.sides is None or g.sides[u] != g.sides[v]]
    return ([_relabeled(g, seed + i) for i in range(3)]
            + [_relabeled(h, seed + 3 + i)
               for i, h in enumerate([other] + toggles)])


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
     "d12587b7e860f2cf13216758807ef776fb220dfdf61abc683b84937d3383c560",
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
    (["verify", "--theorem", "l2.3", "--n", "40"], None,
     "2822c5e487c326b9b31d6df02eeedd405e31dd019da28349a1cfa41fdddd4ee3",
     0),
    (["verify", "--theorem", "l2.6", "--n", "40"], None,
     "4eca4a0de66e72c748f76d8eaf89cbbbd37197cbc4f520cb6744c9db02542088",
     0),
    (["check", "--property", "k-extendable", "--k", "1"], "ext1",
     "146a582db013e42607621a18eb2077dfc73c349965125cdc2f69f3a73e83dc12",
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
     "f22912491f231347601b2eee91844dffc181919f770962c5d62dd0e901ab619f",
     0),
    (["check", "--property", "k-factor-critical", "--k", "1"], "kfc17",
     "1369f69ddfe9dfa6fa93917b158d427b679edcbd34bc11dfa38b2a95818b0afd",
     0),
    (["check", "--property", "k-factor-critical", "--k", "1"], "kfcbip",
     "0edb1ba0aaf5f2dfb0ab6e9c403bde07f35ba68578dbf862ed17d5bd7aea0584",
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
