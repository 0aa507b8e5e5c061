import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from specmatch import cli
from specmatch import harness as hz
from specmatch import matchfactor as mf
from specmatch import spectra as sp
from specmatch.graph import (SIDE_A, SIDE_B, complete, complete_bipartite,
                             cycle, disjoint_union, empty, from_edges,
                             graph6_decode, graph6_encode, infer_bipartition,
                             is_connected)
from specmatch.families import (BlowUp, FamilyParams, construct_family,
                                extremal_hamilton,
                                extremal_kext_bipartite,
                                extremal_kext_general, extremal_kfactor,
                                extremal_kfc, threshold_rho)
from specmatch.matchfactor import Certificate, validate_certificate
from specmatch.spectra import ConvergenceError
from specmatch.harness import (THEOREMS, UsageError, cmd_check,
                               cmd_construct, cmd_cross_check, cmd_rho,
                               cmd_scan, cmd_verify,
                               oracle_property_for_theorem,
                               random_bipartite, random_graph,
                               random_regular_bipartite, render_csv,
                               render_json, rng_for, sample_for_theorem)

from conftest import (falling_path, path, ref_hypotheses_hold,
                      ref_random_bipartite, ref_random_graph,
                      ref_random_regular_bipartite, ref_sample_for_theorem)

CLI = [sys.executable, "-m", "specmatch"]
BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = BENCH.parent / "src"


def run_cli(args, stdin=""):
    # the child imports specmatch from this checkout, as pytest does
    path = os.pathsep.join(filter(None, (str(SRC),
                                         os.environ.get("PYTHONPATH"))))
    return subprocess.run(CLI + args, input=stdin, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def csv_text(report):
    """The report's CSV as one string."""
    out = io.StringIO()
    render_csv(report, out)
    return out.getvalue()


def run_main(argv):
    """Exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class TestConstruct:
    def test_factor_family_line(self):
        line = cmd_construct("kfactor-bipartite", FamilyParams(n=8, k=2))
        g = graph6_decode(line)
        assert sorted(g.degrees()) == [1, 3, 3, 3, 4, 4, 4, 4]

    def test_cli_roundtrip(self):
        r = run_cli(["construct", "--family", "kext-general", "--n", "10",
                     "--k", "1", "--delta", "2"])
        assert r.returncode == 0
        g = graph6_decode(r.stdout.strip())
        assert g.n == 10

    def test_cli_invalid_params(self):
        r = run_cli(["construct", "--family", "kfactor-bipartite",
                     "--n", "8", "--k", "4"])
        assert r.returncode == 2
        assert "violates" in r.stderr

    def test_overlay_size_is_delta(self):
        # below t1.2's least order 4*delta+2k+2 the overlay size is not the
        # minimum degree: this member has isolated vertices
        assert run_main(["construct", "--family", "kext-bipartite", "--n",
                         "10", "--k", "1", "--delta", "3"]) == (
            0, "IFzfF????\n")
        assert min(graph6_decode("IFzfF????").degrees()) == 0

    @pytest.mark.parametrize("argv, err", [
        (["--delta", "0"], "error: delta=0 violates delta >= 1"),
        ([], "error: kext-bipartite needs n, k, delta"),
    ])
    def test_overlay_errors_name_delta(self, argv, err, capsys):
        code = cli.main(["construct", "--family", "kext-bipartite", "--n",
                         "10", "--k", "1"] + argv)
        assert (code, capsys.readouterr().err.rstrip()) == (2, err)


class TestCheck:
    def test_k_factor_property(self):
        line = graph6_encode(extremal_kfactor(8, 2))
        report = cmd_check([line], "k-factor", 2)
        row = report.rows[0]
        assert row["verdict"] is False
        assert "ViolatingSubsetX" in row["certificate"]

    def test_k_extendable_property(self):
        report = cmd_check([graph6_encode(complete_bipartite(2, 2))],
                           "k-extendable", 1)
        assert report.rows[0]["verdict"] is True

    def test_hamiltonian_property(self):
        report = cmd_check([graph6_encode(cycle(8).drop_bipartition())],
                           "hamiltonian", None)
        assert report.rows[0]["verdict"] is True

    def test_skip_rows(self):
        # odd order cannot be checked for extendability
        report = cmd_check([graph6_encode(complete(5))], "k-extendable", 1)
        assert str(report.rows[0]["verdict"]).startswith("skipped")
        assert report.summary.get("skipped") == 1

    def test_parse_failure_is_usage_error(self):
        with pytest.raises(UsageError):
            cmd_check(["!!notgraph6"], "k-factor", 2)

    def test_exhaustive_limit_leaves_polynomial_routes_alone(self, tmp_path,
                                                             capsys):
        # only the Hamilton search and Ore's criterion read the limit: the
        # Chen, Plummer and factor-criticality rows of two n = 10
        # negatives, one of them bipartite, are the same under any limit
        path = tmp_path / "lines.g6"
        path.write_text(graph6_encode(extremal_kext_general(10, 1, 2))
                        + "\nI??FA@?{?\n", encoding="utf-8")
        for prop in ("k-extendable", "k-factor-critical"):
            argv = ["check", "--property", prop, "--k", "1",
                    "--input", str(path)]
            outs = []
            for extra in ([], ["--exhaustive-limit", "4"]):
                assert cli.main(argv + extra) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1], prop
            assert outs[0].count(",false,") == 2, outs[0]

    @pytest.mark.parametrize("graph, argv", [
        (falling_path(600), ["--property", "k-factor", "--k", "1"]),
        (cycle(1200), ["--property", "hamiltonian",
                       "--exhaustive-limit", "3000"]),
    ], ids=["flow-falling-path", "hamilton-cycle"])
    def test_long_paths(self, graph, argv):
        # the flow route's last augmenting path and the Hamilton search's
        # path run through all 1,200 vertices, far past the recursion limit
        line = graph6_encode(graph)
        r = run_cli(["check"] + argv, line + "\n")
        assert (r.returncode, r.stderr) == (0, "")
        rows = list(csv.DictReader(text for text in r.stdout.splitlines()
                                   if not text.startswith("#")))
        assert [row["verdict"] for row in rows] == ["true"]
        cert = json.loads(rows[0]["certificate"])
        assert validate_certificate(infer_bipartition(graph6_decode(line)),
                                    Certificate(**cert))


class TestRho:
    def test_bound_columns(self):
        lines = [graph6_encode(complete_bipartite(4, 4)),
                 graph6_encode(complete(5)),
                 graph6_encode(path(4))]
        report = cmd_rho(lines)
        k44, k5, p4 = report.rows
        assert abs(k44["rho"] - 4) <= 1e-9
        assert abs(k44["fms_bound"] - 4) <= 1e-9
        assert abs(k44["sqrt_m"] - 4) <= 1e-9
        assert abs(k5["rho"] - 4) <= 1e-9
        assert abs(k5["fms_bound"] - 4) <= 1e-9
        assert k5["sqrt_m"] is None  # not bipartite
        assert p4["rho"] < p4["fms_bound"]
        assert all(r["identity13"] == "ok" for r in report.rows)

    def test_rho_is_rho_dense(self):
        """Several lines per order, so that rho is solved in stacks, with
        disconnected lines among them: each rho is the line's
        ``rho_dense`` bit for bit, and its ``spectral_radius`` to 1e-9."""
        rng = rng_for(11, 0)
        graphs = [complete(n) for n in range(1, 10)]
        graphs += [random_graph(rng, 6 + i % 4, (0.2, 0.5)[i % 2])
                   for i in range(24)]
        graphs += [disjoint_union(complete(4), cycle(5)),
                   disjoint_union(path(3), complete(1)),
                   disjoint_union(cycle(6), cycle(3))]
        assert sum(not is_connected(g) for g in graphs) >= 4
        lines = [graph6_encode(g) for g in graphs]
        report = cmd_rho(lines)
        rhos = [row["rho"] for row in report.rows]
        assert rhos == [sp.rho_dense(g) for g in graphs]
        for rho, g in zip(rhos, graphs):
            assert abs(rho - sp.spectral_radius(g).rho) <= 1e-9

    def test_identity_fail_prints_on_its_line_only(self, monkeypatch):
        """A row pass whose rhs is off at one vertex of one line prints
        identity13 = fail on that line; every other cell is unchanged."""
        lines = [graph6_encode(g) for g in (complete(4), path(5), cycle(6))]
        want = csv_text(cmd_rho(lines)).splitlines()
        solve = sp.rho_rows

        def corrupted(graphs):
            rows = solve(graphs)
            rhs = rows[1].rhs.copy()
            rhs[2] += 1
            rows[1] = dataclasses.replace(rows[1], rhs=rhs)
            return rows
        monkeypatch.setattr(sp, "rho_rows", corrupted)
        got = csv_text(cmd_rho(lines)).splitlines()
        assert [line.rsplit(",", 1)[1] for line in got[1:4]] == [
            "ok", "fail", "ok"]
        assert got[:2] + got[3:] == want[:2] + want[3:]
        assert got[2].rsplit(",", 1)[0] == want[2].rsplit(",", 1)[0]

    @pytest.mark.parametrize("n", [300, 400])
    def test_long_path_prints_its_closed_form(self, n):
        """P_n converges slowly under power iteration; its printed rho is
        2 cos(pi/(n+1)) to 1e-12 relative."""
        line = graph6_encode(path(n))
        text = csv_text(cmd_rho([line]))
        printed = float(text.splitlines()[1].split(",")[1])
        want = 2 * math.cos(math.pi / (n + 1))
        assert abs(printed - want) <= 1e-12 * want

    def test_all_malformed_is_error(self):
        with pytest.raises(UsageError, match="all input lines were malformed"):
            cmd_rho(["@@##", "!!"])

    def test_some_malformed_counted(self):
        report = cmd_rho(["!!bad", graph6_encode(complete(4))])
        # once, under parse-errors only, as scan counts it
        assert report.summary == {"consistent": 1, "parse-errors": 1}
        assert report.exit_code() == 0


class TestScan:
    def test_extremal_hit_and_consistent(self):
        lines = [graph6_encode(extremal_kfactor(8, 2)),
                 graph6_encode(complete_bipartite(4, 4))]
        report = cmd_scan(lines, "t1.3", FamilyParams(n=8, k=2))
        assert report.summary["extremal-hit"] == 1
        assert report.summary["consistent"] == 1
        assert report.rows[0]["extremal"] is True
        assert report.rows[1]["verdict"] is True  # has a 2-factor

    def test_empty_stream(self):
        report = cmd_scan([], "t1.3", FamilyParams(n=8, k=2))
        assert report.rows == [] and report.exit_code() == 0

    def test_order_mismatch_skipped(self):
        report = cmd_scan([graph6_encode(complete_bipartite(3, 3))],
                          "t1.3", FamilyParams(n=8, k=2))
        assert report.summary["skipped"] == 1

    def test_all_malformed_is_error(self):
        with pytest.raises(UsageError):
            cmd_scan(["@@##", "!!"], "t1.3", FamilyParams(n=8, k=2))

    def test_some_malformed_counted(self):
        lines = ["!!bad", graph6_encode(complete_bipartite(4, 4))]
        report = cmd_scan(lines, "t1.3", FamilyParams(n=8, k=2))
        assert report.summary["parse-errors"] == 1
        assert report.exit_code() == 0


class TestVerify:
    def test_tightness_row_first(self):
        report = cmd_verify("t1.3", FamilyParams(n=8, k=2), samples=5,
                            seed=1)
        first = report.rows[0]
        assert first["extremal"] is True
        assert abs(first["margin"]) <= 1e-8
        assert first["verdict"] is False
        assert report.exit_code() == 0

    def test_hypothesis_violation_named(self):
        with pytest.raises(UsageError, match="n=9"):
            cmd_verify("t1.3", FamilyParams(n=9, k=2), samples=1, seed=1)
        with pytest.raises(UsageError, match="delta"):
            cmd_verify("t1.1", FamilyParams(n=10, k=1, delta=1), samples=1,
                       seed=1)

    def test_deterministic_output(self):
        a = cmd_verify("t1.1", FamilyParams(n=10, k=1, delta=2),
                       samples=60, seed=5)
        b = cmd_verify("t1.1", FamilyParams(n=10, k=1, delta=2),
                       samples=60, seed=5)
        assert csv_text(a) == csv_text(b)
        assert render_json(a) == render_json(b)

    def test_lemma_mode(self):
        report = cmd_verify("l2.6", FamilyParams(n=0), samples=0, seed=0)
        assert report.exit_code() == 0
        assert all(r["verdict"] is True for r in report.rows)

    def test_theorem_is_one_row(self, monkeypatch):
        # a theorem over an existing family and route needs only its row
        monkeypatch.setitem(THEOREMS, "t1.2c", THEOREMS["t1.2"])
        p = FamilyParams(n=10, k=1, delta=1)
        copy = cmd_verify("t1.2c", p, samples=20, seed=2)
        original = cmd_verify("t1.2", p, samples=20, seed=2)
        assert copy.mode == "verify t1.2c"
        assert (copy.rows, copy.summary, copy.notes) == (
            original.rows, original.summary, original.notes)
        assert copy.summary["counterexample-candidate"] >= 1

    def test_hamilton_search_takes_the_limit(self, capsys):
        argv = ["verify", "--theorem", "t4.3", "--n", "22", "--samples", "0"]
        assert cli.main(argv + ["--exhaustive-limit", "22"]) == 0
        assert "# extremal-hit=1" in capsys.readouterr().out
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "search limited to n <= 20" in captured.err

    def test_t12_search_reports_honestly(self):
        # the bipartite-extendability threshold is refutable by near-extremal
        # perturbations; any confirmed row must carry a valid certificate
        report = cmd_verify("t1.2", FamilyParams(n=10, k=1, delta=1),
                            samples=40, seed=2)
        for row in report.rows:
            if row["verdict"] is False and not row["extremal"] \
                    and row["margin"] > 1e-8:
                assert row["certificate"]
                payload = json.loads(row["certificate"])
                assert payload["kind"] in ("ViolatingSubsetX",
                                           "FailingMatching")

    def test_t12_finding_is_certified(self):
        # Unresolved finding, pinned as found: at (n, k, delta) = (60, 2, 3)
        # the overlay extremal graph plus the single edge (4, 25) keeps
        # minimum degree 3, exceeds the threshold and is still not
        # 2-extendable, so t1.2 as formalized here has a certified
        # counterexample.
        p = FamilyParams(n=60, k=2, delta=3)
        report = cmd_verify("t1.2", p, samples=5, seed=0)
        assert report.exit_code() == 1
        assert report.summary["counterexample-candidate"] == 1
        row = report.rows[-1]
        g = graph6_decode(row["graph"])
        extremal = construct_family("kext-bipartite", p)
        assert set(g.edges()) - set(extremal.edges()) == {(4, 25)}
        assert set(extremal.edges()) <= set(g.edges())
        assert min(g.degrees()) == 3
        assert row["rho"] == pytest.approx(26.8715345782, abs=1e-9)
        assert row["rho_star"] == pytest.approx(26.8671048703, abs=1e-9)
        assert row["rho"] > row["rho_star"]
        assert row["verdict"] is False and row["extremal"] is False
        cert = Certificate(**json.loads(row["certificate"]))
        assert cert.kind == "ViolatingSubsetX"
        assert len(cert.payload["subset"]) == 25
        assert len(cert.payload["neighborhood"]) == 24
        assert validate_certificate(infer_bipartition(g), cert)


class TestHypotheses:
    """``validate_hypotheses`` reads the family definitions, plus each
    theorem's least order, and accepts exactly what the earlier
    per-theorem chain (``ref_hypotheses_hold``) accepted."""

    def test_matches_reference(self):
        accepted = 0
        for name in THEOREMS:
            for n in range(-2, 50):
                for k in (None, *range(-1, 7)):
                    for d in (None, *range(-1, 10)):
                        p = FamilyParams(n=n, k=k, delta=d)
                        try:
                            hz.validate_hypotheses(name, p)
                        except UsageError as exc:
                            assert str(exc).startswith(f"{name}: ")
                            got = False
                        else:
                            got = True
                        assert got == ref_hypotheses_hold(name, p), (name, p)
                        accepted += got
        assert accepted > 1000

    def test_unknown_theorem(self):
        with pytest.raises(UsageError, match="unknown theorem"):
            hz.validate_hypotheses("t9.9", FamilyParams(n=10))


class TestTables:
    def test_rows_name_existing_rows(self):
        assert {r.prop for r in hz.ROUTES.values()} == set(hz.PROPERTIES)
        assert all(spec.route in hz.ROUTES for spec in THEOREMS.values())

    def test_pins_min_degree(self):
        assert {name: spec.pins_min_degree for name, spec
                in THEOREMS.items()} == {"t1.1": True, "t1.2": True,
                                         "t1.3": False, "t4.3": False,
                                         "t4.5": True}


class TestOracle:
    """An oracle is different code from its route's checker, or absent:
    with the route's own entry points stubbed to raise, it still answers
    where it can take the graph, and elsewhere it abstains (None) without
    running any route or checker."""

    ROUTE_ENTRIES = ("is_k_extendable_plummer", "_plummer_surplus",
                     "find_k_factor_flow", "_f_factor_flow")
    CHECKERS = ("is_k_extendable_chen", "_chen_decides",
                "is_k_factor_critical", "_kfc_decides",
                "_barrier_certificate", "hamiltonian_cycle",
                "is_k_extendable_definitional", "has_f_factor_ore")

    @staticmethod
    def stub(monkeypatch, names):
        def called(*args, **kwargs):
            raise AssertionError("the oracle ran a route or checker")

        for name in names:
            monkeypatch.setattr(mf, name, called)

    def test_answers_without_its_route(self, monkeypatch):
        # plummer: the definitional scan (connected, n <= 24); flow: Ore's
        # criterion (|A| <= limit)
        cases = [
            ("t1.2", extremal_kext_bipartite(10, 1, 1),
             FamilyParams(n=10, k=1, delta=1)),
            ("t1.2", complete_bipartite(5, 5),
             FamilyParams(n=10, k=1, delta=1)),
            ("t1.2", extremal_kext_bipartite(24, 2, 3),
             FamilyParams(n=24, k=2, delta=3)),
            ("t1.3", extremal_kfactor(8, 2), FamilyParams(n=8, k=2)),
            ("t1.3", complete_bipartite(4, 4), FamilyParams(n=8, k=2)),
        ]
        expected = [hz.check_property_for_theorem(name, g, p)[0]
                    for name, g, p in cases]
        assert expected == [False, True, False, False, True]
        self.stub(monkeypatch, self.ROUTE_ENTRIES)
        for (name, g, p), want in zip(cases, expected):
            assert oracle_property_for_theorem(name, g, p) is want, (name, g)

    def test_abstains_without_running_a_checker(self, monkeypatch):
        cases = [
            ("t4.5", extremal_kfc(15, 1, 2), FamilyParams(n=15, k=1, delta=2),
             mf.EXHAUSTIVE_LIMIT),
            ("t4.3", extremal_hamilton(8), FamilyParams(n=8),
             mf.EXHAUSTIVE_LIMIT),
            # flow with |A| above the limit
            ("t1.3", extremal_kfactor(44, 2), FamilyParams(n=44, k=2),
             mf.EXHAUSTIVE_LIMIT),
            ("t1.3", complete_bipartite(4, 4), FamilyParams(n=8, k=2), 3),
        ]
        self.stub(monkeypatch, self.ROUTE_ENTRIES + self.CHECKERS)
        for name, g, p, limit in cases:
            assert oracle_property_for_theorem(name, g, p, limit) is None, (
                name, g)

    def test_t12_oracle_is_not_the_surplus_route(self, monkeypatch):
        # Disconnected, or connected with n > 24: the definitional scan
        # does not apply, and the oracle abstains instead of rerunning the
        # surplus route, which gave the primary verdict.
        graphs = [disjoint_union(complete_bipartite(3, 3),
                                 complete_bipartite(2, 2)),
                  extremal_kext_bipartite(26, 1, 2),
                  complete_bipartite(13, 13)]
        expected = [mf.is_k_extendable_plummer(g, 1)[0] for g in graphs]
        assert expected == [False, False, True]
        self.stub(monkeypatch, self.ROUTE_ENTRIES + self.CHECKERS)
        for g in graphs:
            p = FamilyParams(n=g.n, k=1, delta=1)
            assert oracle_property_for_theorem("t1.2", g, p) is None, g

    def test_t11_oracle_is_not_the_definitional_scan(self, monkeypatch):
        # the primary t1.1 checker decides by outer sets and certifies by
        # the barrier of the failing matching's remainder; the oracle runs
        # neither, nor the definitional scan, and abstains
        graphs = [extremal_kext_general(10, 1, 2), complete(6), cycle(8)]
        expected = [mf.is_k_extendable_chen(g, 1)[0] for g in graphs]
        assert expected == [False, True, True]
        self.stub(monkeypatch,
                  self.CHECKERS + ("_outer_misses",
                                   "_first_failing_k_matching"))
        for g in graphs:
            p = FamilyParams(n=g.n, k=1, delta=2)
            assert oracle_property_for_theorem("t1.1", g, p) is None, g

    def test_t13_candidate_above_the_limit_stays_confirmed(self,
                                                          monkeypatch):
        # |A| = 22 > 20: Ore's criterion cannot take the graph, so the
        # oracle abstains and the re-solve alone confirms the candidate; it
        # must not end the run
        g = extremal_kfactor(44, 2).with_edge_toggled(0, 23)
        monkeypatch.setattr(mf, "find_k_factor_flow",
                            lambda g, k: (False, None))
        report = cmd_scan([graph6_encode(g)], "t1.3",
                          FamilyParams(n=44, k=2))
        assert report.summary == {"counterexample-candidate": 1}
        assert report.rows[0]["margin"] > 1e-8
        assert report.notes == [] and report.exit_code() == 1


class TestHallDeficientMember:
    """H: a set X of delta-k+1 side-A vertices with |N(X)| = delta, and
    every other cross edge present. H has minimum degree delta and fails
    Plummer's criterion at X, yet lies far above t1.2's rho* at each point
    below; the values are (n, k, delta), rho(H) and rho*."""

    POINTS = [((10, 1, 1), 4.49536, 3.28207),
              ((16, 1, 2), 7.00465, 5.86704),
              ((24, 2, 3), 11.02532, 8.80057),
              ((40, 1, 4), 17.98143, 16.88628),
              ((60, 2, 3), 28.99317, 26.86710),
              ((80, 3, 5), 38.49535, 35.29601)]

    @staticmethod
    def blowup(n, k, delta):
        x, half = delta - k + 1, n // 2
        # classes X, A-X, N(X), B-N(X), joined X-N(X), (A-X)-N(X) and
        # (A-X)-(B-N(X))
        return BlowUp(((1, x), (1, half - x), (1, delta), (1, half - delta)),
                      (0b0100, 0b1100, 0b0011, 0b0010), (0, 1, 2, 3),
                      (SIDE_A, SIDE_A, SIDE_B, SIDE_B))

    @pytest.mark.parametrize("point, rho_h, rho_star", POINTS)
    def test_scan_certifies_it(self, point, rho_h, rho_star):
        n, k, delta = point
        blowup = self.blowup(n, k, delta)
        g = blowup.graph()
        assert min(g.degrees()) == delta
        rho = blowup.quotient().largest_eigenvalue()
        assert rho == pytest.approx(sp.rho_dense(g), abs=1e-8)
        assert rho == pytest.approx(rho_h, abs=1e-5)
        p = FamilyParams(n=n, k=k, delta=delta)
        assert threshold_rho("kext-bipartite", p).rho_star == pytest.approx(
            rho_star, abs=1e-5)
        report = cmd_scan([graph6_encode(g)], "t1.2", p)
        assert report.summary == {"counterexample-candidate": 1}
        row = report.rows[0]
        cert = Certificate(**json.loads(row["certificate"]))
        assert cert.kind == "ViolatingSubsetX"
        assert validate_certificate(
            infer_bipartition(graph6_decode(row["graph"])), cert)


class TestCertificateRevalidation:
    """verify's sample rows, check and scan re-validate every certificate
    they emit; one that fails adds a note and a counterexample candidate,
    so the exit code is 1."""

    # The t1.2 extremal graph at (10, 1, 1) plus the edge (4, 1): above the
    # threshold, not recognized, not 1-extendable (a t1.2 counterexample,
    # see test_t12_finding_is_certified), so every mode certifies it.
    P12 = FamilyParams(n=10, k=1, delta=1)
    G12 = extremal_kext_bipartite(10, 1, 1).with_edge_toggled(4, 1)
    # K_9 plus a pendant vertex: not 1-extendable, certified by Chen
    PENDANT_K9 = from_edges(10, [(u, v) for u in range(9)
                                 for v in range(u + 1, 9)] + [(0, 9)])

    @pytest.mark.parametrize("mode", ["verify", "check", "scan"])
    def test_corrupted_certificate_is_flagged(self, mode, monkeypatch):
        surplus = mf._plummer_surplus
        barrier = mf._barrier_certificate

        def corrupted_subset(*args):
            ok, cert = surplus(*args)
            return ok, Certificate(cert.kind, dict(cert.payload, subset=[]))

        def corrupted_set(*args, **extra):
            cert = barrier(*args, **extra)
            odd = cert.payload["odd_components"] + 1
            return Certificate(cert.kind,
                               dict(cert.payload, odd_components=odd))

        monkeypatch.setattr(mf, "_plummer_surplus", corrupted_subset)
        monkeypatch.setattr(mf, "_barrier_certificate", corrupted_set)
        if mode == "verify":
            monkeypatch.setattr(hz, "sample_for_theorem",
                                lambda *args: self.G12)
            report = cmd_verify("t1.2", self.P12, samples=2, seed=0)
            wheres = ["sample 0:", "sample 1:"]
        elif mode == "check":
            report = cmd_check([graph6_encode(self.G12),
                                graph6_encode(self.PENDANT_K9)],
                               "k-extendable", 1)
            wheres = ["line 1:", "line 2:"]
            kinds = [json.loads(row["certificate"])["kind"]
                     for row in report.rows]
            assert kinds == ["ViolatingSubsetX", "ViolatingSetS"]
            assert report.summary["counterexample-candidate"] == 2
        else:
            report = cmd_scan([graph6_encode(self.G12)], "t1.2", self.P12)
            wheres = ["line 1:"]
        for where in wheres:
            assert f"{where} certificate failed re-validation" in report.notes
        assert report.exit_code() == 1

    def test_valid_certificates_pass(self):
        # negatives whose certificates re-validate only on the bipartite
        # form of the input line
        lines = [graph6_encode(extremal_kext_bipartite(10, 1, 1)),
                 graph6_encode(extremal_kfactor(8, 2))]
        for prop, k in (("k-extendable", 1), ("k-factor", 2)):
            report = cmd_check(lines, prop, k)
            assert any(row["verdict"] is False for row in report.rows)
            assert report.notes == [] and report.exit_code() == 0


class TestSampler:
    # verify-sample and acceptance parameters of each theorem
    PARAMS = {
        "t1.1": FamilyParams(n=10, k=1, delta=2),
        "t1.2": FamilyParams(n=16, k=1, delta=2),
        "t1.3": FamilyParams(n=8, k=2),
        "t4.3": FamilyParams(n=8),
        "t4.5": FamilyParams(n=15, k=1, delta=2),
    }

    def test_matches_reference_sampler(self):
        cases = [(name, p, construct_family(THEOREMS[name].family, p), 200)
                 for name, p in self.PARAMS.items()]
        # No perturbation of 1-3 edits keeps these bases in the class
        # (minimum degree 2 is pinned), so odd indices take the extremal
        # fallback; the real extremal graphs never reach it.
        cases += [("t1.1", self.PARAMS["t1.1"], complete(10), 200),
                  ("t1.2", self.PARAMS["t1.2"], complete_bipartite(8, 8),
                   200)]
        # verify-check's point, where no draw at p = 0.7 or 0.9 has minimum
        # degree 3, and the pinned t1.2 finding's point, where the scalar
        # reference is slow, hence fewer indices
        for name, p, count in (("t1.1", FamilyParams(n=18, k=1, delta=3),
                                200),
                               ("t1.2", FamilyParams(n=60, k=2, delta=3),
                                40)):
            cases.append((name, p, construct_family(THEOREMS[name].family,
                                                    p), count))
        exits = {"draw": 0, "perturb": 0, "extremal": 0}
        exhausted_then_perturbed = 0
        for name, p, base, count in cases:
            spec = THEOREMS[name]
            for seed in (3, 11, 2024):
                for i in range(count):
                    ref_rng, rng = rng_for(seed, i), rng_for(seed, i)
                    expected, how = ref_sample_for_theorem(
                        spec, p, base, ref_rng, i)
                    got = sample_for_theorem(spec, p, base, rng, i)
                    assert (got.n, got.adj, got.side_a) == (
                        expected.n, expected.adj, expected.side_a), \
                        (name, seed, i, how)
                    exits[how] += 1
                    if how != "draw":
                        # only a kept draw may read its stream ahead
                        assert rng.getstate() == ref_rng.getstate(), \
                            (name, seed, i, how)
                    if (name, p.n, i % 2, how) == ("t1.1", 18, 0,
                                                   "perturb"):
                        exhausted_then_perturbed += 1
        assert all(exits.values()), exits
        assert exhausted_then_perturbed > 0

    def test_pinned_degree_is_the_members(self):
        # the sampler pins p.delta, exact because every accepted point's
        # family member has minimum degree delta (t1.2's overlay only from
        # its least order up); t1.3 and t4.3 pin no degree
        checked = 0
        for name, spec in THEOREMS.items():
            assert spec.pins_min_degree == (name in ("t1.1", "t1.2",
                                                     "t4.5")), name
            for n in range(2, 41):
                for k in range(1, 5):
                    for d in range(1, 7):
                        p = FamilyParams(n=n, k=k, delta=d)
                        try:
                            hz.validate_hypotheses(name, p)
                        except UsageError:
                            continue
                        if spec.pins_min_degree:
                            member = construct_family(spec.family, p)
                            assert min(member.degrees()) == p.delta, \
                                (name, p)
                        checked += 1
        assert checked > 200

    def test_regular_bipartite_matches_reference(self):
        # criterion 7 decomposes these graphs: same draws, same graphs
        for i in range(120):
            half = 1 + i % 9
            k = i % (half + 1)
            got = random_regular_bipartite(rng_for(17, i), half, k)
            want = ref_random_regular_bipartite(rng_for(17, i), half, k)
            assert (got.n, got.adj, got.side_a) == (want.n, want.adj,
                                                    want.side_a), (half, k)


class TestDraws:
    # rng_for seeds, negative ones included, and sample indices
    STREAMS = [(seed, index) for seed in (-9, -1, 0, 7, 2**40)
               for index in (0, 3)]

    def test_uniforms_read_the_random_stream(self):
        # the block draws rest on CPython's random() and getrandbits()
        # reading the same MT19937 words in the same order, and on the
        # integer compare giving random() < prob bit for bit: 0.25 makes
        # prob * 2**53 integral, 0.0 and 1.0 are the ends
        probs = hz.P_SWEEP + (0.25, 1 / 3, 0.0, 1.0)
        # (n, side, attempts): 0, 1, 2, 153, 3,840, 9,180 and 46,800 draws
        blocks = [(2, None, 0), (2, None, 1), (2, 1, 2), (18, None, 1),
                  (16, 8, 60), (18, None, 60), (40, None, 60)]
        for seed, index in self.STREAMS:
            for n, side, attempts in blocks:
                ref = rng_for(seed, index)
                pairs = len(hz._pair_cells(n, side))
                uniforms = [ref.random() for _ in range(attempts * pairs)]
                for prob in probs:
                    rng = rng_for(seed, index)
                    got = hz._pair_bits(rng, n, side, prob, attempts)
                    assert got.shape == (attempts, pairs)
                    assert got.reshape(-1).tolist() == [
                        u < prob for u in uniforms], (seed, n, prob)
                    assert rng.getstate() == ref.getstate(), (seed, n, prob)

    @staticmethod
    def stream_of(words) -> random.Random:
        """A generator whose next MT19937 outputs are ``words``: each word
        untempered into the state, read from position 0 without a twist."""
        def untemper(y):
            for shift, mask in ((-18, 0xFFFFFFFF), (15, 0xEFC60000),
                                (7, 0x9D2C5680), (-11, 0xFFFFFFFF)):
                x = y
                for _ in range(32):  # fixed after 32 / |shift| rounds
                    step = x << shift if shift > 0 else x >> -shift
                    x = y ^ (step & mask & 0xFFFFFFFF)
                y = x
            return y
        state = [untemper(w) for w in words]
        state += [0x9908B0DF] * (624 - len(state))
        rng = random.Random()
        rng.setstate((3, (*state, 0), None))
        return rng

    def test_pair_bits_at_the_threshold(self):
        # draws whose K = ((w0 >> 5) << 26) | (w1 >> 6) sits at and next to
        # ceil(prob * 2**53), where < against <= and ceil against floor
        # part; the low bits that random() drops are set
        for prob in hz.P_SWEEP + (0.25, 1 / 3, 0.0, 1.0):
            top = math.ceil(prob * 2**53)
            ks = [k for k in (top - 1, top, top + 1) if 0 <= k < 2**53]
            words = [w for k in ks
                     for w in ((k >> 26) << 5 | 31, (k & (2**26 - 1)) << 6
                               | 63)]
            rng, ref = self.stream_of(words), self.stream_of(words)
            uniforms = [ref.random() for _ in ks]
            assert uniforms == [k / 2**53 for k in ks]
            got = hz._pair_bits(rng, 2, None, prob, len(ks))
            assert got.reshape(-1).tolist() == [u < prob for u in uniforms]
            assert rng.getstate() == ref.getstate()

    def test_draws_match_reference(self):
        # one stream per order across every draw at it, as cross-check and
        # the benchmark's input generators share one: each draw must read
        # exactly the words of its scalar reference
        for n in [*range(21), 63, 64, 200, 300]:
            rng, ref = rng_for(41, n), rng_for(41, n)
            for p in hz.P_SWEEP + (0.0, 1.0):
                got, want = random_graph(rng, n, p), ref_random_graph(ref,
                                                                      n, p)
                assert got.adj == want.adj, (n, p)
                side = n // 2
                got = random_bipartite(rng, side, n - side, p)
                want = ref_random_bipartite(ref, side, n - side, p)
                assert (got.adj, got.side_a) == (want.adj, want.side_a), \
                    (n, p)
                assert rng.getstate() == ref.getstate(), (n, p)

    @staticmethod
    def branches() -> set:
        """(n, side, delta, prob) of every draw branch that a theorem
        reaches with n <= 64 (and 200, 300), k <= 4 and delta <= 6."""
        out = set()
        for name, spec in THEOREMS.items():
            for n in [*range(2, 65), 200, 300]:
                for k in range(1, 5):
                    for d in range(1, 7):
                        p = FamilyParams(n=n, k=k, delta=d)
                        try:
                            hz.validate_hypotheses(name, p)
                        except UsageError:
                            continue
                        side = n // 2 if spec.bipartite else None
                        delta = p.delta if spec.pins_min_degree else None
                        out.update((n, side, delta, prob)
                                   for prob in hz.P_SWEEP)
        return out

    def test_blocks_cover_the_attempts_within_the_budget(self):
        branches = self.branches()
        # both kinds of side, pinned and unpinned, above and below budget
        assert {side is None for _, side, _, _ in branches} == {True, False}
        assert {delta is None for _, _, delta, _ in branches} == {True,
                                                                  False}
        assert any(len(hz._pair_cells(n, side)) > hz.DRAW_BUDGET
                   for n, side, _, _ in branches)
        for n, side, delta, prob in branches:
            pairs = len(hz._pair_cells(n, side))
            sizes = hz._block_sizes(n, side, delta, prob)
            assert sum(sizes) == hz.SAMPLE_ATTEMPTS and min(sizes) >= 1
            assert max(sizes) * pairs <= max(pairs, hz.DRAW_BUDGET)
        # an unpinned class keeps 1, 3, 9, ...; a branch that cannot keep
        # (verify-check's at p = 0.9, t1.1 (10, 1, 2) at 0.9) reads its
        # attempts in as few blocks as the budget allows
        assert hz._block_sizes(8, 4, None, 0.5) == (1, 3, 9, 27, 20)
        assert hz._block_sizes(18, None, 3, 0.9) == (53, 7)
        assert hz._block_sizes(10, None, 2, 0.9) == (60,)

    def test_keep_bound_bounds_the_keep_rate(self):
        # the exact share of draws with minimum degree delta, over every
        # graph of a draw with n <= 6, never exceeds the bound
        for n, side in [(n, None) for n in range(2, 7)] + [(4, 2), (6, 3)]:
            cells = hz._pair_cells(n, side)
            ends = hz._pair_ends(n, side)
            graphs = np.array([[mask >> i & 1 for i in range(len(cells))]
                               for mask in range(1 << len(cells))],
                              dtype=bool)
            low = (graphs @ ends).min(axis=1)
            edges = graphs.sum(axis=1)
            for prob in hz.P_SWEEP:
                weight = prob ** edges * (1 - prob) ** (len(cells) - edges)
                for delta in range(n):
                    share = weight[low == delta].sum()
                    assert share <= hz._keep_bound(n, side, delta, prob) \
                        + 1e-12, (n, side, delta, prob)

    def test_blocks_change_no_draw(self, monkeypatch):
        # any block boundaries keep the same draw, and an exhausted branch
        # leaves the stream where 60 single draws leave it
        cases = [(THEOREMS["t1.1"], 18, 3), (THEOREMS["t1.1"], 10, 2),
                 (THEOREMS["t4.5"], 15, 2), (THEOREMS["t1.2"], 16, 2),
                 (THEOREMS["t1.3"], 8, None)]
        schedules = [(1,) * hz.SAMPLE_ATTEMPTS, (hz.SAMPLE_ATTEMPTS,),
                     (7, 53)]
        kept = exhausted = 0
        for spec, n, delta in cases:
            for prob in hz.P_SWEEP:
                for seed in range(6):
                    rng = rng_for(seed, n)
                    want = hz._drawn_sample(spec, n, delta, rng, prob)
                    state = rng.getstate()
                    for sizes in schedules:
                        monkeypatch.setattr(hz, "_block_sizes",
                                            lambda *args: sizes)
                        other = rng_for(seed, n)
                        got = hz._drawn_sample(spec, n, delta, other, prob)
                        monkeypatch.undo()
                        assert (got is None) == (want is None)
                        if want is None:
                            assert other.getstate() == state
                        else:
                            assert (got.adj, got.side_a) == (want.adj,
                                                             want.side_a)
                    kept += want is not None
                    exhausted += want is None
        assert kept and exhausted


class TestCrossCheck:
    def test_small_exhaustive_plus_samples(self):
        report = cmd_cross_check(4, samples=0, seed=1)
        assert report.summary["disagreements"] == 0
        assert report.summary["graphs"] == 2 + 8 + 64
        assert report.exit_code() == 0

    def test_plummer_certificates_revalidated(self, monkeypatch, capsys):
        surplus = mf._plummer_surplus

        def corrupted(*args):
            ok, cert = surplus(*args)
            if cert is not None:
                cert = Certificate(cert.kind, {**cert.payload, "subset": []})
            return ok, cert

        monkeypatch.setattr(mf, "_plummer_surplus", corrupted)
        code = cli.main(["cross-check", "--n", "4", "--samples", "0",
                         "--seed", "1"])
        lines = capsys.readouterr().out.splitlines()
        rows = [line for line in lines[1:] if not line.startswith("#")]
        assert code == 1
        assert rows and all("certificate failed revalidation" in row
                            and '""subset"":[]' in row for row in rows)


    def test_malformed_definitional_certificate(self, monkeypatch, capsys):
        # a definitional FailingMatching holding a non-edge becomes a
        # disagreement row, not an error exit
        definitional = mf.is_k_extendable_definitional

        def corrupted(g, k):
            ok, cert = definitional(g, k)
            if cert is not None and "matching" in cert.payload:
                non_edge = next([u, v] for u in range(g.n)
                                for v in range(u + 1, g.n)
                                if not g.has_edge(u, v))
                cert = Certificate(cert.kind,
                                   {**cert.payload, "matching": [non_edge]})
            return ok, cert

        monkeypatch.setattr(mf, "is_k_extendable_definitional", corrupted)
        code = cli.main(["cross-check", "--n", "4", "--samples", "0",
                         "--seed", "1"])
        lines = capsys.readouterr().out.splitlines()
        rows = [line for line in lines[1:] if not line.startswith("#")]
        assert code == 1
        assert rows and all("certificate failed revalidation" in row
                            and "FailingMatching" in row for row in rows)


class TestLemmaSweeps:
    """The lemma sweeps solve their cells in chunks of LEMMA_CHUNK; the
    rows, and which cells the dense spectra recheck, must not depend on
    where the chunks end."""

    CHUNKS = (1, 7, hz.LEMMA_CHUNK)
    L22_CELLS = 3000  # crosses the default chunk's end, off the stride

    @staticmethod
    def rows(cells, stride):
        report = hz.Report(mode="sweep", columns=hz.PROPERTY_COLUMNS)
        hz._sweep_rows(report, cells, stride)
        return report.rows

    def sweeps(self):
        # name -> (cells, dense-recheck stride, whether the cells are the
        # whole sweep)
        return {"l2.3": (list(hz._cells_23()), hz.DENSE_STRIDE, True),
                "l2.2": (list(islice(hz._cells_22(), self.L22_CELLS)),
                         hz.DENSE_STRIDE, False),
                "l2.6": (list(hz._cells_26()), 1, True)}

    def test_rows_do_not_depend_on_chunks(self, monkeypatch):
        for name, (cells, stride, whole) in self.sweeps().items():
            runs = []
            for chunk in self.CHUNKS:
                monkeypatch.setattr(hz, "LEMMA_CHUNK", chunk)
                runs.append(self.rows(cells, stride))
            assert len(runs[0]) == len(cells), name
            assert runs[0] == runs[1] == runs[2], name
            assert all(row["verdict"] is True for row in runs[0]), name
            if whole:
                assert runs[0] == cmd_verify(name, None, 0, 0).rows, name

    def test_dense_recheck_bites(self, monkeypatch):
        solve = sp.rho_dense_many
        sweeps = self.sweeps()
        # l2.3's three rechecked cells share no side
        for name in ("l2.2", "l2.6"):
            cells, stride, _ = sweeps[name]
            checked = set(range(0, len(cells), stride))
            assert len(checked) == math.ceil(len(cells) / stride), name
            # the side that the most rechecked cells compare
            target = Counter(side for i in checked
                             for side in cells[i][1:]).most_common(1)[0][0]
            adj = target.graph().adj
            uses = {i for i in checked
                    if any(side.graph().adj == adj for side in cells[i][1:])}
            assert len(uses) > 1, name

            def false_cells(chunk, moved):
                # the dense value of each graph that ``moved`` picks, off
                # by 1e-6
                monkeypatch.setattr(hz, "LEMMA_CHUNK", chunk)
                monkeypatch.setattr(sp, "rho_dense_many", lambda graphs: [
                    value + 1e-6 if moved(g) else value
                    for g, value in zip(graphs, solve(graphs))])
                return {i for i, row in enumerate(self.rows(cells, stride))
                        if row["verdict"] is not True}

            for chunk in self.CHUNKS:
                assert false_cells(chunk, lambda g: True) == checked, (
                    name, chunk)
                assert false_cells(chunk, lambda g: g.adj == adj) == uses, (
                    name, chunk)
        # verify's own sweeps recheck every cell of their stride: l2.6
        # every one of its 230 cells
        monkeypatch.setattr(sp, "rho_dense_many", lambda graphs: [
            value + 1e-6 for value in solve(graphs)])
        for name, (cells, stride, whole) in sweeps.items():
            if whole:
                rows = cmd_verify(name, None, 0, 0).rows
                assert {i for i, row in enumerate(rows)
                        if row["verdict"] is not True} == set(
                            range(0, len(cells), stride)), name
        assert len(sweeps["l2.6"][0]) == 230

    def test_eigensolves_scale_with_chunks_not_cells(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(a.shape) or eigvalsh(a))

        def bound(cells, stride):
            # per chunk: one solve per quotient size (2 to 5 classes) for
            # its lhs, one per size for its new rhs, one per order for its
            # rechecked sides
            orders = {(i // hz.LEMMA_CHUNK,
                       sum(z * copies for z, copies in side.classes))
                      for i in range(0, len(cells), stride)
                      for side in cells[i][1:]}
            return math.ceil(len(cells) / hz.LEMMA_CHUNK) * 2 * 4 + len(
                orders)

        for name, (cells, stride, whole) in self.sweeps().items():
            calls.clear()
            if whole:
                code, _ = run_main(["verify", "--theorem", name])
                assert code == 0
            else:
                self.rows(cells, stride)
            assert calls, name
            assert len(calls) <= bound(cells, stride) < len(cells), (
                name, calls)


class TestVerifyScanAgree:
    """verify's sample rows, fed back to scan as graph6 lines, give the same
    rows, categories and notes: both run ``_evaluate``. The samples of
    these theorems are connected, so scan infers the sampler's bipartition
    and the certificates match too."""

    @pytest.mark.parametrize("theorem, p, checked", [
        # below the threshold or recognized as extremal: no checker runs
        ("t1.1", FamilyParams(n=10, k=1, delta=2), 0),
        ("t1.1", FamilyParams(n=18, k=1, delta=3), 4),
        ("t1.3", FamilyParams(n=8, k=2), 12),
        ("t4.5", FamilyParams(n=15, k=1, delta=2), 2),
    ], ids=["t1.1-n10", "t1.1-n18", "t1.3-n8", "t4.5-n15"])
    def test_sample_rows_rescanned(self, theorem, p, checked):
        verify = cmd_verify(theorem, p, samples=80, seed=3)
        scan = cmd_scan([row["graph"] for row in verify.rows[1:]], theorem, p)
        assert scan.rows == verify.rows[1:]
        assert sum(row["verdict"] != "" for row in scan.rows) >= checked
        categories = dict(verify.summary)
        categories["extremal-hit"] -= 1
        assert scan.summary == {key: count for key, count
                                in categories.items() if count}
        renamed = [re.sub(r"^sample (\d+):",
                          lambda m: f"line {int(m[1]) + 1}:", note)
                   for note in verify.notes if note.startswith("sample ")]
        assert scan.notes == renamed


class TestStackedEvaluation:
    """verify solves its samples' rho and encodes their graph6 column one
    chunk at a time, a chunk being one eigensolve stack
    (``sp.stack_size(n)`` samples), and scan solves its evaluated lines'
    rho in one call; neither the chunking nor the stacking changes a byte
    of the report."""

    CASES = [("t1.1", FamilyParams(n=10, k=1, delta=2), 60),
             ("t1.2", FamilyParams(n=16, k=1, delta=2), 40),
             ("t1.3", FamilyParams(n=8, k=2), 60),
             ("t4.5", FamilyParams(n=15, k=1, delta=2), 40)]

    @staticmethod
    def skipped_lines(n):
        # another order (n = 0 among them) and a non-bipartite line
        return [graph6_encode(g) for g in (
            empty(0), complete(n - 1), complete(n),
            disjoint_union(cycle(3), complete_bipartite(1, n - 4)))]

    @pytest.mark.parametrize("theorem, p, samples", CASES,
                             ids=[c[0] for c in CASES])
    def test_reports_do_not_depend_on_chunks(self, theorem, p, samples,
                                             monkeypatch):
        solve, encode = sp.rho_dense_many, hz.graph6_encode_many
        sizes, encoded = [], []
        monkeypatch.setattr(sp, "rho_dense_many", lambda graphs: (
            sizes.append(len(graphs)) or solve(graphs)))
        monkeypatch.setattr(hz, "graph6_encode_many", lambda graphs: (
            encoded.append(len(graphs)) or encode(graphs)))
        verify, scan = [], []
        # chunks of 1 sample, of 3 and of the default count
        for cells in (p.n ** 2, 4 * p.n ** 2 - 1, sp.STACK_CELLS):
            monkeypatch.setattr(sp, "STACK_CELLS", cells)
            chunk = cells // p.n ** 2
            sizes.clear()
            encoded.clear()
            report = cmd_verify(theorem, p, samples, seed=9)
            verify.append((csv_text(report), report.exit_code()))
            # one solve and one encoding per chunk
            assert sizes == encoded == [chunk] * (samples // chunk) + (
                [samples % chunk] if samples % chunk else [])
            lines = [row["graph"] for row in report.rows[1:]]
            skipped = self.skipped_lines(p.n)
            mixed = [text for i, line in enumerate(lines)
                     for text in [line] + skipped[i:i + 1]]
            sizes.clear()
            report = cmd_scan(mixed, theorem, p)
            assert len(sizes) == 1
            scan.append((csv_text(report), report.exit_code()))
            # the lines of another order; for a bipartite theorem, also
            # complete(n) and the line with a triangle
            assert report.summary["skipped"] >= (
                4 if THEOREMS[theorem].bipartite else 2)
        assert verify[0] == verify[1] == verify[2]
        assert scan[0] == scan[1] == scan[2]

    def test_rho_is_rho_dense(self):
        """Samples of one order across three default chunks (327 at
        n = 10), rescanned with skipped lines among them: each row's rho
        is its graph's ``rho_dense`` bit for bit, and its
        ``spectral_radius`` to 1e-9."""
        p = FamilyParams(n=10, k=1, delta=2)
        assert sp.STACK_CELLS // p.n ** 2 == 327
        verify = cmd_verify("t1.1", p, samples=700, seed=9)
        lines = [row["graph"] for row in verify.rows[1:]]
        scan = cmd_scan(lines + self.skipped_lines(p.n), "t1.1", p)
        assert scan.summary["skipped"] == 2
        rows = verify.rows[1:] + scan.rows
        assert len(rows) == 1404
        for row in rows:
            g = graph6_decode(row["graph"])
            if g.n != p.n:
                assert row["rho"] is None
                continue
            assert row["rho"] == sp.rho_dense(g), row["graph"]
            assert abs(row["rho"] - sp.spectral_radius(g).rho) <= 1e-9


class TestBenchHooks:
    def test_tracer_installs(self, monkeypatch):
        # the benchmark's per-layer trace wraps functions by name; deleting
        # or renaming one of them must fail here, not only in the benchmark
        monkeypatch.syspath_prepend(str(BENCH))
        tracing = pytest.importorskip("tracing")
        argv = ["verify", "--theorem", "t1.3", "--n", "8", "--k", "2",
                "--samples", "20", "--seed", "1"]
        plain = run_main(argv)
        tracer = tracing.Tracer()
        try:
            tracer.install()
            traced = run_main(argv)
        finally:
            tracer.uninstall()
        assert traced == plain
        metrics = tracer.metrics(0.0)
        assert metrics["harness.sample.calls"] == 20
        assert metrics["harness.pipeline.calls"] == 1


class TestRendering:
    def test_csv_shape(self):
        report = cmd_scan([graph6_encode(complete_bipartite(4, 4))],
                          "t1.3", FamilyParams(n=8, k=2))
        text = csv_text(report)
        header = text.splitlines()[0]
        assert header == "graph,rho,rho_star,margin,verdict,certificate,extremal"
        assert "# consistent=1" in text

    def test_json_roundtrip(self):
        report = cmd_verify("t1.3", FamilyParams(n=8, k=2), samples=3,
                            seed=1)
        doc = json.loads(render_json(report))
        assert doc["mode"] == "verify t1.3"
        assert len(doc["rows"]) == 4
        assert doc["summary"]["extremal-hit"] >= 1


# the flags each mode reads: "+" accepted, "." rejected with "<mode> does
# not read <flag>"; the columns are the parser's flags in parser order
FLAG_COLUMNS = ("--family", "--theorem", "--property", "--n", "--k",
                "--delta", "--samples", "--seed", "--tol", "--jobs",
                "--format", "--config", "--exhaustive-limit", "--input")
FLAG_MATRIX = {
    #              fam thm prp n  k  dlt smp sed tol job fmt cfg lim inp
    "construct":   "+   .   .   +  +  +   .   .   .   +   .   +   .   .",
    "rho":         ".   .   .   .  .  .   .   .   .   +   +   +   .   +",
    "check":       ".   .   +   .  +  .   .   .   .   +   +   +   +   +",
    "verify":      ".   +   .   +  +  +   +   +   +   +   +   +   +   .",
    "cross-check": ".   .   .   +  .  .   +   +   .   +   +   +   .   .",
    "scan":        ".   +   .   +  +  +   .   .   +   +   +   +   +   +",
}
# each mode's argv names what it needs by a name that narrows nothing
FLAG_BASES = {"construct": ["construct", "--family", "kext-bipartite"],
              "rho": ["rho"], "check": ["check", "--property", "k-factor"],
              "verify": ["verify", "--theorem", "t1.2"],
              "cross-check": ["cross-check"],
              "scan": ["scan", "--theorem", "t1.2"]}
FLAG_VALUES = {"--family": "kext-bipartite", "--theorem": "t1.2",
               "--property": "k-factor", "--n": "8", "--k": "1",
               "--delta": "1", "--samples": "1", "--seed": "1",
               "--tol": "1e-6", "--jobs": "1", "--format": "csv",
               "--exhaustive-limit": "1", "--input": os.devnull}


class TestEntryValidation:
    """Flag values that no run can use exit 2 with a message naming the
    flag, before any graph is drawn, read or checked."""

    @pytest.mark.parametrize("mode", ["verify", "scan"])
    @pytest.mark.parametrize("tol", ["-1", "nan", "1e-13"])
    def test_tolerance(self, mode, tol, tmp_path, capsys):
        f = tmp_path / "in.g6"
        f.write_text(graph6_encode(extremal_kfactor(8, 2)) + "\n")
        code = cli.main([mode, "--theorem", "t1.3", "--n", "8", "--k", "2",
                         "--samples", "5", "--tol", tol, "--input", str(f)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--tol" in captured.err

    @pytest.mark.parametrize("prop, k", [("k-extendable", "0"),
                                         ("k-factor-critical", "0"),
                                         ("k-factor", "-1")])
    def test_check_k(self, prop, k, tmp_path, capsys):
        f = tmp_path / "in.g6"
        f.write_text(graph6_encode(complete_bipartite(3, 3)) + "\n")
        code = cli.main(["check", "--property", prop, "--k", k,
                         "--input", str(f)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--k" in captured.err


    @pytest.mark.parametrize("argv, flag", [
        (["verify", "--theorem", "t1.3", "--n", "8", "--k", "2",
          "--samples", "-3"], "--samples"),
        (["check", "--property", "hamiltonian", "--exhaustive-limit", "-1"],
         "--exhaustive-limit"),
        (["rho", "--jobs", "0"], "--jobs"),
        (["cross-check", "--n", "1"], "--n"),
        (["cross-check", "--n", "9"], "--n"),
        (["rho", "--jobs", "2"], "--jobs"),
    ])
    def test_counts(self, argv, flag, tmp_path, capsys):
        f = tmp_path / "in.g6"
        f.write_text(graph6_encode(complete_bipartite(3, 3)) + "\n")
        code = cli.main(argv + ["--input", str(f)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert flag in captured.err

    @pytest.mark.parametrize("flag", ["--input", "--config"])
    def test_non_utf8_file(self, flag, tmp_path, capsys):
        # a file that is not UTF-8 is unreadable input: exit 2, naming it
        f = tmp_path / "latin1.txt"
        f.write_bytes(b"\xff\n")
        code = cli.main(["rho", flag, str(f)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: cannot read ")
        assert str(f) in captured.err and "Traceback" not in captured.err

    def test_counts_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples=-1\n")
        code = cli.main(["verify", "--theorem", "t1.3", "--n", "8", "--k",
                         "2", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and "--samples" in captured.err

    def test_jobs_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jobs=2\n")
        code = cli.main(["rho", "--input", os.devnull, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--jobs" in captured.err

    def test_convergence_failure_exits_2(self, monkeypatch, capsys):
        def fail(*_args, **_kwargs):
            raise ConvergenceError("power iteration did not converge", 4e-16)
        monkeypatch.setattr(hz, "cmd_rho", fail)
        code = cli.main(["rho", "--input", os.devnull])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "did not converge" in captured.err
        assert "best residual 4.000e-16" in captured.err

    def test_lemma_needs_no_order(self):
        assert run_main(["verify", "--theorem", "l2.3"]) == run_main(
            ["verify", "--theorem", "l2.3", "--n", "40"])

    @pytest.mark.parametrize("n", ["5", "41"])
    def test_lemma_rejects_other_orders(self, n, capsys):
        code = cli.main(["verify", "--theorem", "l2.3", "--n", n])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--n" in captured.err

    @pytest.mark.parametrize("flag, value", [
        ("--k", "5"), ("--delta", "9"), ("--samples", "3"), ("--seed", "4"),
        ("--sam", "3"), ("--tol", "0.5"), ("--exhaustive-limit", "3")])
    def test_lemma_rejects_unread_flags(self, flag, value, tmp_path, capsys):
        # the lemma sweeps are fixed: no sample, tolerance or search limit.
        # argv, like a config, takes exact flag names: --sam is no flag
        named = "--samples" if flag == "--sam" else flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{named[2:]}={value}\n")
        for extra in ([flag, value], ["--config", str(cfg)]):
            try:
                code = cli.main(["verify", "--theorem", "l2.3"] + extra)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            if extra[0] == "--sam":
                assert "unrecognized arguments: --sam 3" in captured.err
                assert "Traceback" not in captured.err
            else:
                assert captured.err.rstrip() == (
                    f"error: verify --theorem l2.3 does not read {named}")

    def test_hamiltonian_rejects_k(self, tmp_path, capsys):
        f = tmp_path / "in.g6"
        f.write_text(graph6_encode(complete_bipartite(3, 3)) + "\n")
        code = cli.main(["check", "--property", "hamiltonian", "--k", "7",
                         "--input", str(f)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.rstrip().endswith("does not read --k")

    def test_unread_flag_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=4\n")
        code = cli.main(["verify", "--theorem", "l2.6", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and "does not read --seed" in captured.err

    @pytest.mark.parametrize("argv, flag", [
        (["verify", "--theorem", "t4.3", "--n", "8", "--k", "3"], "--k"),
        (["verify", "--theorem", "t1.3", "--n", "8", "--k", "2", "--delta",
          "3"], "--delta"),
        (["verify", "--theorem", "t4.3", "--n", "8", "--delta", "3"],
         "--delta"),
        (["scan", "--theorem", "t4.3", "--n", "8", "--k", "3"], "--k"),
        (["scan", "--theorem", "t1.3", "--n", "8", "--k", "2", "--delta",
          "2"], "--delta"),
        (["construct", "--family", "hamilton-bipartite", "--k", "3"], "--k"),
        (["construct", "--family", "kfactor-bipartite", "--n", "8", "--k",
          "2", "--delta", "1"], "--delta"),
    ])
    def test_theorem_and_family_reject_unread_flags(self, argv, flag,
                                                    capsys):
        code = cli.main(argv + ["--samples", "2", "--input", os.devnull])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.rstrip().endswith(f"does not read {flag}")

    def test_family_unread_flag_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=3\n")
        code = cli.main(["verify", "--theorem", "t4.3", "--n", "8",
                         "--samples", "2", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and "t4.3 does not read --k" in captured.err

    @pytest.mark.parametrize("argv", [
        ["verify", "--theorem", "t1.1", "--n", "10", "--k", "1", "--delta",
         "2", "--samples", "0"],
        ["verify", "--theorem", "t1.2", "--n", "10", "--k", "1", "--delta",
         "1", "--samples", "0"],
        ["verify", "--theorem", "t4.3", "--n", "8", "--samples", "0"],
        ["construct", "--family", "kext-bipartite", "--n", "10", "--k", "1",
         "--delta", "1"],
    ])
    def test_read_flags_stay_accepted(self, argv):
        assert run_main(argv)[0] == 0

    @pytest.mark.parametrize("argv", [
        ["verify", "--theorem", "t1.2", "--n", "16", "--k", "1"],
        ["scan", "--theorem", "t1.2", "--n", "16", "--k", "1"],
        ["construct", "--family", "kext-bipartite", "--n", "16", "--k", "1"],
    ])
    def test_s_is_no_parameter(self, argv, tmp_path, capsys):
        # the overlay size is read as --delta only: --s is no flag, as
        # argv takes no prefixes, and a config file has no key s
        cfg = tmp_path / "run.cfg"
        cfg.write_text("s=3\n")
        for extra, err in ((["--s", "3"], "unrecognized arguments: --s 3"),
                           (["--config", str(cfg)], "unknown key 's'")):
            try:
                code = cli.main(argv + extra)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert err in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("mode", list(FLAG_MATRIX))
    def test_flag_matrix(self, mode, tmp_path):
        parser = cli.build_parser()
        flags = tuple(action.option_strings[0] for action in parser._actions
                      if action.option_strings and action.dest != "help")
        modes = next(action.choices for action in parser._actions
                     if action.dest == "mode")
        assert (FLAG_COLUMNS, list(FLAG_MATRIX)) == (flags, list(modes))
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        values = {**FLAG_VALUES, "--config": str(cfg)}
        got = {}
        for flag in FLAG_COLUMNS:
            try:
                cli._resolve(parser, FLAG_BASES[mode] + [flag, values[flag]])
                got[flag] = "+"
            except UsageError as exc:
                assert str(exc) == f"{mode} does not read {flag}"
                got[flag] = "."
        assert got == dict(zip(FLAG_COLUMNS, FLAG_MATRIX[mode].split()))

    @pytest.mark.parametrize("argv, flag", [
        (["verify", "--theorem", "t1.3", "--n", "8", "--k", "2",
          "--samples", "0", "--family", "kfc-general"], "--family"),
        (["verify", "--theorem", "t1.3", "--n", "8", "--k", "2",
          "--samples", "0", "--property", "hamiltonian"], "--property"),
        (["construct", "--family", "kfactor-bipartite", "--n", "8", "--k",
          "2", "--samples", "5"], "--samples"),
        (["construct", "--family", "kfactor-bipartite", "--n", "8", "--k",
          "2", "--seed", "3"], "--seed"),
        (["construct", "--family", "kfactor-bipartite", "--n", "8", "--k",
          "2", "--theorem", "t1.1"], "--theorem"),
        (["scan", "--theorem", "t1.3", "--n", "8", "--k", "2", "--samples",
          "7"], "--samples"),
        (["scan", "--theorem", "t1.3", "--n", "8", "--k", "2", "--seed",
          "9"], "--seed"),
        (["rho", "--theorem", "t1.1"], "--theorem"),
        (["check", "--property", "k-factor", "--k", "2", "--seed", "1"],
         "--seed"),
        (["cross-check", "--n", "4", "--k", "1"], "--k"),
        (["verify", "--theorem", "t1.3", "--n", "8", "--k", "2",
          "--samples", "0", "--input", os.devnull], "--input"),
        (["construct", "--family", "kfactor-bipartite", "--n", "8", "--k",
          "2", "--format", "json"], "--format"),
        (["rho", "--exhaustive-limit", "3"], "--exhaustive-limit"),
    ])
    def test_mode_rejects_unread_flags(self, argv, flag, capsys):
        code = cli.main(argv + ["--jobs", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.rstrip() == (
            f"error: {argv[0]} does not read {flag}")

    def test_mode_unread_flag_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples=4\n")
        code = cli.main(["construct", "--family", "kfactor-bipartite",
                         "--n", "8", "--k", "2", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and "construct does not read --samples" in (
            captured.err)

    def test_jobs_and_order_stay_accepted(self, tmp_path, capsys):
        # every benchmark command passes --jobs, and the lemma sweeps --n 40;
        # a mode that reads no order rejects --n
        assert run_main(["verify", "--theorem", "l2.3", "--n", "40",
                         "--jobs", "1"]) == run_main(
            ["verify", "--theorem", "l2.3"])
        f = tmp_path / "in.g6"
        f.write_text(graph6_encode(complete_bipartite(3, 3)) + "\n")
        argv = ["check", "--property", "hamiltonian", "--input", str(f)]
        assert run_main(argv + ["--jobs", "1"]) == run_main(argv)
        code = cli.main(argv + ["--n", "40", "--jobs", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.rstrip() == "error: check does not read --n"

    def test_unknown_property(self):
        with pytest.raises(UsageError, match="unknown property"):
            cmd_check([], "k-extendible", 1)

    @pytest.mark.parametrize("line, why", [
        ("sample=3", "unknown key 'sample'"),
        ("mode=verify", "unknown key 'mode'"),
        ("config=other.cfg", "unknown key 'config'"),
        ("property=k-extendible", "property='k-extendible' is invalid"),
        ("format=xml", "format='xml' is invalid"),
        ("samples=many", "samples='many' is invalid"),
        ("samples", "expected key=value"),
    ])
    def test_config_values_checked_as_flags(self, line, why, tmp_path,
                                            capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# comment\n\n{line}\n")
        code = cli.main(["check", "--property", "k-factor", "--k", "2",
                         "--config", str(cfg), "--input", os.devnull])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"{cfg}:3: " in captured.err and why in captured.err

    def test_config_values_converted(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("exhaustive-limit=0\ntheorem=t4.3\nn=8\n"
                       "tol=1e-9\n")
        f = tmp_path / "in.g6"
        f.write_text(graph6_encode(complete_bipartite(4, 4)) + "\n")
        code, out = run_main(["scan", "--config", str(cfg),
                              "--input", str(f)])
        assert code == 0
        assert "skipped: search limited to n <= 0" in out


class TestCliEndToEnd:
    def test_pipe_construct_scan(self):
        built = run_cli(["construct", "--family", "kfactor-bipartite",
                         "--n", "8", "--k", "2"])
        r = run_cli(["scan", "--theorem", "t1.3", "--n", "8", "--k", "2"],
                    stdin=built.stdout)
        assert r.returncode == 0
        assert "extremal-hit=1" in r.stdout

    def test_verify_json(self):
        r = run_cli(["verify", "--theorem", "t1.3", "--n", "8", "--k", "2",
                     "--samples", "5", "--seed", "3", "--format", "json"])
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["summary"]["extremal-hit"] >= 1

    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples=4\nseed=9\nformat=json\n")
        r = run_cli(["verify", "--theorem", "t1.3", "--n", "8", "--k", "2",
                     "--config", str(cfg)])
        doc = json.loads(r.stdout)
        assert sum(doc["summary"].values()) == 5  # 4 samples + tightness
        # explicit flag beats the config file
        r2 = run_cli(["verify", "--theorem", "t1.3", "--n", "8", "--k", "2",
                      "--config", str(cfg), "--format", "csv"])
        assert r2.stdout.startswith("graph,")

    def test_usage_errors(self):
        assert run_cli(["verify", "--n", "8"]).returncode == 2
        assert run_cli(["check", "--property", "k-factor"],
                       stdin="!!\n").returncode == 2
        assert run_cli(["rho"], stdin="").returncode == 0

    def test_rho_all_malformed(self):
        r = run_cli(["rho"], stdin="!!\n")
        assert r.returncode == 2 and r.stdout == ""
        assert "all input lines were malformed" in r.stderr

    def test_input_file(self, tmp_path):
        f = tmp_path / "graphs.g6"
        f.write_text(graph6_encode(complete(4)) + "\n")
        r = run_cli(["rho", "--input", str(f)])
        assert r.returncode == 0 and "3," in r.stdout
