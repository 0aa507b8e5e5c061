"""Correctness checks on the reports the CLI printed.

Every check works from the report text alone: rows are parsed back from
CSV, graphs are decoded from their graph6 column and every certificate is
re-validated with ``matchfactor.validate_certificate`` against that graph.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

from specmatch import matchfactor as mf
from specmatch.graph import GraphError, graph6_decode, infer_bipartition

from workloads import Command, LEMMA_CELLS

BOUND_SLACK = 1e-9


@dataclass
class Report:
    rows: list[dict]
    summary: dict[str, int]


def parse_report(text: str) -> Report:
    """CSV rows plus the ``# key=count`` summary lines (notes skipped)."""
    body, summary = [], {}
    for line in text.splitlines():
        if not line.startswith("#"):
            body.append(line)
        elif not line.startswith("# note: "):
            key, _, value = line[2:].partition("=")
            summary[key] = int(value)
    return Report(list(csv.DictReader(body)), summary)


@dataclass
class Outcome:
    """What the checks found in one command's report."""
    attempted: int
    failed: int = 0
    certificates: int = 0
    cert_invalid: int = 0
    candidates: int = 0
    checked_rows: int = 0
    violations: list[str] = field(default_factory=list)


def _host(text: str):
    # Bipartite rows were checked with sides; graph6 drops them, so infer
    # them again the way the program does for stream input.
    g = graph6_decode(text)
    return infer_bipartition(g) or g


def _certificates(rows: list[dict], out: Outcome) -> None:
    for row in rows:
        text = row["certificate"]
        if not text:
            if row["verdict"] == "false":
                out.cert_invalid += 1
                out.violations.append(
                    f"negative verdict without certificate on {row['graph']}")
            continue
        out.certificates += 1
        try:
            data = json.loads(text)
            cert = mf.Certificate(data["kind"], data["payload"])
            ok = mf.validate_certificate(_host(row["graph"]), cert)
        except (GraphError, KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            out.cert_invalid += 1
            out.violations.append(
                f"certificate rejected on {row['graph']}: {text}")


def _verify(cmd: Command, rep: Report, exit_code: int, out: Outcome) -> None:
    if len(rep.rows) != cmd.items + 1:
        out.violations.append(
            f"{len(rep.rows)} rows, expected {cmd.items} samples + extremal")
    out.candidates = rep.summary.get("counterexample-candidate", 0)
    # t1.2's confirmed candidates are a known, reported finding (exit 1);
    # any other theorem producing one is a wrong answer.
    if out.candidates and cmd.theorem != "t1.2":
        out.violations.append(f"{out.candidates} counterexample candidates")
    if exit_code != (1 if out.candidates else 0):
        out.violations.append(
            f"exit {exit_code} with {out.candidates} candidates")
    out.failed = rep.summary.get("skipped", 0)
    out.checked_rows = sum(1 for row in rep.rows[1:] if row["verdict"])
    _certificates(rep.rows, out)


def _lemma(cmd: Command, rep: Report, exit_code: int, out: Outcome) -> None:
    cells = LEMMA_CELLS[cmd.theorem]
    if len(rep.rows) != cells or rep.summary.get("consistent") != cells:
        out.violations.append(f"{len(rep.rows)} rows, expected {cells}")
    bad = sum(1 for row in rep.rows if row["verdict"] != "true")
    if bad or exit_code != 0:
        out.violations.append(f"{bad} lemma cells false, exit {exit_code}")


def _rho(cmd: Command, rep: Report, exit_code: int, out: Outcome) -> None:
    if exit_code != 0 or len(rep.rows) != cmd.items:
        out.violations.append(
            f"exit {exit_code}, {len(rep.rows)} rows for {cmd.items} lines")
    out.failed = (rep.summary.get("skipped", 0)
                  + rep.summary.get("parse-errors", 0))
    for row in rep.rows:
        rho = float(row["rho"])
        # fms and sqrt(m) are upper bounds on rho for connected and
        # bipartite graphs respectively; identity (13) is exact.
        above = [b for b in ("fms_bound", "sqrt_m")
                 if row[b] and rho > float(row[b]) + BOUND_SLACK]
        if rho < 0 or above or row["identity13"] != "ok":
            out.violations.append(f"rho row inconsistent: {row}")


def _check(cmd: Command, rep: Report, exit_code: int, out: Outcome) -> None:
    if exit_code != 0 or len(rep.rows) != cmd.items:
        out.violations.append(
            f"exit {exit_code}, {len(rep.rows)} rows for {cmd.items} lines")
    out.failed = sum(1 for row in rep.rows
                     if row["verdict"].startswith("skipped"))
    _certificates(rep.rows, out)


def _cross_check(cmd: Command, rep: Report, exit_code: int,
                 out: Outcome) -> None:
    if (exit_code != 0 or rep.rows
            or rep.summary.get("graphs") != cmd.items
            or rep.summary.get("disagreements") != 0):
        out.violations.append(
            f"exit {exit_code}, summary {rep.summary}, {len(rep.rows)} "
            f"disagreement rows")


CHECKS = {"verify": _verify, "lemma": _lemma, "rho": _rho, "check": _check,
          "cross-check": _cross_check}


def check_command(cmd: Command, exit_code: int | None,
                  report_text: str) -> Outcome:
    """A command that raised (exit_code None) or exited 2 fails all of its
    items; otherwise its report is checked row by row."""
    out = Outcome(attempted=cmd.items)
    if exit_code is None or exit_code == 2:
        out.failed = cmd.items
        return out
    CHECKS[cmd.kind](cmd, parse_report(report_text), exit_code, out)
    return out
