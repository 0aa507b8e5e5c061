"""Command-line interface.

Subcommands: construct | rho | check | verify | cross-check | scan.
Reports go to stdout, diagnostics to stderr. Exit codes: 0 all consistent,
1 confirmed counterexample / oracle disagreement, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import math
import sys

from . import harness as hz
from .families import FAMILIES, FamilyParams
from .graph import GraphError
from .matchfactor import EXHAUSTIVE_LIMIT

DEFAULTS = {
    "samples": 1000,
    "seed": 0,
    "tol": hz.DEFAULT_TOL,
    "jobs": 1,
    "format": "csv",
    "exhaustive_limit": EXHAUSTIVE_LIMIT,
}

_INT_KEYS = {"n", "k", "delta", "s", "samples", "seed", "jobs",
             "exhaustive_limit"}
_FLOAT_KEYS = {"tol"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specmatch",
        description="Spectral thresholds and exact matching/factor checkers "
                    "for (bipartite) graphs.")
    parser.add_argument("mode", choices=["construct", "rho", "check",
                                         "verify", "cross-check", "scan"])
    parser.add_argument("--family", choices=list(FAMILIES))
    parser.add_argument("--theorem",
                        choices=sorted(hz.THEOREMS) + list(hz.LEMMAS))
    parser.add_argument("--property",
                        choices=["k-extendable", "k-factor",
                                 "k-factor-critical", "hamiltonian"])
    parser.add_argument("--n", type=int)
    parser.add_argument("--k", type=int)
    parser.add_argument("--delta", type=int)
    parser.add_argument("--s", type=int)
    parser.add_argument("--samples", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--format", choices=["csv", "json"])
    parser.add_argument("--config", metavar="PATH")
    parser.add_argument("--exhaustive-limit", type=int,
                        dest="exhaustive_limit")
    parser.add_argument("--input", metavar="PATH",
                        help="graph6 file, one graph per line (default stdin)")
    return parser


def _load_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise hz.UsageError(
                        f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise hz.UsageError(f"cannot read config {path}: {exc}") from exc
    return out


def _resolve(args: argparse.Namespace) -> dict:
    config = _load_config(args.config) if args.config else {}
    resolved: dict = {}
    for key in ("family", "theorem", "property", "n", "k", "delta", "s",
                "samples", "seed", "tol", "jobs", "format",
                "exhaustive_limit", "input"):
        value = getattr(args, key, None)
        if value is None and key in config:
            raw = config[key]
            try:
                if key in _INT_KEYS:
                    value = int(raw)
                elif key in _FLOAT_KEYS:
                    value = float(raw)
                else:
                    value = raw
            except ValueError as exc:
                raise hz.UsageError(
                    f"config value {key}={raw!r} is invalid") from exc
        if value is None:
            value = DEFAULTS.get(key)
        resolved[key] = value
    if not (math.isfinite(resolved["tol"]) and resolved["tol"] > 0):
        raise hz.UsageError(
            f"--tol must be a finite number > 0, got {resolved['tol']}")
    return resolved


def _read_lines(cfg: dict) -> list[str]:
    if cfg["input"]:
        try:
            with open(cfg["input"], encoding="utf-8") as fh:
                return fh.readlines()
        except OSError as exc:
            raise hz.UsageError(f"cannot read {cfg['input']}: {exc}") from exc
    return sys.stdin.readlines()


def _params(cfg: dict) -> FamilyParams:
    if cfg["n"] is None:
        raise hz.UsageError("--n is required")
    return FamilyParams(n=cfg["n"], k=cfg["k"], delta=cfg["delta"],
                        s=cfg["s"])


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _resolve(args)
    mode = args.mode
    if mode == "construct":
        if not cfg["family"]:
            raise hz.UsageError("construct needs --family")
        print(hz.cmd_construct(cfg["family"], _params(cfg)))
        return 0
    if mode == "rho":
        report = hz.cmd_rho(_read_lines(cfg), jobs=cfg["jobs"])
    elif mode == "check":
        if not cfg["property"]:
            raise hz.UsageError("check needs --property")
        report = hz.cmd_check(_read_lines(cfg), cfg["property"], cfg["k"],
                              limit=cfg["exhaustive_limit"],
                              jobs=cfg["jobs"])
    elif mode == "verify":
        if not cfg["theorem"]:
            raise hz.UsageError("verify needs --theorem")
        report = hz.cmd_verify(cfg["theorem"], _params(cfg),
                               samples=cfg["samples"], seed=cfg["seed"],
                               tol=cfg["tol"],
                               limit=cfg["exhaustive_limit"])
    elif mode == "cross-check":
        max_n = cfg["n"] if cfg["n"] is not None else 6
        report = hz.cmd_cross_check(max_n, samples=cfg["samples"],
                                    seed=cfg["seed"],
                                    limit=cfg["exhaustive_limit"])
    elif mode == "scan":
        if not cfg["theorem"]:
            raise hz.UsageError("scan needs --theorem")
        report = hz.cmd_scan(_read_lines(cfg), cfg["theorem"], _params(cfg),
                             tol=cfg["tol"], limit=cfg["exhaustive_limit"],
                             jobs=cfg["jobs"])
    else:
        raise hz.UsageError(f"unknown mode {mode!r}")
    sys.stdout.write(hz.render(report, cfg["format"]))
    return report.exit_code()


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except (hz.UsageError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
