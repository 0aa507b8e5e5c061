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
from .families import FAMILIES, READS, FamilyParams
from .graph import GraphError
from .matchfactor import EXHAUSTIVE_LIMIT
from .spectra import ConvergenceError

# re-verification asks power iteration for tol/100, which float64 reaches
# down to about 1e-14 on the family members
_MIN_TOL = 1e-12
# the parameters that a family may read besides n
_FAMILY_FIELDS = ("k", "delta", "s")
# the flags each mode reads; a mode rejects the others, except --n, --tol
# and --jobs, which every mode accepts: every benchmark command passes
# --jobs, and `check --n` and a `check` config setting tol stay accepted
_MODE_READS = {
    "construct": ("family",) + _FAMILY_FIELDS,
    "rho": ("format", "input"),
    "check": ("property", "k", "exhaustive_limit", "format", "input"),
    "verify": ("theorem",) + _FAMILY_FIELDS + (
        "samples", "seed", "exhaustive_limit", "format"),
    "cross-check": ("samples", "seed", "exhaustive_limit", "format"),
    "scan": ("theorem",) + _FAMILY_FIELDS + (
        "exhaustive_limit", "format", "input"),
}
_READ_BY_ALL = ("mode", "n", "tol", "jobs", "config")


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
    parser.add_argument("--property", choices=list(hz.PROPERTIES))
    parser.add_argument("--n", type=int)
    parser.add_argument("--k", type=int)
    parser.add_argument("--delta", type=int)
    parser.add_argument("--s", type=int)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=hz.DEFAULT_TOL)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--config", metavar="PATH")
    parser.add_argument("--exhaustive-limit", type=int,
                        dest="exhaustive_limit", default=EXHAUSTIVE_LIMIT)
    parser.add_argument("--input", metavar="PATH",
                        help="graph6 file, one graph per line (default stdin)")
    return parser


def _load_config(path: str, flags: dict[str, argparse.Action]) -> dict:
    """The key=value lines of a config file, each key a flag's name and each
    value converted and checked as that flag's own would be."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise hz.UsageError(f"cannot read config {path}: {exc}") from exc
    out = {}
    for lineno, line in enumerate(lines, 1):
        if not line or line.startswith("#"):
            continue
        key, eq, text = (part.strip() for part in line.partition("="))
        key = key.replace("-", "_")
        where = f"{path}:{lineno}:"
        if not eq:
            raise hz.UsageError(f"{where} expected key=value")
        if key not in flags:
            raise hz.UsageError(f"{where} unknown key {key!r}")
        action = flags[key]
        invalid = f"{where} config value {key}={text!r} is invalid"
        try:
            value = action.type(text) if action.type else text
        except ValueError as exc:
            raise hz.UsageError(f"{invalid}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise hz.UsageError(
                f"{invalid}; choices are {', '.join(action.choices)}")
        out[key] = value
    return out


def _named(parser: argparse.ArgumentParser, argv: list[str] | None) -> set:
    """The flags that argv names: a parse that starts from a namespace
    holding a marker for every flag leaves the marker on the others."""
    unset = object()
    start = argparse.Namespace(**{action.dest: unset
                                  for action in parser._actions})
    return {key for key, value in vars(parser.parse_args(argv, start)).items()
            if value is not unset}


def _resolve(parser: argparse.ArgumentParser, argv: list[str] | None) -> dict:
    """Each flag's value: from the command line, else from the config file,
    else its default."""
    args = parser.parse_args(argv)
    named = _named(parser, argv)
    if args.config:
        flags = {action.dest: action for action in parser._actions
                 if action.option_strings
                 and action.dest not in ("help", "config")}
        from_config = _load_config(args.config, flags)
        parser.set_defaults(**from_config)
        args = parser.parse_args(argv)
        named |= from_config.keys()
    # a lemma's fixed sweep reads no family parameter and draws no samples;
    # a theorem or a family reads only the parameters of its family
    unread, family = (), None
    if args.mode == "verify" and args.theorem in hz.LEMMAS:
        unread, named_by = _FAMILY_FIELDS + ("samples", "seed"), "theorem"
    elif args.mode == "check" and args.property == "hamiltonian":
        unread, named_by = ("k",), "property"
    elif args.mode in ("verify", "scan") and args.theorem in hz.THEOREMS:
        family, named_by = hz.THEOREMS[args.theorem].family, "theorem"
    elif args.mode == "construct" and args.family:
        family, named_by = args.family, "family"
    if family:
        unread = [key for key in _FAMILY_FIELDS if key not in READS[family]]
    for key in unread:
        if key in named:
            raise hz.UsageError(f"{args.mode} --{named_by} "
                                f"{vars(args)[named_by]} "
                                f"does not read --{key}")
    resolved = vars(args)
    if not (math.isfinite(resolved["tol"]) and resolved["tol"] >= _MIN_TOL):
        raise hz.UsageError(f"--tol must be a finite number >= {_MIN_TOL}, "
                            f"got {resolved['tol']}")
    for key, least in (("samples", 0), ("exhaustive_limit", 0), ("jobs", 1)):
        if resolved[key] < least:
            raise hz.UsageError(f"--{key.replace('_', '-')} must be >= "
                                f"{least}, got {resolved[key]}")
    n = resolved["n"]
    if args.mode == "cross-check" and n is not None and not 2 <= n <= 8:
        raise hz.UsageError(f"cross-check --n must be in 2..8, got {n}")
    for action in parser._actions:
        key = action.dest
        if (key in named and key not in _READ_BY_ALL
                and key not in _MODE_READS[args.mode]):
            raise hz.UsageError(f"{args.mode} does not read "
                                f"{action.option_strings[0]}")
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
    cfg = _resolve(build_parser(), argv)
    mode = cfg["mode"]
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
        if cfg["theorem"] not in hz.LEMMAS:
            p = _params(cfg)
        elif cfg["n"] in (None, hz.LEMMA_MAX_N):
            p = None
        else:
            raise hz.UsageError(
                f"--n on a lemma must be {hz.LEMMA_MAX_N}, the sweeps' upper "
                f"order, or absent; got {cfg['n']}")
        report = hz.cmd_verify(cfg["theorem"], p,
                               samples=cfg["samples"], seed=cfg["seed"],
                               tol=cfg["tol"],
                               limit=cfg["exhaustive_limit"])
    elif mode == "cross-check":
        max_n = cfg["n"] if cfg["n"] is not None else 6
        report = hz.cmd_cross_check(max_n, samples=cfg["samples"],
                                    seed=cfg["seed"],
                                    limit=cfg["exhaustive_limit"])
    else:  # scan
        if not cfg["theorem"]:
            raise hz.UsageError("scan needs --theorem")
        report = hz.cmd_scan(_read_lines(cfg), cfg["theorem"], _params(cfg),
                             tol=cfg["tol"], limit=cfg["exhaustive_limit"],
                             jobs=cfg["jobs"])
    sys.stdout.write(hz.render(report, cfg["format"]))
    return report.exit_code()


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except (hz.UsageError, GraphError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
