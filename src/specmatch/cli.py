"""Command-line interface.

Subcommands: construct | rho | check | verify | cross-check | scan.
Reports go to stdout, diagnostics to stderr. Exit codes: 0 all consistent,
1 confirmed counterexample / oracle disagreement, 2 usage or input error.

Each mode reads the flags of its row in ``_MODES``; a flag that argv or the
config file names outside that row exits 2 ("<mode> does not read --x"):

  construct     --family --n --k --delta
  rho           --format --input
  check         --property --k --exhaustive-limit --format --input
  verify        --theorem --n --k --delta --samples --seed --tol
                --exhaustive-limit --format
  cross-check   --n --samples --seed --format
  scan          --theorem --n --k --delta --tol --exhaustive-limit
                --format --input

``--exhaustive-limit`` bounds the two exhaustive searches only: the
order of the Hamilton search (t4.3, ``check --property hamiltonian``) and
side A of Ore's criterion, which re-checks t1.3 candidates. The
extendability, factor and factor-criticality routes are polynomial and
never read it. cross-check does not read it: its bipartite hosts have
|A| <= 4, and Ore's criterion runs there at its default limit.

The name a mode needs narrows its row: a lemma's fixed sweep reads no
family parameter, sample, tolerance or search limit, ``--property
hamiltonian`` reads no ``--k``, and a theorem or family reads only the
parameters of its family (``families.READS``). For kext-bipartite (t1.2)
``--delta`` is the overlay size s, the member's minimum degree only from
t1.2's least order 4*delta+2k+2 up. ``--config`` and ``--jobs`` are read by
every mode. specmatch runs in one process, so ``--jobs`` accepts only 1
(from argv or the config file; any other value exits 2); the flag stays
because every benchmark command passes ``--jobs 1``.
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

# the parameters that a family may read besides n
_FAMILY_FIELDS = ("k", "delta")
# mode -> (the flag it needs, the flags it reads)
_MODES = {
    "construct": ("family", ("family", "n") + _FAMILY_FIELDS),
    "rho": (None, ("format", "input")),
    "check": ("property", ("property", "k", "exhaustive_limit", "format",
                           "input")),
    "verify": ("theorem", ("theorem", "n") + _FAMILY_FIELDS + (
        "samples", "seed", "tol", "exhaustive_limit", "format")),
    "cross-check": (None, ("n", "samples", "seed", "format")),
    "scan": ("theorem", ("theorem", "n") + _FAMILY_FIELDS + (
        "tol", "exhaustive_limit", "format", "input")),
}
# read by every mode; --jobs accepts only 1, and stays because every
# benchmark command passes --jobs 1
_READ_BY_ALL = ("config", "jobs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specmatch", allow_abbrev=False,
        description="Spectral thresholds and exact matching/factor checkers "
                    "for (bipartite) graphs.")
    parser.add_argument("mode", choices=list(_MODES))
    parser.add_argument("--family", choices=list(FAMILIES))
    parser.add_argument("--theorem",
                        choices=sorted(hz.THEOREMS) + list(hz.LEMMAS))
    parser.add_argument("--property", choices=list(hz.PROPERTIES))
    parser.add_argument("--n", type=int)
    parser.add_argument("--k", type=int)
    parser.add_argument("--delta", type=int)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=hz.DEFAULT_TOL)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--config", metavar="PATH")
    parser.add_argument("--exhaustive-limit", type=int,
                        dest="exhaustive_limit", default=EXHAUSTIVE_LIMIT,
                        help="largest order of the Hamilton search and "
                             "largest side A of Ore's criterion")
    parser.add_argument("--input", metavar="PATH",
                        help="graph6 file, one graph per line (default stdin)")
    return parser


def _load_config(path: str, flags: dict[str, argparse.Action]) -> dict:
    """The key=value lines of a config file, each key a flag's name and each
    value converted and checked as that flag's own would be."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
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


def _resolve(parser: argparse.ArgumentParser, argv: list[str] | None) -> dict:
    """Each flag's value: from the command line, else from the config file,
    else its default. Values are checked first, then the flags named by
    either source against the mode's row, then the name the mode needs."""
    flags = {action.dest: action for action in parser._actions
             if action.option_strings and action.dest != "help"}
    # argv parsed onto a marker for every flag: the flags it names lose it
    unset = object()
    cfg = vars(parser.parse_args(argv, argparse.Namespace(
        **dict.fromkeys(flags, unset))))
    from_config = {}
    if cfg["config"] is not unset:
        from_config = _load_config(cfg["config"], {
            key: action for key, action in flags.items() if key != "config"})
    named = {key for key, value in cfg.items()
             if value is not unset} | from_config.keys()
    for key, value in cfg.items():
        if value is unset:
            cfg[key] = from_config.get(key, parser.get_default(key))
    if not (math.isfinite(cfg["tol"]) and cfg["tol"] >= hz.MIN_TOL):
        raise hz.UsageError(f"--tol must be a finite number >= {hz.MIN_TOL}, "
                            f"got {cfg['tol']}")
    for key in ("samples", "exhaustive_limit"):
        if cfg[key] < 0:
            raise hz.UsageError(f"--{key.replace('_', '-')} must be >= 0, "
                                f"got {cfg[key]}")
    if cfg["jobs"] != 1:
        raise hz.UsageError(f"--jobs must be 1, got {cfg['jobs']}: "
                            "specmatch runs in one process")
    mode, n = cfg["mode"], cfg["n"]
    if mode == "cross-check" and n is not None and not 2 <= n <= 8:
        raise hz.UsageError(f"cross-check --n must be in 2..8, got {n}")
    # the name the mode needs narrows its row: a lemma's fixed sweep reads
    # no family parameter, sample, tolerance or search limit, a property
    # without a least k reads no k, a theorem or a family only the
    # parameters of its family
    needs, reads = _MODES[mode]
    name = cfg[needs] if needs else None
    family = hz.THEOREMS[name].family if name in hz.THEOREMS else name
    if mode == "verify" and name in hz.LEMMAS:
        unread = _FAMILY_FIELDS + ("samples", "seed", "tol",
                                   "exhaustive_limit")
    elif mode == "check":
        unread = ("k",) if name and hz.PROPERTIES[name] is None else ()
    else:
        unread = tuple(key for key in _FAMILY_FIELDS
                       if key not in READS.get(family, _FAMILY_FIELDS))
    for key, action in flags.items():
        if key in named and key not in _READ_BY_ALL and (
                key not in reads or key in unread):
            by = f" --{needs} {name}" if key in unread else ""
            raise hz.UsageError(f"{mode}{by} does not read "
                                f"{action.option_strings[0]}")
    if needs and not name:
        raise hz.UsageError(f"{mode} needs --{needs}")
    return cfg


def _read_lines(cfg: dict) -> list[str]:
    if cfg["input"]:
        try:
            with open(cfg["input"], encoding="utf-8") as fh:
                return fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise hz.UsageError(f"cannot read {cfg['input']}: {exc}") from exc
    return sys.stdin.readlines()


def _params(cfg: dict) -> FamilyParams:
    if cfg["n"] is None:
        raise hz.UsageError("--n is required")
    return FamilyParams(n=cfg["n"], k=cfg["k"], delta=cfg["delta"])


def run(argv: list[str] | None = None) -> int:
    cfg = _resolve(build_parser(), argv)
    mode = cfg["mode"]
    if mode == "construct":
        print(hz.cmd_construct(cfg["family"], _params(cfg)))
        return 0
    if mode == "rho":
        report = hz.cmd_rho(_read_lines(cfg))
    elif mode == "check":
        report = hz.cmd_check(_read_lines(cfg), cfg["property"], cfg["k"],
                              limit=cfg["exhaustive_limit"])
    elif mode == "verify":
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
                                    seed=cfg["seed"])
    else:  # scan
        report = hz.cmd_scan(_read_lines(cfg), cfg["theorem"], _params(cfg),
                             tol=cfg["tol"], limit=cfg["exhaustive_limit"])
    hz.render(report, cfg["format"], sys.stdout)
    return report.exit_code()


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except (hz.UsageError, GraphError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
