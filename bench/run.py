"""specmatch benchmark: one workload through the public CLI entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's commands with ``specmatch.cli.main`` in this process
(``--jobs 1``, stdout captured), in whole rounds, stopping where the CLI
time is closest to S seconds; then checks every report and prints the
metrics. The last line of stdout is one JSON object.

--trace 0  end-to-end metrics: items_per_s over the in-process calls,
           setup_s (median of fresh interpreters running the workload's
           zero-item commands) and peak_rss_mb (a fresh interpreter
           running the workload's longest command). Both times are taken
           at a reference host speed (see REF_NOMINAL_S); raw figures are
           printed and recorded beside them.
--trace 1  per-layer metrics: the same rounds again with spans around the
           calls into each module (see tracing.py); the traced reports
           must be byte-identical to the untraced ones.

The program is imported from ``src/`` next to this directory and nowhere
else. Output files go to ``.bench_out/``. Exit code 0 when every check
passed, 1 when a report was wrong, 2 when the benchmark could not run.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 7
WORKLOAD_NAMES = ("verify-sample", "verify-check", "lemma-sweep",
                  "graph6-stream", "cross-check")
END_TO_END_UNITS = {"items_per_s": "items/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
# The shared host drifts between speeds up to 1.6x apart, for seconds to
# minutes at a time, so a raw time says more about the host's state than
# about the code. Times are therefore reported at a reference speed. A
# short kernel in the program's own mix (components of an 18-vertex bitset
# graph under 600 vertex masks, plus 50 8x8 eigvalsh calls) is timed every
# REF_PERIOD_S of wall time while commands run, from a SIGALRM handler in
# this thread; its own time is left out of the command times, and the
# total is multiplied by REF_NOMINAL_S over the mean kernel time. Set-up
# probes run in child processes, so for them the kernel is timed just
# before and after each probe. In 40 s blocks on a 2-core host, dividing by
# the kernel time cut the drift of Chen, sampler, rho and lemma timings from
# 1.5-1.7x to 1.03-1.12x. At nominal host speed scaled and raw times agree;
# both are recorded.
REF_NOMINAL_S = 0.0021
REF_PERIOD_S = 0.1
REF_BRACKET_RUNS = 9
REF_ORDER = 18
REF_ADJ = [((v * 2654435761) >> 7) & ((1 << REF_ORDER) - 1)
           for v in range(REF_ORDER)]
REF_MATRIX = np.add.outer(np.arange(8.0), np.arange(8.0)) % 5
CHECK_UNITS = {"fail_share": "ratio", "cert_invalid": "count",
               "harness.candidates_confirmed": "count"}

# Ad-hoc single runs at the seed commit, from the ROADMAP baseline table,
# next to this run's rate for the matching commands.
ROADMAP_BASELINE = {
    "verify --theorem t1.1 --n 10": ("verify-sample", 10000, 5.2,
                                     "verify t1.1 n=10, 10k samples"),
    "verify --theorem l2.2": ("lemma-sweep", 59340, 9.7, "verify l2.2"),
    "check --property k-factor-critical": (
        "graph6-stream", 50, 10.1,
        "check k-factor-critical --k 1, 50 graphs, n 12-19"),
    "rho": ("graph6-stream", 5000, 7.5,
            "rho --jobs 1, 5000-graph stream, n 12-19"),
}


def load_program():
    """Import specmatch from ROOT/src, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import specmatch
    except ImportError as exc:
        raise RuntimeError(f"cannot import specmatch from {src}: {exc}")
    where = Path(specmatch.__file__).resolve().parent
    if where != src / "specmatch":
        raise RuntimeError(f"specmatch imported from {where}, not {src}")


def reference_seconds() -> float:
    start = time.perf_counter()
    full = (1 << REF_ORDER) - 1
    for mask in range(1, 600):
        rest = full & ~mask
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                grown = 0
                while frontier:
                    low = frontier & -frontier
                    grown |= REF_ADJ[low.bit_length() - 1]
                    frontier ^= low
                frontier = grown & rest & ~comp
                comp |= frontier
            rest &= ~comp
    for _ in range(50):
        np.linalg.eigvalsh(REF_MATRIX)
    return time.perf_counter() - start


class SpeedSampler:
    """While active, times the reference kernel every REF_PERIOD_S of wall
    time. ``paused`` is the time spent in the kernel, which callers take out
    of the spans they measure."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(reference_seconds())
        self.paused += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        """Raw seconds times this factor gives reference seconds."""
        return REF_NOMINAL_S / statistics.fmean(self.samples)


def bracket_reference() -> float:
    return statistics.median(reference_seconds()
                             for _ in range(REF_BRACKET_RUNS))


@dataclass
class Result:
    round: int
    cmd: object
    exit_code: int | None
    seconds: float
    report: str
    error: str

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.report.encode()).hexdigest()


def run_command(cli, round_index: int, cmd,
                sampler: SpeedSampler | None = None) -> Result:
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(cmd.stdin)
    gc.collect()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            paused = sampler.paused if sampler else 0.0
            start = time.perf_counter()
            try:
                code = cli.main(cmd.argv)
            except Exception:  # a crash is counted as failed items
                code = None
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - start
            if sampler:
                seconds -= sampler.paused - paused
    finally:
        sys.stdin = saved_stdin
    return Result(round_index, cmd, code, seconds, out.getvalue(),
                  err.getvalue())


def run_pass(cli, rounds, seconds: float, tracer=None,
             sampler: SpeedSampler | None = None
             ) -> tuple[list[Result], list[Result], int]:
    """Whole rounds, stopping where the untraced CLI time is closest to
    ``seconds``. With a tracer, each command runs again right after, traced,
    so that slow spells of a shared machine fall on both runs alike."""
    plain: list[Result] = []
    traced: list[Result] = []
    r, total, last = 0, 0.0, 0.0
    while r == 0 or total + last / 2 < seconds:
        last = 0.0
        for cmd in rounds[r]:
            res = run_command(cli, r, cmd, sampler)
            last += res.seconds
            plain.append(res)
            if tracer is not None:
                tracer.install()
                try:
                    traced.append(run_command(cli, r, cmd))
                finally:
                    tracer.uninstall()
        total += last
        r += 1
    return plain, traced, r


def spawn_child(mode: str, payload, stdin, stdout):
    """Run bench/child.py; return (exit code, wall seconds, own rusage).

    ``os.wait4`` reads the usage of this child alone; RUSAGE_CHILDREN would
    report the maximum over every child reaped so far."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "bench" / "child.py"), mode,
         json.dumps(payload)], stdin=stdin, stdout=stdout, cwd=ROOT)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage


def measure_setup(workload, first_round,
                  violations: list[str]) -> tuple[float, float]:
    """Median time of fresh interpreters running the set-up probe, at
    the reference speed and raw."""
    from workloads import setup_commands
    if workload.setup_mode == "parse":
        mode, argvs = "parse", [cmd.argv for cmd in first_round]
    else:
        mode, argvs = "setup", setup_commands(workload, first_round)
    raw, scaled = [], []
    before = bracket_reference()
    for _ in range(SETUP_RUNS):
        code, elapsed, _ = spawn_child(mode, argvs, subprocess.DEVNULL,
                                       subprocess.DEVNULL)
        if code != 0:
            violations.append(f"set-up probe exited {code}: {argvs}")
        after = bracket_reference()
        raw.append(elapsed)
        scaled.append(elapsed * 2 * REF_NOMINAL_S / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def measure_rss(res: Result, violations: list[str]) -> float:
    """Peak RSS of a fresh interpreter running one command; its report
    must match the in-process one byte for byte."""
    stdin_path = OUT_DIR / "rss-stdin.txt"
    stdout_path = OUT_DIR / "rss-stdout.txt"
    stdin_path.write_text(res.cmd.stdin)
    with open(stdin_path, "rb") as fin, open(stdout_path, "wb") as fout:
        code, _, usage = spawn_child("run", res.cmd.argv, fin, fout)
    report = stdout_path.read_bytes()
    stdin_path.unlink()
    stdout_path.unlink()
    if code != res.exit_code or report != res.report.encode():
        violations.append(
            f"fresh-process report differs (exit {code} vs "
            f"{res.exit_code}): {res.cmd.label()}")
    return usage.ru_maxrss / 1024.0  # Linux reports KiB


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    blas = next((int(os.environ[v]) for v in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if os.environ.get(v, "").isdigit()), nproc)
    rev = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            rev = done.stdout.strip()
    return {"git_rev": rev, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": nproc,
            "blas_threads": min(blas, nproc), "jobs": 1}


def baseline(workload: str, results: list[Result]) -> list[dict]:
    out = []
    for prefix, (wl, items, seconds, what) in ROADMAP_BASELINE.items():
        if wl != workload:
            continue
        mine = [r for r in results if r.cmd.label().startswith(prefix)]
        run_items = sum(r.cmd.items for r in mine)
        run_seconds = sum(r.seconds for r in mine)
        out.append({"roadmap": what, "roadmap_items": items,
                    "roadmap_s": seconds,
                    "roadmap_items_per_s": items / seconds,
                    "this_run_items": run_items,
                    "this_run_raw_s": run_seconds,
                    "this_run_raw_items_per_s": run_items / run_seconds})
    return out


def evaluate(results: list[Result], violations: list[str]) -> dict:
    from checks import check_command
    totals = {"attempted": 0, "failed": 0, "certificates": 0,
              "cert_invalid": 0, "candidates": 0}
    for res in results:
        outcome = check_command(res.cmd, res.exit_code, res.report)
        for key in totals:
            totals[key] += getattr(outcome, key)
        violations.extend(f"{res.cmd.label()}: {v}"
                          for v in outcome.violations)
        if res.error:
            print(f"stderr of {res.cmd.label()}:\n{res.error}",
                  file=sys.stderr)
        expected = res.cmd.checked
        if expected is not None and outcome.checked_rows != expected:
            print(f"note: {outcome.checked_rows} checked rows, screened "
                  f"for {expected}: {res.cmd.label()}", file=sys.stderr)
    return totals


def declared_metrics() -> tuple[set[str], set[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from specmatch import cli
    from tracing import Tracer, per_layer_units
    from workloads import WORKLOADS, Rounds

    layer_units = {**per_layer_units(), **CHECK_UNITS}
    if declared_metrics() != (set(END_TO_END_UNITS), set(layer_units)):
        print("error: BENCHMARK.json metric names differ from the "
              "benchmark's", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    rounds = Rounds(workload, args.seed)
    violations: list[str] = []
    if args.trace == 0:
        setup_s, setup_raw_s = measure_setup(workload, rounds[0],
                                             violations)
        with SpeedSampler() as sampler:
            results, _, n_rounds = run_pass(cli, rounds, args.seconds,
                                            sampler=sampler)
    else:
        tracer = Tracer()
        results, traced, n_rounds = run_pass(cli, rounds, args.seconds,
                                             tracer=tracer)
    total = sum(r.seconds for r in results)
    totals = evaluate(results, violations)
    completed = totals["attempted"] - totals["failed"]
    checks = {"fail_share": totals["failed"] / totals["attempted"],
              "cert_invalid": totals["cert_invalid"],
              "harness.candidates_confirmed": totals["candidates"]}

    if args.trace == 0:
        rss = measure_rss(results[workload.longest], violations)
        metrics = {"items_per_s": completed / (total * sampler.scale()),
                   "setup_s": setup_s, "peak_rss_mb": rss}
        units = END_TO_END_UNITS
        shown = {**metrics, "raw_items_per_s": completed / total,
                 "raw_setup_s": setup_raw_s,
                 "host_speed": sampler.scale(), **checks}
    else:
        if [r.digest for r in traced] != [r.digest for r in results]:
            violations.append("traced reports differ from untraced reports")
        tracer.write(OUT_DIR / f"trace-{args.workload}.npz")
        overhead = sum(r.seconds for r in traced) - total
        metrics = {**tracer.metrics(overhead), **checks}
        units = layer_units
        shown = metrics

    # The number of rounds follows the host's speed; round 0 always runs,
    # so its digest is the one to compare between runs of a seed.
    first = hashlib.sha256("".join(
        r.digest for r in results if r.round == 0).encode()).hexdigest()
    combined = hashlib.sha256(
        "".join(r.digest for r in results).encode()).hexdigest()
    exits: dict[str, int] = {}
    for r in results:
        exits[str(r.exit_code)] = exits.get(str(r.exit_code), 0) + 1
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "rounds": n_rounds,
        "cli_seconds": total, "round0_sha256": first,
        "reports_sha256": combined,
        "commands": [{"round": r.round, "argv": r.cmd.argv,
                      "items": r.cmd.items, "exit": r.exit_code,
                      "sha256": r.digest, "seconds": r.seconds}
                     for r in results],
        "metrics": shown, "certificates_checked": totals["certificates"],
        "violations": violations, "roadmap_baseline":
            baseline(args.workload, results),
    }
    result_path = OUT_DIR / f"{args.workload}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{n_rounds} rounds, {len(results)} commands, "
          f"{totals['attempted']} items, {total:.3f} s in cli.main")
    unit_of = {**units, **CHECK_UNITS, "raw_items_per_s": "items/s",
               "raw_setup_s": "s", "host_speed": "ratio"}
    for name, value in shown.items():
        print(f"  {name:<40} {value:>16.6g} {unit_of[name]}")
    print(f"  round-0 reports sha256 {first}")
    print(f"  all reports sha256 {combined} (exit codes {exits})")
    print(f"  certificates re-validated: {totals['certificates']}")
    print(f"  result: {result_path.relative_to(ROOT)}")
    for v in violations[:20]:
        print(f"violation: {v}", file=sys.stderr)
    correct = not violations
    print(json.dumps({
        "correct": correct, "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
