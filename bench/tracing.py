"""Spans around calls into specmatch's public functions, installed from
outside the program.

Each wrapped function is replaced in every module namespace that holds it
(``harness``, ``spectra``, ``families`` and ``matchfactor`` import graph
functions by name), and methods are replaced on their class. A span is
(name, start, end, parent); spans stay in flat arrays until the run ends.
Self time is a span's duration minus the durations of its direct children.
A call counts once per outermost span of its name, so a layer function
calling another of the same layer (``largest_eigenvalue`` calling
``eigenvalues``) is one call.
"""
from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

import specmatch
from specmatch import cli, families, graph, harness, matchfactor, spectra

MODULES = (specmatch, graph, spectra, families, matchfactor, harness, cli)

# metric name -> (owner, attribute) pairs timed under that name
SPANS = {
    "graph.validate": [(graph.Graph, "__post_init__")],
    "graph.graph6_decode": [(graph, "graph6_decode")],
    "graph.graph6_encode": [(graph, "graph6_encode")],
    "graph.infer_bipartition": [(graph, "infer_bipartition")],
    "graph.is_connected": [(graph, "is_connected")],
    "spectra.adjacency_matrix": [(spectra, "adjacency_matrix")],
    "spectra.rho_dense": [(spectra, "rho_dense")],
    "spectra.spectral_radius": [(spectra, "spectral_radius")],
    "spectra.quotient_eig": [(spectra.QuotientMatrix, "eigenvalues"),
                             (spectra.QuotientMatrix, "largest_eigenvalue")],
    "spectra.bounds": [(spectra, "fms_bound"), (spectra, "sqrt_m_bound"),
                       (spectra, "degree_sum_identity")],
    "families.construct": [(families, name) for name in (
        "construct_family", "threshold_rho", "family_quotient",
        "extremal_kext_general", "extremal_kext_bipartite",
        "extremal_kfactor", "extremal_kfc", "extremal_hamilton")],
    "families.recognize": [(families, "recognize")],
    "matchfactor.max_matching": [(matchfactor, "max_matching")],
    "matchfactor.validate_certificate": [(matchfactor,
                                          "validate_certificate")],
    "harness.sample": [(harness, "sample_for_theorem")],
    "harness.check": [(harness, "check_property_for_theorem")],
    "harness.oracle": [(harness, "oracle_property_for_theorem")],
    "harness.render": [(harness, "render")],
    "harness.pipeline": [(harness, name) for name in (
        "cmd_verify", "cmd_rho", "cmd_check", "cmd_cross_check", "cmd_scan")],
    "cli": [(cli, "main")],
}
# checker routes: timed like SPANS, plus negatives and latency percentiles
ROUTES = {
    "matchfactor.chen": "is_k_extendable_chen",
    "matchfactor.plummer": "is_k_extendable_plummer",
    "matchfactor.definitional": "is_k_extendable_definitional",
    "matchfactor.kfc": "is_k_factor_critical",
    "matchfactor.flow": "find_k_factor_flow",
    "matchfactor.ore": "has_f_factor_ore",
    "matchfactor.hamilton": "hamiltonian_cycle",
}
for _route, _attr in ROUTES.items():
    SPANS[_route] = [(matchfactor, _attr)]

TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric this module reports, with its unit."""
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for route in ROUTES:
        units[f"{route}.negative"] = "count"
        units[f"{route}.p50_ms"] = "ms"
        units[f"{route}.tail_ms"] = "ms"
        units[f"{route}.tail_pct"] = "%"
    units.update({
        "spectra.spectral_radius.matvecs": "count",
        "harness.sample.draws": "count",
        "harness.sample.draws_per_sample": "ratio",
        "harness.sample.perturb_edits": "count",
        "trace.overhead_s": "s",
    })
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = list(SPANS)
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {"spectra.spectral_radius.matvecs": 0,
                       "harness.sample.draws": 0,
                       "harness.sample.perturb_edits": 0}
        self.counts.update({f"{route}.negative": 0 for route in ROUTES})
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        nid = self.names.index(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key: str, fn, inside: str | None = None):
        counts, stack, name_id = self.counts, self.stack, self.name_id
        inside_id = self.names.index(inside) if inside else None

        def wrapper(*args, **kwargs):
            if inside_id is None or (stack[-1] >= 0
                                     and name_id[stack[-1]] == inside_id):
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_result(self, name: str):
        counts = self.counts
        if name in ROUTES:
            key = f"{name}.negative"

            def negative(result):
                if result[0] is False:
                    counts[key] += 1
            return negative
        if name == "spectra.spectral_radius":
            def matvecs(result):
                counts["spectra.spectral_radius.matvecs"] += result.matvecs
            return matvecs
        return None

    def _replace(self, owner, attr: str, wrapper) -> None:
        if isinstance(owner, type):
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
            return
        original = getattr(owner, attr)
        for module in MODULES:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, value))
                    setattr(module, key, wrapper)

    def install(self) -> None:
        for name, targets in SPANS.items():
            for owner, attr in targets:
                fn = (owner.__dict__[attr] if isinstance(owner, type)
                      else getattr(owner, attr))
                self._replace(owner, attr,
                              self._span(name, fn, self._on_result(name)))
        for attr in ("random_graph", "random_bipartite"):
            self._replace(harness, attr, self._counter(
                "harness.sample.draws", getattr(harness, attr),
                inside="harness.sample"))
        self._replace(graph.Graph, "with_edge_toggled", self._counter(
            "harness.sample.perturb_edits", graph.Graph.with_edge_toggled))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def metrics(self, overhead_s: float) -> dict[str, float]:
        a = self.arrays()
        nid, parent = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        outer = ~has_parent | (nid[np.where(has_parent, parent, 0)] != nid)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            mine = nid == i
            calls = int(np.count_nonzero(mine & outer))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = float(self_time[mine].sum())
            if name in ROUTES:
                ms = dur[mine & outer] * 1000.0
                out[f"{name}.p50_ms"] = float(np.median(ms)) if calls else 0.0
                pct = next((p for p in TAIL_PERCENTILES
                            if calls * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND),
                           0.0)
                out[f"{name}.tail_pct"] = pct
                out[f"{name}.tail_ms"] = (float(np.percentile(ms, pct))
                                          if pct else 0.0)
        out.update(self.counts)
        samples = out["harness.sample.calls"]
        out["harness.sample.draws_per_sample"] = (
            out["harness.sample.draws"] / samples if samples else 0.0)
        out["trace.overhead_s"] = overhead_s
        return out
