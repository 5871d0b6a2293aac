"""Span tracer that wraps covmap's public functions from outside the package.

A probe names one function by its defining module and attribute.  While
`installed` is active, every binding of that function object in a loaded
covmap module (including names imported with `from ... import`) is
replaced by a wrapper that records a span: name, start, end, parent span
and run id.  Spans stay in memory; `Tracer.dump` writes them out.  Every
replaced attribute is restored when the context exits, also on error.

Counters attached to a probe are taken only at the outermost span of its
group, so a loader that calls another loader counts its file once.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _count_links(args, kwargs, result) -> dict[str, int]:
    return {"propagation.links": int(np.size(result))}


def _count_rss_bytes(args, kwargs, result) -> dict[str, int]:
    return {"propagation.rss_bytes": int(result.rss_dbm.size) * 8}


def _count_voronoi_pixels(args, kwargs, result) -> dict[str, int]:
    return {"geo.voronoi_pixels": int(result.labels.size)}


def _count_live_links(args, kwargs, result) -> dict[str, int]:
    live = _arg(args, kwargs, 1, "live_chunk")
    return {
        "mapping.live_links": int(np.count_nonzero(live)),
        "mapping.offered_links": int(np.size(live)),
    }


def _count_bytes_read(args, kwargs, result) -> dict[str, int]:
    return {"io.bytes_read": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _count_bytes_written(args, kwargs, result) -> dict[str, int]:
    out = _arg(args, kwargs, 0, "out_dir")
    names = list(result["files"]) + ["manifest.json"]
    return {"io.bytes_written": sum(os.path.getsize(os.path.join(out, n)) for n in names)}


@dataclass(frozen=True)
class Probe:
    """One wrapped function: `covmap.<module>.<attr>`, timed under `group`."""

    module: str
    attr: str  # "func" or "Class.method"
    group: str
    count: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _probes(module: str, attrs, count=None, group=None) -> list[Probe]:
    """Probes on `attrs` of one module, each its own group unless `group`."""
    return [Probe(module, a, group or f"{module}.{a}", count) for a in attrs]


PROBES: tuple[Probe, ...] = tuple(
    [
        Probe("propagation", "extended_hata_db", "propagation.hata", _count_links),
        Probe("propagation", "rss_field", "propagation.rss_field", _count_rss_bytes),
        Probe("geo", "voronoi_assign", "geo.voronoi_assign", _count_voronoi_pixels),
        Probe("geo", "StatAreaSet.labels", "geo.area_labels"),
        Probe("geo", "extract_settlements", "geo.extract_settlements"),
    ]
    + _probes("simulation", (
        "run_study", "simulate_round", "build_world", "gen_population", "assign_poverty",
        "place_bts", "nearest_site_env", "true_coverage", "best_server_grid",
        "settlement_pixel_weights", "compute_tally",
    ))
    + _probes("simulation", (
        "geographic_overlap", "area_membership_overlap", "settlement_overlap",
    ), group="simulation.overlaps")
    + [
        Probe("mapping", "bsa_select_chunk", "mapping.bsa_select", _count_live_links),
        Probe("mapping", "idw_rows_chunk", "mapping.idw_rows", _count_live_links),
        Probe("mapping", "synthesize_naive_specs", "mapping.naive_specs"),
    ]
    + _probes("mapping", (
        "area_weights_from_pixels", "weights_voronoi", "weights_aug_voronoi", "weights_p2p",
        "weights_bsa", "weights_idw", "aggregate", "classify_areas_by_bts_density",
    ))
    + _probes("io", (
        "load_config", "load_raster", "load_ascii_grid", "load_bts_csv", "load_areas_geojson",
        "load_covariates_csv", "load_weights_csv", "load_metrics_csv",
    ), count=_count_bytes_read, group="io.load")
    + [
        Probe("io", "save_outputs", "io.save_outputs", _count_bytes_written),
        Probe("svgplot", "boxplot_svg", "svgplot.boxplot"),
    ]
    + _probes("cli", (
        "cmd_simulate", "cmd_coverage", "cmd_weights", "cmd_aggregate", "cmd_report",
    ), group="cli.cmd")
)

# span record fields
NAME, GROUP, START, END, PARENT, RUN, OUTER = range(7)


class Tracer:
    """Collects spans and counters in memory for one or more traced runs."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._open: dict[str, int] = {}

    def call(self, probe: Probe, fn, args, kwargs):
        group = probe.group
        outer = self._open.get(group, 0) == 0
        parent = self._stack[-1] if self._stack else -1
        span = [probe.name, group, 0, 0, parent, self.run_id, outer]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._open[group] = self._open.get(group, 0) + 1
        span[START] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter_ns()
            self._stack.pop()
            self._open[group] -= 1
        if outer and probe.count is not None:
            for key, value in probe.count(args, kwargs, result).items():
                self.counts[key] = self.counts.get(key, 0) + value
        return result

    # --- summaries ----------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the time its direct children cover.

        Spans nest strictly (one thread), so children never overlap.
        """
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def group_seconds(self, group: str) -> float:
        """Wall time inside the group's outermost spans."""
        return sum(s[END] - s[START] for s in self.spans if s[GROUP] == group and s[OUTER]) / 1e9

    def group_self_seconds(self, group: str) -> float:
        own = self.self_ns()
        return sum(own[i] for i, s in enumerate(self.spans) if s[GROUP] == group) / 1e9

    def durations(self, name: str) -> list[float]:
        return [(s[END] - s[START]) / 1e9 for s in self.spans if s[NAME] == name]

    def functions(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds for every wrapped function.

        No wrapped covmap function calls itself, so totals do not overlap.
        """
        own = self.self_ns()
        table: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            row = table.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (s[END] - s[START]) / 1e9
            row["self_s"] += own[i] / 1e9
        return dict(sorted(table.items()))

    def dump(self, path) -> None:
        """Write spans as JSON lines (times in ns from the first span)."""
        t0 = self.spans[0][START] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start_ns": s[START] - t0,
                    "end_ns": s[END] - t0, "parent": s[PARENT], "run": s[RUN],
                }) + "\n")


def _wrapper(tracer: Tracer, probe: Probe, fn):
    def traced(*args, **kwargs):
        return tracer.call(probe, fn, args, kwargs)

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", probe.attr)
    traced.__doc__ = fn.__doc__
    return traced


def _bindings(probe: Probe):
    """(owner, attribute, original) for every place the probed function is bound."""
    module = importlib.import_module(f"covmap.{probe.module}")
    if "." in probe.attr:
        cls_name, meth = probe.attr.split(".")
        cls = getattr(module, cls_name)
        return [(cls, meth, cls.__dict__[meth])]
    original = getattr(module, probe.attr)
    owners = [
        mod for name, mod in sorted(sys.modules.items())
        if (name == "covmap" or name.startswith("covmap.")) and mod is not None
        and mod.__dict__.get(probe.attr) is original
    ]
    return [(mod, probe.attr, original) for mod in owners]


@contextlib.contextmanager
def installed(tracer: Tracer, probes=PROBES):
    """Wrap every probe for the duration of the block, then restore."""
    importlib.import_module("covmap.cli")  # load every module that may hold a binding
    patched: list[tuple[object, str, object]] = []
    try:
        for probe in probes:
            bindings = _bindings(probe)
            wrapper = _wrapper(tracer, probe, bindings[0][2])
            for owner, attr, original in bindings:
                patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
