"""In-memory span tracer for the benchmark's traced runs.

A span is ``[name, start, end, parent, info]`` on the ``perf_counter`` clock
(``CLOCK_MONOTONIC`` on Linux, so spans of the service's child process line
up with the client's timestamps).  Spans live in one list and are written
out only when the process ends.  A span's *self time* is its duration minus
the part of it that its child spans cover.

:func:`install` wraps each layer's public function at every name a caller
resolves it through: kernels are imported by name into the batch engines,
the engine adapters import ``optimize_network`` / ``simulate_systems`` /
... lazily from their modules, and the runner imports ``run_cases`` by name.
Wrapping every ``repro.*`` module attribute that *is* the original function
covers all three cases.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

#: (span name, module, attribute) of each wrapped module-level function.
FUNCTIONS = (
    ("spec.compile", "repro.study.spec", "study_from_mapping"),
    ("runner.run_study", "repro.study.runner", "run_study"),
    ("engines.run_cases", "repro.study.engines", "run_cases"),
    ("kernels.soc_scan", "repro.solar.batch", "soc_scan"),
    ("kernels.occupancy_scan", "repro.simulation.batch", "occupancy_scan"),
    ("kernels.ar1_min_scan", "repro.optimize.mc", "ar1_min_scan"),
    ("solar.simulate_systems", "repro.solar.batch", "simulate_systems"),
    ("simulation.simulate_days", "repro.simulation.batch", "simulate_days"),
    ("mc.outage_matrix", "repro.optimize.mc", "outage_matrix"),
    ("network.build_graph", "repro.network.presets", "build_graph"),
    ("network.segment_frontiers", "repro.network.frontier",
     "segment_frontiers"),
    ("network.optimize_network", "repro.network.optimize",
     "optimize_network"),
    ("results.build_table", "repro.study.results", "build_table"),
    ("distributed.run_shard_slice", "repro.study.distributed",
     "run_shard_slice"),
    ("manifest.build_manifest", "repro.study.manifest", "build_manifest"),
    ("distributed.merge_manifests", "repro.study.distributed",
     "merge_manifests"),
)

#: (span name, module, class, method) of each wrapped method.
METHODS = (
    ("store.put_shard", "repro.study.results", "StudyStore", "put_shard"),
    ("store.get_shard", "repro.study.results", "StudyStore", "get_shard"),
    ("store.shard_checksum", "repro.study.results", "StudyStore",
     "shard_checksum"),
    ("journal.emit", "repro.study.journal", "RunJournal", "emit"),
)

#: Modules imported before wrapping, so that every by-name import of a
#: wrapped function already exists when :func:`install` rewrites it.
PRELOAD = ("repro.study", "repro.service", "repro.cli")


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _info_run_cases(args, kwargs):
    return {"engine": _arg(args, kwargs, 0, "engine"),
            "cases": len(_arg(args, kwargs, 1, "cases"))}


def _info_soc_scan(args, kwargs):
    return {"lanes": int(_arg(args, kwargs, 3, "capacity_wh").shape[0])}


def _info_emit(args, kwargs):
    return {"written": args[0].path is not None}


#: Call details recorded on top of the timing, keyed by span name.
INFO = {
    "engines.run_cases": _info_run_cases,
    "kernels.soc_scan": _info_soc_scan,
    "journal.emit": _info_emit,
}


class Tracer:
    """Collects spans in memory; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        """Context manager recording one span (the benchmark's op span)."""
        return _Span(self, name)

    def open(self, name: str, info=None) -> int:
        stack = self._stack()
        record = [name, time.perf_counter(), None, stack[-1] if stack else -1,
                  info]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def close(self, index: int, error: str | None = None) -> None:
        record = self.spans[index]
        record[2] = time.perf_counter()
        if error is not None:
            record[4] = dict(record[4] or {}, error=error)
        self._stack().pop()

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that every call records a ``name`` span."""
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, info(args, kwargs) if info else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(index, type(exc).__name__)
                raise
            self.close(index)
            return result

        return traced


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> int:
        self.index = self.tracer.open(self.name)
        return self.index

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer.close(self.index,
                          None if exc_type is None else exc_type.__name__)


def install(tracer: Tracer) -> None:
    """Wrap every layer function and method listed above with ``tracer``."""
    for module in PRELOAD:
        importlib.import_module(module)
    for name, module, attribute in FUNCTIONS:
        original = getattr(importlib.import_module(module), attribute)
        wrapped = tracer.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    for name, module, cls_name, method in METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        setattr(cls, method, tracer.wrap(name, getattr(cls, method)))


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current is None or start > current[1]:
            if current is not None:
                total += current[1] - current[0]
            current = [start, end]
        else:
            current[1] = max(current[1], end)
    if current is not None:
        total += current[1] - current[0]
    return total


def self_times(spans: list[list]) -> list[float]:
    """Self time [s] of every span: duration minus what children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        child_intervals = [(max(spans[c][1], start), min(spans[c][2], end))
                           for c in children.get(index, ())]
        out.append((end - start) - covered(child_intervals))
    return out


def layer_totals(spans: list[list], keep=None) -> dict:
    """Per span name: calls, self/inclusive seconds and recorded counts.

    Args:
        spans: Closed spans (``end`` set), indices as recorded.
        keep: Optional predicate ``keep(index, span)``; other spans are
            left out of the totals (their time still counts as covered by
            their parents).

    Returns:
        ``{name: {"calls", "self_s", "incl_s", "errors", "cases",
        "network_cases", "lanes", "written", "under_merge_s",
        "under_runner"}}``: calls made under a ``run_study`` span count in
        ``under_runner``, and the inclusive time of calls under a
        ``merge_manifests`` span (its CRN recomputation) in
        ``under_merge_s``.
    """
    selfs = self_times(spans)
    totals: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for index, span in enumerate(spans):
        if keep is not None and not keep(index, span):
            continue
        name, start, end, parent, info = span
        entry = totals[name]
        entry["calls"] += 1
        entry["self_s"] += selfs[index]
        entry["incl_s"] += end - start
        info = info or {}
        if "error" in info:
            entry["errors"] += 1
        entry["cases"] += info.get("cases", 0)
        if info.get("engine") == "network":
            entry["network_cases"] += info["cases"]
        entry["lanes"] += info.get("lanes", 0)
        entry["written"] += bool(info.get("written"))
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] not in (
                "distributed.merge_manifests", "runner.run_study"):
            ancestor = spans[ancestor][3]
        if ancestor >= 0 and spans[ancestor][0] == "runner.run_study":
            entry["under_runner"] += 1
        if ancestor >= 0 and spans[ancestor][0] == "distributed.merge_manifests":
            entry["under_merge_s"] += end - start
    return {name: dict(entry) for name, entry in totals.items()}


def dump(tracer: Tracer, path) -> None:
    """Write every span as JSON (one list) to ``path``.

    A span still open at exit is closed at its start (zero duration), so
    parent indices stay valid.
    """
    spans = [span if span[2] is not None else span[:2] + [span[1]] + span[3:]
             for span in tracer.spans]
    with open(path, "w") as handle:
        json.dump(spans, handle)
