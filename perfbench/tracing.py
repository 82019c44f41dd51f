"""Span tracing around the program's public seams, and the per-layer metrics.

Spans are recorded only from the benchmark's own code: the benchmark wraps
the functions that `multisubset.mst` and `multisubset.dag` look up in their
module namespaces, and passes a timing `RmmBackend` through `backend=`.
Spans are timed in CPU seconds of the process, as the end-to-end calls
are, and stay in memory; a layer's self time is its span's duration minus the
durations of its direct children (spans never overlap: the program is
single-threaded).

A seam that no longer exists is skipped.  The layer metrics that depend on
it are reported as unmeasured (None) instead of failing the run; the
end-to-end metrics never go through this module.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

from multisubset.rmm import RmmBackend

ROLES = ("rmm_algo", "scan_algo")
BYTES_PER_ELEMENT = 8

# Per-layer metric -> (unit, better, the end-to-end metric it should move).
# The benchmark reports each of them once per role (see ROLES).
LAYER_METRICS = {
    "rmm.kernel_s": ("s", "lower", "rmm_algo_cpu_s on mst-bulk and dag-rounds (columns); little on cover; none on naive"),
    "rmm.muls": ("count", "lower", "rmm_algo_cpu_s on mst-bulk and dag-rounds (columns); none on naive"),
    "rmm.muls_predicted": ("count", "lower", "closed form for rmm.muls"),
    "rmm.muls_per_s": ("1/s", "higher", "rmm_algo_cpu_s on mst-bulk and dag-rounds (columns)"),
    "rmm.bytes_computed": ("B", "lower", "rmm_algo_cpu_s on mst-bulk and dag-rounds (columns)"),
    "rmm.products": ("count", "lower", "rmm_algo_cpu_s on mst-fine (cover)"),
    "rmm.mean_width": ("count", "higher", "rmm_algo_cpu_s on mst-fine (cover); columns per product, 1.0 means one-column products"),
    "mst.build_s": ("s", "lower", "rmm_algo_cpu_s on mst-fine (cover, ~28%) and mst-bulk (columns, ~5%)"),
    "mst.build_entries": ("count", "lower", "rmm_algo_cpu_s on mst-fine (cover) and mst-bulk (columns)"),
    "mst.scatter_adds": ("count", "lower", "scan_algo_cpu_s on mst-bulk and dag-rounds (rows-columns); both roles on mst-fine"),
    "mst.self_s": ("s", "lower", "scan_algo_cpu_s on mst-bulk and dag-rounds (rows-columns, ~80%); both roles on mst-fine"),
    "mst.pair_iterations": ("count", "lower", "same as mst.self_s"),
    "mst.pair_iterations_predicted": ("count", "lower", "closed form for mst.pair_iterations"),
    "cover.design_s": ("s", "lower", "rmm_algo_cpu_s on mst-fine (cover); below 0.1% of it today"),
    "cover.design_calls": ("count", "lower", "rmm_algo_cpu_s on mst-fine (cover)"),
    "cover.cache_hit_ratio": ("ratio", "higher", "rmm_algo_cpu_s on mst-fine (cover)"),
    "dag.rounds": ("count", "lower", "both roles on dag-rounds only"),
    "dag.round_s": ("s", "lower", "both roles on dag-rounds only"),
    "dag.self_s": ("s", "lower", "both roles on dag-rounds only"),
    "dag.targets_read_ratio": ("ratio", "higher", "both roles on dag-rounds only"),
    "setfn.zeta_s": ("s", "lower", "nothing: about 1% of dag-rounds, the control"),
    "ring.muls": ("count", "lower", "every end-to-end *_s metric; exact, from an untimed CountingRing run"),
    "ring.adds": ("count", "lower", "every end-to-end *_s metric; exact, from an untimed CountingRing run"),
    "trace.overhead_ratio": ("ratio", "lower", "none: median traced call over median untraced call"),
}


def per_layer_names() -> list[str]:
    return [f"{role}.{name}" for role in ROLES for name in LAYER_METRICS]


class Tracer:
    """In-memory spans: name, start, end, parent index and call id."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.call_ids: list[int] = []
        self.counts: Counter = Counter()
        self.call_id = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.call_ids.append(self.call_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if on_result is not None:
                result = on_result(result)
            return result

        return traced

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def self_times(self) -> list[float]:
        own = [self.duration(i) for i in range(len(self.names))]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.duration(i)
        return own

    def total(self, name: str) -> float:
        return sum(self.duration(i) for i, n in enumerate(self.names) if n == name)

    def self_total(self, name: str) -> float:
        own = self.self_times()
        return sum(own[i] for i, n in enumerate(self.names) if n == name)

    def count(self, name: str) -> int:
        return sum(1 for n in self.names if n == name)


class TimingBackend(RmmBackend):
    """Delegating backend that records a span and the shape of each product."""

    id = "timing"

    def __init__(self, inner: RmmBackend, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def multiply(self, ring, a, b, stats=None):
        r1, c, r2 = len(a.rows), len(a.cols), len(b.rows)
        counts = self.tracer.counts
        counts["rmm.products"] += 1
        counts["rmm.width"] += c
        counts["rmm.muls"] += r1 * c * r2
        counts["rmm.elements"] += r1 * c + c * r2 + r1 * r2
        counts["mst.scatter_adds"] += r1 * r2
        idx = self.tracer.begin("rmm.multiply")
        try:
            return self.inner.multiply(ring, a, b, stats)
        finally:
            self.tracer.end(idx)


class _ReadCountingList(list):
    """Transform output that counts the entries its consumer indexes."""

    def __init__(self, values, counts: Counter):
        super().__init__(values)
        self._counts = counts
        counts["dag.values_computed"] += len(self)

    def __getitem__(self, key):
        self._counts["dag.values_read"] += 1
        return super().__getitem__(key)


# (module, attribute, span name) for every function seam the tracer wraps.
SEAMS = (
    ("multisubset.mst", "build_submatrix", "mst.build_submatrix"),
    ("multisubset.mst", "greedy_cover", "cover.greedy_cover"),
    ("multisubset.dag", "zeta_transform", "setfn.zeta_transform"),
    ("multisubset.dag", "run_transform", "mst.run_transform"),
)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every seam that exists; yield the span names of the missing ones."""
    patched = []
    missing = set()
    counts = tracer.counts

    def count_entries(sub):
        rows, cols = getattr(sub, "rows", None), getattr(sub, "cols", None)
        if rows is not None and cols is not None:
            counts["mst.build_entries"] += len(rows) * len(cols)
        return sub

    def count_reads(result):
        values = getattr(result, "values", None)
        if isinstance(values, list):
            result.values = _ReadCountingList(values, counts)
        return result

    hooks = {"mst.build_submatrix": count_entries, "mst.run_transform": count_reads}
    try:
        for module_name, attr, span in SEAMS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.add(span)
                continue
            setattr(module, attr, tracer.wrap(span, original, hooks.get(span)))
            patched.append((module, attr, original))
        yield missing
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def cache_stats():
    """(hits, misses) of the covering-design cache, or None without one."""
    fn = getattr(importlib.import_module("multisubset.mst"), "greedy_cover", None)
    info = getattr(fn, "cache_info", None)
    if info is None:
        return None
    snapshot = info()
    return snapshot.hits, snapshot.misses


def layer_metrics(tracer: Tracer, calls: int, missing: set, has_backend: bool,
                  cache_delta, is_dag: bool) -> dict:
    """Per-call layer metrics of one role from its traced calls.

    `missing` holds the span names of absent seams, `has_backend` says
    whether the call accepted the timing backend, and `cache_delta` is the
    (hits, misses) change of the covering-design cache or None.
    """
    c = tracer.counts
    per = 1.0 / calls
    out: dict = {}

    def ratio(num, den):
        return num / den if den else 0.0

    if has_backend:
        kernel_s = tracer.total("rmm.multiply") * per
        muls = c["rmm.muls"] * per
        out.update({
            "rmm.kernel_s": kernel_s,
            "rmm.muls": muls,
            "rmm.muls_per_s": ratio(muls, kernel_s),
            "rmm.bytes_computed": c["rmm.elements"] * BYTES_PER_ELEMENT * per,
            "rmm.products": c["rmm.products"] * per,
            "rmm.mean_width": ratio(c["rmm.width"], c["rmm.products"]),
            "mst.scatter_adds": c["mst.scatter_adds"] * per,
        })
    if "mst.build_submatrix" not in missing:
        out["mst.build_s"] = tracer.total("mst.build_submatrix") * per
        out["mst.build_entries"] = c["mst.build_entries"] * per
    transform_spans = not (is_dag and "mst.run_transform" in missing)
    children_seen = has_backend and not {"mst.build_submatrix", "cover.greedy_cover"} & missing
    if transform_spans and children_seen:
        out["mst.self_s"] = tracer.self_total("mst.run_transform") * per
    if "cover.greedy_cover" not in missing:
        out["cover.design_s"] = tracer.total("cover.greedy_cover") * per
        out["cover.design_calls"] = tracer.count("cover.greedy_cover") * per
        if cache_delta is not None:
            out["cover.cache_hit_ratio"] = ratio(cache_delta[0], sum(cache_delta))
    if not is_dag:
        out.update({"dag.rounds": 0, "dag.round_s": 0.0, "dag.self_s": 0.0,
                    "dag.targets_read_ratio": 0.0})
    elif "mst.run_transform" not in missing:
        rounds = tracer.count("mst.run_transform")
        out["dag.rounds"] = rounds * per
        out["dag.round_s"] = ratio(tracer.total("mst.run_transform"), rounds)
        if "setfn.zeta_transform" not in missing:
            out["dag.self_s"] = tracer.self_total("dag.sum_acyclic_digraphs") * per
        out["dag.targets_read_ratio"] = ratio(c["dag.values_read"], c["dag.values_computed"])
    if "setfn.zeta_transform" not in missing:
        out["setfn.zeta_s"] = tracer.total("setfn.zeta_transform") * per
    return out
