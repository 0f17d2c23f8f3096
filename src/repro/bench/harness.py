"""Shared benchmark infrastructure: run frameworks over models, format
tables, and compare simulated numbers against the paper's published ones.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

from ..baselines import make_framework
from ..baselines.base import FrameworkResult
# Per-pass compile-time accounting flows from the pass manager into the
# --timings trajectory (BENCH_pipeline.json) through these re-exports.
from ..core.passes import clear_pass_timings, pass_timing_stats  # noqa: F401
from ..ir.dtype import DType
from ..ir.graph import Graph
from ..ir.tensor import TensorSpec
from ..models import build
from ..runtime.cost_model import CostReport
from ..runtime.device import DeviceSpec, SD8GEN2
from ..runtime.executor import make_params
from ..runtime.program import fill_once
from ..runtime.session import stable_model_key


class Cell:
    """One (model, framework) measurement.

    The cost-model report is computed lazily on first access: operator
    count tables (Table 7) never pay for costing, while latency tables
    compute each report exactly once and share it through the cell cache.
    So are the compiled graph's parameters: every session served from
    this cell shares one read-only materialization (:attr:`params`).
    """

    def __init__(self, result: FrameworkResult | None, device: DeviceSpec,
                 reason: str = "") -> None:
        self.result = result
        self.device = device
        self.reason = reason or (result.reason if result is not None else "")
        self._lazy: dict = {}  # "report", "params"; shared across threads

    @property
    def supported(self) -> bool:
        return self.result is not None and self.result.supported

    @property
    def operator_count(self) -> int:
        return self.result.operator_count if self.supported else 0

    @property
    def report(self) -> CostReport | None:
        if not self.supported:
            return None
        return fill_once(self._lazy, "report", self.result.cost, self.device)

    @property
    def params(self) -> dict:
        """Parameters and interior constants of the compiled graph
        (:func:`~repro.runtime.executor.make_params` is a pure function
        of the graph), drawn once per cell and shared read-only by every
        session served from it."""
        return fill_once(self._lazy, "params", make_params, self.result.graph)

    @property
    def latency_ms(self) -> float | None:
        return self.report.latency_ms if self.supported else None


@lru_cache(maxsize=64)
def _build_model(name: str, batch: int) -> Graph:
    return build(name, batch=batch)


def cached_model(name: str, batch: int = 1) -> Graph:
    # Normalize the default batch so positional and defaulted calls share
    # one cache entry (lru_cache keys on the raw call signature).
    return _build_model(name, batch)


# ---------------------------------------------------------------------------
# compile/cost cache: every (model, framework, device, stages) cell is
# costed exactly once per process, however many tables and figures ask
# for it.  Cells are immutable from the benchmarks' point of view.
# ---------------------------------------------------------------------------

_CELL_CACHE: dict = {}
_CELL_STATS = {"hits": 0, "misses": 0, "evictions": 0}
_CORE_CACHE: dict = {}
"""Device-independent compile results, keyed on (model, framework,
stages/kwargs, device.has_texture): figs 10/11 re-cost the same compiled
module on several devices, so the graph rewrite runs once."""

GRAPH_CACHE_CAPACITY = 64
"""Distinct graph fingerprints the two caches keep.  Registry names stay
unbounded (the bench tables need every cell); graph-keyed entries are
user content, so the least recently used fingerprint is evicted - with
every cell and core compiled from it - past this many."""
_GRAPH_LRU: OrderedDict = OrderedDict()
"""fingerprint -> [(cache, key), ...] of the entries compiled from it,
least recently used first."""
_CACHE_LOCK = threading.Lock()
"""Guards the LRU index, the counters, and eviction and clearing of the
two caches; held only to read or write them, never across a compile."""


def _cell_key(model, framework, device, check_memory, batch, fw_kwargs):
    """Hashable cache key, or None when the cell is uncacheable.

    The model slot is :func:`~repro.runtime.session.stable_model_key`,
    so graphs are content-addressed: a structurally identical rebuilt
    graph hits, a mutated one (new generation, new fingerprint) misses,
    and no entry has to keep the source graph alive.
    """
    key = (stable_model_key(model), framework, device, check_memory, batch,
           tuple(sorted(fw_kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return None
    return key


def _fill(cache: dict, key, build, *args):
    """``cache[key]`` through :func:`~repro.runtime.program.fill_once`
    (one compile per key, however many threads miss it at once), then
    counted and indexed: a build is a miss, anything else a hit, and a
    graph key refreshes its fingerprint's recency, evicting the least
    recently used fingerprint past capacity."""
    built = []

    def compile_():
        built.append(True)
        return build(*args)

    found = fill_once(cache, key, compile_)
    kind, ident = key[0]
    with _CACHE_LOCK:
        if cache is _CELL_CACHE:
            _CELL_STATS["misses" if built else "hits"] += 1
        if kind != "graph":
            return found
        if built:
            _GRAPH_LRU.setdefault(ident, []).append((cache, key))
        elif ident not in _GRAPH_LRU:  # evicted, or not indexed yet
            return found
        _GRAPH_LRU.move_to_end(ident)
        while len(_GRAPH_LRU) > GRAPH_CACHE_CAPACITY:
            _, owned = _GRAPH_LRU.popitem(last=False)
            for owner, owned_key in owned:
                owner.pop(owned_key, None)
            _CELL_STATS["evictions"] += 1
    return found


def cell_cache_stats() -> dict[str, int]:
    """Process-wide compile/cost cache counters (copies):
    ``hits``/``misses`` of :func:`run_cell`, graph fingerprints evicted
    (``evictions``) and currently cached (``graph_entries``)."""
    with _CACHE_LOCK:
        return {**_CELL_STATS, "graph_entries": len(_GRAPH_LRU)}


def clear_cell_cache() -> None:
    """Drop every cell and core - and with them the lowered programs,
    their ``backend_cache`` and the shared parameters they own."""
    with _CACHE_LOCK:
        _CELL_CACHE.clear()
        _CORE_CACHE.clear()
        _GRAPH_LRU.clear()
        for name in _CELL_STATS:
            _CELL_STATS[name] = 0


def run_cell(model: str | Graph, framework: str, device: DeviceSpec = SD8GEN2,
             check_memory: bool = False, batch: int = 1, **fw_kwargs) -> Cell:
    """Compile + cost one model under one framework on one device,
    once per cell key however many threads ask at once."""
    key = _cell_key(model, framework, device, check_memory, batch, fw_kwargs)
    if key is None:
        return _compile_cell(model, framework, device, check_memory, batch,
                             None, fw_kwargs)
    return _fill(_CELL_CACHE, key, _compile_cell, model, framework, device,
                 check_memory, batch, key, fw_kwargs)


def _compile_cell(model, framework, device, check_memory, batch, key,
                  fw_kwargs) -> Cell:
    graph = cached_model(model, batch) if isinstance(model, str) else model
    fw = make_framework(framework, **fw_kwargs)
    if key is None:
        core = fw.compile_core(graph, device)
    else:
        model_key, _, _, _, batch_key, kwargs_key = key
        core = _fill(_CORE_CACHE, (model_key, framework, batch_key,
                                   kwargs_key, device.has_texture),
                     fw.compile_core, graph, device)
    result = fw.compile(graph, device, check_memory=check_memory, core=core)
    return Cell(result, device)


def geomean(values: list[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def to_fp32(graph: Graph) -> Graph:
    """Copy of the graph with every tensor widened to FP32 (Table 9 runs
    desktop GPUs in 32-bit; Section 4.1)."""
    g = graph.clone()
    g.tensors = {
        name: TensorSpec(spec.name, spec.shape,
                         DType.FP32 if spec.dtype == DType.FP16 else spec.dtype,
                         spec.is_param)
        for name, spec in g.tensors.items()
    }
    return g


@lru_cache(maxsize=64)
def cached_fp32_model(name: str, batch: int = 1) -> Graph:
    """FP32-widened registry model (Table 9's desktop-GPU runs), interned
    so repeated experiments hit the graph-keyed cell cache."""
    return to_fp32(cached_model(name, batch))


# ---------------------------------------------------------------------------
# text tables
# ---------------------------------------------------------------------------


def format_table(headers: list[str], rows: list[list[str]],
                 title: str | None = None) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def fmt(value: float | None, digits: int = 1, dash: str = "-") -> str:
    if value is None:
        return dash
    if value >= 1000:
        return f"{value:,.0f}"
    return f"{value:.{digits}f}"


@dataclass
class Experiment:
    """A regenerated table or figure."""

    name: str
    description: str
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def render(self) -> str:
        out = format_table(self.headers, self.rows,
                           title=f"== {self.name}: {self.description} ==")
        if self.notes:
            out += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return out

    def to_json(self) -> dict:
        """Machine-readable form (for plotting / regression tracking)."""
        return {
            "name": self.name,
            "description": self.description,
            "headers": list(self.headers),
            "rows": [list(r) for r in self.rows],
            "notes": list(self.notes),
            "data": _jsonable(self.data),
        }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)
