"""Layer spans recorded from outside the library.

`LayerTracer.install()` wraps every public function of each layer
module (the names in its ``__all__`` that the module itself defines),
plus ``FiniteGroup`` construction and ``ResultCache.get``/``put``, and
rebinds each wrapper under every name that any loaded ``isom4`` module
holds for the original.  `uninstall()` puts the originals back and
raises if any wrapper is still reachable.

A span opens only when a call crosses from one layer into another (or
from the benchmark into a layer); a call into the layer that is already
running is only counted.  A span's self time is its duration minus the
time covered by the spans it opened.  Spans stay in memory until the
run ends and are written out by the caller.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "isom4"
LAYERS = ("verify", "cache", "claims", "cohomology", "snf", "groups",
          "sphere", "embeddings", "fixedpoints")

_MARK = "__perfbench_wrapped__"

# per-function metrics, "<layer>.<function>.<self_s|calls>"
FUNCTION_METRICS = (
    "snf.kernel_mod_prime_power.self_s", "snf.kernel_mod_p.self_s",
    "snf.module_presentation_local.self_s", "snf.solve_mod_prime_power.self_s",
    "cohomology.second_cohomology.self_s", "cohomology.cocycle_representatives.self_s",
    "cohomology.build_central_extension.self_s",
    "cohomology.classify_central_extensions.self_s",
    "cohomology.verify_extension_isomorphism.self_s",
    "groups.construct.calls", "groups.construct.self_s",
    "groups.find_isomorphism.calls", "groups.find_isomorphism.self_s",
    "sphere.extent_lower_bound.self_s", "sphere.scan_extent_threshold.self_s",
    "sphere.extent_upper_bound.calls",
    "embeddings.embed_into_so5.self_s", "embeddings.is_faithful_rep.self_s",
    "fixedpoints.batch_lefschetz_s4.self_s", "fixedpoints.batch_lefschetz_cp2.self_s",
    "cache.get.calls", "cache.put.calls",
)


@dataclass
class Span:
    layer: str
    fn: str
    parent: int  # index of the parent span, -1 at the root
    start: float
    end: float = 0.0
    child_s: float = 0.0
    raised: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child_s


@dataclass
class FnStats:
    calls: int = 0
    cells_in: int = 0
    max_cells_in: int = 0
    max_order: int = 0


def _shape_attrs(args) -> dict:
    """Input shape or group order of the first argument, when it has one."""
    if not args:
        return {}
    first = args[0]
    shape = getattr(first, "shape", None)
    if isinstance(shape, tuple):
        return {"shape": list(shape)}
    table = getattr(first, "table", None)
    if table is not None and hasattr(table, "shape"):
        return {"order": int(table.shape[0])}
    n = getattr(first, "n", None)  # LensParams: the deck order
    if isinstance(n, int):
        return {"n": n}
    return {}


class LayerTracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stats: dict[str, FnStats] = {}
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []  # (owner, attr, original)
        self.cache_hits = 0
        self.cache_bytes = 0

    # ------------------------------------------------------------ wrapping

    def _wrap(self, layer: str, name: str, fn, *, kind: str = "call"):
        key = f"{layer}.{name}"
        stats = self.stats.setdefault(key, FnStats())
        spans, stack = self.spans, self._stack
        is_snf = layer == "snf"

        def wrapper(*args, **kwargs):
            stats.calls += 1
            if stack and spans[stack[-1]].layer == layer:
                result = fn(*args, **kwargs)
                if kind == "construct":
                    stats.max_order = max(stats.max_order, int(args[0].table.shape[0]))
                return result
            attrs = _shape_attrs(args if kind == "call" else args[1:])
            if is_snf and "shape" in attrs and len(attrs["shape"]) == 2:
                cells = attrs["shape"][0] * attrs["shape"][1]
                stats.cells_in += cells
                stats.max_cells_in = max(stats.max_cells_in, cells)
            span = Span(layer, name, stack[-1] if stack else -1,
                        time.perf_counter(), attrs=attrs)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if kind == "construct":
                    order = int(args[0].table.shape[0])
                    span.attrs["order"] = order
                    stats.max_order = max(stats.max_order, order)
                return result
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _cache_wrappers(self, cache_cls):
        tracer = self
        get_inner, put_inner = cache_cls.get, cache_cls.put

        def get(cache, key):
            payload = get_inner(cache, key)
            if payload is not None:
                tracer.cache_hits += 1
                tracer.cache_bytes += _file_size(cache, key)
            return payload

        def put(cache, key, payload):
            put_inner(cache, key, payload)
            tracer.cache_bytes += _file_size(cache, key)

        return (self._wrap("cache", "get", get, kind="method"),
                self._wrap("cache", "put", put, kind="method"))

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        originals: dict[int, object] = {}
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name, None)
                if (not callable(obj) or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                originals[id(obj)] = obj
                wrappers[id(obj)] = self._wrap(layer, name, obj)
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and originals[id(value)] is value:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrapper)

        groups = importlib.import_module(f"{PACKAGE}.groups")
        group_cls = groups.FiniteGroup
        init = group_cls.__init__
        self._bindings.append((group_cls, "__init__", init))
        group_cls.__init__ = self._wrap("groups", "construct", init, kind="construct")

        cache_cls = importlib.import_module(f"{PACKAGE}.cache").ResultCache
        get_w, put_w = self._cache_wrappers(cache_cls)
        self._bindings.append((cache_cls, "get", cache_cls.get))
        self._bindings.append((cache_cls, "put", cache_cls.put))
        cache_cls.get = get_w
        cache_cls.put = put_w

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()
        left = self.leftover_wrappers()
        if left:
            raise RuntimeError(f"wrappers still bound after the run: {left}")

    def leftover_wrappers(self) -> list[str]:
        left = []
        groups = sys.modules.get(f"{PACKAGE}.groups")
        cache = sys.modules.get(f"{PACKAGE}.cache")
        owners = list(self._modules())
        if groups is not None:
            owners.append(groups.FiniteGroup)
        if cache is not None:
            owners.append(cache.ResultCache)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if getattr(value, _MARK, False):
                    left.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return left

    # ------------------------------------------------------------- summary

    def metrics(self, run_s: float) -> dict[str, float]:
        """Per-layer counts and self times of one traced run."""
        out: dict[str, float] = {}
        self_by_fn: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.raised"] = 0
        for key, stats in self.stats.items():
            out[f"{key.split('.', 1)[0]}.calls"] += stats.calls
        covered = 0.0
        for span in self.spans:
            out[f"{span.layer}.self_s"] += span.self_s
            out[f"{span.layer}.raised"] += int(span.raised)
            key = f"{span.layer}.{span.fn}"
            self_by_fn[key] = self_by_fn.get(key, 0.0) + span.self_s
            if span.parent < 0:
                covered += span.end - span.start

        for name in FUNCTION_METRICS:
            key, kind = name.rsplit(".", 1)
            stats = self.stats.get(key)
            out[name] = self_by_fn.get(key, 0.0) if kind == "self_s" else (
                stats.calls if stats else 0)
        snf_stats = [s for k, s in self.stats.items() if k.startswith("snf.")]
        out["snf.cells_in"] = sum(s.cells_in for s in snf_stats)
        out["snf.max_cells_in"] = max((s.max_cells_in for s in snf_stats), default=0)
        construct = self.stats.get("groups.construct")
        spans_order = max((s.attrs.get("order", 0) for s in self.spans
                           if s.layer == "groups"), default=0)
        out["groups.max_order"] = max(spans_order,
                                      construct.max_order if construct else 0)
        gets = out["cache.get.calls"]
        out["cache.hit_ratio"] = self.cache_hits / gets if gets else 0.0
        out["cache.bytes"] = self.cache_bytes
        out["trace.run_s"] = run_s
        out["trace.outside_s"] = run_s - covered
        out["trace.spans"] = len(self.spans)
        return out

    def span_records(self):
        for i, s in enumerate(self.spans):
            yield {"i": i, "parent": s.parent, "layer": s.layer, "fn": s.fn,
                   "start": s.start, "end": s.end, "self_s": s.self_s,
                   "raised": s.raised, **s.attrs}


def _file_size(cache, key) -> int:
    try:
        return cache._path(key).stat().st_size
    except OSError:
        return 0
