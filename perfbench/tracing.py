"""Spans at the module boundaries of ``groupoids``, recorded from outside.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces each public
function named in ``LAYERS`` by a wrapper, wherever the function is looked
up: in its defining module and in every ``groupoids`` module (or the package
namespace) that imported it by name.  ``uninstall`` puts the originals back,
so untraced passes run the unmodified code.

A span keeps its name, start, end, parent span, operation id and raw work
counts in memory; ``write`` dumps them all when the run ends.  Self time is
a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from functools import wraps
from pathlib import Path
from typing import Callable, Optional


# ----- work counters: input sizes computed from the arguments -------------


def _load_counts(args, kwargs, result) -> dict:
    path = args[0] if args else kwargs["path"]
    if hasattr(result, "groupoid"):
        products = len(result.groupoid.mul)
    else:
        products = len(result.domain.mul) + len(result.codomain.mul)
    return {"bytes": os.path.getsize(path), "products": products}


def _dump_counts(args, kwargs, result) -> dict:
    return {"bytes": len(result)}  # the JSON text is ASCII


def _payload_counts(args, kwargs, result) -> dict:
    g = args[0]
    return {"pairs": len(g) ** 2, "products": len(g.mul)}


def composable_triples(g) -> int:
    """Triples (x, y, z) with x*y and y*z both composable: for each middle
    y, (arrows ending at alpha(y)) times (arrows starting at beta(y))."""
    ending: dict[int, int] = {}
    starting: dict[int, int] = {}
    for x in range(len(g)):
        ending[g.beta[x]] = ending.get(g.beta[x], 0) + 1
        starting[g.alpha[x]] = starting.get(g.alpha[x], 0) + 1
    return sum(ending.get(g.alpha[y], 0) * starting.get(g.beta[y], 0) for y in range(len(g)))


def _validate_counts(args, kwargs, result) -> dict:
    g = args[0]
    return {"products": len(g.mul), "triples": composable_triples(g)}


def _iso_counts(args, kwargs, result) -> dict:
    return {"elements": len(args[0])}


def _build_counts(args, kwargs, result) -> dict:
    return {"products": len(result.mul)}


def _structured_counts(args, kwargs, result) -> dict:
    return {"products": len(args[0].carrier.mul)}


def _enumerate_counts(args, kwargs, result) -> dict:
    return {"masks": 2 ** len(args[0]), "found": len(result)}


def _strong_counts(args, kwargs, result) -> dict:
    return {"pairs": len(args[0].domain) ** 2}


@dataclass(frozen=True)
class Layer:
    """One span name and the public functions it wraps.

    Counts named in ``net`` are reported net of the same-layer children
    (a morphism load that reads its domain from a path counts only the
    products it parsed inline), so per-pass sums count every input once.
    """

    span: str
    module: str
    functions: tuple[str, ...]
    count: Optional[Callable] = None
    net: tuple[str, ...] = ()

    @property
    def time_metric(self) -> str:
        # cli.main wraps everything else, so its own time is named as such
        return "cli.self_s" if self.span == "cli" else f"{self.span}_s"


LAYERS = (
    Layer("cli", "groupoids.cli", ("main",)),
    Layer("io.load", "groupoids.io", ("load_groupoid", "load_morphism"), _load_counts,
          net=("products",)),
    Layer("io.dump", "groupoids.io", ("canonical_dumps",), _dump_counts),
    Layer("io.payload_check", "groupoids.io", ("check_quasiperm_payloads",), _payload_counts),
    Layer("core.validate", "groupoids.core", ("validate",), _validate_counts),
    Layer("core.is_isomorphic", "groupoids.core", ("is_isomorphic",), _iso_counts),
    Layer("quasiperm.build", "groupoids.quasiperm",
          ("symmetric_groupoid", "alternating_groupoid"), _build_counts),
    Layer("constructions.build", "groupoids.constructions", (
        "pair_groupoid", "pair_groupoid_over", "null_groupoid", "from_group", "cyclic_group",
        "klein_four_group", "group_table_of", "disjoint_union", "direct_product",
        "whitney_sum", "induced_groupoid", "left_translation_groupoid")),
    Layer("structured.build", "groupoids.structured", (
        "gf_vector_group", "pair_group_groupoid", "pair_vector_space_groupoid",
        "group_as_group_groupoid")),
    Layer("structured.validate", "groupoids.structured", (
        "validate_group_groupoid", "validate_vector_space_groupoid",
        "validate_group_groupoid_as_morphisms",
        "validate_vector_space_groupoid_via_morphisms",
        "validate_group_groupoid_morphism"), _structured_counts, net=("products",)),
    Layer("subgroupoids.enumerate", "groupoids.subgroupoids", ("enumerate_subgroupoids",),
          _enumerate_counts),
    Layer("morphisms.validate", "groupoids.morphisms", ("validate_morphism",)),
    Layer("morphisms.is_strong", "groupoids.morphisms", ("is_strong",), _strong_counts),
    Layer("morphisms.kernel", "groupoids.morphisms", ("kernel", "image", "preimage")),
    Layer("morphisms.correspondence", "groupoids.morphisms", ("correspondence_check",)),
)

# Spans the benchmark opens itself: one per operation (capturing output and
# checking the answer around the library call), and one around each
# counter computation so that it is not charged to the layer above.
OP_SPAN = "bench.op"
COUNT_SPAN = "trace.count"
QUASIPERM_BUILD = "quasiperm.build"

COUNTERS = (
    "io.load.bytes", "io.load.products", "io.dump.bytes",
    "io.payload_check.pairs", "io.payload_check.products",
    "core.validate.products", "core.validate.triples", "core.is_isomorphic.elements",
    "quasiperm.build.products", "structured.validate.products",
    "subgroupoids.enumerate.masks", "subgroupoids.enumerate.found",
    "morphisms.is_strong.pairs",
)


def per_layer_metric_names() -> list[str]:
    """Every metric a traced run reports, in a stable order."""
    names = []
    for span in [layer.span for layer in LAYERS] + [OP_SPAN, COUNT_SPAN]:
        layer = next((lay for lay in LAYERS if lay.span == span), None)
        names.append(layer.time_metric if layer else f"{span}_s")
        names += [f"{span}.calls", f"{span}.errors"]
    names += list(COUNTERS)
    names += ["subgroupoids.enumerate.yield", "quasiperm.build.bytes_per_product",
              "trace.accounted_frac", "trace.overhead_s"]
    return names


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    op: int
    start: float
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans for one run (single thread)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_names: dict[int, str] = {}
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.builds: list[tuple[Callable, tuple, dict]] = []

    # ----- recording --------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent.id if parent else None,
                    parent.op if parent else len(self.op_names), time.perf_counter())
        if parent is None:
            self.op_names[span.op] = name
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, error: bool = False) -> None:
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()

    def begin_op(self, op_name: str) -> Span:
        span = self.open(OP_SPAN)
        self.op_names[span.op] = op_name
        return span

    def nested(self, span: Span) -> bool:
        """True when the span's parent has the same name."""
        return span.parent is not None and self.spans[span.parent].name == span.name

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(layer.span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(span, error=True)
                raise
            tracer.close(span)
            if layer.count is not None:
                counting = tracer.open(COUNT_SPAN)
                span.counts = layer.count(args, kwargs, result)
                if layer.span == QUASIPERM_BUILD and not tracer.nested(span):
                    tracer.builds.append((fn, args, kwargs))
                tracer.close(counting)
            return result

        return traced

    # ----- patching ---------------------------------------------------

    def install(self) -> None:
        homes = {layer.module: importlib.import_module(layer.module) for layer in LAYERS}
        modules = [m for name, m in sys.modules.items()
                   if name == "groupoids" or name.startswith("groupoids.")]
        for layer in LAYERS:
            home = homes[layer.module]
            for fname in layer.functions:
                original = getattr(home, fname)
                wrapper = self.wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # ----- summaries --------------------------------------------------

    def pass_metrics(self, first: int, last: int, wall: float) -> dict[str, float]:
        """Per-layer totals over spans[first:last], one traced pass."""
        spans = self.spans[first:last]
        child_time: dict[int, float] = {}
        child_counts: dict[int, dict] = {}
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
            if self.nested(s):
                acc = child_counts.setdefault(s.parent, {})
                for k, v in s.counts.items():
                    acc[k] = acc.get(k, 0) + v
        net = {layer.span: layer.net for layer in LAYERS}
        out = {name: 0.0 for name in per_layer_metric_names()}
        time_metric = {layer.span: layer.time_metric for layer in LAYERS}
        accounted = 0.0
        for s in spans:
            self_time = (s.end - s.start) - child_time.get(s.id, 0.0)
            accounted += self_time
            out[time_metric.get(s.name, f"{s.name}_s")] += self_time
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.errors"] += s.error
            nested = child_counts.get(s.id, {})
            for k, v in s.counts.items():
                out[f"{s.name}.{k}"] += v - (nested.get(k, 0) if k in net.get(s.name, ()) else 0)
        masks = out["subgroupoids.enumerate.masks"]
        out["subgroupoids.enumerate.yield"] = (
            out["subgroupoids.enumerate.found"] / masks if masks else 0.0)
        out["trace.accounted_frac"] = accounted / wall if wall else 0.0
        return out

    def memory_probe(self) -> list[tuple[str, tuple, int, int]]:
        """Re-run each distinct top-level quasipermutation build seen while
        tracing once more, with tracemalloc started only around it; returns
        (function, args, peak bytes, products) per build.  tracemalloc slows
        allocation several times over, so the probe runs after the timed
        passes, with the tracer uninstalled, and its time is not reported."""
        probes = []
        seen = set()
        for fn, args, kwargs in self.builds:
            key = (fn.__name__, args, tuple(sorted(kwargs.items())))
            if key in seen:
                continue
            seen.add(key)
            tracemalloc.start()
            try:
                built = fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            probes.append((fn.__name__, args, peak, len(built.mul)))
            del built
        return probes

    def write(self, path: Path, probes: list) -> None:
        """All spans of the run, and the memory probes, as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump({
                "ops": {str(k): v for k, v in self.op_names.items()},
                "fields": ["id", "name", "parent", "op", "start", "end", "error", "counts"],
                "spans": [[s.id, s.name, s.parent, s.op, s.start, s.end, s.error, s.counts]
                          for s in self.spans],
                "memory": [{"function": f, "args": list(a), "peak_bytes": peak,
                            "products": products} for f, a, peak, products in probes],
            }, fh)
