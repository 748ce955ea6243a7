"""Tracing for traced runs: spans, counters and a layer profile.

Everything here is installed from outside the program.  Spans are
recorded by the benchmark's own files around calls into each layer's
public functions; counters come from wrapping classes and functions
at their module attributes; self time and call counts per layer come
from a stdlib ``cProfile`` pass grouped by ``repro.<subpackage>``.
Nothing in this module is imported by an untraced run's timed path.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextvars
import cProfile
import inspect
import json
import pstats
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: The layers a traced run breaks a workload into, by subpackage.
LAYERS = (
    "programs",
    "runtime",
    "heap",
    "gc",
    "metrics",
    "perf",
    "resilience",
    "service",
)

#: Collector methods that start a collection, a mark slice or a
#: marker handoff.  Nested calls among them are counted once.
COLLECTION_METHODS = (
    "collect",
    "collect_generations",
    "collect_nursery",
    "_collect_for",
    "_mark_slice",
    "_open_cycle",
)


def new_profile() -> cProfile.Profile:
    # Builtins off: their cost lands in the repro function that
    # called them, which is the attribution a layer table wants.
    return cProfile.Profile(subcalls=False, builtins=False)


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        #: ``[layer, name, request id, start ns, end ns, parent index]``
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    @contextmanager
    def span(self, layer: str, name: str, rid=None):
        parent = self._current.get()
        record = [layer, name, rid, time.perf_counter_ns(), 0, parent]
        index = len(self.spans)
        self.spans.append(record)
        token = self._current.set(index)
        try:
            yield record
        finally:
            record[4] = time.perf_counter_ns()
            self._current.reset(token)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span_seconds(self, layer: str, name: str | None = None) -> float:
        return sum(
            span[4] - span[3]
            for span in self.spans
            if span[0] == layer and (name is None or span[1] == name)
        ) / 1e9

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra)
        payload["span_fields"] = [
            "layer", "name", "rid", "start_ns", "end_ns", "parent"
        ]
        payload["spans"] = self.spans
        payload["counts"] = self.counts
        path.write_text(json.dumps(payload, default=str), encoding="utf-8")


# ----------------------------------------------------------------------
# Profile grouping
# ----------------------------------------------------------------------


def _layer_of(filename: str) -> str | None:
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return None
    rest = filename[at + len(marker):]
    head, sep, _ = rest.partition("/")
    return head if sep else "cli"


def _code_key(function) -> tuple:
    code = inspect.unwrap(function).__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _targets() -> dict[str, list[tuple]]:
    """Profile keys of the functions whose call counts are metrics."""
    from repro.gc.concurrent import ConcurrentCollector
    from repro.heap.flat import FlatFields, FlatObject
    from repro.perf.plan import execute_plan
    from repro.runtime.values import Ref

    return {
        "refs_created": [_code_key(Ref.__init__)],
        "views_created": [
            _code_key(FlatObject.__init__),
            _code_key(FlatFields.__init__),
        ],
        "marker_handoffs": [_code_key(ConcurrentCollector._open_cycle)],
        "marker_wait": [_code_key(ConcurrentCollector._await_marker)],
        "plan_execute": [_code_key(execute_plan)],
    }


def summarize_profile(profiles) -> dict:
    """Group one or more profiles by ``repro`` subpackage.

    Returns ``{"layers": {layer: [self seconds, calls]}, "targets":
    {name: [calls, self seconds, cumulative seconds]}}``, small and
    JSON-able, so it is written out with the spans.
    """
    layers: dict[str, list[float]] = {}
    targets = {name: [0, 0.0, 0.0] for name in _targets()}
    lookup = {
        key: name for name, keys in _targets().items() for key in keys
    }
    for profile in profiles:
        stats = pstats.Stats(profile).stats
        for key, (_cc, calls, self_s, cum_s, _callers) in stats.items():
            layer = _layer_of(key[0])
            if layer is not None:
                entry = layers.setdefault(layer, [0.0, 0])
                entry[0] += self_s
                entry[1] += calls
            name = lookup.get(key)
            if name is not None:
                target = targets[name]
                target[0] += calls
                target[1] += self_s
                target[2] += cum_s
    return {"layers": layers, "targets": targets}


# ----------------------------------------------------------------------
# Wrappers installed from outside
# ----------------------------------------------------------------------


def _wrap_method(cls, name: str, wrapper_factory) -> None:
    original = cls.__dict__[name]
    wrapped = wrapper_factory(original)
    wrapped.__name__ = original.__name__
    wrapped.__qualname__ = original.__qualname__
    wrapped.__doc__ = original.__doc__
    wrapped.__wrapped__ = original
    setattr(cls, name, wrapped)


#: The tracer wrappers report to.
_active: list[Tracer] = []


def activate(tracer: Tracer) -> None:
    _active.append(tracer)


def install_collection_timer() -> None:
    """Time every collection (slices and handoffs included) once,
    however the collector's entry points nest."""
    from repro.gc import registry

    depth = threading.local()

    def factory(original):
        def timed(self, *args, **kwargs):
            level = getattr(depth, "level", 0)
            depth.level = level + 1
            start = time.perf_counter_ns()
            try:
                return original(self, *args, **kwargs)
            finally:
                depth.level = level
                if not level:
                    _active[-1].count(
                        "gc.collect_ns", time.perf_counter_ns() - start
                    )

        return timed

    seen = set()
    for value in vars(registry).values():
        if not (isinstance(value, type) and hasattr(value, "collect")):
            continue
        for cls in value.__mro__:
            if cls in seen or not cls.__module__.startswith("repro.gc"):
                continue
            seen.add(cls)
            for name in COLLECTION_METHODS:
                if name in cls.__dict__:
                    _wrap_method(cls, name, factory)


def install_pool_counter() -> None:
    """Count ``ProcessPoolExecutor`` constructions, whoever builds one."""
    import concurrent.futures
    import concurrent.futures.process as process_module

    from repro.perf import parallel

    base = process_module.ProcessPoolExecutor

    class CountingProcessPool(base):
        def __init__(self, *args, **kwargs):
            _active[-1].count("pool.spawns")
            super().__init__(*args, **kwargs)

    concurrent.futures.ProcessPoolExecutor = CountingProcessPool
    parallel.ProcessPoolExecutor = CountingProcessPool


def install_service_wrappers() -> None:
    """Spans and counters around ``ShardExecutor.execute`` (one span per
    batch, carrying its request ids) and ``TenantSession.apply``."""
    from repro.service.session import TenantSession
    from repro.service.shard import ShardExecutor

    tracer = _active[-1]

    def execute_factory(original):
        def execute(self, batches):
            ids = [
                request.get("id")
                for ops in batches.values()
                for request in ops
            ]
            tracer.count("service.batches")
            tracer.count("service.batched_requests", len(ids))
            with tracer.span("service", "batch", ids):
                return original(self, batches)

        return execute

    def apply_factory(original):
        def apply(self, request):
            with tracer.span("service", "session_apply", request["id"]):
                return original(self, request)

        return apply

    _wrap_method(ShardExecutor, "execute", execute_factory)
    _wrap_method(TenantSession, "apply", apply_factory)
