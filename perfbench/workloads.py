"""The in-process workloads: ``programs-s0`` and ``decay-alloc``.

Each workload has a set-up, a fixed unit of work (one *pass*) that is
repeated while another pass fits in the run's seconds, and a traced
variant that runs untraced reference passes and then one traced
pass.  Every pass checks its outputs.  The per-layer metrics shared
by every workload are filled in here too (:func:`layer_metrics`).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from perfbench.measure import Result, Units, percentile, timed_passes

HERE = Path(__file__).resolve().parent

#: The Table 2 programs whose scale-0 runs are short enough to repeat
#: within a run (nboyer and sboyer take 4-8 s a run; see README.md).
PROGRAMS = ("nbody", "nucleic2", "lattice", "10dynamic")
#: The two collectors of the paper's Table 3.
TABLE3_COLLECTORS = ("stop-and-copy", "generational")
#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 3

#: decay-alloc: the decay regime of ``repro-gc bench`` (half-life 2000
#: words) at half its 400k words per collector, so that a run holds
#: several passes; then this many public ``collect()`` calls on each
#: collector's equilibrium heap.
DECAY_HALF_LIFE = 2_000.0
DECAY_ALLOC_WORDS = 200_000
DECAY_COLLECT_ROUNDS = 40


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def setup_seconds(modules: list[str], env: dict, work, repeats: int) -> float:
    """Median over ``repeats`` set-ups of: a fresh interpreter
    importing ``modules``, plus ``work()`` in this process."""
    code = "import " + ", ".join(modules)
    samples = []
    for _ in range(repeats):
        began = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, timeout=60
        )
        work()
        samples.append(time.perf_counter() - began)
    return statistics.median(samples)


def report_passes(result: Result, walls: list[float], units: Units,
                  words: int, what: str) -> float:
    """Set ``wall_s`` and ``words_per_s`` from a run's passes and
    return ``wall_s``: the pass with every unit at its fastest."""
    wall = units.fastest_pass()
    result.metric("wall_s", wall, "s")
    result.metric("words_per_s", words / wall, "words/s")
    result.note("passes", len(walls), "count", what)
    result.note("pass_median_s", statistics.median(walls), "s",
                f"{len(units.seconds)} units a pass")
    return wall


# ----------------------------------------------------------------------
# programs-s0
# ----------------------------------------------------------------------

#: Per program: SHA-256 of its result's ``repr`` and ``words_allocated``
#: at scale 0, the same under both collectors.
EXPECTED_PROGRAMS = json.loads(
    (HERE / "expected_programs.json").read_text(encoding="utf-8")
)


def _run_pairs(pairs, result: Result, units: Units | None = None,
               tracer=None) -> list:
    """Run (program, collector) pairs in order, checking each output.
    Returns each pair's ``RunOutcome``."""
    from repro.experiments.harness import run_benchmark_under
    from repro.programs.registry import get_benchmark

    outcomes = []
    for name, kind in pairs:
        label = f"{name}/{kind}"
        benchmark = get_benchmark(name)
        began = time.perf_counter()
        if tracer is None:
            outcome = run_benchmark_under(benchmark, kind, scale=0)
        else:
            with tracer.span("programs", "run", label):
                outcome = run_benchmark_under(benchmark, kind, scale=0)
        if units is not None:
            units.add(label, time.perf_counter() - began)
        outcomes.append(outcome)
        want = EXPECTED_PROGRAMS[name]
        result.check(
            _digest(outcome.result) == want["result_sha256"],
            f"{label}: program result differs from the recorded one",
        )
        result.check(
            outcome.words_allocated == want["words_allocated"],
            f"{label}: words_allocated {outcome.words_allocated} != "
            f"{want['words_allocated']}",
        )
    return outcomes


def programs(seed: int, seconds: float, traced: bool, env: dict) -> Result:
    result = Result()
    result.metric(
        "setup_s",
        setup_seconds(
            ["repro.experiments.harness", "repro.programs.registry"],
            env, lambda: None, 1 if traced else SETUP_REPEATS,
        ),
        "s",
    )
    pairs = [(name, kind) for name in PROGRAMS for kind in TABLE3_COLLECTORS]
    # The programs take no input; the seed picks the run order.
    random.Random(seed).shuffle(pairs)
    # Imported here, not in the first timed pass.
    import repro.experiments.harness  # noqa: F401
    import repro.programs.registry  # noqa: F401

    units = Units()
    last: list = []

    def run_pass() -> None:
        last[:] = _run_pairs(pairs, result, units)

    walls = timed_passes(run_pass, seconds / 2 if traced else seconds)
    words = sum(outcome.words_allocated for outcome in last)
    wall = report_passes(result, walls, units, words,
                         f"{len(pairs)} program runs each")
    for label, took in sorted(units.seconds.items()):
        result.note(f"run_s[{label}]", min(took), "s", "fastest")
    for outcome in last:
        # gc_work is recorded, not checked: CPython handle lifetimes
        # decide the root set, so it depends on what ran before.
        result.note(f"gc_work[{outcome.benchmark}/{outcome.collector}]",
                    outcome.gc_work, "words", "not checked")
    if traced:
        _trace_programs(result, pairs, wall)
    return result


def _trace_programs(result: Result, pairs, reference_wall: float) -> None:
    from perfbench import trace
    from repro.runtime.machine import Machine

    tracer = trace.Tracer()
    trace.activate(tracer)
    trace.install_collection_timer()
    trace.install_pool_counter()
    machines: list[Machine] = []
    original_init = Machine.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        machines.append(self)

    Machine.__init__ = init
    profile = trace.new_profile()
    began = time.perf_counter()
    profile.enable()
    try:
        runs = _run_pairs(pairs, result, tracer=tracer)
    finally:
        profile.disable()
        Machine.__init__ = original_init
    traced_wall = time.perf_counter() - began
    summary = trace.summarize_profile([profile])
    words = sum(run.words_allocated for run in runs)
    counts = {
        "runtime.ops": sum(machine.operations for machine in machines),
        "gc.collections": sum(run.collections for run in runs),
        "gc.work_words": sum(run.gc_work for run in runs),
        "gc.mark_cons": sum(run.mark_cons * run.words_allocated
                            for run in runs) / words,
    }
    layer_metrics(result, tracer, summary, counts, traced_wall,
                  reference_wall)
    tracer.dump(trace_path("programs-s0"), {"profile": summary})


# ----------------------------------------------------------------------
# decay-alloc
# ----------------------------------------------------------------------


def _plan_survivors(plan) -> int:
    """Objects still rooted when the plan ends, from the plan alone."""
    rooted: set[int] = set()
    for releases, slot in zip(plan.releases, plan.store_slots):
        rooted.difference_update(releases)
        rooted.add(slot)
    return len(rooted)


def _reference_collections(plan) -> dict[str, int]:
    """Collections per collector when the plan runs on the ``object``
    heap backend.  The measured runs use ``flat``; the repository's
    backend differential proves the two give the same ``GcStats``, so
    this reference shares no heap code with the runs it checks."""
    from repro.gc.registry import COLLECTOR_KINDS, GcGeometry, collector_factory
    from repro.heap.backend import make_heap
    from repro.heap.roots import RootSet
    from repro.perf.plan import execute_plan

    counts = {}
    for kind in COLLECTOR_KINDS:
        collector = collector_factory(kind, GcGeometry())(
            make_heap("object"), RootSet()
        )
        try:
            execute_plan(collector, plan)
            counts[kind] = collector.stats.collections
        finally:
            close = getattr(collector, "close", None)
            if close is not None:
                close()
    return counts


def decay(seed: int, seconds: float, traced: bool, env: dict) -> Result:
    from repro.gc.registry import COLLECTOR_KINDS, GcGeometry, collector_factory
    from repro.heap.backend import make_heap
    from repro.heap.roots import RootSet
    from repro.mutator.decay_mutator import DecaySchedule
    from repro.perf.plan import build_allocation_plan, execute_plan

    result = Result()
    plans = []

    def build() -> None:
        plans.append(
            build_allocation_plan(
                DecaySchedule(DECAY_HALF_LIFE, seed=seed), DECAY_ALLOC_WORDS
            )
        )

    result.metric(
        "setup_s",
        setup_seconds(
            ["repro.gc.registry", "repro.heap.backend", "repro.perf.plan"],
            env, build, 1 if traced else SETUP_REPEATS,
        ),
        "s",
    )
    plan = plans[-1]
    result.check(
        plan.total_words == DECAY_ALLOC_WORDS,
        f"plan total words {plan.total_words} != {DECAY_ALLOC_WORDS}",
    )
    survivors = _plan_survivors(plan)
    collections = _reference_collections(plan)
    geometry = GcGeometry()
    latencies: list[int] = []
    units = Units()
    state = {"overlap": 0.0, "work": 0, "collections": 0}

    def run_pass(tracer=None) -> None:
        for kind in COLLECTOR_KINDS:
            shape = geometry
            if kind == "concurrent":
                # A real marker process, so the handoff is measured.
                shape = replace(geometry, marker_workers=1)
            heap = make_heap("flat")
            roots = RootSet()
            collector = collector_factory(kind, shape)(heap, roots)
            try:
                began = time.perf_counter()
                if tracer is None:
                    frame = execute_plan(collector, plan)
                else:
                    with tracer.span("perf", "execute_plan", kind):
                        frame = execute_plan(collector, plan)
                units.add((kind, "plan"), time.perf_counter() - began)
                during = collector.stats.collections
                for round_ in range(DECAY_COLLECT_ROUNDS):
                    began = time.perf_counter_ns()
                    if tracer is None:
                        collector.collect()
                    else:
                        with tracer.span("gc", "collect", kind):
                            collector.collect()
                    took = time.perf_counter_ns() - began
                    latencies.append(took)
                    units.add((kind, round_), took / 1e9)
                result.check(
                    during == collections[kind],
                    f"{kind}: {during} collections, the object backend "
                    f"makes {collections[kind]}",
                )
                result.check(
                    collector.stats.words_allocated == plan.total_words,
                    f"{kind}: allocated {collector.stats.words_allocated}",
                )
                result.check(
                    heap.object_count == survivors,
                    f"{kind}: {heap.object_count} objects survive, the "
                    f"plan roots {survivors}",
                )
                state["work"] += collector.stats.gc_work
                state["collections"] += collector.stats.collections
                if kind == "concurrent":
                    state["overlap"] = collector.marker_overlap()
                roots.pop_frame(frame)
            finally:
                close = getattr(collector, "close", None)
                if close is not None:
                    close()

    walls = timed_passes(run_pass, seconds / 2 if traced else seconds)
    words = len(COLLECTOR_KINDS) * plan.total_words
    wall = report_passes(result, walls, units, words,
                         f"{len(COLLECTOR_KINDS)} collectors each")
    for name, fraction in (("collect_p50_ms", 0.5), ("collect_p99_ms", 0.99)):
        result.note(name, percentile(latencies, fraction) / 1e6, "ms",
                    f"n={len(latencies)} Collector.collect() calls")
    for kind in COLLECTOR_KINDS:
        result.note(f"alloc_words_per_s[{kind}]",
                    plan.total_words / min(units.seconds[(kind, "plan")]),
                    "words/s", "fastest execute_plan")
        result.note(f"collections[{kind}]", collections[kind], "count",
                    f"survivors {survivors}, both checked")
    if traced:
        from perfbench import trace

        tracer = trace.Tracer()
        trace.activate(tracer)
        trace.install_collection_timer()
        trace.install_pool_counter()
        profile = trace.new_profile()
        state.update(work=0, collections=0)
        began = time.perf_counter()
        profile.enable()
        try:
            run_pass(tracer)
        finally:
            profile.disable()
        traced_wall = time.perf_counter() - began
        summary = trace.summarize_profile([profile])
        counts = {
            "gc.collections": state["collections"],
            "gc.work_words": state["work"],
            "gc.mark_cons": state["work"] / words,
            "gc.marker_overlap": state["overlap"],
        }
        layer_metrics(result, tracer, summary, counts, traced_wall, wall)
        tracer.dump(trace_path("decay-alloc"), {"profile": summary})
    return result


# ----------------------------------------------------------------------
# Per-layer metrics, shared by every workload
# ----------------------------------------------------------------------


def trace_path(workload: str) -> Path:
    return HERE / "out" / f"trace-{workload}-{os.getpid()}.json"


def layer_metrics(
    result: Result,
    tracer,
    summary: dict,
    counts: dict,
    traced_wall: float,
    reference_wall: float,
    service: dict | None = None,
) -> None:
    """Fill ``result.metrics`` with every per-layer metric.

    ``tracer`` holds the counters of the traced pass; ``counts`` the
    figures only the workload knows (exact operation and collection
    counts); ``service`` the span totals of ``shards-inline``.  Anything
    a workload does not exercise reads 0.
    """
    from perfbench.trace import LAYERS

    layers = summary["layers"]
    targets = summary["targets"]
    traced = tracer.counts
    service = service or {}
    for layer in LAYERS:
        self_s, calls = layers.get(layer, [0.0, 0])
        result.metric(f"{layer}.self_s", self_s, "s")
        if layer == "heap":
            result.metric("heap.calls", calls, "count")
    result.metric("runtime.refs_created", targets["refs_created"][0], "count")
    result.metric("runtime.ops", counts.get("runtime.ops", 0), "count")
    result.metric("heap.views_created", targets["views_created"][0], "count")
    result.metric("gc.collect_s", traced.get("gc.collect_ns", 0) / 1e9, "s")
    for name in ("gc.collections", "gc.work_words"):
        result.metric(name, counts.get(name, 0), "count")
    result.metric("gc.mark_cons", counts.get("gc.mark_cons", 0.0), "ratio")
    result.metric(
        "gc.marker_handoffs", targets["marker_handoffs"][0], "count"
    )
    result.metric("gc.marker_wait_s", targets["marker_wait"][2], "s")
    result.metric(
        "gc.marker_overlap", counts.get("gc.marker_overlap", 0.0), "ratio"
    )
    result.metric("perf.plan_execute_s", targets["plan_execute"][1], "s")
    result.metric("pool.spawns", traced.get("pool.spawns", 0), "count")
    batches = traced.get("service.batches", 0)
    result.metric("service.batches", batches, "count")
    result.metric(
        "service.requests_per_batch",
        traced.get("service.batched_requests", 0) / batches if batches else 0,
        "count",
    )
    for name in ("service.batch_s", "service.session_apply_s",
                 "service.protocol_s"):
        result.metric(name, service.get(name, 0.0), "s")
    result.metric("service.queue_wait_ms",
                  service.get("service.queue_wait_ms", 0.0), "ms")
    result.metric("service.errors", service.get("service.errors", 0), "count")
    result.metric("trace.wall_s", traced_wall, "s")
    result.metric("trace.overhead_s", traced_wall - reference_wall, "s")
