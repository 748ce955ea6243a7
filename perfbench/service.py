"""The ``shards-inline`` workload.

One pass sends a ``build_plan`` mixed-profile plan of 200 tenants x 300
ops (about 61.7k requests across all seven collector kinds) through the
service's own inline runner, ``run_load_inline``, into a two-shard
``ShardExecutor`` with ``jobs=0``.  A round carries every unfinished
tenant's next request, so an ``execute`` call holds as many requests as
tenants are still running (about 190).  Every request and response
crosses the line protocol on its way (:class:`WireExecutor`), as it does
in the server.  Tenants open at the start of a pass and close at its
end, so passes repeat on one executor.
"""

from __future__ import annotations

import statistics
import time

from perfbench.measure import Result, Units, percentile, timed_passes
from perfbench.workloads import (
    SETUP_REPEATS,
    layer_metrics,
    report_passes,
    setup_seconds,
    trace_path,
)

#: The shape the service's own load runs use: 200 tenants x 300 ops.
TENANTS = 200
OPS_PER_TENANT = 300
SHARDS = 2
#: The close-bundle fields a served tenant must reproduce.
CLOSE_KEYS = (
    "final", "stats", "pauses", "pauses_digest", "collections",
    "words_allocated",
)


class WireExecutor:
    """A ``ShardExecutor`` seen through the line protocol.

    Each request is encoded, decoded and validated, as the server does
    with a line it reads, and each response is encoded and decoded,
    around the real executor's batch.  Records every round's duration
    and size.
    """

    def __init__(self, executor, tracer=None) -> None:
        self.executor = executor
        self.tracer = tracer
        #: ``(nanoseconds, requests)`` per round.
        self.rounds: list[tuple[int, int]] = []

    def shard_of(self, tenant: str) -> int:
        return self.executor.shard_of(tenant)

    def execute(self, batches: dict) -> dict:
        from repro.service.protocol import validate_request

        began = time.perf_counter_ns()
        size = sum(len(ops) for ops in batches.values())
        if self.tracer is None:
            responses = self._execute(batches, validate_request)
        else:
            ids = [request["id"] for ops in batches.values() for request in ops]
            with self.tracer.span("request", "round", ids):
                responses = self._execute(batches, validate_request)
        self.rounds.append((time.perf_counter_ns() - began, size))
        return responses

    def _execute(self, batches, validate_request) -> dict:
        wired = {
            shard: [validate_request(self._wire(request)) for request in ops]
            for shard, ops in batches.items()
        }
        return {
            shard: [self._wire(response) for response in answers]
            for shard, answers in self.executor.execute(wired).items()
        }

    def _wire(self, message: dict) -> dict:
        from repro.service.protocol import decode_line, encode_line

        if self.tracer is None:
            return decode_line(encode_line(message))
        with self.tracer.span("service.protocol", "wire", message.get("id")):
            return decode_line(encode_line(message))


def reference(plan) -> dict[str, tuple[list, dict]]:
    """Each tenant's checkpoint digests and close bundle, from a serial
    replay of its own stream on a private ``ShardRuntime`` with the
    ``object`` heap backend.  Served tenants run on ``flat``; the
    repository's backend differential proves the two give the same
    checkpoints and ``GcStats``, so the reference shares no heap code
    with the runs it checks.  Responses cross the line protocol, as
    the served ones do."""
    from repro.service.protocol import decode_line, encode_line
    from repro.service.shard import ShardRuntime

    digests = {}
    for tenant_plan in plan.plans:
        requests = [
            dict(request, backend="object") if request["op"] == "open"
            else request
            for request in tenant_plan.requests
        ]
        responses = [
            decode_line(encode_line(response))
            for response in ShardRuntime(0).apply_batch(requests)
        ]
        checkpoints = [
            response.get("digest")
            for request, response in zip(requests, responses)
            if request["op"] == "checkpoint"
        ]
        close = {key: responses[-1].get(key) for key in CLOSE_KEYS}
        digests[tenant_plan.tenant] = (checkpoints, close)
    return digests


def shards(seed: int, seconds: float, traced: bool, env: dict) -> Result:
    from repro.service.loadgen import build_plan, run_load_inline
    from repro.service.shard import ShardExecutor

    result = Result()
    made = []

    def build() -> None:
        made[:] = [
            build_plan(TENANTS, seed=seed, ops_per_tenant=OPS_PER_TENANT),
            ShardExecutor(SHARDS, jobs=0),
        ]

    result.metric(
        "setup_s",
        setup_seconds(
            ["repro.service.loadgen", "repro.service.shard"],
            env, build, 1 if traced else SETUP_REPEATS,
        ),
        "s",
    )
    plan, executor = made
    expected = reference(plan)
    words = sum(close["words_allocated"] for _, close in expected.values())
    requests = plan.request_count
    errors: dict[str, int] = {}
    wire = WireExecutor(executor)
    units = Units()

    def run_pass(through=wire):
        first = len(through.rounds)
        began = time.perf_counter_ns()
        outcomes = run_load_inline(plan, through).outcomes
        took = time.perf_counter_ns() - began
        # The units: each round by its index in the pass (the same
        # rounds every pass), and the runner's time between rounds.
        rounds = [ns for ns, _ in through.rounds[first:]]
        for index, ns in enumerate(rounds):
            units.add(index, ns / 1e9)
        units.add("between rounds", (took - sum(rounds)) / 1e9)
        result.attempted += requests
        failed = 0
        for outcome in outcomes:
            for kind, count in outcome.errors.items():
                errors[kind] = errors.get(kind, 0) + count
                failed += count
            checkpoints, close = expected[outcome.tenant]
            served = {key: (outcome.close or {}).get(key) for key in CLOSE_KEYS}
            if outcome.checkpoints != checkpoints or served != close:
                failed += 1
                if len(result.problems) < 20:
                    result.problems.append(
                        f"{outcome.tenant}: checkpoint/close digests differ "
                        f"from its serial replay on the object backend"
                    )
        result.failed += min(failed, requests)
        return outcomes

    batches_before = executor.batches
    walls = timed_passes(run_pass, seconds / 2 if traced else seconds)
    batches = executor.batches - batches_before
    served = requests * len(walls)
    wall = report_passes(
        result, walls, units, words,
        f"{requests} requests, {TENANTS} tenants x {OPS_PER_TENANT} ops",
    )
    result.note("requests_per_s", served / sum(walls), "1/s",
                "one request per unfinished tenant per round")
    # A request's latency is its round's duration.
    latencies = [ns for ns, size in wire.rounds for _ in range(size)]
    for name, fraction in (("request_p50_ms", 0.5), ("request_p99_ms", 0.99)):
        result.note(name, percentile(latencies, fraction) / 1e6, "ms",
                    f"n={len(latencies)}, per round")
    result.note("service.requests_per_batch", served / batches, "count",
                f"{batches} ShardExecutor.execute calls")
    for kind, count in sorted(errors.items()):
        result.note(f"errors[{kind}]", count, "count")
    if traced:
        _trace(result, executor, run_pass, wall)
    return result


def _trace(result, executor, run_pass, reference_wall) -> None:
    from perfbench import trace

    tracer = trace.Tracer()
    trace.activate(tracer)
    trace.install_collection_timer()
    trace.install_pool_counter()
    trace.install_service_wrappers()
    profile = trace.new_profile()
    began = time.perf_counter()
    profile.enable()
    try:
        outcomes = run_pass(WireExecutor(executor, tracer))
    finally:
        profile.disable()
    traced_wall = time.perf_counter() - began
    summary = trace.summarize_profile([profile])

    # A round's wait is its duration minus its executor batch's.
    waits = []
    for span in tracer.spans:
        if span[0] == "service" and span[1] == "batch":
            round_span = tracer.spans[span[5]]
            wait_ms = (
                (round_span[4] - round_span[3]) - (span[4] - span[3])
            ) / 1e6
            waits += [wait_ms] * len(span[2])
    closes = [outcome.close for outcome in outcomes if outcome.close]
    words = sum(close["words_allocated"] for close in closes)
    work = sum(
        dict(close["stats"])["words_marked"]
        + dict(close["stats"])["words_copied"]
        for close in closes
    )
    figures = {
        "service.batch_s": tracer.span_seconds("service", "batch"),
        "service.session_apply_s": tracer.span_seconds(
            "service", "session_apply"
        ),
        "service.protocol_s": tracer.span_seconds("service.protocol"),
        "service.queue_wait_ms": statistics.median(waits) if waits else 0.0,
        "service.errors": sum(
            sum(outcome.errors.values()) for outcome in outcomes
        ),
    }
    counts = {
        "gc.collections": sum(close["collections"] for close in closes),
        "gc.work_words": work,
        "gc.mark_cons": work / words if words else 0.0,
    }
    layer_metrics(result, tracer, summary, counts, traced_wall,
                  reference_wall, service=figures)
    tracer.dump(trace_path("shards-inline"), {"profile": summary})
