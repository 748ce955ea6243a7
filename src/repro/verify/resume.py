"""The resume-equivalence oracle for checkpoint/restore.

The snapshot subsystem's correctness claim is *resume equivalence*: a
checkpoint taken at any allocation safepoint captures everything, so
serializing the entire context to JSON, tearing it down, and restoring
into a fresh heap/roots/collector — as a process restart after a crash
would — must leave no observable trace.  Not "roughly the same heap":
the remainder of the run must be byte-identical.

:func:`run_resume_differential` turns that claim into a differential
test.  One quiesced script (the same two cycle-closing ``collect`` ops
the budget oracle appends) is replayed twice per collector kind:

* an *uninterrupted* reference replay;
* a *resumed* replay that, after every ``resume_interval``-th
  allocation safepoint, checkpoints the live context, round-trips the
  document through its canonical JSON wire form (parse + checksum
  verification included — the restore path is the one a cold process
  would take), restores into a brand-new context, and carries on
  there.  Because the safepoints include allocations taken while an
  incremental or concurrent SATB cycle is open, mid-mark-cycle state
  (gray stack, epoch clock, colors, an in-flight marker result) is
  exercised, not just quiescent heaps.

The oracle then requires, for every collector kind on the requested
backend:

1. checkpointed live graphs and clocks identical to the uninterrupted
   replay (``resume-checkpoint``);
2. the full :class:`~repro.gc.stats.GcStats` snapshot identical
   (``resume-stats``) — restores must not add, lose, or re-count work;
3. the pause log identical (``resume-pauses``) — unlike the budget
   oracle, resume equivalence has no licence to change pauses;
4. the final resident object set identical (``resume-survivor``).

Script-level uids map to stable object ids, and ids survive
checkpoint/restore, so the resumed replay needs no translation — the
mutator literally cannot tell it was restarted.  Failures shrink with
the standard ddmin shrinker ("the report is not ok").
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Mapping, Sequence

from repro.gc.registry import (
    COLLECTOR_KINDS,
    GcGeometry,
    collector_factory,
    make_collector,
)
from repro.heap.backend import HEAP_BACKENDS, make_heap
from repro.heap.barrier import WriteBarrier
from repro.heap.roots import RootSet
from repro.resilience.snapshot import checkpoint as take_snapshot
from repro.resilience.snapshot import restore as restore_snapshot
from repro.verify.audit import enable_checked_mode
from repro.verify.budget import _quiesce
from repro.verify.differential import (
    VERIFY_GEOMETRY,
    DifferentialReport,
    Divergence,
    _compare,
)
from repro.verify.replay import (
    Checkpoint,
    MutatorScript,
    ReplayCrash,
    ReplayError,
    ReplayResult,
    replay,
)

__all__ = [
    "resume_label",
    "run_resume_differential",
    "run_resume_differential_all_backends",
]


def resume_label(kind: str) -> str:
    """The result-map key for one kind's resumed replay."""
    return f"{kind}+resume"


def _survivors(heap) -> tuple[int, ...]:
    return tuple(sorted(obj.obj_id for obj in heap.all_objects()))


def _resumed_replay(
    script: MutatorScript,
    kind: str,
    geometry: GcGeometry,
    *,
    backend: str | None,
    checked: bool,
    resume_interval: int,
    label: str,
) -> tuple[ReplayResult, tuple[int, ...], int]:
    """Replay ``script``, checkpoint/restoring the whole context after
    every ``resume_interval``-th allocation safepoint.

    Returns the replay result, the final resident object ids, and the
    number of restores performed.  Mirrors
    :func:`repro.verify.replay.replay` exactly apart from the context
    swaps; any drift between the two loops would itself show up as a
    divergence.
    """
    heap = make_heap(backend)
    roots = RootSet()
    collector = make_collector(kind, heap, roots, geometry)
    if checked:
        enable_checked_mode(collector)
    barrier = WriteBarrier(collector.remember_store)

    uid_to_id: dict[int, int] = {}
    checkpoints: list[Checkpoint] = []
    allocations = 0
    resumes = 0

    def swap_context() -> None:
        """Checkpoint, kill the context, restore from the wire form."""
        nonlocal heap, roots, collector, barrier, resumes
        document = take_snapshot(collector, kind, geometry)
        wire = json.dumps(document, sort_keys=True)
        heap, roots, collector = restore_snapshot(json.loads(wire))
        if checked:
            enable_checked_mode(collector)
        barrier = WriteBarrier(collector.remember_store)
        resumes += 1

    def take_checkpoint(op_index: int) -> None:
        root_ids = list(roots.ids())
        reached = heap.reachable_from(root_ids)
        graph = tuple(
            sorted(
                (obj_id, heap.get(obj_id).size, tuple(heap.get(obj_id).fields))
                for obj_id in reached
            )
        )
        live = sum(entry[1] for entry in graph)
        checkpoints.append(
            Checkpoint(
                op_index=op_index,
                clock=heap.clock,
                live_words=live,
                graph=graph,
            )
        )

    for op_index, op in enumerate(script.ops):
        op_kind = op[0]
        try:
            if op_kind == "alloc":
                _, uid, size, field_count = op
                obj = collector.allocate(size, field_count)
                uid_to_id[uid] = obj.obj_id
                roots.set_global(f"u{uid}", obj)
                allocations += 1
                if allocations % resume_interval == 0:
                    swap_context()
            elif op_kind == "store":
                _, src_uid, slot, dst_uid = op
                # get() rejects a dangling id before the barrier sees it.
                src = heap.get(uid_to_id[src_uid]).obj_id
                target = (
                    None if dst_uid is None
                    else heap.get(uid_to_id[dst_uid]).obj_id
                )
                barrier.on_store(src, slot, target)
                heap.store_slot(src, slot, target)
            elif op_kind == "drop":
                roots.remove_global(f"u{op[1]}")
            elif op_kind == "collect":
                collector.collect()
            elif op_kind == "check":
                take_checkpoint(op_index)
            else:
                raise ReplayError(f"unknown op kind {op_kind!r}")
        except ReplayError:
            raise
        except Exception as exc:
            raise ReplayCrash(op_index, op, exc) from exc

    try:
        take_checkpoint(len(script.ops))
    except Exception as exc:
        raise ReplayCrash(len(script.ops), ("check",), exc) from exc
    result = ReplayResult(
        collector=label,
        checkpoints=tuple(checkpoints),
        words_allocated=collector.stats.words_allocated,
        collections=collector.stats.collections,
        stats=tuple(sorted(collector.stats.snapshot().items())),
        pauses=tuple(collector.stats.pauses),
    )
    return result, _survivors(heap), resumes


def run_resume_differential(
    script: MutatorScript,
    *,
    kinds: Sequence[str] = COLLECTOR_KINDS,
    backend: str | None = None,
    geometry: GcGeometry | None = None,
    checked: bool = True,
    resume_interval: int = 1,
) -> DifferentialReport:
    """Prove checkpoint/restore leaves no observable trace.

    Args:
        script: a valid mutator script (quiescing collects are
            appended internally; pass the raw script).
        kinds: collector kinds to cover (default: all seven).
        backend: heap backend for every replay (None = the session
            default); run once per backend for full coverage.
        geometry: heap geometry (defaults to the verify geometry).
            Concurrent marking is forced inline (``marker_workers=0``)
            so the resumed and uninterrupted replays schedule
            identically.
        checked: audit heap invariants after every collection — on
            both sides of every restore.
        resume_interval: checkpoint/restore after every Nth allocation
            safepoint (1 = every allocation).
    """
    if resume_interval < 1:
        raise ValueError(
            f"resume interval must be positive, got {resume_interval!r}"
        )
    geometry = geometry if geometry is not None else VERIFY_GEOMETRY
    if geometry.marker_workers:
        geometry = replace(geometry, marker_workers=0)
    quiesced = _quiesce(script)

    results: dict[str, ReplayResult | None] = {}
    divergences: list[Divergence] = []

    for kind in kinds:
        label = resume_label(kind)
        reference: ReplayResult | None = None
        reference_survivors: tuple[int, ...] | None = None

        def capturing(inner):
            def build(heap, roots):
                built = inner(heap, roots)
                build.collector = built  # type: ignore[attr-defined]
                return built

            return build

        factory = capturing(collector_factory(kind, geometry))
        try:
            reference = replay(
                quiesced, factory, checked=checked, name=kind, backend=backend
            )
            reference_survivors = _survivors(factory.collector.heap)
        except ReplayCrash as crash:
            results[kind] = None
            divergences.append(
                Divergence(
                    kind="crash",
                    collector=kind,
                    reference=kind,
                    checkpoint_index=None,
                    op_index=crash.op_index,
                    detail=str(crash),
                )
            )
        else:
            results[kind] = reference

        try:
            resumed, resumed_survivors, resumes = _resumed_replay(
                quiesced,
                kind,
                geometry,
                backend=backend,
                checked=checked,
                resume_interval=resume_interval,
                label=label,
            )
        except ReplayCrash as crash:
            results[label] = None
            divergences.append(
                Divergence(
                    kind="crash",
                    collector=label,
                    reference=kind,
                    checkpoint_index=None,
                    op_index=crash.op_index,
                    detail=str(crash),
                )
            )
            continue
        results[label] = resumed
        if reference is None or reference_survivors is None:
            continue

        divergence = _compare(reference, resumed, kind, label)
        if divergence is not None:
            divergences.append(replace(divergence, kind="resume-checkpoint"))
        if resumed.stats != reference.stats:
            reference_stats = dict(reference.stats)
            diffs = [
                f"{key}: {value} != {reference_stats.get(key)}"
                for key, value in resumed.stats
                if reference_stats.get(key) != value
            ]
            divergences.append(
                Divergence(
                    kind="resume-stats",
                    collector=label,
                    reference=kind,
                    checkpoint_index=None,
                    op_index=None,
                    detail=(
                        "; ".join(diffs) or "stat key sets differ"
                    )
                    + f" (after {resumes} restores)",
                )
            )
        if resumed.pauses != reference.pauses:
            divergences.append(
                Divergence(
                    kind="resume-pauses",
                    collector=label,
                    reference=kind,
                    checkpoint_index=None,
                    op_index=None,
                    detail=(
                        f"pause log differs: {len(resumed.pauses)} pauses "
                        f"vs {len(reference.pauses)} uninterrupted "
                        f"(after {resumes} restores)"
                    ),
                )
            )
        if resumed_survivors != reference_survivors:
            extra = sorted(set(resumed_survivors) - set(reference_survivors))
            missing = sorted(set(reference_survivors) - set(resumed_survivors))
            parts = [
                f"{len(resumed_survivors)} resident objects vs "
                f"{len(reference_survivors)} uninterrupted"
            ]
            if extra:
                parts.append(f"resumed run alone retains ids {extra[:5]}")
            if missing:
                parts.append(f"resumed run is missing ids {missing[:5]}")
            divergences.append(
                Divergence(
                    kind="resume-survivor",
                    collector=label,
                    reference=kind,
                    checkpoint_index=None,
                    op_index=None,
                    detail="; ".join(parts),
                )
            )

    return DifferentialReport(
        script=quiesced,
        results=results,
        divergences=tuple(divergences),
    )


def run_resume_differential_all_backends(
    script: MutatorScript,
    *,
    kinds: Sequence[str] = COLLECTOR_KINDS,
    backends: Sequence[str] = HEAP_BACKENDS,
    geometry: GcGeometry | None = None,
    checked: bool = True,
    resume_interval: int = 1,
) -> Mapping[str, DifferentialReport]:
    """:func:`run_resume_differential` once per heap backend."""
    return {
        backend: run_resume_differential(
            script,
            kinds=kinds,
            backend=backend,
            geometry=geometry,
            checked=checked,
            resume_interval=resume_interval,
        )
        for backend in backends
    }
