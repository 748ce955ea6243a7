"""Tests for the concurrent (off-thread marking) collector.

Four layers:

* the handoff machinery — cycles open with a marker in flight, the
  handoff pause is priced at zero words, allocation stays black, and
  a clean run's reconcile scan does zero words of work (the
  shrinking-reachability argument, observed);
* equivalence — seeded mutation storms on BOTH heap backends must
  produce exactly the unbounded incremental collector's counters and
  survivor set, and the pool marker must be byte-identical to the
  inline one (process placement is not an observable);
* the resilient-marker ladder — a hung worker falls back to the
  inline task with the attempt salt bumped, and the salt perturbs
  only traversal order, never the result;
* lifecycle — errors travel back as data and raise at reconciliation,
  and close/collect/static-promotion all discard the pending marker;
* the shared-memory handoff (flat backend, pool mode) — whatever ends
  a segment's life (close, watchdog abort, a killed worker, the inline
  fallback, growth), no ``psm_*`` segment outlives it, and a heap that
  grows between cycles marks the same in the pool as inline.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.gc.concurrent import ConcurrentCollector, _mark_snapshot_task
from repro.gc.incremental import IncrementalCollector
from repro.heap.backend import HEAP_BACKENDS, make_heap
from repro.heap.barrier import WriteBarrier
from repro.heap.heap import HeapError
from repro.heap.roots import RootSet


def setup(heap_words=100, backend=None, **kwargs):
    heap = make_heap(backend)
    roots = RootSet()
    collector = ConcurrentCollector(heap, roots, heap_words, **kwargs)
    return heap, roots, collector


def link(heap, barrier, src, slot, dst):
    """One mutator pointer store, through the write barrier."""
    target = dst.obj_id if dst is not None else None
    barrier.on_store(src.obj_id, slot, target)
    heap.store_slot(src.obj_id, slot, target)


def storm(collector, heap, roots, *, seed=0, steps=120):
    """A deterministic allocate/store/drop/collect interleaving."""
    rng = random.Random(seed)
    barrier = WriteBarrier(collector.remember_store)
    frame = roots.push_frame()
    live = []
    for _ in range(steps):
        choice = rng.random()
        if choice < 0.55 or len(live) < 2:
            obj = collector.allocate(rng.randrange(2, 6), 2)
            live.append((frame.push(obj), obj))
        elif choice < 0.8:
            src = live[rng.randrange(len(live))][1]
            dst = live[rng.randrange(len(live))][1]
            link(heap, barrier, src, rng.randrange(2), dst)
        elif choice < 0.95 and len(live) > 2:
            index, _victim = live.pop(rng.randrange(len(live)))
            frame.set(index, None)
        else:
            collector.collect()
    collector.collect()
    collector.collect()


class TestHandoff:
    def test_cycle_opens_with_marker_inflight(self):
        _, roots, collector = setup(heap_words=100, trigger_fraction=0.5)
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate(4))
        assert collector.marker_inflight
        assert collector.pending_marked_ids()

    def test_handoff_pause_is_zero_work(self):
        _, roots, collector = setup(heap_words=100)
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate(4))
        handoffs = [
            p for p in collector.stats.pauses if p.kind == "handoff"
        ]
        assert handoffs and all(p.work == 0 for p in handoffs)

    def test_allocation_during_cycle_is_black(self):
        heap, roots, collector = setup(heap_words=200)
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate(4))
        newborn = collector.allocate(4)
        frame.push(newborn)
        assert heap.birth_of(newborn.obj_id) >= collector.epoch_clock
        # Born after the snapshot: invisible to the marker, survives
        # the cycle close unconditionally.
        assert newborn.obj_id not in collector.pending_marked_ids()
        collector.collect()
        assert heap.contains_id(newborn.obj_id)

    def test_clean_run_reconciles_with_zero_work(self):
        _, roots, collector = setup(heap_words=200)
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate(4))
        frame.push(collector.allocate(4))
        collector.collect()
        reconciles = [
            p for p in collector.stats.pauses if p.kind == "reconcile"
        ]
        assert reconciles and all(p.work == 0 for p in reconciles)

    def test_satb_deletion_still_reconciles_with_zero_work(self):
        # An overwritten pre-epoch referent is already in the marker's
        # snapshot-reachable set, so the SATB gray adds no scan work —
        # and the referent survives as floating garbage, exactly the
        # incremental collector's semantics.
        heap, roots, collector = setup(heap_words=400)
        barrier = WriteBarrier(collector.remember_store)
        frame = roots.push_frame()
        holder = collector.allocate(4, 1)
        victim = collector.allocate(4)
        frame.push(holder)
        link(heap, barrier, holder, 0, victim)
        while not collector.cycle_open:
            frame.push(collector.allocate(4))
        link(heap, barrier, holder, 0, None)  # deletion mid-cycle
        collector.collect()
        assert heap.contains_id(victim.obj_id)
        last = collector.stats.pauses[-1]
        assert last.kind == "reconcile" and last.work == 0


class TestEquivalence:
    @pytest.mark.parametrize("backend", HEAP_BACKENDS)
    @pytest.mark.parametrize("seed", [0, 7, 29])
    def test_storm_matches_unbounded_incremental(self, backend, seed):
        heap_c = make_heap(backend)
        roots_c = RootSet()
        concurrent = ConcurrentCollector(heap_c, roots_c, 120)
        storm(concurrent, heap_c, roots_c, seed=seed)

        heap_i = make_heap(backend)
        roots_i = RootSet()
        incremental = IncrementalCollector(
            heap_i, roots_i, 120, slice_budget=None
        )
        storm(incremental, heap_i, roots_i, seed=seed)

        assert (
            concurrent.stats.snapshot() == incremental.stats.snapshot()
        )
        assert sorted(concurrent.space.object_ids()) == sorted(
            incremental.space.object_ids()
        )

    @pytest.mark.parametrize("backend", HEAP_BACKENDS)
    def test_pool_marker_matches_inline(self, backend):
        heap_p = make_heap(backend)
        roots_p = RootSet()
        pool = ConcurrentCollector(heap_p, roots_p, 120, marker_workers=1)
        try:
            storm(pool, heap_p, roots_p, seed=13)
        finally:
            pool.close()

        heap_i = make_heap(backend)
        roots_i = RootSet()
        inline = ConcurrentCollector(heap_i, roots_i, 120)
        storm(inline, heap_i, roots_i, seed=13)

        assert pool.stats.snapshot() == inline.stats.snapshot()
        assert pool.stats.pauses == inline.stats.pauses
        assert sorted(pool.space.object_ids()) == sorted(
            inline.space.object_ids()
        )


class _HungFuture:
    """A future whose worker never answers."""

    def done(self):
        return False

    def result(self, timeout=None):
        raise TimeoutError("induced hang")

    def cancel(self):
        return True


class TestResilientMarker:
    def test_hung_worker_falls_back_inline(self):
        _, roots, collector = setup(
            heap_words=200, marker_timeout=0.01, marker_retries=0
        )
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate(4))
        expected = collector.pending_marked_ids()
        # Replay the drain as if the pool never answered: the ladder
        # must terminate at the inline fallback with the same result.
        collector._result = None
        collector._future = _HungFuture()
        marked, _words = collector._await_marker()
        assert frozenset(marked) == expected
        collector.collect()

    def test_attempt_salt_perturbs_order_not_result(self):
        from repro.perf.parallel import derive_seed

        heap, roots, collector = setup(heap_words=400)
        barrier = WriteBarrier(collector.remember_store)
        frame = roots.push_frame()
        objs = [collector.allocate(3, 2) for _ in range(12)]
        for obj in objs:
            frame.push(obj)
        rng = random.Random(5)
        for obj in objs:
            link(heap, barrier, obj, 0, objs[rng.randrange(len(objs))])
        snapshot = heap.export_mark_snapshot(
            collector.space, list(roots.ids())
        )
        payload = (snapshot, 0, 1)
        results = [
            _mark_snapshot_task(payload, attempt) for attempt in (0, 1, 5)
        ]
        assert derive_seed(0, 1, 0) != derive_seed(0, 1, 1)
        assert results[0] == results[1] == results[2]
        assert results[0]["ids"]


class TestLifecycle:
    def test_marker_error_raises_at_reconcile(self):
        snapshot = {
            "backend": "object",
            "objects": {1: (4, (99,))},
            "known": frozenset({1}),
            "roots": [1],
        }
        result = _mark_snapshot_task((snapshot, 0, 0))
        assert "error" in result and "dangling" in result["error"]

        _, roots, collector = setup(heap_words=100)
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate(4))
        collector._result = {"error": "induced marker failure"}
        with pytest.raises(HeapError, match="induced marker failure"):
            collector.collect()

    def test_collect_discards_pending(self):
        _, roots, collector = setup(heap_words=100)
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate(4))
        collector.collect()
        assert not collector.marker_inflight
        assert collector._payload is None

    def test_static_promotion_discards_pending(self):
        _, roots, collector = setup(heap_words=100)
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate(4))
        collector.on_static_promotion()
        assert not collector.cycle_open
        assert collector._payload is None

    def test_close_is_idempotent(self):
        _, roots, collector = setup(heap_words=100, marker_workers=1)
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate(4))
        collector.close()
        collector.close()
        assert collector._pool is None

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            setup(marker_workers=-1)


SHM_DIR = Path("/dev/shm")


def segments() -> set[str]:
    """The POSIX shared-memory segments ``SharedMemory`` names."""
    return {entry.name for entry in SHM_DIR.glob("psm_*")}


def segment_name(collector) -> str:
    return collector._segment._shm.name


def open_cycle(collector, roots, frame=None):
    frame = frame if frame is not None else roots.push_frame()
    while not collector.cycle_open:
        frame.push(collector.allocate(4, 1))
    return frame


@pytest.mark.skipif(not SHM_DIR.is_dir(), reason="no /dev/shm")
class TestSharedMemoryHandoff:
    def test_pool_snapshot_ships_only_the_segment_name(self):
        _, roots, collector = setup(
            heap_words=200, backend="flat", marker_workers=1
        )
        try:
            open_cycle(collector, roots)
            snapshot = collector._payload[0]
            assert set(snapshot) == {
                "backend", "segment", "lengths", "token", "roots"
            }
            assert snapshot["segment"] in segments()
            assert collector.pending_marked_ids()
        finally:
            collector.close()

    def test_close_unlinks_segment_and_is_idempotent(self):
        before = segments()
        _, roots, collector = setup(
            heap_words=200, backend="flat", marker_workers=1
        )
        open_cycle(collector, roots)
        name = segment_name(collector)
        assert name in segments()
        collector.close()
        assert name not in segments()
        collector.close()
        assert segments() <= before

    def test_watchdog_abort_unlinks_segment(self):
        from concurrent.futures import Future

        before = segments()
        _, roots, collector = setup(
            heap_words=400,
            backend="flat",
            marker_workers=1,
            marker_timeout=0.01,
            marker_retries=0,
        )
        open_cycle(collector, roots)
        name = segment_name(collector)
        collector._future = Future()  # wedged: never completes
        collector.collect()
        assert collector.watchdog_aborts == 1
        assert collector._cycle_checkpoint is None
        assert name not in segments()
        # Degraded to inline marking: no new segment either.
        collector.collect()
        assert segments() <= before
        collector.close()

    def test_killed_worker_retries_through_a_new_pool(self):
        before = segments()
        _, roots, collector = setup(
            heap_words=400, backend="flat", marker_workers=1,
            marker_retries=1,
        )
        _, roots_i, inline = setup(heap_words=400, backend="flat")
        try:
            for subject, subject_roots in (
                (collector, roots), (inline, roots_i)
            ):
                open_cycle(subject, subject_roots)
                subject.collect()
            pool = collector._pool
            for process in list(pool._processes.values()):
                process.kill()
            deadline = time.monotonic() + 10
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool._broken
            for subject in (collector, inline):
                subject.collect()
            assert collector._pool is not pool
            assert collector.watchdog_aborts == 0
            assert collector.stats.snapshot() == inline.stats.snapshot()
            assert sorted(collector.space.object_ids()) == sorted(
                inline.space.object_ids()
            )
        finally:
            collector.close()
        assert segments() <= before

    def test_inline_fallback_reads_the_segment(self):
        before = segments()
        _, roots, collector = setup(
            heap_words=200, backend="flat", marker_workers=1,
            marker_timeout=0.01, marker_retries=0,
        )
        try:
            open_cycle(collector, roots)
            expected = collector.pending_marked_ids()
            assert collector._cycle_checkpoint is None
            # The pool never answers and the watchdog is disarmed (the
            # result was once in hand): the ladder ends at the parent's
            # own read of the segment.
            collector._result = None
            collector._future = _HungFuture()
            marked, _words = collector._await_marker()
            assert frozenset(marked) == expected
            collector.collect()
        finally:
            collector.close()
        assert segments() <= before

    def test_segment_grows_and_old_segments_are_unlinked(self):
        before = segments()
        heap_p, roots_p, pool = setup(
            heap_words=100, backend="flat", marker_workers=1
        )
        heap_i, roots_i, inline = setup(heap_words=100, backend="flat")
        names = []
        try:
            frames = (roots_p.push_frame(), roots_i.push_frame())
            for round_ in range(6):
                # Each round roots more objects than the last, so the
                # arenas outgrow the segment between cycles.
                for subject, frame in zip((pool, inline), frames):
                    for index in range(20 * (round_ + 1)):
                        obj = subject.allocate(3, 1)
                        if index % 3:
                            frame.push(obj)
                    subject.collect()
                names.append(segment_name(pool))
                assert segments() - before == {names[-1]}
            assert len(set(names)) > 1
            assert pool.stats.snapshot() == inline.stats.snapshot()
            assert pool.stats.pauses == inline.stats.pauses
            assert sorted(pool.space.object_ids()) == sorted(
                inline.space.object_ids()
            )
        finally:
            pool.close()
        assert segments() <= before

    def test_checkpoint_released_after_pool_collect(self):
        _, roots, collector = setup(
            heap_words=200, backend="flat", marker_workers=1
        )
        try:
            frame = open_cycle(collector, roots)
            assert collector._cycle_checkpoint is not None
            collector.collect()
            assert collector._cycle_checkpoint is None
            # A marker discarded undrained releases it too.
            open_cycle(collector, roots, frame)
            assert collector._cycle_checkpoint is not None
            collector.on_static_promotion()
            assert collector._cycle_checkpoint is None
        finally:
            collector.close()

    def test_process_exit_leaves_no_segment_and_no_tracker_warning(
        self, tmp_path
    ):
        # A closed collector, an unclosed one dropped mid-cycle, and
        # one still alive at exit: the resource tracker (which reports
        # segments leaked at shutdown on stderr) must find nothing.
        script = tmp_path / "handoff.py"
        script.write_text(
            "from repro.gc.concurrent import ConcurrentCollector\n"
            "from repro.heap.backend import make_heap\n"
            "from repro.heap.roots import RootSet\n"
            "def cycle():\n"
            "    roots = RootSet()\n"
            "    c = ConcurrentCollector(make_heap('flat'), roots, 200,\n"
            "                            marker_workers=1)\n"
            "    frame = roots.push_frame()\n"
            "    while not c.cycle_open:\n"
            "        frame.push(c.allocate(4, 1))\n"
            "    return c\n"
            "closed = cycle(); closed.collect(); closed.close()\n"
            "cycle()\n"
            "kept = cycle()\n"
            "print(kept._segment._shm.name)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "resource_tracker" not in done.stderr, done.stderr
        assert "leaked" not in done.stderr, done.stderr
        assert done.stdout.strip() not in segments()
