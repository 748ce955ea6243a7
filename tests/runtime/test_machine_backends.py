"""Machine-level checks of the id mutator path on both heap backends.

The backend differential in :mod:`repro.verify` replays heap scripts
and never drives :class:`~repro.runtime.machine.Machine`; these tests
do.  Each scale-0 program runs once per (collector, backend) with
CPython's cyclic collector disabled, which checks two things:

* a finished run's machine, heap and handles are freed by reference
  counting alone, leaving nothing for ``gc.collect()`` to find (a
  handle caught in a cycle would stay a GC root until the cyclic
  collector happened to run, making the root set at a safepoint depend
  on the host rather than on the program);
* the two backends agree exactly on results, allocation, operations,
  barrier counts, GC work and collections.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import weakref

import pytest

from repro.gc.registry import collector_factory
from repro.heap.backend import HEAP_BACKENDS
from repro.heap.heap import HeapError
from repro.programs.registry import BENCHMARKS, EXTRA_BENCHMARKS
from repro.runtime.machine import Machine
from repro.runtime.values import Fixnum

PROGRAMS = (*BENCHMARKS, *EXTRA_BENCHMARKS)
COLLECTORS = ("stop-and-copy", "generational")


@functools.lru_cache(maxsize=None)
def scale0_run(name: str, collector: str, backend: str) -> dict:
    """Run one program at scale 0 with the cyclic collector off.

    Returns plain data only (no handles), so the cache keeps nothing
    of the run alive.
    """
    benchmark = next(entry for entry in PROGRAMS if entry.name == name)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        machine = Machine(
            collector_factory(collector), heap_backend=backend
        )
        result = benchmark.run(machine, 0)
        machine.collect()
        stats = machine.stats
        outcome = {
            "result": hashlib.sha256(repr(result).encode()).hexdigest(),
            "words_allocated": stats.words_allocated,
            "operations": machine.operations,
            "stores": machine.barrier.stores,
            "pointer_stores": machine.barrier.pointer_stores,
            "gc_work": stats.gc_work,
            "collections": stats.collections,
            "minor_collections": stats.minor_collections,
        }
        alive = weakref.ref(machine)
        del machine, result, stats
        outcome["freed_by_refcount"] = alive() is None
        outcome["cyclic_garbage"] = gc.collect()
        outcome["garbage_types"] = sorted(
            {type(item).__name__ for item in gc.garbage}
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    return outcome


@pytest.mark.parametrize("backend", HEAP_BACKENDS)
@pytest.mark.parametrize("collector", COLLECTORS)
@pytest.mark.parametrize("name", [entry.name for entry in PROGRAMS])
def test_finished_run_is_freed_by_refcount(name, collector, backend):
    outcome = scale0_run(name, collector, backend)
    assert outcome["freed_by_refcount"], "the machine outlived its run"
    assert outcome["cyclic_garbage"] == 0, outcome["garbage_types"]


@pytest.mark.parametrize("collector", COLLECTORS)
@pytest.mark.parametrize("name", [entry.name for entry in PROGRAMS])
def test_backends_agree_on_programs(name, collector):
    flat = dict(scale0_run(name, collector, "flat"))
    obj = dict(scale0_run(name, collector, "object"))
    for outcome in (flat, obj):
        del outcome["garbage_types"]
    assert flat == obj


@pytest.fixture(params=HEAP_BACKENDS)
def machine(request):
    return Machine(
        collector_factory("generational"), heap_backend=request.param
    )


class TestErrorPaths:
    """The id path raises exactly what the view path raised."""

    def test_car_of_non_pair(self, machine):
        with pytest.raises(TypeError, match="expected a pair"):
            machine.car(machine.make_vector(2))
        with pytest.raises(TypeError, match="expected a pair"):
            machine.cdr(Fixnum(3))

    def test_vector_ref_out_of_range(self, machine):
        vector = machine.make_vector(3)
        with pytest.raises(IndexError, match="out of range 0..2"):
            machine.vector_ref(vector, 3)
        with pytest.raises(IndexError):
            machine.vector_ref(vector, -1)
        with pytest.raises(IndexError):
            machine.vector_set(vector, 3, None)

    def test_slot_holding_dangling_id(self, machine):
        pair = machine.cons(None, None)
        vector = machine.make_vector(1)
        dangling = 10**9  # an id no object has
        machine.heap.store_slot(pair.obj_id, 1, dangling)
        machine.heap.store_slot(vector.obj_id, 0, dangling)
        assert machine.car(pair) is None
        with pytest.raises(HeapError, match="dangling object id"):
            machine.cdr(pair)
        with pytest.raises(HeapError, match="dangling object id"):
            machine.vector_ref(vector, 0)

    def test_static_to_dynamic_store(self, machine):
        symbol = machine.intern("static")
        pair = machine.cons(None, None)
        with pytest.raises(HeapError, match="static objects"):
            machine._store(symbol.obj_id, 0, pair)
        # Static-to-static stays legal.
        machine._store(symbol.obj_id, 0, machine.intern("other"))
