"""Tests for the runtime machine: handles, constructors, barrier routing."""

from __future__ import annotations

import gc as python_gc

import pytest

from repro.heap.heap import HeapError
from repro.runtime.machine import Machine
from repro.runtime.values import FLONUM_WORDS, PAIR_WORDS, Fixnum, Ref
from repro.trace.collector import TracingCollector


@pytest.fixture
def machine():
    return Machine(TracingCollector)


class TestHandles:
    def test_handle_roots_object(self, machine):
        pair = machine.cons(Fixnum(1), None)
        assert pair.obj_id in set(machine.roots.ids())

    def test_dropping_handle_unroots(self, machine):
        pair = machine.cons(Fixnum(1), None)
        obj_id = pair.obj_id
        del pair
        python_gc.collect()
        assert obj_id not in set(machine.roots.ids())

    def test_multiple_handles_counted(self, machine):
        pair = machine.cons(Fixnum(1), None)
        other = machine.car(machine.cons(pair, None))  # a second handle
        assert isinstance(other, Ref)
        del pair
        python_gc.collect()
        assert other.obj_id in set(machine.roots.ids())

    def test_heap_reference_keeps_object_without_handle(self, machine):
        outer = machine.cons(None, None)
        inner = machine.cons(Fixnum(42), None)
        machine.set_car(outer, inner)
        inner_id = inner.obj_id
        del inner
        python_gc.collect()
        machine.collect()
        assert machine.heap.contains_id(inner_id)
        assert machine.car(machine.car(outer)) == Fixnum(42)


class TestConstructors:
    def test_cons_size_and_kind(self, machine):
        pair = machine.cons(Fixnum(1), Fixnum(2))
        assert pair.is_pair()
        assert pair.obj.size == PAIR_WORDS
        assert machine.car(pair) == Fixnum(1)
        assert machine.cdr(pair) == Fixnum(2)

    def test_vector(self, machine):
        vec = machine.make_vector(3, fill=Fixnum(0))
        assert vec.is_vector()
        assert vec.obj.size == 4
        assert machine.vector_length(vec) == 3
        machine.vector_set(vec, 1, Fixnum(9))
        assert machine.vector_ref(vec, 1) == Fixnum(9)
        assert machine.vector_ref(vec, 0) == Fixnum(0)

    def test_vector_bounds_checked(self, machine):
        vec = machine.make_vector(2)
        with pytest.raises(IndexError):
            machine.vector_ref(vec, 2)
        with pytest.raises(IndexError):
            machine.vector_set(vec, -1, None)

    def test_flonum_is_boxed_four_words(self, machine):
        flo = machine.make_flonum(3.25)
        assert flo.is_flonum()
        assert flo.obj.size == FLONUM_WORDS
        assert machine.flonum_value(flo) == 3.25

    def test_string(self, machine):
        s = machine.make_string("hello")
        assert s.is_string()
        assert s.obj.size == 1 + (5 + 3) // 4
        assert machine.string_value(s) == "hello"

    def test_type_errors(self, machine):
        flo = machine.make_flonum(1.0)
        with pytest.raises(TypeError):
            machine.car(flo)
        with pytest.raises(TypeError):
            machine.vector_ref(flo, 0)

    def test_raw_python_numbers_rejected_in_slots(self, machine):
        pair = machine.cons(None, None)
        with pytest.raises(TypeError):
            machine.set_car(pair, 5)
        with pytest.raises(TypeError):
            machine.set_car(pair, 2.5)


class TestSymbols:
    def test_interning_is_idempotent(self, machine):
        a = machine.intern("foo")
        b = machine.intern("foo")
        assert a == b
        assert machine.symbol_name(a) == "foo"

    def test_symbols_live_in_static_area(self, machine):
        sym = machine.intern("bar")
        assert sym.obj.space is machine.static

    def test_static_allocation_does_not_advance_clock(self, machine):
        before = machine.clock
        machine.intern("baz")
        assert machine.clock == before

    def test_static_to_dynamic_store_rejected(self, machine):
        sym = machine.intern("quux")
        pair = machine.cons(None, None)
        with pytest.raises(HeapError):
            machine._store(sym.obj_id, 0, pair)

    def test_symbols_survive_collection(self, machine):
        sym = machine.intern("keep")
        machine.collect()
        assert machine.heap.contains_id(sym.obj_id)


class TestFlonumArithmetic:
    def test_each_operation_allocates(self, machine):
        a = machine.make_flonum(1.5)
        b = machine.make_flonum(2.5)
        before = machine.stats.words_allocated
        c = machine.fl_add(a, b)
        assert machine.flonum_value(c) == 4.0
        assert machine.stats.words_allocated - before == FLONUM_WORDS

    def test_operations(self, machine):
        a = machine.make_flonum(6.0)
        b = machine.make_flonum(2.0)
        assert machine.flonum_value(machine.fl_sub(a, b)) == 4.0
        assert machine.flonum_value(machine.fl_mul(a, b)) == 12.0
        assert machine.flonum_value(machine.fl_div(a, b)) == 3.0
        assert machine.flonum_value(machine.fl_sqrt(machine.make_flonum(9.0))) == 3.0
        assert machine.fl_less(b, a)
        assert not machine.fl_less(a, b)


class TestBarrierRouting:
    def test_stores_counted(self, machine):
        pair = machine.cons(Fixnum(1), None)  # 2 initializing stores
        machine.set_car(pair, Fixnum(2))
        assert machine.barrier.stores == 3

    def test_pointer_stores_counted(self, machine):
        inner = machine.cons(None, None)  # 2 stores, 0 pointer stores
        machine.cons(inner, None)  # car store is a pointer store
        assert machine.barrier.pointer_stores == 1

    def test_live_words_excludes_static(self, machine):
        machine.intern("sym")
        pair = machine.cons(None, None)
        assert machine.live_words() == PAIR_WORDS
        del pair


class TestAllocationHooks:
    def test_hooks_see_every_dynamic_allocation(self, machine):
        seen = []
        machine.add_allocation_hook(lambda obj: seen.append(obj.kind))
        machine.cons(None, None)
        machine.make_flonum(1.0)
        machine.intern("not-dynamic")
        assert seen == ["pair", "flonum"]
