"""The runtime machine: heap + collector + write barrier + roots.

:class:`Machine` is the mutator-facing façade the benchmark programs
run against.  It wires together a simulated heap, a collector, the
write barrier, the root set, and a static area for interned symbols,
and exposes Scheme-flavoured constructors and accessors (``cons``,
``car``, ``vector_set``, flonum arithmetic, ...).

Rooting model: every live :class:`~repro.runtime.values.Ref` handle
held by Python code is a GC root.  A handle holds an object id and
counts itself into the machine's
:class:`~repro.runtime.values.HandleTable`, whose ``ids`` method is a
root provider of the root set.  This mirrors the stack maps/handle
scopes of real runtimes and lets benchmark code be written as ordinary
Python while remaining GC-safe (a collection can strike inside any
constructor).

The mutator path works on ids end to end: reads go through the heap's
id kernels (``kind_of``, ``slot_value``, ``payload_of``), stores through
``store_slot``, allocation through ``Collector.allocate_id``, and the
write barrier receives ``(source id, slot, target id | None)``.  Heap
views are built only for allocation hooks and the cold paths
(static promotion, live-word tracing).

Handle lifetimes decide the root set at every safepoint, so the
runtime builds no reference cycles: nothing a handle, the handle table
or the root set refers to points back at the machine.  A finished
run's machine, heap and handles are then freed by reference counting
alone, at a point fixed by the program rather than by when CPython's
cyclic collector runs.

Static area discipline: objects in the static area (symbols and their
names) are immutable after creation and may only reference other
static objects.  Collectors treat the static area as a boundary — it
is never condemned — so a static-to-dynamic pointer would be unsound;
the machine rejects such stores.
"""

from __future__ import annotations

from typing import Callable

from repro.gc.collector import Collector
from repro.gc.stats import GcStats
from repro.heap.backend import make_heap
from repro.heap.barrier import WriteBarrier
from repro.heap.heap import HeapError, SimulatedHeap
from repro.heap.object_model import HeapObject
from repro.heap.roots import RootSet
from repro.runtime.values import (
    FLONUM_WORDS,
    PAIR_WORDS,
    SYMBOL_WORDS,
    Fixnum,
    HandleTable,
    Ref,
    SchemeValue,
    word_size_of_string,
    word_size_of_vector,
)

__all__ = ["CollectorFactory", "Machine"]

#: Builds a collector over a freshly created heap and root set.
CollectorFactory = Callable[[SimulatedHeap, RootSet], Collector]


class Machine:
    """A complete simulated runtime for one benchmark execution."""

    def __init__(
        self,
        collector_factory: CollectorFactory,
        *,
        heap_backend: str | None = None,
    ) -> None:
        self.heap = make_heap(heap_backend)
        self.roots = RootSet()
        self.collector = collector_factory(self.heap, self.roots)
        self.barrier = WriteBarrier(self.collector.remember_store)
        self.static = self.heap.add_space("static", None)
        self._handles = HandleTable(self.heap)
        self.roots.add_provider(self._handles.ids)
        self._symbols: dict[str, Ref] = {}
        #: Callbacks invoked with a view of each dynamically allocated
        #: object (the only place the mutator path builds views).
        self._allocation_hooks: list[Callable[[HeapObject], None]] = []
        #: Mutator operations executed (reads, stores, arithmetic).
        #: Together with words allocated this is the simulator's proxy
        #: for "mutator time" in Table 3: programs like sboyer that
        #: trade allocation for pointer comparisons keep their mutator
        #: cost while shedding their GC cost.
        self.operations = 0

    # ------------------------------------------------------------------
    # Handles (Python-side roots)
    # ------------------------------------------------------------------

    @property
    def handle_count(self) -> int:
        return len(self._handles)

    # ------------------------------------------------------------------
    # Value encoding
    # ------------------------------------------------------------------

    def _encode(self, value: SchemeValue) -> object:
        """Program value -> slot value (id for handles, raw immediates)."""
        if isinstance(value, Ref):
            return value.obj_id
        if value is None or isinstance(value, (bool, Fixnum)):
            return value
        if isinstance(value, str) and len(value) == 1:
            return value  # a character immediate
        if isinstance(value, (int, float)):
            raise TypeError(
                f"raw Python numbers cannot be stored in the heap; wrap "
                f"ints with Fixnum and box floats with make_flonum "
                f"(got {value!r})"
            )
        raise TypeError(f"not a storable Scheme value: {value!r}")

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------

    def _store(self, oid: int, slot: int, value: SchemeValue) -> None:
        self.operations += 1
        heap = self.heap
        barrier = self.barrier
        if isinstance(value, Ref):
            # A live handle pins its object, so its id is a valid
            # store target as it stands.
            target = value.obj_id
            static = self.static
            if (
                heap.space_if_live(oid) is static
                and heap.space_if_live(target) is not static
            ):
                raise HeapError(
                    "static objects may only reference static objects"
                )
            barrier.stores += 1
            barrier.pointer_stores += 1
            hook = barrier._hook
            if hook is not None:
                hook(oid, slot, target)
            heap.store_slot(oid, slot, target)
        else:
            encoded = self._encode(value)
            barrier.stores += 1
            hook = barrier._hook
            if hook is not None:
                # The SATB barrier must see pointer *deletions* too:
                # overwriting a reference slot with an immediate kills
                # an edge just as surely as storing None.
                hook(oid, slot, None)
            heap.store_slot(oid, slot, encoded)

    def _require(self, value: SchemeValue, kind: str) -> int:
        """The id of ``value`` if it is a handle to a ``kind`` object."""
        if (
            not isinstance(value, Ref)
            or self.heap.kind_of(value.obj_id) != kind
        ):
            raise TypeError(f"expected a {kind}, got {value!r}")
        return value.obj_id

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    def _notify(self, oid: int) -> None:
        obj = self.heap.get(oid)
        for hook in self._allocation_hooks:
            hook(obj)

    def add_allocation_hook(self, hook: Callable[[HeapObject], None]) -> None:
        self._allocation_hooks.append(hook)

    def cons(self, car: SchemeValue, cdr: SchemeValue) -> Ref:
        """Allocate a pair (2 words).

        The two initializing stores are inlined from :meth:`_store`: a
        fresh pair is never in the static area (so the static-reference
        check cannot fire), and its old slot values are None (so an
        immediate store has no deleted edge to report).  Barrier counts
        and the remember-store hook are otherwise identical to
        ``_store``.
        """
        oid = self.collector.allocate_id(PAIR_WORDS, 2, "pair")
        ref = Ref(self._handles, oid)
        store = self.heap.store_slot
        barrier = self.barrier
        hook = barrier._hook
        self.operations += 2
        barrier.stores += 2
        if isinstance(car, Ref):
            target = car.obj_id
            barrier.pointer_stores += 1
            if hook is not None:
                hook(oid, 0, target)
            store(oid, 0, target)
        else:
            store(oid, 0, self._encode(car))
        if isinstance(cdr, Ref):
            target = cdr.obj_id
            barrier.pointer_stores += 1
            if hook is not None:
                hook(oid, 1, target)
            store(oid, 1, target)
        else:
            store(oid, 1, self._encode(cdr))
        if self._allocation_hooks:
            self._notify(oid)
        return ref

    def make_vector(self, length: int, fill: SchemeValue = None) -> Ref:
        """Allocate a vector (length + 1 words)."""
        oid = self.collector.allocate_id(
            word_size_of_vector(length), length, "vector"
        )
        ref = Ref(self._handles, oid)
        if fill is not None:
            for slot in range(length):
                self._store(oid, slot, fill)
        if self._allocation_hooks:
            self._notify(oid)
        return ref

    def make_flonum(self, value: float) -> Ref:
        """Box an IEEE double (4 words, §7.2's flonum representation)."""
        oid = self.collector.allocate_id(FLONUM_WORDS, 0, "flonum")
        self.heap.set_payload(oid, float(value))
        ref = Ref(self._handles, oid)
        if self._allocation_hooks:
            self._notify(oid)
        return ref

    def make_string(self, text: str) -> Ref:
        """Allocate a string (1 + ceil(n/4) words)."""
        oid = self.collector.allocate_id(
            word_size_of_string(len(text)), 0, "string"
        )
        self.heap.set_payload(oid, text)
        ref = Ref(self._handles, oid)
        if self._allocation_hooks:
            self._notify(oid)
        return ref

    def intern(self, name: str) -> Ref:
        """Return the interned symbol for ``name`` (static area).

        Symbols and their print names live in the static area, are
        never collected, and do not advance the allocation clock —
        matching the paper's setup, where the static area holds "code,
        constants, and global data" outside the measured heap.  The
        symbol table keeps one handle per symbol, so interned symbols
        stay rooted.
        """
        existing = self._symbols.get(name)
        if existing is not None:
            return existing
        heap = self.heap
        string_id = heap.allocate_id(
            word_size_of_string(len(name)),
            0,
            self.static,
            "string",
            advance_clock=False,
        )
        heap.set_payload(string_id, name)
        symbol_id = heap.allocate_id(
            SYMBOL_WORDS, 1, self.static, "symbol", advance_clock=False
        )
        heap.set_payload(symbol_id, name)
        heap.store_slot(symbol_id, 0, string_id)
        ref = Ref(self._handles, symbol_id)
        self._symbols[name] = ref
        return ref

    # ------------------------------------------------------------------
    # Pairs
    # ------------------------------------------------------------------

    def car(self, pair: SchemeValue) -> SchemeValue:
        self.operations += 1
        heap = self.heap
        if not isinstance(pair, Ref) or heap.kind_of(pair.obj_id) != "pair":
            raise TypeError(f"expected a pair, got {pair!r}")
        value = heap.slot_value(pair.obj_id, 0)
        if type(value) is int:
            return Ref(self._handles, value)
        return value

    def cdr(self, pair: SchemeValue) -> SchemeValue:
        self.operations += 1
        heap = self.heap
        if not isinstance(pair, Ref) or heap.kind_of(pair.obj_id) != "pair":
            raise TypeError(f"expected a pair, got {pair!r}")
        value = heap.slot_value(pair.obj_id, 1)
        if type(value) is int:
            return Ref(self._handles, value)
        return value

    def set_car(self, pair: SchemeValue, value: SchemeValue) -> None:
        self._store(self._require(pair, "pair"), 0, value)

    def set_cdr(self, pair: SchemeValue, value: SchemeValue) -> None:
        self._store(self._require(pair, "pair"), 1, value)

    # ------------------------------------------------------------------
    # Vectors
    # ------------------------------------------------------------------

    def vector_length(self, vector: SchemeValue) -> int:
        return self.heap.slot_count_of(self._require(vector, "vector"))

    def _vector_slot(self, vector: SchemeValue, index: int) -> int:
        """The id of a vector whose slot ``index`` exists."""
        oid = self._require(vector, "vector")
        length = self.heap.slot_count_of(oid)
        if not 0 <= index < length:
            raise IndexError(
                f"vector index {index} out of range 0..{length - 1}"
            )
        return oid

    def vector_ref(self, vector: SchemeValue, index: int) -> SchemeValue:
        self.operations += 1
        value = self.heap.slot_value(self._vector_slot(vector, index), index)
        if type(value) is int:
            return Ref(self._handles, value)
        return value

    def vector_set(
        self, vector: SchemeValue, index: int, value: SchemeValue
    ) -> None:
        self._store(self._vector_slot(vector, index), index, value)

    # ------------------------------------------------------------------
    # Strings and symbols
    # ------------------------------------------------------------------

    def string_value(self, string: SchemeValue) -> str:
        return str(self.heap.payload_of(self._require(string, "string")))

    def symbol_name(self, symbol: SchemeValue) -> str:
        return str(self.heap.payload_of(self._require(symbol, "symbol")))

    # ------------------------------------------------------------------
    # Flonums
    # ------------------------------------------------------------------

    def flonum_value(self, flonum: SchemeValue) -> float:
        self.operations += 1
        payload = self.heap.payload_of(self._require(flonum, "flonum"))
        assert isinstance(payload, float)
        return payload

    def _flonum_binop(
        self, a: SchemeValue, b: SchemeValue, op: Callable[[float, float], float]
    ) -> Ref:
        result = op(self.flonum_value(a), self.flonum_value(b))
        return self.make_flonum(result)

    def fl_add(self, a: SchemeValue, b: SchemeValue) -> Ref:
        """Flonum addition: allocates the boxed result, as Larceny does."""
        return self._flonum_binop(a, b, lambda x, y: x + y)

    def fl_sub(self, a: SchemeValue, b: SchemeValue) -> Ref:
        return self._flonum_binop(a, b, lambda x, y: x - y)

    def fl_mul(self, a: SchemeValue, b: SchemeValue) -> Ref:
        return self._flonum_binop(a, b, lambda x, y: x * y)

    def fl_div(self, a: SchemeValue, b: SchemeValue) -> Ref:
        return self._flonum_binop(a, b, lambda x, y: x / y)

    def fl_sqrt(self, a: SchemeValue) -> Ref:
        return self.make_flonum(self.flonum_value(a) ** 0.5)

    def fl_less(self, a: SchemeValue, b: SchemeValue) -> bool:
        return self.flonum_value(a) < self.flonum_value(b)

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------

    def collect(self) -> None:
        """Request a full collection (the paper's mutator-initiated GC)."""
        self.collector.collect()

    def full_collect_to_static(self) -> int:
        """§8.4's full collection: promote all live storage to static.

        "A full collection empties the remembered set and promotes all
        live storage to the static area.  Full collections occur only
        when requested explicitly by the mutator."  Returns the words
        promoted.  Promoted objects fall under the static-area
        discipline: later stores into them may only reference static
        objects (new dynamic data must not be reachable from the
        uncollected static area).
        """
        heap = self.heap
        reached = heap.reachable_from(self.roots.ids())
        promoted = 0
        for obj_id in reached:
            obj = heap.get(obj_id)
            if obj.space is not self.static:
                heap.move(obj, self.static)
                promoted += obj.size
        # Everything left in a dynamic space is garbage.
        for space in list(heap.spaces()):
            if space is self.static:
                continue
            for obj in list(space.objects()):
                heap.free(obj)
        self.collector.on_static_promotion()
        return promoted

    @property
    def stats(self) -> GcStats:
        return self.collector.stats

    @property
    def clock(self) -> int:
        """Words of dynamic allocation so far (the time axis)."""
        return self.heap.clock

    @property
    def mutator_work(self) -> int:
        """Mutator time proxy: words allocated plus operations executed."""
        return self.stats.words_allocated + self.operations

    def live_words(self) -> int:
        """Words currently reachable from the roots (an exact trace)."""
        total = 0
        for obj_id in self.heap.reachable_from(self.roots.ids()):
            obj = self.heap.get(obj_id)
            if obj.space is not self.static:
                total += obj.size
        return total

    def describe(self) -> str:
        return f"machine({self.collector.describe()})"
