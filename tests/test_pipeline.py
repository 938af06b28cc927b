"""Columnar event pipeline: packing, equivalence, spilling, backends.

The VM emits packed :class:`EventChunk` s only; tuples survive as the
decoded view (``EventChunk.to_tuples``) that the per-event reference
walkers read.  The contract: every columnar consumer is an exact drop-in
for its oracle over the decoded view — bit-identical DependenceStore
contents, identical control records, PET trees, CU registries and skip
statistics — while the spilling sink bounds resident trace memory
without losing re-iterability.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cu import topdown
from repro.cu.topdown import TopDownBuilder
from repro.engine import DiscoveryConfig, DiscoveryEngine
from repro.mir.lowering import compile_source
from repro.profiler.backends import make_backend
from repro.profiler.parallel import ParallelProfiler
from repro.profiler.pet import PETBuilder
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import PerfectShadow, SignatureShadow
from repro.profiler.skipping import SkippingProfiler
from repro.profiler.vectorized import VectorizedProfiler
from repro.runtime.events import (
    EVENT_DTYPE,
    KIND_CODE,
    EventChunk,
    SpillingTraceSink,
    StringTable,
    TraceSink,
    load_trace,
    save_trace,
)
from repro.runtime.interpreter import VM, run_source
from repro.workloads import get_workload

TEXTBOOK = "histogram"
NAS = "CG"


def record(module, entry: str, **vm_kwargs):
    trace = TraceSink()
    vm = VM(module, trace, **vm_kwargs)
    vm.run(entry)
    return trace, vm


def decoded_chunks(trace) -> list:
    """The trace's chunks as decoded tuple lists (the oracle's input)."""
    return [list(chunk.to_tuples()) for chunk in trace.chunks]


@pytest.fixture(scope="module")
def recorded():
    """Recorded traces for the textbook + NAS workloads."""
    out = {}
    for name in (TEXTBOOK, NAS):
        workload = get_workload(name)
        out[name] = record(workload.compile(1), workload.entry)
    return out


class TestPackedFormat:
    def test_decoded_stream_is_bit_identical(self, recorded):
        """The decoded view is lossless: re-packing it reproduces the
        VM's rows and string ids exactly."""
        for name, (trace, vm) in recorded.items():
            for chunk in trace.chunks:
                strings = StringTable(list(vm.strings.values))
                repacked = EventChunk.from_tuples(chunk.to_tuples(), strings)
                assert np.array_equal(repacked.rows, chunk.rows), name
                assert strings.values == vm.strings.values, name

    def test_event_dtype_layout(self, recorded):
        chunk = recorded[TEXTBOOK][0].chunks[0]
        assert isinstance(chunk, EventChunk)
        structured = chunk.structured
        assert structured.dtype == EVENT_DTYPE
        assert structured.shape[0] == len(chunk)
        assert chunk.nbytes == len(chunk) * EVENT_DTYPE.itemsize

    def test_pack_roundtrip_from_tuples(self, recorded):
        trace = recorded[TEXTBOOK][0]
        events = list(trace.events())[:500]
        chunk = EventChunk.from_tuples(events)
        assert list(chunk.to_tuples()) == events
        taken = chunk.take(np.arange(10))
        assert list(taken) == events[:10]

    def test_string_table_reserves_none(self):
        table = StringTable()
        assert table.decode(0) is None
        sid = table.intern("x")
        assert table.intern("x") == sid
        assert table.decode(sid) == "x"
        restored = StringTable.from_array(table.to_array())
        assert restored.values == table.values


#: a loop, a global read/write, a call with a local frame (ALLOC/FREE;
#: base != size, so the two fields cannot swap unnoticed)
GOLDEN_SEQUENTIAL = """int g;
int add(int x) {
  int t[2];
  t[1] = x + g;
  return t[1];
}
int main() {
  for (int i = 0; i < 2; i++) {
    g = g + i;
  }
  return add(g);
}
"""

GOLDEN_SEQUENTIAL_EVENTS = [
    ("A", 1, 1, 0, 0),
    ("C", "main", 7, 0, 0, 0),
    ("G", 3, "loop", 8, 0, 1),
    ("W", 1, 8, "i", 5, 0, 2, 1, 3),
    ("R", 1, 8, "i", 6, 0, 4, 1, 3),
    ("R", 0, 9, "g", 7, 0, 7, 1, 0),
    ("R", 1, 9, "i", 8, 0, 8, 1, 3),
    ("W", 0, 9, "g", 9, 0, 10, 1, 0),
    ("R", 1, 8, "i", 10, 0, 12, 1, 3),
    ("W", 1, 8, "i", 11, 0, 14, 1, 3),
    ("I", 3, 0, 15),
    ("R", 1, 8, "i", 6, 0, 17, 2, 3),
    ("R", 0, 9, "g", 7, 0, 20, 2, 0),
    ("R", 1, 9, "i", 8, 0, 21, 2, 3),
    ("W", 0, 9, "g", 9, 0, 23, 2, 0),
    ("R", 1, 8, "i", 10, 0, 25, 2, 3),
    ("W", 1, 8, "i", 11, 0, 27, 2, 3),
    ("I", 3, 0, 28),
    ("R", 1, 8, "i", 6, 0, 30, 3, 3),
    ("E", 3, "loop", 10, 0, 33, 2),
    ("R", 0, 11, "g", 12, 0, 34, 0, 0),
    ("A", 2, 3, 0, 35),
    ("C", "add", 2, 0, 35, 11),
    ("W", 2, 2, "x", 0, 0, 36, 0, 1),
    ("R", 2, 4, "x", 1, 0, 39, 0, 1),
    ("R", 0, 4, "g", 2, 0, 40, 0, 0),
    ("W", 4, 4, "t", 3, 0, 42, 0, 2),
    ("R", 4, 5, "t", 4, 0, 45, 0, 2),
    ("X", "add", 0, 46),
    ("F", 2, 3, 0, 46),
    ("X", "main", 0, 47),
    ("F", 1, 1, 0, 47),
]

#: the thread families: SPAWN, LOCK, UNLOCK, JOINED
GOLDEN_THREADED = """int g;
void worker() {
  lock(1);
  g = g + 1;
  unlock(1);
}
int main() {
  int t = spawn worker();
  join(t);
  return g;
}
"""

GOLDEN_THREADED_EVENTS = [
    ("A", 1, 1, 0, 0),
    ("C", "main", 7, 0, 0, 0),
    ("C", "worker", 2, 1, 1, 8),
    ("S", 1, 0, 1),
    ("W", 1, 8, "t", 2, 0, 2, 0, 1),
    ("R", 1, 9, "t", 3, 0, 3, 0, 1),
    ("L", 1, 1, 5),
    ("R", 0, 4, "g", 0, 1, 6, 0, 0),
    ("W", 0, 4, "g", 1, 1, 8, 0, 0),
    ("U", 1, 1, 9),
    ("X", "worker", 1, 10),
    ("J", 1, 0, 11),
    ("R", 0, 10, "g", 4, 0, 12, 0, 0),
    ("X", "main", 0, 13),
    ("F", 1, 1, 0, 13),
]


class TestTupleViewGolden:
    """The decoded tuple view, pinned event by event.

    Every family's field order, kind letter and int code, and every
    interned name the view decodes, is hard-coded here; both VM cores
    must reproduce it exactly.
    """

    @pytest.mark.parametrize("dispatch", ["compiled", "switch"])
    @pytest.mark.parametrize(
        "source,expected",
        [
            (GOLDEN_SEQUENTIAL, GOLDEN_SEQUENTIAL_EVENTS),
            (GOLDEN_THREADED, GOLDEN_THREADED_EVENTS),
        ],
        ids=["sequential", "threaded"],
    )
    def test_decoded_events(self, source, expected, dispatch):
        _, trace, vm = run_source(source, dispatch=dispatch)
        assert vm.effective_dispatch == dispatch
        assert list(trace.events()) == expected
        rows = np.concatenate([chunk.rows for chunk in trace.chunks])
        assert rows[:, 0].tolist() == [KIND_CODE[ev[0]] for ev in expected]

    def test_kind_codes(self):
        assert KIND_CODE == {
            "R": 0, "W": 1, "G": 2, "E": 3, "I": 4, "C": 5, "X": 6,
            "A": 7, "F": 8, "L": 9, "U": 10, "S": 11, "J": 12,
        }


class TestSinkAccounting:
    def test_n_events_single_source_of_truth(self, recorded):
        for trace, _ in recorded.values():
            assert trace.n_events == sum(len(c) for c in trace.chunks)
            assert len(trace) == trace.n_events
            assert trace.n_events == sum(1 for _ in trace.events())

    def test_nbytes_observable(self, recorded):
        trace = recorded[TEXTBOOK][0]
        assert trace.nbytes == trace.n_events * 72
        assert trace.nbytes == sum(c.rows.nbytes for c in trace.chunks)


def oracle_profile(trace, vm, shadow=None):
    """The loop oracle over the decoded tuple view."""
    profiler = SerialProfiler(
        shadow if shadow is not None else PerfectShadow(), vm.loop_signature
    )
    for chunk in decoded_chunks(trace):
        profiler.process_chunk(chunk)
    return profiler


def columnar_profile(trace, vm, slots=None):
    """The columnar fast path: the vectorized core over packed chunks."""
    profiler = VectorizedProfiler(slots, vm.loop_signature)
    for chunk in trace.chunks:
        profiler.process_chunk(chunk)
    profiler.flush()
    return profiler


class TestSerialEquivalence:
    @pytest.mark.parametrize("name", [TEXTBOOK, NAS])
    def test_dependence_store_bit_identical(self, recorded, name):
        oracle = oracle_profile(*recorded[name])
        packed = columnar_profile(*recorded[name])
        assert oracle.store.to_dict() == packed.store.to_dict()
        assert {k: r.to_dict() for k, r in oracle.control.items()} == {
            k: r.to_dict() for k, r in packed.control.items()
        }
        assert oracle.stats.reads == packed.stats.reads
        assert oracle.stats.writes == packed.stats.writes
        assert oracle.stats.evictions == packed.stats.evictions
        assert oracle.stats.deps_built == oracle.store.raw_occurrences
        assert oracle.store.raw_occurrences == packed.store.raw_occurrences

    @pytest.mark.parametrize("name", [TEXTBOOK, NAS])
    def test_signature_shadow_collisions_unchanged(self, recorded, name):
        shadow = SignatureShadow(251)
        oracle = oracle_profile(*recorded[name], shadow=shadow)
        packed = columnar_profile(*recorded[name], slots=251)
        assert oracle.store.to_dict() == packed.store.to_dict()
        assert shadow.collisions == packed.collisions
        assert shadow.collisions > 0  # 251 slots must alias something

    def test_large_op_ids_do_not_alias_memo_keys(self):
        """op_id past 11 bits must not merge distinct deps on either core."""
        events = [
            ("W", 1, 1, "x", 5, 0, 1, 0, 1),
            ("R", 1, 10, "x", 5, 0, 2, 0, 1),
            ("R", 1, 99, "y", 4101, 0, 3, 0, 2),
        ]
        oracle = SerialProfiler(PerfectShadow())
        oracle.process_chunk(events)
        packed = VectorizedProfiler()
        packed.process_chunk(EventChunk.from_tuples(events))
        packed.flush()
        assert oracle.store.to_dict() == packed.store.to_dict()
        assert len(packed.store) == 2

    def test_multithreaded_equivalence(self):
        src = """
        int counter;
        int partial[4];
        void worker(int id, int n) {
          int local = 0;
          for (int i = 0; i < n; i++) { local += 1; }
          partial[id] = local;
          lock(1);
          counter += local;
          unlock(1);
        }
        int main() {
          int t0 = spawn worker(0, 25);
          int t1 = spawn worker(1, 25);
          join(t0); join(t1);
          return counter;
        }
        """
        module = compile_source(src)
        trace, vm = record(module, "main", quantum=8)
        assert len({row[5] for row in trace.events() if row[0] == "R"}) > 1
        assert (
            oracle_profile(trace, vm).store.to_dict()
            == columnar_profile(trace, vm).store.to_dict()
        )


class TestParallelEquivalence:
    @pytest.mark.parametrize("name", [TEXTBOOK, NAS])
    def test_sharded_store_matches_tuple_path(self, recorded, name):
        trace, vm = recorded[name]
        for detect in ("loop", "vectorized"):
            profiler = ParallelProfiler(
                4, sig_decoder=vm.loop_signature, redistribute_every=4,
                detect=detect,
            )
            for chunk in trace.chunks:
                profiler.process_chunk(chunk)
            store = profiler.finish()
            assert profiler.report.produced_events > 0
            assert profiler.report.redistributions > 0
            assert store.to_dict() == oracle_profile(trace, vm).store.to_dict()


class TestSkippingAndPET:
    def test_skipping_accepts_packed_chunks(self, recorded):
        trace, vm = recorded[TEXTBOOK]
        results = {}
        for path, chunks in (
            ("tuple", decoded_chunks(trace)), ("columnar", trace.chunks),
        ):
            skipper = SkippingProfiler(
                SerialProfiler(PerfectShadow(), vm.loop_signature)
            )
            for chunk in chunks:
                skipper.process_chunk(chunk)
            results[path] = skipper
        assert (
            results["tuple"].store.to_dict()
            == results["columnar"].store.to_dict()
        )
        assert results["columnar"].stats.skipped > 0
        assert (
            results["tuple"].stats.skipped
            == results["columnar"].stats.skipped
        )

    def test_pet_tree_identical(self, recorded):
        for name, (trace, _) in recorded.items():
            trees = {}
            for path, chunks in (
                ("tuple", decoded_chunks(trace)), ("columnar", trace.chunks),
            ):
                pet = PETBuilder()
                for chunk in chunks:
                    pet.process_chunk(chunk)
                trees[path] = pet
            assert (
                trees["tuple"].format_tree(max_depth=12)
                == trees["columnar"].format_tree(max_depth=12)
            ), name


def _cu_result(builder) -> tuple:
    return builder.build().to_dict(), dict(builder.line_counts)


def _oracle_cus(module, events) -> tuple:
    builder = TopDownBuilder(module)
    builder.process(events)
    return _cu_result(builder)


def _scanned_cus(module, chunks) -> tuple:
    builder = TopDownBuilder(module)
    builder.process_chunks(chunks)
    return _cu_result(builder)


def _cut(chunks, n: int) -> list:
    """The same rows re-chunked into ``n``-row chunks."""
    return [
        EventChunk(chunk.rows[i:i + n], chunk.strings)
        for chunk in chunks
        for i in range(0, len(chunk), n)
    ]


#: a module for hand-built streams.  Regions: 1 = f (lines 3-10), 2 = the
#: loop in f (5-8), 3 = main (11-18), 4 = the loop in main (13-16).  Vars:
#: g = 0, a = 1, n = 2, s = 3, i = 4, t = 5, k = 6.  Global to f: g, a, n;
#: to loop 2: also s; to main: g; to loop 4: g, t.
EDGE_SOURCE = """int g;
int a[8];
int f(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) {
    s = s + a[i];
    g = s;
  }
  return s;
}
int main() {
  int t = 0;
  for (int k = 0; k < 3; k++) {
    t = t + f(k);
    g = t;
  }
  return t;
}
"""


def _rd(line, var_id, tid=0):
    return ("R", 100 + var_id, line, f"v{var_id}", 0, tid, 0, 0, var_id)


def _wr(line, var_id, tid=0):
    return ("W", 100 + var_id, line, f"v{var_id}", 0, tid, 0, 0, var_id)


def _bgn(region, tid=0):
    return ("G", region, "loop", 0, tid, 0)


def _end(region, tid=0):
    return ("E", region, "loop", 0, tid, 0, 0)


def _iter(region, tid=0):
    return ("I", region, tid, 0)


def _call(func, tid=0):
    return ("C", func, 0, tid, 0, 0)


def _ret(func, tid=0):
    return ("X", func, tid, 0)


#: streams no registry trace produces, one per branch of the marker
#: walk's stack rule (``TopDownBuilder._close``, ITER matching, thread
#: separation).  Each ends with reads whose outcome a wrong rule changes.
EDGE_STREAMS = {
    "fexit_pops_open_loop": [
        _call("main"), _bgn(4), _wr(15, 0), _rd(14, 0),
        _call("f"), _bgn(2), _wr(6, 3), _rd(7, 3), _wr(7, 0),
        _ret("f"),  # loop 2 is still open: both instances pop
        _rd(9, 0), _iter(4), _rd(14, 0), _end(4), _ret("main"),
    ],
    "end_without_match_empties_stack": [
        _call("main"), _bgn(4), _wr(14, 5), _wr(15, 0),
        _end(2),  # no open instance of region 2: the stack empties
        _rd(15, 0), _rd(14, 5), _call("main"), _wr(12, 0), _rd(12, 0),
    ],
    "close_on_empty_stack": [
        _ret("main"), _end(4), _rd(14, 0), _call("main"),
        _end(4), _wr(14, 0), _rd(15, 0), _ret("main"),
        _ret("main"), _end(4), _call("main"), _rd(16, 0),
    ],
    "iter_not_innermost_or_unmatched": [
        _call("main"), _bgn(4), _wr(15, 0), _call("f"), _bgn(2),
        _wr(7, 0), _iter(4),  # region 4 sits below f and loop 2
        _rd(14, 0), _rd(7, 0), _iter(9),  # no such region
        _iter(1), _rd(6, 0), _wr(6, 3), _iter(2), _rd(7, 3), _rd(8, 0),
        _end(2), _ret("f"), _rd(15, 0),
    ],
    "call_outside_module": [
        _call("main"), _wr(14, 0), _call("printf"), _rd(12, 0),
        _ret("printf"), _rd(15, 0), _ret("printf"), _rd(17, 0),
    ],
    "rows_without_open_instance": [
        _wr(14, 0, tid=1), _rd(15, 0, tid=1), _call("main"),
        _wr(14, 0), _rd(13, 0, tid=1), _rd(15, 0), _rd(7, -1),
        _wr(7, 99), _rd(16, 0, tid=1),
    ],
    "interleaved_threads": [
        _call("main"), _call("f", tid=1), _wr(15, 0), _rd(7, 0, tid=1),
        _bgn(2, tid=1), _wr(7, 0, tid=1), _bgn(4), _rd(14, 0),
        _iter(2, tid=1), _rd(6, 0, tid=1), _iter(4), _wr(13, 5),
        _rd(14, 5, tid=1), _end(2, tid=1), _ret("f", tid=1), _rd(14, 5),
        _end(4), _ret("main"),
    ],
}


class TestCUWalk:
    """The segment scan (``process_chunks``) against the decoded-view
    oracle (``process``): same registry, same line counts."""

    @pytest.mark.parametrize("name", [TEXTBOOK, NAS])
    def test_topdown_registry_identical(self, recorded, name):
        trace, _ = recorded[name]
        module = get_workload(name).compile(1)
        assert _scanned_cus(module, trace.iter_chunks()) == _oracle_cus(
            module, trace.events()
        )

    @pytest.mark.parametrize(
        "name", ["health", "fib", "splash2x-fft", "splash2x-ocean"]
    )
    def test_recut_registry_identical(self, name, monkeypatch):
        """1-row chunks (joined into batches) and 7-row batches, which
        cut the trace inside every kind of marker run and carry stacks
        and written-sets across each cut."""
        workload = get_workload(name)
        module = workload.compile(1)
        trace, _ = record(module, workload.entry)
        expected = _oracle_cus(module, trace.events())
        assert _scanned_cus(module, _cut(trace.chunks, 1)) == expected
        monkeypatch.setattr(topdown, "BATCH_ROWS", 7)
        assert _scanned_cus(module, _cut(trace.chunks, 7)) == expected

    @pytest.mark.parametrize("batch_rows", [1, 7, topdown.BATCH_ROWS])
    @pytest.mark.parametrize("case", sorted(EDGE_STREAMS))
    def test_edge_stream_identical(self, case, batch_rows, monkeypatch):
        module = compile_source(EDGE_SOURCE)
        chunk = EventChunk.from_tuples(EDGE_STREAMS[case])
        expected = _oracle_cus(module, chunk.to_tuples())
        monkeypatch.setattr(topdown, "BATCH_ROWS", batch_rows)
        got = _scanned_cus(module, _cut([chunk], batch_rows))
        assert got == expected

    def test_edge_streams_reach_every_outcome(self):
        """The hand-built streams are not vacuous: together they execute
        regions, split some at violating reads and leave others whole."""
        module = compile_source(EDGE_SOURCE)
        whole = split = 0
        for events in EDGE_STREAMS.values():
            registry, counts = _oracle_cus(module, events)
            assert counts
            for info in registry["regions"]:
                if info["is_single_cu"]:
                    whole += 1
                else:
                    split += 1
        assert whole and split

    def test_engine_never_decodes(self, monkeypatch, tmp_path):
        """``engine.build_cus()`` runs the segment scan only, and a raw
        spilled trace (read-only memory-mapped segments) gives the
        resident trace's registry without a byte of a segment changing."""
        workload = get_workload(TEXTBOOK)
        base = DiscoveryConfig(
            source=workload.source(1), name=TEXTBOOK,
            vm_kwargs={"chunk_size": 256},
        )
        resident = DiscoveryEngine(config=base)
        spilled = DiscoveryEngine(config=base.replace(
            spill_trace=True, max_resident_chunks=4,
            spill_dir=str(tmp_path), spill_compress=False,
        ))
        resident.profile()
        trace = spilled.profile().trace
        segments = {
            path: open(path, "rb").read() for path in trace.segment_paths
        }
        assert segments and all(p.endswith(".npy") for p in segments)

        def forbidden(*args, **kwargs):
            raise AssertionError("build_cus decoded the trace")

        monkeypatch.setattr(TopDownBuilder, "process", forbidden)
        monkeypatch.setattr(EventChunk, "to_tuples", forbidden)
        monkeypatch.setattr(EventChunk, "__iter__", forbidden)
        cus = {
            tag: engine.build_cus()
            for tag, engine in (("resident", resident), ("spilled", spilled))
        }
        monkeypatch.undo()
        assert (
            cus["spilled"].registry.to_dict()
            == cus["resident"].registry.to_dict()
        )
        assert cus["spilled"].line_counts == cus["resident"].line_counts
        for path, data in segments.items():
            assert open(path, "rb").read() == data
        trace.close()


class TestSpillingTraceSink:
    def test_spills_and_reiterates(self, tmp_path):
        workload = get_workload(TEXTBOOK)
        module = workload.compile(1)
        full = TraceSink()
        vm = VM(module, full, chunk_size=256)
        vm.run(workload.entry)

        spilling = SpillingTraceSink(8, spill_dir=str(tmp_path))
        vm2 = VM(module, spilling, chunk_size=256)
        vm2.run(workload.entry)

        assert spilling.resident_chunks <= 8
        assert spilling.n_spilled_chunks > 0
        assert spilling.spilled_bytes > 0
        assert spilling.n_events == full.n_events
        assert spilling.nbytes < full.nbytes
        # re-iterable: two full passes decode identically
        first = list(spilling.events())
        second = list(spilling.events())
        assert first == second == list(full.events())
        spilling.close()
        assert not any(
            f.startswith("segment-") for f in os.listdir(tmp_path)
        )

    def test_rejects_tuple_chunks(self, tmp_path):
        _, trace, _ = run_source(
            "int main() { int s = 0; "
            "for (int i = 0; i < 50; i++) { s += i; } return s; }"
        )
        decoded = decoded_chunks(trace)
        spilling = SpillingTraceSink(1)
        for sink in (TraceSink(), spilling):
            with pytest.raises(TypeError, match="EventChunk"):
                sink(decoded[0])
            assert sink.n_events == 0
        resident = TraceSink()
        resident.chunks.append(decoded[0])
        with pytest.raises(TypeError, match="EventChunk"):
            save_trace(resident, str(tmp_path / "trace.npz"))
        spilling.close()

    def test_save_and_load_roundtrip(self, tmp_path):
        workload = get_workload(TEXTBOOK)
        module = workload.compile(1)
        trace, _ = record(module, workload.entry)
        path = tmp_path / "trace.npz"
        save_trace(trace, str(path))
        restored = load_trace(str(path))
        assert list(restored.events()) == list(trace.events())

    def test_raw_npy_spill_roundtrip(self, tmp_path):
        """compress=False spills raw mmap-loadable .npy segments."""
        workload = get_workload(TEXTBOOK)
        module = workload.compile(1)
        full, _ = record(module, workload.entry, chunk_size=256)

        spilling = SpillingTraceSink(
            4, spill_dir=str(tmp_path), compress=False
        )
        vm = VM(module, spilling, chunk_size=256)
        vm.run(workload.entry)
        assert spilling.n_spilled_chunks > 0
        paths = spilling.segment_paths
        assert paths and all(p.endswith(".npy") for p in paths)
        arr = np.load(paths[0], mmap_mode="r")
        assert arr.ndim == 2 and arr.shape[0] > 0
        assert list(spilling.events()) == list(full.events())
        # save/load still round-trips through the canonical npz artifact
        path = tmp_path / "trace.npz"
        spilling.save(str(path))
        restored = load_trace(str(path))
        assert list(restored.events()) == list(full.events())
        spilling.close()
        assert not any(
            f.startswith("segment-") for f in os.listdir(tmp_path)
        )

    def test_reloaded_spilled_trace_drives_cu_construction(self, tmp_path):
        """A spilled multi-segment trace, persisted and reloaded with
        ``load_trace``, must drive CU construction exactly like the
        fully-resident recording."""
        workload = get_workload(TEXTBOOK)
        module = workload.compile(1)

        resident = TraceSink()
        vm = VM(module, resident, chunk_size=256)
        vm.run(workload.entry)

        spilling = SpillingTraceSink(4, spill_dir=str(tmp_path / "spill"))
        vm2 = VM(module, spilling, chunk_size=256)
        vm2.run(workload.entry)
        assert spilling.n_spilled_chunks > 1  # multi-segment on disk

        path = tmp_path / "trace.npz"
        spilling.save(str(path))
        reloaded = load_trace(str(path))
        assert reloaded.n_events == resident.n_events

        registries = {}
        for tag, trace in (("resident", resident), ("reloaded", reloaded)):
            builder = TopDownBuilder(module)
            builder.process_chunks(trace.iter_chunks())
            registries[tag] = (builder.build(), dict(builder.line_counts))
        assert registries["resident"][1] == registries["reloaded"][1]
        assert (
            registries["resident"][0].to_dict()
            == registries["reloaded"][0].to_dict()
        )
        spilling.close()


class TestEngineIntegration:
    def test_spilling_engine_matches_resident(self):
        workload = get_workload(TEXTBOOK)
        base = DiscoveryConfig(
            source=workload.source(1), name=TEXTBOOK,
            vm_kwargs={"chunk_size": 256},
        )
        resident = DiscoveryEngine(config=base).run()
        spilled_engine = DiscoveryEngine(
            config=base.replace(spill_trace=True, max_resident_chunks=8)
        )
        spilled = spilled_engine.run()
        profile = spilled_engine.profile()
        assert profile.stats["spilled_chunks"] > 0
        assert profile.trace.resident_chunks <= 8
        assert resident.store.to_dict() == spilled.store.to_dict()
        assert resident.registry.to_dict() == spilled.registry.to_dict()
        assert [s.to_dict() for s in resident.suggestions] == [
            s.to_dict() for s in spilled.suggestions
        ]

    def test_loop_oracle_vs_vectorized_results(self):
        workload = get_workload(TEXTBOOK)
        results = {}
        for detect in ("loop", "vectorized"):
            engine = DiscoveryEngine(
                config=DiscoveryConfig(
                    source=workload.source(1), name=TEXTBOOK,
                    detect=detect,
                )
            )
            results[detect] = engine.run()
            assert results[detect].profile_stats["detect"] == detect
            assert "chunk_format" not in results[detect].profile_stats
        assert (
            results["loop"].store.to_dict()
            == results["vectorized"].store.to_dict()
        )
        assert (
            results["loop"].registry.to_dict()
            == results["vectorized"].registry.to_dict()
        )

    def test_engine_records_phase_timings(self):
        workload = get_workload(TEXTBOOK)
        engine = DiscoveryEngine(
            config=DiscoveryConfig(source=workload.source(1), name=TEXTBOOK)
        )
        result = engine.run()
        assert set(result.timings) == {
            "profile", "vm_compiled", "build_cus", "detect", "rank"
        }
        assert all(t >= 0 for t in result.timings.values())
        data = result.to_dict()
        assert data["timings"] == result.timings
        from repro.engine import DiscoveryResult

        assert DiscoveryResult.from_dict(data).to_dict() == data


class TestBackendRegistry:
    def source_and_decoder(self):
        workload = get_workload(TEXTBOOK)
        module = workload.compile(1)
        return workload, module

    def run_backend(self, name, **options):
        workload, module = self.source_and_decoder()
        backend = make_backend(name, **options)
        vm = VM(module, backend)
        backend.sig_decoder = vm.loop_signature
        vm.run(workload.entry)
        return backend.finish()

    def test_serial_and_parallel_agree(self):
        serial = self.run_backend("serial")
        parallel = self.run_backend("parallel", n_workers=4)
        assert serial.store.to_dict() == parallel.store.to_dict()
        assert serial.stats["backend"] == "serial"
        assert parallel.stats["backend"] == "parallel"
        assert parallel.stats["n_workers"] == 4
        assert {r.region_id for r in serial.control.values()} == {
            r.region_id for r in parallel.control.values()
        }

    def test_signature_backend_defaults_slots(self):
        result = self.run_backend("signature")
        assert result.stats["backend"] == "signature"
        assert "shadow_collisions" in result.stats

    def test_skipping_backend_reports_skips(self):
        result = self.run_backend("skipping")
        assert "skip_stats" in result.extras
        assert result.stats["skipped"] == result.extras["skip_stats"].skipped

    def test_unknown_backend_is_loud(self):
        with pytest.raises(ValueError, match="unknown profiler backend"):
            make_backend("warp-drive")

    def test_parallel_plus_skip_loops_fails_loudly(self):
        config = DiscoveryConfig(
            source="int main() { return 0; }",
            backend="parallel",
            skip_loops=True,
        )
        with pytest.raises(ValueError, match="skip_loops is not supported"):
            DiscoveryEngine(config=config).profile()

    def test_engine_backend_selection(self):
        workload = get_workload(TEXTBOOK)
        serial = DiscoveryEngine(
            config=DiscoveryConfig(source=workload.source(1))
        ).run()
        parallel = DiscoveryEngine(
            config=DiscoveryConfig(
                source=workload.source(1),
                backend="parallel",
                backend_options={"n_workers": 4},
            )
        ).run()
        assert serial.store.to_dict() == parallel.store.to_dict()


class TestCLIPipelineFlags:
    def test_discover_backend_flag_json(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "discover", "--workload", TEXTBOOK, "--backend", "parallel",
            "--format", "json",
        ])
        assert code == 0
        import json

        data = json.loads(capsys.readouterr().out)
        assert data["artifact"] == "discovery_result"
        assert data["profile_stats"]["backend"] == "parallel"
        assert set(data["timings"]) == {
            "profile", "vm_compiled", "build_cus", "detect", "rank"
        }

    def test_discover_spill_and_tuple_format(self, capsys):
        """A spilled trace drives the loop oracle, which walks the
        decoded tuple view of the re-read segments."""
        import json

        from repro.cli import main

        stores = {}
        for detect in ("loop", "vectorized"):
            code = main([
                "discover", "--workload", TEXTBOOK, "--detect", detect,
                "--spill-trace", "--max-resident-chunks", "8",
                "--format", "json",
            ])
            assert code == 0
            data = json.loads(capsys.readouterr().out)
            stats = data["profile_stats"]
            assert stats["detect"] == detect
            assert stats["spilled_chunks"] > 0
            assert "chunk_format" not in stats
            stores[detect] = data["store"]
        assert stores["loop"] == stores["vectorized"]
        with pytest.raises(SystemExit):
            main(["discover", "--workload", TEXTBOOK,
                  "--chunk-format", "tuple"])

    def test_bench_smoke(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        code = main([
            "bench", "--suite", "vm", "fib", "--reps", "1",
            "--format", "json", "--save", "bench.json",
        ])
        assert code == 0
        import json

        with open(tmp_path / "bench.json") as handle:
            saved = json.load(handle)
        assert saved["workloads"][0]["workload"] == "fib"
        assert saved["all_traces_identical"]
        assert saved["all_stores_identical"]
        # a custom workload list records the speed floors, unenforced
        assert saved["passed"] and not saved["default_set"]
        gates = {g["name"]: g for g in saved["gates"]}
        assert gates["all_traces_identical"]["passed"] is True
        for name in ("traced_speedup_geomean", "profile_speedup_geomean"):
            assert gates[name]["enforced"] is False
            assert gates[name]["passed"] is None
            assert gates[name]["measured"] > 0
        # --suite is required, and "pipeline" is not a suite
        for argv in (["bench", "fib"], ["bench", "--suite", "pipeline"]):
            with pytest.raises(SystemExit):
                main(argv)
