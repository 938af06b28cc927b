"""The instrumentation event stream.

The VM emits **packed columnar chunks** (:class:`EventChunk`): a numpy
int64 array (:data:`EVENT_DTYPE`) with one row of :data:`N_COLS` columns
per event, kinds int-coded (:data:`K_READ` ...), and strings (variable
and function names, region kinds) interned through a
:class:`StringTable`.  Every sink stores these chunks and nothing else.

The per-event reference walkers (the loop dependence oracle, the PET and
top-down tuple paths, the skipping filter) read the **decoded view**:
:meth:`EventChunk.to_tuples` (also ``iter(chunk)``) turns each row back
into a plain tuple whose first element is a one-character kind code::

    (EV_READ,   addr, line, var, op_id, tid, ts, loop_sig, var_id)
    (EV_WRITE,  addr, line, var, op_id, tid, ts, loop_sig, var_id)
    (EV_BGN,    region_id, kind, line, tid, ts)
    (EV_END,    region_id, kind, line, tid, ts, iterations)
    (EV_ITER,   region_id, tid, ts)
    (EV_FENTRY, func_name, line, tid, ts, call_line)
    (EV_FEXIT,  func_name, tid, ts)
    (EV_ALLOC,  base, size, tid, ts)          # stack frame or heap block
    (EV_FREE,   base, size, tid, ts)          # lifetime end of a block
    (EV_LOCK,   lock_id, tid, ts)             # lock acquired
    (EV_UNLOCK, lock_id, tid, ts)
    (EV_SPAWN,  child_tid, tid, ts)
    (EV_JOINED, joined_tid, tid, ts)

:meth:`EventChunk.from_tuples` packs such tuples back (tests and
hand-built streams).

``loop_sig`` is an interned id of the thread's loop-context stack
``((region_id, iteration), ...)`` at the time of the access — the dependence
builder uses it to classify loop-carried dependences.  ``ts`` is a global
logical timestamp (one tick per executed instruction) — the paper's
"timestamp of every memory access" used to expose potential data races in
multi-threaded targets (§2.3.4).
"""

from __future__ import annotations

import os
import tempfile
from collections import deque
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

EV_READ = "R"
EV_WRITE = "W"
EV_BGN = "G"
EV_END = "E"
EV_ITER = "I"
EV_FENTRY = "C"
EV_FEXIT = "X"
EV_ALLOC = "A"
EV_FREE = "F"
EV_LOCK = "L"
EV_UNLOCK = "U"
EV_SPAWN = "S"
EV_JOINED = "J"

MEMORY_KINDS = (EV_READ, EV_WRITE)

# ---------------------------------------------------------------------------
# packed columnar format
# ---------------------------------------------------------------------------

# Int kind codes.  READ/WRITE are 0/1 so `kind <= K_WRITE` masks memory
# events in one vectorized comparison.
K_READ = 0
K_WRITE = 1
K_BGN = 2
K_END = 3
K_ITER = 4
K_FENTRY = 5
K_FEXIT = 6
K_ALLOC = 7
K_FREE = 8
K_LOCK = 9
K_UNLOCK = 10
K_SPAWN = 11
K_JOINED = 12

KIND_CODE = {
    EV_READ: K_READ,
    EV_WRITE: K_WRITE,
    EV_BGN: K_BGN,
    EV_END: K_END,
    EV_ITER: K_ITER,
    EV_FENTRY: K_FENTRY,
    EV_FEXIT: K_FEXIT,
    EV_ALLOC: K_ALLOC,
    EV_FREE: K_FREE,
    EV_LOCK: K_LOCK,
    EV_UNLOCK: K_UNLOCK,
    EV_SPAWN: K_SPAWN,
    EV_JOINED: K_JOINED,
}
CODE_KIND = {code: kind for kind, code in KIND_CODE.items()}

#: column order of a packed row.  Per kind:
#:
#: ====== ========= ===== ============ =========== === == === ======
#: kind   addr      line  name         aux         tid ts sig var
#: ====== ========= ===== ============ =========== === == === ======
#: READ   addr      line  var-name id  op_id       ✓   ✓  ✓   var_id
#: WRITE  addr      line  var-name id  op_id       ✓   ✓  ✓   var_id
#: BGN    region_id line  kind-str id  —           ✓   ✓
#: END    region_id line  kind-str id  iterations  ✓   ✓
#: ITER   region_id —     —            —           ✓   ✓
#: FENTRY —         line  func-name id call_line   ✓   ✓
#: FEXIT  —         —     func-name id —           ✓   ✓
#: ALLOC  base      —     —            size        ✓   ✓
#: FREE   base      —     —            size        ✓   ✓
#: LOCK   lock_id   —     —            —           ✓   ✓
#: UNLOCK lock_id   —     —            —           ✓   ✓
#: SPAWN  child_tid —     —            —           ✓   ✓
#: JOINED joined    —     —            —           ✓   ✓
#: ====== ========= ===== ============ =========== === == === ======
COLUMNS = ("kind", "addr", "line", "name", "aux", "tid", "ts", "sig", "var")
N_COLS = len(COLUMNS)
COL_KIND, COL_ADDR, COL_LINE, COL_NAME, COL_AUX, COL_TID, COL_TS, COL_SIG, \
    COL_VAR = range(N_COLS)

#: structured view of a packed row — all int64 so a (n, N_COLS) C-contiguous
#: int64 array can be reinterpreted without copying
EVENT_DTYPE = np.dtype([(name, np.int64) for name in COLUMNS])

#: bytes per packed event
EVENT_NBYTES = EVENT_DTYPE.itemsize


class StringTable:
    """Bidirectional interning of the strings an event stream carries.

    Index 0 is reserved for ``None`` (memory events of unnamed temporaries
    carry ``var=None`` in the decoded tuples).  The table only ever grows, so
    ids stay valid for the lifetime of a trace; chunks hold a reference to
    the table instead of copies.
    """

    __slots__ = ("values", "_ids")

    def __init__(self, values: Optional[list] = None) -> None:
        if values:
            if values[0] is not None:
                raise ValueError("StringTable slot 0 is reserved for None")
            self.values: list = list(values)
        else:
            self.values = [None]
        self._ids: dict = {v: i for i, v in enumerate(self.values)}

    def intern(self, value: Optional[str]) -> int:
        sid = self._ids.get(value)
        if sid is None:
            sid = len(self.values)
            self._ids[value] = sid
            self.values.append(value)
        return sid

    def decode(self, sid: int) -> Optional[str]:
        return self.values[sid]

    def __len__(self) -> int:
        return len(self.values)

    def to_array(self) -> np.ndarray:
        """Unicode array for npz persistence (slot 0 stored as '')."""
        return np.array(
            ["" if v is None else v for v in self.values], dtype=str
        )

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "StringTable":
        values: list = [None]
        values.extend(str(v) for v in arr.tolist()[1:])
        return cls(values)


def _encode_row(ev: tuple, strings: StringTable) -> tuple:
    """One decoded tuple -> one packed int row (the slow reference codec)."""
    kind = ev[0]
    code = KIND_CODE[kind]
    if code <= K_WRITE:
        var_id = ev[8]
        return (code, ev[1], ev[2], strings.intern(ev[3]), ev[4], ev[5],
                ev[6], ev[7], -1 if var_id is None else var_id)
    if code == K_BGN:
        return (code, ev[1], ev[3], strings.intern(ev[2]), 0, ev[4], ev[5],
                0, 0)
    if code == K_END:
        return (code, ev[1], ev[3], strings.intern(ev[2]), ev[6], ev[4],
                ev[5], 0, 0)
    if code == K_ITER:
        return (code, ev[1], 0, 0, 0, ev[2], ev[3], 0, 0)
    if code == K_FENTRY:
        return (code, 0, ev[2], strings.intern(ev[1]), ev[5], ev[3], ev[4],
                0, 0)
    if code == K_FEXIT:
        return (code, 0, 0, strings.intern(ev[1]), 0, ev[2], ev[3], 0, 0)
    if code in (K_ALLOC, K_FREE):
        return (code, ev[1], 0, 0, ev[2], ev[3], ev[4], 0, 0)
    # LOCK / UNLOCK / SPAWN / JOINED: (kind, operand, tid, ts)
    return (code, ev[1], 0, 0, 0, ev[2], ev[3], 0, 0)


def _decode_row(row: list, names: list) -> tuple:
    """One packed int row -> its decoded tuple (inverse of _encode_row)."""
    code = row[COL_KIND]
    if code <= K_WRITE:
        var_id = row[COL_VAR]
        return (EV_READ if code == K_READ else EV_WRITE, row[COL_ADDR],
                row[COL_LINE], names[row[COL_NAME]], row[COL_AUX],
                row[COL_TID], row[COL_TS], row[COL_SIG],
                None if var_id == -1 else var_id)
    if code == K_BGN:
        return (EV_BGN, row[COL_ADDR], names[row[COL_NAME]], row[COL_LINE],
                row[COL_TID], row[COL_TS])
    if code == K_END:
        return (EV_END, row[COL_ADDR], names[row[COL_NAME]], row[COL_LINE],
                row[COL_TID], row[COL_TS], row[COL_AUX])
    if code == K_ITER:
        return (EV_ITER, row[COL_ADDR], row[COL_TID], row[COL_TS])
    if code == K_FENTRY:
        return (EV_FENTRY, names[row[COL_NAME]], row[COL_LINE],
                row[COL_TID], row[COL_TS], row[COL_AUX])
    if code == K_FEXIT:
        return (EV_FEXIT, names[row[COL_NAME]], row[COL_TID], row[COL_TS])
    if code == K_ALLOC or code == K_FREE:
        return (EV_ALLOC if code == K_ALLOC else EV_FREE, row[COL_ADDR],
                row[COL_AUX], row[COL_TID], row[COL_TS])
    return (CODE_KIND[code], row[COL_ADDR], row[COL_TID], row[COL_TS])


class EventChunk:
    """One packed columnar chunk: a ``(n, N_COLS)`` int64 array + strings.

    Iterating an :class:`EventChunk` yields the decoded tuples, which the
    per-event reference walkers (loop oracle, PET and CU tuple paths,
    skipping filter) read; columnar consumers read the columns directly.
    """

    __slots__ = ("rows", "strings")

    def __init__(self, rows: np.ndarray, strings: StringTable) -> None:
        self.rows = rows
        self.strings = strings

    # -- construction --------------------------------------------------

    @classmethod
    def from_tuples(
        cls, events: Iterable[tuple], strings: Optional[StringTable] = None
    ) -> "EventChunk":
        """Pack decoded tuples (tests, hand-built streams)."""
        strings = strings if strings is not None else StringTable()
        staged = [_encode_row(ev, strings) for ev in events]
        rows = np.array(staged, dtype=np.int64).reshape(len(staged), N_COLS)
        return cls(rows, strings)

    # -- columns -------------------------------------------------------

    @property
    def kind(self) -> np.ndarray:
        return self.rows[:, COL_KIND]

    @property
    def addr(self) -> np.ndarray:
        return self.rows[:, COL_ADDR]

    @property
    def line(self) -> np.ndarray:
        return self.rows[:, COL_LINE]

    @property
    def structured(self) -> np.ndarray:
        """Zero-copy view of the rows as the :data:`EVENT_DTYPE` records."""
        return np.ascontiguousarray(self.rows).view(EVENT_DTYPE).reshape(-1)

    def memory_mask(self) -> np.ndarray:
        return self.rows[:, COL_KIND] <= K_WRITE

    def take(self, indices) -> "EventChunk":
        """Row subset (order-preserving) sharing the string table."""
        return EventChunk(self.rows[indices], self.strings)

    # -- sizes ---------------------------------------------------------

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes

    # -- decoded view --------------------------------------------------

    def to_tuples(self) -> Iterator[tuple]:
        """Decode rows to the module docstring's tuple layouts, in order."""
        names = self.strings.values
        for row in self.rows.tolist():
            yield _decode_row(row, names)

    __iter__ = to_tuples


class ChunkBuilder:
    """Fills preallocated packed chunks from staged rows.

    The interpreter stages int rows in a plain Python list (a CPython list
    append is an order of magnitude cheaper than a per-element structured-
    array store) and the builder blits the whole batch into the
    preallocated chunk in one vectorized assignment at flush time.
    """

    __slots__ = ("capacity", "strings", "_rows")

    def __init__(
        self, capacity: int, strings: Optional[StringTable] = None
    ) -> None:
        self.capacity = capacity
        self.strings = strings if strings is not None else StringTable()
        self._rows = np.empty((capacity, N_COLS), dtype=np.int64)

    def build(self, staged: list) -> EventChunk:
        """Pack staged rows into the current preallocated chunk.

        The returned chunk always owns (a view of) the buffer it was
        packed into; the builder swaps in a fresh buffer either way, so a
        later ``build`` can never scribble over rows already handed out.
        """
        n = len(staged)
        rows, self._rows = self._rows, np.empty(
            (self.capacity, N_COLS), dtype=np.int64
        )
        if n != self.capacity:
            # short final chunk: hand out a sliced view of the
            # preallocated buffer instead of re-materializing the staged
            # rows through np.array()
            rows = rows[:n]
        if n:
            rows[:] = staged
        return EventChunk(rows, self.strings)

    def build_flat(self, staged: list) -> EventChunk:
        """Pack a *flat* staging list (:data:`N_COLS` ints per event).

        The compiled-dispatch VM stages scalar int columns instead of
        row tuples — converting one flat int list is almost twice as
        fast as converting a list of row tuples, and no per-event tuple
        object is ever allocated.
        """
        rows = np.fromiter(staged, np.int64, len(staged)).reshape(
            -1, N_COLS
        )
        return EventChunk(rows, self.strings)


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------


def _require_packed(chunk) -> None:
    if not isinstance(chunk, EventChunk):
        raise TypeError(
            f"trace sinks record EventChunks, not {type(chunk).__name__} "
            "(pack decoded tuples with EventChunk.from_tuples)"
        )


class TraceSink:
    """Sink that records the entire event stream in memory.

    ``n_events`` is maintained in exactly one place (:meth:`__call__`);
    every other view (``__len__``, iteration) derives from the recorded
    chunks.  ``nbytes`` exposes the resident footprint so memory pressure
    is observable.
    """

    def __init__(self) -> None:
        self.chunks: list[EventChunk] = []
        self.n_events = 0

    def __call__(self, chunk: EventChunk) -> None:
        _require_packed(chunk)
        self.chunks.append(chunk)
        self.n_events += len(chunk)

    def iter_chunks(self) -> Iterator[EventChunk]:
        """The recorded chunks in arrival order (columnar-aware walkers)."""
        yield from self.chunks

    def events(self) -> Iterator[tuple]:
        for chunk in self.chunks:
            yield from chunk

    def memory_events(self) -> Iterator[tuple]:
        for event in self.events():
            if event[0] in MEMORY_KINDS:
                yield event

    def __len__(self) -> int:
        return self.n_events

    @property
    def nbytes(self) -> int:
        """Resident bytes across recorded chunks."""
        return sum(chunk.nbytes for chunk in self.chunks)


class SpillingTraceSink:
    """Bounded-memory trace recorder: resident chunk window + npz spill.

    Keeps at most ``max_resident_chunks`` packed chunks in RAM; older
    chunks are spilled to segment files, one chunk per segment, ``rows``
    array only — the string table stays resident, it is tiny and
    monotonic.  ``compress=True`` (the default) writes compressed
    ``.npz``; ``compress=False`` writes raw ``.npy``, which consumers —
    notably the sharded detection workers — can
    ``np.load(..., mmap_mode="r")`` zero-copy straight out of the page
    cache instead of decompressing per segment (:attr:`segment_paths`
    exposes the on-disk files).  :meth:`events` / :meth:`iter_chunks`
    re-iterate the full trace in order, loading spilled segments lazily,
    so CU construction and report generation no longer need the whole
    trace in memory.  The VM's chunks share its string table, which the
    sink adopts from the first chunk.
    """

    def __init__(
        self,
        max_resident_chunks: int = 64,
        *,
        spill_dir: Optional[str] = None,
        compress: bool = True,
    ) -> None:
        if max_resident_chunks < 1:
            raise ValueError("need at least one resident chunk")
        self.max_resident_chunks = max_resident_chunks
        self.compress = compress
        self.n_events = 0
        self.n_spilled_chunks = 0
        self.spilled_bytes = 0
        self._resident: deque[EventChunk] = deque()
        self._segments: list[str] = []
        self._strings: Optional[StringTable] = None
        self._spill_dir = spill_dir
        self._own_dir = spill_dir is None
        self._dir: Optional[str] = None

    # -- ingestion -----------------------------------------------------

    def __call__(self, chunk: EventChunk) -> None:
        _require_packed(chunk)
        if self._strings is None:
            self._strings = chunk.strings
        self.n_events += len(chunk)
        self._resident.append(chunk)
        while len(self._resident) > self.max_resident_chunks:
            self._spill(self._resident.popleft())

    def _ensure_dir(self) -> str:
        if self._dir is None:
            if self._spill_dir is not None:
                os.makedirs(self._spill_dir, exist_ok=True)
                self._dir = self._spill_dir
            else:
                self._dir = tempfile.mkdtemp(prefix="repro-trace-")
        return self._dir

    def _spill(self, chunk: EventChunk) -> None:
        ext = "npz" if self.compress else "npy"
        path = os.path.join(
            self._ensure_dir(), f"segment-{len(self._segments):06d}.{ext}"
        )
        with open(path, "wb") as handle:
            if self.compress:
                np.savez_compressed(handle, rows=chunk.rows)
            else:
                # raw .npy: a plain array dump, np.load(mmap_mode="r")-able
                np.save(handle, chunk.rows)
        self._segments.append(path)
        self.n_spilled_chunks += 1
        self.spilled_bytes += os.path.getsize(path)

    # -- re-iterable reading -------------------------------------------

    @property
    def strings(self) -> StringTable:
        if self._strings is None:
            self._strings = StringTable()
        return self._strings

    @property
    def resident_chunks(self) -> int:
        return len(self._resident)

    @property
    def segment_paths(self) -> tuple:
        """Spilled segment files, in trace order (resident chunks excluded)."""
        return tuple(self._segments)

    def iter_chunks(self) -> Iterator[EventChunk]:
        """All chunks in arrival order; spilled segments load lazily.

        Raw ``.npy`` segments are memory-mapped read-only — iterating a
        spilled trace touches only the pages a consumer actually reads.
        """
        strings = self.strings
        for path in self._segments:
            if path.endswith(".npy"):
                yield EventChunk(np.load(path, mmap_mode="r"), strings)
            else:
                with np.load(path) as data:
                    yield EventChunk(data["rows"], strings)
        yield from self._resident

    def events(self) -> Iterator[tuple]:
        for chunk in self.iter_chunks():
            yield from chunk

    def memory_events(self) -> Iterator[tuple]:
        for event in self.events():
            if event[0] in MEMORY_KINDS:
                yield event

    def __len__(self) -> int:
        return self.n_events

    @property
    def nbytes(self) -> int:
        """Resident bytes only — the point of spilling."""
        return sum(chunk.nbytes for chunk in self._resident)

    # -- persistence / cleanup -----------------------------------------

    def save(self, path: str) -> None:
        save_trace(self, path)

    def close(self) -> None:
        """Delete spill segments (and the spill dir when we created it)."""
        for segment in self._segments:
            try:
                os.remove(segment)
            except OSError:
                pass
        self._segments.clear()
        if self._own_dir and self._dir is not None:
            try:
                os.rmdir(self._dir)
            except OSError:
                pass
        self._dir = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


def save_trace(sink, path: str) -> None:
    """Persist a recorded trace (any sink with ``iter_chunks``) as one npz.

    Layout: ``strings`` (unicode array, slot 0 = None) + ``rows_000000...``
    one array per chunk, preserving chunk boundaries.
    """
    arrays: dict[str, np.ndarray] = {}
    strings: Optional[StringTable] = None
    for i, chunk in enumerate(sink.iter_chunks()):
        _require_packed(chunk)
        strings = chunk.strings
        arrays[f"rows_{i:06d}"] = chunk.rows
    if strings is None:
        strings = StringTable()
    arrays["strings"] = strings.to_array()
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)


def load_trace(path: str) -> TraceSink:
    """Reload a :func:`save_trace` artifact into an in-memory TraceSink."""
    sink = TraceSink()
    with np.load(path) as data:
        strings = StringTable.from_array(data["strings"])
        for key in sorted(k for k in data.files if k.startswith("rows_")):
            sink(EventChunk(data[key], strings))
    return sink


class CallbackSink:
    """Adapts a per-event callback into a chunk sink."""

    def __init__(self, fn: Callable[[tuple], None]) -> None:
        self.fn = fn

    def __call__(self, chunk: Iterable[tuple]) -> None:
        fn = self.fn
        for event in chunk:
            fn(event)

