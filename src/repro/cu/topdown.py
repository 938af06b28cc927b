"""Top-down CU construction (Algorithm 3).

For every control region the builder checks — against the executed trace —
whether the whole region satisfies the read-compute-write pattern over its
region-global variables: no read of a global variable may *happen after* a
write to it within one execution instance of the region.  Instances are one
function invocation, one loop iteration (the per-iteration analysis behind
Fig. 3.4: the write of ``x`` at the end of an iteration does not violate the
pattern for the next iteration — it becomes the CU's RAW self-edge), or one
branch execution.

Regions that pass are single CUs.  Regions that fail are split at the
violating read lines: every violating read starts a new segment, and each
segment becomes a CU (the "build CUs for all code snippets separated by the
violating read instructions" step of Algorithm 3).

Two walks fill the same per-region accumulators.  :meth:`TopDownBuilder.
process` is the oracle: a per-event walk over the decoded view.
:meth:`TopDownBuilder.process_chunks` is a segment scan over packed chunks
(docs/PIPELINE.md, "Top-down CUs as a segment scan").  Python visits only
the region markers, keeping a per-thread stack of open frames, each with
an *epoch*: the lifetime of one instance's written-set, renewed by every
ITER.  A forward fill labels every memory row with the live epochs whose
region holds its variable.  Phases and violations then come from
``np.unique`` and one sort per batch: a violation is an in-range read
whose (epoch, var) was written before it.  Between batches only the
stacks and the written-sets of still-open epochs carry over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

import numpy as np

from repro.cu.model import CURegistry, RegionCUInfo
from repro.cu.variables import effective_global_vars, read_write_sets
from repro.mir.module import Module, Region
from repro.runtime.events import (
    COL_ADDR,
    COL_KIND,
    COL_LINE,
    COL_NAME,
    COL_TID,
    COL_VAR,
    EV_BGN,
    EV_END,
    EV_FENTRY,
    EV_FEXIT,
    EV_ITER,
    EV_READ,
    EV_WRITE,
    EventChunk,
    K_BGN,
    K_FENTRY,
    K_FEXIT,
    K_ITER,
    K_WRITE,
)

#: rows per segment scan: :meth:`TopDownBuilder.process_chunks` joins
#: consecutive chunks into batches of about this many rows.  A scan's
#: transient arrays grow with the batch (up to ~9 MB here over the
#: perfbench programs); 32,768 rows doubles them and is no faster.
BATCH_ROWS = 16384


@dataclass
class _Instance:
    """One dynamic execution instance of a region (per thread)."""

    region_id: int
    start_line: int
    end_line: int
    gv: frozenset
    written: set = field(default_factory=set)


@dataclass
class _RegionAccum:
    """Aggregated observations for one static region."""

    executed: bool = False
    violations: set = field(default_factory=set)  # (line, var_id)
    read_phase: set = field(default_factory=set)  # (line, var_id)
    write_phase: set = field(default_factory=set)


class _Marks(NamedTuple):
    """One thread's markers in one batch (see :meth:`TopDownBuilder._walk`).

    Per marker: its row ``pos``, the stack ``depth`` it set a new
    ``epoch`` at (-1: none), the stack ``length`` after it and its
    ``region``.  ``init`` is the thread's stack entering the batch.
    """

    init: list
    pos: np.ndarray
    depth: np.ndarray
    length: np.ndarray
    epoch: np.ndarray
    region: np.ndarray


#: the marker arrays of a thread without markers in a batch
_NONE = np.empty(0, dtype=np.int64)


class _RegionTables:
    """Dense per-region arrays for the segment scan."""

    def __init__(self, module: Module, gv_cache: dict) -> None:
        n_regions = max(module.regions, default=-1) + 1
        max_var = max((v for gv in gv_cache.values() for v in gv), default=-1)
        #: var ``v`` has column ``v + 1`` (RET_VAR is -1); the last column
        #: stands for every var no region holds and stays all False
        self.n_cols = max(max_var, -1) + 3
        #: region x var column: is the var global to the region?  The
        #: extra ``dead`` row stands for an empty stack slot
        self.dead = n_regions
        self.member = np.zeros((n_regions + 1, self.n_cols), dtype=bool)
        self.lo = np.zeros(n_regions, dtype=np.int64)
        self.hi = np.full(n_regions, -1, dtype=np.int64)
        for rid, region in module.regions.items():
            self.lo[rid] = region.start_line
            self.hi[rid] = region.end_line
            self.member[rid, [v + 1 for v in gv_cache[rid]]] = True
        #: line radix of the (region, line, var) keys; in-range lines fit
        self.span = int(self.hi.max(initial=0)) + 1

    def var_column(self, var: np.ndarray) -> np.ndarray:
        """Membership columns of a var-id column (non-empty)."""
        col = var + 1
        last = self.n_cols - 1
        if col.min() < 0 or col.max() >= last:
            col = np.where((col >= 0) & (col < last), col, last)
        return col


def _by_thread(tid: np.ndarray) -> list:
    """``(tid, row indices)`` per thread of a tid column."""
    if not tid.shape[0]:
        return []
    if tid[0] == tid[-1] and (tid == tid[0]).all():
        return [(int(tid[0]), np.arange(tid.shape[0]))]
    return [(t, np.flatnonzero(tid == t)) for t in np.unique(tid).tolist()]


class TopDownBuilder:
    """Builds the CU registry from a module + recorded trace."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self._accum: dict[int, _RegionAccum] = {
            rid: _RegionAccum() for rid in module.regions
        }
        self._gv_cache: dict[int, frozenset] = {
            rid: effective_global_vars(module, region)
            for rid, region in module.regions.items()
        }
        #: per-thread stack of open instances
        self._stacks: dict[int, list[_Instance]] = {}
        #: dynamic memory-instruction count per source line
        self.line_counts: dict[int, int] = {}
        #: map function name -> its region id
        self._func_region = {
            name: func.region_id for name, func in module.functions.items()
        }
        # -- segment-scan state (process_chunks) --
        self._tables = _RegionTables(module, self._gv_cache)
        #: per-thread stack of open ``(region_id, epoch)`` frames
        self._frames: dict[int, list[tuple[int, int]]] = {}
        self._next_epoch = 0
        #: sorted ``epoch * n_cols + var column`` keys: the written-sets of
        #: the epochs open after the last batch with memory rows (a closed
        #: epoch never matches a later read, so pruning can wait)
        self._written = np.empty(0, dtype=np.int64)
        #: rows and batches the segment scan has consumed
        self.n_rows = 0
        self.n_batches = 0

    # ------------------------------------------------------------------
    # trace consumption
    # ------------------------------------------------------------------

    def _open(self, tid: int, region_id: int) -> None:
        region = self.module.regions[region_id]
        inst = _Instance(
            region_id, region.start_line, region.end_line, self._gv_cache[region_id]
        )
        self._stacks.setdefault(tid, []).append(inst)
        self._accum[region_id].executed = True

    def _close(self, tid: int, region_id: int) -> None:
        stack = self._stacks.get(tid)
        if not stack:
            return
        # pop until the matching region is closed (robust to early returns)
        while stack:
            inst = stack.pop()
            if inst.region_id == region_id:
                break

    def process(self, events: Iterable[tuple]) -> None:
        """The oracle: walk the decoded view event by event."""
        stacks = self._stacks
        accum = self._accum
        line_counts = self.line_counts
        for ev in events:
            kind = ev[0]
            if kind == EV_READ:
                line = ev[2]
                tid = ev[5]
                var_id = ev[8]
                line_counts[line] = line_counts.get(line, 0) + 1
                for inst in stacks.get(tid, ()):
                    if var_id in inst.gv:
                        acc = accum[inst.region_id]
                        in_range = inst.start_line <= line <= inst.end_line
                        if in_range:
                            acc.read_phase.add((line, var_id))
                        if var_id in inst.written and in_range:
                            acc.violations.add((line, var_id))
            elif kind == EV_WRITE:
                line = ev[2]
                tid = ev[5]
                var_id = ev[8]
                line_counts[line] = line_counts.get(line, 0) + 1
                for inst in stacks.get(tid, ()):
                    if var_id in inst.gv:
                        acc = accum[inst.region_id]
                        if inst.start_line <= line <= inst.end_line:
                            acc.write_phase.add((line, var_id))
                        inst.written.add(var_id)
            elif kind == EV_BGN:
                self._open(ev[4], ev[1])
            elif kind == EV_END:
                self._close(ev[4], ev[1])
            elif kind == EV_ITER:
                # new loop iteration: per-iteration happens-before resets
                stack = stacks.get(ev[2], ())
                for inst in reversed(stack):
                    if inst.region_id == ev[1]:
                        inst.written.clear()
                        break
            elif kind == EV_FENTRY:
                region_id = self._func_region.get(ev[1])
                if region_id is not None:
                    self._open(ev[3], region_id)
            elif kind == EV_FEXIT:
                region_id = self._func_region.get(ev[1])
                if region_id is not None:
                    self._close(ev[2], region_id)

    def process_chunks(self, chunks: Iterable[EventChunk]) -> None:
        """Walk a packed trace (``TraceSink.iter_chunks`` and the like).

        Consecutive chunks that share a string table are joined into
        batches of about :data:`BATCH_ROWS` rows; each batch is one
        segment scan (:meth:`_scan`).  The result is identical to
        :meth:`process` over the decoded view, for any chunking.
        """
        batch: list[np.ndarray] = []
        n_rows = 0
        strings = None
        for chunk in chunks:
            if not len(chunk):
                continue
            if batch and chunk.strings is not strings:
                self._scan(batch, strings)
                batch, n_rows = [], 0
            batch.append(chunk.rows)
            n_rows += len(chunk)
            strings = chunk.strings
            if n_rows >= BATCH_ROWS:
                self._scan(batch, strings)
                batch, n_rows = [], 0
        if batch:
            self._scan(batch, strings)

    def _scan(self, batch: list, strings) -> None:
        """One segment scan over a batch of packed rows (never written)."""
        rows = batch[0] if len(batch) == 1 else np.concatenate(batch)
        self.n_rows += rows.shape[0]
        self.n_batches += 1
        tables = self._tables
        kinds = rows[:, COL_KIND]
        mem = np.flatnonzero(kinds <= K_WRITE)
        marks = self._walk(
            rows, np.flatnonzero((kinds >= K_BGN) & (kinds <= K_FEXIT)),
            strings,
        )
        if mem.shape[0]:
            mem_line = rows[mem, COL_LINE]
            uniq, counts = np.unique(mem_line, return_counts=True)
            line_counts = self.line_counts
            for line, count in zip(uniq.tolist(), counts.tolist()):
                line_counts[line] = line_counts.get(line, 0) + count
            vcol = tables.var_column(rows[mem, COL_VAR])
            pairs = self._fill(rows, mem, marks, vcol)
            if pairs is not None:
                self._scan_pairs(*pairs, mem_line, kinds[mem] == K_WRITE, vcol)

    def _walk(self, rows: np.ndarray, idx: np.ndarray, strings) -> dict:
        """The marker walk: per-thread stacks of ``(region, epoch)`` frames.

        Visits only the BGN/END/ITER/FENTRY/FEXIT rows (``idx``), one
        thread at a time — threads never share a stack, and epochs need
        only be unique.  Every open and every ITER sets a new epoch at one
        depth.  Returns a :class:`_Marks` per thread with markers.
        """
        marks: dict[int, _Marks] = {}
        if not idx.shape[0]:
            return marks
        sub = rows[idx][:, [COL_KIND, COL_ADDR, COL_NAME, COL_TID]]
        kind = sub[:, 0]
        region = sub[:, 1].copy()
        call = kind >= K_FENTRY
        if call.any():
            # resolve each function name once per batch
            names, inverse = np.unique(sub[call, 2], return_inverse=True)
            values = strings.values
            func_region = self._func_region
            lookup = np.array(
                [func_region.get(values[n], -1) for n in names.tolist()],
                dtype=np.int64,
            )
            region[call] = lookup[inverse]
            known = region >= 0  # calls of functions outside the module
            idx, sub, kind, region = idx[known], sub[known], kind[known], \
                region[known]
        opened = region[(kind == K_BGN) | (kind == K_FENTRY)]
        for rid in np.unique(opened).tolist():
            self._accum[rid].executed = True
        frames = self._frames
        epoch = self._next_epoch
        for t, sel in _by_thread(sub[:, 3]):
            stack = frames.setdefault(t, [])
            init = list(stack)
            first = epoch
            depths: list[int] = []
            lengths: list[int] = []
            t_region = region[sel]
            for k, rid in zip(kind[sel].tolist(), t_region.tolist()):
                if k == K_ITER:
                    # a new iteration of the innermost open instance of rid
                    depth = len(stack) - 1
                    while depth >= 0 and stack[depth][0] != rid:
                        depth -= 1
                    if depth >= 0:
                        stack[depth] = (rid, epoch)
                        epoch += 1
                elif k == K_BGN or k == K_FENTRY:
                    depth = len(stack)
                    stack.append((rid, epoch))
                    epoch += 1
                else:
                    # pop until the matching region is closed (see _close)
                    depth = -1
                    while stack and stack.pop()[0] != rid:
                        pass
                depths.append(depth)
                lengths.append(len(stack))
            depth_arr = np.array(depths, dtype=np.int64)
            marks[t] = _Marks(
                init,
                idx[sel],
                depth_arr,
                np.array(lengths, dtype=np.int64),
                first - 1 + np.cumsum(depth_arr >= 0),
                t_region,
            )
        self._next_epoch = epoch
        return marks

    def _fill(self, rows, mem, marks, vcol) -> Optional[tuple]:
        """The forward fill: every ``(memory row, open epoch)`` pair whose
        variable is global to the epoch's region.

        Markers cut a thread's rows into segments with one fixed stack
        each.  A segment x depth table holds the epoch (and region) live
        at every depth: the one the last marker setting that depth set —
        a stack only regrows past ``d`` by an open at ``d``.  Rows take
        their segment's row of the table.  Returns ``(row, epoch,
        region)`` arrays (``row`` indexes ``mem``) in row order, or None.
        """
        tables = self._tables
        member = tables.member.ravel()
        n_cols = tables.n_cols
        dead = tables.dead * n_cols
        out_row, out_epoch, out_region = [], [], []
        for tid, sel in _by_thread(rows[mem, COL_TID]):
            init, pos, depth, lengths, epochs, regions = marks.get(
                tid, _Marks(self._frames.get(tid, []), *([_NONE] * 5))
            )
            # segment 0 is the entering state, segment i + 1 follows
            # marker i
            seg = np.searchsorted(pos, mem[sel], side="right")
            length = np.concatenate(([len(init)], lengths))
            width = int(length[seg].max())
            if not width:
                continue
            n_seg = length.shape[0]
            region = np.empty((n_seg, width), dtype=np.int64)
            epoch = np.empty((n_seg, width), dtype=np.int64)
            order = np.arange(1, n_seg)
            for d in range(width):
                last = np.zeros(n_seg, dtype=np.int64)
                np.maximum.accumulate(
                    np.where(depth == d, order, 0), out=last[1:]
                )
                rid0, epoch0 = init[d] if d < len(init) else (0, -1)
                region[:, d] = np.concatenate(([rid0], regions))[last]
                epoch[:, d] = np.concatenate(([epoch0], epochs))[last]
            # member rows start at region * n_cols; depths at or past a
            # segment's stack length point at the all-False dead row
            offset = region * n_cols
            offset[np.arange(region.shape[1]) >= length[:, None]] = dead
            hit = member.take(offset[seg] + vcol[sel][:, None])
            at, d = np.nonzero(hit)
            seg = seg[at]
            out_row.append(sel[at])
            out_epoch.append(epoch[seg, d])
            out_region.append(region[seg, d])
        if not out_row:
            return None
        return (
            np.concatenate(out_row),
            np.concatenate(out_epoch),
            np.concatenate(out_region),
        )

    def _scan_pairs(self, row, epoch, region, line, is_write, vcol) -> None:
        """Phases, violations and written-sets from the filled pairs."""
        tables = self._tables
        n_cols = tables.n_cols
        line = line[row]
        write = is_write[row]
        var = vcol[row]
        in_range = (line >= tables.lo[region]) & (line <= tables.hi[region])
        phase = (region * tables.span + line) * n_cols + var
        read = in_range & ~write
        self._add_keys(np.unique(phase[read]), "read_phase")
        self._add_keys(np.unique(phase[in_range & write]), "write_phase")
        # the first write of every (epoch, var) in the batch; a stable sort
        # keeps each key's ascending run, so its head is the first write
        wkey = epoch[write] * n_cols + var[write]
        order = np.argsort(wkey, kind="stable")
        wkey = wkey[order]
        head = np.flatnonzero(np.diff(wkey, prepend=-1))
        keys = wkey[head]
        first = row[write][order][head]
        # a violation: an in-range read after a write of its (epoch, var),
        # earlier in the batch or carried in from before it
        written = self._written
        if read.any():
            rkey = epoch[read] * n_cols + var[read]
            violation = np.isin(rkey, written)
            if keys.shape[0]:
                at = np.minimum(np.searchsorted(keys, rkey), keys.shape[0] - 1)
                violation |= (keys[at] == rkey) & (first[at] < row[read])
            if violation.any():
                self._add_keys(np.unique(phase[read][violation]), "violations")
        # carry the written-sets of the epochs still open after the batch
        open_epochs = np.array(
            [e for stack in self._frames.values() for _, e in stack],
            dtype=np.int64,
        )
        self._written = np.union1d(
            written[np.isin(written // n_cols, open_epochs)],
            keys[np.isin(keys // n_cols, open_epochs)],
        )

    def _add_keys(self, keys: np.ndarray, attr: str) -> None:
        """Decode ``(region, line, var)`` keys into the region accumulators."""
        if not keys.shape[0]:
            return
        tables = self._tables
        var = keys % tables.n_cols - 1
        rest = keys // tables.n_cols
        accum = self._accum
        for rid, line, var_id in zip(
            (rest // tables.span).tolist(), (rest % tables.span).tolist(),
            var.tolist(),
        ):
            getattr(accum[rid], attr).add((line, var_id))

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------

    def _static_mem_lines(self, region: Region) -> list[int]:
        """Source lines with memory operations lexically inside the region."""
        func = self.module.functions.get(region.func)
        if func is None:
            return []
        lines = {
            instr.line
            for instr in func.code
            if instr.is_memory() and region.contains_line(instr.line)
        }
        return sorted(lines)

    def build(self) -> CURegistry:
        registry = CURegistry()
        for region_id, region in self.module.regions.items():
            acc = self._accum[region_id]
            if not acc.executed:
                continue
            gv = self._gv_cache[region_id]
            read_set, write_set = read_write_sets(self.module, region, gv)
            lines = self._static_mem_lines(region)
            instructions = sum(self.line_counts.get(l, 0) for l in lines)
            if not acc.violations:
                cu = registry.new_cu(
                    region_id=region_id,
                    func=region.func,
                    kind="region",
                    start_line=region.start_line,
                    end_line=region.end_line,
                    lines=frozenset(lines) | {region.start_line, region.end_line},
                    read_set=read_set,
                    write_set=write_set,
                    read_phase=frozenset(acc.read_phase),
                    write_phase=frozenset(acc.write_phase),
                    instructions=instructions,
                )
                registry.by_region[region_id] = RegionCUInfo(
                    region_id, True, region_cu=cu
                )
            else:
                violating_lines = {line for line, _ in acc.violations}
                # CUs never cross control-region boundaries (§3.1): child
                # regions force segment breaks at their start and right
                # after their end.
                child_bounds: set[int] = set()
                for child_id in region.children:
                    child = self.module.regions[child_id]
                    child_bounds.add(child.start_line)
                    child_bounds.add(child.end_line + 1)
                boundary_lines = violating_lines | {
                    _first_line_at_or_after(lines, b) for b in child_bounds
                }
                boundary_lines.discard(None)
                segments = _split_segments(lines, sorted(boundary_lines))
                info = RegionCUInfo(
                    region_id,
                    False,
                    violations=frozenset(acc.violations),
                )
                for seg_lines in segments:
                    seg_set = set(seg_lines)
                    seg_reads = {
                        (l, v) for (l, v) in acc.read_phase if l in seg_set
                    }
                    seg_writes = {
                        (l, v) for (l, v) in acc.write_phase if l in seg_set
                    }
                    cu = registry.new_cu(
                        region_id=region_id,
                        func=region.func,
                        kind="segment",
                        start_line=min(seg_lines),
                        end_line=max(seg_lines),
                        lines=frozenset(seg_lines),
                        read_set=frozenset(v for _, v in seg_reads),
                        write_set=frozenset(v for _, v in seg_writes),
                        read_phase=frozenset(seg_reads),
                        write_phase=frozenset(seg_writes),
                        instructions=sum(
                            self.line_counts.get(l, 0) for l in seg_lines
                        ),
                    )
                    info.segments.append(cu)
                registry.by_region[region_id] = info
        return registry


def _first_line_at_or_after(lines: list[int], bound: int):
    """First executed-line value >= bound, or None."""
    from bisect import bisect_left

    idx = bisect_left(lines, bound)
    return lines[idx] if idx < len(lines) else None


def _split_segments(
    lines: list[int], violating_lines: list[int]
) -> list[list[int]]:
    """Split an ordered line list into segments; every violating read line
    *starts* a new segment."""
    if not lines:
        return []
    boundaries = set(violating_lines)
    segments: list[list[int]] = []
    current: list[int] = []
    for line in lines:
        if line in boundaries and current:
            segments.append(current)
            current = []
        current.append(line)
    if current:
        segments.append(current)
    return segments


def build_cus(module: Module, events: Iterable[tuple]) -> CURegistry:
    """One-call top-down CU construction from a module + event iterable."""
    builder = TopDownBuilder(module)
    builder.process(events)
    return builder.build()
