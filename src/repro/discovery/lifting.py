"""Call-site anchoring of memory events.

To find parallelism *between* calls (SPMD tasks between recursive calls,
MPMD tasks between pipeline-stage functions), dependences whose endpoints
lie inside callees must surface at the call sites in the container under
analysis — the paper gets this from the PET: "when examining parallelism
between two functions, data dependences within each of them can be easily
ignored".

:func:`anchor_events` rewrites each memory event's line to its *anchor*
within a container region: the line itself when the access executes directly
in the container's function, otherwise the call-site line (within the
container) of the call chain that led to the access.  Profiling the anchored
stream with the ordinary serial profiler then yields a dependence store in
container-line coordinates, ready for CU-graph task analysis.

:func:`anchor_chunks` is the columnar twin over packed
:class:`~repro.runtime.events.EventChunk` rows.  A thread's anchor is
constant between two of its call events, and call events are rare, so it
walks only the FENTRY/FEXIT rows in Python and forward-fills the
resulting per-thread state onto the memory rows with ``np.searchsorted``.
:func:`anchor_events` stays as the per-event oracle.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.mir.module import Module, Region
from repro.runtime.events import (
    COL_AUX,
    COL_KIND,
    COL_LINE,
    COL_NAME,
    COL_TID,
    EV_FENTRY,
    EV_FEXIT,
    EV_READ,
    EV_SPAWN,
    EV_WRITE,
    K_FENTRY,
    K_FEXIT,
    K_WRITE,
    EventChunk,
)

#: per-thread anchor states of :func:`anchor_chunks`; a state >= 0 is a
#: constant anchor (the call line every access of the thread maps to)
DROP = -2
DIRECT = -1


def anchor_events(
    events: Iterable[tuple], module: Module, container: Region
) -> Iterator[tuple]:
    """Yield the stream with memory-event lines rewritten to container anchors.

    The contract (shared with :func:`anchor_chunks`):

    * a memory event is kept only when it executes under a dynamic
      instance of the container and its anchor lies within the
      container's lines; a kept event changes only its line, which
      becomes the anchor;
    * FENTRY/FEXIT events are consumed (they drive the per-thread call
      stacks) and never yielded;
    * every other event passes through unchanged, wherever it executes
      (so loop-context classification still works for the container's
      own loops).
    """
    # per-thread call stack: list of (func_name, call_line)
    call_stacks: dict[int, list[tuple[str, int]]] = {}
    container_func = container.func

    def anchor_for(tid: int, line: int) -> int | None:
        """Anchor of an access at `line` for thread `tid`, or None when the
        access is not under the container.

        Anchoring is relative to the *outermost* frame of the container's
        function: the whole dynamic subtree under a call at line L collapses
        onto L.  For recursive containers this folds the recursion tree onto
        the top instance's call sites — dependences between two recursive
        calls then appear as edges between their call lines, which is what
        SPMD task detection needs (§4.2.1).
        """
        stack = call_stacks.get(tid, [])
        for depth, (fname, _) in enumerate(stack):
            if fname != container_func:
                continue
            if depth == len(stack) - 1:
                # access executes directly in the container's function
                if container.contains_line(line):
                    return line
                return None
            call_line = stack[depth + 1][1]
            if container.contains_line(call_line):
                return call_line
            return None
        return None

    for ev in events:
        kind = ev[0]
        if kind == EV_READ or kind == EV_WRITE:
            anchor = anchor_for(ev[5], ev[2])
            if anchor is None:
                continue
            if anchor == ev[2]:
                yield ev
            else:
                yield (kind, ev[1], anchor, ev[3], ev[4], ev[5], ev[6], ev[7],
                       ev[8])
        elif kind == EV_FENTRY:
            call_stacks.setdefault(ev[3], []).append((ev[1], ev[5]))
        elif kind == EV_FEXIT:
            stack = call_stacks.get(ev[2])
            if stack:
                stack.pop()
        elif kind == EV_SPAWN:
            # spawned thread starts with the spawner's context conceptually,
            # but its accesses anchor through its own FENTRY call_line
            yield ev
        else:
            yield ev


class _ThreadStack:
    """One thread's call lines plus the depth of its outermost frame of
    the container's function (-1 when the thread is not under it)."""

    __slots__ = ("calls", "first")

    def __init__(self) -> None:
        self.calls: list[int] = []
        self.first = -1

    def state(self, lo: int, hi: int) -> int:
        """The anchor state :func:`anchor_events`' ``anchor_for`` implies."""
        first = self.first
        if first < 0:
            return DROP
        if first == len(self.calls) - 1:
            return DIRECT
        call_line = self.calls[first + 1]
        return call_line if lo <= call_line <= hi else DROP


def anchor_chunks(
    chunks: Iterable[EventChunk], module: Module, container: Region
) -> Iterator[EventChunk]:
    """Columnar :func:`anchor_events`: same contract, packed chunks.

    Only the FENTRY/FEXIT rows are walked one by one; each sets its
    thread's state — :data:`DROP`, :data:`DIRECT` (keep the access when
    its own line lies in the container) or a constant anchor line.  The
    memory rows of a thread take the state of its last call row before
    them (``np.searchsorted`` over row position).  Stacks and states
    carry across chunks, so chunk boundaries have no effect on the
    output rows.  Input rows are never written (spilled segments may be
    read-only memory maps); every yielded chunk owns fresh rows and
    shares the input's string table.  Empty results are not yielded.
    """
    container_func = container.func
    lo, hi = container.start_line, container.end_line
    stacks: dict[int, _ThreadStack] = {}

    for chunk in chunks:
        rows = chunk.rows
        kinds = rows[:, COL_KIND]
        is_call = (kinds == K_FENTRY) | (kinds == K_FEXIT)
        call_idx = np.flatnonzero(is_call)

        # -- the call-row walk: per thread, positions and the state each
        #    call row leaves behind; states[0] is the state entering the
        #    chunk
        marks: dict[int, tuple[list, list]] = {}
        if call_idx.shape[0]:
            names = chunk.strings.values
            calls = rows[call_idx][:, [COL_KIND, COL_NAME, COL_AUX, COL_TID]]
            for pos, (kind, name, call_line, tid) in zip(
                call_idx.tolist(), calls.tolist()
            ):
                stack = stacks.get(tid)
                if stack is None:
                    stack = stacks[tid] = _ThreadStack()
                mark = marks.get(tid)
                if mark is None:
                    mark = marks[tid] = ([], [stack.state(lo, hi)])
                if kind == K_FENTRY:
                    if stack.first < 0 and names[name] == container_func:
                        stack.first = len(stack.calls)
                    stack.calls.append(call_line)
                elif stack.calls:
                    stack.calls.pop()
                    if stack.first == len(stack.calls):
                        stack.first = -1
                mark[0].append(pos)
                mark[1].append(stack.state(lo, hi))

        # -- forward fill onto the memory rows -------------------------
        keep = ~is_call
        mem_idx = np.flatnonzero(kinds <= K_WRITE)
        if mem_idx.shape[0]:
            mem_tid = rows[mem_idx, COL_TID]
            state = np.empty(mem_idx.shape[0], dtype=np.int64)
            tids = np.unique(mem_tid).tolist()
            for tid in tids:
                sel = slice(None) if len(tids) == 1 else mem_tid == tid
                mark = marks.get(tid)
                if mark is None:
                    stack = stacks.get(tid)
                    state[sel] = DROP if stack is None else stack.state(lo, hi)
                else:
                    before = np.searchsorted(
                        np.array(mark[0], dtype=np.int64), mem_idx[sel],
                        side="right",
                    )
                    state[sel] = np.array(mark[1], dtype=np.int64)[before]
            line = rows[mem_idx, COL_LINE]
            keep_mem = (state >= 0) | (
                (state == DIRECT) & (line >= lo) & (line <= hi)
            )
            keep[mem_idx] = keep_mem

        out = rows[keep]
        if out.shape[0] == 0:
            continue
        if mem_idx.shape[0]:
            out[out[:, COL_KIND] <= K_WRITE, COL_LINE] = np.where(
                state >= 0, state, line
            )[keep_mem]
        yield EventChunk(out, chunk.strings)
