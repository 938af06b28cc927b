"""Modeling the access-vs-push reordering of multi-threaded targets (§2.3.4).

In the real system, a thread's memory access and the ``push_read`` /
``push_write`` call that reports it are separate instructions; unless both
sit in the same lock region, the scheduler may interleave another thread's
access between them, so the profiler can receive accesses *out of order*
(Fig. 2.4b) — detectable as a timestamp inversion, which both marks the
dependence and exposes a potential data race.

Our VM emits events atomically with the access, so the hazard cannot arise
naturally.  :class:`DeferredSink` reintroduces it faithfully: every thread's
events are held in a per-thread buffer and released a bounded number of that
thread's *own* subsequent events later — **except** while the thread holds a
lock, in which case its events are released exactly at ``unlock``
(mirroring Fig. 2.4c, where the push is inside the lock region).  Cross-
thread order is therefore scrambled for unprotected accesses only, exactly
the paper's model.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.runtime.events import (
    EV_LOCK,
    EV_READ,
    EV_UNLOCK,
    EV_WRITE,
    EventChunk,
)


class DeferredSink:
    """Chunk-sink adapter adding bounded per-thread delivery delay."""

    def __init__(
        self,
        inner: Callable[[list], None],
        *,
        window: int = 4,
        seed: int = 7,
        chunk_size: int = 4096,
    ) -> None:
        self.inner = inner
        self.window = window
        self.rng = random.Random(seed)
        self.chunk_size = chunk_size
        #: per-thread pending events with their release deadline
        self._pending: dict[int, list[tuple[int, tuple]]] = {}
        #: per-thread count of events seen (the release clock)
        self._seen: dict[int, int] = {}
        #: per-thread held-lock depth
        self._locks: dict[int, int] = {}
        self._out: list = []

    def __call__(self, chunk) -> None:
        # packed chunks scramble per event too — iterate the legacy view
        if isinstance(chunk, EventChunk):
            chunk = chunk.to_tuples()
        for ev in chunk:
            self._feed(ev)
        self._drain_ready()

    def _feed(self, ev: tuple) -> None:
        kind = ev[0]
        if kind == EV_READ or kind == EV_WRITE:
            tid = ev[5]
        elif kind in (EV_LOCK, EV_UNLOCK):
            tid = ev[2]
        else:
            tid = None

        if tid is None:
            self._out.append(ev)
            return

        seen = self._seen.get(tid, 0) + 1
        self._seen[tid] = seen
        pending = self._pending.setdefault(tid, [])

        if kind == EV_LOCK:
            self._locks[tid] = self._locks.get(tid, 0) + 1
            pending.append((seen, ev))
            return
        if kind == EV_UNLOCK:
            self._locks[tid] = max(0, self._locks.get(tid, 0) - 1)
            pending.append((seen, ev))
            if self._locks[tid] == 0:
                # release the whole lock region atomically (Fig. 2.4c)
                self._out.extend(e for _, e in pending)
                pending.clear()
            return

        if self._locks.get(tid, 0) > 0:
            pending.append((seen, ev))  # held until unlock
        else:
            delay = self.rng.randint(0, self.window)
            pending.append((seen + delay, ev))
        # release matured events in order
        while pending and pending[0][0] <= seen and self._locks.get(tid, 0) == 0:
            self._out.append(pending.pop(0)[1])

    def _drain_ready(self) -> None:
        if len(self._out) >= self.chunk_size:
            self.inner(self._out)
            self._out = []

    def finish(self) -> None:
        """Flush all pending events (end of program)."""
        for tid, pending in self._pending.items():
            self._out.extend(e for _, e in pending)
            pending.clear()
        if self._out:
            self.inner(self._out)
            self._out = []
