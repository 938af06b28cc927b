"""The serial data-dependence profiling algorithm (Algorithm 2, extended).

Consumes instrumentation event chunks and builds merged dependences:

* read  — RAW against the last write of the address;
* write — WARs against every read since the last write, WAW when the
  previous write had no intervening read (consecutive writes, §2.5.2),
  INIT when the address was never written;
* ALLOC/FREE — variable-lifetime analysis (§2.3.5): dead blocks are evicted
  from the shadow so reused stack/heap addresses do not fabricate
  dependences;
* BGN/END/ITER — control-structure records (Fig. 2.1's ``BGN loop`` /
  ``END loop <iterations>`` lines) and loop-context bookkeeping;
* timestamps — an access recorded with a timestamp older than the shadow
  state while unprotected by locks flags a potential data race (§2.3.4).

Loop-carried classification decodes the interned loop-context signatures two
accesses carried and finds the outermost loop whose iteration numbers
differ — that loop is recorded as the dependence's *carrier*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.profiler.deps import DependenceStore, DepType
from repro.profiler.shadow import PerfectShadow, SignatureShadow
from repro.runtime.events import (
    EV_BGN,
    EV_END,
    EV_FREE,
    EV_READ,
    EV_WRITE,
    EventChunk,
)


def classify_carrier(src_sig: tuple, snk_sig: tuple) -> Optional[int]:
    """Outermost common loop whose iteration numbers differ, or None.

    Signatures are ``((region_id, iteration), ...)`` outermost-first.  The
    scan stops at the first structural mismatch (different loops at the same
    depth): beyond it the accesses are in different loop bodies and deeper
    positions say nothing about carrying.
    """
    for (r1, i1), (r2, i2) in zip(src_sig, snk_sig):
        if r1 != r2:
            return None
        if i1 != i2:
            return r1
    return None


@dataclass
class ControlRecord:
    """Aggregated control-structure info for one static region."""

    region_id: int
    kind: str
    start_line: int
    end_line: int
    executions: int = 0
    total_iterations: int = 0

    def to_dict(self) -> dict:
        return {
            "region_id": self.region_id,
            "kind": self.kind,
            "start_line": self.start_line,
            "end_line": self.end_line,
            "executions": self.executions,
            "total_iterations": self.total_iterations,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ControlRecord":
        return cls(**data)


@dataclass
class ProfileStats:
    """Workload counters used by the performance figures."""

    reads: int = 0
    writes: int = 0
    deps_built: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes


class SerialProfiler:
    """Single-consumer profiling of an event stream: the loop oracle.

    One per-event walk over the decoded tuple view, kept short and close
    to the paper; the vectorized core (:mod:`repro.profiler.vectorized`)
    is the fast path and is tested bit-identical against it.

    ``shadow`` is either shadow implementation; ``sig_decoder`` maps interned
    loop-context ids back to signature tuples (``VM.loop_signature``).
    """

    def __init__(
        self,
        shadow=None,
        sig_decoder: Optional[Callable[[int], tuple]] = None,
        *,
        store: Optional[DependenceStore] = None,
        lifetime_analysis: bool = True,
        track_control: bool = True,
    ) -> None:
        self.shadow = shadow if shadow is not None else PerfectShadow()
        self.sig_decoder = sig_decoder or (lambda sig_id: ())
        self.store = store if store is not None else DependenceStore()
        self.lifetime_analysis = lifetime_analysis
        self.track_control = track_control
        self.stats = ProfileStats()
        self.control: dict[int, ControlRecord] = {}

    # ------------------------------------------------------------------

    def __call__(self, chunk) -> None:
        self.process_chunk(chunk)

    def process_chunk(self, chunk) -> None:
        """Profile one chunk: an :class:`EventChunk`, walked through its
        decoded ``to_tuples()`` view, or any iterable of decoded tuples."""
        if isinstance(chunk, EventChunk):
            chunk = chunk.to_tuples()
        self._process_tuples(chunk)

    def _process_tuples(self, chunk: Iterable[tuple]) -> None:
        shadow = self.shadow
        store = self.store
        decode = self.sig_decoder
        stats = self.stats
        last_write = shadow.last_write
        reads_since = shadow.reads_since_write
        record_read = shadow.record_read
        record_write = shadow.record_write

        for ev in chunk:
            kind = ev[0]
            if kind == EV_READ:
                addr = ev[1]
                line = ev[2]
                var = ev[3]
                tid = ev[5]
                ts = ev[6]
                ctx = ev[7]
                stats.reads += 1
                lw = last_write(addr)
                if lw is not None:
                    carrier = classify_carrier(decode(lw[1]), decode(ctx))
                    race = lw[3] > ts
                    store.add(
                        line,
                        DepType.RAW,
                        lw[0],
                        var,
                        loop_carried=carrier is not None,
                        carrier=carrier,
                        sink_tid=tid,
                        source_tid=lw[2],
                        maybe_race=race,
                    )
                    stats.deps_built += 1
                record_read(addr, line, ctx, tid, ts)
            elif kind == EV_WRITE:
                addr = ev[1]
                line = ev[2]
                var = ev[3]
                tid = ev[5]
                ts = ev[6]
                ctx = ev[7]
                stats.writes += 1
                lw = last_write(addr)
                if lw is None:
                    store.add_init(line)
                else:
                    snk_sig = decode(ctx)
                    pending_reads = reads_since(addr)
                    if pending_reads:
                        for rd in pending_reads:
                            carrier = classify_carrier(decode(rd[1]), snk_sig)
                            race = rd[3] > ts
                            store.add(
                                line,
                                DepType.WAR,
                                rd[0],
                                var,
                                loop_carried=carrier is not None,
                                carrier=carrier,
                                sink_tid=tid,
                                source_tid=rd[2],
                                maybe_race=race,
                            )
                            stats.deps_built += 1
                    else:
                        carrier = classify_carrier(decode(lw[1]), snk_sig)
                        race = lw[3] > ts
                        store.add(
                            line,
                            DepType.WAW,
                            lw[0],
                            var,
                            loop_carried=carrier is not None,
                            carrier=carrier,
                            sink_tid=tid,
                            source_tid=lw[2],
                            maybe_race=race,
                        )
                        stats.deps_built += 1
                record_write(addr, line, ctx, tid, ts)
            elif kind == EV_FREE:
                if self.lifetime_analysis:
                    shadow.evict(ev[1], ev[2])
                    stats.evictions += 1
            elif kind == EV_BGN:
                if self.track_control:
                    rec = self.control.get(ev[1])
                    if rec is None:
                        rec = ControlRecord(ev[1], ev[2], ev[3], ev[3])
                        self.control[ev[1]] = rec
                    rec.executions += 1
            elif kind == EV_END:
                if self.track_control:
                    rec = self.control.get(ev[1])
                    if rec is None:
                        rec = ControlRecord(ev[1], ev[2], ev[3], ev[3])
                        self.control[ev[1]] = rec
                    rec.end_line = max(rec.end_line, ev[3])
                    rec.total_iterations += ev[6]
            # ALLOC / LOCK / UNLOCK / FENTRY / FEXIT / ITER / SPAWN /
            # JOINED need no shadow action here (PETBuilder and the race
            # jitter model consume them separately).

    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        return self.shadow.memory_bytes() + self.store.memory_bytes()

    def result(self) -> DependenceStore:
        return self.store


# ---------------------------------------------------------------------------
# convenience drivers
# ---------------------------------------------------------------------------


def profile_events(
    events: Iterable[tuple],
    sig_decoder: Callable[[int], tuple],
    *,
    shadow=None,
    **kwargs,
) -> SerialProfiler:
    """Profile an already-recorded event iterable."""
    profiler = SerialProfiler(shadow, sig_decoder, **kwargs)
    profiler.process_chunk(events)
    return profiler


def profile_source(
    source: str,
    *,
    signature_slots: Optional[int] = None,
    entry: str = "main",
    **vm_kwargs,
):
    """Compile, run, and profile MiniC source online (streaming chunks).

    Returns ``(profiler, vm, return_value)``.  ``signature_slots=None``
    selects the exact PerfectShadow baseline.
    """
    from repro.mir.lowering import compile_source
    from repro.runtime.interpreter import VM

    module = compile_source(source)
    shadow = (
        PerfectShadow()
        if signature_slots is None
        else SignatureShadow(signature_slots)
    )
    profiler = SerialProfiler(shadow)
    vm = VM(module, profiler, **vm_kwargs)
    profiler.sig_decoder = vm.loop_signature
    result = vm.run(entry)
    return profiler, vm, result
