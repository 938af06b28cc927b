"""Shadow-memory implementations.

Two variants, as in the paper's evaluation:

* :class:`PerfectShadow` — "perfect signature": a table where every address
  has its own entry; no hash collisions, hence no false positives/negatives.
  This is the accuracy baseline of Table 2.6 and the 100 %-accuracy option
  of §2.3.7 (slower, more memory).

* :class:`SignatureShadow` — fixed-size state with a modulo hash (§2.3.2).
  A slot stores the access status of *whichever* addresses hash into it;
  collisions create false dependences instead of growing memory.  State is
  bounded by ``slots`` regardless of how many addresses the program touches.

Per address/slot both store the last write's ``(line, ctx, tid, ts)`` and
the set of reads *since that write* (one entry per distinct source line,
bounded).  The read set is what makes the profiler produce every WAR a
write closes over (Table 2.2 lists ``WAR 3<-1``, ``3<-2`` *and* ``3<-3`` for
the Figure 2.7 loop), and its emptiness is what restricts WAW dependences to
*consecutive* writes, as §2.5.2 states.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: cap on distinct read lines remembered per address/slot between writes
MAX_READS_PER_SLOT = 16


class PerfectShadow:
    """Exact per-address access status (dict-backed)."""

    __slots__ = ("write", "reads")

    #: a perfect signature never aliases two addresses (API parity with
    #: :class:`SignatureShadow`)
    collisions = 0

    def __init__(self) -> None:
        #: addr -> (line, ctx, tid, ts) of the last write
        self.write: dict[int, tuple] = {}
        #: addr -> {line: (line, ctx, tid, ts)} reads since the last write
        self.reads: dict[int, dict[int, tuple]] = {}

    def last_write(self, addr: int) -> Optional[tuple]:
        return self.write.get(addr)

    def reads_since_write(self, addr: int) -> list[tuple]:
        entry = self.reads.get(addr)
        return list(entry.values()) if entry else []

    def record_read(self, addr: int, line: int, ctx: int, tid: int, ts: int) -> None:
        entry = self.reads.get(addr)
        if entry is None:
            self.reads[addr] = {line: (line, ctx, tid, ts)}
        elif len(entry) < MAX_READS_PER_SLOT or line in entry:
            entry[line] = (line, ctx, tid, ts)

    def record_write(self, addr: int, line: int, ctx: int, tid: int, ts: int) -> None:
        self.write[addr] = (line, ctx, tid, ts)
        self.reads.pop(addr, None)

    def evict(self, base: int, size: int) -> None:
        """Variable-lifetime eviction: drop status of a dead block.

        Small blocks (stack frames) walk the range; blocks larger than
        the tracked state (big array lifetimes) filter the dicts in bulk
        instead — eviction cost is then bounded by the *live* set, never
        by the byte size of the freed block.
        """
        write = self.write
        reads = self.reads
        if size > 2 * (len(write) + len(reads)):
            end = base + size
            survivors = {
                addr: entry
                for addr, entry in write.items()
                if not base <= addr < end
            }
            # in-place: the dicts' identity must not change under
            # callers holding a reference to them
            write.clear()
            write.update(survivors)
            survivors = {
                addr: entry
                for addr, entry in reads.items()
                if not base <= addr < end
            }
            reads.clear()
            reads.update(survivors)
            return
        for addr in range(base, base + size):
            write.pop(addr, None)
            reads.pop(addr, None)

    def memory_bytes(self) -> int:
        # dict entry ≈ 104 bytes + value tuple ≈ 88
        n_reads = sum(len(e) for e in self.reads.values())
        return 192 * len(self.write) + 192 * max(n_reads, len(self.reads))

    @property
    def n_tracked(self) -> int:
        return len(self.write.keys() | self.reads.keys())


class SignatureShadow:
    """Fixed-size signature with modulo hashing (§2.3.2).

    Matches the paper's design decisions: a single hash function (keeps
    element removal for lifetime analysis simple), fixed-length state so
    "memory consumption can be adjusted as needed", and approximate status
    (colliding addresses share a slot, creating occasional false
    dependences instead of extra memory).
    """

    __slots__ = (
        "slots", "w_line", "w_ctx", "w_tid", "w_ts", "w_addr", "reads",
        "collisions",
    )

    def __init__(self, slots: int) -> None:
        if slots <= 0:
            raise ValueError("signature must have a positive number of slots")
        self.slots = slots
        self.w_line = np.zeros(slots, dtype=np.int64)
        self.w_ctx = np.zeros(slots, dtype=np.int64)
        self.w_tid = np.zeros(slots, dtype=np.int64)
        self.w_ts = np.zeros(slots, dtype=np.int64)
        #: address of the last writer per slot, to observe collisions
        self.w_addr = np.zeros(slots, dtype=np.int64)
        #: slot -> {line: (line, ctx, tid, ts)}; only occupied slots present,
        #: bounded by `slots` entries of <= MAX_READS_PER_SLOT lines
        self.reads: dict[int, dict[int, tuple]] = {}
        #: writes that landed on a slot still owned by a *different*
        #: address — the observable count of Formula 2.2's hash conflicts
        self.collisions = 0

    # line == 0 marks an empty write slot (source lines are 1-based)

    def last_write(self, addr: int) -> Optional[tuple]:
        i = addr % self.slots
        line = self.w_line[i]
        if line == 0:
            return None
        return (int(line), int(self.w_ctx[i]), int(self.w_tid[i]), int(self.w_ts[i]))

    def reads_since_write(self, addr: int) -> list[tuple]:
        entry = self.reads.get(addr % self.slots)
        return list(entry.values()) if entry else []

    def record_read(self, addr: int, line: int, ctx: int, tid: int, ts: int) -> None:
        i = addr % self.slots
        entry = self.reads.get(i)
        if entry is None:
            self.reads[i] = {line: (line, ctx, tid, ts)}
        elif len(entry) < MAX_READS_PER_SLOT or line in entry:
            entry[line] = (line, ctx, tid, ts)

    def record_write(self, addr: int, line: int, ctx: int, tid: int, ts: int) -> None:
        i = addr % self.slots
        if self.w_line[i] != 0 and self.w_addr[i] != addr:
            self.collisions += 1
        self.w_addr[i] = addr
        self.w_line[i] = line
        self.w_ctx[i] = ctx
        self.w_tid[i] = tid
        self.w_ts[i] = ts
        self.reads.pop(i, None)

    def evict(self, base: int, size: int) -> None:
        """Clear the slots of a dead block.  With collisions this may also
        clear status of colliding live addresses — the approximation the
        paper accepts in exchange for bounded memory."""
        slots = self.slots
        if size >= slots:
            self.w_line[:] = 0
            self.reads.clear()
            return
        for addr in range(base, base + size):
            i = addr % slots
            self.w_line[i] = 0
            self.reads.pop(i, None)

    def memory_bytes(self) -> int:
        arrays = (
            self.w_line.nbytes + self.w_ctx.nbytes + self.w_tid.nbytes
            + self.w_ts.nbytes + self.w_addr.nbytes
        )
        n_reads = sum(len(e) for e in self.reads.values())
        return arrays + 192 * max(n_reads, len(self.reads))

    @staticmethod
    def expected_false_positive_rate(slots: int, n_addresses: int) -> float:
        """Formula 2.2: P_fp = 1 - (1 - 1/m)^n."""
        return 1.0 - (1.0 - 1.0 / slots) ** n_addresses
