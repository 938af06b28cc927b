"""Flat word-addressed memory for the VM.

Layout mirrors a simplified process address space::

    [0, global_size)                         globals segment
    [stack_base(t), stack_base(t)+stack_sz)  per-thread stacks
    [heap_base, ...)                         bump/free-list heap

Addresses are plain ints; every scalar variable and array element occupies
one word.  Real, distinct addresses matter: the profiler's signature hashing
and collision behaviour (§2.3.2) and the lifetime analysis (§2.3.5) both key
on them.
"""

from __future__ import annotations


class MemoryLayout:
    """Address-space layout bookkeeping (allocation only; storage lives in
    the VM's ``memory`` list)."""

    def __init__(
        self,
        global_size: int,
        stack_size: int = 1 << 14,
        max_threads: int = 64,
    ) -> None:
        self.global_size = global_size
        self.stack_size = stack_size
        self.max_threads = max_threads
        self.stacks_base = global_size
        self.heap_base = global_size + stack_size * max_threads
        self._heap_next = self.heap_base
        #: free list: size -> list of base addresses (simple size-class reuse)
        self._free: dict[int, list[int]] = {}
        self._live_blocks: dict[int, int] = {}

    def stack_base(self, tid: int) -> int:
        if tid >= self.max_threads:
            raise MemoryError(f"too many threads (max {self.max_threads})")
        return self.stacks_base + tid * self.stack_size

    def stack_limit(self, tid: int) -> int:
        return self.stack_base(tid) + self.stack_size

    def heap_alloc(self, size: int) -> int:
        """Allocate ``size`` words; reuses freed blocks of the same size so
        address reuse (the hazard lifetime analysis exists for) occurs."""
        if size <= 0:
            raise MemoryError("alloc size must be positive")
        bucket = self._free.get(size)
        if bucket:
            base = bucket.pop()
        else:
            base = self._heap_next
            self._heap_next += size
        self._live_blocks[base] = size
        return base

    def heap_free(self, base: int) -> int:
        """Free a live block, returning its size."""
        size = self._live_blocks.pop(base, None)
        if size is None:
            raise MemoryError(f"free of non-allocated address {base}")
        self._free.setdefault(size, []).append(base)
        return size
