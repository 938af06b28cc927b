"""A small pass framework over MIR, mirroring the LLVM pass taxonomy (§1.4.2).

The framework's own analyses are implemented as passes where it buys
structure: instrumentation statistics, region verification, and the static
half of Phase 1.  Passes are deliberately lightweight — a callable plus a
name — managed by :class:`PassManager` which runs module passes, then
loop passes per loop region (outermost last, matching LLVM's LoopPass
ordering).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.mir.instructions import Opcode
from repro.mir.module import Module, Region


@dataclass
class PassResult:
    """Accumulated named results of an analysis run."""

    data: dict[str, object] = field(default_factory=dict)

    def __getitem__(self, key: str) -> object:
        return self.data[key]

    def __setitem__(self, key: str, value: object) -> None:
        self.data[key] = value

    def __contains__(self, key: str) -> bool:
        return key in self.data


ModulePassFn = Callable[[Module, PassResult], None]
LoopPassFn = Callable[[Module, Region, PassResult], None]


@dataclass
class Pass:
    name: str
    kind: str  # 'module' | 'loop'
    run: Callable


class PassManager:
    """Schedules registered passes over a module."""

    def __init__(self) -> None:
        self.passes: list[Pass] = []

    def add_module_pass(self, name: str, fn: ModulePassFn) -> None:
        self.passes.append(Pass(name, "module", fn))

    def add_loop_pass(self, name: str, fn: LoopPassFn) -> None:
        self.passes.append(Pass(name, "loop", fn))

    def run(self, module: Module) -> PassResult:
        result = PassResult()
        for p in self.passes:
            if p.kind == "module":
                p.run(module, result)
            else:  # loop passes, innermost first then outermost (LLVM order)
                for region in _loops_innermost_first(module):
                    p.run(module, region, result)
        return result


def _loops_innermost_first(module: Module) -> list[Region]:
    loops = module.loops()
    depth: dict[int, int] = {}

    def depth_of(region: Region) -> int:
        if region.region_id in depth:
            return depth[region.region_id]
        d = 0
        parent = region.parent
        while parent is not None:
            pr = module.regions[parent]
            if pr.kind == "loop":
                d += 1
            parent = pr.parent
        depth[region.region_id] = d
        return d

    return sorted(loops, key=depth_of, reverse=True)


# ---------------------------------------------------------------------------
# Built-in analysis passes
# ---------------------------------------------------------------------------


def instrumentation_stats(module: Module, result: PassResult) -> None:
    """Counts instrumentation sites per function (memory ops, markers)."""
    stats: dict[str, dict[str, int]] = {}
    for func in module.functions.values():
        loads = stores = markers = 0
        for instr in func.code:
            if instr.op == Opcode.LOAD:
                loads += 1
            elif instr.op == Opcode.STORE:
                stores += 1
            elif instr.op in (Opcode.ENTER, Opcode.EXIT, Opcode.ITER):
                markers += 1
        stats[func.name] = {
            "loads": loads,
            "stores": stores,
            "markers": markers,
            "instrs": len(func.code),
        }
    result["instrumentation_stats"] = stats


def verify_regions(module: Module, result: PassResult) -> None:
    """Checks ENTER/EXIT nesting per function (static well-formedness).

    Every code path should keep region markers properly nested; since breaks
    can jump across branch regions, we only verify that each region has
    exactly one ENTER and one EXIT site and that parents enclose children by
    line range.
    """
    enters: dict[int, int] = {}
    exits: dict[int, int] = {}
    for func in module.functions.values():
        for instr in func.code:
            if instr.op == Opcode.ENTER:
                enters[instr.a] = enters.get(instr.a, 0) + 1
            elif instr.op == Opcode.EXIT:
                exits[instr.a] = exits.get(instr.a, 0) + 1
    problems: list[str] = []
    for region in module.regions.values():
        if region.kind == "func":
            continue
        if enters.get(region.region_id, 0) != 1:
            problems.append(f"region {region.region_id} has no unique ENTER")
        if exits.get(region.region_id, 0) != 1:
            problems.append(f"region {region.region_id} has no unique EXIT")
        if region.parent is not None:
            parent = module.regions[region.parent]
            if not (
                parent.start_line <= region.start_line
                and region.end_line <= parent.end_line
            ):
                problems.append(
                    f"region {region.region_id} not enclosed by parent line range"
                )
    result["region_problems"] = problems


def loop_memops(module: Module, region: Region, result: PassResult) -> None:
    """Collects static memory-operation ids per loop region (used by the
    skipping optimization's per-op state sizing, §2.4)."""
    table = result.data.setdefault("loop_memops", {})
    func = module.functions[region.func]
    ops = [
        instr.op_id
        for instr in func.code
        if instr.is_memory() and region.contains_line(instr.line)
    ]
    table[region.region_id] = ops


def default_pipeline() -> PassManager:
    """The standard static-analysis pipeline run before profiling."""
    pm = PassManager()
    pm.add_module_pass("instrumentation-stats", instrumentation_stats)
    pm.add_module_pass("verify-regions", verify_regions)
    pm.add_loop_pass("loop-memops", loop_memops)
    return pm
