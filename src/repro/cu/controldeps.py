"""Re-convergence points and dynamic control dependence (§3.2.2).

A statement is control-dependent on a branch if it executes conditionally on
the branch's outcome — i.e. it lies between the branch and the branch's
*re-convergence point*, the first instruction where the alternatives merge
and unconditional execution resumes.

With the CFG available (we compile from source) the re-convergence point is
the branch block's immediate post-dominator.  :func:`lookahead_reconvergence`
also implements the paper's *look-ahead* technique for the no-source case:
walk every branch alternative, following jumps without executing, until the
paths meet (Fig. 3.1).
"""

from __future__ import annotations

from typing import Optional

from repro.mir.cfg import build_cfg, immediate_postdominator, postdominators
from repro.mir.instructions import Opcode
from repro.mir.module import Function


def reconvergence_points(func: Function) -> dict[int, Optional[int]]:
    """Map every branching block label to its re-convergence block label
    (immediate post-dominator), computed from the CFG."""
    cfg = build_cfg(func)
    pdom = postdominators(cfg)
    out: dict[int, Optional[int]] = {}
    for block in func.blocks:
        term = block.terminator
        if term is not None and term.op == Opcode.BR:
            out[block.label] = immediate_postdominator(cfg, block.label, pdom)
    return out


def lookahead_reconvergence(func: Function, branch_label: int) -> Optional[int]:
    """The dynamic look-ahead: traverse both branch alternatives without
    executing, following jumps, until a common block is found.

    Mirrors the Valgrind-based implementation of §3.2.2, which disassembles
    the alternatives' basic blocks and walks them to the merge point.
    """
    cfg = build_cfg(func)
    succs = cfg.succs.get(branch_label, [])
    if len(succs) != 2:
        return None
    left, right = succs
    if left == right:
        return left
    seen_left: set[int] = set()
    seen_right: set[int] = set()
    frontier_left = [left]
    frontier_right = [right]
    # breadth-first expansion of both alternatives; the first block reached
    # by both walks is the re-convergence point
    for _ in range(len(func.blocks) * 2 + 4):
        meet = (seen_left | set(frontier_left)) & (seen_right | set(frontier_right))
        if meet:
            # prefer the meeting block closest to the branch (smallest
            # discovery order): frontier order approximates that
            for candidate in frontier_left + frontier_right + sorted(meet):
                if candidate in meet:
                    return candidate
        next_left: list[int] = []
        for node in frontier_left:
            if node in seen_left:
                continue
            seen_left.add(node)
            next_left.extend(
                s for s in cfg.succs.get(node, ()) if s not in seen_left
            )
        next_right: list[int] = []
        for node in frontier_right:
            if node in seen_right:
                continue
            seen_right.add(node)
            next_right.extend(
                s for s in cfg.succs.get(node, ()) if s not in seen_right
            )
        if not next_left and not next_right:
            break
        frontier_left = next_left
        frontier_right = next_right
    meet = seen_left & seen_right
    return min(meet) if meet else None


def control_dependent_blocks(func: Function) -> dict[int, set[int]]:
    """branch block label -> blocks control-dependent on it (between the
    branch and its re-convergence point)."""
    cfg = build_cfg(func)
    pdom = postdominators(cfg)
    out: dict[int, set[int]] = {}
    for block in func.blocks:
        term = block.terminator
        if term is None or term.op != Opcode.BR:
            continue
        reconv = immediate_postdominator(cfg, block.label, pdom)
        dependent: set[int] = set()
        stack = [s for s in cfg.succs.get(block.label, ())]
        while stack:
            node = stack.pop()
            if node == reconv or node in dependent or node == block.label:
                continue
            dependent.add(node)
            stack.extend(cfg.succs.get(node, ()))
        out[block.label] = dependent
    return out
