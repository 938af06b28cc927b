"""The profiler's text report format (Fig. 2.1 / Fig. 2.3).

One line per sink, aggregated::

    1:60 BGN loop
    1:60 NOM {RAW 1:60|i} {WAR 1:60|i} {INIT *}
    1:74 END loop 1200

``NOM`` marks ordinary source lines; ``BGN``/``END`` delimit control
regions, with the executed iteration count after ``END loop``.  For
multi-threaded programs sinks/sources carry thread ids
(``4:58|2 NOM {WAR 4:77|2|iter}``); we emit file id 1 throughout (one
translation unit per run).
"""

from __future__ import annotations

import re
from typing import Optional

from repro.profiler.deps import Dependence, DependenceStore
from repro.profiler.serial import ControlRecord


def format_report(
    store: DependenceStore,
    control: Optional[dict[int, ControlRecord]] = None,
    *,
    with_tid: bool = False,
    file_id: int = 1,
) -> str:
    """Render a dependence store (+ control records) to report text."""
    begin_lines: dict[int, list[ControlRecord]] = {}
    end_lines: dict[int, list[ControlRecord]] = {}
    if control:
        for rec in control.values():
            if rec.kind == "func":
                continue
            begin_lines.setdefault(rec.start_line, []).append(rec)
            end_lines.setdefault(rec.end_line, []).append(rec)

    by_sink: dict[tuple, list[Dependence]] = {}
    for dep in store.all():
        sink_key = (dep.sink_line, dep.sink_tid if with_tid else 0)
        by_sink.setdefault(sink_key, []).append(dep)
    init_only = {
        (line, 0) for line in store.init_lines
    } - set(by_sink.keys())
    all_lines = sorted(
        set(by_sink.keys())
        | init_only
        | {(l, 0) for l in begin_lines}
        | {(l, 0) for l in end_lines}
    )

    out: list[str] = []
    for line, tid in all_lines:
        for rec in begin_lines.get(line, []) if tid == 0 else []:
            out.append(f"{file_id}:{line} BGN {rec.kind}")
        deps = by_sink.get((line, tid), [])
        entries = [d.format(with_tid=with_tid) for d in deps]
        if line in store.init_lines:
            entries.append("{INIT *}")
        if entries:
            sink = f"{file_id}:{line}|{tid}" if with_tid else f"{file_id}:{line}"
            out.append(f"{sink} NOM " + " ".join(entries))
        for rec in end_lines.get(line, []) if tid == 0 else []:
            suffix = f" {rec.total_iterations}" if rec.kind == "loop" else ""
            out.append(f"{file_id}:{line} END {rec.kind}{suffix}")
    return "\n".join(out) + ("\n" if out else "")


_DEP_RE = re.compile(
    r"\{(RAW|WAR|WAW) (\d+):(\d+)(?:\|(\d+))?\|([A-Za-z_][A-Za-z_0-9]*)\}"
)
_INIT_RE = re.compile(r"\{INIT \*\}")
_SINK_RE = re.compile(r"^(\d+):(\d+)(?:\|(\d+))? NOM")
_BGN_RE = re.compile(r"^(\d+):(\d+) BGN (\w+)")
_END_RE = re.compile(r"^(\d+):(\d+) END (\w+)(?: (\d+))?")


def parse_report(text: str) -> tuple[DependenceStore, dict[int, ControlRecord]]:
    """Parse report text back into a store + control records.

    Inverse of :func:`format_report` up to merge counts (counts become 1)
    and loop-carried flags (not serialised in the paper's format).
    """
    store = DependenceStore()
    control: dict[int, ControlRecord] = {}
    next_region = 1
    open_regions: list[ControlRecord] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        m = _BGN_RE.match(line)
        if m:
            rec = ControlRecord(next_region, m.group(3), int(m.group(2)),
                                int(m.group(2)))
            rec.executions = 1
            control[next_region] = rec
            open_regions.append(rec)
            next_region += 1
            continue
        m = _END_RE.match(line)
        if m:
            if open_regions:
                rec = open_regions.pop()
                rec.end_line = int(m.group(2))
                if m.group(4):
                    rec.total_iterations = int(m.group(4))
            continue
        m = _SINK_RE.match(line)
        if not m:
            continue
        sink_line = int(m.group(2))
        sink_tid = int(m.group(3)) if m.group(3) else 0
        for dep_m in _DEP_RE.finditer(line):
            dep_type, _file, src_line, src_tid, var = dep_m.groups()
            store.add(
                sink_line,
                dep_type,
                int(src_line),
                var,
                sink_tid=sink_tid,
                source_tid=int(src_tid) if src_tid else 0,
            )
        if _INIT_RE.search(line):
            store.add_init(sink_line)
    return store, control
