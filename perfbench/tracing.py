"""Outside-in span tracing for the benchmark's traced run.

:class:`Tracer` installs wrappers on the public functions and classes the
discovery engine calls — phase methods, the profiling VM, the profiler
backend, the CU builder, the detection helpers, validation and the
checkpoint store — and records one span per call: name, layer, start,
end, parent span and program id.  Counts are recorded at the same
boundaries.  Nothing inside ``src/`` changes; :meth:`Tracer.uninstall`
puts every original back, so untimed and timed passes never see a
wrapper.

Spans stay in memory (:attr:`Tracer.spans`) and the caller writes them
out when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import repro.engine.batch as batch_mod
import repro.engine.core as core
import repro.runtime.events as events_mod
from repro.cu.topdown import TopDownBuilder
from repro.engine.checkpoint import JobCheckpoint
from repro.engine.core import DiscoveryEngine
from repro.profiler.pet import PETBuilder
from repro.runtime.events import TraceSink
from repro.store.locks import KeyLock

#: layers a span can belong to, in pipeline order
LAYERS = (
    "engine", "frontend", "runtime", "profiler", "cu", "discovery",
    "parallelize", "simulate", "store", "batch",
)

#: span name -> per-layer metric that sums its durations (inclusive)
SPAN_METRICS = {
    "engine.profile": "engine.profile_s",
    "engine.build_cus": "engine.build_cus_s",
    "engine.detect": "engine.detect_s",
    "engine.rank": "engine.rank_s",
    "engine.parallelize": "engine.parallelize_s",
    "engine.validate": "engine.validate_s",
    "frontend.compile": "frontend.compile_s",
    "runtime.vm": "runtime.vm_s",
    "profiler.chunk": "profiler.chunk_s",
    "profiler.pet": "profiler.pet_s",
    "profiler.finish": "profiler.finish_s",
    "discovery.loops": "discovery.loops_s",
    "discovery.replay": "discovery.replay_s",
    "discovery.cu_graph": "discovery.cu_graph_s",
    "discovery.tasks_find": "discovery.tasks_find_s",
    "parallelize.seq_ref": "parallelize.seq_ref_s",
    "parallelize.validate_plan": "parallelize.validate_plan_s",
    "simulate.iteration_costs": "simulate.iteration_costs_s",
    "store.hit_read": "store.hit_read_s",
    "store.restore": "store.restore_s",
    "store.save": "store.save_s",
    "store.lock_wait": "store.lock_wait_s",
}

_ENGINE_PHASES = (
    "profile", "build_cus", "detect", "rank", "parallelize", "validate",
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: [name, layer, start, end, parent index or -1, program id]
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.program = None
        self._stack: list = []
        self._patches: list = []
        #: > 0 while the profiling VM runs (its sinks are runtime work;
        #: a checkpoint restore refilling a TraceSink is not)
        self._vm_depth = 0

    # -- recording -----------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, layer, time.perf_counter(), 0.0, parent, self.program]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, layer: str, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name, layer):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary the engine crosses."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        count = self.counts
        wrap = self._wrap

        for phase in _ENGINE_PHASES:
            self._patch(
                DiscoveryEngine, phase,
                wrap(getattr(DiscoveryEngine, phase), f"engine.{phase}",
                     "engine"),
            )
        self._patch(
            DiscoveryEngine, "run",
            wrap(DiscoveryEngine.run, "engine.run", "engine"),
        )
        self._patch(
            core, "compile_config_source",
            wrap(core.compile_config_source, "frontend.compile", "frontend"),
        )
        self._patch(core, "VM", _traced_vm_class(self, core.VM))
        self._patch(
            TraceSink, "__call__", _as_function(self._traced_trace_sink)
        )
        self._patch(core, "make_backend", self._traced_make_backend)
        self._patch(
            PETBuilder, "process_chunk",
            wrap(PETBuilder.process_chunk, "profiler.pet", "profiler"),
        )

        def count_cus(registry) -> None:
            count["cu.cus"] += len(registry.all_cus)

        self._patch(
            TopDownBuilder, "process_chunks",
            wrap(TopDownBuilder.process_chunks, "cu.build", "cu"),
        )
        self._patch(
            TopDownBuilder, "build",
            wrap(TopDownBuilder.build, "cu.build", "cu", count_cus),
        )

        self._patch(
            core, "analyze_loops",
            wrap(core.analyze_loops, "discovery.loops", "discovery"),
        )
        self._patch(core, "anchor_events", self._counting_anchor_events)
        self._patch(
            core, "SerialProfiler",
            _traced_replay_class(self, core.SerialProfiler),
        )
        self._patch(
            core, "build_cu_graph",
            wrap(core.build_cu_graph, "discovery.cu_graph", "discovery"),
        )
        for attr in ("find_spmd_tasks", "find_mpmd_tasks"):
            self._patch(
                core, attr,
                wrap(getattr(core, attr), "discovery.tasks_find",
                     "discovery"),
            )

        def count_suggestions(ranked) -> None:
            count["discovery.suggestions"] += len(ranked)

        self._patch(
            core, "rank_suggestions",
            wrap(core.rank_suggestions, "discovery.rank", "discovery",
                 count_suggestions),
        )

        def count_plan(plan) -> None:
            count["parallelize.feasible"] += len(plan.feasible_entries)

        self._patch(
            core, "build_transform_plan",
            wrap(core.build_transform_plan, "parallelize.plan",
                 "parallelize", count_plan),
        )

        def count_seq_ref(_seq) -> None:
            count["parallelize.validation_runs"] += 1

        self._patch(
            core, "run_sequential_reference",
            wrap(core.run_sequential_reference, "parallelize.seq_ref",
                 "parallelize", count_seq_ref),
        )

        def count_reports(reports) -> None:
            for report in reports:
                if not report.feasible:
                    continue
                count["parallelize.validation_runs"] += 1
                count["transforms.feasible"] += 1
                count["parallelize.pvm_steals"] += report.scheduler.get(
                    "steals", 0
                )
                if report.identical:
                    count["transforms.identical"] += 1
                    # summed in integer nano-units so the mean repeats
                    # exactly whatever order programs ran in
                    count["transforms.error_nano"] += round(
                        abs(report.prediction_error) * 1e9
                    )

        self._patch(
            core, "validate_plan",
            wrap(core.validate_plan, "parallelize.validate_plan",
                 "parallelize", count_reports),
        )
        self._patch(
            core, "collect_iteration_costs",
            wrap(core.collect_iteration_costs, "simulate.iteration_costs",
                 "simulate"),
        )

        # store / checkpoint / batch
        self._patch(
            JobCheckpoint, "load_result",
            _as_function(self._traced_load_result),
        )
        self._patch(
            JobCheckpoint, "restore",
            wrap(JobCheckpoint.restore, "store.restore", "store"),
        )
        for attr in ("save_phases", "save_result"):
            self._patch(
                JobCheckpoint, attr,
                wrap(getattr(JobCheckpoint, attr), "store.save", "store"),
            )
        self._patch(
            KeyLock, "acquire",
            wrap(KeyLock.acquire, "store.lock_wait", "store"),
        )

        def count_restored(trace) -> None:
            count["store.restored_events"] += trace.n_events

        self._patch(
            events_mod, "load_trace",
            wrap(events_mod.load_trace, "store.load_trace", "store",
                 count_restored),
        )
        self._patch(batch_mod, "run_job", self._traced_run_job)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers needing more than a span -----------------------------

    def _traced_make_backend(self, name, **options):
        backend = _ORIGINALS["make_backend"](name, **options)
        return _TracedBackend(self, backend)

    def _traced_trace_sink(self, sink, chunk) -> None:
        if not self._vm_depth:
            _ORIGINALS["trace_sink"](sink, chunk)
            return
        with self.span("runtime.trace_sink", "runtime"):
            _ORIGINALS["trace_sink"](sink, chunk)
        self.counts["runtime.events"] += len(chunk)

    def _counting_anchor_events(self, events, module, container):
        counts = self.counts

        def counted(source):
            n = 0
            for ev in source:
                n += 1
                yield ev
            counts["discovery.replay_events"] += n

        return _ORIGINALS["anchor_events"](counted(events), module, container)

    def _traced_load_result(self, checkpoint, *args, **kwargs):
        with self.span("store.read", "store") as record:
            row = _ORIGINALS["load_result"](checkpoint, *args, **kwargs)
            if row is not None:
                record[0] = "store.hit_read"
        return row

    def _traced_run_job(self, job, **kwargs):
        self.program = job.get("workload") or job.get("name")
        with self.span("batch.job", "batch"):
            row = _ORIGINALS["run_job"](job, **kwargs)
        if row.get("ok"):
            if row.get("phases_run") == [] and row.get("resumed"):
                self.counts["batch.jobs_hit"] += 1
            elif row.get("phases_restored"):
                self.counts["batch.jobs_resumed"] += 1
            else:
                self.counts["batch.jobs_computed"] += 1
        return row

    def absorb(self, spans: list, counts: dict) -> None:
        """Merge the spans and counts another process's tracer recorded.

        ``perf_counter`` reads one system-wide monotonic clock, so span
        times from forked children line up with this process's.
        """
        offset = len(self.spans)
        for name, layer, start, end, parent, prog in spans:
            self.spans.append([
                name, layer, start, end,
                parent + offset if parent >= 0 else -1, prog,
            ])
        for name, n in counts.items():
            self.counts[name] += n

    # -- reduction -----------------------------------------------------

    def _self_seconds(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _n, _l, start, end, _p, _g in self.spans]
        for span in self.spans:
            if span[4] >= 0:
                own[span[4]] -= span[3] - span[2]
        return own

    def self_times(self) -> dict:
        """``{layer: seconds}`` of self time."""
        totals = {layer: 0.0 for layer in LAYERS}
        for span, own in zip(self.spans, self._self_seconds()):
            totals[span[1]] += own
        return totals

    def span_totals(self) -> dict:
        """Inclusive seconds per :data:`SPAN_METRICS` metric, plus VM self."""
        totals = {metric: 0.0 for metric in SPAN_METRICS.values()}
        totals["runtime.vm_self_s"] = 0.0
        for span, own in zip(self.spans, self._self_seconds()):
            metric = SPAN_METRICS.get(span[0])
            if metric is not None:
                totals[metric] += span[3] - span[2]
            if span[0] == "runtime.vm":
                totals["runtime.vm_self_s"] += own
        return totals

    def records(self) -> list:
        """Spans as JSON-ready dicts (for the spans file)."""
        return [
            {"name": name, "layer": layer, "start": start, "end": end,
             "parent": parent, "program": prog}
            for name, layer, start, end, parent, prog in self.spans
        ]


#: the unwrapped callables the custom wrappers delegate to, captured at
#: import so a wrapper never calls itself
_ORIGINALS = {
    "make_backend": core.make_backend,
    "anchor_events": core.anchor_events,
    "load_result": JobCheckpoint.load_result,
    "run_job": batch_mod.run_job,
    "trace_sink": TraceSink.__call__,
}


def _as_function(method):
    """A plain function around a bound method, so that, installed on a
    class, it still receives the instance as its first argument."""

    def function(*args, **kwargs):
        return method(*args, **kwargs)

    return function


class _TracedBackend:
    """Delegating proxy around the profiler backend ``make_backend`` built."""

    def __init__(self, tracer: Tracer, backend) -> None:
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_backend", backend)

    def __call__(self, chunk) -> None:
        with self._tracer.span("profiler.chunk", "profiler"):
            self._backend(chunk)

    def finish(self):
        with self._tracer.span("profiler.finish", "profiler"):
            result = self._backend.finish()
        self._tracer.counts["profiler.deps"] += len(result.store)
        return result

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def __setattr__(self, name, value) -> None:
        setattr(self._backend, name, value)


def _traced_vm_class(tracer: Tracer, base):
    class TracedVM(base):
        def run(self, *args, **kwargs):
            tracer._vm_depth += 1
            try:
                with tracer.span("runtime.vm", "runtime"):
                    value = super().run(*args, **kwargs)
            finally:
                tracer._vm_depth -= 1
            tracer.counts["runtime.steps"] += self.total_steps
            return value

    TracedVM.__name__ = base.__name__
    return TracedVM


def _traced_replay_class(tracer: Tracer, base):
    class TracedSerialProfiler(base):
        """The anchored per-container profiler of task detection."""

        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            tracer.counts["discovery.containers"] += 1

        def process_chunk(self, chunk) -> None:
            with tracer.span("discovery.replay", "discovery"):
                super().process_chunk(chunk)

    TracedSerialProfiler.__name__ = base.__name__
    return TracedSerialProfiler
