"""Tests for the CLI entry points and call-site anchoring (lifting)."""

import hashlib

import numpy as np
import pytest

from repro.cli import main_discover, main_profile, main_report
from repro.discovery.lifting import anchor_chunks, anchor_events
from repro.discovery.tasks import call_sites
from repro.engine import DiscoveryConfig, DiscoveryEngine
from repro.mir.lowering import compile_source
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import PerfectShadow
from repro.runtime.events import (
    EV_READ,
    EV_WRITE,
    EventChunk,
    SpillingTraceSink,
    TraceSink,
)
from repro.runtime.interpreter import VM
from repro.workloads import get_workload

PROGRAM = """int a[64];
int total;
int main() {
  for (int i = 0; i < 64; i++) {
    a[i] = i * 2;
  }
  for (int i = 0; i < 64; i++) {
    total += a[i];
  }
  return total;
}
"""


RECURSIVE_SRC = """int counter;
int down(int n) {
  counter += 1;
  if (n <= 0) { return 0; }
  int a = down(n - 1);
  return a + 1;
}
int main() { return down(5); }
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(PROGRAM)
    return str(path)


class TestCLI:
    def test_profile_prints_report(self, source_file, capsys):
        assert main_profile([source_file]) == 0
        out = capsys.readouterr().out
        assert "BGN loop" in out
        assert "{INIT *}" in out

    def test_profile_with_signature_and_skipping(self, source_file, capsys):
        assert main_profile(
            [source_file, "--signature-slots", "4096", "--skip-loops"]
        ) == 0
        err = capsys.readouterr().err
        assert "skipped" in err

    def test_discover_prints_suggestions(self, source_file, capsys):
        assert main_discover([source_file]) == 0
        out = capsys.readouterr().out
        assert "DOALL" in out
        assert "#pragma omp parallel for" in out

    def test_report_prints_pet(self, source_file, capsys):
        assert main_report([source_file]) == 0
        out = capsys.readouterr().out
        assert "function main" in out
        assert "loop @" in out


class TestLifting:
    SRC = """int shared;
int box[4];
int produce(int x) {
  shared = x * 2;
  return shared + 1;
}
int consume() {
  return shared * 3;
}
int main() {
  int p = produce(5);
  int c = consume();
  box[0] = p + c;
  return box[0];
}
"""

    def _anchored(self):
        module = compile_source(self.SRC)
        trace = TraceSink()
        vm = VM(module, trace)
        vm.run()
        region = module.region_of_function("main")
        return module, list(
            anchor_events(trace.events(), module, region)
        ), vm

    def test_callee_accesses_anchor_to_call_sites(self):
        module, events, _ = self._anchored()
        produce_line = 11  # int p = produce(5);
        consume_line = 12
        mem_lines = {
            ev[2] for ev in events if ev[0] in (EV_READ, EV_WRITE)
        }
        # no callee-internal lines survive; everything maps into main
        main_region = module.region_of_function("main")
        assert all(
            main_region.contains_line(l) for l in mem_lines
        )
        assert produce_line in mem_lines
        assert consume_line in mem_lines

    def test_anchored_dependence_between_calls(self):
        module, events, vm = self._anchored()
        prof = SerialProfiler(PerfectShadow(), vm.loop_signature)
        prof.process_chunk(events)
        # consume() reads what produce() wrote: RAW 12 <- 11 on `shared`
        raws = {
            (d.sink_line, d.source_line)
            for d in prof.store
            if d.type == "RAW" and d.var == "shared"
        }
        assert (12, 11) in raws

    def test_events_outside_container_dropped(self):
        module = compile_source(self.SRC)
        trace = TraceSink()
        vm = VM(module, trace)
        vm.run()
        region = module.region_of_function("produce")
        events = list(anchor_events(trace.events(), module, region))
        mem = [ev for ev in events if ev[0] in (EV_READ, EV_WRITE)]
        # only produce's own accesses remain
        assert mem
        assert all(region.contains_line(ev[2]) for ev in mem)

    def test_recursive_container_collapses_to_top_instance(self):
        module = compile_source(RECURSIVE_SRC)
        trace = TraceSink()
        vm = VM(module, trace)
        vm.run()
        region = module.region_of_function("down")
        events = list(anchor_events(trace.events(), module, region))
        mem_lines = {ev[2] for ev in events if ev[0] in (EV_READ, EV_WRITE)}
        # all recursive activity anchors within down's body lines
        assert mem_lines
        assert all(region.contains_line(l) for l in mem_lines)
        # the recursive subtree collapses onto the call line (5)
        assert 5 in mem_lines


def _containers(module):
    """Each function region and each loop body with a call site: the
    task containers detection analyses, plus any never executed."""
    regions = [
        module.regions[f.region_id]
        for f in module.functions.values()
        if f.region_id in module.regions
    ]
    regions += [r for r in module.loops() if call_sites(module, r)]
    return regions


def _record(module, entry="main", sink=None):
    trace = sink if sink is not None else TraceSink()
    VM(module, trace).run(entry)
    return trace


def _rechunk(trace, size):
    """The trace cut into ``size``-row chunks: call stacks now straddle
    chunk boundaries."""
    rows = np.concatenate([c.rows for c in trace.iter_chunks()])
    strings = next(iter(trace.iter_chunks())).strings
    return [
        EventChunk(rows[i:i + size], strings)
        for i in range(0, rows.shape[0], size)
    ]


def _assert_anchors_agree(trace, module, chunks=None):
    for region in _containers(module):
        expected = list(anchor_events(trace.events(), module, region))
        got = [
            ev
            for chunk in anchor_chunks(
                chunks if chunks is not None else trace.iter_chunks(),
                module, region,
            )
            for ev in chunk.to_tuples()
        ]
        assert got == expected, (module.name, region.region_id)


class TestAnchorChunks:
    """The columnar anchoring against the per-event oracle."""

    @pytest.mark.parametrize("src", [TestLifting.SRC, RECURSIVE_SRC])
    def test_matches_oracle_on_small_programs(self, src):
        module = compile_source(src)
        _assert_anchors_agree(_record(module), module)

    @pytest.mark.parametrize("name", ["fib", "md5-pthread", "facedetection"])
    def test_matches_oracle_on_workloads(self, name):
        """Recursion (fib), spawned threads (md5-pthread) and loop-body
        containers (facedetection's frame loop)."""
        workload = get_workload(name)
        module = workload.compile(1)
        _assert_anchors_agree(_record(module, workload.entry), module)

    @pytest.mark.parametrize("size", [1, 7])
    @pytest.mark.parametrize("src", [TestLifting.SRC, RECURSIVE_SRC])
    def test_chunk_boundaries_do_not_matter(self, src, size):
        module = compile_source(src)
        trace = _record(module)
        _assert_anchors_agree(trace, module, _rechunk(trace, size))

    @pytest.mark.parametrize("size", [1, 7])
    def test_chunk_boundaries_do_not_matter_with_threads(self, size):
        workload = get_workload("md5-pthread")
        module = workload.compile(1)
        trace = _record(module, workload.entry)
        _assert_anchors_agree(trace, module, _rechunk(trace, size))

    def test_read_only_spilled_rows_are_never_written(self, tmp_path):
        workload = get_workload("fib")
        module = workload.compile(1)
        sink = SpillingTraceSink(
            max_resident_chunks=1, spill_dir=str(tmp_path), compress=False
        )
        VM(module, sink, chunk_size=256).run(workload.entry)
        assert sink.n_spilled_chunks >= 2
        spilled = [c for c in sink.iter_chunks()][:-1]
        assert not any(c.rows.flags.writeable for c in spilled)

        def digests():
            return [
                hashlib.sha256(open(p, "rb").read()).hexdigest()
                for p in sink.segment_paths
            ]

        before = digests()
        _assert_anchors_agree(sink, module)
        assert digests() == before
        sink.close()


class TestAnchoredDetection:
    @pytest.mark.parametrize("name", ["fib", "md5-pthread", "blackscholes"])
    def test_detect_artifact_matches_loop_oracle(self, name):
        workload = get_workload(name)
        artifacts = {
            mode: DiscoveryEngine(
                workload.compile(1),
                config=DiscoveryConfig(
                    name=name, entry=workload.entry, detect=mode
                ),
            ).detect().to_dict()
            for mode in ("loop", "vectorized")
        }
        assert artifacts["loop"] == artifacts["vectorized"]

    def test_sharded_mode_takes_the_columnar_path(self):
        workload = get_workload("fib")
        artifacts = {
            mode: DiscoveryEngine(
                workload.compile(1),
                config=DiscoveryConfig(
                    name="fib", detect=mode, detect_workers=2
                ),
            ).detect().to_dict()
            for mode in ("loop", "sharded")
        }
        assert artifacts["loop"] == artifacts["sharded"]
