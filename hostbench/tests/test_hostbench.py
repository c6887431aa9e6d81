"""Tests for the benchmark's own code.

Run from the repository root: ``python3 -m pytest hostbench/tests -q``.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
from spans import ROOT as NO_PARENT  # noqa: E402
from spans import SpanRecorder, layer_times, self_times_ns, top_level_ns  # noqa: E402
from workloads import PassResult, run_attempts  # noqa: E402


def _spans(rows):
    """Span columns from ``(name, parent, start, end)`` rows."""
    name, parent, start, end = zip(*rows)
    return {
        "name": np.array(name, dtype=np.int32),
        "parent": np.array(parent, dtype=np.int64),
        "start_ns": np.array(start, dtype=np.int64),
        "end_ns": np.array(end, dtype=np.int64),
    }


class TestSelfTime:
    def test_nested_spans(self):
        # 0: outer [0, 100) with children 1: [10, 40) and 2: [50, 90);
        # 1 has its own child 3: [20, 30).  A second root 4: [200, 210).
        spans = _spans([
            (0, NO_PARENT, 0, 100),
            (1, 0, 10, 40),
            (1, 0, 50, 90),
            (2, 1, 20, 30),
            (0, NO_PARENT, 200, 210),
        ])
        assert self_times_ns(spans).tolist() == [30, 20, 40, 10, 10]
        times = layer_times(["outer", "mid", "inner"], spans)
        assert times["outer"] == {"calls": 2, "self_s": 40e-9}
        assert times["mid"] == {"calls": 2, "self_s": 60e-9}
        assert times["inner"] == {"calls": 1, "self_s": 10e-9}
        assert top_level_ns(spans) == 110

    def test_self_times_sum_to_top_level(self):
        recorder = SpanRecorder()

        wrapped_leaf = recorder.wrap("leaf", lambda: time.sleep(0.001))
        wrapped_branch = recorder.wrap("branch", lambda: (wrapped_leaf(), wrapped_leaf()))
        wrapped_branch()
        wrapped_leaf()
        spans = recorder.arrays()
        assert spans["parent"].tolist() == [NO_PARENT, 0, 0, NO_PARENT]
        times = recorder.layer_times()
        assert times["leaf"]["calls"] == 3
        assert len(recorder.durations_ns("leaf")) == 3
        assert (recorder.durations_ns("leaf") >= 1_000_000).all()
        total = sum(row["self_s"] for row in times.values())
        assert total == pytest.approx(top_level_ns(spans) / 1e9, abs=1e-9)

    def test_span_closed_when_call_raises(self):
        recorder = SpanRecorder()

        def boom():
            raise KeyError("x")

        wrapped = recorder.wrap("boom", boom)
        with pytest.raises(KeyError):
            wrapped()
        spans = recorder.arrays()
        assert spans["end_ns"][0] >= spans["start_ns"][0] > 0
        # The stack unwound: the next span is a root again.
        recorder.wrap("after", lambda: None)()
        assert recorder.arrays()["parent"].tolist() == [NO_PARENT, NO_PARENT]


class TestPercentile:
    def test_nearest_rank_with_count(self):
        values = list(range(1, 101))
        assert run.percentile(values, 50) == (50, 100)
        assert run.percentile(values, 95) == (95, 100)
        assert run.percentile([7.0], 95) == (7.0, 1)
        with pytest.raises(ValueError):
            run.percentile([], 50)

    def test_tail_needs_ten_samples_beyond(self):
        assert run.tail_percentiles(list(range(99))) == []
        assert run.tail_percentiles(list(range(100))) == [90]
        assert run.tail_percentiles(list(range(200))) == [90, 95]
        assert run.tail_percentiles(list(range(1000))) == [90, 95, 99]

    def test_latency_block_reports_sample_count(self):
        block = run._latency_block([0.001] * 199 + [0.5])
        assert block == {
            "n": 200, "p50_ms": pytest.approx(1.0), "p90_ms": pytest.approx(1.0),
            "p95_ms": pytest.approx(1.0),
        }
        assert run._latency_block([2.0, 1.0]) == {"n": 2, "p50_ms": 1000.0}
        assert run._latency_block([]) == {"n": 0}


class _Dummy:
    def method(self):
        return "dummy"


def _report_method(conn):
    conn.send(not hasattr(_Dummy.__dict__["method"], "__wrapped__"))
    conn.close()


class TestWrappers:
    def test_restored_after_block_even_on_error(self):
        original = _Dummy.__dict__["method"]
        recorder = SpanRecorder()
        with pytest.raises(RuntimeError):
            with recorder.installed([("dummy.method", _Dummy, "method")]):
                assert _Dummy.__dict__["method"] is not original
                assert _Dummy().method() == "dummy"
                raise RuntimeError("stop")
        assert _Dummy.__dict__["method"] is original
        assert recorder.layer_times()["dummy.method"]["calls"] == 1

    def test_forked_child_runs_unwrapped(self):
        context = multiprocessing.get_context("fork")
        recorder = SpanRecorder()
        with recorder.installed([("dummy.method", _Dummy, "method")]):
            parent_end, child_end = context.Pipe()
            child = context.Process(target=_report_method, args=(child_end,))
            child.start()
            unwrapped_in_child = parent_end.recv()
            child.join(30)
        assert not child.is_alive()
        assert unwrapped_in_child

    def test_restored_after_traced_run(self):
        targets = run.trace_targets()
        originals = [owner.__dict__[attribute] for _, owner, attribute in targets]
        result = run.traced(_TinyWorkload())
        assert result["errors"] == []
        assert [owner.__dict__[attribute] for _, owner, attribute in targets] == originals
        metrics = result["metrics"]
        assert metrics["kernel.mem_read.calls"] == 8
        assert metrics["core.build.calls"] == 1
        self_total = sum(
            value for name, value in metrics.items() if name.endswith(".self_s")
        )
        assert self_total + metrics["unattributed_s"] == pytest.approx(
            metrics["traced_wall_s"], abs=1e-6
        )
        assert set(metrics) == set(run.per_layer_units())


class TestHostSpeed:
    def test_segment_scaled_by_kernel_runs_around_it(self, monkeypatch):
        samples = iter([0.1, 0.3, 0.2])
        monkeypatch.setattr(hostspeed, "kernel_s", lambda: next(samples))
        clock = hostspeed.HostClock(sensitivity=1.0)
        ref = hostspeed.REFERENCE_S
        assert clock.segment(2.0) == pytest.approx(2.0 * ref / 0.2)
        # The kernel run after one segment is the one before the next.
        assert clock.segment(2.0) == pytest.approx(2.0 * ref / 0.25)
        assert clock.kernel_samples_s == [0.1, 0.3, 0.2]

    def test_sensitivity_damps_the_scaling(self, monkeypatch):
        monkeypatch.setattr(hostspeed, "kernel_s", lambda: 4 * hostspeed.REFERENCE_S)
        assert hostspeed.HostClock(sensitivity=0.5).segment(1.0) == pytest.approx(0.5)
        assert hostspeed.HostClock(sensitivity=0.0).segment(1.0) == pytest.approx(1.0)

    def test_kernel_is_deterministic(self, monkeypatch):
        monkeypatch.setattr(hostspeed, "ROUNDS", 2_000)
        assert hostspeed.kernel() == hostspeed.kernel()

    def test_measure_times_every_pass_but_the_warm_up(self, monkeypatch):
        monkeypatch.setattr(hostspeed, "kernel_s", lambda: hostspeed.REFERENCE_S)
        result = run.measure(_TinyWorkload(), seconds=0.0)
        assert result["errors"] == []
        assert set(result["metrics"]) == set(run.END_TO_END)
        # One warm-up pass, then at least one timed pass; both are checked.
        assert result["attempted"] == 2
        detail = result["detail"]
        assert len(detail["pass_samples_s"]) == 1
        assert len(detail["setup_samples_s"]) == run.SETUP_REPEATS
        assert detail["pass_samples_s"] == pytest.approx(detail["pass_host_samples_s"])


class _TinyWorkload:
    """A few page reads on a small machine: exercises the traced path quickly."""

    setup_per_pass = True
    host_sensitivity = 1.0

    def setup(self):
        from repro.core import Machine, MachineConfig
        from repro.sim.units import PAGE_SIZE

        machine = Machine(MachineConfig.small(seed=0))
        task = machine.kernel.spawn("reader", cpu=0)
        va = machine.kernel.sys_mmap(task.pid, 8 * PAGE_SIZE)
        machine.kernel.mem_write(task.pid, va, bytes(8 * PAGE_SIZE))
        return machine, task.pid, va

    def fingerprint(self, state):
        return repr(state[0].stats())

    def run_pass(self, state):
        from repro.sim.units import PAGE_SIZE

        machine, pid, va = state
        start = time.perf_counter()
        for page in range(8):
            machine.kernel.mem_read(pid, va + page * PAGE_SIZE, PAGE_SIZE)
        return PassResult(
            wall_s=time.perf_counter() - start, attempts=1, failed=0,
            counters={"stats": machine.stats()},
        )


class TestFailureAccounting:
    def test_raising_attempt_counted_as_failed(self):
        def attempt(index):
            if index == 1:
                raise RuntimeError("worker exploded")
            return index * 10

        result = PassResult(wall_s=0.0, attempts=0, failed=0)
        outputs = run_attempts(attempt, range(3), result)
        assert outputs == [0, None, 20]
        assert result.attempts == 3
        assert result.failed == 1
        assert len(result.attempt_walls_s) == 3
        assert "worker exploded" in result.errors[0]


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    from workloads import WORKLOADS

    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
