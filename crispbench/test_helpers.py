"""Unit tests of the benchmark's own helpers (no serving stack is started)."""

import json
from pathlib import Path

import numpy as np
import pytest

from crispbench.stats import (
    MIN_BEYOND, TAIL_LADDER, digest, latency_summary, pass_figures, tail_percentile,
)
from crispbench.tracer import Span, Tracer, covered, self_times

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("n, expected", [
    (0, None), (79, None), (80, 75.0), (199, 75.0), (200, 90.0), (399, 90.0),
    (400, 95.0), (1999, 95.0), (2000, 99.0), (19999, 99.0), (20000, 99.9),
])
def test_tail_percentile_is_the_highest_with_enough_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n * (100 - expected) / 100 >= MIN_BEYOND - 1e-9
        higher = [p for p in TAIL_LADDER if p > expected]
        assert all(n * (100 - p) / 100 < MIN_BEYOND for p in higher)


def test_latency_summary_reports_median_and_supported_tail():
    seconds = np.arange(1, 201) / 1000.0  # 1..200 ms
    summary = latency_summary(seconds)
    assert summary["n"] == 200
    assert summary["p50_ms"] == pytest.approx(100.5)
    assert summary["tail_p"] == 90.0
    assert summary["tail_ms"] == pytest.approx(np.percentile(np.arange(1, 201), 90))
    assert latency_summary([0.001] * 5)["tail_ms"] is None


def test_pass_figures_take_the_median_over_passes():
    # (due, done, ok) in seconds; pass 2 has a failure and a hung request.
    passes = [
        [(0.0, 0.010, True), (0.0, 0.030, True), (0.1, 0.120, True)],
        [(1.0, 1.050, True), (1.0, 1.200, False), (1.0, 0.0, False)],
        [(2.0, 2.040, True), (2.0, 2.100, True)],
    ]
    figures = pass_figures(passes, images=8)
    assert figures["pass_p50_ms"] == pytest.approx([20.0, 50.0, 70.0])
    assert figures["p50_ms"] == pytest.approx(50.0)
    assert figures["pass_throughput"] == pytest.approx([3 * 8 / 0.12, 8 / 0.2, 2 * 8 / 0.1])
    assert figures["throughput"] == pytest.approx(2 * 8 / 0.1)
    assert pass_figures([[(0.0, 0.0, False)]], images=1)["p50_ms"] == 0.0


def test_pass_bounds_cover_the_plan_in_order():
    from crispbench.workloads import pass_bounds

    for n, passes in ((720, 5), (7, 5), (3, 5), (1, 5)):
        bounds = pass_bounds(n, passes)
        assert len(bounds) == min(n, passes)
        assert [i for b in bounds for i in b] == list(range(n))
        assert all(len(b) > 0 for b in bounds)


def test_replay_check_flags_a_differing_or_failed_answer():
    from types import SimpleNamespace

    from crispbench.checks import check_replays

    def record(classes):
        ok = classes is not None
        return SimpleNamespace(ok=ok, response=SimpleNamespace(classes=classes))

    phase = SimpleNamespace(records=[record([1]), record([2, 0]), record([3])])
    assert check_replays(phase, [[np.array([1]), np.array([2, 0]), np.array([3])]]) == []
    assert len(check_replays(phase, [[np.array([1]), np.array([2, 1]), None]])) == 2
    phase.records[0] = record(None)
    assert len(check_replays(phase, [[np.array([1])]])) == 1


def _span(span_id, start, end, parent=None):
    return Span(span_id, f"s{span_id}", start, end, parent, None, 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 3.0, parent=1),
        _span(3, 2.0, 5.0, parent=1),  # overlaps span 2: counted once
        _span(4, 7.0, 8.0, parent=1),
        _span(5, 9.0, 12.0, parent=1),  # runs past its parent: clipped
        _span(6, 2.5, 2.7, parent=3),  # grandchild: only span 3 loses it
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (4.0 + 1.0 + 1.0))
    assert own[3] == pytest.approx(3.0 - 0.2)
    assert own[6] == pytest.approx(0.2)
    assert covered(0.0, 1.0, []) == 0.0


class _Base:
    def work(self, x):
        return x + 1


class _Toy(_Base):
    def outer(self, x):
        return self.work(x) * 2

    @classmethod
    def make(cls, x):
        return x * 3


def test_tracer_records_nesting_request_ids_and_restores():
    tracer = Tracer()
    tracer.wrap(_Toy, "outer", "outer", info=lambda a, k, r: {"result": r})
    tracer.wrap(_Toy, "work", "work")  # inherited: shadowed on _Toy only
    tracer.wrap(_Toy, "make", "make")
    tracer.set_request("r1")
    assert _Toy().outer(1) == 4
    assert _Toy.make(2) == 6
    spans = {s.name: s for s in tracer.spans}
    assert spans["work"].parent == spans["outer"].span_id
    assert spans["outer"].parent is None
    assert {s.request_id for s in tracer.spans} == {"r1"}
    assert spans["outer"].info == {"result": 4}
    assert spans["outer"].start <= spans["work"].start <= spans["work"].end <= spans["outer"].end
    tracer.restore()
    assert "work" not in vars(_Toy) and isinstance(vars(_Toy)["make"], classmethod)
    _Toy().outer(1)
    assert len(tracer.spans) == 3


def test_digest_is_stable_and_sensitive():
    a = np.arange(6, dtype=np.float64).reshape(2, 3)
    assert digest([a, "x", 1]) == digest([a.copy(), "x", 1])
    assert digest([a]) != digest([a.astype(np.float32)])
    assert digest([a]) != digest([a.reshape(3, 2)])
    assert digest([a, "x"]) != digest(["x", a])


def test_plan_digest_same_seed_same_other_seed_different():
    from crispbench.workloads import WORKLOADS, make_plan

    for spec in WORKLOADS.values():
        first = make_plan(spec, 5, 2).digest()
        assert make_plan(spec, 5, 2).digest() == first
        assert make_plan(spec, 6, 2).digest() != first


def test_benchmark_json_matches_the_metrics_the_run_prints():
    from crispbench.layers import PER_LAYER
    from crispbench.run import END_TO_END
    from crispbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_stop_processes_leaves_no_child_or_resource_tracker():
    # In a fresh interpreter, so the test process's own tracker is untouched.
    import subprocess
    import sys

    script = """
import multiprocessing, sys, time
from multiprocessing import resource_tracker
sys.path.insert(0, sys.argv[1])
from crispbench.run import stop_processes
resource_tracker.ensure_running()
tracker = resource_tracker._resource_tracker._pid
child = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,), daemon=True)
child.start()
stop_processes()
print(tracker, child.pid, len(multiprocessing.active_children()))
"""
    out = subprocess.run([sys.executable, "-c", script, str(ROOT)], capture_output=True,
                         text=True, timeout=60, check=True).stdout.split()
    tracker, child, alive = (int(v) for v in out)
    assert alive == 0
    for pid in (tracker, child):  # reaped, not merely signalled
        assert not Path(f"/proc/{pid}").exists()
