"""Self-checks of the benchmark's accounting and determinism.

    python3 -m pytest -q perfbench

The fixture runs the benchmark's own spec lists, so the structural checks
hold for the workloads that are measured; the file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import calibrate  # noqa: E402
import layers  # noqa: E402
from suite import WORKLOADS, build_specs, run_pass  # noqa: E402


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced passes and one untraced pass per workload, one seed."""
    scratch = tmp_path_factory.mktemp("perfbench")
    out = {}
    for workload in WORKLOADS:
        specs = build_specs(workload, seed=5)
        out[workload] = (
            [run_pass(workload, specs, scratch, traced=True) for _ in range(2)],
            run_pass(workload, specs, scratch),
        )
        for p in out[workload][0] + [out[workload][1]]:
            p.ref_s = calibrate.reference_loop()
    return out


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_times_do_not_double_count(monkeypatch):
    monkeypatch.setattr(layers.time, "perf_counter", FakeClock())
    trace = layers.LayerTrace()
    with trace.frame("sim.driver", "pass") as whole:
        with trace.frame("engine", "engine.run"):
            with trace.frame("core"):
                with trace.frame("mem"):
                    pass
                with trace.frame("dram"):
                    pass
    # every clock read is one tick: each frame's self time is the ticks
    # between its own reads that no child frame covers
    assert whole.elapsed == 9
    assert dict(trace.self_s) == {"sim.driver": 2, "engine": 2, "core": 3,
                                  "mem": 1, "dram": 1}
    assert sum(trace.self_s.values()) == whole.elapsed
    spans = {s["name"]: s for s in trace.spans}
    assert spans["engine.run"]["parent"] == spans["pass"]["id"]


def test_engine_check_catches_unreported_engine_time(monkeypatch):
    monkeypatch.setattr(layers.time, "perf_counter", FakeClock())
    trace = layers.LayerTrace()
    with trace.frame("engine") as engine:
        with trace.frame("core"):
            pass
        with trace.frame("engine.other"):
            pass
    trace.engine_run_s = engine.elapsed
    assert run.engine_error(SimpleNamespace(trace=trace)) == 1 / 5
    del trace.self_s["engine.other"]
    trace.engine_run_s -= 1
    assert run.engine_error(SimpleNamespace(trace=trace)) == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_add_up_to_wall_time(traced, workload):
    for p in traced[workload][0]:
        assert run.stack_error(p) < run.ACCOUNTING_TOLERANCE
        assert run.engine_error(p) < run.ACCOUNTING_TOLERANCE
        m = run.layer_metrics(p, run.wall_ref(p))
        assert m["trace.overhead"] == 0
        assert m["sim.driver.other_s"] >= 0
        assert all(m[name] >= 0 for name in run.SELF_TIME_LAYERS)
        total = sum(m[name] for name in run.SELF_TIME_LAYERS)
        assert total + m["sim.driver.other_s"] == pytest.approx(p.wall_s)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_and_tracing_changes_no_result(traced, workload):
    (first, second), plain = traced[workload]
    assert first.failed == 0 and plain.failed == 0
    assert run.exact_signature(first) == run.exact_signature(second)
    assert first.digest == plain.digest
    assert first.modelled == plain.modelled


def test_layer_structure(traced):
    sweep = run.layer_metrics(traced["sweep"][0][0], 1.0)
    assert sweep["workloads.build_calls"] == 5
    assert sweep["isa.vector.calls"] == 25
    assert sweep["sim.store.put_calls"] == 25
    assert sweep["sim.store.hit_ratio"] == 1.0
    membound = run.layer_metrics(traced["membound"][0][0], 1.0)
    assert 1 < membound["engine.events_per_load"] < 2
    assert membound["engine.events"] == (
        membound["core.events"] + membound["arch.events"]
        + membound["dram.events"])
    host = {name: membound[name] for name in run.SELF_TIME_LAYERS}
    assert max(host, key=host.get) == "core.self_s"
    compute = run.layer_metrics(traced["compute"][0][0], 1.0)
    assert compute["isa.executor.s"] > 0
    assert membound["isa.executor.s"] == sweep["isa.executor.s"] == 0


@pytest.mark.parametrize("workload", ["membound", "sweep"])
def test_reference_samples_are_left_out_of_the_wall_time(tmp_path, workload):
    def sample():
        time.sleep(0.2)
        return 0.2

    p = run_pass(workload, build_specs(workload, seed=5), tmp_path,
                 sample=sample)
    assert len(p.ref_samples) == 3
    assert p.failed == 0
    assert 0 <= p.outer_s - 0.6 - p.wall_s < 0.05


def test_reference_loop_is_independent_of_the_program():
    code = ("import sys, calibrate; assert calibrate.reference_loop() > 0; "
            "assert not [m for m in sys.modules if m.startswith('repro')]")
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                   timeout=120)


def test_metric_names_match_benchmark_json():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        run.PER_LAYER_UNITS


def test_wrappers_are_removed():
    from repro.engine.events import Engine
    from repro.isa import vector

    before = (Engine.run, vector.execute, vector.execute_simt)
    with layers.LayerTrace().installed():
        assert Engine.run is not before[0]
    assert (Engine.run, vector.execute, vector.execute_simt) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "membound",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
