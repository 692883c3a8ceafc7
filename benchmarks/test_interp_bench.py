"""Interpreter-backend benchmark: reference vs ``vector`` wall-clock.

Times both execution backends per architecture, asserts bit-identical
results (the backends' contract, see ``docs/backends.md``), and records
the per-workload wall-clock pairs into ``BENCH_interp.json`` (schema 2:
one section per architecture) — the perf trajectory file ROADMAP item 3
calls for.  Millipede runs every registered workload at its *default*
input size; the three SIMT architectures run a compute-dense and a
memory-dominated representative each (``gda``/``count``) to bound CI
time while still exercising both the PDOM divergence engine and the
batched DRAM path.  The final test enforces the acceptance gates:
millipede must keep a >= 3x best speedup, and at least one SIMT
architecture must beat 1x.

Expected shape: the win tracks compute density.  gda/pca (hundreds of
ALU ops per input word) gain the most — the vector backend executes
those ops once, batched across all threads/warps, and replays cheap gap
counters.  sample/count sit at the other end: nearly every cycle
involves the memory system, whose event-driven model runs either way
(the batched DRAM window scan is what moves them).
"""

from __future__ import annotations

import pickle
import time

import pytest

from conftest import record_bench, run_once
from repro.sim.driver import run
from repro.sim.options import ExecOptions
from repro.sim.spec import RunSpec
from repro.workloads.registry import workload_names

#: arch -> workloads timed for it (millipede: the full registry)
ARCH_WORKLOADS: dict[str, list[str]] = {
    "millipede": workload_names(),
    "gpgpu": ["count", "gda"],
    "vws": ["count", "gda"],
    "vws-row": ["count", "gda"],
}

#: filled per (arch, workload) by the timing tests, written by test_record_json
_TIMES: dict[str, dict[str, dict]] = {}


def _fingerprint(r) -> bytes:
    return pickle.dumps((r.finish_ps, r.collected, r.stats, r.reduced,
                         r.energy.total_j, r.validated))


def _time_both(arch: str, wl: str) -> dict:
    t0 = time.perf_counter()
    ref = run(RunSpec(arch, wl))
    t_ref = time.perf_counter() - t0
    t0 = time.perf_counter()
    vec = run(RunSpec(arch, wl, options=ExecOptions(backend="vector")))
    t_vec = time.perf_counter() - t0
    assert _fingerprint(ref) == _fingerprint(vec), (
        f"{arch}/{wl}: vector backend result differs from reference")
    return {
        "n_records": ref.n_records,
        "reference_s": round(t_ref, 4),
        "vector_s": round(t_vec, 4),
        "speedup": round(t_ref / t_vec, 3),
    }


@pytest.mark.parametrize("arch,wl", [
    (arch, wl) for arch, wls in ARCH_WORKLOADS.items() for wl in wls
])
def test_interp_backend(benchmark, arch, wl):
    _TIMES.setdefault(arch, {})[wl] = run_once(benchmark, _time_both, arch, wl)


def test_record_json(benchmark):
    want = {(a, w) for a, wls in ARCH_WORKLOADS.items() for w in wls}
    have = {(a, w) for a, wls in _TIMES.items() for w in wls}
    if have != want:
        pytest.skip("recorder needs the whole module's timing tests")
    arches = {
        arch: {
            "workloads": times,
            "best_speedup": max(t["speedup"] for t in times.values()),
        }
        for arch, times in _TIMES.items()
    }
    path = record_bench("interp", {
        "arches": arches,
        "best_speedup": max(sec["best_speedup"] for sec in arches.values()),
    })
    # the ISSUE-6 acceptance gate: >= 3x on at least one millipede
    # workload at its default input size
    best = arches["millipede"]["best_speedup"]
    assert best >= 3.0, (
        f"fast backend best millipede speedup {best}x < 3x ({path})")
    # the ISSUE-8 acceptance gate: the SIMT replay must actually win
    # somewhere (>1x on at least one SIMT architecture)
    simt_best = max(arches[a]["best_speedup"]
                    for a in ("gpgpu", "vws", "vws-row"))
    assert simt_best > 1.0, (
        f"vector backend never beats reference on a SIMT arch "
        f"(best {simt_best}x; {path})")
