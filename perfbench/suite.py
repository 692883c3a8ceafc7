"""Workload definitions and one measured pass over each.

A workload is a fixed list of :class:`repro.sim.spec.RunSpec` built from
the seed.  A *pass* runs the whole list once, closed loop: one client in
one process, each spec starts when the previous one has finished, and the
``sweep`` campaign runs with ``workers=1``.  Every spec simulates from a
cold start; the ``sweep`` store is a fresh, empty directory per pass.

The same pass code serves the untraced and the traced runs: frames of a
:class:`~layers.LayerTrace` mark the pass, spec and campaign boundaries
in both, and only a traced pass also wraps the program's layers
(:meth:`~layers.LayerTrace.installed`).
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import LayerTrace

#: Fig. 7 grid: prefetch-buffer entry counts x kernels
SWEEP_ENTRIES = (2, 4, 8, 16, 32)
SWEEP_KERNELS = ("count", "sample", "nbayes", "kmeans", "varwork")

#: (arch, kernel, n_records, backend) per workload
RUN_LISTS = {
    "membound": (
        ("millipede", "count", 32768, "vector"),
        ("millipede", "sample", 24576, "vector"),
        ("millipede", "nbayes", 12288, "vector"),
        ("gpgpu", "count", 32768, "vector"),
    ),
    "compute": (
        ("millipede", "gda", 4096, "vector"),
        ("millipede", "pca", 4096, "vector"),
        ("gpgpu", "gda", 4096, "vector"),
        ("millipede", "gda", 1024, "reference"),
    ),
}
SWEEP_RECORDS = 1024
WORKLOADS = ("membound", "compute", "sweep")

#: the cross-backend identity probe: one small spec per arch family
PROBE_ARCHES = ("millipede", "gpgpu", "ssmc")
PROBE_KERNEL, PROBE_RECORDS = "count", 1024
#: warm-up specs run at this size during set-up
WARMUP_RECORDS = 512
#: a sweep pass samples the reference loop after every this many
#: completed specs of its cold campaign
SWEEP_SAMPLE_EVERY = 8


def build_specs(workload: str, seed: int) -> list:
    """The workload's spec list for ``seed``."""
    from repro.config import DEFAULT_CONFIG
    from repro.sim.options import ExecOptions
    from repro.sim.spec import RunSpec

    if workload == "sweep":
        vector = ExecOptions(backend="vector")
        ahead = DEFAULT_CONFIG.millipede.prefetch_ahead
        specs = []
        for entries in SWEEP_ENTRIES:
            cfg = DEFAULT_CONFIG.with_millipede(
                prefetch_entries=entries,
                prefetch_ahead=min(ahead, entries - 1))
            for kernel in SWEEP_KERNELS:
                specs.append(RunSpec(
                    "millipede", kernel, config=cfg,
                    n_records=SWEEP_RECORDS, seed=seed,
                    options=vector))
        return specs
    if workload not in RUN_LISTS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return [
        RunSpec(arch, kernel, n_records=n, seed=seed,
                options=ExecOptions(backend=backend))
        for arch, kernel, n, backend in RUN_LISTS[workload]
    ]


def warm_up(workload: str, specs: list, scratch: Path) -> None:
    """Pay lazy imports and first-call costs once per (arch, kernel,
    backend) before anything is timed; a sweep also warms the store."""
    from repro import api

    seen = {}
    for spec in specs:
        key = (spec.arch, spec.workload, spec.backend)
        if key not in seen:
            seen[key] = spec.replace(n_records=WARMUP_RECORDS)
    warm = list(seen.values())
    if workload == "sweep":
        store = Path(tempfile.mkdtemp(prefix="warm-", dir=scratch))
        try:
            api.run_campaign(warm, store, workers=1)
            api.run_campaign(warm, store, workers=1)
        finally:
            shutil.rmtree(store)
    else:
        for spec in warm:
            api.run(spec)


def cross_backend_probe(seed: int) -> tuple[int, int]:
    """Run each probe arch on both backends; results must be
    byte-identical.  Returns ``(attempted, failed)``."""
    from repro import api
    from repro.sim.options import ExecOptions
    from repro.sim.spec import RunSpec
    from repro.sim.store import canonical_result_blob

    failed = 0
    for arch in PROBE_ARCHES:
        blobs = []
        try:
            for backend in ("reference", "vector"):
                spec = RunSpec(arch, PROBE_KERNEL, n_records=PROBE_RECORDS,
                               seed=seed,
                               options=ExecOptions(backend=backend))
                blobs.append(canonical_result_blob(api.run(spec)))
        except Exception as exc:  # a failing spec is counted, not fatal
            print(f"probe {arch}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            failed += 1
            continue
        if blobs[0] != blobs[1]:
            print(f"probe {arch}: reference and vector results differ",
                  file=sys.stderr)
            failed += 1
    return len(PROBE_ARCHES), failed


@dataclass
class PassResult:
    wall_s: float
    spec_s: list[float]
    attempted: int
    failed: int
    digest: str
    #: simulated instructions of the specs actually simulated
    instructions: float
    modelled: dict
    trace: LayerTrace
    #: sweep only: campaign wall times, store size and resume lookups
    campaign: dict = field(default_factory=dict)
    #: the pass's wall time read outside its frame, for the stack check
    outer_s: float = 0.0
    #: reference-loop times taken inside the pass, left out of wall_s
    ref_samples: list[float] = field(default_factory=list)
    #: mean reference-loop time over ref_samples and the samples just
    #: before and just after the pass (see calibrate.py)
    ref_s: float = 0.0
    #: peak resident memory of the process when the pass ended, MB
    rss_mb: float = 0.0


def modelled_stats(results: list) -> dict:
    """Exact modelled statistics summed over a pass's results."""
    out = {
        "sim.finish_us": 0.0, "sim.instructions": 0.0,
        "core.idle_cycles": 0.0, "dram.row_misses": 0.0,
        "dram.bus_busy_us": 0.0, "mem.pb_fill_waits": 0.0,
        "mem.l1d_demand_misses": 0.0,
    }
    for r in results:
        out["sim.finish_us"] += r.finish_ps / 1e6
        out["sim.instructions"] += r.collected.get("instructions", 0)
        out["core.idle_cycles"] += r.collected.get("idle_cycles", 0.0)
        out["dram.row_misses"] += r.stats.get("dram.row_misses", 0.0)
        out["dram.bus_busy_us"] += r.stats.get("dram.bus_busy_ps", 0.0) / 1e6
        out["mem.pb_fill_waits"] += r.stats.get("pb.fill_waits", 0.0)
        out["mem.l1d_demand_misses"] += sum(
            v for k, v in r.stats.items()
            if k.startswith("l1d") and k.endswith(".demand_misses"))
    return out


def _digest(results: list) -> str:
    from repro.sim.store import canonical_result_blob

    h = hashlib.sha256()
    for r in results:
        h.update(canonical_result_blob(r))
    return h.hexdigest()


def run_pass(workload: str, specs: list, scratch: Path,
             traced: bool = False, sample=None) -> PassResult:
    """One closed-loop pass over ``specs``; wraps the layers if traced.

    ``sample``, if given, runs the reference loop and returns its seconds.
    The pass calls it between specs (in ``sweep``, after every
    :data:`SWEEP_SAMPLE_EVERY` completed specs), so that the host's speed
    is sampled across the pass and not only at its ends.  Those seconds
    are kept in ``ref_samples`` and left out of ``wall_s``.
    """
    trace = LayerTrace()
    runner = _sweep_pass if workload == "sweep" else _runs_pass
    if traced:
        with trace.installed():
            return runner(specs, scratch, trace, sample)
    return runner(specs, scratch, trace, sample)


def _runs_pass(specs: list, scratch: Path, trace: LayerTrace,
               sample) -> PassResult:
    from repro import api

    results, spec_s, failed, samples = [], [], 0, []
    t0 = time.perf_counter()
    with trace.frame("sim.driver", "pass") as whole:
        for i, spec in enumerate(specs):
            if sample is not None and i:
                samples.append(sample())
            trace.spec_id += 1
            trace.backend = spec.backend
            try:
                with trace.frame("sim.driver", "spec") as one:
                    result = api.run(spec)
            except Exception as exc:  # counted as a failed spec
                print(f"{spec}: {type(exc).__name__}: {exc}", file=sys.stderr)
                failed += 1
                continue
            spec_s.append(one.elapsed)
            if not result.validated:
                failed += 1
            results.append(result)
    outer_s = time.perf_counter() - t0
    return PassResult(
        wall_s=whole.elapsed - sum(samples), spec_s=spec_s,
        attempted=len(specs), failed=failed, digest=_digest(results),
        instructions=sum(r.collected.get("instructions", 0) for r in results),
        modelled=modelled_stats(results), trace=trace, outer_s=outer_s,
        ref_samples=samples)


def _sweep_pass(specs: list, scratch: Path, trace: LayerTrace,
                sample) -> PassResult:
    from repro import api
    from repro.sim.store import canonical_result_blob

    store = Path(tempfile.mkdtemp(prefix="store-", dir=scratch))
    spec_s: list[float] = []
    campaign: dict = {}
    failed = 0
    results: list = []
    samples: list[float] = []

    def completed(event) -> None:
        ref, done = 0.0, len(spec_s) + 1
        if (sample is not None and done < len(specs)
                and done % SWEEP_SAMPLE_EVERY == 0):
            ref = sample()
            samples.append(ref)
        spec_s.append(trace.next_spec() - ref)

    t0 = time.perf_counter()
    try:
        with trace.frame("sim.driver", "pass") as whole:
            with trace.frame("sim.driver", "campaign.cold") as cold:
                trace.push("sim.driver", "spec")
                try:
                    report = api.run_campaign(specs, store, workers=1,
                                              progress=completed)
                finally:
                    trace.close_specs()
            campaign["store_bytes"] = sum(
                p.stat().st_size for p in store.rglob("*") if p.is_file())
            calls = trace.counts["sim.store.get_calls"]
            hits = trace.counts["sim.store.get_hits"]
            with trace.frame("sim.driver", "campaign.resume") as resume:
                again = api.run_campaign(specs, store, workers=1)
        outer_s = time.perf_counter() - t0
        campaign["cold_s"] = cold.elapsed - sum(samples)
        campaign["resume_s"] = resume.elapsed
        campaign["lookups"] = trace.counts["sim.store.get_calls"] - calls
        campaign["hits"] = trace.counts["sim.store.get_hits"] - hits
        results = [r for r in report.gather(specs) if r is not None]
        served = again.gather(specs)
        failed = len(specs) - len(results)
        failed += sum(1 for r in results if not r.validated)
        # the resume pass must serve every spec, byte-identical
        if again.misses or len(served) != len(results) or any(
                s is None or canonical_result_blob(s) != canonical_result_blob(r)
                for s, r in zip(served, results)):
            print("sweep: resume pass did not serve the cold results",
                  file=sys.stderr)
            failed = len(specs)
    except Exception as exc:  # a failed campaign fails all of its specs
        print(f"sweep: {type(exc).__name__}: {exc}", file=sys.stderr)
        failed = len(specs)
        whole_s = outer_s = time.perf_counter() - t0
    else:
        whole_s = whole.elapsed - sum(samples)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return PassResult(
        wall_s=whole_s, spec_s=spec_s, attempted=len(specs), failed=failed,
        digest=_digest(results),
        instructions=sum(r.collected.get("instructions", 0) for r in results),
        modelled=modelled_stats(results), trace=trace, campaign=campaign,
        outer_s=outer_s, ref_samples=samples)
