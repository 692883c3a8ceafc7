"""One-call simulation runs.

``run("millipede", "count")`` builds the workload, instantiates the
architecture on a fresh event engine, executes to completion, validates
the simulated reduction against the golden NumPy result, and returns a
:class:`RunResult` with timing, counters, and the energy breakdown.

Entry points
------------
==================================  ===================================
call                                use case
==================================  ===================================
``run(RunSpec(...))``               one run from a frozen, serializable
                                    spec (the canonical form)
``run(arch, workload, ...)``        positional form; builds the
                                    ``RunSpec`` for you
``run_many(arches, workload)``      one workload across architectures,
                                    sharing the built dataset/kernel
``campaign.run_batch(specs, ...)``  deduplicated, stored, multiprocess
                                    fan-out over arbitrary spec lists
==================================  ===================================

Architecture keys
-----------------
===================  =====================================================
key                  paper configuration
===================  =====================================================
``gpgpu``            GPGPU SM with cache-block prefetch (Fig. 3 baseline)
``vws``              Variable Warp Sizing (4-wide warps)
``vws-row``          VWS + row-orientedness + flow control
``ssmc``             plain sea-of-simple-MIMD-cores with prefetch
``millipede-nofc``   Millipede without flow control
``millipede``        Millipede (row prefetch + flow control)
``millipede-rm``     Millipede + coarse-grain rate matching
``millipede-bar``    no flow control, software barriers per record (§VI-A)
``multicore``        conventional 8-core OoO node (Fig. 5)
===================  =====================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Union

from repro.arch.gpgpu import GpgpuSM
from repro.arch.multicore import MulticoreProcessor
from repro.arch.ssmc import SsmcProcessor
from repro.arch.vws import VwsRowSM, VwsSM
from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.millipede import MillipedeProcessor
from repro.dram.dram import GlobalMemory
from repro.energy.model import EnergyBreakdown, compute_energy
from repro.engine.events import Engine
from repro.engine.stats import Stats
from repro.sim.options import ExecOptions
from repro.sim.spec import RunSpec
from repro.workloads.base import BuiltWorkload, Workload
from repro.workloads.registry import WORKLOADS, get_workload


def _millipede_cfg(cfg: SystemConfig, **kw) -> SystemConfig:
    return cfg.with_millipede(**kw)


#: SIMT architectures use the word-interleaved thread->record mapping for
#: coalescing; MIMD architectures use the chunked (slab) mapping so each
#: core's per-row footprint is private and contiguous (section IV-C)
TRAVERSAL: dict[str, str] = {
    "gpgpu": "interleaved",
    "vws": "interleaved",
    "vws-row": "interleaved",
}

#: key -> (processor class, config transform, needs record barriers).
#: Every architecture runs under both execution backends, which differ only
#: in the functional producer of the issue traces; the MIMD cores replay
#: per-thread traces (:meth:`repro.core.corelet.MimdCore._run`) and the
#: SIMT SMs per-warp traces (:class:`repro.core.replay.SimtReplay`).
ARCHITECTURES: dict[str, tuple[type, Callable[[SystemConfig], SystemConfig], bool]] = {
    "gpgpu": (GpgpuSM, lambda c: c, False),
    "vws": (VwsSM, lambda c: c, False),
    "vws-row": (VwsRowSM, lambda c: _millipede_cfg(c, flow_control=True), False),
    "ssmc": (SsmcProcessor, lambda c: c, False),
    "millipede": (
        MillipedeProcessor,
        lambda c: _millipede_cfg(c, flow_control=True, rate_match=False),
        False,
    ),
    "millipede-nofc": (
        MillipedeProcessor,
        lambda c: _millipede_cfg(c, flow_control=False, rate_match=False),
        False,
    ),
    "millipede-rm": (
        MillipedeProcessor,
        lambda c: _millipede_cfg(c, flow_control=True, rate_match=True),
        False,
    ),
    "millipede-bar": (
        MillipedeProcessor,
        lambda c: _millipede_cfg(c, flow_control=False, record_barriers=True),
        True,
    ),
    "multicore": (MulticoreProcessor, lambda c: c, False),
}


@dataclass
class RunResult:
    """Everything one simulation produced."""

    arch: str
    workload: str
    n_records: int
    input_words: int
    finish_ps: int
    energy: EnergyBreakdown
    collected: dict[str, float]
    stats: dict[str, float]
    validated: bool
    host_seconds: float
    reduced: dict = dc_field(default_factory=dict)
    #: :class:`repro.trace.TraceResult` when the spec had ``trace=True``;
    #: None otherwise (and always None for store-served results)
    trace: Optional[object] = None

    # ------------------------------------------------------------------
    @property
    def runtime_s(self) -> float:
        return self.finish_ps / 1e12

    @property
    def throughput_words_per_s(self) -> float:
        return self.input_words / self.runtime_s if self.finish_ps else 0.0

    @property
    def insts_per_word(self) -> float:
        return self.collected.get("instructions", 0.0) / self.input_words

    @property
    def branches_per_inst(self) -> float:
        i = self.collected.get("instructions", 0.0)
        return self.collected.get("branches", 0.0) / i if i else 0.0

    @property
    def row_miss_rate(self) -> float:
        acc = self.stats.get("dram.row_accesses", 0.0) or self.stats.get(
            "offchip.row_accesses", 0.0
        )
        miss = self.stats.get("dram.row_misses", 0.0) or self.stats.get(
            "offchip.row_misses", 0.0
        )
        return miss / acc if acc else 0.0

    @property
    def energy_per_word_j(self) -> float:
        return self.energy.total_j / self.input_words

    @property
    def energy_delay(self) -> float:
        return self.energy.total_j * self.runtime_s

    def speedup_over(self, other: "RunResult") -> float:
        """Throughput ratio (robust to differing record counts)."""
        return self.throughput_words_per_s / other.throughput_words_per_s

    def summary(self) -> str:
        return (
            f"{self.arch:>15s}/{self.workload:<9s} "
            f"{self.runtime_s * 1e6:9.1f} us  "
            f"{self.throughput_words_per_s / 1e9:6.3f} Gword/s  "
            f"{self.energy.total_j * 1e6:8.2f} uJ  "
            f"rowmiss {self.row_miss_rate:5.3f}"
        )


def run(
    arch: Union[str, RunSpec],
    workload: Union[str, Workload, None] = None,
    config: SystemConfig = DEFAULT_CONFIG,
    n_records: Optional[int] = None,
    seed: int = 0,
    built: Optional[BuiltWorkload] = None,
    options: Optional[ExecOptions] = None,
    trace_interval_ps: Optional[int] = None,
    probe: Optional[Callable] = None,
) -> RunResult:
    """Simulate one :class:`RunSpec` (or the positional form) and
    validate the result.

    ``run(RunSpec(...))`` is the canonical entry point; the spec carries
    its own execution options.  ``run("millipede", "count", ...,
    options=ExecOptions(...))`` builds the spec for you (``options``
    defaults to ``ExecOptions()``) and also accepts an unregistered
    :class:`Workload` *object*.  Pass ``built`` to reuse a prepared
    workload (e.g. across the architectures of one figure) - it must have
    been built with the matching thread count.

    ``ExecOptions(sanitize=True)`` attaches
    :class:`repro.sanitize.SimSanitizer` runtime invariant checking;
    violations raise :class:`repro.sanitize.InvariantViolation`.
    ``ExecOptions(trace=True)`` attaches :class:`repro.trace.SimTracer`
    timeline sampling + host profiling (both observers compose in one
    run) and fills the result's ``trace`` field; ``trace_interval_ps``
    overrides the sampling cadence.  ``probe(proc, engine, sanitizer)``
    is called after construction and before the first event (tests use
    it to install fault injectors); it keeps ``run`` usable from tests
    without exposing internals.
    """
    if isinstance(arch, RunSpec):
        if workload is not None:
            raise TypeError(
                "run(RunSpec) takes no separate workload argument; "
                "put the workload name in the spec"
            )
        if options is not None:
            raise TypeError(
                "run(RunSpec) carries its own options; "
                "use spec.replace(options=...) to change them"
            )
        spec = arch
        wl = get_workload(spec.workload)
    else:
        wl = get_workload(workload) if isinstance(workload, str) else workload
        if wl is None:
            raise TypeError("run(arch, workload): workload is required")
        spec = RunSpec(
            arch=arch,
            workload=wl.name,
            config=config,
            n_records=n_records,
            seed=seed,
            options=options if options is not None else ExecOptions(),
        )
    return _execute(spec, wl, built, probe=probe,
                    trace_interval_ps=trace_interval_ps)


def _execute(
    spec: RunSpec, wl: Workload, built: Optional[BuiltWorkload] = None,
    probe: Optional[Callable] = None,
    trace_interval_ps: Optional[int] = None,
) -> RunResult:
    """Run one spec with an already-resolved workload object."""
    proc_cls, transform, needs_barriers = ARCHITECTURES[spec.arch]
    cfg = transform(spec.config)
    arch, validate = spec.arch, spec.validate
    n_threads = spec.n_threads
    traversal = spec.traversal

    if built is None:
        built = wl.build(
            n_threads,
            n_records=spec.n_records,
            block_records=cfg.dram.row_words,
            seed=spec.seed,
            record_barrier=needs_barriers,
            traversal=traversal,
        )
    elif built.n_threads != n_threads or built.traversal != traversal:
        raise ValueError(
            f"prebuilt workload has {built.n_threads} threads / "
            f"{built.traversal} traversal; {arch} needs {n_threads} / {traversal}"
        )

    engine = Engine()
    stats = Stats()
    sanitizer = None
    if spec.sanitize:
        from repro.sanitize import SimSanitizer

        sanitizer = SimSanitizer()
        sanitizer.attach_engine(engine)
    tracer = None
    if spec.trace:
        from repro.trace import DEFAULT_INTERVAL_PS, SimTracer

        tracer = SimTracer(interval_ps=trace_interval_ps
                           or DEFAULT_INTERVAL_PS)
        tracer.attach_engine(engine)
    gm = GlobalMemory.from_array(built.memory_image)
    # layout metadata enables oracle stream prefetch (baselines) and the
    # safe-wait record-span hint (prefetch buffer)
    extra_kwargs = {"layout": built.layout}
    if spec.backend == "vector":
        extra_kwargs["backend"] = "vector"
    proc = proc_cls(
        engine,
        cfg,
        built.program,
        gm,
        stats,
        input_base_word=built.input_base_word,
        input_end_word=built.input_end_word,
        **extra_kwargs,
    )
    if built.initial_state is not None:
        proc.load_initial_state(built.initial_state)
    proc.set_thread_args(built.thread_args)
    if sanitizer is not None:
        sanitizer.attach_processor(proc)
    if tracer is not None:
        tracer.attach_processor(proc)
    if probe is not None:
        probe(proc, engine, sanitizer)

    t0 = time.perf_counter()
    proc.start()
    engine.run()
    host_seconds = time.perf_counter() - t0
    if sanitizer is not None:
        # end-of-run invariants first: a stuck barrier generation is a
        # better diagnosis than the generic never-finished error below
        sanitizer.finalize(proc)
    if not proc.done:
        raise RuntimeError(
            f"{arch}/{wl.name}: event queue drained but the processor never "
            "finished (likely a blocked-thread deadlock)"
        )

    reduced = {}
    if validate:
        reduced = built.validate(proc.thread_states())

    trace_result = None
    if tracer is not None:
        trace_result = tracer.result(meta={
            "arch": arch,
            "workload": wl.name,
            "n_records": built.n_records,
            "seed": spec.seed,
            "finish_ps": proc.finish_ps,
        })

    collected = proc.collect()
    energy = compute_energy(arch, cfg, stats, collected)
    return RunResult(
        arch=arch,
        workload=wl.name,
        n_records=built.n_records,
        input_words=built.input_words,
        finish_ps=proc.finish_ps,
        energy=energy,
        collected=collected,
        stats=stats.as_dict(),
        validated=validate,
        host_seconds=host_seconds,
        reduced=reduced,
        trace=trace_result,
    )


def run_many(
    arches: list[str],
    workload: Union[str, Workload],
    config: SystemConfig = DEFAULT_CONFIG,
    n_records: Optional[int] = None,
    seed: int = 0,
    validate: bool = True,
) -> dict[str, RunResult]:
    """Run one workload across several architectures, reusing the built
    dataset/kernel wherever thread counts agree.

    Registered workloads route through :func:`repro.sim.campaign.run_batch`
    (serially), so they share its dedup/build-reuse machinery; unregistered
    :class:`Workload` objects keep the in-process shared-build loop.
    """
    wl = get_workload(workload) if isinstance(workload, str) else workload
    if wl.name in WORKLOADS:
        from repro.sim.campaign import run_batch

        specs = [
            RunSpec(a, wl.name, config=config, n_records=n_records,
                    seed=seed, options=ExecOptions(validate=validate))
            for a in arches
        ]
        return dict(zip(arches, run_batch(specs, workers=1)))

    results: dict[str, RunResult] = {}
    shared: dict[tuple[int, bool, str], BuiltWorkload] = {}
    for arch in arches:
        _, transform, needs_barriers = ARCHITECTURES[arch]
        cfg = transform(config)
        if arch == "multicore":
            n_threads = cfg.multicore.n_cores * cfg.multicore.n_threads
        else:
            n_threads = cfg.core.n_cores * cfg.core.n_threads
        traversal = TRAVERSAL.get(arch, "chunked")
        key = (n_threads, needs_barriers, traversal)
        if key not in shared:
            shared[key] = wl.build(
                n_threads,
                n_records=n_records,
                block_records=cfg.dram.row_words,
                seed=seed,
                record_barrier=needs_barriers,
                traversal=traversal,
            )
        results[arch] = run(
            arch, wl, config=config, seed=seed, built=shared[key],
            options=ExecOptions(validate=validate),
        )
    return results
