"""Host-speed benchmark of the repro simulator: one command, one workload.

    python3 perfbench/run.py --workload membound --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The simulator is imported from the
checkout's own ``src/`` tree; without it the command fails (exit 1)
before printing a result.  The last line of standard output is one JSON
object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``wall_ref``, ``minst_per_ref``, ``peak_rss_mb``), measured with nothing
wrapped.  ``wall_ref`` is a pass's wall time in units of a fixed
reference loop timed next to it (``calibrate.py``), which cancels the
host's own speed drift; the raw seconds are printed beside it.  With ``--trace 1`` they are the per-layer ones: untraced passes
for half of ``--seconds`` give the reference wall time, then traced
passes for the other half give the layer split (see ``layers.py``) and
the spans, written to ``perfbench/out/``.  README.md in this directory
documents the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: set-up samples per untraced run (fresh interpreters), median reported
SETUP_SAMPLES = 3
#: fewest passes per measured phase, whatever --seconds says
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
#: the traced run's accounting checks allow this share of error
ACCOUNTING_TOLERANCE = 0.01
#: percentiles a timing may report beside its median
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "setup_s": "s", "wall_ref": "ref", "minst_per_ref": "Minst/ref",
    "peak_rss_mb": "MB",
}
#: per-layer metric -> unit; README.md maps each to a workload and to the
#: end-to-end metric it should move
PER_LAYER_UNITS = {
    "workloads.build_calls": "count",
    "workloads.build_s": "s",
    "workloads.validate_s": "s",
    "isa.vector.calls": "count",
    "isa.vector.s": "s",
    "isa.vector.share": "fraction",
    "isa.executor.s": "s",
    "engine.events": "count",
    "engine.events_per_load": "ratio",
    "engine.self_s": "s",
    "core.events": "count",
    "core.self_s": "s",
    "arch.events": "count",
    "arch.self_s": "s",
    "mem.loads": "count",
    "mem.self_s": "s",
    "dram.requests": "count",
    "dram.events": "count",
    "dram.self_s": "s",
    "sim.campaign.cold_s": "s",
    "sim.campaign.resume_s": "s",
    "sim.store.put_calls": "count",
    "sim.store.put_s": "s",
    "sim.store.get_calls": "count",
    "sim.store.get_s": "s",
    "sim.store.hit_ratio": "fraction",
    "sim.store.bytes": "bytes",
    "sim.driver.other_s": "s",
    "trace.overhead": "fraction",
    "sim.finish_us": "us",
    "sim.instructions": "count",
    "core.idle_cycles": "cycles",
    "dram.row_misses": "count",
    "dram.bus_busy_us": "us",
    "mem.pb_fill_waits": "count",
    "mem.l1d_demand_misses": "count",
}
#: layers whose self times, with sim.driver.other_s, make up the wall time
SELF_TIME_LAYERS = {
    "workloads.build_s": "workloads.build",
    "workloads.validate_s": "workloads.validate",
    "isa.vector.s": "isa.vector",
    "isa.executor.s": "isa.executor",
    "engine.self_s": "engine",
    "core.self_s": "core",
    "arch.self_s": "arch",
    "mem.self_s": "mem",
    "dram.self_s": "dram",
    "sim.store.put_s": "sim.store.put",
    "sim.store.get_s": "sim.store.get",
}
#: layers that run inside ``Engine.run``: their self times must add up
#: to the time measured around the ``Engine.run`` calls
ENGINE_LAYERS = ("engine", "core", "arch", "mem", "dram", "isa.executor")
#: exact counts; they must repeat bit for bit across runs of one seed
EXACT_COUNTS = (
    "workloads.build_calls", "isa.vector.calls", "engine.events",
    "core.events", "arch.events", "mem.loads", "dram.requests",
    "dram.events", "sim.store.put_calls", "sim.store.get_calls",
)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import repro
    from it; refuse any other copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator source at {SRC}; "
                         "run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest of :data:`PERCENTILES` with at least ten samples above
    it, as ``(percentile, value)``; None when there are too few samples."""
    n = len(samples)
    ordered = sorted(samples)
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            pos = p / 100 * (n - 1)
            lo = int(pos)
            hi = min(lo + 1, n - 1)
            return p, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return None


def describe(name: str, samples: list[float], unit: str) -> str:
    tail = tail_percentile(samples)
    tail_text = (f"p{tail[0]:g} {tail[1]:.4f}" if tail
                 else "no percentile with 10 samples beyond it")
    return (f"{name}: median {statistics.median(samples):.4f} {unit}, "
            f"{tail_text}, n={len(samples)}")


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh interpreters: from just before the spawn to
    the end of the warm-up, which the child reads on the same monotonic
    clock.  (Waiting for a child with a timeout polls in 50 ms steps, too
    coarse to time it from outside.)"""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-since", repr(time.monotonic())],
            check=True, stdout=subprocess.PIPE, text=True, cwd=ROOT,
            timeout=120)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_passes(workload, specs, seconds, min_passes, traced=False):
    """Passes until ``seconds`` have gone by, with the reference loop
    timed before the first pass, inside each pass and after it."""
    from calibrate import reference_loop
    from suite import run_pass

    passes = []
    t0 = time.perf_counter()
    reference_loop()  # first-call costs, not timed
    before = reference_loop()
    while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
        p = run_pass(workload, specs, OUT, traced=traced,
                     sample=reference_loop)
        after = reference_loop()
        p.ref_s = statistics.mean([before, *p.ref_samples, after])
        p.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes.append(p)
        before = after
    return passes


def wall_ref(p) -> float:
    """A pass's wall time in units of the reference loop's time."""
    return p.wall_s / p.ref_s


def layer_metrics(p, untraced_ref: float) -> dict:
    """Per-layer metrics of one traced pass; ``untraced_ref`` is the
    median :func:`wall_ref` of the untraced passes."""
    t, c = p.trace, p.trace.counts
    m = {name: t.self_s.get(layer, 0.0)
         for name, layer in SELF_TIME_LAYERS.items()}
    m["sim.driver.other_s"] = p.wall_s - sum(m.values())
    for name in EXACT_COUNTS:
        m[name] = c[name]
    m["engine.events_per_load"] = (c["engine.events"] / c["mem.loads"]
                                   if c["mem.loads"] else 0.0)
    m["isa.vector.share"] = m["isa.vector.s"] / p.wall_s
    camp = p.campaign
    m["sim.campaign.cold_s"] = camp.get("cold_s", 0.0)
    m["sim.campaign.resume_s"] = camp.get("resume_s", 0.0)
    m["sim.store.hit_ratio"] = (camp["hits"] / camp["lookups"]
                                if camp.get("lookups") else 0.0)
    m["sim.store.bytes"] = camp.get("store_bytes", 0)
    m["trace.overhead"] = wall_ref(p) / untraced_ref - 1
    m.update(p.modelled)
    return m


def stack_error(p) -> float:
    """|sum of every frame's self time - wall time| / wall time, with the
    wall time read by the pass runner outside its frames.  The self times
    telescope, so this only fails if a frame was left open or closed
    twice: it checks that the frame stack balances."""
    return abs(sum(p.trace.self_s.values()) - p.outer_s) / p.outer_s


def engine_error(p) -> float:
    """|self times of :data:`ENGINE_LAYERS` - time around Engine.run| /
    that time.  It fails if time inside the engine is booked to another
    layer, or to an unreported one that would fall into
    ``sim.driver.other_s``, or if engine-layer time is booked outside
    ``Engine.run``."""
    inside = sum(p.trace.self_s.get(layer, 0.0) for layer in ENGINE_LAYERS)
    return abs(inside - p.trace.engine_run_s) / p.trace.engine_run_s


def exact_signature(p) -> dict:
    sig = {name: p.trace.counts[name] for name in EXACT_COUNTS}
    sig.update(p.modelled)
    sig["digest"] = p.digest
    return sig


def write_spans(workload: str, seed: int, passes: list) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    doc = {"workload": workload, "seed": seed,
           "passes": [p.trace.spans for p in passes]}
    path.write_text(json.dumps(doc))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-since", type=float, metavar="T",
                    help="import and warm up, print the seconds since "
                         "time.monotonic() read T, and exit (set-up timing)")
    args = ap.parse_args(argv)

    import_program()
    sys.path.insert(0, str(HERE))
    from suite import WORKLOADS, build_specs, cross_backend_probe, warm_up

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    specs = build_specs(args.workload, args.seed)
    warm_up(args.workload, specs, OUT)
    if args.setup_since is not None:
        print(time.monotonic() - args.setup_since)
        return 0

    attempted, failed = cross_backend_probe(args.seed)
    lines = [f"workload {args.workload}: {len(specs)} specs, seed {args.seed},"
             f" closed loop, 1 client, workers=1",
             f"cross-backend probe: {attempted - failed}/{attempted} identical"]
    problems = [] if not failed else ["cross-backend probe failed"]

    if args.trace:
        half = args.seconds / 2
        plain = run_passes(args.workload, specs, half, MIN_TRACED_PASSES)
        traced = run_passes(args.workload, specs, half, MIN_TRACED_PASSES,
                            traced=True)
        passes = plain + traced
    else:
        setup = measure_setup(args.workload, args.seed)
        passes = run_passes(args.workload, specs, args.seconds, MIN_PASSES)

    for p in passes:
        attempted += p.attempted
        failed += p.failed
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        problems.append("passes of one seed produced different results")
    lines.append(f"result digest {args.workload}: {passes[0].digest}")

    walls = [p.wall_s for p in passes]
    if args.trace:
        untraced_ref = statistics.median(wall_ref(p) for p in plain)
        sigs = [exact_signature(p) for p in traced]
        if any(s != sigs[0] for s in sigs):
            problems.append("exact counts differ between traced passes")
        stack = max(stack_error(p) for p in traced)
        engine = max(engine_error(p) for p in traced)
        if stack > ACCOUNTING_TOLERANCE:
            problems.append(f"frame stack unbalanced: self times miss the "
                            f"wall time by {stack:.2%}")
        if engine > ACCOUNTING_TOLERANCE:
            problems.append(f"engine layer self times miss the Engine.run "
                            f"time by {engine:.2%}")
        lines.append(f"accounting: frame stack balances within {stack:.4%}; "
                     f"engine layers = Engine.run time within {engine:.4%}")
        # the traced pass with the median wall time, so its layer times
        # still add up to its own wall
        ordered = sorted(traced, key=lambda p: p.wall_s)
        chosen = ordered[(len(ordered) - 1) // 2]
        values = layer_metrics(chosen, untraced_ref)
        units = PER_LAYER_UNITS
        path = write_spans(args.workload, args.seed, traced)
        lines.append(f"spans: {path.relative_to(ROOT)}")
        lines.append(describe("wall_s untraced", walls[:len(plain)], "s"))
        lines.append(describe("wall_s traced", walls[len(plain):], "s"))
    else:
        rates = [p.instructions / p.wall_s / 1e6 for p in passes]
        refs = [wall_ref(p) for p in passes]
        ref_rates = [p.instructions / 1e6 / r for p, r in zip(passes, refs)]
        values = {
            "setup_s": statistics.median(setup),
            "wall_ref": statistics.median(refs),
            "minst_per_ref": statistics.median(ref_rates),
            # after a fixed number of passes, so that it does not
            # depend on how many passes the host's speed allowed
            "peak_rss_mb": passes[MIN_PASSES - 1].rss_mb,
        }
        units = END_TO_END_UNITS
        lines.append(describe("setup_s", setup, "s"))
        lines.append(describe("wall_s", walls, "s"))
        lines.append("wall_s per pass: " + " ".join(f"{w:.3f}" for w in walls))
        lines.append(describe("spec_s", [s for p in passes for s in p.spec_s],
                              "s"))
        lines.append(describe("minst_per_s", rates, "Minst/s"))
        lines.append(describe("reference loop", [p.ref_s for p in passes],
                              "s"))
        lines.append(describe("wall_ref", refs, "ref"))
        lines.append("wall_ref per pass: "
                     + " ".join(f"{r:.3f}" for r in refs))
    lines.append(f"failed_frac: {failed / attempted:.4f} "
                 f"({failed} of {attempted} specs and probes)")
    for name, unit in units.items():
        lines.append(f"{name}: {values[name]} {unit}")
    for problem in problems:
        lines.append(f"INCORRECT: {problem}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
