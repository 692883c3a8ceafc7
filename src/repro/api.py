"""repro.api: the coherent entry-point facade.

One import gives the three ways to run simulations, all speaking the
same vocabulary — a *what* (arch, workload, config, n_records, seed) and
a *how* (:class:`~repro.sim.options.ExecOptions`):

>>> from repro import api
>>> from repro.sim.options import ExecOptions
>>> r = api.run("millipede", "count", n_records=2048)       # doctest: +SKIP
>>> fast = ExecOptions(backend="vector")
>>> r = api.run("millipede", "count", options=fast)         # doctest: +SKIP
>>> grid = api.sweep(["ssmc", "millipede"], ["count", "kmeans"],
...                  options=fast, workers=4)               # doctest: +SKIP
>>> grid[("millipede", "count")].validated                  # doctest: +SKIP
True

Execution options travel as one frozen value instead of a trail of
boolean arguments, so adding an axis (as the ``backend`` axis was) never
widens these signatures again.  :func:`repro.sim.driver.run` takes the
same ``options=``, as do :func:`repro.sim.campaign.cross` and every
experiment's ``run_experiment``; new code should start here.

Results persist in one tier, the :class:`FingerprintStore`: pass
``store=`` (an instance or a directory path) and every spec is keyed on
its full content hash - execution options included - so a completed
spec is served from disk and never re-simulated.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from pathlib import Path

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.sim.campaign import (
    CampaignReport,
    coerce_store,
    cross,
    run_batch as _campaign_run_batch,
    run_campaign as _campaign_run_campaign,
)
from repro.sim.driver import RunResult, run as _driver_run
from repro.sim.options import ExecOptions
from repro.sim.spec import RunSpec
from repro.sim.store import DEFAULT_LEASE_S, FingerprintStore
from repro.workloads.base import Workload
from repro.workloads.registry import workload_names

__all__ = [
    "CampaignReport",
    "ExecOptions",
    "FingerprintStore",
    "RunSpec",
    "RunResult",
    "run",
    "run_batch",
    "run_campaign",
    "sweep",
]


def run(
    arch: Union[str, RunSpec],
    workload: Union[str, Workload, None] = None,
    *,
    config: SystemConfig = DEFAULT_CONFIG,
    n_records: Optional[int] = None,
    seed: int = 0,
    options: Optional[ExecOptions] = None,
) -> RunResult:
    """Simulate one configuration and validate the result.

    ``run(RunSpec(...))`` runs a prepared spec; ``run(arch, workload)``
    builds one from the *what* arguments plus ``options`` (defaulting to
    ``ExecOptions()``: validated, reference backend, no sanitizer/tracer).
    """
    return _driver_run(arch, workload, config=config, n_records=n_records,
                       seed=seed, options=options)


def run_batch(
    specs: Sequence[RunSpec],
    *,
    workers: int = 1,
    store: "FingerprintStore | Path | str | None" = None,
    progress=None,
) -> list[RunResult]:
    """Run many specs with dedup, an optional result store, and fan-out.

    Results come back in ``specs`` order.  ``store`` (a
    :class:`FingerprintStore` or its directory path) serves completed
    fingerprints and records fresh results.  This is
    :func:`repro.sim.campaign.run_batch` re-exported under the facade;
    see that module for the dedup/store/progress contract.
    """
    owned_store = None
    if store is not None and not isinstance(store, FingerprintStore):
        # created for this call: close its segment fd before returning
        owned_store = store = coerce_store(store)
    try:
        return _campaign_run_batch(specs, workers=workers, store=store,
                                   progress=progress)
    finally:
        if owned_store is not None:
            owned_store.write_index()
            owned_store.close()


def run_campaign(
    specs: Sequence[RunSpec],
    store: "FingerprintStore | Path | str",
    *,
    workers: int = 1,
    shard: Optional[tuple[int, int]] = None,
    resume: bool = True,
    name: Optional[str] = None,
    progress=None,
    steal: Optional[bool] = None,
    lease_s: float = DEFAULT_LEASE_S,
) -> CampaignReport:
    """Run a persistent, resumable, shard-able campaign (docs/campaigns.md).

    :func:`repro.sim.campaign.run_campaign` re-exported under the facade:
    results land in the durable :class:`FingerprintStore`, a manifest
    checkpoints the plan, already-recorded fingerprints are not
    re-simulated (``resume``), and ``shard=(i, n)`` splits the campaign
    across independent processes that merge through the shared store.
    Sharded campaigns **work-steal** by default (``steal=None`` means
    "steal iff sharded"): the slice is an initial-order hint, pending
    fingerprints are claimed through atomic lease files (``lease_s``),
    and an idle shard picks up a straggler's or a dead shard's work.
    ``steal=False`` restores the static hard-assignment split.
    """
    return _campaign_run_campaign(specs, store, workers=workers, shard=shard,
                                  resume=resume, name=name, progress=progress,
                                  steal=steal, lease_s=lease_s)


def sweep(
    arches: Sequence[str],
    workloads: Optional[Sequence[str]] = None,
    *,
    config: SystemConfig = DEFAULT_CONFIG,
    n_records: Optional[int] = None,
    seed: int = 0,
    options: Optional[ExecOptions] = None,
    workers: int = 1,
    store: "FingerprintStore | Path | str | None" = None,
) -> dict[tuple[str, str], RunResult]:
    """Run the arch × workload cross product; results keyed ``(arch, wl)``.

    ``workloads`` defaults to all eight registered benchmarks.  The grid
    is workload-major (the figures' iteration order) and shares
    :func:`run_batch`'s dedup/store machinery.
    """
    if workloads is None:
        workloads = workload_names()
    specs = cross(arches, workloads, config=config, n_records=n_records,
                  seed=seed,
                  options=options if options is not None else ExecOptions())
    results = run_batch(specs, workers=workers, store=store)
    return {(s.arch, s.workload): r for s, r in zip(specs, results)}
