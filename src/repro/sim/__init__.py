"""Simulation driver: build, run, validate, and summarize experiments.

:mod:`repro.sim.spec` defines the frozen :class:`RunSpec` value,
:mod:`repro.sim.driver` executes one spec, and :mod:`repro.sim.campaign`
fans batches of specs out over worker processes with dedup and an
optional :class:`~repro.sim.store.FingerprintStore` result tier.
"""

from repro.sim.campaign import BatchProgress, cross, run_batch
from repro.sim.driver import ARCHITECTURES, RunResult, run, run_many
from repro.sim.spec import RunSpec

__all__ = [
    "ARCHITECTURES",
    "BatchProgress",
    "RunResult",
    "RunSpec",
    "cross",
    "run",
    "run_batch",
    "run_many",
]
