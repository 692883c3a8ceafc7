"""ExecOptions: the *how* of a simulation, separated from the *what*.

A :class:`RunSpec` describes what to simulate (architecture, workload,
config, record count, seed); :class:`ExecOptions` describes how to execute
it (validation, runtime invariant checking, tracing, and which execution
backend runs the instruction streams).  Keeping the execution knobs in one
frozen, keyword-only sub-value stops ``RunSpec`` from accreting a new flat
boolean per PR and gives every entry point (:mod:`repro.api`,
:func:`repro.sim.driver.run`, :func:`repro.sim.campaign.run_batch`) one
vocabulary.

Backends
--------
Every run records per-thread (MIMD) or per-warp (SIMT) issue traces in a
functional phase, then replays them through one shared event-driven
timing loop.  The backend picks only the functional producer:

===============  ========================================================
``reference``    the scalar interpreter runs each thread (or warp) to
                 completion (:mod:`repro.isa.scalar`); the functional
                 oracle
``vector``       NumPy batch executor: each processor's threads are
                 functionally executed as vectorized column ops over
                 basic blocks (:mod:`repro.isa.vector`; a lockstep PDOM
                 divergence engine on the SIMT SMs)
===============  ========================================================

Both backends run on the same binary-heap event engine and the same
timing replay, and are proven byte-identical by
``tests/test_backends.py``; see ``docs/backends.md`` for selection
guidance and the equivalence argument.

>>> ExecOptions(backend="vector").backend
'vector'
>>> ExecOptions() == ExecOptions(validate=True)
True
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

#: execution backends, in "most reference" to "most optimized" order
BACKENDS = ("reference", "vector")


@dataclass(frozen=True, kw_only=True)
class ExecOptions:
    """How one simulation executes.  Frozen, keyword-only, hashable.

    Every field is part of the spec identity: sanitized, traced, and
    fast-backend results are stored separately even though a clean run
    produces identical statistics under all of them.
    """

    #: compare the simulated reduction against the golden NumPy model
    validate: bool = True
    #: attach :class:`repro.sanitize.SimSanitizer` runtime invariant checking
    sanitize: bool = False
    #: attach :class:`repro.trace.SimTracer` timeline sampling + profiling
    trace: bool = False
    #: execution backend (see module docstring); one of :data:`BACKENDS`
    backend: str = "reference"

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"available: {', '.join(BACKENDS)}"
            )

    # ------------------------------------------------------------------
    def replace(self, **kwargs) -> "ExecOptions":
        return dc_replace(self, **kwargs)

    # ------------------------------------------------------------------
    # serialization (flat keys: the RunSpec wire format predates this
    # class, and content hashes of pre-redesign specs must stay stable)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Flat JSON-portable dict.  ``backend`` is emitted only when
        non-default so every pre-``backend`` spec keeps its content hash."""
        out = {
            "validate": self.validate,
            "sanitize": self.sanitize,
            "trace": self.trace,
        }
        if self.backend != "reference":
            out["backend"] = self.backend
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExecOptions":
        """Inverse of :meth:`to_dict`; unknown keys are rejected by the
        constructor, absent keys keep their defaults (dicts from before a
        field existed deserialize to that field's default)."""
        return cls(**data)
