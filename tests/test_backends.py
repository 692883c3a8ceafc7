"""The execution-backend contract: options API, plan-level identity of
the two functional producers, and end-to-end bit identity.

``docs/backends.md`` states the guarantee these tests enforce: for every
registered architecture and workload, the ``vector`` backend produces
**byte-identical** results to the ``reference`` backend — same finish
time, same statistics, same energy, same reduced output, same
validation verdict — not merely close ones.  Both backends share one
timing replay and differ only in the functional producer, so the
plan-level tests compare the producers' plans directly (a failure names
the thread or warp and the event index), and the end-to-end sweep
checks the whole run.  If a change breaks identity, the fix goes in the
backend, never in the tolerance.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.isa import scalar, vector
from repro.sim.driver import ARCHITECTURES, run
from repro.sim.options import BACKENDS, ExecOptions
from repro.sim.spec import RunSpec
from repro.workloads.registry import workload_names

#: small enough to keep the full differential matrix fast, large enough
#: that every thread context runs real records (128 global threads on
#: the MIMD arches, 2 records each)
N_RECORDS = 256


def fingerprint(r):
    """Everything a backend must reproduce byte-for-byte (host_seconds
    is wall-clock and legitimately differs).  Pickled so nested NumPy
    arrays in ``reduced`` compare as bytes, which is exactly the
    guarantee: identical serialized results."""
    return pickle.dumps((
        r.finish_ps,
        r.collected,
        r.stats,
        r.reduced,
        r.energy.total_j,
        r.validated,
    ))


def record_producers(monkeypatch) -> list:
    """Wrap both functional producers; every call appends
    ``(name, args, kwargs, plan)``, e.g. name ``"scalar.execute"``."""
    calls = []

    def recording(fn, name):
        def wrapper(*args, **kwargs):
            plan = fn(*args, **kwargs)
            calls.append((name, args, kwargs, plan))
            return plan
        return wrapper

    for mod in (scalar, vector):
        short = mod.__name__.rsplit(".", 1)[1]
        for fn_name in ("execute", "execute_simt"):
            monkeypatch.setattr(mod, fn_name, recording(
                getattr(mod, fn_name), f"{short}.{fn_name}"))
    return calls


def first_difference(a, b, unit: str, trace_fields, array_fields,
                     scalar_fields=()) -> str | None:
    """Where two plans first differ (``a`` scalar, ``b`` vector): the
    first thread/warp and event index of a differing trace field, the
    first thread of a differing per-thread array, or a differing total;
    ``None`` if the plans are equal."""
    attr = "traces" if unit == "thread" else "warp_traces"
    ta, tb = getattr(a, attr), getattr(b, attr)
    if len(ta) != len(tb):
        return f"{len(ta)} scalar {unit} traces != {len(tb)} vector"
    for i, (x, y) in enumerate(zip(ta, tb)):
        for f in trace_fields:
            xs, ys = getattr(x, f), getattr(y, f)
            if xs != ys:
                k = next((k for k, (u, v) in enumerate(zip(xs, ys)) if u != v),
                         min(len(xs), len(ys)))
                return (f"{unit} {i} {f}[{k}]: scalar {xs[k:k + 1]} != "
                        f"vector {ys[k:k + 1]} (lengths {len(xs)}/{len(ys)})")
    for f in array_fields:
        xs, ys = getattr(a, f), getattr(b, f)
        if xs.shape != ys.shape:
            return f"{f}: scalar shape {xs.shape} != vector {ys.shape}"
        bad = np.flatnonzero((xs != ys).reshape(len(xs), -1).any(axis=1))
        if bad.size:
            return (f"{f}: thread {bad[0]} scalar {xs[bad[0]]} != "
                    f"vector {ys[bad[0]]}")
    for f in scalar_fields:
        if getattr(a, f) != getattr(b, f):
            return f"{f}: scalar {getattr(a, f)} != vector {getattr(b, f)}"
    return None


# ----------------------------------------------------------------------
# ExecOptions / RunSpec API
# ----------------------------------------------------------------------
class TestExecOptions:
    def test_defaults(self):
        o = ExecOptions()
        assert (o.validate, o.sanitize, o.trace, o.backend) == (
            True, False, False, "reference")
        assert BACKENDS == ("reference", "vector")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecOptions().backend = "vector"

    def test_unknown_backend_rejected(self):
        # the removed calendar backend: stored specs may still name it
        for backend in ("jit", "calendar"):
            with pytest.raises(ValueError, match="unknown backend"):
                ExecOptions(backend=backend)

    def test_replace(self):
        o = ExecOptions(sanitize=True)
        o2 = o.replace(backend="vector")
        assert o2.sanitize and o2.backend == "vector"
        assert o.backend == "reference"  # original untouched

    def test_dict_round_trip(self):
        o = ExecOptions(validate=False, trace=True, backend="vector")
        assert ExecOptions.from_dict(o.to_dict()) == o

    def test_to_dict_omits_default_backend(self):
        # pre-redesign dicts had no "backend" key; emitting one only when
        # non-default keeps old content hashes stable
        assert "backend" not in ExecOptions().to_dict()
        assert ExecOptions(backend="vector").to_dict()["backend"] == "vector"


class TestRunSpecOptions:
    def test_options_views(self):
        s = RunSpec("millipede", "count",
                    options=ExecOptions(sanitize=True, backend="vector"))
        assert s.sanitize and s.backend == "vector"  # delegating properties
        assert not s.trace and s.validate

    def test_mixing_options_and_flags_rejected(self):
        # execution flags go inside options=; there is no flat spelling
        with pytest.raises(TypeError):
            RunSpec("millipede", "count", options=ExecOptions(), sanitize=True)
        with pytest.raises(TypeError):
            RunSpec("millipede", "count", sanitize=True)

    def test_options_must_be_exec_options(self):
        with pytest.raises(TypeError, match="ExecOptions"):
            RunSpec("millipede", "count", options={"sanitize": True})

    def test_replace_options(self):
        s = RunSpec("millipede", "count")
        vec = s.replace(options=ExecOptions(backend="vector"))
        assert vec.backend == "vector" and s.backend == "reference"
        assert s.replace(n_records=64).n_records == 64
        with pytest.raises(TypeError):
            s.replace(backend="vector")

    def test_from_dict_accepts_pre_redesign_flat_dicts(self):
        old = {"arch": "millipede", "workload": "count",
               "validate": True, "sanitize": True, "trace": False,
               "seed": 2}
        s = RunSpec.from_dict(old)
        assert s.options == ExecOptions(sanitize=True)
        assert s.seed == 2

    def test_from_dict_rejects_removed_backend(self):
        # store manifests written while the calendar backend existed can
        # still hold such specs; they must fail loudly, naming the choices
        stale = RunSpec("millipede", "count").to_dict()
        stale["backend"] = "calendar"
        with pytest.raises(ValueError, match="reference, vector"):
            RunSpec.from_dict(stale)

    def test_from_dict_round_trip(self):
        for s in (RunSpec("ssmc", "kmeans", n_records=512),
                  RunSpec("millipede", "pca", seed=7,
                          options=ExecOptions(backend="vector"))):
            assert RunSpec.from_dict(s.to_dict()) == s

    def test_content_hash_pinned(self):
        # regression pins: redesigns must not silently re-key the result
        # cache / dedup machinery for pre-existing (reference) specs
        assert RunSpec("millipede", "count").content_hash() == "7a593d633e49baf2"
        assert (RunSpec("ssmc", "kmeans", n_records=4096, seed=3).content_hash()
                == "8d6011450f6c9471")

    def test_backend_changes_hash(self):
        # different backend => different cache entry (results are
        # identical, but the cache must not conflate what was run)
        ref = RunSpec("millipede", "count")
        vec = RunSpec("millipede", "count",
                      options=ExecOptions(backend="vector"))
        assert ref.content_hash() != vec.content_hash()


# ----------------------------------------------------------------------
# repro.api facade
# ----------------------------------------------------------------------
class TestApiFacade:
    def test_run_spec_with_options_rejected(self):
        # a spec carries its own options: a second set must not be
        # silently dropped, by the facade or by the driver
        from repro import api
        with pytest.raises(TypeError):
            api.run(RunSpec("millipede", "count"), options=ExecOptions())
        with pytest.raises(TypeError):
            run(RunSpec("millipede", "count", n_records=N_RECORDS),
                options=ExecOptions(trace=True))

    def test_cache_bool_rejected(self):
        # the result tier (store=) takes a FingerprintStore, a directory
        # path or None; a stray bool must fail at the facade, not as an
        # AttributeError inside the campaign loop
        from repro import api
        with pytest.raises(TypeError, match="FingerprintStore"):
            api.run_batch([RunSpec("millipede", "count", n_records=N_RECORDS)],
                          store=False)
        with pytest.raises(TypeError, match="FingerprintStore"):
            api.sweep(["millipede"], ["count"], n_records=N_RECORDS,
                      store=True)

    def test_run_and_sweep_match_driver(self):
        from repro import api
        fast = ExecOptions(backend="vector")
        ref = run("millipede", "kmeans", n_records=N_RECORDS)
        assert fingerprint(api.run("millipede", "kmeans",
                                   n_records=N_RECORDS,
                                   options=fast)) == fingerprint(ref)
        grid = api.sweep(["millipede"], ["kmeans"], n_records=N_RECORDS,
                         options=fast)
        assert list(grid) == [("millipede", "kmeans")]
        assert fingerprint(grid[("millipede", "kmeans")]) == fingerprint(ref)

    def test_sweep_defaults_to_all_workloads(self):
        from repro import api
        from unittest import mock
        with mock.patch("repro.api.run_batch") as rb:
            rb.return_value = [None] * len(workload_names())
            grid = api.sweep(["millipede"])
        assert sorted(wl for _, wl in grid) == sorted(workload_names())


# ----------------------------------------------------------------------
# the bit-identity guarantee (ISSUE 6 acceptance gate)
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    @pytest.mark.parametrize("wl", workload_names())
    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_vector_bit_identical(self, arch, wl):
        """All 8 workloads x every registry arch: vector == reference.

        This includes the SIMT arches (gpgpu/vws/vws-row), which run the
        lockstep PDOM divergence engine and per-warp trace replay — there
        is no fallback path (test_simt_arches_actually_vectorized pins
        that).
        """
        ref = run(RunSpec(arch, wl, n_records=N_RECORDS))
        vec = run(RunSpec(arch, wl, n_records=N_RECORDS,
                          options=ExecOptions(backend="vector")))
        assert fingerprint(ref) == fingerprint(vec)
        assert ref.validated and vec.validated

    @pytest.mark.parametrize("arch", ["gpgpu", "vws", "vws-row"])
    def test_simt_arches_actually_vectorized(self, arch, monkeypatch):
        """Each backend builds the SIMT plan with its own producer: the
        NumPy PDOM divergence engine under backend="vector" (no quiet
        fallback to the scalar interpreter), the scalar interpreter under
        backend="reference"."""
        calls = record_producers(monkeypatch)
        vec = run(RunSpec(arch, "count", n_records=N_RECORDS,
                          options=ExecOptions(backend="vector")))
        assert [c[0] for c in calls] == ["vector.execute_simt"], (
            f"{arch} did not build its plan with the NumPy executor under "
            "backend='vector'")
        calls.clear()
        ref = run(RunSpec(arch, "count", n_records=N_RECORDS))
        assert [c[0] for c in calls] == ["scalar.execute_simt"]
        assert fingerprint(ref) == fingerprint(vec)

    @pytest.mark.parametrize("arch", ["millipede", "millipede-bar",
                                      "millipede-rm", "ssmc", "multicore",
                                      "gpgpu", "vws", "vws-row"])
    def test_sanitized_vector_bit_identical(self, arch):
        """The sanitizer's invariant checks hold under trace replay, and
        sanitized runs stay identical across backends.  For the SIMT
        arches this exercises the observed replay path: the _SimtChecker
        watches live warp reconvergence stacks, so the replay must evolve
        them issue-by-issue exactly as the reference did."""
        opts = ExecOptions(sanitize=True)
        ref = run(RunSpec(arch, "kmeans", n_records=N_RECORDS, options=opts))
        vec = run(RunSpec(arch, "kmeans", n_records=N_RECORDS,
                          options=opts.replace(backend="vector")))
        assert fingerprint(ref) == fingerprint(vec)

    @pytest.mark.parametrize("arch", ["millipede", "ssmc", "gpgpu"])
    def test_traced_vector_bit_identical(self, arch):
        """The timeline tracer samples mid-run state (instruction counts,
        queue depths); replay must reproduce every sample, not just the
        end-of-run totals."""
        opts = ExecOptions(trace=True)
        ref = run(RunSpec(arch, "kmeans", n_records=N_RECORDS, options=opts))
        vec = run(RunSpec(arch, "kmeans", n_records=N_RECORDS,
                          options=opts.replace(backend="vector")))
        assert fingerprint(ref) == fingerprint(vec)
        assert ref.trace.samples == vec.trace.samples
        assert ref.trace.freq_changes == vec.trace.freq_changes

    def test_seed_sensitivity(self):
        """Different seeds produce different data; identity must hold for
        each, and the two seeds must not be conflated."""
        a0 = fingerprint(run(RunSpec("millipede", "gda",
                                     n_records=N_RECORDS, seed=0)))
        a1 = fingerprint(run(RunSpec("millipede", "gda",
                                     n_records=N_RECORDS, seed=1)))
        v0 = fingerprint(run(RunSpec("millipede", "gda",
                                     n_records=N_RECORDS, seed=0,
                                     options=ExecOptions(backend="vector"))))
        v1 = fingerprint(run(RunSpec("millipede", "gda",
                                     n_records=N_RECORDS, seed=1,
                                     options=ExecOptions(backend="vector"))))
        assert a0 == v0 and a1 == v1 and a0 != a1


# ----------------------------------------------------------------------
# plan-level identity: the scalar and NumPy producers on the same inputs
# ----------------------------------------------------------------------
def vector_launch(arch: str, wl: str, monkeypatch) -> tuple:
    """The functional-phase inputs of ``arch`` running ``wl`` under the
    vector backend, and the plan the NumPy executor built from them."""
    calls = record_producers(monkeypatch)
    run(RunSpec(arch, wl, n_records=N_RECORDS,
                options=ExecOptions(backend="vector")))
    ((name, args, kwargs, plan),) = calls
    assert name.startswith("vector.")
    return args, kwargs, plan


class TestPlanEquivalence:
    @pytest.mark.parametrize("wl", workload_names())
    @pytest.mark.parametrize("arch", ["millipede", "millipede-bar"])
    def test_mimd_plans_identical(self, arch, wl, monkeypatch):
        """Per-thread gaps/kinds/addrs, final live state and registers,
        and the branch/taken/local-read/local-write counters."""
        args, kwargs, vec = vector_launch(arch, wl, monkeypatch)
        ref = scalar.execute(*args, **kwargs)
        diff = first_difference(
            ref, vec, "thread", ("gaps", "kinds", "addrs"),
            ("local", "regs", "branches", "taken_branches",
             "local_reads", "local_writes"))
        assert diff is None, f"{arch}/{wl}: {diff}"

    @pytest.mark.parametrize("wl", workload_names())
    @pytest.mark.parametrize("arch", ["gpgpu", "vws"])
    def test_simt_plans_identical(self, arch, wl, monkeypatch):
        """Per-warp gaps/kinds/payloads/tmasks at warp width 32 (gpgpu)
        and 4 (vws), final state, and every SimtPlan counter."""
        args, kwargs, vec = vector_launch(arch, wl, monkeypatch)
        ref = scalar.execute_simt(*args, **kwargs)
        diff = first_difference(
            ref, vec, "warp", ("gaps", "kinds", "payloads", "tmasks"),
            ("local", "regs", "instr_count", "branches", "taken_branches",
             "local_reads", "local_writes"),
            ("warp_instructions", "active_lane_slots",
             "divergence_idle_slots", "divergent_branches",
             "uniform_branches", "shared_accesses", "conflict_extra"))
        assert diff is None, f"{arch}/{wl}: {diff}"

    def test_difference_names_thread_and_event(self, monkeypatch):
        """A corrupted trace is reported at its first differing event."""
        args, kwargs, vec = vector_launch("millipede", "count", monkeypatch)
        ref = scalar.execute(*args, **kwargs)
        ref.traces[5].addrs[3] += 1
        diff = first_difference(ref, vec, "thread", ("gaps", "kinds", "addrs"),
                                ())
        assert diff is not None and diff.startswith("thread 5 addrs[3]:")
