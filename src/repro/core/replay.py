"""Plan production and the SIMT warp-issue replay.

Every run has a functional phase and a timing phase.  The functional
phase runs in the processor's ``start()``, before simulated time starts:
:func:`build_plan` / :func:`build_simt_plan` hand the processor's launch
state to the producer its ``backend`` selects - the scalar interpreter
(:mod:`repro.isa.scalar`) under ``reference``, the NumPy executor
(:mod:`repro.isa.vector`) under ``vector`` - and get back a plan of
per-thread (MIMD) or per-warp (SIMT) issue traces plus end state.  The
timing phase replays the plan the same way under both backends:
:meth:`repro.core.corelet.MimdCore._run` on the MIMD cores, and
:class:`SimtReplay` on the SIMT SMs.
"""

from __future__ import annotations

from repro.isa.instructions import Op
from repro.isa.vector import K_LDG, SimtPlan, VectorPlan

_LDG = int(Op.LDG)
_J = int(Op.J)
_HALT = int(Op.HALT)
_BEQ = int(Op.BEQ)
_BNEZ = int(Op.BNEZ)


def _producer(backend: str):
    """The functional-phase module for ``backend``.  Resolved at call time
    so instrumentation that wraps ``execute``/``execute_simt`` on the
    module sees every call."""
    from repro.isa import scalar, vector

    return vector if backend == "vector" else scalar


class SimtReplay:
    """Warp-issue replay for the SIMT SMs (``gpgpu``/``vws``/``vws-row``):
    the SM's only issue path.

    The SM's ``_run`` loop is warp-granular and architecture-agnostic; it
    calls one of the two methods here per warp issue and keeps its
    scheduling loop, global-memory path (``_issue_global``: coalescing,
    transaction count, port serialization) and finish logic.

    * :meth:`exec_warp` (no observer attached) consumes the warp's
      recorded trace: decrement a pure-issue gap, or raise the recorded
      event - block on a global load with the recorded per-lane
      addresses, or retire the warp at halt.  Divergence penalties and
      shared-memory conflict serialization have no timing consequence:
      ``_run`` sets ``ready_at`` to the issue gap after every issue (the
      shipped bank striping is conflict-free; the functional phase still
      counts conflicts exactly for other configurations).
    * :meth:`exec_warp_observed` (sanitizer attached) additionally
      evolves the warp's *live* PDOM stack instruction-by-instruction -
      decoding the program at the stack's top PC and consuming the
      recorded branch taken-masks - so ``on_warp_instr``/``on_warp_done``
      observe every stack state of the reference discipline, in order.

    Functionally-maintained end state (registers, shared-memory contents
    and counters, per-lane instruction/branch counters, warp aggregate
    counters) is installed by :meth:`restore` from the SM's ``_finish``
    before the completion callback runs.
    """

    def __init__(self, sm, plan: SimtPlan):
        self.sm = sm
        self.plan = plan
        traces = plan.warp_traces
        self._gaps = [tr.gaps for tr in traces]
        self._kinds = [tr.kinds for tr in traces]
        self._payloads = [tr.payloads for tr in traces]
        self._tmasks = [tr.tmasks for tr in traces]
        self._gap_rem = [(g[0] if g else 0) for g in self._gaps]
        self._ev = [0] * len(traces)   # next trace event (fast mode)
        self._ldg = [0] * len(traces)  # next load payload (observed mode)
        self._br = [0] * len(traces)   # next branch taken-mask (observed)

    # ------------------------------------------------------------------
    def exec_warp(self, warp, t: int) -> None:
        """Fast path: one warp issue off the trace (no observer)."""
        w = warp.wid
        g = self._gap_rem[w]
        if g:
            self._gap_rem[w] = g - 1
            return
        i = self._ev[w]
        self._ev[w] = i + 1
        gaps = self._gaps[w]
        self._gap_rem[w] = gaps[i + 1] if i + 1 < len(gaps) else 0
        if self._kinds[w][i] == K_LDG:
            sm = self.sm
            warp.blocked = True
            sm.pending += 1
            sm.engine.schedule_at(t, sm._issue_global, warp,
                                  self._payloads[w][i])
        else:  # K_HALT
            warp.done = True

    # ------------------------------------------------------------------
    def exec_warp_observed(self, warp, t: int) -> None:
        """Sanitized path: evolve the live PDOM stack per issue so the
        observer sees reference stack states (see class docstring)."""
        sm = self.sm
        sm.observer.on_warp_instr(warp)
        top = warp.stack[-1]
        pc = top[1]
        ins = sm.program.instrs[pc]
        op = int(ins.op)
        w = warp.wid

        if _BEQ <= op <= _BNEZ:
            i = self._br[w]
            self._br[w] = i + 1
            tm = self._tmasks[w][i]
            mask = top[2]
            if tm == mask or tm == 0:
                top[1] = ins.target if tm else pc + 1
            else:
                r = ins.reconv if ins.reconv is not None else len(sm.program)
                top[1] = r  # this entry becomes the reconvergence point
                warp.stack.append([r, pc + 1, mask & ~tm])
                warp.stack.append([r, ins.target, tm])
            sm._pop_reconverged(warp)
            return

        if op == _HALT:
            warp.done = True
            sm.observer.on_warp_done(warp)
            return

        if op == _LDG:
            i = self._ldg[w]
            self._ldg[w] = i + 1
            top[1] = pc + 1
            sm._pop_reconverged(warp)
            warp.blocked = True
            sm.pending += 1
            sm.engine.schedule_at(t, sm._issue_global, warp,
                                  self._payloads[w][i])
            return

        top[1] = ins.target if op == _J else pc + 1
        sm._pop_reconverged(warp)

    # ------------------------------------------------------------------
    def restore(self) -> None:
        """Install the functional phase's end state on the SM (called
        from ``_finish`` before the completion callback)."""
        sm = self.sm
        plan = self.plan
        T = sm.n_threads_total
        view = sm.shared_mem.data.reshape(-1, T)
        view[: sm.state_words, :] = plan.local.T
        sm.shared_mem.accesses = plan.shared_accesses
        sm.shared_mem.conflict_extra_cycles = plan.conflict_extra
        sm.warp_instructions = plan.warp_instructions
        sm.active_lane_slots = plan.active_lane_slots
        sm.divergence_idle_slots = plan.divergence_idle_slots
        sm.divergent_branches = plan.divergent_branches
        sm.uniform_branches = plan.uniform_branches
        width = sm.width
        for warp in sm.warps:
            base = warp.wid * width
            for l, ctx in enumerate(warp.lanes):
                g = base + l
                ctx.regs = plan.regs[g].tolist()
                ctx.instr_count = int(plan.instr_count[g])
                ctx.branches = int(plan.branches[g])
                ctx.taken_branches = int(plan.taken_branches[g])
                ctx.halted = True


def _launch_args(processor) -> list:
    args = getattr(processor, "_thread_args", None)
    if args is None:
        raise RuntimeError("set_thread_args() must precede start()")
    return args


def build_simt_plan(sm, n_registers: int) -> SimtPlan:
    """Run the SIMT functional phase for an SM's stored launch state."""
    return _producer(sm.backend).execute_simt(
        sm.program,
        sm.global_mem.data,
        _launch_args(sm),
        n_registers,
        sm.state_words,
        sm.width,
        sm._initial_state,
        n_banks=sm.shared_mem.n_banks,
    )


def build_plan(processor, n_registers: int) -> VectorPlan:
    """Run the MIMD functional phase for a processor's stored launch state
    (``_thread_args`` in global thread order, ``_initial_state``)."""
    cores = getattr(processor, "corelets", None) or processor.cores
    return _producer(processor.backend).execute(
        processor.program,
        processor.global_mem.data,
        _launch_args(processor),
        n_registers,
        cores[0].state_words,
        processor._initial_state,
    )
