"""Scalar functional phase: the ``reference`` backend's trace producer.

Runs every hardware thread (MIMD) or warp (SIMT) to completion, one
instruction at a time through the scalar interpreter
(:mod:`repro.isa.executor`), and returns the same
:class:`~repro.isa.vector.VectorPlan` / :class:`~repro.isa.vector.SimtPlan`
that the NumPy executor (:mod:`repro.isa.vector`) builds in lockstep.  The
two producers take the same arguments and are independent implementations
of one contract; the timing replay (:meth:`repro.core.corelet.MimdCore._run`,
:class:`repro.core.replay.SimtReplay`) turns either plan into timing.

Running a thread to completion before simulated time starts is exact
because threads share no mutable state: global memory is read-only to
kernels (``stg`` is not implemented, section IV-E) and live state lives in
thread-private partitions, so a load's value does not depend on when it
arrives.  Each global load therefore commits its word at once.

The SIMT producer follows the reference divergence discipline
instruction by instruction: one PDOM stack of ``[reconv_pc, next_pc,
mask]`` frames per warp, the taken path pushed last on a divergent branch,
and reconverged frames popped after every instruction except ``halt``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.isa.executor import ThreadContext, branch_taken, exec_non_memory, step_one
from repro.isa.instructions import Op
from repro.isa.program import Program
from repro.isa.vector import (
    K_BAR, K_HALT, K_LDG, SimtPlan, ThreadTrace, VectorPlan, WarpTrace,
)

_BAR = int(Op.BAR)
_BEQ = int(Op.BEQ); _BNEZ = int(Op.BNEZ); _J = int(Op.J); _HALT = int(Op.HALT)
_LDG = int(Op.LDG); _STG = int(Op.STG); _LDL = int(Op.LDL); _STL = int(Op.STL)

_NO_STG = ("BMLA Map kernels do not store to global memory (outputs live in "
           "local state and are copied out by the host, section IV-E)")


def _contexts(thread_args, n_regs: int) -> list[ThreadContext]:
    ctxs = []
    for g, args in enumerate(thread_args):
        ctx = ThreadContext(g, n_regs)
        ctx.set_args(args)
        ctxs.append(ctx)
    return ctxs


def _local_rows(n_threads: int, state_words: int, initial_state) -> list[list]:
    row = [0.0] * state_words
    if initial_state is not None:
        row[: len(initial_state)] = [float(v) for v in initial_state]
    return [list(row) for _ in range(n_threads)]


def _load_word(gm: np.ndarray, addr: int) -> float:
    if not 0 <= addr < gm.size:
        raise IndexError(f"global read out of range: {addr} (size {gm.size})")
    return float(gm[addr])


def _check_local(tid: int, addr: int, state_words: int) -> None:
    if not 0 <= addr < state_words:
        raise IndexError(
            f"thread {tid} local address {addr} exceeds its "
            f"{state_words}-word state partition"
        )


def _counters(ctxs, name: str) -> np.ndarray:
    return np.array([getattr(c, name) for c in ctxs], dtype=np.int64)


def execute(
    program: Program,
    gm_data: np.ndarray,
    thread_args: list[dict[int, float]],
    n_regs: int,
    state_words: int,
    initial_state: Optional[np.ndarray] = None,
) -> VectorPlan:
    """Run each thread to its ``halt``; same contract as
    :func:`repro.isa.vector.execute`."""
    gm = np.asarray(gm_data, dtype=np.float64)
    instrs = program.instrs
    ctxs = _contexts(thread_args, n_regs)
    rows = _local_rows(len(ctxs), state_words, initial_state)
    traces = []
    reads = np.zeros(len(ctxs), dtype=np.int64)
    writes = np.zeros(len(ctxs), dtype=np.int64)
    for g, ctx in enumerate(ctxs):
        local = rows[g]
        tr = ThreadTrace()
        gap = 0
        while not ctx.halted:
            acc = step_one(ctx, instrs[ctx.pc])
            if acc is None:
                if not ctx.halted:
                    gap += 1
                    continue
                kind, addr = K_HALT, -1
            elif acc.op == _BAR:
                kind, addr = K_BAR, -1
            elif acc.is_global:
                if acc.is_store:
                    raise NotImplementedError(_NO_STG)
                ctx.commit_load(acc.rd, _load_word(gm, acc.addr))
                kind, addr = K_LDG, acc.addr
            else:
                # thread-private scratchpad: a pure one-cycle issue
                _check_local(g, acc.addr, state_words)
                if acc.is_store:
                    local[acc.addr] = float(acc.value)
                    writes[g] += 1
                else:
                    ctx.commit_load(acc.rd, local[acc.addr])
                    reads[g] += 1
                gap += 1
                continue
            tr.gaps.append(gap)
            tr.kinds.append(kind)
            tr.addrs.append(addr)
            gap = 0
        traces.append(tr)
    return VectorPlan(
        traces=traces,
        local=np.array(rows, dtype=np.float64).reshape(len(ctxs), state_words),
        regs=np.array([c.regs for c in ctxs], dtype=np.float64),
        branches=_counters(ctxs, "branches"),
        taken_branches=_counters(ctxs, "taken_branches"),
        local_reads=reads,
        local_writes=writes,
    )


def execute_simt(
    program: Program,
    gm_data: np.ndarray,
    thread_args: list[dict[int, float]],
    n_regs: int,
    state_words: int,
    width: int,
    initial_state: Optional[np.ndarray] = None,
    n_banks: Optional[int] = None,
    issue_log: Optional[list] = None,
) -> SimtPlan:
    """Run each warp to its ``halt`` under the PDOM stack discipline; same
    contract as :func:`repro.isa.vector.execute_simt`.  ``issue_log``
    receives one ``(wid, pc, 1, mask, stack_snapshot)`` entry per warp
    issue (a one-instruction block in the vector engine's log format)."""
    T = len(thread_args)
    if T % width:
        raise ValueError(f"{T} threads not divisible by {width}-wide warps")
    gm = np.asarray(gm_data, dtype=np.float64)
    instrs = program.instrs
    plen = len(instrs)
    full = (1 << width) - 1
    ctxs = _contexts(thread_args, n_regs)
    rows = _local_rows(T, state_words, initial_state)
    reads = np.zeros(T, dtype=np.int64)
    writes = np.zeros(T, dtype=np.int64)
    warp_instructions = active_lane_slots = divergence_idle_slots = 0
    divergent = uniform = shared_accesses = conflict_extra = 0
    traces = []

    for w in range(T // width):
        lanes = ctxs[w * width:(w + 1) * width]
        stack = [[plen, 0, full]]
        tr = WarpTrace()
        traces.append(tr)
        gap = 0
        while True:
            top = stack[-1]
            pc, mask = top[1], top[2]
            if issue_log is not None:
                issue_log.append((w, pc, 1, mask, tuple(map(tuple, stack))))
            ins = instrs[pc]
            op = int(ins.op)
            active = [l for l in range(width) if (mask >> l) & 1]
            warp_instructions += 1
            active_lane_slots += len(active)
            divergence_idle_slots += width - len(active)

            if op == _HALT:
                if mask != full:
                    raise AssertionError(
                        f"warp {w} executed halt with divergent mask "
                        f"{mask:0{width}b}; kernels must exit uniformly"
                    )
                for l in active:
                    lanes[l].instr_count += 1
                tr.gaps.append(gap)
                tr.kinds.append(K_HALT)
                tr.payloads.append(None)
                break

            if _BEQ <= op <= _BNEZ:
                tm = 0
                for l in active:
                    ctx = lanes[l]
                    ctx.instr_count += 1
                    ctx.branches += 1
                    if branch_taken(ctx, ins):
                        ctx.taken_branches += 1
                        tm |= 1 << l
                tr.tmasks.append(tm)
                if tm == mask or tm == 0:
                    uniform += 1
                    top[1] = ins.target if tm else pc + 1
                else:
                    divergent += 1
                    r = ins.reconv if ins.reconv is not None else plen
                    top[1] = r  # this frame becomes the reconvergence point
                    stack.append([r, pc + 1, mask & ~tm])
                    stack.append([r, ins.target, tm])
            elif op == _LDG:
                addr_lanes = []
                for l in active:
                    ctx = lanes[l]
                    ctx.instr_count += 1
                    addr = int(ctx.regs[ins.rs] + ins.imm)
                    ctx.commit_load(ins.rd, _load_word(gm, addr))
                    addr_lanes.append((l, addr))
                top[1] = pc + 1
                tr.gaps.append(gap)
                tr.kinds.append(K_LDG)
                tr.payloads.append(addr_lanes)
            elif op == _LDL or op == _STL:
                banks: dict[int, int] = {}
                for l in active:
                    ctx = lanes[l]
                    ctx.instr_count += 1
                    g = ctx.tid
                    base = ins.rs if op == _LDL else ins.rt
                    addr = int(ctx.regs[base] + ins.imm)
                    _check_local(g, addr, state_words)
                    if op == _LDL:
                        ctx.commit_load(ins.rd, rows[g][addr])
                        reads[g] += 1
                    else:
                        rows[g][addr] = float(ctx.regs[ins.rs])
                        writes[g] += 1
                    if n_banks is not None:
                        # the SM stripes thread g's word a to a * T + g
                        b = (addr * T + g) % n_banks
                        banks[b] = banks.get(b, 0) + 1
                shared_accesses += len(active)
                if banks:
                    conflict_extra += max(banks.values()) - 1
                top[1] = pc + 1
            elif op == _STG:
                raise NotImplementedError(_NO_STG)
            elif op == _J:
                for l in active:
                    lanes[l].instr_count += 1
                top[1] = ins.target
            else:
                # ALU / immediate / nop / bar: same next pc for all lanes
                for l in active:
                    ctx = lanes[l]
                    ctx.pc = pc
                    exec_non_memory(ctx, ins)
                top[1] = pc + 1
            # a load is a trace event; every other issue here is pure
            gap = 0 if op == _LDG else gap + 1
            while len(stack) > 1 and stack[-1][1] == stack[-1][0]:
                stack.pop()

    return SimtPlan(
        warp_traces=traces,
        local=np.array(rows, dtype=np.float64).reshape(T, state_words),
        regs=np.array([c.regs for c in ctxs], dtype=np.float64),
        instr_count=_counters(ctxs, "instr_count"),
        branches=_counters(ctxs, "branches"),
        taken_branches=_counters(ctxs, "taken_branches"),
        local_reads=reads,
        local_writes=writes,
        warp_instructions=warp_instructions,
        active_lane_slots=active_lane_slots,
        divergence_idle_slots=divergence_idle_slots,
        divergent_branches=divergent,
        uniform_branches=uniform,
        shared_accesses=shared_accesses,
        conflict_extra=conflict_extra,
    )
