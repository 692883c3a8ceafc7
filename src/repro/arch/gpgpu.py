"""GPGPU SM: SIMT execution with post-dominator divergence stacks.

Model summary (sections III-E and V):

* One SM with 32 lanes, 4-way warp contexts (128 threads), in-order issue,
  4-cycle issue gap per warp hidden by multithreading - identical compute
  resources to one Millipede processor / SSMC.
* **SIMT divergence**: each warp carries a PDOM reconvergence stack; a
  divergent data-dependent branch pushes taken/else paths that execute
  serially and reconverge at the immediate post-dominator (computed by
  :mod:`repro.isa.cfg`).  BMLA branches split ~70/30, so wide warps lose
  throughput - the GPGPU's core deficit in Fig. 3.
* **Live state** lives in banked shared memory, striped one thread per
  bank (conflict-free even for the indirect accesses; the striping is
  asserted by a property test) but paying bank + crossbar energy.
* **Input data** is sequentially cache-block-prefetched into the SM's
  32 KB L1D; warp loads coalesce perfectly with the interleaved layout
  (32 consecutive 4-byte words = one 128 B block), so the GPGPU enjoys
  good DRAM row locality - its Fig. 4 DRAM energy is *lower* than SSMC's.
* **Energy hooks**: instruction fetch is amortized per warp instruction
  (one I-cache access for all lanes); ALU energy is charged per *active*
  lane; inactive lanes under divergence and empty issue slots burn idle
  energy.

The class is parameterized by warp width and issue slots so
:mod:`repro.arch.vws` can model Variable Warp Sizing (8 concurrent 4-wide
warps) and VWS-row (narrow warps + Millipede's row-oriented prefetch
buffer) on the same machinery.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.config import SystemConfig, WORD_BYTES
from repro.core.replay import SimtReplay, build_simt_plan
from repro.dram.controller import MemoryController
from repro.dram.dram import GlobalMemory
from repro.engine.clock import Clock
from repro.engine.events import Engine
from repro.engine.stats import Stats
from repro.isa.executor import ThreadContext
from repro.isa.program import Program
from repro.mem.dcache import SetAssocCache
from repro.mem.prefetcher import BlockStream, SequentialPrefetcher, sm_block_schedule
from repro.mem.shared_memory import BankedSharedMemory

_CHUNK_CYCLES = 8


class _Warp:
    """One warp: lanes in lockstep under a PDOM reconvergence stack."""

    __slots__ = ("wid", "lanes", "stack", "ready_at", "blocked", "done", "full_mask")

    def __init__(self, wid: int, lanes: list[ThreadContext], program_len: int):
        self.wid = wid
        self.lanes = lanes
        self.full_mask = (1 << len(lanes)) - 1
        #: stack of [reconv_pc, next_pc, mask]; bottom reconverges at exit
        self.stack: list[list[int]] = [[program_len, 0, self.full_mask]]
        self.ready_at = 0
        self.blocked = False
        self.done = False


class GpgpuSM:
    """One streaming multiprocessor on one die-stacked channel."""

    #: set False in subclasses that use the row-oriented prefetch buffer
    uses_l1d_input_path = True

    def __init__(
        self,
        engine: Engine,
        config: SystemConfig,
        program: Program,
        global_mem: GlobalMemory,
        stats: Stats,
        *,
        input_base_word: int,
        input_end_word: int,
        warp_width: Optional[int] = None,
        layout=None,
        backend: str = "reference",
    ):
        if backend not in ("reference", "vector"):
            raise ValueError(f"unknown SM backend {backend!r}")
        self.backend = backend
        self.engine = engine
        self.config = config
        self.program = program
        self.global_mem = global_mem
        self.stats = stats

        core_cfg = config.core
        gcfg = config.gpgpu
        self.n_lanes = core_cfg.n_cores
        self.width = warp_width if warp_width is not None else gcfg.warp_width
        if self.n_lanes % self.width:
            raise ValueError(f"{self.n_lanes} lanes not divisible by {self.width}-wide warps")
        #: narrow warps issue in parallel across lane slices (VWS)
        self.issue_slots = self.n_lanes // self.width
        self.n_threads_total = self.n_lanes * core_cfg.n_threads

        self.clock = Clock(core_cfg.clock_hz, "gpgpu")
        self.mc = MemoryController(engine, config.dram, stats, name="dram")

        self.shared_mem = BankedSharedMemory(
            gcfg.shared_memory_bytes // WORD_BYTES, gcfg.shared_memory_banks
        )
        self.state_words = gcfg.shared_memory_bytes // WORD_BYTES // self.n_threads_total

        if self.uses_l1d_input_path:
            cache = SetAssocCache(gcfg.l1d_bytes, gcfg.l1d_line_bytes, gcfg.l1d_assoc)
            schedule = None
            if layout is not None:
                # 100%-accurate stream prefetch along the SM's record-major
                # demand order (the paper grants all baselines this)
                schedule = sm_block_schedule(
                    base_word=layout.base,
                    n_fields=layout.n_fields,
                    block_records=layout.block_records,
                    n_blocks=layout.n_blocks,
                    n_threads=self.n_threads_total,
                    line_words=gcfg.l1d_line_bytes // WORD_BYTES,
                )
            self.prefetcher = SequentialPrefetcher(
                engine, self.mc, cache,
                BlockStream(input_base_word, input_end_word),
                stats, name="l1d", degree=gcfg.prefetch_degree,
                max_inflight=16, schedule=schedule,
            )
        else:  # pragma: no cover - exercised by VwsRowSM
            self.prefetcher = None
        self._input_base = input_base_word
        self._input_end = input_end_word

        n_warps = self.n_threads_total // self.width
        plen = len(program)
        self.warps = [
            _Warp(w, [ThreadContext(w * self.width + l, core_cfg.n_registers)
                      for l in range(self.width)], plen)
            for w in range(n_warps)
        ]

        self.t = 0
        self.pending = 0
        self._run_scheduled = False
        self._rr = 0
        self.finish_ps: Optional[int] = None
        self.on_finished: Optional[Callable[[], None]] = None
        #: optional SIMT observer (:mod:`repro.sanitize`); receives
        #: ``on_warp_instr(warp)`` before each warp instruction and
        #: ``on_warp_done(warp)`` at halt.  Must not mutate state.
        self.observer = None
        #: launch state captured for the functional phase
        self._thread_args: Optional[list] = None
        self._initial_state = None
        #: the warp-issue replay of the functional plan, built by start()
        self._replay: Optional[SimtReplay] = None

        # accounting
        self.warp_instructions = 0      # I-cache fetches (amortized)
        self.active_lane_slots = 0      # ALU-energy units
        self.divergence_idle_slots = 0  # lanes masked off under divergence
        self.idle_lane_cycles = 0.0     # whole-SM stall cycles x lanes
        self.divergent_branches = 0
        self.uniform_branches = 0
        self.mem_transactions = 0

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def load_initial_state(self, state) -> None:
        """Preload every thread's shared-memory state partition (striped so
        thread g's word a lands at physical a * T + g)."""
        if len(state) > self.state_words:
            raise ValueError(
                f"initial state of {len(state)} words exceeds the "
                f"{self.state_words}-word per-thread partition"
            )
        view = self.shared_mem.data.reshape(-1, self.n_threads_total)
        view[: len(state), :] = np.asarray(state)[:, None]
        self._initial_state = np.asarray(state, dtype=np.float64)

    def set_thread_args(self, args_per_thread: list[dict[int, float]]) -> None:
        if len(args_per_thread) != self.n_threads_total:
            raise ValueError(
                f"need {self.n_threads_total} thread-arg dicts, got {len(args_per_thread)}"
            )
        self._thread_args = args_per_thread

    def start(self) -> None:
        plan = build_simt_plan(self, self.config.core.n_registers)
        self._replay = SimtReplay(self, plan)
        self._schedule_run(self.engine.now)

    # ------------------------------------------------------------------
    # shared-memory striping: thread g's private word a -> bank g % 32
    # ------------------------------------------------------------------
    def _translate_shared(self, thread_id: int, addr: int) -> int:
        if not 0 <= addr < self.state_words:
            raise IndexError(
                f"thread {thread_id} shared-memory address {addr} exceeds "
                f"its {self.state_words}-word state partition"
            )
        return addr * self.n_threads_total + thread_id

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _schedule_run(self, at_ps: int) -> None:
        if not self._run_scheduled and self.finish_ps is None:
            self._run_scheduled = True
            self.engine.schedule_at(max(at_ps, self.engine.now), self._run)

    def _run(self) -> None:
        self._run_scheduled = False
        if self.finish_ps is not None:
            return
        period = self.clock.period_ps
        now = self.engine.now
        if now > self.t:
            self.idle_lane_cycles += (now - self.t) / period * self.n_lanes
            self.t = now
        t = self.t
        gap = self.cfg_issue_gap * period
        chunk_end = t + _CHUNK_CYCLES * period if self.pending else None
        warps = self.warps
        n = len(warps)
        # with a sanitizer attached, the observed issue path keeps the
        # live PDOM stacks evolving for it
        issue = (self._replay.exec_warp if self.observer is None
                 else self._replay.exec_warp_observed)

        while True:
            issued = 0
            start = self._rr
            scanned = 0
            while issued < self.issue_slots and scanned < n:
                w = warps[(start + scanned) % n]
                scanned += 1
                if w.done or w.blocked or w.ready_at > t:
                    continue
                issued += 1
                self._rr = (start + scanned) % n
                issue(w, t)
                w.ready_at = t + gap

            if issued == 0:
                if all(w.done for w in warps):
                    self._finish(t)
                    return
                waiting = [w.ready_at for w in warps if not w.done and not w.blocked]
                if not waiting:
                    self.t = t
                    return  # all blocked on memory: resume via callback
                nt = min(waiting)
                self.idle_lane_cycles += (nt - t) / period * self.n_lanes
                t = nt
                continue

            # lane slices with no ready warp this cycle sit idle
            self.idle_lane_cycles += self.n_lanes - issued * self.width
            t += period
            if chunk_end is not None and t >= chunk_end:
                if self.pending:
                    self.t = t
                    self._schedule_run(t)
                    return
                chunk_end = None

    @property
    def cfg_issue_gap(self) -> int:
        return self.config.core.issue_gap_cycles

    # ------------------------------------------------------------------
    # live PDOM stacks (evolved by the observed replay)
    # ------------------------------------------------------------------
    def _pop_reconverged(self, warp: _Warp) -> None:
        stack = warp.stack
        while len(stack) > 1 and stack[-1][1] == stack[-1][0]:
            stack.pop()

    # ------------------------------------------------------------------
    # global-memory path
    # ------------------------------------------------------------------
    def _issue_global(self, warp: _Warp, addr_lanes: list[tuple[int, int]]) -> None:
        def on_all_ready(ready_ps: int) -> None:
            warp.blocked = False
            self.pending -= 1
            warp.ready_at = ready_ps + self.clock.period_ps
            self._schedule_run(max(self.t, warp.ready_at))

        n_tx = self._input_port([a for _, a in addr_lanes], on_all_ready)
        self.mem_transactions += n_tx
        if n_tx > 1:
            # port serialization: one extra cycle per extra transaction
            warp.ready_at += (n_tx - 1) * self.clock.period_ps

    def _input_port(self, addrs: list[int], on_all_ready: Callable[[int], None]) -> int:
        """Route a coalesced warp load; returns the transaction count."""
        return self.prefetcher.demand_access_multi(addrs, on_all_ready)

    # ------------------------------------------------------------------
    def _finish(self, t: int) -> None:
        self._replay.restore()
        self.finish_ps = t
        self.t = t
        self.stats.set("proc.finish_ps", t)
        if self.on_finished is not None:
            self.on_finished()

    @property
    def done(self) -> bool:
        return self.finish_ps is not None

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def thread_states(self) -> list:
        """Per-thread state arrays, de-striped from shared memory."""
        out = []
        for g in range(self.n_threads_total):
            state = np.empty(self.state_words, dtype=np.float64)
            for a in range(self.state_words):
                state[a] = self.shared_mem.data[self._translate_shared(g, a)]
            out.append(state)
        return out

    def collect(self) -> dict[str, float]:
        instructions = sum(ctx.instr_count for w in self.warps for ctx in w.lanes)
        branches = sum(ctx.branches for w in self.warps for ctx in w.lanes)
        out = {
            "instructions": instructions,
            "branches": branches,
            "warp_instructions": self.warp_instructions,
            "active_lane_slots": self.active_lane_slots,
            "divergence_idle_slots": self.divergence_idle_slots,
            "idle_cycles": self.idle_lane_cycles + self.divergence_idle_slots,
            "icache_fetches": self.warp_instructions,
            "shared_mem_accesses": self.shared_mem.accesses,
            "divergent_branches": self.divergent_branches,
            "uniform_branches": self.uniform_branches,
            "mem_transactions": self.mem_transactions,
            "finish_ps": self.finish_ps or 0,
            "simt_efficiency": (
                self.active_lane_slots
                / (self.active_lane_slots + self.divergence_idle_slots)
                if self.warp_instructions else 0.0
            ),
        }
        if self.prefetcher is not None:
            out["l1d_accesses"] = self.prefetcher.cache.accesses
        return out
