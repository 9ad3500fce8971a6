"""The out-of-order processor model.

One :class:`Processor` simulates a single hardware thread running one
:class:`~repro.isa.program.Program` on the machine described by
:class:`~repro.params.MachineParams`, under the Conditional Speculation
policy described by :class:`~repro.core.policy.SecurityConfig`.

The pipeline is cycle-driven.  Each cycle, in order: fire deferred
events (FU/cache completions, branch resolution), apply the oldest
pending squash, commit, replay waiting memory operations, issue,
dispatch, fetch, then apply the security matrix's staged column clears,
tick the store buffer and let the watchdog observe.  Issue selects from
the issue queue's ready set, which register writeback fills (wakeup),
instead of scanning every resident.

A cycle in which none of those stages does anything is *quiet*: it
changes no state and only bumps waiting counters (block events,
dispatch and commit stalls, load waits), so every following cycle
repeats it exactly until a wake point - the next event, stall
deadline, fetch-buffer head, store-buffer drain completion, watchdog
snapshot or deadlock, budget poll or cycle budget.  :meth:`Processor.run`
jumps over such stretches and adds their counters at once; the result
is identical to stepping every cycle.

Fidelity notes (also in DESIGN.md):

- Cache state changes from an allowed miss are applied when the request
  reaches the cache (access start); the latency is purely temporal.
  This preserves the Spectre leak semantics - a squashed load that
  reached the cache has already refilled the line.
- Wrong-path fetch executes real instructions found at the predicted
  addresses; unmapped addresses decode as NOPs.
- Stores write the memory image at commit and drain content changes
  through the store buffer, so they never speculatively modify caches.
- Loads always speculate past older stores whose addresses are
  unknown (Spectre V4 needs it); a store whose address resolves onto
  an executed younger load squashes from that load.
"""
from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..core.defense import MissVerdict, create_defense
from ..core.icache_filter import ICacheHitFilter
from ..core.policy import SecurityConfig
from ..core.tpbuf import TPBuf
from ..frontend.branch_predictor import BranchPredictor
from ..isa.instructions import (
    INSTRUCTION_BYTES,
    WORD_BYTES,
    WORD_MASK,
    Instruction,
    LSQKind,
)
from ..isa.program import UNMAPPED, InstructionMemory, Program
from ..memory.hierarchy import MemoryHierarchy
from ..memory.replacement import SpeculativeLRUPolicy
from ..memory.tlb import TLB, PageTable
from ..params import (
    DEFAULT_MAX_CYCLES,
    MachineParams,
    RunOptions,
    paper_config,
)
from ..robustness.faults import FaultInjector
from ..robustness.watchdog import (
    DEFAULT_WATCHDOG_CYCLES,
    ForwardProgressWatchdog,
)
from ..stats import StatGroup, combine
from .dyninst import DynInst, InstState
from .events import EventQueue
from .invariants import check_processor_invariants
from .issue_queue import IssueQueue
from .lsq import LoadStoreQueue
from .rename import RenameState
from .report import SimReport
from .rob import ReorderBuffer
from .store_buffer import StoreBuffer

_WORD_ALIGN = ~(WORD_BYTES - 1)
_AGU_LATENCY = 1
#: Forwarded loads complete with L1-hit-like latency.
_FORWARD_LATENCY = 2
#: How often (in cycles) a wall-clock budget is polled during a run.
_WALL_CLOCK_POLL_CYCLES = 4096

# The Enum members the stages compare against, as module constants: on
# the hot path a member read through its class costs several attribute
# reads, a global one.
_DISPATCHED = InstState.DISPATCHED
_ISSUED = InstState.ISSUED
_COMPLETED = InstState.COMPLETED
_BLOCKED = InstState.BLOCKED
_LOAD_QUEUE = LSQKind.LOAD
_STORE_QUEUE = LSQKind.STORE
_BLOCK = MissVerdict.BLOCK
_INVISIBLE = MissVerdict.INVISIBLE
_NORMAL_LRU = SpeculativeLRUPolicy.NORMAL
_DELAYED_LRU = SpeculativeLRUPolicy.DELAYED

#: One slot of the fetch-to-dispatch pipeline: (pc, instruction,
#: predicted next pc, cycle it may dispatch).
_FetchedInst = Tuple[int, Instruction, int, int]


class Processor:
    """Cycle-level out-of-order core with Conditional Speculation."""

    def __init__(
        self,
        program: Program,
        machine: Optional[MachineParams] = None,
        security: Optional[SecurityConfig] = None,
        page_table: Optional[PageTable] = None,
        tracer: Optional["PipelineTracer"] = None,
        check_invariants: bool = False,
        watchdog_cycles: int = DEFAULT_WATCHDOG_CYCLES,
        options: Optional[RunOptions] = None,
    ) -> None:
        self.machine = machine or paper_config()
        self.security = security or SecurityConfig.origin()
        core = self.machine.core

        # The defense strategy: one fresh instance per processor (it
        # may keep per-run state).  The config already rejected an
        # unknown name with a DefenseConfigError.
        self.defense = create_defense(self.security.mode)

        #: The program the core runs: the input after the defense's
        #: transform (a software defense's rewrite).
        self.program = self.defense.transform_program(program)
        self.imem = InstructionMemory(self.program)

        # Memory system.
        self.page_table = page_table or PageTable(
            page_bytes=self.machine.memory.dtlb.page_bytes
        )
        self.hierarchy = MemoryHierarchy(self.machine.memory)
        self.itlb = TLB(self.machine.memory.itlb, self.page_table, "itlb")
        self.dtlb = TLB(self.machine.memory.dtlb, self.page_table, "dtlb")
        # The initial data image, translated a page at a time in
        # first-touch order: the page table hands out the same PPNs in
        # the same order as a per-word walk.
        image = self.program.initial_memory
        shift = self.page_table.page_shift
        offset_mask = self.page_table.page_bytes - 1
        page_base = {
            vpn: self.page_table.translate_vpn(vpn) << shift
            for vpn in dict.fromkeys(vaddr >> shift for vaddr in image)
        }
        self.memory_image: Dict[int, int] = {
            (page_base[vaddr >> shift] | (vaddr & offset_mask))
            & _WORD_ALIGN: value
            for vaddr, value in image.items()
        }

        # Core structures.
        self.predictor = BranchPredictor(core.bp_history_bits,
                                         core.btb_entries)
        self.rename = RenameState(core.num_arch_regs, core.num_phys_regs)
        self.rob = ReorderBuffer(core.rob_entries)
        self.iq = IssueQueue(core.iq_entries,
                             matrix=self.defense.uses_matrix,
                             branch_only=self.security.branch_only_matrix)
        self.lsq = LoadStoreQueue(core.ldq_entries, core.stq_entries)
        self.tpbuf = TPBuf() if self.defense.uses_tpbuf else None
        self.icache_filter = ICacheHitFilter(self.security.icache_filter)
        self.store_buffer = StoreBuffer(core.store_buffer_entries,
                                        self.hierarchy)
        self.events = EventQueue()

        # Fetch state.
        self.fetch_pc = self.program.entry_point
        self._fetch_buffer: Deque[_FetchedInst] = deque()
        self._fetch_buffer_cap = core.fetch_width * (core.frontend_depth + 2)
        self._fetch_width = core.fetch_width
        self._frontend_depth = core.frontend_depth
        self._line_mask = ~(self.machine.memory.line_bytes - 1)
        self._instructions = self.imem.by_address
        self._fetch_stall_until = 0
        self._halt_in_fetch = False

        # Execution state.
        self.cycle = 0
        self.halted = False
        self._seq = 0
        #: Sequence numbers of the in-flight branches that have not
        #: resolved, oldest first (a dict used as an ordered set): the
        #: I-cache filter, the watchdog and the branch-age defenses read
        #: it.
        self.unresolved_branches: Dict[int, None] = {}
        self._barrier_seqs: Deque[int] = deque()  # FENCE / RDCYCLE seqs
        self._pending_squash: Optional[tuple] = None  # (keep_seq, pc, kind)
        self._load_replay: List[DynInst] = []
        self._stores_waiting_data: List[DynInst] = []
        self._commit_stall_until = 0
        self._last_commit_cycle = 0
        #: Whether the last :meth:`step` was quiet (see the module
        #: docstring); :meth:`run` fast-forwards after a quiet step.
        self.quiet = False
        #: Instructions the last issue stage held back (block events).
        self._issue_blocked: List[DynInst] = []
        self._dispatch_width = core.dispatch_width
        self._issue_width = core.issue_width
        self._commit_width = core.commit_width
        #: Functional-unit latency by ``Instruction.fu_class`` (the ALU
        #: path of issue).
        self._fu_latency = (core.int_alu_latency, core.mul_latency,
                            core.div_latency)

        self.tracer = tracer
        #: Debug flag: run the structural invariant lint every step
        #: (see :mod:`repro.pipeline.invariants`); a skipped quiet
        #: cycle has the state of the step before it.
        self.check_invariants = check_invariants
        #: Budgets and fault plan (see :class:`repro.params.RunOptions`);
        #: ``run(max_cycles=...)`` overrides the cycle budget.
        self.options = options if options is not None else RunOptions()
        #: Fault injection (see :mod:`repro.robustness.faults`); the
        #: options may carry a pre-built injector for custom fault
        #: models.
        fault_plan = self.options.fault_plan
        if fault_plan is None:
            self.faults: Optional[FaultInjector] = None
        elif isinstance(fault_plan, FaultInjector):
            self.faults = fault_plan
        else:
            self.faults = FaultInjector(fault_plan)
        self._filter_bypass = False
        self.watchdog = ForwardProgressWatchdog(limit=watchdog_cycles)
        self.stats = StatGroup("processor")
        self.report = SimReport(name="run", mode=self.security.mode)
        # Defense wiring flags (derived from the hooks the defense
        # overrides), hoisted off the hot paths.
        self._tags_suspect = self.defense.tags_suspect
        self._gates_issue = self.defense.gates_issue
        self._filters_at_cache = self.defense.filters_at_cache
        self._defense_events = self.defense.wants_events
        self._taints_writeback = self.defense.taints_writeback

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, max_cycles: Optional[int] = None) -> SimReport:
        """Simulate until HALT commits or a budget runs out.

        ``max_cycles`` overrides, for this call, the cycle budget of the
        construction-time ``options`` (:class:`repro.params.RunOptions`),
        which defaults to :data:`repro.params.DEFAULT_MAX_CYCLES`.  The
        options' wall-clock budget (seconds) and
        :attr:`~repro.params.RunOptions.cancel_check` hook are polled
        coarsely.  When a budget expires, or the hook returns ``True``,
        the run stops and the report's
        :attr:`~repro.pipeline.report.SimReport.termination` records
        why (``cycle_budget``, ``wall_clock`` or ``cancelled``).

        Quiet stretches are skipped (see :meth:`_fast_forward`) unless
        the run injects faults, whose injector draws every cycle; the
        report, architectural state and trace are the same as from
        calling :meth:`step` until HALT.
        """
        resolved = self.options.merged(max_cycles=max_cycles)
        max_cycles = resolved.effective_max_cycles
        wall_clock_budget = resolved.wall_clock_budget
        cancel_check = resolved.cancel_check
        deadline = None
        if wall_clock_budget is not None:
            deadline = time.monotonic() + wall_clock_budget
        budget = ""
        poll = deadline is not None or cancel_check is not None
        fast_forward = self.faults is None
        while not self.halted and self.cycle < max_cycles:
            self.step()
            if poll and self.cycle % _WALL_CLOCK_POLL_CYCLES == 0:
                if cancel_check is not None and cancel_check():
                    budget = "cancelled"
                    break
                if deadline is not None \
                        and time.monotonic() >= deadline:
                    budget = "wall_clock"
                    break
            if fast_forward and self.quiet:
                limit = max_cycles
                if poll:
                    limit = min(limit, self.cycle + _WALL_CLOCK_POLL_CYCLES
                                - self.cycle % _WALL_CLOCK_POLL_CYCLES)
                self._fast_forward(limit)
        if not self.halted and not budget and self.cycle >= max_cycles:
            budget = "cycle_budget"
        if budget:
            self.report.termination = budget
        return self.finalize_report()

    def step(self) -> None:
        """Advance the machine by one cycle and record in :attr:`quiet`
        whether the cycle did nothing but wait."""
        self.cycle += 1
        if self.faults is not None:
            self._filter_bypass = self.faults.filter_disabled(self.cycle)
            self._inject_spurious_squash()
        seq = self._seq
        busy = self.events.fire(self.cycle)
        pending = self._pending_squash
        if pending is not None:
            self._pending_squash = None
            self._squash(*pending)
            busy = True
        self._commit()
        if self._stores_waiting_data or self._load_replay:
            busy = self._retry_waiting_memory() or busy
        busy = self._issue() or busy
        self._dispatch()
        busy = self._fetch() or busy
        busy = self.iq.end_cycle() or busy
        busy = self.store_buffer.tick(self.cycle) or busy
        if self.check_invariants:
            check_processor_invariants(self)
        self.watchdog.observe(self)
        dispatched = self._seq != seq
        committed = self._last_commit_cycle == self.cycle
        self.quiet = not (busy or dispatched or committed)

    def _fast_forward(self, limit: int) -> None:
        """Jump over the quiet cycles before the next wake point.

        Called after a quiet step.  Up to the wake point every cycle
        would repeat that step exactly, so one more step measures the
        waiting counters a quiet cycle bumps; they are added once for
        the cycles left, and ``cycle`` moves to just before the wake
        point (at most ``limit``), which the next step then runs.
        """
        wake = min(limit, self._next_wake())
        skip = wake - self.cycle - 2  # cycles left after the measuring step
        if skip < 1:
            return
        before = self.stats.as_dict()
        self.step()
        if not self.quiet:  # its counters are not a quiet cycle's
            return
        _add_repeats(self.stats, before, skip)
        self._count_blocks(self._issue_blocked, skip)
        self.cycle += skip

    def _next_wake(self) -> int:
        """The first future cycle whose step could differ from a quiet
        one: an event, a fetch or commit stall ending, the fetch-buffer
        head becoming ready, a store-buffer drain completing, or the
        watchdog acting (always ahead, so there is one)."""
        deadlines = [self.watchdog.next_deadline(self),
                     self.events.next_deadline(),
                     self.store_buffer.next_deadline(),
                     self._fetch_stall_until, self._commit_stall_until]
        if self._fetch_buffer:
            deadlines.append(self._fetch_buffer[0][3])
        return min(deadline for deadline in deadlines
                   if deadline is not None and deadline > self.cycle)

    # ---- architectural inspection helpers ---------------------------------

    def arch_reg(self, arch_reg: int) -> int:
        """Architectural register value (pipeline must be drained)."""
        if arch_reg == 0:
            return 0
        return self.rename.architectural_value(arch_reg)

    def read_vword(self, vaddr: int) -> int:
        """Committed memory word at virtual address ``vaddr``."""
        paddr = self.page_table.physical_address(vaddr)
        return self.memory_image.get(paddr & _WORD_ALIGN, 0)

    def vaddr_to_paddr(self, vaddr: int) -> int:
        return self.page_table.physical_address(vaddr)

    # ------------------------------------------------------------------
    # Fetch
    # ------------------------------------------------------------------

    def _fetch(self) -> bool:
        """Fetch one group; returns whether the I-side was accessed."""
        if self._halt_in_fetch or self.cycle < self._fetch_stall_until:
            return False
        fetch_buffer = self._fetch_buffer
        if len(fetch_buffer) >= self._fetch_buffer_cap:
            return False

        # One I-cache access per cycle for the current fetch line.
        translation = self.itlb.translate(self.fetch_pc)
        if not translation.tlb_hit:
            self._fetch_stall_until = self.cycle + translation.latency
            return True
        line_hit = self.hierarchy.inst_hit_l1(translation.paddr)
        unsafe_npc = bool(self.unresolved_branches)
        if not self.icache_filter.allow_fetch(line_hit, unsafe_npc):
            self.report.icache_stall_cycles += 1
            return True
        result = self.hierarchy.inst_access(translation.paddr)
        if not result.l1_hit:
            self._fetch_stall_until = self.cycle + result.latency
            return True

        ready = self.cycle + self._frontend_depth
        line_mask = self._line_mask
        instructions = self._instructions
        pc = self.fetch_pc
        fetch_line = pc & line_mask
        for _ in range(self._fetch_width):
            if pc & line_mask != fetch_line:
                break  # fetch groups do not cross instruction lines
            instr = instructions.get(pc, UNMAPPED)
            if instr.is_halt:
                fetch_buffer.append((pc, instr, 0, ready))
                self._halt_in_fetch = True
                break
            if instr.is_branch:
                prediction = self.predictor.predict(pc, instr)
                fetch_buffer.append((pc, instr, prediction.target, ready))
                pc = self.fetch_pc = prediction.target
                if prediction.taken:
                    break  # redirect ends the fetch group
            else:
                next_pc = pc + INSTRUCTION_BYTES
                fetch_buffer.append((pc, instr, next_pc, ready))
                pc = self.fetch_pc = next_pc
        return True

    # ------------------------------------------------------------------
    # Dispatch (rename + allocate ROB/IQ/LSQ)
    # ------------------------------------------------------------------

    def _dispatch(self) -> None:
        fetch_buffer = self._fetch_buffer
        if not fetch_buffer:
            return
        cycle = self.cycle
        rob, iq, lsq, rename = self.rob, self.iq, self.lsq, self.rename
        stats = self.stats
        for _ in range(self._dispatch_width):
            if not fetch_buffer:
                return
            pc, instr, pred_target, ready_cycle = fetch_buffer[0]
            if ready_cycle > cycle:
                return
            if not rob.space:
                stats["dispatch_stall_rob"] += 1
                return
            needs_iq = instr.needs_iq
            if needs_iq and not iq.space:
                stats["dispatch_stall_iq"] += 1
                return
            lsq_kind = instr.lsq_kind
            if lsq_kind is _LOAD_QUEUE and not lsq.load_space:
                stats["dispatch_stall_ldq"] += 1
                return
            if lsq_kind is _STORE_QUEUE and not lsq.store_space:
                stats["dispatch_stall_stq"] += 1
                return
            renames_dest = instr.renames_dest
            if renames_dest and not rename.space:
                stats["dispatch_stall_prf"] += 1
                return

            fetch_buffer.popleft()
            self._seq += 1
            inst = DynInst(self._seq, pc, instr)
            inst.cycle_dispatched = cycle
            inst.psrcs = rename.lookup_sources(instr.sources)
            if renames_dest:
                inst.pdst, inst.old_pdst = rename.allocate(instr.dest)
            rob.append(inst)
            stats["dispatched"] += 1

            if instr.is_branch:
                inst.pred_target = pred_target
                self.unresolved_branches[inst.seq] = None
            if instr.is_serializing:
                self._barrier_seqs.append(inst.seq)

            if not needs_iq:
                inst.state = _COMPLETED
                continue
            iq.insert(inst, rename.ready)
            if lsq_kind is _LOAD_QUEUE:
                lsq.allocate_load(inst)
            elif lsq_kind is _STORE_QUEUE:
                lsq.allocate_store(inst)

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------

    def _issue(self) -> bool:
        """Select and issue from the ready set; returns whether any
        instruction was eligible to issue."""
        ready = self.iq.ready
        if not ready:
            self._issue_blocked = []
            return False
        eligible: List[DynInst] = []
        blocked: List[DynInst] = []
        barrier = self._barrier_seqs[0] if self._barrier_seqs else None
        defense = self.defense
        gated = self._gates_issue
        squashed = False
        for inst in ready:  # oldest first
            if inst.squashed:
                squashed = True
                continue
            if barrier is not None and inst.seq > barrier:
                break  # so is every younger one
            instr = inst.instr
            if instr.is_serializing and (
                not self.rob.is_head(inst)
                or self.cycle < self._commit_stall_until
            ):
                continue
            if inst.state is _BLOCKED:
                # Filter-blocked load: re-issue once the defense no
                # longer finds it suspect (Section V.C).
                if defense.is_suspect(self, inst):
                    continue
                inst.state = _DISPATCHED
            elif gated and instr.is_memory \
                    and not defense.gate_issue(self, inst):
                # The defense holds it at issue (baseline's dependence
                # row, eager delay, STT tainted-address transmitters).
                blocked.append(inst)
                continue
            eligible.append(inst)
        if squashed:
            self.iq.drop_squashed()
        self._issue_blocked = blocked
        if blocked:
            self._count_blocks(blocked, 1)
        if not eligible:
            return False
        issued = 0
        issue_width = self._issue_width
        for inst in eligible:
            if issued >= issue_width:
                break
            if self.faults is not None \
                    and self.faults.drop_wakeup(self.cycle, inst):
                self.stats["issue_dropped_injected"] += 1
                continue
            self._issue_inst(inst)
            issued += 1
        return True

    def _count_blocks(self, blocked: List[DynInst], cycles: int) -> None:
        """Count ``cycles`` issue-stage block events on each of
        ``blocked``."""
        for inst in blocked:
            inst.ever_blocked = True
            inst.block_events += cycles
        self.report.block_events += cycles * len(blocked)

    def _issue_inst(self, inst: DynInst) -> None:
        instr = inst.instr
        inst.state = _ISSUED
        inst.cycle_issued = self.cycle
        self.stats["issued"] += 1

        # Security hazard detection: sample the defense's suspect
        # predicate at select time (by default the matrix row, Figure
        # 2, stage 3).
        if self._tags_suspect and instr.is_memory:
            inst.suspect = self.defense.is_suspect(self, inst)
            if inst.suspect:
                inst.ever_suspect = True
                self.report.suspect_issues += 1

        self.iq.mark_issued(inst)

        if instr.is_alu:
            # ALU / LI / MOV: compute now, write back after the FU
            # latency.
            value = self._compute_alu(inst)
            self._schedule(self._fu_latency[instr.fu_class],
                           lambda: self._complete_simple(inst, value))
        elif instr.is_load:
            self._begin_load(inst)
        elif instr.is_branch:
            self._schedule(1, lambda: self._resolve_branch(inst))
        elif instr.is_memory:  # stores and line flushes
            self._begin_store_address(inst)
        elif instr.is_rdcycle:
            self._schedule(1, lambda: self._complete_simple(
                inst, self.cycle))
        else:  # FENCE
            self._schedule(1, lambda: self._complete_simple(inst, 0))

    def _compute_alu(self, inst: DynInst) -> int:
        instr = inst.instr
        alu = instr.alu_fn
        if alu is None:  # LI
            return instr.imm & WORD_MASK
        values = self.rename.values
        psrcs = inst.psrcs
        if len(psrcs) == 2:  # register-register
            return alu(values[psrcs[0]], values[psrcs[1]])
        # Register-immediate (MOV ignores its second operand).
        return alu(values[psrcs[0]], instr.imm & WORD_MASK)

    # ------------------------------------------------------------------
    # Simple completion & branch resolution
    # ------------------------------------------------------------------

    def _schedule(self, delay: int, action) -> None:
        self.events.schedule(self.cycle + (delay if delay > 1 else 1),
                             action)

    def _write_back(self, pdst: int, value: int) -> None:
        """Write a result to its physical register and wake the issue
        queue residents waiting on it: every register writeback goes
        through here."""
        self.rename.write(pdst, value)
        self.iq.wake(pdst)

    def _complete_simple(self, inst: DynInst, value: int) -> None:
        if inst.squashed:
            return
        value &= WORD_MASK
        inst.value = value
        if inst.pdst is not None:
            self._write_back(inst.pdst, value)
        inst.state = _COMPLETED
        inst.cycle_completed = self.cycle
        if self._taints_writeback:
            self.defense.on_writeback(self, inst)
        if inst.instr.is_serializing:
            self._remove_barrier(inst.seq)

    def _remove_barrier(self, seq: int) -> None:
        try:
            self._barrier_seqs.remove(seq)
        except ValueError:
            pass

    def _resolve_branch(self, inst: DynInst) -> None:
        if inst.squashed:
            return
        instr = inst.instr
        fallthrough = inst.pc + INSTRUCTION_BYTES
        compare = instr.branch_cmp
        if compare is not None:  # conditional
            values = self.rename.values
            psrcs = inst.psrcs
            taken = compare(values[psrcs[0]], values[psrcs[1]])
            target = instr.target if taken else fallthrough
        elif instr.is_indirect:  # JMPI, RET
            taken, target = True, self.rename.values[inst.psrcs[0]]
        else:  # JMP, CALL
            taken, target = True, instr.target
            if instr.is_call:
                inst.value = fallthrough
                if inst.pdst is not None:
                    self._write_back(inst.pdst, fallthrough)
        actual_next = target if taken else fallthrough
        predicted_next = inst.pred_target
        inst.taken = taken
        inst.actual_target = actual_next
        inst.mispredicted = actual_next != predicted_next
        if (not inst.mispredicted and self.faults is not None
                and self.faults.force_branch_mispredict(self.cycle, inst)):
            # Injected mispredict: squash and redirect to the (correct)
            # target, exercising recovery on a never-squashing path.
            inst.mispredicted = True
        inst.resolved = True
        inst.state = _COMPLETED
        inst.cycle_completed = self.cycle
        del self.unresolved_branches[inst.seq]
        self.report.branches_resolved += 1
        self.predictor.update(inst.pc, instr, taken, target,
                              inst.mispredicted)
        if self._taints_writeback and inst.pdst is not None:
            self.defense.on_writeback(self, inst)  # CALL link register
        if inst.mispredicted:
            self.report.branch_mispredicts += 1
            self._request_squash(inst.seq, actual_next, "branch")

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------

    def _begin_load(self, inst: DynInst) -> None:
        base = self.rename.values[inst.psrcs[0]]
        inst.vaddr = vaddr = (base + inst.instr.imm) & WORD_MASK
        translation = self.dtlb.translate(vaddr)
        inst.paddr = translation.paddr
        inst.ppn = translation.ppn
        inst.addr_ready = True
        delay = _AGU_LATENCY + translation.latency
        self._schedule(delay, lambda: self._load_cache_stage(inst))

    def _load_cache_stage(self, inst: DynInst) -> None:
        if inst.squashed:
            return
        if self.faults is not None \
                and self.faults.force_memdep_wait(self.cycle, inst):
            # Injected memory-dependence mispredict: replay as if an
            # older store's unknown address forced the load to wait.
            self._load_replay.append(inst)
            self.stats["load_wait_injected"] += 1
            return
        decision = self.lsq.check_load(inst)
        if decision.speculation_hazard:
            inst.speculated_past_store = True
            self.stats["load_speculated_past_store"] += 1
        source = decision.source
        if source is not None:
            if not source.store_data_ready:
                self._load_replay.append(inst)
                self.stats["load_wait_store_data"] += 1
                return
            inst.forward_seq = source.seq
            self.stats["load_forwarded"] += 1
            value = source.value
            self._schedule(_FORWARD_LATENCY,
                           lambda: self._complete_load(inst, value))
            return

        # Read from the memory system.
        assert inst.paddr is not None
        value = self.memory_image.get(inst.paddr & _WORD_ALIGN, 0)
        policy = self.security.lru_policy
        update_lru = policy is _NORMAL_LRU
        hit = self.hierarchy.data_hit_l1(inst.paddr, update_lru=update_lru)
        filter_mode = self._filters_at_cache
        if inst.suspect and filter_mode and self._filter_bypass:
            # Injected filter-disable window: the suspect miss proceeds
            # as if the machine were unprotected for these cycles.
            self.stats["filter_bypassed_injected"] += 1
        elif inst.suspect and filter_mode:
            # The Cache-hit rule (Section V.C): a suspect hit changes no
            # cache content and proceeds; the defense judges a miss.
            self.report.suspect_accesses += 1
            if hit:
                self.report.suspect_l1_hits += 1
            else:
                verdict = self.defense.judge_suspect_load(self, inst)
                if verdict is _BLOCK:
                    # Discard the miss request; wait in the IQ for the
                    # security dependence to clear, then re-issue.
                    inst.state = _BLOCKED
                    inst.ever_blocked = True
                    inst.block_events += 1
                    self.iq.requeue(inst)
                    self.report.block_events += 1
                    self.stats["filter_blocked_misses"] += 1
                    return
                if verdict is _INVISIBLE:
                    # InvisiSpec-style: read memory at miss latency
                    # without changing any cache state; the commit
                    # stage exposes the line.
                    result = self.hierarchy.peek_miss(inst.paddr)
                    latency = result.latency
                    inst.mem_level = result.level
                    inst.invisible_fill = inst.paddr
                    self.stats["invisible_loads"] += 1
                    if self.faults is not None:
                        latency += self.faults.extra_fill_delay(
                            self.cycle, inst)
                    self._schedule(
                        latency, lambda: self._complete_load(inst, value))
                    return
        if hit:
            if policy is _DELAYED_LRU:
                inst.pending_lru_line = inst.paddr
            latency = self.machine.memory.l1d.hit_latency
            inst.mem_level = "l1"
        else:
            result = self.hierarchy.complete_miss(inst.paddr)
            latency = result.latency
            inst.mem_level = result.level
        if self.faults is not None:
            latency += self.faults.extra_fill_delay(self.cycle, inst)
        self._schedule(latency, lambda: self._complete_load(inst, value))

    def _complete_load(self, inst: DynInst, value: int) -> None:
        if inst.squashed:
            return
        value &= WORD_MASK
        inst.value = value
        if inst.pdst is not None:
            self._write_back(inst.pdst, value)
        inst.state = _COMPLETED
        inst.cycle_completed = self.cycle
        if self._taints_writeback:
            self.defense.on_writeback(self, inst)
        self.iq.release(inst)

    # ------------------------------------------------------------------
    # Stores and CLFLUSH (address pipeline)
    # ------------------------------------------------------------------

    def _begin_store_address(self, inst: DynInst) -> None:
        base = self.rename.values[inst.psrcs[0]]
        inst.vaddr = vaddr = (base + inst.instr.imm) & WORD_MASK
        translation = self.dtlb.translate(vaddr)
        inst.paddr = translation.paddr
        inst.ppn = translation.ppn
        delay = _AGU_LATENCY + translation.latency
        self._schedule(delay, lambda: self._store_address_resolved(inst))

    def _store_address_resolved(self, inst: DynInst) -> None:
        if inst.squashed:
            return
        inst.addr_ready = True
        if inst.instr.is_store:
            # Memory-order violation check (Spectre V4 squash path).
            violations = self.lsq.violating_loads(inst)
            if violations:
                victim = violations[0]
                self.report.memory_order_violations += 1
                self._request_squash(victim.seq - 1, victim.pc,
                                     "memory_order")
            self._try_capture_store_data(inst)
            if not inst.store_data_ready:
                self._stores_waiting_data.append(inst)
        else:  # CLFLUSH: complete; the flush itself happens at commit.
            inst.state = _COMPLETED
            inst.cycle_completed = self.cycle

    def _try_capture_store_data(self, inst: DynInst) -> None:
        data_psrc = inst.psrcs[1]
        rename = self.rename
        if not rename.ready[data_psrc]:
            return
        inst.value = rename.values[data_psrc]
        inst.store_data_ready = True
        inst.state = _COMPLETED
        inst.cycle_completed = self.cycle

    # ------------------------------------------------------------------
    # Replay of waiting memory operations
    # ------------------------------------------------------------------

    def _retry_waiting_memory(self) -> bool:
        """Retry stores waiting for data and loads waiting to access
        memory; returns whether any of them stopped waiting."""
        moved = False
        if self._stores_waiting_data:
            still_waiting: List[DynInst] = []
            for store in self._stores_waiting_data:
                if store.squashed:
                    continue
                self._try_capture_store_data(store)
                if not store.store_data_ready:
                    still_waiting.append(store)
                else:
                    moved = True
            self._stores_waiting_data = still_waiting
        if self._load_replay:
            replays = [
                load for load in self._load_replay if not load.squashed
            ]
            self._load_replay = []
            for load in replays:
                self._load_cache_stage(load)
            # A load that waits again re-queues itself.
            moved = moved or len(self._load_replay) < len(replays)
        return moved

    # ------------------------------------------------------------------
    # Squash
    # ------------------------------------------------------------------

    def _inject_spurious_squash(self) -> None:
        """Fault injection: flush everything younger than a randomly
        chosen ROB resident (models machine clears / replay traps).

        The redirect PC is the victim's architecturally safe next fetch
        address — resolved target, predicted target, or PC+4 — so the
        perturbation changes timing, never semantics.
        """
        assert self.faults is not None
        if not self.faults.want_spurious_squash(self.cycle):
            return
        candidates = [inst for inst in self.rob
                      if not inst.instr.is_halt]
        keep = self.faults.choose_squash_point(self.cycle, candidates)
        if keep is None:
            return
        if keep.instr.is_branch:
            redirect = keep.actual_target if keep.resolved \
                else keep.pred_target
        else:
            redirect = keep.pc + INSTRUCTION_BYTES
        self._request_squash(keep.seq, redirect, "injected")

    def _request_squash(self, keep_seq: int, redirect_pc: int,
                        kind: str) -> None:
        if self._pending_squash is None \
                or keep_seq < self._pending_squash[0]:
            self._pending_squash = (keep_seq, redirect_pc, kind)
            return
        # An architectural squash at the same keep point must override a
        # pending injected one: the injected redirect was computed from
        # the keep's *predicted* target, which goes stale if the keep
        # itself resolves mispredicted later in the same cycle.
        if keep_seq == self._pending_squash[0] \
                and self._pending_squash[2] == "injected" \
                and kind != "injected":
            self._pending_squash = (keep_seq, redirect_pc, kind)

    def _squash(self, keep_seq: int, redirect_pc: int, kind: str) -> None:
        squashed = self.rob.squash_younger_than(keep_seq)
        for inst in squashed:  # youngest first
            inst.squashed = True
            instr = inst.instr
            if instr.is_branch and not inst.resolved:
                del self.unresolved_branches[inst.seq]
            if instr.is_serializing:
                self._remove_barrier(inst.seq)
            if instr.needs_iq:
                self.iq.release(inst)
            if instr.is_memory:
                self.lsq.release(inst)
            if inst.pdst is not None:
                dest = instr.dest
                assert dest is not None and inst.old_pdst is not None
                self.rename.rollback(dest, inst.pdst, inst.old_pdst)
            if self._defense_events:
                self.defense.on_squash(self, inst)
            if self.tracer is not None:
                self.tracer.on_squash(inst, self.cycle)
            self.report.squashed_instructions += 1
        self.report.squashes += 1
        self.stats[f"squash_{kind}"] += 1
        self._fetch_buffer.clear()
        self.fetch_pc = redirect_pc
        self._fetch_stall_until = self.cycle + 1
        self._halt_in_fetch = False

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _commit(self) -> None:
        if self.cycle < self._commit_stall_until:
            return
        for _ in range(self._commit_width):
            head = self.rob.head()
            if head is None or head.state is not _COMPLETED:
                return
            instr = head.instr
            if instr.is_store:
                if self.store_buffer.full:
                    self.stats["commit_stall_store_buffer"] += 1
                    return
                assert head.paddr is not None
                self.memory_image[head.paddr & _WORD_ALIGN] = head.value
                self.store_buffer.push(head.paddr)
                self.report.committed_stores += 1
            elif instr.is_flush:
                assert head.paddr is not None
                latency, _present = self.hierarchy.flush_line(head.paddr)
                self._commit_stall_until = self.cycle + latency
                self.stats["flushes_committed"] += 1
            elif instr.is_load:
                if head.pending_lru_line is not None:
                    self.hierarchy.touch_l1d(head.pending_lru_line)
                elif head.invisible_fill is not None:
                    # An invisible read's line is exposed (filled) once
                    # the load is no longer speculative.
                    self.hierarchy.complete_miss(head.invisible_fill)
                    self.stats["invisible_exposures"] += 1
                self.report.committed_loads += 1
            elif instr.is_branch:
                self.report.committed_branches += 1

            if instr.is_memory and head.ever_blocked:
                self.report.committed_mem_blocked += 1
            if head.old_pdst is not None:
                self.rename.release(head.old_pdst)
            if instr.is_memory:
                self.lsq.release(head)
            if instr.is_serializing:
                self._remove_barrier(head.seq)
            if self._defense_events:
                self.defense.on_commit(self, head)
            self.rob.pop_head()
            if self.tracer is not None:
                self.tracer.on_retire(head, self.cycle)
            self.report.committed += 1
            self._last_commit_cycle = self.cycle

            if instr.is_halt:
                self.halted = True
                self.report.halted = True
                # Drain: discard wrong-path youngsters so architectural
                # state (rename map) is exact.
                self._squash(head.seq, head.pc, "halt")
                return
            if instr.is_flush:
                return  # flush occupies the commit port

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------

    def finalize_report(self) -> SimReport:
        report = self.report
        report.cycles = self.cycle
        if not report.termination:
            report.termination = "halt" if self.halted else "cycle_budget"
        if self.faults is not None:
            report.injected_faults = self.faults.summary()
        report.l1d_hits = self.hierarchy.l1d.stats.get("hits")
        report.l1d_misses = self.hierarchy.l1d.stats.get("misses")
        report.l1i_hits = self.hierarchy.l1i.stats.get("hits")
        report.l1i_misses = self.hierarchy.l1i.stats.get("misses")
        if self.tpbuf is not None:
            report.tpbuf_queries = self.tpbuf.stats.get("queries")
            report.tpbuf_safe = self.tpbuf.stats.get("safe")
            if self.lsq.allocations:
                self.tpbuf.stats["allocations"] = self.lsq.allocations
        groups = [
            self.stats, self.hierarchy.stats, self.hierarchy.l1d.stats,
            self.hierarchy.l1i.stats, self.hierarchy.l2.stats,
            self.hierarchy.l3.stats, self.predictor.stats,
            self.iq.matrix.stats, self.itlb.stats,
            self.dtlb.stats, self.store_buffer.stats,
            self.icache_filter.stats,
        ]
        if self.tpbuf is not None:
            groups.append(self.tpbuf.stats)
        report.raw = combine(groups)
        return report


def _add_repeats(group: StatGroup, before: Dict[str, int],
                 times: int) -> None:
    """Add ``times`` more of every counter change in ``group`` since the
    snapshot ``before``."""
    for key, value in group.as_dict().items():
        delta = value - before.get(key, 0)
        if delta:
            group[key] += delta * times
