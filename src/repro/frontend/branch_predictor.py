"""Branch prediction: gshare direction predictor plus a tag-less BTB.

The BTB is deliberately direct-mapped and tag-less, like the simplest
commodity designs: two branches whose PCs alias to the same entry share
it.  This is exactly the property Spectre V2 exploits (the attacker
trains the victim's indirect-jump entry from an aliasing PC), so the
predictor is both the performance substrate and part of the attack
surface.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..isa.instructions import INSTRUCTION_BYTES, Instruction, Opcode
from ..stats import StatGroup

_TAKEN_THRESHOLD = 2  # 2-bit counters: 0,1 predict not-taken; 2,3 taken.


@dataclass(frozen=True)
class Prediction:
    """Fetch-time prediction for one instruction."""

    taken: bool
    target: int


class BranchPredictor:
    """gshare + tag-less BTB + return-address stack.

    The RAS is speculative (pushed/popped at fetch time) and is not
    repaired on squash - the behaviour ret2spec-style attacks rely on.
    """

    def __init__(self, history_bits: int, btb_entries: int,
                 ras_entries: int = 16) -> None:
        self.history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self._history = 0
        self._counters: List[int] = [1] * (1 << history_bits)
        self._btb_entries = btb_entries
        self._btb: List[Optional[int]] = [None] * btb_entries
        self._ras: List[int] = []
        self._ras_entries = ras_entries
        self.stats = StatGroup("branch_predictor")

    # ---- indexing -------------------------------------------------------

    def _counter_index(self, pc: int) -> int:
        return ((pc // INSTRUCTION_BYTES) ^ self._history) & self._history_mask

    def btb_index(self, pc: int) -> int:
        """BTB slot for ``pc`` (public: attacks reason about aliasing)."""
        return (pc // INSTRUCTION_BYTES) % self._btb_entries

    # ---- prediction -------------------------------------------------------

    def predict(self, pc: int, instruction: Instruction) -> Prediction:
        """Predict direction and target for a control instruction.

        Direct branches take their target from the instruction word;
        indirect jumps consult the BTB (falling back to not-taken /
        fall-through when the BTB slot is cold).
        """
        fallthrough = pc + INSTRUCTION_BYTES
        op = instruction.op
        if op is Opcode.JMP:
            self.stats.incr("predict_direct_jumps")
            return Prediction(taken=True, target=instruction.target)
        if op is Opcode.CALL:
            self.stats.incr("predict_calls")
            self.ras_push(fallthrough)
            return Prediction(taken=True, target=instruction.target)
        if op is Opcode.RET:
            self.stats.incr("predict_returns")
            target = self.ras_pop()
            if target is None:
                return Prediction(taken=False, target=fallthrough)
            return Prediction(taken=True, target=target)
        if op is Opcode.JMPI:
            self.stats.incr("predict_indirect_jumps")
            cached = self._btb[self.btb_index(pc)]
            if cached is None:
                return Prediction(taken=False, target=fallthrough)
            return Prediction(taken=True, target=cached)
        # Conditional branch: gshare direction, instruction-word target.
        self.stats.incr("predict_conditional")
        counter = self._counters[self._counter_index(pc)]
        taken = counter >= _TAKEN_THRESHOLD
        return Prediction(
            taken=taken,
            target=instruction.target if taken else fallthrough,
        )

    # ---- training (at branch resolution) --------------------------------------

    def update(self, pc: int, instruction: Instruction, taken: bool,
               target: int, mispredicted: bool) -> None:
        """Train the predictor with the resolved outcome."""
        op = instruction.op
        if mispredicted:
            self.stats.incr("mispredictions")
        self.stats.incr("resolved")
        if op is Opcode.JMPI:
            self._btb[self.btb_index(pc)] = target
            return
        if op in (Opcode.JMP, Opcode.CALL, Opcode.RET):
            return
        index = self._counter_index(pc)
        counter = self._counters[index]
        if taken:
            self._counters[index] = min(3, counter + 1)
        else:
            self._counters[index] = max(0, counter - 1)
        self._history = ((self._history << 1) | int(taken)) & self._history_mask

    # ---- return-address stack --------------------------------------------------

    def ras_push(self, return_address: int) -> None:
        """Push at fetch time; oldest entry falls off when full."""
        self._ras.append(return_address)
        if len(self._ras) > self._ras_entries:
            self._ras.pop(0)

    def ras_pop(self) -> Optional[int]:
        if not self._ras:
            return None
        return self._ras.pop()

    def ras_depth(self) -> int:
        return len(self._ras)

    # ---- introspection -----------------------------------------------------------

    def misprediction_rate(self) -> float:
        resolved = self.stats.get("resolved")
        if resolved == 0:
            return 0.0
        return self.stats.get("mispredictions") / resolved
