"""Mutation search for S-Pattern variants the defenses miss.

Starting from the corpus gadgets and freshly generated secret-mode
programs, a hill-climbing loop applies *address-preserving* mutations
(instruction count never changes, so every branch target, label and
label-valued immediate stays valid) and scores each mutant by the
number of secret-dependent transient cache lines it leaks under a
given protection mode — the paper's own success metric, measured on
the simulator.

Under ``origin`` (no defense) the loop is a positive control: corpus
gadgets already leak and evolution should keep them leaking.  Under
the defended modes (``baseline`` / ``cache_hit`` / ``cache_hit_tpbuf``)
any mutant with fitness > 0 is a *survivor* — a candidate filter
bypass.  Survivors are re-verified with a second, independent secret
value pair (guarding against coincidental line diffs), minimized
while still leaking, and handed to the corpus ingestion layer so
``precision_study`` re-measures the static stack against them.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace as dc_replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import dataclasses

from ..analysis.symx import Verdict, certify_program
from ..core.policy import SecurityConfig
from ..isa.instructions import (ALU_IMM_OPS, WORD_BYTES, Instruction, Opcode,
                                mask64)
from ..isa.program import Program
from ..params import MachineParams, tiny_config
from .agreement import SECRET_VALUE_A, SECRET_VALUE_B, two_secret_probe
from .minimize import MinimizeResult, minimize_program

#: Second secret value pair used only for survivor re-verification
#: (differs from the primary pair in low and high bits alike).
VERIFY_VALUES = (0x1C5, 0x63A)

_IMM_OPS = ALU_IMM_OPS | {Opcode.LI, Opcode.LOAD, Opcode.STORE,
                         Opcode.CLFLUSH}
_IMM_DELTAS = (-64, -8, -1, 1, 8, 64)
_REG_POOL = tuple(range(1, 19))


@dataclass
class EvolveReport:
    """Outcome of one mode's evolution run."""

    mode: str
    seed_name: str
    generations: int
    #: Best fitness after each generation (leaked transient lines).
    history: Tuple[int, ...]
    best_fitness: int
    #: Disassembled best program (for the campaign log).
    best_source: str = ""
    #: True when fitness > 0 under a *defended* mode.
    survivor: bool = False
    #: Survivor held up under the second secret pair.
    verified: bool = False
    minimized_instructions: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "seed_name": self.seed_name,
            "generations": self.generations,
            "history": list(self.history),
            "best_fitness": self.best_fitness,
            "survivor": self.survivor,
            "verified": self.verified,
            "minimized_instructions": self.minimized_instructions,
        }


@dataclass(frozen=True)
class StagedSeed:
    """A gadget plus the attack staging that makes it leak."""

    name: str
    program: Program
    secret_words: Tuple[int, ...]
    warm_words: Tuple[int, ...]


def staged_seed(
    name: str,
    program: Program,
    secret_words: Sequence[int],
    *,
    machine: Optional[MachineParams] = None,
) -> Optional[StagedSeed]:
    """Turn a corpus-style gadget into an evolve seed.

    A corpus driver carries benign inputs — the leak needs adversarial
    public memory (an out-of-bounds index, a poisoned return word)
    only the certifier's witness knows.  This bakes the first leak
    witness's public memory into the program and returns its warm
    words, so :func:`leak_fitness` measures the staged attack.
    ``None`` when symx finds no replayable leak to stage.
    """
    result = certify_program(
        program, secret_words=secret_words, replay=True,
        machine=machine, name=name)
    if result.verdict is not Verdict.LEAKY:
        return None
    align = ~(WORD_BYTES - 1)
    for leak in result.leaks:
        if leak.replay is None or not leak.replay.reproduced:
            continue
        public = {mask64(addr) & align: mask64(value)
                  for addr, value in leak.witness.public_memory}
        staged = dataclasses.replace(
            program,
            initial_memory={**program.initial_memory, **public})
        return StagedSeed(
            name=name,
            program=staged,
            secret_words=tuple(secret_words),
            warm_words=tuple(leak.witness.warm_words),
        )
    return None


def _mutable_indices(program: Program) -> List[int]:
    return [index for index, instruction
            in enumerate(program.instructions)
            if instruction.op is not Opcode.HALT]


def _tweak_imm(rng: random.Random, instruction: Instruction) -> Instruction:
    return dc_replace(instruction,
                      imm=instruction.imm + rng.choice(_IMM_DELTAS))


def _change_reg(rng: random.Random, instruction: Instruction) -> Instruction:
    fields = [name for name in ("rd", "rs1", "rs2")
              if getattr(instruction, name) != 0]
    if not fields:
        return instruction
    name = rng.choice(fields)
    return dc_replace(instruction, **{name: rng.choice(_REG_POOL)})


def _weaken(rng: random.Random, instruction: Instruction) -> Instruction:
    """Turn a masking/shifting op into a plain copy — the classic way
    a bounds mask gets optimized out."""
    if instruction.op in (Opcode.ANDI, Opcode.SHRI, Opcode.SHLI):
        return dc_replace(instruction, op=Opcode.ADDI, imm=0)
    return _tweak_imm(rng, instruction)


def mutate(program: Program, rng: random.Random) -> Program:
    """One address-preserving mutation (same instruction count)."""
    indices = _mutable_indices(program)
    if not indices:
        return program
    instructions = list(program.instructions)
    index = rng.choice(indices)
    instruction = instructions[index]
    roll = rng.random()
    if roll < 0.35 and instruction.op in _IMM_OPS:
        instructions[index] = _tweak_imm(rng, instruction)
    elif roll < 0.55:
        instructions[index] = _change_reg(rng, instruction)
    elif roll < 0.70:
        instructions[index] = _weaken(rng, instruction)
    elif roll < 0.85:
        instructions[index] = Instruction(Opcode.NOP)
    else:
        # Transplant another instruction into this slot (count stable).
        instructions[index] = instructions[rng.choice(indices)]
    return dc_replace(program, instructions=instructions)


def leak_fitness(
    program: Program,
    secret_words: Sequence[int],
    mode: str,
    *,
    machine: Optional[MachineParams] = None,
    max_cycles: int = 200_000,
    values: Tuple[int, int] = (SECRET_VALUE_A, SECRET_VALUE_B),
    warm_words: Sequence[int] = (),
) -> Optional[int]:
    """Leaked transient line count under ``mode``; ``None`` = invalid
    (a mutant that no longer halts)."""
    diff = two_secret_probe(
        program, secret_words,
        machine=machine, max_cycles=max_cycles,
        security=SecurityConfig(mode),
        values=values, warm_words=warm_words)
    if diff is None:
        return None
    return len(diff)


def evolve_mode(
    seed_program: Program,
    secret_words: Sequence[int],
    mode: str,
    rng: random.Random,
    *,
    seed_name: str = "seed",
    generations: int = 8,
    population: int = 6,
    offspring: int = 3,
    machine: Optional[MachineParams] = None,
    disassemble: Optional[Callable[[Program], str]] = None,
    warm_words: Sequence[int] = (),
) -> EvolveReport:
    """Hill-climb ``seed_program`` against one protection mode."""
    machine = machine if machine is not None else tiny_config()

    def fitness(candidate: Program) -> int:
        score = leak_fitness(candidate, secret_words, mode,
                             machine=machine, warm_words=warm_words)
        return -1 if score is None else score

    pool: List[Tuple[int, Program]] = [
        (fitness(seed_program), seed_program)]
    history: List[int] = []
    for _ in range(generations):
        children: List[Tuple[int, Program]] = []
        for _, parent in pool:
            for _ in range(offspring):
                child = mutate(parent, rng)
                children.append((fitness(child), child))
        pool = sorted(pool + children, key=lambda pair: pair[0],
                      reverse=True)[:population]
        history.append(pool[0][0])

    best_fitness, best = pool[0]
    best_fitness = max(best_fitness, 0)
    survivor = mode != "origin" and best_fitness > 0
    verified = False
    if survivor:
        check = leak_fitness(best, secret_words, mode,
                             machine=machine, values=VERIFY_VALUES,
                             warm_words=warm_words)
        verified = bool(check)
    source = ""
    if disassemble is not None and best_fitness > 0:
        source = disassemble(best)
    return EvolveReport(
        mode=mode,
        seed_name=seed_name,
        generations=generations,
        history=tuple(history),
        best_fitness=best_fitness,
        best_source=source,
        survivor=survivor,
        verified=verified,
    )


def minimize_survivor(
    program: Program,
    secret_words: Sequence[int],
    mode: str,
    *,
    machine: Optional[MachineParams] = None,
    warm_words: Sequence[int] = (),
) -> MinimizeResult:
    """Shrink a verified survivor while it still leaks under ``mode``
    with *both* secret value pairs."""
    machine = machine if machine is not None else tiny_config()

    def predicate(candidate: Program) -> bool:
        primary = leak_fitness(candidate, secret_words, mode,
                               machine=machine, warm_words=warm_words)
        if not primary:
            return False
        check = leak_fitness(candidate, secret_words, mode,
                             machine=machine, values=VERIFY_VALUES,
                             warm_words=warm_words)
        return bool(check)

    return minimize_program(program, predicate)
