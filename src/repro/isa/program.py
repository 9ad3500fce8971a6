"""Program container and instruction memory.

A :class:`Program` is a list of instructions laid out at a base address
plus an initial data image (word address -> 64-bit value).  The
:class:`InstructionMemory` view is what the fetch stage reads; fetches
from unmapped addresses decode as ``NOP`` so that wrong-path fetch can
run ahead harmlessly until the mispredicted branch squashes it, the way
real front ends fetch garbage past a misprediction.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import SimulationError
from .instructions import INSTRUCTION_BYTES, WORD_BYTES, Instruction, Opcode

#: What an unmapped instruction address decodes as.
UNMAPPED = Instruction(Opcode.NOP)


@dataclass
class Program:
    """A fully resolved program image."""

    instructions: List[Instruction]
    base_address: int = 0x1000
    labels: Dict[str, int] = field(default_factory=dict)
    initial_memory: Dict[int, int] = field(default_factory=dict)
    entry_point: Optional[int] = None

    def __post_init__(self) -> None:
        if self.base_address % INSTRUCTION_BYTES != 0:
            raise SimulationError("program base address must be aligned")
        if self.entry_point is None:
            self.entry_point = self.base_address
        for address in self.initial_memory:
            if address % WORD_BYTES != 0:
                raise SimulationError(
                    f"initial memory address {address:#x} is not word aligned"
                )

    def __len__(self) -> int:
        return len(self.instructions)

    def address_of(self, index: int) -> int:
        """Instruction address of the ``index``-th instruction."""
        return self.base_address + index * INSTRUCTION_BYTES

    @property
    def end_address(self) -> int:
        return self.address_of(len(self.instructions))

    def label(self, name: str) -> int:
        """Address of a label defined by the builder/assembler."""
        try:
            return self.labels[name]
        except KeyError:
            raise SimulationError(f"unknown label {name!r}") from None

    def instruction_at(self, address: int) -> Optional[Instruction]:
        """The instruction at ``address`` or ``None`` if unmapped."""
        offset = address - self.base_address
        if offset < 0 or offset % INSTRUCTION_BYTES != 0:
            return None
        index = offset // INSTRUCTION_BYTES
        if index >= len(self.instructions):
            return None
        return self.instructions[index]

    def iter_addressed(self) -> Iterator[Tuple[int, Instruction]]:
        for index, instruction in enumerate(self.instructions):
            yield self.address_of(index), instruction

    def listing(self) -> str:
        """Human-readable disassembly with label annotations."""
        by_address: Dict[int, List[str]] = {}
        for name, address in self.labels.items():
            by_address.setdefault(address, []).append(name)
        lines = []
        for address, instruction in self.iter_addressed():
            for name in by_address.get(address, ()):
                lines.append(f"{name}:")
            lines.append(f"  {address:#06x}  {instruction}")
        return "\n".join(lines)


@dataclass
class FenceRewrite:
    """Result of :func:`insert_fences`.

    Carries the rewritten program plus the address bookkeeping needed
    to relate analyses of the two images: ``to_new`` maps every
    original instruction address to its post-rewrite address,
    ``fence_for`` maps a fenced original address to its protecting
    fence, and ``fence_addresses`` lists the inserted fences in the
    new image.
    """

    program: Program
    #: Original instruction address -> address in the new image.
    to_new: Dict[int, int]
    #: Addresses (new image) of the FENCE instructions inserted.
    fence_addresses: Tuple[int, ...]
    #: Fenced original address -> address of its protecting fence.
    fence_for: Dict[int, int] = field(default_factory=dict)
    #: ``end_address`` of the original program.
    old_end: int = 0
    #: ``end_address`` of the rewritten program.
    new_end: int = 0

    @property
    def inserted(self) -> int:
        return len(self.fence_addresses)

    def remap_address(self, address: int) -> int:
        """Where a control transfer to (or value naming) ``address``
        should land in the rewritten image.  Fenced addresses map to
        their protecting fence so *every* path into a fenced
        instruction — fall-through or jump — serializes first; the
        fence is architecturally a NOP, so semantics are preserved."""
        if address in self.fence_for:
            return self.fence_for[address]
        if address == self.old_end:
            return self.new_end
        return self.to_new.get(address, address)


def insert_fences(program: Program, pcs: Iterable[int]) -> FenceRewrite:
    """Insert a ``FENCE`` immediately before each instruction address
    in ``pcs`` and fix up everything the shifted layout breaks.

    Rewriting moves instructions, so three classes of embedded
    addresses are remapped through :meth:`FenceRewrite.remap_address`:

    - direct branch / jump / call targets;
    - ``LI`` immediates **when the immediate is a known code label**
      (``li_label`` results such as stored function pointers).  Plain
      constants that merely collide numerically with a code address
      (e.g. a page size of 4096 equal to the base address) are left
      untouched — the label table is the ground truth for what is an
      address;
    - initial-memory words holding label addresses (indirect-branch
      targets materialized in data), under the same label rule;
    - the entry point and the label table itself.

    A target that is itself fenced remaps to the protecting fence, so
    the fence guards jump edges as well as fall-through.
    """
    fence_before = set(pcs)
    for pc in fence_before:
        if program.instruction_at(pc) is None:
            raise SimulationError(
                f"cannot fence unmapped address {pc:#x}"
            )
    label_addresses = set(program.labels.values())

    new_instructions: List[Instruction] = []
    to_new: Dict[int, int] = {}
    fence_for: Dict[int, int] = {}
    fence_addresses: List[int] = []
    for address, instruction in program.iter_addressed():
        if address in fence_before:
            fence_address = (program.base_address
                             + len(new_instructions) * INSTRUCTION_BYTES)
            fence_addresses.append(fence_address)
            fence_for[address] = fence_address
            new_instructions.append(
                Instruction(Opcode.FENCE, note="synthesized")
            )
        to_new[address] = (program.base_address
                           + len(new_instructions) * INSTRUCTION_BYTES)
        new_instructions.append(instruction)

    rewrite = FenceRewrite(
        program=program,  # placeholder until the new image is built
        to_new=to_new,
        fence_addresses=tuple(fence_addresses),
        fence_for=fence_for,
        old_end=program.end_address,
        new_end=(program.base_address
                 + len(new_instructions) * INSTRUCTION_BYTES),
    )

    def remap_value(value: int) -> int:
        """Remap only values the label table declares to be code."""
        if value in label_addresses:
            return rewrite.remap_address(value)
        return value

    rewritten: List[Instruction] = []
    for instruction in new_instructions:
        if instruction.is_branch and not instruction.is_indirect:
            instruction = replace(
                instruction, target=rewrite.remap_address(instruction.target)
            )
        elif instruction.op is Opcode.LI:
            instruction = replace(instruction,
                                  imm=remap_value(instruction.imm))
        rewritten.append(instruction)

    entry_point = program.entry_point
    rewrite.program = Program(
        instructions=rewritten,
        base_address=program.base_address,
        labels={name: rewrite.remap_address(address)
                for name, address in program.labels.items()},
        initial_memory={address: remap_value(value)
                        for address, value in program.initial_memory.items()},
        entry_point=(rewrite.remap_address(entry_point)
                     if entry_point is not None else None),
    )
    return rewrite


class InstructionMemory:
    """Fetch-side view of one program."""

    def __init__(self, program: Program) -> None:
        #: Instruction by address (the fetch stage reads it directly,
        #: with :data:`UNMAPPED` for an address not in it).
        self.by_address: Dict[int, Instruction] = dict(
            program.iter_addressed())

    def fetch(self, address: int) -> Instruction:
        """Instruction at ``address``; unmapped addresses decode as NOP."""
        return self.by_address.get(address, UNMAPPED)

    def is_mapped(self, address: int) -> bool:
        return address in self.by_address
