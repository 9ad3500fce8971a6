"""repro - a reproduction of *Conditional Speculation: An Effective
Approach to Safeguard Out-of-Order Execution Against Spectre Attacks*
(Li, Zhao, Hou, Zhang, Meng - HPCA 2019).

The package provides:

- a cycle-level out-of-order CPU simulator (:mod:`repro.pipeline`) with
  caches, TLBs and branch prediction (:mod:`repro.memory`,
  :mod:`repro.frontend`) and a small RISC ISA (:mod:`repro.isa`);
- the paper's defense (:mod:`repro.core`): security dependence matrix,
  Cache-hit hazard filter, TPBuf / S-Pattern filter, the speculative
  LRU policies and the ICache-hit extension;
- Spectre V1 / V2 / V4 / SpectrePrime proof-of-concept attacks with
  five cache side-channel receivers (:mod:`repro.attacks`);
- SPEC-CPU-2006-profile synthetic workloads (:mod:`repro.workloads`);
- experiment drivers regenerating every table and figure of the
  paper's evaluation (:mod:`repro.experiments`).

Quickstart::

    from repro import Processor, ProgramBuilder, SecurityConfig

    b = ProgramBuilder()
    b.li(1, 5).label("loop").addi(1, 1, -1).bne(1, 0, "loop").halt()
    cpu = Processor(b.build(), security=SecurityConfig.cache_hit_tpbuf())
    report = cpu.run()
    print(report.render())
"""
from .core.defense import PAPER_DEFENSES
from .core.policy import SecurityConfig
from .errors import DeadlockError, SimulationError
from .isa import Instruction, Opcode, Program, ProgramBuilder, assemble
from .isa.oracle import run_oracle
from .memory.replacement import SpeculativeLRUPolicy
from .params import (
    MachineParams,
    a57_like,
    i7_like,
    paper_config,
    preset,
    tiny_config,
    xeon_like,
)
from .pipeline import PipelineTracer, Processor, SimReport
from .robustness import FaultInjector, FaultPlan

__version__ = "1.0.0"

__all__ = [
    "PAPER_DEFENSES",
    "SecurityConfig",
    "SpeculativeLRUPolicy",
    "Instruction",
    "Opcode",
    "Program",
    "ProgramBuilder",
    "assemble",
    "run_oracle",
    "MachineParams",
    "paper_config",
    "a57_like",
    "i7_like",
    "xeon_like",
    "tiny_config",
    "preset",
    "Processor",
    "SimReport",
    "PipelineTracer",
    "SimulationError",
    "DeadlockError",
    "FaultPlan",
    "FaultInjector",
    "__version__",
]
