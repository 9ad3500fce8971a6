"""Static analysis of :class:`~repro.isa.program.Program` objects.

The paper computes security dependences *dynamically* in the issue
queue (Section V.B).  This package derives the same information
*statically* from program structure, giving a second, independent
oracle for "which loads are unsafe to speculate":

- :mod:`cfg` — basic-block control-flow graph construction;
- :mod:`dataflow` — a small generic forward dataflow engine
  (worklist, meet-over-paths, optional widening) over register
  lattices;
- :mod:`taint` — speculative-taint analysis that flags the static
  S-Pattern (a speculative load feeding a second memory access) and
  computes the static suspect set;
- :mod:`valueset` — strided-interval value-set abstract interpretation
  used to *refute* findings whose speculative loads are provably
  in-bounds (the precision layer);
- :mod:`memdep` — interprocedural store→load may-dependence analysis
  (static store sets per load, disjointness proofs) closing the V4
  blind spot of branch-keyed defenses;
- :mod:`fencesynth` — greedy synthesize-and-verify minimal fence
  placement that repairs the surviving findings (the repair layer;
  store barriers only on may-bypass pairs);
- :mod:`prescreen` — static defense-coverage pre-screen predicting
  the full (attack × defense) blocked/leaky matrix from wiring flags
  plus memdep/taint facts;
- :mod:`solver` — small pure-Python 64-bit bitvector constraint layer
  (intervals, known-zero bits, restart-based concretization);
- :mod:`symx` — bounded symbolic execution with always-mispredict
  speculative semantics deciding speculative noninterference:
  ``PROVED_SAFE`` / ``LEAKY(witness)`` / ``UNKNOWN(budget)`` (the
  certification layer);
- :mod:`witness` — concrete counterexamples and their replay on the
  dynamic pipeline;
- :mod:`report` — structured findings and rendering;
- :mod:`verify` — cross-validation against the dynamic security
  matrix (every dynamically-recorded security dependence must be
  covered by a static finding);
- :mod:`corpus` — minimal single-gadget driver programs (unsafe /
  fenced / masked variants) used by the gadget scanner, the
  cross-validation tests and the precision metrics.
"""
from .cfg import BasicBlock, ControlFlowGraph, build_cfg
from .dataflow import DataflowResult, ForwardDataflow, Lattice
from .fencesynth import (
    FenceSynthesis,
    fence_all,
    oracle_equivalent,
    synthesize_fences,
    uses_rdcycle,
)
from .memdep import (
    DisjointProof,
    LoadStoreSet,
    MemDepSummary,
    compute_memdep_summary,
    static_store_sets,
)
from .prescreen import (
    PrescreenCell,
    PrescreenMatrix,
    prescreen_defenses,
)
from .report import (
    SCHEMA_VERSION,
    AnalysisReport,
    Finding,
    GadgetKind,
)
from .solver import ConstraintSolver, SolverStats
from .symx import (
    CertifyResult,
    LeakRecord,
    Verdict,
    certify_program,
    finding_certificates,
)
from .taint import (
    DEFAULT_WINDOW,
    analyze_program,
    static_suspect_pcs,
)
from .witness import ReplayResult, Witness, replay_witness
from .valueset import (
    RefinedReport,
    RefutedFinding,
    Refutation,
    ValueSet,
    ValueSetLattice,
    ValueSetState,
    compute_value_sets,
    refine_report,
)
from .verify import (
    CrossValidation,
    cross_validate,
    record_dynamic_suspects,
)

__all__ = [
    "BasicBlock",
    "ControlFlowGraph",
    "build_cfg",
    "Lattice",
    "ForwardDataflow",
    "DataflowResult",
    "GadgetKind",
    "Finding",
    "AnalysisReport",
    "SCHEMA_VERSION",
    "ConstraintSolver",
    "SolverStats",
    "CertifyResult",
    "LeakRecord",
    "Verdict",
    "certify_program",
    "finding_certificates",
    "ReplayResult",
    "Witness",
    "replay_witness",
    "DEFAULT_WINDOW",
    "analyze_program",
    "static_suspect_pcs",
    "ValueSet",
    "ValueSetState",
    "ValueSetLattice",
    "compute_value_sets",
    "Refutation",
    "RefutedFinding",
    "RefinedReport",
    "refine_report",
    "DisjointProof",
    "LoadStoreSet",
    "MemDepSummary",
    "compute_memdep_summary",
    "static_store_sets",
    "PrescreenCell",
    "PrescreenMatrix",
    "prescreen_defenses",
    "FenceSynthesis",
    "synthesize_fences",
    "fence_all",
    "oracle_equivalent",
    "uses_rdcycle",
    "CrossValidation",
    "cross_validate",
    "record_dynamic_suspects",
]
