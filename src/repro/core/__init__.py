"""Conditional Speculation: the paper's primary contribution.

- :mod:`policy` - :class:`SecurityConfig`: the active defense's
  registry name and the knobs of the mechanism.
- :mod:`defense` - the pluggable :class:`Defense` strategy interface
  and the registered defense zoo (the paper's four configurations in
  :data:`PAPER_DEFENSES`, plus literature schemes).  The core applies
  the Cache-hit rule (a suspect L1D hit proceeds); each defense judges
  a suspect miss: :meth:`CacheHitDefense.judge_suspect_load` blocks
  it and the TPBuf filter lets a safe one proceed (Sections V.C / V.D,
  Table II).
- :mod:`security_matrix` - the NxN security dependence matrix that
  lives in the issue queue (Section V.B).
- :mod:`tpbuf` - the Trusted Page Buffer and S-Pattern detection
  (Section V.D).
- :mod:`icache_filter` - the ICache-hit filter extension (Section VII.B).
- :mod:`area_model` - analytic area/timing model standing in for the
  paper's RTL synthesis (Section VI.E).
"""
from .policy import SecurityConfig
from .defense import (
    DEFENSE_REGISTRY,
    PAPER_DEFENSES,
    Defense,
    DefenseConfigError,
    MissVerdict,
    create_defense,
    defense_names,
    normalize_defense_name,
    register_defense,
)
from .security_matrix import SecurityDependenceMatrix
from .tpbuf import TPBuf
from .icache_filter import ICacheHitFilter
from .area_model import (
    AreaReport,
    cache_area_mm2,
    comparator_area_mm2,
    matrix_area_mm2,
    matrix_timing_penalty,
    tpbuf_area_mm2,
    area_report,
)

__all__ = [
    "SecurityConfig",
    "DEFENSE_REGISTRY",
    "PAPER_DEFENSES",
    "Defense",
    "DefenseConfigError",
    "create_defense",
    "defense_names",
    "normalize_defense_name",
    "register_defense",
    "SecurityDependenceMatrix",
    "TPBuf",
    "MissVerdict",
    "ICacheHitFilter",
    "AreaReport",
    "cache_area_mm2",
    "comparator_area_mm2",
    "matrix_area_mm2",
    "matrix_timing_penalty",
    "tpbuf_area_mm2",
    "area_report",
]
