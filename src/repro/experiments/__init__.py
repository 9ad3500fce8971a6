"""Experiment drivers: one module per table/figure of the paper.

Every driver returns a result object with a ``render()`` text view and
the raw numbers, so the benchmark harness and the tests share one code
path.  See DESIGN.md's per-experiment index for the mapping.
"""
from .runner import (
    SweepEngine,
    SweepResult,
    SweepRow,
    run_benchmark,
)
from .fence_study import (
    FENCE_STUDY_MODES,
    FenceStudyResult,
    FenceStudyRow,
    run_fence_study,
)
from .figure5 import Figure5Result, run_figure5
from .precision_study import (
    PrecisionRow,
    PrecisionStudyResult,
    run_precision_study,
)
from .prescreen import PrescreenValidation, run_defense_prescreen
from .shootout import (
    ATTACK_SUITE,
    ShootoutResult,
    ShootoutRow,
    run_defense_shootout,
)
from .table4 import Table4Result, run_table4, SCENARIOS
from .table5 import Table5Result, run_table5
from .table6 import Table6Result, run_table6
from .lru_study import LRUStudyResult, run_lru_study
from .area_study import run_area_study
from .ablations import (
    run_fence_ablation,
    run_icache_filter_study,
    run_matrix_ablation,
)
from .compare import compare_figure5, compare_table5, rank_correlation

__all__ = [
    "SweepEngine",
    "SweepResult",
    "SweepRow",
    "run_benchmark",
    "FENCE_STUDY_MODES",
    "FenceStudyRow",
    "FenceStudyResult",
    "run_fence_study",
    "Figure5Result",
    "run_figure5",
    "PrecisionRow",
    "PrecisionStudyResult",
    "run_precision_study",
    "ATTACK_SUITE",
    "PrescreenValidation",
    "run_defense_prescreen",
    "ShootoutResult",
    "ShootoutRow",
    "run_defense_shootout",
    "Table4Result",
    "run_table4",
    "SCENARIOS",
    "Table5Result",
    "run_table5",
    "Table6Result",
    "run_table6",
    "LRUStudyResult",
    "run_lru_study",
    "run_area_study",
    "run_fence_ablation",
    "run_icache_filter_study",
    "run_matrix_ablation",
    "compare_figure5",
    "compare_table5",
    "rank_correlation",
]
