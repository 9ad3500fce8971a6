"""Experiment drivers: one module per table/figure of the paper.

Every driver returns a result object with a ``render()`` text view and
the raw numbers, so the benchmark harness and the tests share one code
path.  See DESIGN.md's per-experiment index for the mapping.
"""
import importlib
from typing import Any, List

#: Each public name and the driver module that defines it.  The package
#: imports a driver when one of its names is first read (PEP 562), so
#: importing one module - a sweep worker imports only the runner - does
#: not load every driver and, through them, the analysis ladder.
_EXPORTS = {
    "SweepEngine": "runner",
    "SweepResult": "runner",
    "SweepRow": "runner",
    "run_benchmark": "runner",
    "FENCE_STUDY_MODES": "fence_study",
    "FenceStudyRow": "fence_study",
    "FenceStudyResult": "fence_study",
    "run_fence_study": "fence_study",
    "Figure5Result": "figure5",
    "run_figure5": "figure5",
    "PrecisionRow": "precision_study",
    "PrecisionStudyResult": "precision_study",
    "run_precision_study": "precision_study",
    "PrescreenValidation": "prescreen",
    "run_defense_prescreen": "prescreen",
    "ShootoutResult": "shootout",
    "ShootoutRow": "shootout",
    "run_defense_shootout": "shootout",
    "Table4Result": "table4",
    "run_table4": "table4",
    "SCENARIOS": "table4",
    "Table5Result": "table5",
    "run_table5": "table5",
    "Table6Result": "table6",
    "run_table6": "table6",
    "LRUStudyResult": "lru_study",
    "run_lru_study": "lru_study",
    "run_area_study": "area_study",
    "run_fence_ablation": "ablations",
    "run_icache_filter_study": "ablations",
    "run_matrix_ablation": "ablations",
    "compare_figure5": "compare",
    "compare_table5": "compare",
    "rank_correlation": "compare",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
