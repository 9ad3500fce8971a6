"""Export experiment results to JSON (for plotting / archiving).

Each exporter produces plain dicts; ``dump_json`` writes them with a
small metadata header so archived results are self-describing.
"""
from __future__ import annotations

import json
from typing import Any, Dict

from .. import __version__
from .figure5 import PROTECTED, Figure5Result
from .table4 import Table4Result
from .table5 import Table5Result
from .table6 import Table6Result


def figure5_to_dict(result: Figure5Result) -> Dict[str, Any]:
    return {
        "artifact": "figure5",
        "benchmarks": {
            row.benchmark: {
                "cycles": dict(row.cycles),
                "normalized": {mode: row.normalized(mode)
                               for mode in PROTECTED},
            }
            for row in result.rows
        },
        "average_overhead": {
            mode: result.average_overhead(mode) for mode in PROTECTED
        },
    }


def table4_to_dict(result: Table4Result) -> Dict[str, Any]:
    return {
        "artifact": "table4",
        "scenarios": {
            row.scenario: {
                "protected": {
                    mode: not row.results[mode].success
                    for mode in row.results
                },
                "matches_paper": row.matches_paper(),
            }
            for row in result.rows
        },
        "all_match_paper": result.all_match_paper(),
    }


def table5_to_dict(result: Table5Result) -> Dict[str, Any]:
    def row_dict(row) -> Dict[str, float]:
        return {
            "l1_hit_rate": row.l1_hit_rate,
            "baseline_blocked": row.baseline_blocked,
            "cachehit_blocked": row.cachehit_blocked,
            "spec_hit_rate": row.spec_hit_rate,
            "tpbuf_blocked": row.tpbuf_blocked,
            "spattern_mismatch": row.spattern_mismatch,
        }

    return {
        "artifact": "table5",
        "benchmarks": {row.benchmark: row_dict(row) for row in result.rows},
        "average": row_dict(result.averages()),
    }


def table6_to_dict(result: Table6Result) -> Dict[str, Any]:
    return {
        "artifact": "table6",
        "machines": {
            machine: {
                benchmark: dict(per_mode)
                for benchmark, per_mode in per_bench.items()
            }
            for machine, per_bench in result.overheads.items()
        },
    }


def dump_json(payload: Dict[str, Any], path: str) -> None:
    """Write a result dict with a metadata envelope."""
    envelope = {
        "repro_version": __version__,
        "paper": "Conditional Speculation (HPCA 2019)",
        **payload,
    }
    with open(path, "w") as handle:
        json.dump(envelope, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_json(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)
