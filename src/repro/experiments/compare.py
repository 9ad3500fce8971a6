"""Paper-vs-measured comparison utilities.

The reproduction targets *shape*, not absolute numbers, so the headline
statistic is the Spearman rank correlation between the paper's
per-benchmark values and ours: it asks "do the same benchmarks stand
out, in the same order?" without caring about scale.
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .. import paperdata
from .figure5 import Figure5Result
from .formatting import percent, text_table
from .table5 import Table5Result


def _ranks(values: Sequence[float]) -> List[float]:
    """Fractional ranks (ties get the average rank)."""
    indexed = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    position = 0
    while position < len(indexed):
        tie_end = position
        while (tie_end + 1 < len(indexed)
               and values[indexed[tie_end + 1]]
               == values[indexed[position]]):
            tie_end += 1
        average_rank = (position + tie_end) / 2 + 1
        for index in indexed[position:tie_end + 1]:
            ranks[index] = average_rank
        position = tie_end + 1
    return ranks


def rank_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman's rho between two equal-length sequences."""
    if len(xs) != len(ys):
        raise ValueError("sequences must have equal length")
    if len(xs) < 2:
        return 0.0
    rank_x, rank_y = _ranks(xs), _ranks(ys)
    mean = (len(xs) + 1) / 2
    cov = sum((a - mean) * (b - mean) for a, b in zip(rank_x, rank_y))
    var_x = sum((a - mean) ** 2 for a in rank_x)
    var_y = sum((b - mean) ** 2 for b in rank_y)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / (var_x * var_y) ** 0.5


def compare_table5(measured: Table5Result) -> str:
    """Side-by-side Table V with per-metric rank correlations."""
    rows = []
    metrics: Dict[str, Tuple[List[float], List[float]]] = {
        "l1_hit": ([], []),
        "spattern_mismatch": ([], []),
        "tpbuf_blocked": ([], []),
    }
    for row in measured.rows:
        paper = paperdata.TABLE5.get(row.benchmark)
        if paper is None:
            continue
        rows.append([
            row.benchmark,
            percent(row.l1_hit_rate), percent(paper.l1_hit_rate),
            percent(row.spattern_mismatch),
            percent(paper.spattern_mismatch),
            percent(row.tpbuf_blocked), percent(paper.tpbuf_blocked),
        ])
        metrics["l1_hit"][0].append(row.l1_hit_rate)
        metrics["l1_hit"][1].append(paper.l1_hit_rate)
        metrics["spattern_mismatch"][0].append(row.spattern_mismatch)
        metrics["spattern_mismatch"][1].append(paper.spattern_mismatch)
        metrics["tpbuf_blocked"][0].append(row.tpbuf_blocked)
        metrics["tpbuf_blocked"][1].append(paper.tpbuf_blocked)
    table = text_table(
        ["benchmark", "L1 hit", "(paper)", "S-mism", "(paper)",
         "tp-blk", "(paper)"],
        rows,
        title="Table V, measured vs paper",
    )
    corr_lines = [
        f"rank correlation vs paper: "
        + ", ".join(
            f"{name} rho={rank_correlation(ours, paper):.2f}"
            for name, (ours, paper) in metrics.items()
            if len(ours) >= 3
        )
    ]
    return table + "\n" + "\n".join(corr_lines)


def compare_figure5(measured: Figure5Result) -> str:
    """Average overheads vs the paper plus the per-benchmark TPBuf-gain
    rank correlation (does TPBuf rescue the same benchmarks?)."""
    lines = ["Figure 5 averages, measured vs paper:"]
    for mode, paper_value in paperdata.FIGURE5_AVERAGES.items():
        ours = measured.average_overhead(mode)
        lines.append(f"  {mode:<16} measured {ours:6.1%}   "
                     f"paper {paper_value:6.1%}")
    ours_gain, paper_gain = [], []
    for row in measured.rows:
        paper = paperdata.TABLE6.get(row.benchmark)
        if paper is None:
            continue
        ours_gain.append(
            row.overhead("cache_hit") - row.overhead("cache_hit_tpbuf")
        )
        paper_gain.append(paper.i7_cachehit - paper.i7_tpbuf)
    if len(ours_gain) >= 3:
        rho = rank_correlation(ours_gain, paper_gain)
        lines.append(
            f"  per-benchmark TPBuf gain rank correlation vs paper "
            f"(i7 column): rho={rho:.2f}"
        )
    return "\n".join(lines)
