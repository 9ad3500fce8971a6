"""E4 - Table VI: overhead sensitivity to core complexity (A57-like,
i7-like, Xeon-like).

Paper's shape: the same Baseline >> Cache-hit > TPBuf trend on every
platform, and average overhead grows (mildly) with core complexity
(TPBuf: 6.0% on A57-like to 9.6% on Xeon-like).
"""
from conftest import BENCH_SCALE, run_once, suite_benchmarks

from repro.experiments import run_table6


def test_bench_table6(benchmark):
    result = run_once(
        benchmark,
        lambda: run_table6(benchmarks=suite_benchmarks(),
                           scale=BENCH_SCALE),
    )
    print()
    print(result.render())

    for machine in result.machines:
        base = result.average_overhead(machine, "baseline")
        cachehit = result.average_overhead(machine, "cache_hit")
        tpbuf = result.average_overhead(machine, "cache_hit_tpbuf")
        print(f"{machine}: baseline={base:.1%} cache-hit={cachehit:.1%} "
              f"tpbuf={tpbuf:.1%}")
        # The per-platform mechanism ordering must hold everywhere.
        assert base > tpbuf - 0.01, machine
        assert cachehit >= tpbuf - 0.02, machine
