"""E1 - Figure 5: normalized execution time of Baseline, Cache-hit
Filter and Cache-hit + TPBuf over the SPEC CPU 2006 profile suite.

Paper's shape: Baseline is by far the worst (53.6% average overhead);
the Cache-hit filter recovers most of it (12.8%); adding TPBuf recovers
more (6.8%), with the biggest per-benchmark gains on the low-hit-rate
workloads (lbm, mcf, milc, zeusmp).
"""
from conftest import BENCH_SCALE, run_once, suite_benchmarks

from repro.experiments import run_figure5
from repro.experiments.compare import compare_figure5


def test_bench_figure5(benchmark):
    result = run_once(
        benchmark,
        lambda: run_figure5(benchmarks=suite_benchmarks(),
                            scale=BENCH_SCALE),
    )
    print()
    print(result.render())
    print()
    print(compare_figure5(result))

    base = result.average_overhead("baseline")
    cachehit = result.average_overhead("cache_hit")
    tpbuf = result.average_overhead("cache_hit_tpbuf")
    print(f"\naverage overhead: baseline={base:.1%} "
          f"cache-hit={cachehit:.1%} cache-hit+tpbuf={tpbuf:.1%} "
          f"(paper: 53.6% / 12.8% / 6.8%)")

    # Shape assertions (paper ordering).
    assert base > cachehit > tpbuf
    assert tpbuf < 0.15
    # The flagship per-benchmark result: TPBuf rescues lbm.
    lbm = result.row("lbm")
    assert lbm.overhead("cache_hit_tpbuf") < lbm.overhead("cache_hit") / 2
