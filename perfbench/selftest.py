"""Self-tests of the benchmark's own checks and arithmetic.

    python3 perfbench/selftest.py

- a forged wrong simulated result, a forged analysis exception and a
  forged HTTP error each count as failed;
- the known ``summarize_program`` defect is reported under its own
  cause;
- span self time is checked on a hand-built nest;
- the idle-step classifier is checked on a processor stepped by hand.

Exits 0 when every check holds.
"""
from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import certify  # noqa: E402
import common  # noqa: E402
import serve  # noqa: E402
import sweeps  # noqa: E402
import tracer  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_forged_simulation_result() -> None:
    from repro.core.policy import SecurityConfig
    from repro.experiments.runner import SweepRow
    from repro.isa.oracle import run_oracle

    program = sweeps.seeded_program("hmmer", common.DEFAULT_SEED, 0.01)
    oracle = run_oracle(program)
    report = sweeps.run_row("hmmer", security=SecurityConfig.origin(),
                            scale=0.01, seed=common.DEFAULT_SEED,
                            trace=False)

    def row():
        return SweepRow(benchmark="hmmer", mode=report.mode, status="ok",
                        termination=report.termination,
                        cycles=report.cycles, committed=report.committed,
                        report=report)

    key = "hmmer/origin"
    ledger = common.Ledger()
    sweeps.check_row(row(), oracle,
                     {key: [report.cycles, report.committed]}, ledger)
    expect(ledger.failed == 0 and ledger.correct, "genuine row rejected")

    ledger = common.Ledger()
    sweeps.check_row(row(), oracle,
                     {key: [report.cycles + 1, report.committed]}, ledger)
    expect(ledger.failures == {"cycles_or_committed_mismatch": 1}
           and not ledger.correct, "forged cycle count accepted")

    report.perfbench["registers"][5] ^= 1
    ledger = common.Ledger()
    sweeps.check_row(row(), oracle, None, ledger)
    expect(ledger.failures == {"arch_state_mismatch": 1}
           and not ledger.correct, "forged register accepted")


def test_forged_analysis_exception() -> None:
    import repro.analysis as analysis

    cases = [case for case in certify.build_cases(common.DEFAULT_SEED)
             if case[0] in ("corpus:v1:unsafe", "fuzz:7:26")]
    expect(len(cases) == 2, "expected cases missing")
    ledger = common.Ledger()
    certify.measure(cases, None, ledger)
    expect(ledger.failures == {"KeyError@summarize_program": 1},
           f"known defect not reported under its cause: {ledger.failures}")

    def broken(*_args, **_kwargs):
        raise RuntimeError("forged")
    original = analysis.certify_program
    analysis.certify_program = broken
    try:
        ledger = common.Ledger()
        certify.measure(cases[:1], None, ledger)
    finally:
        analysis.certify_program = original
    expect(ledger.failed == 1 and ledger.attempted == 1,
           "forged analysis exception not counted as failed")


def test_forged_http_error() -> None:
    requests = [serve.Request(index, 0.0, "hot", {"name": f"r{index}"})
                for index in range(4)]
    for req in requests:
        req.done = 0.001
    requests[0].result = {"status": "ok"}
    requests[1].error = "http_500"
    requests[2].result = {"status": "error",
                          "error": {"type": "KeyError", "traceback":
                                    'File "x.py", line 1, in boom\n'}}
    requests[3].error = "shed:rate_limited"
    ledger = common.Ledger()
    sync, jobs, good = serve.account(requests, ledger)
    expect(ledger.failures == {"http_500": 1, "KeyError@boom": 1,
                               "shed:rate_limited": 1},
           f"forged HTTP failures miscounted: {ledger.failures}")
    expect(ledger.attempted == 4 and good == 1 and len(sync) == 1
           and not jobs,
           "forged HTTP failures counted as answers")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_span_self_time() -> None:
    clock = FakeClock()
    original = tracer._clock
    tracer._clock = clock
    try:
        spans = tracer.Tracer()

        def leaf(cost):
            clock.now += cost

        def middle():
            clock.now += 1.0
            spans.call("leaf", leaf, 1.0)
            spans.call("middle", leaf, 0.5)      # re-entrant: folds in

        def outer():
            clock.now += 2.0
            spans.call("middle", middle)
            spans.call("leaf", leaf, 3.0)

        spans.call("outer", outer)
    finally:
        tracer._clock = original
    tables = spans.snapshot()
    got = {name: tuple(agg) for name, agg in tables[0].items()}
    expect(got == {"outer": (1, 7.5, 2.0), "middle": (1, 2.5, 1.5),
                   "leaf": (2, 4.0, 4.0)}, f"span arithmetic: {got}")


def test_idle_classifier() -> None:
    from repro.isa.assembler import assemble
    from repro.params import tiny_config
    from repro.pipeline.processor import Processor

    spans = tracer.Tracer()
    tracer.install_simulation_wrappers(spans)
    program = assemble("li r1, 0x90000\nload r2, r1\naddi r3, r2, 1\n"
                       "halt\n")
    cpu = Processor(program, machine=tiny_config())
    def progress():
        return (cpu.report.committed, cpu.stats.get("issued"),
                cpu.stats.get("dispatched"), cpu.fetch_pc)

    idle = steps = 0
    while not cpu.halted and steps < 10_000:
        before = progress()
        cpu.step()
        steps += 1
        idle += progress() == before
    tables = spans.snapshot()
    expect(tracer.agg_count(tables, "pipeline.step") == steps,
           "steps not counted")
    expect(tracer.agg_count(tables, "pipeline.idle_step") == idle,
           "idle classifier disagrees with the hand count")
    # The cold load stalls commit for a memory latency with nothing
    # left to fetch: most cycles are idle, the first ones are not.
    expect(0 < idle < steps and idle > steps // 2,
           f"implausible idle count {idle} of {steps}")


def main() -> int:
    tests = [test_span_self_time, test_forged_http_error,
             test_forged_simulation_result, test_forged_analysis_exception,
             test_idle_classifier]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
