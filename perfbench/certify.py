"""``certify``: the full analysis ladder over distinct programs.

Each program goes through ``analyze_program`` ->
``compute_program_summaries`` -> ``refine_report`` ->
``compute_memdep_summary`` -> ``certify_program`` (witness replay on),
with default budgets, no wall-clock budget and no shared summary cache,
so verdicts never depend on host speed.  Programs: the corpus drivers
(known verdicts), a few SPEC profiles at small scale (workload seed
mixed into their pinned seeds) and ``repro.fuzz`` generator programs
from ``case_seed(seed, i)``, every even index with planted secrets.
"""
from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from common import (CONFIG, Ledger, Outcome, exception_cause,
                    measure_import_setup, peak_rss_mb, percentile, share)
from tracer import (Tracer, agg_total, counted_certify, counter,
                    install_simulation_wrappers, simulation_layers,
                    wrap_function)
from sweeps import seeded_program

#: (name, program, secret words, expected verdict or None)
Case = Tuple[str, object, Tuple[int, ...], Optional[str]]


def build_cases(seed: int) -> List[Case]:
    from repro.analysis.corpus import (CORPUS_VARIANTS, GADGET_KINDS,
                                       build_corpus_variant,
                                       corpus_secret_words)
    from repro.fuzz.generator import (GeneratorConfig, case_seed,
                                      generate_program)

    cfg = CONFIG["workloads"]["certify"]
    cases: List[Case] = []
    for kind in GADGET_KINDS:
        for variant in CORPUS_VARIANTS:
            expect = "LEAKY" if variant == "unsafe" else "PROVED_SAFE"
            cases.append((f"corpus:{kind}:{variant}",
                          build_corpus_variant(kind, variant),
                          corpus_secret_words(), expect))
    for name in cfg["spec_profiles"]:
        cases.append((f"spec:{name}@{cfg['spec_scale']}",
                      seeded_program(name, seed, cfg["spec_scale"]), (),
                      None))
    for index in range(cfg["fuzz_programs"]):
        generated = generate_program(
            case_seed(seed, index),
            GeneratorConfig(secret=index % 2 == 0))
        cases.append((f"fuzz:{case_seed(seed, index)}", generated.program,
                      tuple(generated.secret_words), None))
    return cases


def ladder(case: Case, tracer: Optional[Tracer]):
    """One program through every tier; returns the CertifyResult."""
    from repro.analysis import (analyze_program, compute_memdep_summary,
                                certify_program, refine_report)
    from repro.analysis.summaries import compute_program_summaries
    from repro.analysis.taint import DEFAULT_WINDOW
    from repro.params import preset

    name, program, secrets, _expect = case

    def tier(span, fn, *args, **kwargs):
        if tracer is None:
            return fn(*args, **kwargs)
        return tracer.call(span, fn, *args, **kwargs)

    certify = certify_program if tracer is None \
        else counted_certify(tracer, certify_program)
    report = tier("analysis.taint", analyze_program, program, name=name)
    summaries = tier("analysis.summaries", compute_program_summaries,
                     program, window=DEFAULT_WINDOW)
    tier("analysis.valueset", refine_report, program, report,
         secret_words=secrets, summaries=summaries)
    tier("analysis.memdep", compute_memdep_summary, program,
         window=DEFAULT_WINDOW)
    return certify(program, secret_words=secrets, summaries=summaries,
                   replay=True, name=name,
                   machine=preset(CONFIG["workloads"]["certify"]
                                  ["replay_machine"]))


def check(case: Case, result, ledger: Ledger) -> None:
    _name, _program, _secrets, expect = case
    verdict = result.verdict.value
    if expect is not None and verdict != expect:
        ledger.fail("verdict_mismatch", wrong=True)
    elif verdict == "UNKNOWN":
        ledger.fail("unknown_verdict")
    elif expect == "LEAKY" and not any(
            leak.replay is not None and leak.replay.reproduced
            for leak in result.leaks):
        ledger.fail("replay_not_reproduced", wrong=True)
    else:
        ledger.ok()


def measure(cases: List[Case], tracer: Optional[Tracer], ledger: Ledger):
    """Run every case; returns (latencies in ms of the programs that
    went through the ladder, wall seconds)."""
    latencies: List[float] = []
    started = time.perf_counter()
    for case in cases:
        begin = time.perf_counter()
        try:
            result = ladder(case, tracer)
        except Exception as exc:  # noqa: BLE001 - a failed program is data
            ledger.fail(exception_cause(exc))
            continue
        latencies.append((time.perf_counter() - begin) * 1000.0)
        check(case, result, ledger)
    return latencies, time.perf_counter() - started


def e2e_metrics(latencies, wall, setup_s) -> Dict[str, float]:
    return {
        "throughput_per_s": len(latencies) / wall,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_tail_ms": percentile(
            latencies, CONFIG["workloads"]["certify"]["tail_pct"]),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    tables = tracer.snapshot()
    replay = agg_total(tables, "analysis.replay")
    metrics = simulation_layers(tables, {})
    metrics.update({
        "analysis.taint_s": agg_total(tables, "analysis.taint"),
        "analysis.summaries_s": agg_total(tables, "analysis.summaries"),
        "analysis.valueset_s": agg_total(tables, "analysis.valueset"),
        "analysis.memdep_s": agg_total(tables, "analysis.memdep"),
        "analysis.symx_s": agg_total(tables, "analysis.symx") - replay,
        "analysis.replay_s": replay,
        "symx.paths": counter(tables, "symx.paths"),
        "symx.steps": counter(tables, "symx.steps"),
        "symx.merged_paths": counter(tables, "symx.merged_paths"),
        "solver.models_tried": counter(tables, "solver.models_tried"),
        "solver.model_yield": share(counter(tables, "solver.models_found"),
                                    counter(tables, "solver.models_tried")),
        "analysis.unknown_share": share(counter(tables, "symx.unknown"),
                                        counter(tables, "symx.calls")),
    })
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    del workload, seconds  # fixed program list, sized in workloads.json
    setup_s = measure_import_setup(
        ["repro.analysis", "repro.analysis.summaries", "repro.fuzz.generator"],
        repeats=CONFIG["setup_repeats"])
    cases = build_cases(seed)
    ledger = Ledger()
    latencies, wall = measure(cases, None, ledger)
    outcome = Outcome(ledger, e2e_metrics(latencies, wall, setup_s), notes=[
        f"certify: {len(cases)} programs ({len(latencies)} through the "
        f"ladder) in {wall:.2f}s, seed {seed}"])
    if trace:
        tracer = Tracer()
        install_simulation_wrappers(tracer)
        # Witness replay, under the name certify_program calls it by.
        wrap_function(tracer, "repro.analysis.symx", "replay_witness",
                      "analysis.replay")
        latencies, wall = measure(cases, tracer, ledger)
        outcome.layers = layer_metrics(tracer)
        outcome.traced_e2e = e2e_metrics(latencies, wall, setup_s)
    return outcome
