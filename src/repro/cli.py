"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run``      - assemble and simulate a program file.
- ``analyze``  - statically scan a program for Spectre gadgets;
  ``--refine`` applies value-set refutation, ``--fix`` synthesizes a
  minimal fence placement and verifies it, ``--certify`` runs the
  symbolic speculative-noninterference certifier and attaches a
  per-finding certificate.  Programs are either assembly files or
  ``corpus:<kind>[:<variant>]`` specs naming a built-in gadget driver
  (e.g. ``corpus:v1:masked``).
- ``certify``  - symbolically certify programs speculatively
  noninterferent (``PROVED_SAFE``) or refute them with a concrete
  witness replayed on the unsafe pipeline (``LEAKY``); budget
  exhaustion degrades to ``UNKNOWN`` and a non-zero exit.
- ``attack``   - run a Spectre PoC under a protection mode.
- ``bench``    - simulate a SPEC profile under one or all modes, or
  (``--suite``) run the performance harness: simulated-instructions/sec
  plus serial-vs-parallel sweep wall-clock, written to
  ``BENCH_sweep.json``.
- ``sweep``    - checkpointed benchmark x mode sweep with ``--resume``
  and optional fault injection (``--inject``).
- ``fence``    - fence overhead study: unsafe vs fence-all vs
  synthesized fences vs the hardware filters.
- ``prescreen`` - static defense-coverage pre-screen: predict the
  (attack x defense) blocked/leaky matrix from wiring flags plus
  memdep/taint facts, cross-validated cell-by-cell against the
  dynamic shootout (``--static-only`` skips the dynamic leg).
- ``precision`` - static precision study: taint vs +valueset vs
  +symx over the corpus and SPEC-like workloads.
- ``fuzz``     - adversarial validation campaigns (``diff`` /
  ``certify`` / ``evolve``): seeded random programs differentially
  checked against the in-order oracle, symx verdicts cross-checked
  against dynamic two-secret replay, and gadget variants evolved
  against each defense mode.  See ``docs/fuzzing.md``.
- ``figure5`` / ``table4`` / ``table5`` / ``table6`` / ``lru`` /
  ``area``   - regenerate a paper artifact.

Each experiment subcommand calls its ``run_*`` driver in
:mod:`repro.experiments` directly.  Every (SPEC profile x defense)
grid runs through one :class:`~repro.experiments.runner.SweepEngine`;
sweeping commands accept ``--workers N`` to fan independent
simulations across a process pool.
"""
from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .attacks import ATTACKS, run_attack
from .attacks.layout import AttackLayout
from .attacks.sidechannel import (
    EvictReloadChannel,
    EvictTimeChannel,
    FlushFlushChannel,
    FlushReloadChannel,
    PrimeProbeChannel,
)
from .core.defense import PAPER_DEFENSES
from .core.policy import SecurityConfig
from .experiments import (
    SweepEngine,
    run_area_study,
    run_defense_prescreen,
    run_fence_study,
    run_figure5,
    run_lru_study,
    run_precision_study,
    run_table4,
    run_table5,
    run_table6,
)
from .experiments.area_study import render_area_study
from .isa import assemble
from .config_io import load_machine
from .params import RunOptions, preset
from .pipeline.processor import Processor
from .pipeline.report import compare_table
from .pipeline.trace import PipelineTracer
from .workloads import spec_names

_CHANNELS = {
    "flush+reload": FlushReloadChannel,
    "flush+flush": FlushFlushChannel,
    "evict+reload": EvictReloadChannel,
    "prime+probe": PrimeProbeChannel,
    "evict+time": EvictTimeChannel,
}


def _security(mode_name: str) -> SecurityConfig:
    return SecurityConfig(mode_name)


def _mode_choices() -> List[str]:
    """Every registered defense name plus its accepted aliases."""
    from .core.defense import DEFENSE_ALIASES, defense_names
    return [*defense_names(), *DEFENSE_ALIASES]


def _add_machine_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--machine", default="paper",
                        choices=["paper", "a57-like", "i7-like",
                                 "xeon-like", "tiny"],
                        help="machine preset (default: paper)")
    parser.add_argument("--machine-file", default=None,
                        help="JSON machine description (overrides "
                             "--machine; see repro.config_io)")


def _machine(args: argparse.Namespace):
    if getattr(args, "machine_file", None):
        return load_machine(args.machine_file, base=preset(args.machine))
    return preset(args.machine)


def _add_mode_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", default="cache_hit_tpbuf",
                        choices=_mode_choices(),
                        help="defense (registered name or alias)")


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.program) as handle:
        program = assemble(handle.read())
    tracer = PipelineTracer() if args.trace else None
    cpu = Processor(program, machine=_machine(args),
                    security=_security(args.mode), tracer=tracer)
    report = cpu.run(max_cycles=args.max_cycles)
    print(report.render())
    if args.regs:
        for reg in range(32):
            value = cpu.arch_reg(reg)
            if value:
                print(f"  r{reg} = {value:#x} ({value})")
    if tracer is not None:
        print()
        print(tracer.render(last=args.trace_last))
    return 0 if report.halted else 1


def _load_analysis_program(spec: str):
    """Resolve a program argument: an assembly file path, or
    ``corpus:<kind>[:<variant>]`` naming a built-in gadget driver.
    Returns ``(program, default_secret_words)``."""
    if spec.startswith("corpus:"):
        from .analysis.corpus import corpus_secret_words, corpus_spec_program

        return corpus_spec_program(spec), corpus_secret_words()
    with open(spec) as handle:
        return assemble(handle.read()), ()


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import (
        DEFAULT_WINDOW,
        Verdict,
        analyze_program,
        certify_program,
        cross_validate,
        finding_certificates,
        oracle_equivalent,
        refine_report,
        synthesize_fences,
        uses_rdcycle,
    )

    try:
        program, default_secrets = _load_analysis_program(args.program)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    secrets = tuple(int(word, 0) for word in args.secret) \
        if args.secret else tuple(default_secrets)
    window = args.window if args.window is not None else DEFAULT_WINDOW
    report = analyze_program(program, window=window, name=args.program)
    print(report.render())
    summaries = None
    if args.refine or args.fix or args.certify:
        from .analysis.summaries import summarize_program

        summaries = summarize_program(program, window=window)
    refined = None
    if args.refine or args.fix:
        refined = refine_report(program, report, secret_words=secrets,
                                summaries=summaries)
        print()
        print(refined.render())
    synthesis = None
    if args.fix:
        synthesis = synthesize_fences(
            program, window=window, secret_words=secrets,
            certify=args.certify, name=args.program,
        )
        print()
        print(synthesis.render())
        if uses_rdcycle(program):
            print("  oracle equivalence: skipped (program uses RDCYCLE)")
        else:
            matches = oracle_equivalent(program, synthesis.rewrite)
            print(f"  oracle equivalence: "
                  f"{'OK' if matches else 'MISMATCH'}")
            if not matches:
                return 1
        if not synthesis.clean:
            return 1
        if args.certify and not synthesis.certified:
            return 1
    certified = None
    if args.certify:
        from .analysis.symx import DEFAULT_MAX_PATHS

        certified = certify_program(
            program, secret_words=secrets, window=window,
            max_paths=(args.max_paths if args.max_paths is not None
                       else DEFAULT_MAX_PATHS),
            name=args.program,
            summaries=summaries,
        )
        print()
        print(certified.render())
    if args.json:
        import json

        certificates = (finding_certificates(certified, report)
                        if certified is not None else None)
        memdep_blocks = None
        if report.findings:
            from .analysis.memdep import (
                compute_memdep_summary,
                finding_memdep_block,
            )

            memdep_summary = compute_memdep_summary(program,
                                                    window=window)
            memdep_blocks = {}
            for finding in report.findings:
                block = finding_memdep_block(memdep_summary, finding)
                if block["may_bypass"] or block["disjoint"]:
                    memdep_blocks[finding.sink_pc] = block
        document = report.to_dict(certificates=certificates,
                                  memdep=memdep_blocks)
        if refined is not None:
            document["refinement"] = refined.to_dict()
        if synthesis is not None:
            document["fence_synthesis"] = synthesis.to_dict()
        if certified is not None:
            document["certify"] = certified.to_dict()
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2)
        print(f"wrote {args.json}")
    if args.verify:
        validation = cross_validate(
            program, machine=_machine(args), security=_security(args.mode),
            name=args.program, max_cycles=args.max_cycles,
        )
        print()
        print(validation.render())
        if not validation.covered:
            return 1
    if args.fail_on_findings:
        surviving = refined.confirmed if refined is not None \
            else report.findings
        if surviving:
            return 1
    if certified is not None:
        if certified.verdict is Verdict.UNKNOWN:
            return 1
        if any(leak.replay is not None and not leak.replay.reproduced
               for leak in certified.leaks):
            return 1
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    from .analysis import DEFAULT_WINDOW, Verdict, certify_program
    from .analysis.symx import (
        DEFAULT_MAX_DEPTH,
        DEFAULT_MAX_PATHS,
        DEFAULT_MAX_STEPS,
    )

    machine = _machine(args)
    window = args.window if args.window is not None else DEFAULT_WINDOW
    max_depth = (args.max_depth if args.max_depth is not None
                 else DEFAULT_MAX_DEPTH)
    max_paths = (args.max_paths if args.max_paths is not None
                 else DEFAULT_MAX_PATHS)
    max_steps = (args.max_steps if args.max_steps is not None
                 else DEFAULT_MAX_STEPS)
    exit_code = 0
    documents = []
    for spec in args.programs:
        try:
            program, default_secrets = _load_analysis_program(spec)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        secrets = tuple(int(word, 0) for word in args.secret) \
            if args.secret else tuple(default_secrets)
        result = certify_program(
            program,
            secret_words=secrets,
            window=window,
            max_depth=max_depth,
            max_paths=max_paths,
            max_steps=max_steps,
            replay=not args.no_replay,
            machine=machine,
            name=spec,
        )
        print(result.render())
        documents.append(result.to_dict())
        if result.verdict is Verdict.UNKNOWN:
            exit_code = 1
        elif result.verdict is Verdict.LEAKY:
            if any(leak.replay is not None and not leak.replay.reproduced
                   for leak in result.leaks):
                exit_code = 1
            if args.fail_on_leak:
                exit_code = 1
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump({"results": documents}, handle, indent=2)
        print(f"wrote {args.json}")
    return exit_code


def _cmd_attack(args: argparse.Namespace) -> int:
    layout = AttackLayout.same_page() if args.same_page else None
    machine = _machine(args)
    kwargs = {"layout": layout, "machine": machine}
    if args.variant != "prime":
        kwargs["channel"] = _CHANNELS[args.channel]()
    attack = ATTACKS[args.variant](**kwargs)
    result = run_attack(attack, machine=machine,
                        security=_security(args.mode))
    print(result.render())
    print(f"timings: {result.timings}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    machine = _machine(args)
    unknown = [name for name in args.benchmarks
               if name not in spec_names()]
    if unknown:
        print(f"unknown benchmark(s) {', '.join(unknown)}; "
              f"choose from {', '.join(spec_names())}", file=sys.stderr)
        return 2
    if args.suite:
        from .perf.bench import run_bench, write_bench_json

        result = run_bench(
            benchmarks=args.benchmarks or None, machine=machine,
            scale=args.scale, workers=args.workers,
            parallel=not args.serial_only,
        )
        print(result.render())
        if args.out:
            write_bench_json(result, args.out)
            print(f"wrote {args.out}")
        return 0
    if len(args.benchmarks) != 1:
        print("bench: give exactly one benchmark, or --suite",
              file=sys.stderr)
        return 2
    name = args.benchmarks[0]
    reports = SweepEngine(benchmarks=[name], machine=machine,
                          scale=args.scale).run().reports()[name]
    print(compare_table(list(reports.values()), reports["origin"]))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .robustness import FaultPlan

    machine = _machine(args)
    modes = list(args.modes) if args.modes else list(PAPER_DEFENSES)
    fault_plan = None
    if args.inject:
        fault_plan = FaultPlan.moderate(seed=args.fault_seed)
    engine = SweepEngine(
        benchmarks=args.benchmarks or None,
        modes=modes,
        machine=machine,
        scale=args.scale,
        checkpoint=args.checkpoint,
        resume=args.resume,
        workers=args.workers,
        options=RunOptions(max_cycles=args.max_cycles,
                           wall_clock_budget=args.wall_clock_budget,
                           fault_plan=fault_plan),
    )
    result = engine.run(
        progress=lambda row: print(
            f"  {row.benchmark}/{row.mode}: {row.status} "
            f"({row.cycles} cycles)",
            file=sys.stderr,
        )
    )
    print(result.render())
    return 0 if not result.failures else 1


def _cmd_shootout(args: argparse.Namespace) -> int:
    from .experiments.shootout import print_progress, \
        run_defense_shootout

    result = run_defense_shootout(
        defenses=args.defenses or None,
        attacks=args.attacks or None,
        benchmarks=args.benchmarks or None,
        machine=_machine(args),
        scale=args.scale,
        trials=args.trials,
        evolve=not args.no_evolve,
        evolve_generations=args.generations,
        seed=args.seed,
        progress=None if args.quiet else print_progress,
    )
    print(result.render())
    _write_json(args.json, result.to_dict())
    return 0


def _cmd_prescreen(args: argparse.Namespace) -> int:
    from .analysis.taint import DEFAULT_WINDOW
    from .core.defense import normalize_defense_name

    result = run_defense_prescreen(
        machine=_machine(args),
        defenses=([normalize_defense_name(d) for d in args.defenses]
                  if args.defenses else None),
        attacks=args.attacks or None,
        window=args.window if args.window is not None else DEFAULT_WINDOW,
        dynamic=not args.static_only,
        trials=args.trials,
        seed=args.seed,
    )
    print(result.render())
    _write_json(args.json, result.to_dict())
    if args.static_only:
        return 0
    return 0 if result.validated else 1


def _cmd_fence(args: argparse.Namespace) -> int:
    result = run_fence_study(
        machine=_machine(args),
        benchmarks=args.benchmarks or None,
        scale=args.scale,
        window=args.window,
        max_cycles=args.max_cycles,
    )
    print(result.render())
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_precision(args: argparse.Namespace) -> int:
    from .analysis.symx import DEFAULT_MAX_PATHS, DEFAULT_MAX_STEPS

    result = run_precision_study(
        machine=_machine(args),
        benchmarks=args.benchmarks or None,
        scale=args.scale,
        window=args.window,
        max_paths=(args.max_paths if args.max_paths is not None
                   else DEFAULT_MAX_PATHS),
        max_steps=(args.max_steps if args.max_steps is not None
                   else DEFAULT_MAX_STEPS),
        replay=not args.no_replay,
    )
    print(result.render())
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_figure5(args: argparse.Namespace) -> int:
    result = run_figure5(benchmarks=args.benchmarks or None,
                         scale=args.scale,
                         checkpoint=args.checkpoint,
                         resume=args.resume,
                         workers=args.workers)
    print(result.render())
    if args.json:
        from .experiments.export import dump_json, figure5_to_dict
        dump_json(figure5_to_dict(result), args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_table4(args: argparse.Namespace) -> int:
    result = run_table4()
    print(result.render())
    return 0 if result.all_match_paper() else 1


def _cmd_table5(args: argparse.Namespace) -> int:
    result = run_table5(benchmarks=args.benchmarks or None,
                        scale=args.scale,
                        checkpoint=args.checkpoint,
                        resume=args.resume,
                        workers=args.workers)
    print(result.render())
    if args.json:
        from .experiments.export import dump_json, table5_to_dict
        dump_json(table5_to_dict(result), args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_table6(args: argparse.Namespace) -> int:
    result = run_table6(benchmarks=args.benchmarks or None,
                        scale=args.scale)
    print(result.render())
    if args.json:
        from .experiments.export import dump_json, table6_to_dict
        dump_json(table6_to_dict(result), args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_lru(args: argparse.Namespace) -> int:
    result = run_lru_study(benchmarks=args.benchmarks or None,
                           scale=args.scale)
    print(result.render())
    return 0


def _cmd_area(args: argparse.Namespace) -> int:
    print(render_area_study(run_area_study()))
    return 0


def _fuzz_generator_config(args: argparse.Namespace,
                           secret: bool) -> "object":
    from .fuzz import GeneratorConfig
    if secret:
        return GeneratorConfig(secret=True, length=args.length or 20,
                               loops=False)
    if args.length:
        return GeneratorConfig(length=args.length)
    return GeneratorConfig()


def _write_json(path: Optional[str], payload: object) -> None:
    if not path:
        return
    import json
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _cmd_fuzz_diff(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .core.defense import normalize_defense_name
    from .fuzz import (ALL_MODES, case_seed, differential_check,
                       generate_program, run_diff_campaign)
    modes = tuple(normalize_defense_name(m) for m in args.modes) \
        if args.modes else ALL_MODES
    config = _fuzz_generator_config(args, secret=False)
    machine = _machine(args)
    if args.only is not None:
        seed = case_seed(args.seed, args.only)
        generated = generate_program(seed, config)  # type: ignore[arg-type]
        outcome = differential_check(generated.program, modes=modes,
                                     machine=machine)
        print(f"case {args.only} (seed {seed!r}):")
        print(outcome.render())
        return 0 if outcome.clean else 1
    result = run_diff_campaign(
        args.seed, args.count,
        config=config,  # type: ignore[arg-type]
        modes=modes, machine=machine,
        checkpoint=Path(args.checkpoint) if args.checkpoint else None,
        resume=not args.no_resume,
        minimize=not args.no_minimize,
        regressions=Path(args.pin_dir) if args.pin_dir else None,
        progress=print,
    )
    print(f"diff campaign {args.seed!r}: {result.cases} programs, "
          f"{result.invalid} invalid, {result.resumed} resumed, "
          f"{result.disagreements} mismatch(es) "
          f"[{result.duration_s:.1f}s]")
    _write_json(args.json, result.to_dict())
    return 0 if result.clean else 1


def _cmd_fuzz_certify(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .fuzz import (case_seed, certify_agreement, generate_program,
                       run_certify_campaign)
    config = _fuzz_generator_config(args, secret=True)
    machine = _machine(args)
    if args.only is not None:
        seed = case_seed(args.seed, args.only)
        generated = generate_program(seed, config)  # type: ignore[arg-type]
        outcome = certify_agreement(
            generated.program, generated.secret_words, machine=machine)
        print(f"case {args.only} (seed {seed!r}):")
        if outcome is None:
            print("invalid program (dynamic run did not halt)")
            return 0
        for line in outcome.to_dict().items():
            print(f"  {line[0]}: {line[1]}")
        return 0 if outcome.clean else 1
    result = run_certify_campaign(
        args.seed, args.count,
        config=config,  # type: ignore[arg-type]
        machine=machine,
        checkpoint=Path(args.checkpoint) if args.checkpoint else None,
        resume=not args.no_resume,
        minimize=not args.no_minimize,
        regressions=Path(args.pin_dir) if args.pin_dir else None,
        progress=print,
    )
    verdicts = ", ".join(f"{k}={v}"
                         for k, v in sorted(result.verdicts.items()))
    print(f"certify campaign {args.seed!r}: {result.cases} programs "
          f"({verdicts}), {result.explained} explained, "
          f"{result.disagreements} disagreement(s) "
          f"[{result.duration_s:.1f}s]")
    _write_json(args.json, result.to_dict())
    return 0 if result.clean else 1


def _cmd_fuzz_evolve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .core.defense import normalize_defense_name
    from .fuzz import ingest_survivors, run_evolve_campaign
    modes = tuple(normalize_defense_name(m) for m in args.modes) \
        if args.modes else PAPER_DEFENSES
    result, survivors = run_evolve_campaign(
        args.seed,
        modes=modes,
        generated_seeds=args.generated_seeds,
        generations=args.generations,
        population=args.population,
        offspring=args.offspring,
        machine=_machine(args),
        regressions=Path(args.pin_dir) if args.pin_dir else None,
        progress=print,
    )
    print(f"evolve campaign {args.seed!r}: {result.cases} "
          f"(seed x mode) runs, {len(survivors)} verified "
          f"survivor(s) [{result.duration_s:.1f}s]")
    if survivors:
        ingest_survivors(survivors)
        precision = run_precision_study(benchmarks=[])
        print("precision over the extended corpus "
              f"({len(precision.rows)} cases):")
        print(precision.render())
    _write_json(args.json, result.to_dict())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        rate=args.rate,
        burst=args.burst,
        checkpoint=args.checkpoint,
        machine=args.machine,
        default_wall_clock=args.wall_clock,
        drain_grace=args.drain_grace,
    )
    try:
        asyncio.run(run_server(config))
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Conditional Speculation (HPCA 2019) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="assemble and simulate a program")
    p_run.add_argument("program", help="assembly source file")
    p_run.add_argument("--max-cycles", type=int, default=2_000_000)
    p_run.add_argument("--regs", action="store_true",
                       help="dump non-zero registers")
    p_run.add_argument("--trace", action="store_true",
                       help="print a pipeline trace")
    p_run.add_argument("--trace-last", type=int, default=40,
                       help="trace records to print (default 40)")
    _add_machine_arg(p_run)
    _add_mode_arg(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_analyze = sub.add_parser(
        "analyze",
        help="statically scan a program for Spectre gadgets",
    )
    p_analyze.add_argument("program",
                           help="assembly source file, or "
                                "corpus:<kind>[:<variant>] for a "
                                "built-in gadget driver")
    p_analyze.add_argument("--window", type=int, default=None,
                           help="speculation window in instructions "
                                "(default: analysis default, ~ROB size)")
    p_analyze.add_argument("--json", default=None,
                           help="also write the findings as JSON")
    p_analyze.add_argument("--refine", action="store_true",
                           help="apply value-set refinement: refute "
                                "findings whose speculative loads are "
                                "provably in-bounds")
    p_analyze.add_argument("--fix", action="store_true",
                           help="synthesize a minimal fence placement "
                                "for the confirmed findings and verify "
                                "it (implies --refine)")
    p_analyze.add_argument("--certify", action="store_true",
                           help="run the symbolic speculative-"
                                "noninterference certifier; attaches a "
                                "per-finding certificate to --json and "
                                "(with --fix) proves the fenced image")
    p_analyze.add_argument("--max-paths", type=int, default=None,
                           help="symbolic path budget for --certify "
                                "(exhaustion degrades to UNKNOWN)")
    p_analyze.add_argument("--secret", action="append", default=None,
                           metavar="ADDR",
                           help="word address holding a secret (may "
                                "repeat; accepts 0x...; corpus "
                                "programs default to their layout's "
                                "secret)")
    p_analyze.add_argument("--verify", action="store_true",
                           help="simulate the program and cross-check "
                                "static coverage of the dynamic "
                                "security dependences")
    p_analyze.add_argument("--fail-on-findings", action="store_true",
                           help="exit non-zero when gadgets survive "
                                "(confirmed findings under --refine; "
                                "lint mode)")
    p_analyze.add_argument("--max-cycles", type=int, default=2_000_000)
    _add_machine_arg(p_analyze)
    _add_mode_arg(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_certify = sub.add_parser(
        "certify",
        help="symbolically certify programs speculatively "
             "noninterferent, or refute them with replayed witnesses",
    )
    p_certify.add_argument("programs", nargs="+",
                           help="assembly files or corpus:<kind>"
                                "[:<variant>] specs")
    p_certify.add_argument("--window", type=int, default=None,
                           help="speculation window in instructions "
                                "(default: analysis default)")
    p_certify.add_argument("--max-depth", type=int, default=None,
                           help="nested misprediction depth (default 2)")
    p_certify.add_argument("--max-paths", type=int, default=None,
                           help="symbolic path budget (exhaustion "
                                "degrades to UNKNOWN, exit 1)")
    p_certify.add_argument("--max-steps", type=int, default=None,
                           help="symbolic step budget")
    p_certify.add_argument("--no-replay", action="store_true",
                           help="skip replaying witnesses on the "
                                "dynamic pipeline")
    p_certify.add_argument("--secret", action="append", default=None,
                           metavar="ADDR",
                           help="word address holding a secret (may "
                                "repeat; corpus programs default to "
                                "their layout's secret)")
    p_certify.add_argument("--fail-on-leak", action="store_true",
                           help="exit non-zero on LEAKY verdicts too "
                                "(lint mode)")
    p_certify.add_argument("--json", default=None,
                           help="write all certification results as "
                                "JSON")
    _add_machine_arg(p_certify)
    p_certify.set_defaults(func=_cmd_certify)

    p_attack = sub.add_parser("attack", help="run a Spectre PoC")
    p_attack.add_argument("variant", choices=sorted(ATTACKS))
    p_attack.add_argument("--channel", default="flush+reload",
                          choices=sorted(_CHANNELS))
    p_attack.add_argument("--same-page", action="store_true",
                          help="same-page transmit layout (non-shared "
                               "scenario; evades the TPBuf)")
    _add_machine_arg(p_attack)
    _add_mode_arg(p_attack)
    p_attack.set_defaults(func=_cmd_attack)

    p_fence = sub.add_parser(
        "fence",
        help="fence overhead study: unsafe vs fence-all vs synthesized "
             "fences vs the hardware filters",
    )
    p_fence.add_argument("benchmarks", nargs="*",
                         help="SPEC-like benchmark subset (default: all; "
                              "the gadget corpus is always included)")
    p_fence.add_argument("--scale", type=float, default=0.3,
                         help="SPEC workload scale (default 0.3)")
    p_fence.add_argument("--window", type=int, default=None,
                         help="speculation window (default: ROB size)")
    p_fence.add_argument("--max-cycles", type=int, default=2_000_000)
    p_fence.add_argument("--json", default=None,
                         help="also write the study table as JSON")
    _add_machine_arg(p_fence)
    p_fence.set_defaults(func=_cmd_fence)

    p_precision = sub.add_parser(
        "precision",
        help="static precision study: taint vs +valueset vs +symx "
             "over the corpus + SPEC-like workloads",
    )
    p_precision.add_argument(
        "benchmarks", nargs="*",
        help="SPEC-like benchmark subset (default: all; the gadget "
             "corpus is always included)")
    p_precision.add_argument("--scale", type=float, default=0.1,
                             help="SPEC workload scale (default 0.1)")
    p_precision.add_argument("--window", type=int, default=None,
                             help="speculation window "
                                  "(default: analysis default)")
    p_precision.add_argument("--max-paths", type=int, default=None,
                             help="certifier path budget")
    p_precision.add_argument("--max-steps", type=int, default=None,
                             help="certifier step budget")
    p_precision.add_argument("--no-replay", action="store_true",
                             help="skip dynamic witness replay")
    p_precision.add_argument("--json", default=None,
                             help="also write the study table as JSON")
    _add_machine_arg(p_precision)
    p_precision.set_defaults(func=_cmd_precision)

    p_bench = sub.add_parser(
        "bench",
        help="simulate one SPEC profile, or --suite for the "
             "performance harness (BENCH_sweep.json)",
    )
    p_bench.add_argument("benchmarks", nargs="*",
                         help="one benchmark, or a subset with --suite "
                              "(default with --suite: all)")
    p_bench.add_argument("--scale", type=float, default=1.0)
    p_bench.add_argument("--suite", action="store_true",
                         help="run the sweep benchmark harness: "
                              "simulated-instructions/sec and "
                              "serial-vs-parallel wall-clock")
    p_bench.add_argument("--workers", type=int, default=None,
                         help="process-pool size for the parallel pass "
                              "(default: one per CPU, minimum 2)")
    p_bench.add_argument("--serial-only", action="store_true",
                         help="skip the parallel pass (throughput only)")
    p_bench.add_argument("--out", default=None, metavar="JSON",
                         help="write the harness result "
                              "(e.g. BENCH_sweep.json)")
    _add_machine_arg(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_sweep = sub.add_parser(
        "sweep",
        help="checkpointed benchmark x mode sweep (crash-safe, "
             "resumable, optional fault injection)",
    )
    p_sweep.add_argument("benchmarks", nargs="*",
                         help="benchmark subset (default: all)")
    p_sweep.add_argument("--modes", nargs="*", default=None,
                         choices=_mode_choices(),
                         help="defenses (default: the paper's four "
                              "modes; any registered zoo name works)")
    p_sweep.add_argument("--scale", type=float, default=1.0)
    p_sweep.add_argument("--max-cycles", type=int, default=None)
    p_sweep.add_argument("--wall-clock-budget", type=float, default=None,
                         help="per-run wall-clock budget in seconds")
    p_sweep.add_argument("--checkpoint", default=None,
                         help="JSONL checkpoint file; completed "
                              "(benchmark, mode) pairs are durably "
                              "recorded as they finish")
    p_sweep.add_argument("--resume", action="store_true",
                         help="skip pairs already in --checkpoint")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="process-pool size; >1 fans independent "
                              "runs across cores (default 1)")
    p_sweep.add_argument("--inject", action="store_true",
                         help="run under seeded fault injection")
    p_sweep.add_argument("--fault-seed", type=int, default=0,
                         help="fault-injection seed (default 0)")
    _add_machine_arg(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_shoot = sub.add_parser(
        "shootout",
        help="defense zoo shootout: attack suite x SPEC overhead x "
             "area frontier over every registered defense "
             "(docs/defenses.md)",
    )
    p_shoot.add_argument("benchmarks", nargs="*",
                         help="SPEC subset (default: all profiles)")
    p_shoot.add_argument("--defenses", nargs="*", default=None,
                         choices=_mode_choices(),
                         help="defense subset (default: whole zoo; "
                              "origin is always included)")
    p_shoot.add_argument("--attacks", nargs="*", default=None,
                         choices=list(ATTACKS),
                         help="attack subset (default: all five)")
    p_shoot.add_argument("--scale", type=float, default=0.05,
                         help="SPEC profile scale (default 0.05)")
    p_shoot.add_argument("--trials", type=int, default=3,
                         help="secrets swept per attack (default 3)")
    p_shoot.add_argument("--no-evolve", action="store_true",
                         help="skip the adversarial evolve leg")
    p_shoot.add_argument("--generations", type=int, default=4,
                         help="evolve generations (default 4)")
    p_shoot.add_argument("--seed", default="shootout",
                         help="evolve RNG seed (default: shootout)")
    p_shoot.add_argument("--quiet", action="store_true",
                         help="suppress per-leg progress on stderr")
    p_shoot.add_argument("--json", default=None,
                         help="write the frontier as JSON")
    _add_machine_arg(p_shoot)
    p_shoot.set_defaults(func=_cmd_shootout)

    p_pre = sub.add_parser(
        "prescreen",
        help="static defense-coverage pre-screen: predict the attack x "
             "defense matrix and cross-validate it against the "
             "dynamic shootout (docs/analysis.md)",
    )
    p_pre.add_argument("--defenses", nargs="*", default=None,
                       choices=_mode_choices(),
                       help="defense subset (default: whole zoo)")
    p_pre.add_argument("--attacks", nargs="*", default=None,
                       choices=list(ATTACKS),
                       help="attack subset (default: all five)")
    p_pre.add_argument("--window", type=int, default=None,
                       help="speculation window for the static passes "
                            "(default: analysis default)")
    p_pre.add_argument("--static-only", action="store_true",
                       help="skip the dynamic cross-validation leg")
    p_pre.add_argument("--trials", type=int, default=1,
                       help="secrets swept per dynamic attack "
                            "(default 1)")
    p_pre.add_argument("--seed", default="prescreen",
                       help="dynamic-leg RNG seed (default: prescreen)")
    p_pre.add_argument("--json", default=None,
                       help="write matrix + validation as JSON")
    _add_machine_arg(p_pre)
    p_pre.set_defaults(func=_cmd_prescreen)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="adversarial fuzzing: differential, certifier-agreement "
             "and gadget-evolution campaigns (docs/fuzzing.md)",
    )
    fuzz_sub = p_fuzz.add_subparsers(dest="fuzz_command", required=True)

    def _fuzz_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", default="fuzz",
                       help="campaign master seed (default: fuzz)")
        p.add_argument("--length", type=int, default=None,
                       help="generated program body length")
        p.add_argument("--pin-dir", default=None,
                       help="write FuzzCase files for disagreements "
                            "here (e.g. tests/data/fuzz_regressions)")
        p.add_argument("--json", default=None,
                       help="write the campaign summary as JSON")
        p.add_argument("--machine", default="tiny",
                       choices=["paper", "a57-like", "i7-like",
                                "xeon-like", "tiny"],
                       help="machine preset (default: tiny)")
        p.add_argument("--machine-file", default=None,
                       help="JSON machine description")

    p_fdiff = fuzz_sub.add_parser(
        "diff", help="OoO-vs-oracle differential + round-trip sweep")
    _fuzz_common(p_fdiff)
    p_fdiff.add_argument("--count", type=int, default=500,
                         help="programs to generate (default 500)")
    p_fdiff.add_argument("--modes", nargs="*", default=None,
                         choices=_mode_choices(),
                         help="defenses (default: every registered "
                              "defense)")
    p_fdiff.add_argument("--checkpoint", default=None,
                         help="JSONL campaign checkpoint")
    p_fdiff.add_argument("--no-resume", action="store_true",
                         help="restart even if --checkpoint matches")
    p_fdiff.add_argument("--no-minimize", action="store_true",
                         help="pin disagreements unminimized")
    p_fdiff.add_argument("--only", type=int, default=None,
                         help="replay one case index and exit")
    p_fdiff.set_defaults(func=_cmd_fuzz_diff)

    p_fcert = fuzz_sub.add_parser(
        "certify",
        help="symx verdict vs dynamic two-secret reality sweep")
    _fuzz_common(p_fcert)
    p_fcert.add_argument("--count", type=int, default=100,
                         help="programs to generate (default 100)")
    p_fcert.add_argument("--checkpoint", default=None,
                         help="JSONL campaign checkpoint")
    p_fcert.add_argument("--no-resume", action="store_true",
                         help="restart even if --checkpoint matches")
    p_fcert.add_argument("--no-minimize", action="store_true",
                         help="pin disagreements unminimized")
    p_fcert.add_argument("--only", type=int, default=None,
                         help="replay one case index and exit")
    p_fcert.set_defaults(func=_cmd_fuzz_certify)

    p_fev = fuzz_sub.add_parser(
        "evolve",
        help="evolve gadget variants against each defense mode; "
             "verified survivors extend the analysis corpus")
    _fuzz_common(p_fev)
    p_fev.add_argument("--modes", nargs="*", default=None,
                       choices=_mode_choices(),
                       help="defenses (default: the paper's four "
                            "modes)")
    p_fev.add_argument("--generated-seeds", type=int, default=2,
                       help="leaky generated seed programs (default 2)")
    p_fev.add_argument("--generations", type=int, default=6)
    p_fev.add_argument("--population", type=int, default=5)
    p_fev.add_argument("--offspring", type=int, default=3)
    p_fev.set_defaults(func=_cmd_fuzz_evolve)

    p_serve = sub.add_parser(
        "serve",
        help="run the analysis-as-a-service daemon (HTTP/JSON job "
             "queue with tiered graceful degradation; see "
             "docs/serving.md)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8377,
                         help="listen port (0 = ephemeral; default 8377)")
    p_serve.add_argument("--workers", type=int, default=4,
                         help="analysis worker threads (default 4)")
    p_serve.add_argument("--queue-depth", type=int, default=64,
                         help="background-job queue bound; submissions "
                              "beyond it are shed with 429 (default 64)")
    p_serve.add_argument("--rate", type=float, default=50.0,
                         help="per-client admission rate, requests/s "
                              "(default 50)")
    p_serve.add_argument("--burst", type=float, default=100.0,
                         help="per-client burst allowance (default 100)")
    p_serve.add_argument("--checkpoint", default=None,
                         help="JSONL job journal for crash-safe "
                              "restart/resume (default: ephemeral)")
    p_serve.add_argument("--machine", default="tiny",
                         choices=["paper", "a57-like", "i7-like",
                                  "xeon-like", "tiny"],
                         help="machine preset for simulate jobs "
                              "(default: tiny)")
    p_serve.add_argument("--wall-clock", type=float, default=20.0,
                         help="default per-job wall-clock budget in "
                              "seconds (default 20)")
    p_serve.add_argument("--drain-grace", type=float, default=30.0,
                         help="seconds a SIGTERM drain waits before "
                              "cancelling in-flight jobs (default 30)")
    p_serve.set_defaults(func=_cmd_serve)

    for name, func, with_scale in [
        ("figure5", _cmd_figure5, True),
        ("table4", _cmd_table4, False),
        ("table5", _cmd_table5, True),
        ("table6", _cmd_table6, True),
        ("lru", _cmd_lru, True),
        ("area", _cmd_area, False),
    ]:
        p_exp = sub.add_parser(name, help=f"regenerate {name}")
        if with_scale:
            p_exp.add_argument("--scale", type=float, default=1.0)
            p_exp.add_argument("benchmarks", nargs="*",
                               help="benchmark subset (default: all)")
        if name in ("figure5", "table5", "table6"):
            p_exp.add_argument("--json", default=None,
                               help="also write the result as JSON")
        if name in ("figure5", "table5"):
            p_exp.add_argument("--checkpoint", default=None,
                               help="JSONL checkpoint file for "
                                    "crash-safe regeneration")
            p_exp.add_argument("--resume", action="store_true",
                               help="skip runs already in --checkpoint")
            p_exp.add_argument("--workers", type=int, default=1,
                               help="process-pool size (default 1)")
        p_exp.set_defaults(func=func)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
