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
- ``bench``    - simulate one SPEC profile under the paper's four
  modes and compare each against ``origin``.
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

Each subcommand is one row of :data:`COMMANDS`: its name, help,
arguments and driver.  An argument several subcommands take is one
:class:`Arg`, declared once with its type and validation; a row may
change only its default or help.  A driver returns its exit status and
the document ``--json`` writes, and only :func:`main` writes it,
through :func:`repro.documents.write_json`.  Each experiment driver
calls its ``run_*`` function in :mod:`repro.experiments` directly;
every (SPEC profile x defense) grid runs through one
:class:`~repro.experiments.runner.SweepEngine`.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from .analysis.symx import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_PATHS,
    DEFAULT_MAX_STEPS,
)
from .attacks import ATTACKS, run_attack
from .attacks.layout import AttackLayout
from .attacks.sidechannel import (
    EvictReloadChannel,
    EvictTimeChannel,
    FlushFlushChannel,
    FlushReloadChannel,
    PrimeProbeChannel,
)
from .core.defense import (
    DEFENSE_ALIASES,
    PAPER_DEFENSES,
    defense_names,
    normalize_defense_name,
)
from .core.policy import SecurityConfig
from .documents import write_json
from .errors import ConfigError
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
from .params import PRESETS, RunOptions, preset
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

#: A driver's result: its exit status and the document ``--json``
#: writes (``None`` when there is nothing to write).
Outcome = Tuple[int, Optional[Dict[str, Any]]]


# -- argument types: each validates at the parser, so a bad value is a
# -- usage error (exit 2) before any work starts -----------------------


def _positive(kind: Callable[[str], Any]) -> Callable[[str], Any]:
    """A ``kind`` number greater than zero.  The rule of serve's
    :class:`~repro.serve.protocol.Budgets`: a count, budget, window or
    scale of zero or less is refused, never run."""
    def parse(text: str) -> Any:
        value = kind(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(
                f"must be positive, got {text}")
        return value

    parse.__name__ = f"positive {kind.__name__}"
    return parse


def _defense(text: str) -> str:
    """A registered defense name or alias, as its registry name."""
    try:
        return normalize_defense_name(text)
    except ConfigError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _benchmark(text: str) -> str:
    """A SPEC-like profile name."""
    if text not in spec_names():
        raise argparse.ArgumentTypeError(
            f"unknown benchmark {text!r}; choose from "
            f"{', '.join(spec_names())}")
    return text


def _address(text: str) -> str:
    """A word address (``0x`` accepted), kept as typed."""
    try:
        int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a word address: {text!r}") from None
    return text


@dataclass(frozen=True)
class Arg:
    """One argument: its flag (or positional name) and the argparse
    keywords that type and validate it."""

    flags: Tuple[str, ...]
    options: Mapping[str, Any]

    def but(self, **changes: Any) -> "Arg":
        """This argument with another default and/or help string."""
        assert set(changes) <= {"default", "help"}, changes
        return Arg(self.flags, {**self.options, **changes})


def _arg(*flags: str, **options: Any) -> Arg:
    return Arg(flags, options)


@dataclass(frozen=True)
class Command:
    """One row of the command table: a subcommand and its driver, or
    (``fuzz``) a group of subcommands."""

    name: str
    help: str
    args: Tuple[Arg, ...] = ()
    driver: Optional[Callable[[argparse.Namespace], Outcome]] = None
    subcommands: Tuple["Command", ...] = ()


def _given(args: argparse.Namespace, *names: str) -> Dict[str, Any]:
    """The named flags the user gave, as keywords; an omitted one
    (``None``) leaves the callee's own default in force."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _cmd_run(args: argparse.Namespace) -> Outcome:
    with open(args.program) as handle:
        program = assemble(handle.read())
    tracer = PipelineTracer() if args.trace else None
    cpu = Processor(program, machine=preset(args.machine),
                    security=SecurityConfig(args.mode), tracer=tracer)
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
    return 0 if report.halted else 1, None


def _load_analysis_program(spec: str, secret: Optional[List[str]]):
    """Resolve a program argument (an assembly file path, or
    ``corpus:<kind>[:<variant>]`` naming a built-in gadget driver) and
    its secret words: ``--secret`` when given, else a corpus program's
    layout secret.  Returns ``(program, secret_words)``."""
    if spec.startswith("corpus:"):
        from .analysis.corpus import corpus_secret_words, corpus_spec_program

        program = corpus_spec_program(spec)
        layout_secrets = tuple(corpus_secret_words())
    else:
        with open(spec) as handle:
            program = assemble(handle.read())
        layout_secrets = ()
    if secret:
        return program, tuple(int(word, 0) for word in secret)
    return program, layout_secrets


def _cmd_analyze(args: argparse.Namespace) -> Outcome:
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
        program, secrets = _load_analysis_program(args.program, args.secret)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2, None
    window = args.window or DEFAULT_WINDOW
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
                return 1, None
        if not synthesis.clean:
            return 1, None
        if args.certify and not synthesis.certified:
            return 1, None
    certified = None
    if args.certify:
        certified = certify_program(
            program, secret_words=secrets, window=window,
            name=args.program, summaries=summaries,
            **_given(args, "max_paths"),
        )
        print()
        print(certified.render())
    document = None
    if args.json:
        certificates = (finding_certificates(certified, report)
                        if certified is not None else None)
        memdep_blocks = None
        if report.findings:
            from .analysis.memdep import (
                compute_memdep_summary,
                finding_memdep_block,
            )

            memdep_summary = compute_memdep_summary(
                program, window=window, summaries=summaries)
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
    if args.verify:
        validation = cross_validate(
            program, machine=preset(args.machine),
            security=SecurityConfig(args.mode), name=args.program,
            max_cycles=args.max_cycles,
        )
        print()
        print(validation.render())
        if not validation.covered:
            return 1, document
    if args.fail_on_findings:
        surviving = refined.confirmed if refined is not None \
            else report.findings
        if surviving:
            return 1, document
    if certified is not None:
        if certified.verdict is Verdict.UNKNOWN:
            return 1, document
        if any(leak.replay is not None and not leak.replay.reproduced
               for leak in certified.leaks):
            return 1, document
    return 0, document


def _cmd_certify(args: argparse.Namespace) -> Outcome:
    from .analysis import Verdict, certify_program

    machine = preset(args.machine)
    exit_code = 0
    results = []
    for spec in args.programs:
        try:
            program, secrets = _load_analysis_program(spec, args.secret)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2, None
        result = certify_program(
            program,
            secret_words=secrets,
            replay=not args.no_replay,
            machine=machine,
            name=spec,
            **_given(args, "window", "max_depth", "max_paths", "max_steps"),
        )
        print(result.render())
        results.append(result.to_dict())
        if result.verdict is Verdict.UNKNOWN:
            exit_code = 1
        elif result.verdict is Verdict.LEAKY:
            if any(leak.replay is not None and not leak.replay.reproduced
                   for leak in result.leaks):
                exit_code = 1
            if args.fail_on_leak:
                exit_code = 1
    return exit_code, {"results": results}


def _cmd_attack(args: argparse.Namespace) -> Outcome:
    layout = AttackLayout.same_page() if args.same_page else None
    machine = preset(args.machine)
    kwargs = {"layout": layout, "machine": machine}
    if args.variant != "prime":
        kwargs["channel"] = _CHANNELS[args.channel]()
    attack = ATTACKS[args.variant](**kwargs)
    result = run_attack(attack, machine=machine,
                        security=SecurityConfig(args.mode))
    print(result.render())
    print(f"timings: {result.timings}")
    return 0, None


def _cmd_bench(args: argparse.Namespace) -> Outcome:
    name = args.benchmark
    reports = SweepEngine(benchmarks=[name], machine=preset(args.machine),
                          scale=args.scale).run().reports()[name]
    print(compare_table(list(reports.values()), reports["origin"]))
    return 0, None


def _cmd_sweep(args: argparse.Namespace) -> Outcome:
    from .robustness import FaultPlan

    fault_plan = None
    if args.inject:
        fault_plan = FaultPlan.moderate(seed=args.fault_seed)
    engine = SweepEngine(
        benchmarks=args.benchmarks or None,
        modes=args.modes or list(PAPER_DEFENSES),
        machine=preset(args.machine),
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
    return 0 if not result.failures else 1, None


def _cmd_shootout(args: argparse.Namespace) -> Outcome:
    from .experiments.shootout import print_progress, \
        run_defense_shootout

    result = run_defense_shootout(
        defenses=args.defenses or None,
        attacks=args.attacks or None,
        benchmarks=args.benchmarks or None,
        machine=preset(args.machine),
        scale=args.scale,
        trials=args.trials,
        evolve=not args.no_evolve,
        evolve_generations=args.generations,
        seed=args.seed,
        progress=None if args.quiet else print_progress,
    )
    print(result.render())
    return 0, result.to_dict()


def _cmd_prescreen(args: argparse.Namespace) -> Outcome:
    result = run_defense_prescreen(
        machine=preset(args.machine),
        defenses=args.defenses or None,
        attacks=args.attacks or None,
        dynamic=not args.static_only,
        trials=args.trials,
        seed=args.seed,
        **_given(args, "window"),
    )
    print(result.render())
    code = 0 if args.static_only or result.validated else 1
    return code, result.to_dict()


def _cmd_fence(args: argparse.Namespace) -> Outcome:
    result = run_fence_study(
        machine=preset(args.machine),
        benchmarks=args.benchmarks or None,
        scale=args.scale,
        window=args.window,
        max_cycles=args.max_cycles,
    )
    print(result.render())
    return 0, result.to_dict()


def _cmd_precision(args: argparse.Namespace) -> Outcome:
    result = run_precision_study(
        machine=preset(args.machine),
        benchmarks=args.benchmarks or None,
        scale=args.scale,
        replay=not args.no_replay,
        **_given(args, "window", "max_paths", "max_steps"),
    )
    print(result.render())
    return 0, result.to_dict()


def _cmd_figure5(args: argparse.Namespace) -> Outcome:
    result = run_figure5(benchmarks=args.benchmarks or None,
                         scale=args.scale,
                         checkpoint=args.checkpoint,
                         resume=args.resume,
                         workers=args.workers)
    print(result.render())
    return 0, result.to_dict()


def _cmd_table4(args: argparse.Namespace) -> Outcome:
    result = run_table4()
    print(result.render())
    return 0 if result.all_match_paper() else 1, None


def _cmd_table5(args: argparse.Namespace) -> Outcome:
    result = run_table5(benchmarks=args.benchmarks or None,
                        scale=args.scale,
                        checkpoint=args.checkpoint,
                        resume=args.resume,
                        workers=args.workers)
    print(result.render())
    return 0, result.to_dict()


def _cmd_table6(args: argparse.Namespace) -> Outcome:
    result = run_table6(benchmarks=args.benchmarks or None,
                        scale=args.scale)
    print(result.render())
    return 0, result.to_dict()


def _cmd_lru(args: argparse.Namespace) -> Outcome:
    result = run_lru_study(benchmarks=args.benchmarks or None,
                           scale=args.scale)
    print(result.render())
    return 0, None


def _cmd_area(args: argparse.Namespace) -> Outcome:
    print(render_area_study(run_area_study()))
    return 0, None


def _fuzz_generator_config(args: argparse.Namespace,
                           secret: bool) -> "object":
    from .fuzz import GeneratorConfig
    if secret:
        return GeneratorConfig(secret=True, length=args.length or 20,
                               loops=False)
    if args.length:
        return GeneratorConfig(length=args.length)
    return GeneratorConfig()


def _cmd_fuzz_diff(args: argparse.Namespace) -> Outcome:
    from pathlib import Path

    from .fuzz import (ALL_MODES, case_seed, differential_check,
                       generate_program, run_diff_campaign)
    modes = tuple(args.modes) if args.modes else ALL_MODES
    config = _fuzz_generator_config(args, secret=False)
    machine = preset(args.machine)
    if args.only is not None:
        seed = case_seed(args.seed, args.only)
        generated = generate_program(seed, config)  # type: ignore[arg-type]
        outcome = differential_check(generated.program, modes=modes,
                                     machine=machine)
        print(f"case {args.only} (seed {seed!r}):")
        print(outcome.render())
        return 0 if outcome.clean else 1, None
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
    return 0 if result.clean else 1, result.to_dict()


def _cmd_fuzz_certify(args: argparse.Namespace) -> Outcome:
    from pathlib import Path

    from .fuzz import (case_seed, certify_agreement, generate_program,
                       run_certify_campaign)
    config = _fuzz_generator_config(args, secret=True)
    machine = preset(args.machine)
    if args.only is not None:
        seed = case_seed(args.seed, args.only)
        generated = generate_program(seed, config)  # type: ignore[arg-type]
        outcome = certify_agreement(
            generated.program, generated.secret_words, machine=machine)
        print(f"case {args.only} (seed {seed!r}):")
        if outcome is None:
            print("invalid program (dynamic run did not halt)")
            return 0, None
        for line in outcome.to_dict().items():
            print(f"  {line[0]}: {line[1]}")
        return 0 if outcome.clean else 1, None
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
    return 0 if result.clean else 1, result.to_dict()


def _cmd_fuzz_evolve(args: argparse.Namespace) -> Outcome:
    from pathlib import Path

    from .fuzz import ingest_survivors, run_evolve_campaign
    result, survivors = run_evolve_campaign(
        args.seed,
        modes=tuple(args.modes) if args.modes else PAPER_DEFENSES,
        generated_seeds=args.generated_seeds,
        generations=args.generations,
        population=args.population,
        offspring=args.offspring,
        machine=preset(args.machine),
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
    return 0, result.to_dict()


def _cmd_serve(args: argparse.Namespace) -> Outcome:
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
    return 0, None


# -- arguments several subcommands share, each declared once ----------

_DEFENSE_CHOICES = [*defense_names(), *DEFENSE_ALIASES]

PROGRAM = _arg("program", help="assembly source file, or "
               "corpus:<kind>[:<variant>] for a built-in gadget driver")
MACHINE = _arg("--machine", default="paper", choices=list(PRESETS),
               help="machine preset (default: %(default)s)")
MODE = _arg("--mode", default="cache_hit_tpbuf", type=_defense,
            choices=_DEFENSE_CHOICES,
            help="defense (registered name or alias)")
MODES = _arg("--modes", nargs="*", default=None, type=_defense,
             choices=_DEFENSE_CHOICES,
             help="defenses (default: the paper's four modes; any "
                  "registered name or alias works)")
DEFENSES = _arg("--defenses", nargs="*", default=None, type=_defense,
                choices=_DEFENSE_CHOICES,
                help="defense subset (default: the whole zoo)")
ATTACK_SUBSET = _arg("--attacks", nargs="*", default=None,
                     choices=list(ATTACKS),
                     help="attack subset (default: all five)")
BENCHMARKS = _arg("benchmarks", nargs="*", type=_benchmark,
                  help="SPEC-like benchmark subset (default: all)")
SCALE = _arg("--scale", type=_positive(float), default=1.0,
             help="SPEC workload scale (default %(default)s)")
WINDOW = _arg("--window", type=_positive(int), default=None,
              help="speculation window in instructions (default: the "
                   "analysis default, ~ROB size)")
MAX_DEPTH = _arg("--max-depth", type=_positive(int), default=None,
                 help=f"nested misprediction depth "
                      f"(default {DEFAULT_MAX_DEPTH})")
MAX_PATHS = _arg("--max-paths", type=_positive(int), default=None,
                 help=f"symbolic path budget (default "
                      f"{DEFAULT_MAX_PATHS}; exhaustion degrades to "
                      f"UNKNOWN)")
MAX_STEPS = _arg("--max-steps", type=_positive(int), default=None,
                 help=f"symbolic step budget (default "
                      f"{DEFAULT_MAX_STEPS})")
MAX_CYCLES = _arg("--max-cycles", type=_positive(int), default=2_000_000,
                  help="simulated-cycle budget (default %(default)s)")
SECRET = _arg("--secret", action="append", default=None, type=_address,
              metavar="ADDR",
              help="word address holding a secret (may repeat; accepts "
                   "0x...; corpus programs default to their layout's "
                   "secret)")
NO_REPLAY = _arg("--no-replay", action="store_true",
                 help="skip replaying witnesses on the dynamic pipeline")
CHECKPOINT = _arg("--checkpoint", default=None,
                  help="JSONL checkpoint file: finished work is durably "
                       "recorded as it completes")
RESUME = _arg("--resume", action="store_true",
              help="skip work already in --checkpoint")
WORKERS = _arg("--workers", type=_positive(int), default=1,
               help="process-pool size; >1 fans independent runs "
                    "across cores (default %(default)s)")
TRIALS = _arg("--trials", type=_positive(int), default=1,
              help="secrets swept per attack (default %(default)s)")
GENERATIONS = _arg("--generations", type=_positive(int), default=4,
                   help="evolve generations (default %(default)s)")
SEED = _arg("--seed", default="fuzz",
            help="RNG seed (default: %(default)s)")
JSON = _arg("--json", default=None,
            help="also write the result as JSON")
COUNT = _arg("--count", type=_positive(int), default=500,
             help="programs to generate (default %(default)s)")

#: The flags of every fuzz campaign, then those of the two that
#: checkpoint (``diff`` and ``certify``).
_FUZZ = (
    SEED.but(help="campaign master seed (default: fuzz)"),
    _arg("--length", type=_positive(int), default=None,
         help="generated program body length"),
    _arg("--pin-dir", default=None,
         help="write FuzzCase files for disagreements here "
              "(e.g. tests/data/fuzz_regressions)"),
    JSON, MACHINE.but(default="tiny"))
_FUZZ_CAMPAIGN = (
    CHECKPOINT,
    _arg("--no-resume", action="store_true",
         help="restart even if --checkpoint matches"),
    _arg("--no-minimize", action="store_true",
         help="pin disagreements unminimized"),
    _arg("--only", type=int, default=None,
         help="replay one case index and exit"))

_CORPUS_INCLUDED = ("SPEC-like benchmark subset (default: all; the "
                    "gadget corpus is always included)")

COMMANDS: Tuple[Command, ...] = (
    Command("run", "assemble and simulate a program", (
        PROGRAM.but(help="assembly source file"), MAX_CYCLES,
        _arg("--regs", action="store_true",
             help="dump non-zero registers"),
        _arg("--trace", action="store_true",
             help="print a pipeline trace"),
        _arg("--trace-last", type=_positive(int), default=40,
             help="trace records to print (default 40)"),
        MACHINE, MODE), _cmd_run),
    Command("analyze", "statically scan a program for Spectre gadgets", (
        PROGRAM, WINDOW, JSON,
        _arg("--refine", action="store_true",
             help="apply value-set refinement: refute findings whose "
                  "speculative loads are provably in-bounds"),
        _arg("--fix", action="store_true",
             help="synthesize a minimal fence placement for the "
                  "confirmed findings and verify it (implies --refine)"),
        _arg("--certify", action="store_true",
             help="run the symbolic speculative-noninterference "
                  "certifier; attaches a per-finding certificate to "
                  "--json and (with --fix) proves the fenced image"),
        MAX_PATHS, SECRET,
        _arg("--verify", action="store_true",
             help="simulate the program and cross-check static "
                  "coverage of the dynamic security dependences"),
        _arg("--fail-on-findings", action="store_true",
             help="exit non-zero when gadgets survive (confirmed "
                  "findings under --refine; lint mode)"),
        MAX_CYCLES, MACHINE, MODE), _cmd_analyze),
    Command("certify", "symbolically certify programs speculatively "
            "noninterferent, or refute them with replayed witnesses", (
                _arg("programs", nargs="+",
                     help="assembly files or corpus:<kind>[:<variant>] "
                          "specs"),
                WINDOW, MAX_DEPTH, MAX_PATHS, MAX_STEPS, NO_REPLAY,
                SECRET,
                _arg("--fail-on-leak", action="store_true",
                     help="exit non-zero on LEAKY verdicts too (lint "
                          "mode)"),
                JSON, MACHINE), _cmd_certify),
    Command("attack", "run a Spectre PoC", (
        _arg("variant", choices=sorted(ATTACKS)),
        _arg("--channel", default="flush+reload", choices=sorted(_CHANNELS)),
        _arg("--same-page", action="store_true",
             help="same-page transmit layout (non-shared scenario; "
                  "evades the TPBuf)"),
        MACHINE, MODE), _cmd_attack),
    Command("fence", "fence overhead study: unsafe vs fence-all vs "
            "synthesized fences vs the hardware filters", (
                BENCHMARKS.but(help=_CORPUS_INCLUDED),
                SCALE.but(default=0.3),
                WINDOW.but(help="speculation window in instructions "
                                "(default: the machine's ROB size)"),
                MAX_CYCLES, JSON, MACHINE), _cmd_fence),
    Command("precision", "static precision study: taint vs +valueset vs "
            "+symx over the corpus + SPEC-like workloads", (
                BENCHMARKS.but(help=_CORPUS_INCLUDED),
                SCALE.but(default=0.1), WINDOW, MAX_PATHS, MAX_STEPS,
                NO_REPLAY, JSON, MACHINE), _cmd_precision),
    Command("bench", "simulate one SPEC profile under the paper's four "
            "modes", (
                _arg("benchmark", type=_benchmark,
                     help="the SPEC-like benchmark to simulate"),
                SCALE, MACHINE), _cmd_bench),
    Command("sweep", "checkpointed benchmark x mode sweep (crash-safe, "
            "resumable, optional fault injection)", (
                BENCHMARKS, MODES, SCALE,
                MAX_CYCLES.but(default=None,
                               help="simulated-cycle budget per run "
                                    "(default: the runner's)"),
                _arg("--wall-clock-budget", type=_positive(float),
                     default=None,
                     help="per-run wall-clock budget in seconds"),
                CHECKPOINT, RESUME, WORKERS,
                _arg("--inject", action="store_true",
                     help="run under seeded fault injection"),
                _arg("--fault-seed", type=int, default=0,
                     help="fault-injection seed (default 0)"),
                MACHINE), _cmd_sweep),
    Command("shootout", "defense zoo shootout: attack suite x SPEC "
            "overhead x area frontier over every registered defense "
            "(docs/defenses.md)", (
                BENCHMARKS,
                DEFENSES.but(help="defense subset (default: the whole "
                                  "zoo; origin is always included)"),
                ATTACK_SUBSET, SCALE.but(default=0.05),
                TRIALS.but(default=3),
                _arg("--no-evolve", action="store_true",
                     help="skip the adversarial evolve leg"),
                GENERATIONS, SEED.but(default="shootout"),
                _arg("--quiet", action="store_true",
                     help="suppress per-leg progress on stderr"),
                JSON, MACHINE), _cmd_shootout),
    Command("prescreen", "static defense-coverage pre-screen: predict the "
            "attack x defense matrix and cross-validate it against the "
            "dynamic shootout (docs/analysis.md)", (
                DEFENSES, ATTACK_SUBSET, WINDOW,
                _arg("--static-only", action="store_true",
                     help="skip the dynamic cross-validation leg"),
                TRIALS, SEED.but(default="prescreen"), JSON, MACHINE),
            _cmd_prescreen),
    Command("fuzz", "adversarial fuzzing: differential, "
            "certifier-agreement and gadget-evolution campaigns "
            "(docs/fuzzing.md)", subcommands=(
                Command("diff", "OoO-vs-oracle differential + round-trip "
                        "sweep", (
                            *_FUZZ, COUNT,
                            MODES.but(help="defenses (default: every "
                                           "registered defense)"),
                            *_FUZZ_CAMPAIGN), _cmd_fuzz_diff),
                Command("certify", "symx verdict vs dynamic two-secret "
                        "reality sweep", (
                            *_FUZZ, COUNT.but(default=100),
                            *_FUZZ_CAMPAIGN), _cmd_fuzz_certify),
                Command("evolve", "evolve gadget variants against each "
                        "defense mode; verified survivors extend the "
                        "analysis corpus", (
                            *_FUZZ, MODES,
                            _arg("--generated-seeds", type=int, default=2,
                                 help="leaky generated seed programs "
                                      "(default 2)"),
                            GENERATIONS.but(default=6),
                            _arg("--population", type=_positive(int),
                                 default=5),
                            _arg("--offspring", type=_positive(int),
                                 default=3)), _cmd_fuzz_evolve),
            )),
    Command("serve", "run the analysis-as-a-service daemon (HTTP/JSON "
            "job queue with tiered graceful degradation; see "
            "docs/serving.md)", (
                _arg("--host", default="127.0.0.1"),
                _arg("--port", type=int, default=8377,
                     help="listen port (0 = ephemeral; default 8377)"),
                WORKERS.but(default=4,
                            help="analysis worker threads (default 4)"),
                _arg("--queue-depth", type=_positive(int), default=64,
                     help="background-job queue bound; submissions "
                          "beyond it are shed with 429 (default 64)"),
                _arg("--rate", type=_positive(float), default=50.0,
                     help="per-client admission rate, requests/s "
                          "(default 50)"),
                _arg("--burst", type=_positive(float), default=100.0,
                     help="per-client burst allowance (default 100)"),
                CHECKPOINT.but(help="JSONL job journal for crash-safe "
                                    "restart/resume (default: ephemeral)"),
                MACHINE.but(default="tiny",
                            help="machine preset for simulate jobs "
                                 "(default: tiny)"),
                _arg("--wall-clock", type=_positive(float), default=20.0,
                     help="default per-job wall-clock budget in seconds "
                          "(default 20)"),
                _arg("--drain-grace", type=float, default=30.0,
                     help="seconds a SIGTERM drain waits before "
                          "cancelling in-flight jobs (default 30)")),
            _cmd_serve),
    Command("figure5", "regenerate figure5", (
        SCALE, BENCHMARKS, JSON, CHECKPOINT, RESUME, WORKERS),
        _cmd_figure5),
    Command("table4", "regenerate table4", driver=_cmd_table4),
    Command("table5", "regenerate table5", (
        SCALE, BENCHMARKS, JSON, CHECKPOINT, RESUME, WORKERS),
        _cmd_table5),
    Command("table6", "regenerate table6", (SCALE, BENCHMARKS, JSON),
            _cmd_table6),
    Command("lru", "regenerate lru", (SCALE, BENCHMARKS), _cmd_lru),
    Command("area", "regenerate area", driver=_cmd_area),
)


def _add_commands(parser: argparse.ArgumentParser, dest: str,
                  commands: Tuple[Command, ...]) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for command in commands:
        child = sub.add_parser(command.name, help=command.help)
        for arg in command.args:
            child.add_argument(*arg.flags, **arg.options)
        if command.subcommands:
            _add_commands(child, f"{command.name}_command",
                          command.subcommands)
        else:
            child.set_defaults(driver=command.driver)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Conditional Speculation (HPCA 2019) reproduction",
    )
    _add_commands(parser, "command", COMMANDS)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand; returns its exit status (2 on a usage
    error, which argparse has already printed)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    code, document = args.driver(args)
    if document is not None and getattr(args, "json", None):
        write_json(args.json, document)
        print(f"wrote {args.json}")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
