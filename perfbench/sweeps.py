"""``sweep-stall`` and ``sweep-dense``: a ``SweepEngine`` over SPEC
profiles x every registered defense.

A run makes a fixed number of whole sweeps (passes), so every run does
the same work whatever the host's speed.  Every row of every pass
simulates its own seed variant of its profile (see ``row_seed``); at
the default seed, pass 0 keeps each profile's pinned seed under every
defense.  Rows run through the engine's own ``run_fn`` hook, which
builds the seeded profile, simulates it and captures the final
architectural state; in a traced run the same hook installs the layer
wrappers inside each worker.  Each pass is checked between passes,
outside the timed region, and then reduced to the few figures the
metrics need.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import resource
import time
from array import array
from typing import Dict, List, Optional

from common import (CONFIG, DEFAULT_SEED, HERE, Ledger, Outcome,
                    measure_import_setup, mix_seed, peak_rss_mb, percentile,
                    share)
from tracer import (Tracer, install_simulation_wrappers, merge_tables,
                    report_totals, simulation_layers)

REFERENCE = os.path.join(HERE, "reference.json")

#: This process's row tracer (a sweep worker traces its own rows).
_ROW_TRACER: Optional[Tracer] = None


def seeded_program(label: str, seed: int, scale: float, defense: str = ""):
    """The SPEC profile of ``label`` (``name`` or ``name#variant``) with
    the workload seed, the variant and the defense name mixed into its
    pinned ``SyntheticSpec.seed``.  The seed moves a profile's
    instruction interleaving and data, and with them its IPC by up to
    2x, so every row samples its own program and a run's figures
    average over many."""
    from repro.workloads.spec2006 import spec_spec
    from repro.workloads.synthetic import build_workload

    name, _, variant = label.partition("#")
    spec = spec_spec(name)
    spec = dataclasses.replace(
        spec, seed=mix_seed(spec.seed, seed, int(variant or 0), defense))
    return build_workload(spec, scale=scale)


def run_row(label: str, *, machine=None, security=None, scale: float = 1.0,
            options=None, seed: int, trace: bool):
    """``SweepEngine`` run_fn: simulate one (profile variant, defense)
    row.

    Besides the report it hands back, as plain picklable data, the
    final registers, the committed memory image with its page table
    (compared against the in-order oracle after the timed region),
    this worker's peak RSS and, when tracing, the row's span tables.
    """
    global _ROW_TRACER
    from repro.pipeline.processor import Processor

    if trace and _ROW_TRACER is None:
        _ROW_TRACER = Tracer()
        install_simulation_wrappers(_ROW_TRACER)
    program = seeded_program(label, seed, scale, security.defense_name)
    cpu = Processor(program, machine=machine, security=security,
                    options=options)
    report = cpu.run()
    report.name = label
    report.perfbench = {
        "registers": [cpu.arch_reg(index) for index in range(32)],
        # Flat (paddr, value) pairs: a tenth of a dict's footprint.
        "memory": array("Q", itertools.chain.from_iterable(
            cpu.memory_image.items())),
        "pages": cpu.page_table,
        "pid": os.getpid(),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": _ROW_TRACER.drain() if trace else None,
    }
    return report


def state_mismatch(captured: Dict[str, object], oracle) -> str:
    """First difference between a row's final state and the oracle's,
    or "" when registers and every memory word agree."""
    registers = captured["registers"]
    for index in range(1, 32):
        if registers[index] != oracle.registers[index]:
            return f"r{index}"
    pages = captured["pages"]
    flat = captured["memory"]
    memory = dict(zip(flat[0::2], flat[1::2]))
    shift = pages.page_shift
    for vaddr in oracle.memory:
        ppn = pages.lookup(vaddr >> shift)
        paddr = -1 if ppn is None else \
            ((ppn << shift) | (vaddr & (pages.page_bytes - 1))) & ~7
        if memory.get(paddr, 0) != oracle.mem(vaddr):
            return f"mem {vaddr:#x}"
    if len(memory) != len(oracle.memory):
        return f"{len(memory)} words written, oracle {len(oracle.memory)}"
    return ""


def load_reference(workload: str) -> Dict[str, List[int]]:
    with open(REFERENCE) as handle:
        return json.load(handle)[workload]


def check_row(row, oracle, reference: Optional[Dict[str, List[int]]],
              ledger: Ledger) -> None:
    key = f"{row.benchmark}/{row.defense_name}"
    if not row.ok:
        ledger.fail(f"row_failed:{row.error_type}")
        return
    if row.termination != "halt" or not row.report.halted:
        ledger.fail(f"not_halted:{row.termination}")
        return
    if state_mismatch(row.report.perfbench, oracle):
        ledger.fail("arch_state_mismatch", wrong=True)
        return
    if reference is not None \
            and reference.get(key) != [row.cycles, row.committed]:
        ledger.fail("cycles_or_committed_mismatch", wrong=True)
        return
    ledger.ok()


def finished(rows) -> list:
    """Rows whose simulation returned a report (failed rows carry none)."""
    return [row for row in rows if row.report is not None]


def summarize_pass(rows, wall: float, first_row: float) -> Dict[str, object]:
    """The figures the metrics need from one checked pass."""
    done = finished(rows)
    workers: Dict[int, float] = {}
    tables = ({}, {})
    for row in done:
        info = row.report.perfbench
        workers[info["pid"]] = max(workers.get(info["pid"], 0),
                                   info["rss_kb"])
        if info["trace"] is not None:
            merge_tables(tables, info["trace"])
    host_s: Dict[str, float] = {}
    for row in rows:
        host_s[row.defense_name] = host_s.get(row.defense_name, 0.0) \
            + row.duration_s
    return {
        "wall": wall,
        "first_row": first_row,
        "durations_ms": [row.duration_s * 1000.0 for row in rows],
        "committed": sum(row.committed for row in rows),
        "retries": sum(row.attempts - 1 for row in rows),
        "workers_rss_kb": sum(workers.values()),
        "host_s": host_s,
        "tables": tables,
        "totals": report_totals([row.report for row in done]),
    }


def sweep_passes(workload: str, seed: int, trace: bool, check=None
                 ) -> List[Dict[str, object]]:
    """The workload's fixed passes, variant ``k`` in pass ``k``.
    ``check`` sees each pass's rows right after the pass, outside the
    timed region; only the pass's summary is kept."""
    from repro.core.defense import defense_names
    from repro.experiments.runner import SweepEngine
    from repro.params import preset

    cfg = CONFIG["workloads"][workload]
    run_fn = functools.partial(run_row, seed=seed, trace=trace)
    passes = []
    for variant in range(cfg["passes"]):
        first: List[float] = []
        begin = time.perf_counter()
        engine = SweepEngine(
            benchmarks=[f"{name}#{variant}" for name in cfg["profiles"]],
            modes=defense_names(), scale=cfg["scale"],
            machine=preset(cfg["machine"]), workers=cfg["workers"],
            run_fn=run_fn)
        rows = engine.run(
            progress=lambda _row: first.append(time.perf_counter())).rows
        wall = time.perf_counter() - begin
        if check is not None:
            check(rows)
        passes.append(summarize_pass(rows, wall, first[0] - begin))
    return passes


def e2e_metrics(passes, setup_s: float, workers: int,
                tail_pct: float) -> Dict[str, float]:
    """Throughput over the whole run; row latencies over every row."""
    durations = [ms for one in passes for ms in one["durations_ms"]]
    # A serial sweep runs in this process: its rows add nothing.
    workers_kb = max(one["workers_rss_kb"] for one in passes) \
        if workers > 1 else 0.0
    return {
        "throughput_per_s": sum(one["committed"] for one in passes)
        / sum(one["wall"] for one in passes),
        "latency_p50_ms": percentile(durations, 50),
        "latency_tail_ms": percentile(durations, tail_pct),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(workers_kb),
    }


def layer_metrics(passes, workers: int) -> Dict[str, float]:
    from repro.core.defense import defense_names

    tables = ({}, {})
    totals: Dict[str, float] = {}
    for one in passes:
        merge_tables(tables, one["tables"])
        for name, value in one["totals"].items():
            totals[name] = totals.get(name, 0) + value
    wall = sum(one["wall"] for one in passes)
    busy = sum(ms for one in passes for ms in one["durations_ms"]) / 1000.0
    metrics = simulation_layers(tables, totals)
    metrics.update({
        "sweep.task_busy_s": busy,
        "sweep.first_row_s":
            sorted(one["first_row"] for one in passes)[len(passes) // 2],
        "sweep.parallel_efficiency": share(busy, wall * workers),
        "sweep.retries": sum(one["retries"] for one in passes),
    })
    for name in defense_names():
        metrics[f"defense.{name}.host_s"] = sum(
            one["host_s"].get(name, 0.0) for one in passes)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    del seconds  # fixed passes, sized in workloads.json
    cfg = CONFIG["workloads"][workload]
    setup_s = measure_import_setup(
        ["repro.experiments.runner", "repro.perf.parallel"],
        repeats=CONFIG["setup_repeats"])
    from repro.isa.oracle import run_oracle

    reference = load_reference(workload) if seed == DEFAULT_SEED else None
    ledger = Ledger()

    def check(rows) -> None:
        for row in rows:
            oracle = run_oracle(
                seeded_program(row.benchmark, seed, cfg["scale"],
                               row.defense_name),
                max_instructions=10_000_000)
            check_row(row, oracle, reference, ledger)

    passes = sweep_passes(workload, seed, trace=False, check=check)
    e2e = e2e_metrics(passes, setup_s, cfg["workers"], cfg["tail_pct"])
    outcome = Outcome(ledger, e2e, notes=[
        f"{workload}: {len(passes)} passes x "
        f"{len(passes[0]['durations_ms'])} rows, seed {seed}"])
    if trace:
        traced = sweep_passes(workload, seed, trace=True, check=check)
        outcome.layers = layer_metrics(traced, cfg["workers"])
        outcome.traced_e2e = e2e_metrics(traced, setup_s, cfg["workers"],
                                         cfg["tail_pct"])
    return outcome


def write_reference(seed: int) -> Dict[str, Dict[str, List[int]]]:
    """Per-row (cycles, committed) of every pass of each sweep workload
    at ``seed``: the pin later changes must not move."""
    out: Dict[str, Dict[str, List[int]]] = {}

    def pin(workload: str):
        def record(rows) -> None:
            out[workload].update(
                {f"{row.benchmark}/{row.defense_name}":
                 [row.cycles, row.committed] for row in rows})
        return record

    for workload in ("sweep-stall", "sweep-dense"):
        out[workload] = {}
        sweep_passes(workload, seed, trace=False, check=pin(workload))
    return out
