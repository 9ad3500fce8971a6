"""In-memory span tracer and the layer wrappers the traced runs install.

Every wrapped call becomes a span: its duration is added to a
per-name aggregate ``[count, total_s, self_s]``, where self time is the
span's duration minus the spans nested directly inside it.  Per-cycle
calls are only aggregated; the server's ``AnalysisEngine.execute``
calls are also kept one by one, so requests can be matched to them.
Nothing is written until the run ends.

Wrappers are installed by patching class or module attributes of the
``repro`` package from the benchmark's own files, so the package under
test is never edited.  A traced run installs them once per process: in
the benchmark process, in every sweep worker (through the sweep's
``run_fn``) and in the server (through ``serve_launcher.py``).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from typing import Callable, Dict, Iterable, List, Tuple

from common import share

Aggregate = List[float]  # [count, total_s, self_s]

_clock = time.perf_counter


class Tracer:
    """Thread-safe span aggregation with a per-thread span stack."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Dict[str, Aggregate]] = []
        self._counters: List[Dict[str, float]] = []
        #: Coarse span records: (name, start, end, attrs).
        self.records: List[Tuple[str, float, float, dict]] = []

    def _thread_state(self) -> Tuple[list, Dict[str, Aggregate],
                                       Dict[str, float]]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {}, {})
            self._local.state = state
            with self._lock:
                self._tables.append(state[1])
                self._counters.append(state[2])
        return state

    # ---- recording --------------------------------------------------------

    def call(self, span: str, fn: Callable, /, *args, **kwargs):
        """Run ``fn`` as a span called ``span``.  A call re-entering a
        span of the same name (a ``super()`` chain, a method calling a
        sibling of its own layer) folds into the enclosing span."""
        stack, table, _ = self._thread_state()
        if stack and stack[-1][0] == span:
            return fn(*args, **kwargs)
        frame = [span, 0.0]
        stack.append(frame)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _clock() - start
            stack.pop()
            self._add(table, span, elapsed, elapsed - frame[1])
            if stack:
                stack[-1][1] += elapsed

    def tally(self, name: str, elapsed: float) -> None:
        """Add a duration already covered by another span (a
        classification of it), leaving the span stack alone."""
        self._add(self._thread_state()[1], name, elapsed, 0.0)

    @staticmethod
    def _add(table: Dict[str, Aggregate], name: str, total: float,
             self_s: float) -> None:
        agg = table.get(name)
        if agg is None:
            table[name] = [1, total, self_s]
        else:
            agg[0] += 1
            agg[1] += total
            agg[2] += self_s

    def count(self, name: str, amount: float = 1) -> None:
        counters = self._thread_state()[2]
        counters[name] = counters.get(name, 0) + amount

    def record(self, span: str, start: float, end: float, **attrs) -> None:
        """Keep one coarse span (list.append is atomic under the GIL)."""
        self.records.append((span, start, end, attrs))

    # ---- reading ----------------------------------------------------------

    def snapshot(self) -> Tuple[Dict[str, Aggregate], Dict[str, float]]:
        """Merged aggregates and counters over every thread."""
        merged: Dict[str, Aggregate] = {}
        counters: Dict[str, float] = {}
        with self._lock:
            tables = list(self._tables)
            counter_tables = list(self._counters)
        for table in tables:
            for name, agg in list(table.items()):
                merge_aggregate(merged, name, agg)
        for table in counter_tables:
            for name, value in list(table.items()):
                counters[name] = counters.get(name, 0) + value
        return merged, counters

    def drain(self) -> Tuple[Dict[str, Aggregate], Dict[str, float]]:
        """Snapshot, then reset every thread's tables."""
        result = self.snapshot()
        with self._lock:
            for table in self._tables:
                table.clear()
            for table in self._counters:
                table.clear()
        return result


def merge_aggregate(into: Dict[str, Aggregate], name: str,
                    agg: Aggregate) -> None:
    have = into.get(name)
    if have is None:
        into[name] = list(agg)
    else:
        for index in range(3):
            have[index] += agg[index]


def merge_tables(into: Tuple[Dict[str, Aggregate], Dict[str, float]],
                 other: Tuple[Dict[str, Aggregate], Dict[str, float]]
                 ) -> None:
    for name, agg in other[0].items():
        merge_aggregate(into[0], name, agg)
    for name, value in other[1].items():
        into[1][name] = into[1].get(name, 0) + value


# ---------------------------------------------------------------------------
# Wrapper installation
# ---------------------------------------------------------------------------

def _span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    call = tracer.call

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return call(name, fn, *args, **kwargs)
    wrapper.__perfbench_wrapped__ = True  # type: ignore[attr-defined]
    return wrapper


def public_methods(cls: type) -> List[str]:
    """Plain functions defined on ``cls`` itself whose names are
    public (properties and inherited methods excluded)."""
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and inspect.isfunction(value)]


def wrap_methods(tracer: Tracer, cls: type, names: Iterable[str],
                 span: str) -> None:
    for name in names:
        fn = vars(cls).get(name)
        if fn is None or getattr(fn, "__perfbench_wrapped__", False):
            continue
        setattr(cls, name, _span_wrapper(tracer, span, fn))


def wrap_function(tracer: Tracer, module: str, attr: str,
                  span: str) -> None:
    """Patch one module attribute (the name a caller looks up)."""
    mod = importlib.import_module(module)
    fn = getattr(mod, attr)
    if not getattr(fn, "__perfbench_wrapped__", False):
        setattr(mod, attr, _span_wrapper(tracer, span, fn))


def step_state(cpu) -> Tuple[int, int, int, int]:
    """Public progress state judged around each ``Processor.step``:
    committed, issued and dispatched counts and the fetch PC."""
    return (cpu.report.committed, cpu.stats.get("issued"),
            cpu.stats.get("dispatched"), cpu.fetch_pc)


def _wrap_step(tracer: Tracer, processor_cls: type) -> None:
    step = processor_cls.step
    if getattr(step, "__perfbench_wrapped__", False):
        return
    call = tracer.call

    @functools.wraps(step)
    def traced_step(self):
        before = step_state(self)
        start = _clock()
        call("pipeline.step", step, self)
        if step_state(self) == before:
            tracer.tally("pipeline.idle_step", _clock() - start)
    traced_step.__perfbench_wrapped__ = True  # type: ignore[attr-defined]
    processor_cls.step = traced_step


#: Defense hooks (see ``repro.core.defense.Defense``).
DEFENSE_HOOKS = ("is_suspect", "gate_issue", "judge_suspect_load",
                 "still_blocked", "on_dispatch", "on_resolve",
                 "on_commit", "on_squash", "on_writeback")


def _all_subclasses(cls: type) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_all_subclasses(sub))
    return out


def install_simulation_wrappers(tracer: Tracer) -> None:
    """Cycle core, memory, defenses, front end and watchdog."""
    from repro.core.defense import Defense
    from repro.core.security_matrix import SecurityDependenceMatrix
    from repro.core.tpbuf import TPBuf
    from repro.frontend.branch_predictor import BranchPredictor
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.memory.tlb import TLB
    from repro.pipeline.events import EventQueue
    from repro.pipeline.issue_queue import IssueQueue
    from repro.pipeline.lsq import LoadStoreQueue
    from repro.pipeline.processor import Processor
    from repro.pipeline.store_buffer import StoreBuffer
    from repro.robustness.watchdog import ForwardProgressWatchdog

    _wrap_step(tracer, Processor)
    wrap_methods(tracer, Processor, ["__init__"], "pipeline.construct")
    wrap_methods(tracer, EventQueue, ["fire"], "pipeline.events")
    wrap_methods(tracer, IssueQueue, ["end_cycle"], "pipeline.iq_tick")
    wrap_methods(tracer, StoreBuffer, ["tick"],
                 "pipeline.store_buffer_tick")
    wrap_methods(tracer, LoadStoreQueue, public_methods(LoadStoreQueue),
                 "pipeline.lsq")
    wrap_methods(tracer, MemoryHierarchy, public_methods(MemoryHierarchy),
                 "memory")
    wrap_methods(tracer, TLB, ["translate"], "memory")
    wrap_methods(tracer, ForwardProgressWatchdog, ["observe"],
                 "watchdog.observe")
    wrap_methods(tracer, BranchPredictor, ["predict", "update"],
                 "frontend.bp")
    for cls in _all_subclasses(Defense):
        wrap_methods(tracer, cls, DEFENSE_HOOKS, "defense.hook")
    wrap_methods(tracer, SecurityDependenceMatrix,
                 public_methods(SecurityDependenceMatrix), "defense.matrix")
    wrap_methods(tracer, TPBuf, public_methods(TPBuf), "defense.tpbuf")


def record_certify(tracer: Tracer, result) -> None:
    """Count the deterministic symx/solver work of one certification."""
    tracer.count("symx.calls")
    tracer.count("symx.paths", result.paths)
    tracer.count("symx.steps", result.steps)
    tracer.count("symx.merged_paths", result.merged_paths)
    tracer.count("solver.models_tried", result.solver_stats.models_tried)
    tracer.count("solver.models_found", result.solver_stats.models_found)
    tracer.count("symx.unknown", int(result.verdict.value == "UNKNOWN"))


def counted_certify(tracer: Tracer, fn: Callable) -> Callable:
    """``certify_program`` wrapper: a span plus the work counters."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call("analysis.symx", fn, *args, **kwargs)
        record_certify(tracer, result)
        return result
    wrapper.__perfbench_wrapped__ = True  # type: ignore[attr-defined]
    return wrapper


def agg_total(tables, name: str) -> float:
    agg = tables[0].get(name)
    return agg[1] if agg else 0.0


def agg_self(tables, name: str) -> float:
    agg = tables[0].get(name)
    return agg[2] if agg else 0.0


def agg_count(tables, name: str) -> float:
    agg = tables[0].get(name)
    return agg[0] if agg else 0


def counter(tables, name: str) -> float:
    return tables[1].get(name, 0)


def report_totals(reports) -> Dict[str, float]:
    """Sums of the modelled counts of ``SimReport``s that the
    per-layer rates are made of."""
    return {
        "committed": sum(r.committed for r in reports),
        "dispatched": sum(r.raw.get("processor", {}).get("dispatched", 0)
                          for r in reports),
        "l1d_hits": sum(r.l1d_hits for r in reports),
        "l1d_misses": sum(r.l1d_misses for r in reports),
        "block_events": sum(r.block_events for r in reports),
        "branch_mispredicts": sum(r.branch_mispredicts for r in reports),
        "branches_resolved": sum(r.branches_resolved for r in reports),
    }


def simulation_layers(tables, totals: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of the cycle core and its parts from span
    tables, plus the modelled rates of ``report_totals``."""
    def total(name: str) -> float:
        return totals.get(name, 0)

    committed = total("committed")
    steps = agg_count(tables, "pipeline.step")
    step_total = agg_total(tables, "pipeline.step")
    return {
        "pipeline.steps": steps,
        "pipeline.step_us": share(step_total, steps) * 1e6,
        "pipeline.idle_step_share":
            share(agg_count(tables, "pipeline.idle_step"), steps),
        "pipeline.idle_time_share":
            share(agg_total(tables, "pipeline.idle_step"), step_total),
        "pipeline.step_self_s": agg_self(tables, "pipeline.step"),
        "pipeline.events_s": agg_self(tables, "pipeline.events"),
        "pipeline.iq_tick_s": agg_self(tables, "pipeline.iq_tick"),
        "pipeline.store_buffer_tick_s":
            agg_self(tables, "pipeline.store_buffer_tick"),
        "pipeline.lsq_s": agg_self(tables, "pipeline.lsq"),
        "pipeline.construct_s": agg_total(tables, "pipeline.construct"),
        "pipeline.useful_share": share(committed, total("dispatched")),
        "pipeline.blocked_per_kinst":
            share(total("block_events"), committed) * 1000,
        "watchdog.calls": agg_count(tables, "watchdog.observe"),
        "watchdog.observe_s": agg_self(tables, "watchdog.observe"),
        "memory.calls": agg_count(tables, "memory"),
        "memory.busy_s": agg_self(tables, "memory"),
        "memory.l1d_miss_rate": share(
            total("l1d_misses"), total("l1d_hits") + total("l1d_misses")),
        "defense.hook_calls": agg_count(tables, "defense.hook"),
        "defense.hook_s": agg_self(tables, "defense.hook"),
        "defense.matrix_s": agg_self(tables, "defense.matrix"),
        "defense.tpbuf_s": agg_self(tables, "defense.tpbuf"),
        "frontend.bp_s": agg_self(tables, "frontend.bp"),
        "frontend.mispredict_rate": share(
            total("branch_mispredicts"), total("branches_resolved")),
    }
