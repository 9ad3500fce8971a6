"""Shared plumbing: seeds, failure accounting, statistics, set-up time,
peak memory and the result line."""
from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Run output (span dumps of traced servers), gitignored.
OUT_DIR = os.path.join(ROOT, ".perfbench")

with open(os.path.join(HERE, "workloads.json")) as _handle:
    #: Every fixed input of every workload (profiles, defenses, scales,
    #: program mix, offered rate, latency limits, default seed).
    CONFIG = json.load(_handle)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    #: The benchmark's contract: run length and metric names and units.
    BENCH = json.load(_handle)

DEFAULT_SEED: int = CONFIG["default_seed"]


def mix_seed(base: int, seed: int, variant: int = 0, salt: str = "") -> int:
    """A pinned seed with the workload seed, a variant number and an
    optional salt mixed in; the default workload seed leaves variant 0
    pinned whatever the salt."""
    if seed == DEFAULT_SEED and variant == 0:
        return base
    text = f"{base}:{seed}:{variant}" + (f":{salt}" if salt else "")
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:4], "big")


def host_facts() -> Dict[str, object]:
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version()}


# ---------------------------------------------------------------------------
# Failure accounting
# ---------------------------------------------------------------------------

class Ledger:
    """Operations attempted and failed, by cause.  A *wrong* output
    (a result that contradicts its reference) also clears ``correct``;
    a crash or refusal only counts as failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter = Counter()
        self.wrong: Counter = Counter()

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, cause: str, wrong: bool = False) -> None:
        self.attempted += 1
        self.failures[cause] += 1
        if wrong:
            self.wrong[cause] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        return not self.wrong


def exception_cause(exc: BaseException) -> str:
    """``<Type>@<innermost repro function>``: one cause per defect site
    (the known summaries defect reads ``KeyError@summarize_program``)."""
    frame_name = "?"
    tb = exc.__traceback__
    while tb is not None:
        if "repro" in tb.tb_frame.f_code.co_filename:
            frame_name = tb.tb_frame.f_code.co_name
        tb = tb.tb_next
    return f"{type(exc).__name__}@{frame_name}"


def traceback_cause(error: Dict[str, object]) -> str:
    """The same cause key for an error a server reported as JSON."""
    site = "?"
    for line in str(error.get("traceback", "")).splitlines():
        line = line.strip()
        if line.startswith("File ") and ", in " in line:
            site = line.rsplit(", in ", 1)[1]
    return f"{error.get('type', 'Error')}@{site}"


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    ledger: Ledger
    e2e: Dict[str, float]
    #: Traced runs only: the per-layer metrics and the end-to-end
    #: metrics measured with the wrappers installed.
    layers: Optional[Dict[str, float]] = None
    traced_e2e: Optional[Dict[str, float]] = None
    notes: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], pct: float) -> float:
    """Inclusive linear-interpolated percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# Set-up time and memory
# ---------------------------------------------------------------------------

def measure_import_setup(modules: Iterable[str], repeats: int) -> float:
    """Median seconds for a fresh interpreter to import ``modules``:
    the start-up a user pays before the first operation."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            + "; ".join(f"import {name}" for name in modules)
            + "; print('ready', flush=True)")
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, SRC],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0 or "ready" not in proc.stdout:
            raise RuntimeError(f"import set-up failed: {proc.stderr}")
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def stop_children() -> None:
    """Stop and wait for every helper process this run started.

    A parallel sweep's spawn-based pool starts multiprocessing's
    resource tracker, which would otherwise outlive the benchmark by
    design; its pool workers are already joined when the pool closes.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def peak_rss_mb(children_kb: float = 0.0) -> float:
    """Peak resident memory of this process plus ``children_kb``, the
    peak of the children that ran beside it (sweep workers, server)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + children_kb) / 1024.0


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def emit(ledger: Ledger, metrics: Dict[str, float],
         units: Dict[str, str], lines: Optional[List[str]] = None) -> None:
    """Human-readable report, then the one-line JSON result (last)."""
    for line in lines or []:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    print(f"  attempted {ledger.attempted}  failed {ledger.failed}"
          + "".join(f"  [{cause}: {count}]"
                    for cause, count in sorted(ledger.failures.items())))
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def metric_units(kind: str) -> Dict[str, str]:
    """Units of the end-to-end or per-layer metrics in BENCHMARK.json."""
    return {entry["name"]: entry["unit"] for entry in BENCH[kind]}
