"""``serve``: traffic against ``repro serve --workers 2``.

The server runs in its own process (``serve_launcher.py``).  A run
alternates two kinds of traffic, ``rounds`` times each, so both sample
the host over the whole run:

- *Open loop*: one generator thread sends requests at seeded Poisson
  arrival times over at most two concurrent connections and polls
  background jobs until they finish.  A synchronous request's latency
  runs from its due time to its answer, so a stalled server delays
  every later request too; these latencies are the end-to-end p50
  and tail.  A background job's latency resolves to the poll that first
  sees it done, so it is reported per layer only.  Each segment waits
  for all of its answers before the next burst.
- *Saturation*: a burst of synchronous requests sent back to back over
  two connections; goodput is the answers that are correct and inside
  their class limit per second of burst, the server's capacity for
  the synchronous mix.

The arrival count is fixed (``rate`` x run length) and so is the number
of requests of each class; the seed shuffles their order and spreads
arrivals uniformly, which is a Poisson process conditioned on its count.
"""
from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import (CONFIG, HERE, OUT_DIR, Ledger, Outcome, peak_rss_mb,
                    percentile, share, traceback_cause)
from tracer import agg_count, agg_total, counter, simulation_layers

LAUNCHER = os.path.join(HERE, "serve_launcher.py")
#: With two or more CPUs the server (one GIL-bound process) gets the
#: first and the traffic generator the second, so the two never trade
#: places on a core between runs.
CPUS = sorted(os.sched_getaffinity(0))
_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")
#: Classes answered inline in the HTTP request.
SYNC_CLASSES = ("hot", "fresh", "near")


@dataclass
class Request:
    index: int
    due: float                 # seconds after the schedule starts
    cls: str                   # hot | fresh | near | symx | simulate
    body: Dict[str, object]
    due_at: float = 0.0        # absolute monotonic times from here on
    sent: float = 0.0
    replied: float = 0.0
    done: float = 0.0
    job_id: str = ""
    result: Optional[Dict[str, object]] = None
    error: str = ""

    @property
    def synchronous(self) -> bool:
        return self.cls in SYNC_CLASSES


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

class Traffic:
    """Seeded request bodies.  Fresh, symx and simulate requests carry
    programs no earlier request sent; a near-miss resends code already
    answered at the valueset tier under a budget no request used, so
    the result cache misses and the region cache hits."""

    def __init__(self, seed: int) -> None:
        from repro.core.defense import defense_names

        self.seed = seed
        self.cfg = CONFIG["workloads"]["serve"]
        self.rng = random.Random(f"serve:{seed}")
        self.defenses = defense_names()
        self.serial = {"fresh": 0, "near": 0, "symx": 0, "simulate": 0}
        #: Code answered at the valueset tier: the near-miss targets.
        self._hot_valueset = [{"spec": spec} for spec, tier
                              in self.cfg["hot_set"] if tier == "valueset"]
        self._fresh_valueset: List[Dict[str, object]] = []

    def _program(self, base: int, serial: int, secret: bool):
        from repro.fuzz.generator import (GeneratorConfig, case_seed,
                                          generate_program)
        from repro.isa.assembler import disassemble

        generated = generate_program(case_seed(self.seed, base + serial),
                                     GeneratorConfig(secret=secret))
        return disassemble(generated.program), \
            list(generated.secret_words)

    def body(self, cls: str, name: str, client: int) -> Dict[str, object]:
        body: Dict[str, object] = {
            "name": name,
            "client": f"client-{client % self.cfg['clients']}",
        }
        serial = self.serial.get(cls, 0)
        if cls == "hot":
            spec, tier = self.rng.choice(self.cfg["hot_set"])
            body.update(spec=spec, tier=tier)
        elif cls == "fresh":
            # Even cases carry planted secrets and go to the tier that
            # checks findings against them; odd ones get the taint scan.
            secret = serial % 2 == 0
            asm, secrets = self._program(0, serial, secret)
            body.update(asm=asm, tier="valueset" if secret else "taint",
                        secret_words=secrets)
            if secret:
                self._fresh_valueset.append(
                    {"asm": asm, "secret_words": secrets})
        elif cls == "near":
            # Prefer fresh code; before any was sent, a hot valueset
            # program under a new budget.
            pool = self._fresh_valueset or self._hot_valueset
            body.update(self.rng.choice(pool), tier="valueset",
                        budgets={"max_steps": 100_000 + serial})
        elif cls == "symx":
            asm, secrets = self._program(100_000, serial, True)
            body.update(asm=asm, tier="symx", secret_words=secrets,
                        budgets={"max_steps": self.cfg["symx_max_steps"]})
        else:
            asm, _ = self._program(200_000, serial, False)
            body.update(asm=asm, kind="simulate",
                        mode=self.defenses[serial % len(self.defenses)])
        if cls in self.serial:
            self.serial[cls] += 1
        return body

    def classes(self, mix: Dict[str, float], total: int) -> List[str]:
        """``total`` classes in ``mix`` proportions, seeded order."""
        names = list(mix)
        counts = {cls: round(mix[cls] * total) for cls in names[:-1]}
        counts[names[-1]] = total - sum(counts.values())
        out = [cls for cls, count in counts.items() for _ in range(count)]
        self.rng.shuffle(out)
        return out


def build_schedule(traffic: Traffic, seconds: float) -> List[Request]:
    """The open-loop requests of one run, in due order."""
    cfg = traffic.cfg
    total = max(cfg["min_requests"], round(cfg["rate"] * seconds))
    length = total / cfg["rate"]
    classes = traffic.classes(cfg["mix"], total)
    arrivals = sorted(traffic.rng.uniform(0.0, length)
                      for _ in range(total))
    return [Request(index, due, cls,
                    traffic.body(cls, f"r{index:05d}", index))
            for index, (due, cls) in enumerate(zip(arrivals, classes))]


def build_batch(traffic: Traffic) -> List[Request]:
    """The saturation batch: synchronous classes in open-loop
    proportions, programs the open loop did not send."""
    cfg = traffic.cfg
    sync_share = sum(cfg["mix"][cls] for cls in SYNC_CLASSES)
    mix = {cls: cfg["mix"][cls] / sync_share for cls in SYNC_CLASSES}
    classes = traffic.classes(mix, cfg["saturation_requests"])
    return [Request(index, 0.0, cls,
                    traffic.body(cls, f"s{index:05d}", index))
            for index, cls in enumerate(classes)]


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------

class Server:
    """One ``repro serve`` process started through the launcher."""

    def __init__(self, trace: bool) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.spans = os.path.join(OUT_DIR, f"serve-spans-{os.getpid()}.json")
        command = [sys.executable, LAUNCHER]
        if len(CPUS) > 1:
            command += ["--cpu", str(CPUS[0])]
        if trace:
            command += ["--trace", "--spans", self.spans]
        command += ["--", "serve", "--port", "0",
                    *CONFIG["workloads"]["serve"]["server_args"]]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     text=True)
        try:
            line = self.proc.stdout.readline()
            match = _LISTENING.search(line)
            if match is None:
                raise RuntimeError(f"server did not start: {line!r}")
            from repro.serve.client import ServeClient
            self.client = ServeClient(port=int(match.group(1)), timeout=60.0)
            self.client.wait_healthy(timeout=60.0)
        except BaseException:
            self.proc.kill()
            self.proc.communicate()
            raise
        self.setup_s = time.perf_counter() - self.started

    def peak_rss_kb(self) -> float:
        try:
            with open(f"/proc/{self.proc.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return float(line.split()[1])
        except OSError:
            pass
        return 0.0

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()

    def load_spans(self) -> Dict[str, object]:
        with open(self.spans) as handle:
            data = json.load(handle)
        os.remove(self.spans)
        return data


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------

def send(client, req: Request, on_job) -> None:
    """POST one request; a background job is handed to ``on_job``."""
    from repro.serve.client import ServeClientError

    req.sent = time.monotonic()
    try:
        response = client.request("POST", "/v1/jobs", req.body)
    except ServeClientError as exc:
        req.error = f"transport:{type(exc).__name__}"
        return
    req.replied = time.monotonic()
    payload = response.payload
    if response.status == 429:
        req.error = f"shed:{payload.get('reason', '?')}"
    elif response.status not in (200, 202):
        req.error = f"http_{response.status}"
    elif "result" in payload:
        req.result = payload["result"]
        req.done = req.replied
    elif payload.get("state") == "done":  # finished duplicate
        req.job_id = str(payload["job_id"])
        req.done = req.replied
    else:
        req.job_id = str(payload["job_id"])
        on_job(req)


def drive(server: Server, requests: List[Request], offset: float) -> None:
    """Send every request on schedule, its due time less ``offset``
    after now, and wait for every answer."""
    from repro.serve.client import ServeClientError

    client = server.client
    poll_every = CONFIG["workloads"]["serve"]["poll_ms"] / 1000.0
    lock = threading.Lock()
    outstanding: Dict[str, List[Request]] = {}

    def on_job(req: Request) -> None:
        with lock:
            outstanding.setdefault(req.job_id, []).append(req)

    def poll() -> None:
        try:
            listing = client.request("GET", "/v1/jobs").payload["jobs"]
        except (ServeClientError, KeyError):
            return
        now = time.monotonic()
        with lock:
            for job in listing:
                if job["state"] == "done" and job["job_id"] in outstanding:
                    for req in outstanding.pop(job["job_id"]):
                        req.done = now

    with ThreadPoolExecutor(max_workers=2) as connections:
        start = time.monotonic() + 0.05
        last_poll = 0.0
        pending = []

        def maybe_poll() -> None:
            nonlocal last_poll
            now = time.monotonic()
            if outstanding and now - last_poll >= poll_every:
                last_poll = now
                pending.append(connections.submit(poll))

        for req in requests:
            req.due_at = start + req.due - offset
            while True:
                wait = req.due_at - time.monotonic()
                if wait <= 0:
                    break
                maybe_poll()
                time.sleep(min(wait, poll_every))
            pending.append(connections.submit(send, client, req, on_job))
        deadline = time.monotonic() + CONFIG["workloads"]["serve"][
            "drain_s"]
        while time.monotonic() < deadline:
            if all(f.done() for f in pending) and not outstanding:
                break
            maybe_poll()
            time.sleep(poll_every / 2)
        for future in pending:
            future.result()
    for req in requests:
        if req.job_id and not req.error and req.result is None:
            view = client.job(req.job_id).payload
            req.result = view.get("result") \
                if isinstance(view.get("result"), dict) else None
        if not req.error and not req.done:
            req.error = "no_answer"


def saturate(server: Server, batch: List[Request]) -> float:
    """Send the synchronous batch back to back over two connections;
    returns the seconds from the first send to the last answer."""
    queue = iter(batch)
    lock = threading.Lock()

    def connection() -> None:
        while True:
            with lock:
                req = next(queue, None)
            if req is None:
                return
            send(server.client, req, on_job=None)
            req.due_at = req.sent  # closed loop: latency counts from send

    start = time.monotonic()
    with ThreadPoolExecutor(max_workers=2) as connections:
        for future in [connections.submit(connection) for _ in range(2)]:
            future.result()
    for req in batch:
        if not req.error and not req.done:
            req.error = "no_answer"
    return time.monotonic() - start


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def account(requests: List[Request], ledger: Ledger
            ) -> Tuple[List[float], List[float], int]:
    """Check every answer; returns the latencies in ms of the answered
    synchronous requests and of the answered jobs, and the count
    answered without error inside the class limit."""
    limits = CONFIG["workloads"]["serve"]["limits_ms"]
    sync, jobs = [], []
    good = 0
    for req in requests:
        if req.error:
            ledger.fail(req.error)
            continue
        result = req.result or {}
        if result.get("status") != "ok":
            error = result.get("error") if isinstance(
                result.get("error"), dict) else {"type": "no_result"}
            ledger.fail(traceback_cause(error))
            continue
        ledger.ok()
        latency = (req.done - req.due_at) * 1000.0
        (sync if req.synchronous else jobs).append(latency)
        if not result.get("degraded") and latency <= limits[req.cls]:
            good += 1
    return sync, jobs, good


def phase(trace: bool, seed: int, seconds: float, ledger: Ledger,
          server: Optional[Server] = None):
    """The open-loop schedule and the saturation batch, interleaved in
    ``rounds`` segments, against one server."""
    server = server or Server(trace)
    try:
        rounds = CONFIG["workloads"]["serve"]["rounds"]
        traffic = Traffic(seed)
        requests = build_schedule(traffic, seconds)
        batch = build_batch(traffic)
        length = requests[-1].due
        segments: List[List[Request]] = [[] for _ in range(rounds)]
        for req in requests:
            segments[min(rounds - 1,
                         int(req.due / length * rounds))].append(req)
        elapsed = 0.0
        for index, segment in enumerate(segments):
            drive(server, segment, offset=length * index / rounds)
            elapsed += saturate(server, batch[index::rounds])
        stats = server.client.stats()
        rss_kb = server.peak_rss_kb()
    finally:
        server.stop()
    sync, jobs, _good = account(requests, ledger)
    _sync, _jobs, good = account(batch, ledger)
    tail = CONFIG["workloads"]["serve"]["tail_pct"]
    e2e = {
        "throughput_per_s": good / elapsed,
        "latency_p50_ms": percentile(sync, 50),
        "latency_tail_ms": percentile(sync, tail),
        "peak_rss_mb": peak_rss_mb(rss_kb),
    }
    spans = server.load_spans() if trace else None
    return e2e, requests, stats, spans, percentile(jobs, 50)


def layer_metrics(requests: List[Request],
                  stats: Dict[str, object], spans: Dict[str, object],
                  job_ms: float) -> Dict[str, float]:
    tables = (spans["tables"], spans["counters"])
    executes = {attrs["name"]: (begin, end, attrs)
                for _span, begin, end, attrs in spans["records"]}
    by_tier: Dict[str, List[float]] = {}
    waits, http, lags = [], [], []
    sync_total = sync_cheap = 0.0
    answered = degraded = 0
    for req in requests:
        lags.append((req.sent - req.due_at) * 1000.0)
        if req.error or not req.done:
            continue
        answered += 1
        degraded += bool((req.result or {}).get("degraded"))
        latency = req.done - req.due_at
        run = executes.get(req.body["name"])
        if run is None:
            # Answered from the result cache: no engine call at all.
            http.append(latency * 1000.0)
            if req.synchronous:
                sync_total += latency
                sync_cheap += latency
            continue
        begin, end, attrs = run
        key = attrs["kind"] if attrs["kind"] == "simulate" else attrs["tier"]
        by_tier.setdefault(key, []).append((end - begin) * 1000.0)
        if req.synchronous:
            http.append((latency - (end - begin)) * 1000.0)
            sync_total += latency
            if key in ("taint", "valueset"):
                sync_cheap += end - begin
        else:
            # The worker may pick a job up before its 202 reaches us.
            waits.append(max(0.0, begin - req.replied) * 1000.0)
            http.append((latency - (end - req.replied)) * 1000.0)
    cache = stats["cache"]
    region = stats["region_cache"]
    metrics = simulation_layers(tables, {})
    metrics.update({
        "analysis.taint_s": agg_total(tables, "analysis.taint"),
        "analysis.summaries_s": agg_total(tables, "analysis.summaries"),
        "analysis.valueset_s": agg_total(tables, "analysis.valueset"),
        "analysis.symx_s": agg_total(tables, "analysis.symx"),
        "symx.paths": counter(tables, "symx.paths"),
        "symx.steps": counter(tables, "symx.steps"),
        "symx.merged_paths": counter(tables, "symx.merged_paths"),
        "solver.models_tried": counter(tables, "solver.models_tried"),
        "solver.model_yield": share(counter(tables, "solver.models_found"),
                                    counter(tables, "solver.models_tried")),
        "analysis.unknown_share": share(counter(tables, "symx.unknown"),
                                        counter(tables, "symx.calls")),
        "serve.admit_us": share(agg_total(tables, "serve.admit"),
                                agg_count(tables, "serve.admit")) * 1e6,
        "serve.cache_hit_share": share(
            cache["hits"], cache["hits"] + cache["misses"]),
        "serve.region_hit_share": share(
            region["hits"], region["hits"] + region["misses"]),
        "serve.queue_wait_ms": share(sum(waits), len(waits)),
        "serve.job_ms": job_ms,
        "serve.http_ms": percentile(http, 50),
        "serve.shed_share": share(
            sum(req.error.startswith("shed") for req in requests),
            len(requests)),
        "serve.degraded_share": share(degraded, answered),
        "serve.generator_lag_ms": percentile(lags, 95),
        "serve.sync_cheap_share": share(sync_cheap, sync_total),
    })
    for key in ("taint", "valueset", "symx", "simulate"):
        metrics[f"serve.execute_ms.{key}"] = percentile(
            by_tier.get(key, []), 50)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    del workload
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[1]})
    # Set-up: launch to a healthy /v1/healthz, several times; the last
    # server stays up for the measurement.
    samples = []
    server = None
    for _ in range(CONFIG["setup_repeats"]):
        if server is not None:
            server.stop()
        server = Server(trace=False)
        samples.append(server.setup_s)
    setup_s = sorted(samples)[len(samples) // 2]
    ledger = Ledger()
    e2e, requests, _stats, _spans, _job_ms = phase(
        False, seed, seconds, ledger, server)
    e2e["setup_s"] = setup_s
    cfg = CONFIG["workloads"]["serve"]
    outcome = Outcome(ledger, e2e, notes=[
        f"serve: {len(requests)} requests at {cfg['rate']}/s and "
        f"{cfg['saturation_requests']} back to back in {cfg['rounds']} "
        f"rounds, seed {seed}"])
    if trace:
        traced, requests, stats, spans, job_ms = phase(
            True, seed, seconds, ledger)
        traced["setup_s"] = setup_s
        outcome.traced_e2e = traced
        outcome.layers = layer_metrics(requests, stats, spans, job_ms)
    return outcome
