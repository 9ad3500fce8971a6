#!/usr/bin/env python3
"""Replayable load test for the ``repro serve`` daemon.

Starts an in-process server, replays a seeded mixed workload against
it from concurrent client threads, and writes
``benchmarks/BENCH_serve.json`` with the service-level numbers the
repo tracks: p50/p99 latency, completed jobs/sec, shed rate, degraded
rate, cache hit rate::

    python tools/load_test.py                    # full run (>=1000 requests)
    python tools/load_test.py --smoke            # reduced scale for CI
    python tools/load_test.py --check            # also assert invariants
    python tools/load_test.py --seed 7 --out /tmp/bench.json

The workload mixes every traffic class the daemon must survive:

- cache-friendly taint/valueset scans (duplicate-heavy on purpose, to
  measure the content-addressed cache);
- symx certification jobs, some under deliberately impossible
  wall-clock budgets (must *degrade*, never hang);
- simulations, some poisoned with a never-filling fault plan (must
  come back as degraded deadlock results, not dead workers);
- a hot client that outruns its token bucket (must be shed with
  explicit 429s).

``--check`` asserts the acceptance invariants: zero unhandled errors,
every shed explicit, degradation tagged, duplicates cache-served.
"""
import argparse
import asyncio
import os
import platform
import random
import statistics
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.documents import write_json  # noqa: E402
from repro.serve import (  # noqa: E402
    ReproServer,
    ServeClient,
    ServeClientError,
    ServeConfig,
)

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DEFAULT_OUT = os.path.join(REPO_ROOT, "benchmarks", "BENCH_serve.json")

FORMAT = "repro-bench-serve"
VERSION = 1

#: The duplicate-heavy program pool (small on purpose: most requests
#: repeat one of these, which is what exercises the cache).
CORPUS_POOL = ["corpus:v1", "corpus:v1:fenced", "corpus:v2",
               "corpus:v4", "corpus:rsb"]
SYMX_POOL = ["corpus:v1", "corpus:v2", "corpus:v4"]

#: Tight enough that even the smallest corpus gadget cannot finish
#: certification before the deadline passes (the explorer's solver
#: work alone takes milliseconds): forces the degradation path.
TIGHT_WALL_CLOCK = 0.0005

POISON_FAULT = {"fill_delay_rate": 1.0, "fill_delay_max": 1_000_000_000}


def build_workload(rng, total):
    """The seeded request list: ``(class_name, body)`` pairs."""
    requests = []
    for index in range(total):
        roll = rng.random()
        client = f"client-{rng.randrange(16)}"
        if roll < 0.58:
            body = {"spec": rng.choice(CORPUS_POOL), "tier": "taint",
                    "client": client}
            requests.append(("taint", body))
        elif roll < 0.76:
            body = {"spec": rng.choice(CORPUS_POOL), "tier": "valueset",
                    "client": client}
            requests.append(("valueset", body))
        elif roll < 0.84:
            body = {"spec": rng.choice(SYMX_POOL), "tier": "symx",
                    "client": client}
            requests.append(("symx", body))
        elif roll < 0.90:
            body = {"spec": rng.choice(SYMX_POOL), "tier": "symx",
                    "budgets": {"wall_clock": TIGHT_WALL_CLOCK},
                    "client": client}
            requests.append(("symx_tight", body))
        elif roll < 0.95:
            body = {"spec": rng.choice(CORPUS_POOL), "kind": "simulate",
                    "mode": "cache_hit_tpbuf",
                    "budgets": {"max_cycles": 50_000},
                    "client": client}
            requests.append(("simulate", body))
        else:
            body = {"spec": "corpus:v1", "kind": "simulate",
                    "fault": dict(POISON_FAULT),
                    "budgets": {"watchdog_cycles": 2_000},
                    "client": client}
            requests.append(("poisoned", body))
    return requests


class Outcome:
    """One request's fate, as the client saw it."""

    __slots__ = ("cls", "latency_s", "status", "shed", "degraded",
                 "cached", "error")

    def __init__(self, cls, latency_s, status, shed=False,
                 degraded=False, cached=False, error=None):
        self.cls = cls
        self.latency_s = latency_s
        self.status = status
        self.shed = shed
        self.degraded = degraded
        self.cached = cached
        self.error = error


def drive_one(client, cls, body, job_timeout):
    started = time.monotonic()
    try:
        response = client.submit(body)
    except ServeClientError as exc:
        return Outcome(cls, time.monotonic() - started, 0,
                       error=f"transport: {exc}")
    if response.shed:
        reason = response.payload.get("reason")
        if reason not in ("rate_limited", "queue_full"):
            return Outcome(cls, time.monotonic() - started, 429,
                           error=f"shed without explicit reason: "
                                 f"{response.payload}")
        return Outcome(cls, time.monotonic() - started, 429, shed=True)
    if not response.ok:
        return Outcome(cls, time.monotonic() - started, response.status,
                       error=f"unexpected status {response.status}: "
                             f"{response.payload}")
    payload = response.payload
    cached = bool(payload.get("cached"))
    if "result" in payload:
        result = payload["result"]
    else:
        job_id = payload["job_id"]
        try:
            view = client.wait(job_id, timeout=job_timeout)
        except ServeClientError as exc:
            return Outcome(cls, time.monotonic() - started,
                           response.status, error=str(exc))
        result = view.get("result", {})
    latency = time.monotonic() - started
    if not isinstance(result, dict) or result.get("status") == "error":
        return Outcome(cls, latency, response.status,
                       error=f"job error: {result}")
    return Outcome(cls, latency, response.status,
                   degraded=bool(result.get("degraded")), cached=cached)


def run_load(args):
    rng = random.Random(args.seed)
    requests = build_workload(rng, args.requests)

    loop = asyncio.new_event_loop()
    holder = {}
    started = threading.Event()

    def runner():
        asyncio.set_event_loop(loop)

        async def main():
            server = ReproServer(ServeConfig(
                port=0, workers=args.workers,
                queue_depth=args.queue_depth,
                rate=args.rate, burst=args.burst,
                checkpoint=args.checkpoint))
            await server.start()
            holder["server"] = server
            started.set()
            await server.serve_forever()

        loop.run_until_complete(main())

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    if not started.wait(10):
        raise RuntimeError("server failed to start")
    server = holder["server"]
    port = server.port

    outcomes = []
    outcomes_lock = threading.Lock()
    cursor = {"next": 0}

    def worker():
        client = ServeClient(port=port, timeout=30.0)
        while True:
            with outcomes_lock:
                index = cursor["next"]
                if index >= len(requests):
                    return
                cursor["next"] = index + 1
            cls, body = requests[index]
            outcome = drive_one(client, cls, body, args.job_timeout)
            with outcomes_lock:
                outcomes.append(outcome)

    wall_started = time.monotonic()
    threads = [threading.Thread(target=worker)
               for _ in range(args.clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    # The hot client: one identity firing cache-warm requests
    # back-to-back, deliberately faster than its token bucket refills.
    # The excess MUST come back as explicit 429s.
    hot_client = ServeClient(port=port, timeout=30.0)
    hot_total = args.hot_burst or int(args.burst * 3)
    for _ in range(hot_total):
        outcome = drive_one(
            hot_client, "hot",
            {"spec": "corpus:v1", "tier": "taint",
             "client": "hot-client"},
            args.job_timeout)
        outcomes.append(outcome)
    wall = time.monotonic() - wall_started

    stats = ServeClient(port=port).stats()
    drain_started = time.monotonic()
    future = asyncio.run_coroutine_threadsafe(server.shutdown(), loop)
    future.result(timeout=120)
    drain_s = time.monotonic() - drain_started
    thread.join(timeout=10)

    return summarize(args, outcomes, wall, drain_s, stats)


def percentile(values, fraction):
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1,
                max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def summarize(args, outcomes, wall, drain_s, stats):
    errors = [o for o in outcomes if o.error]
    completed = [o for o in outcomes if not o.error and not o.shed]
    shed = [o for o in outcomes if o.shed]
    degraded = [o for o in completed if o.degraded]
    latencies = [o.latency_s for o in completed]

    by_class = {}
    for outcome in outcomes:
        row = by_class.setdefault(outcome.cls, {
            "requests": 0, "completed": 0, "shed": 0,
            "degraded": 0, "errors": 0})
        row["requests"] += 1
        if outcome.error:
            row["errors"] += 1
        elif outcome.shed:
            row["shed"] += 1
        else:
            row["completed"] += 1
            if outcome.degraded:
                row["degraded"] += 1

    total = len(outcomes)
    report = {
        "format": FORMAT,
        "version": VERSION,
        "python": platform.python_version(),
        "seed": args.seed,
        "requests": total,
        "clients": args.clients,
        "workers": args.workers,
        "queue_depth": args.queue_depth,
        "rate": args.rate,
        "burst": args.burst,
        "wall_s": round(wall, 3),
        "drain_s": round(drain_s, 3),
        "jobs_per_sec": round(len(completed) / wall, 2) if wall else 0.0,
        "completed": len(completed),
        "shed": len(shed),
        "shed_rate": round(len(shed) / total, 4) if total else 0.0,
        "degraded": len(degraded),
        "degraded_rate": round(len(degraded) / len(completed), 4)
        if completed else 0.0,
        "unhandled_errors": len(errors),
        "latency_ms": {
            "p50": round(percentile(latencies, 0.50) * 1e3, 2),
            "p90": round(percentile(latencies, 0.90) * 1e3, 2),
            "p99": round(percentile(latencies, 0.99) * 1e3, 2),
            "mean": round(statistics.fmean(latencies) * 1e3, 2)
            if latencies else 0.0,
        },
        "cache": stats["cache"],
        "admission": stats["admission"],
        "server": stats["server"],
        "by_class": by_class,
    }
    if errors:
        report["error_samples"] = sorted(
            {o.error for o in errors})[:10]
    return report


def check(report):
    """The acceptance invariants; returns a list of violations."""
    problems = []
    if report["unhandled_errors"]:
        problems.append(
            f"{report['unhandled_errors']} unhandled error(s): "
            f"{report.get('error_samples')}")
    if report["cache"]["hits"] == 0:
        problems.append("duplicate submissions never hit the cache")
    admission = report["admission"]
    if admission["shed"] != report["shed"]:
        problems.append(
            f"shed accounting mismatch: admission says "
            f"{admission['shed']}, clients saw {report['shed']}")
    by_class = report["by_class"]
    hot = by_class.get("hot", {"requests": 0, "shed": 0})
    if hot["requests"] and hot["shed"] == 0:
        problems.append("hot client was never rate-limited")
    for cls in ("symx_tight", "poisoned"):
        row = by_class.get(cls)
        if row and row["completed"] and not row["degraded"]:
            problems.append(
                f"{cls} jobs completed without a degraded tag")
        if row and row["errors"]:
            problems.append(f"{cls} produced unhandled errors")
    if report["latency_ms"]["p99"] <= 0 and report["completed"]:
        problems.append("latency percentiles are empty")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=1000)
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent client threads (default 8)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--queue-depth", type=int, default=64)
    parser.add_argument("--rate", type=float, default=50.0)
    parser.add_argument("--burst", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--job-timeout", type=float, default=120.0)
    parser.add_argument("--hot-burst", type=int, default=None,
                        help="hot-client burst size "
                             "(default: 3x --burst)")
    parser.add_argument("--checkpoint", default=None,
                        help="journal path (default: ephemeral)")
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced scale for CI (200 requests)")
    parser.add_argument("--check", action="store_true",
                        help="assert the acceptance invariants")
    args = parser.parse_args(argv)
    if args.smoke:
        args.requests = min(args.requests, 200)

    report = run_load(args)
    write_json(args.out, report)

    print(f"load test: {report['requests']} request(s) in "
          f"{report['wall_s']}s -> {report['jobs_per_sec']} jobs/sec")
    print(f"  latency p50={report['latency_ms']['p50']}ms "
          f"p99={report['latency_ms']['p99']}ms")
    print(f"  shed={report['shed']} ({report['shed_rate']:.1%}) "
          f"degraded={report['degraded']} "
          f"({report['degraded_rate']:.1%}) "
          f"cache_hit_rate={report['cache']['hit_rate']:.1%}")
    print(f"  unhandled_errors={report['unhandled_errors']}")
    print(f"  wrote {args.out}")

    if args.check:
        problems = check(report)
        if problems:
            for problem in problems:
                print(f"CHECK FAILED: {problem}", file=sys.stderr)
            return 1
        print("  all acceptance checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
