#!/usr/bin/env python3
"""CI smoke test for the ``repro serve`` daemon — the real thing.

Drives the daemon exactly the way an operator does: spawn
``python -m repro.cli serve`` as a subprocess, speak HTTP to it, then
SIGTERM it and require a clean drain.  Asserts, end to end:

1.  health check answers;
2.  a sync taint scan answers correctly (the v1 gadget is flagged,
    its fenced variant is clean);
3.  a symx certification job completes with the right verdict;
4.  a duplicate submission pair is cache-served (second one instant);
5.  an impossible budget degrades (tagged, UNKNOWN, never hangs);
6.  a poisoned program (never-filling fault plan) comes back as a
    degraded deadlock result and the worker pool stays healthy;
7.  a hot client is shed with explicit 429s;
8.  concurrent clients submitting a seeded batch of every traffic
    class (taint, valueset, symx, symx under an impossible budget,
    simulate, poisoned simulate) get no transport error, no 5xx and
    no error result, and every tight or poisoned answer is tagged
    degraded;
9.  jobs survive the daemon: the journal holds every background job;
    the daemon reports zero unhandled errors, and its shed count
    equals the 429s the smoke received, each naming its reason;
10. SIGTERM drains within the grace window, exit code 0.

Exits non-zero on the first violated assertion.  Budget: well under
two minutes.
"""
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.errors import ServeError  # noqa: E402
from repro.serve import ServeClient  # noqa: E402
from repro.serve.jobs import JobStore  # noqa: E402

PORT = int(os.environ.get("SERVE_SMOKE_PORT", "18431"))

FAILURES = []
#: The reason of every 429 the smoke received, in any phase.
SHED = []

#: A simulation whose fills never arrive: the watchdog must end it.
POISON = {"kind": "simulate",
          "fault": {"fill_delay_rate": 1.0,
                    "fill_delay_max": 1_000_000_000},
          "budgets": {"watchdog_cycles": 2_000}}
#: (class, program pool, request fields) of the concurrent phase.
MIX = [
    ("taint", ["corpus:v1", "corpus:v4", "corpus:rsb"], {"tier": "taint"}),
    ("valueset", ["corpus:v1:fenced", "corpus:v2", "corpus:rsb"],
     {"tier": "valueset"}),
    ("symx", ["corpus:v1", "corpus:v2", "corpus:v4"], {"tier": "symx"}),
    ("tight", ["corpus:v1", "corpus:v4"],
     {"tier": "symx", "budgets": {"wall_clock": 0.0005}}),
    ("simulate", ["corpus:v2", "corpus:rsb"],
     {"kind": "simulate", "budgets": {"max_cycles": 50_000}}),
    ("poisoned", ["corpus:v1"], POISON),
]
CLIENTS, SEED = 4, 23


class SmokeClient(ServeClient):
    """Records every 429 it receives in :data:`SHED`."""

    def request(self, method, path, body=None):
        response = super().request(method, path, body)
        if response.shed:
            SHED.append(response.payload.get("reason"))
        return response


def check(condition, label):
    marker = "ok" if condition else "FAIL"
    print(f"  [{marker}] {label}")
    if not condition:
        FAILURES.append(label)


def drive(client_id, batch, outcomes):
    """Submit ``batch`` in order as ``client_id``, waiting on each."""
    client = SmokeClient(port=PORT, timeout=30.0)
    for name, body in batch:
        try:
            response, result = client.submit_and_wait(
                dict(body, client=client_id), timeout=60.0)
        except ServeError as exc:
            outcomes.append((name, 0, f"{type(exc).__name__}: {exc}"))
        else:
            outcomes.append((name, response.status, result))


def concurrent_phase():
    """Every traffic class from several clients at once."""
    rng = random.Random(SEED)
    outcomes = []
    threads = []
    for index in range(CLIENTS):
        batch = [(name, dict(fields, spec=rng.choice(specs)))
                 for name, specs, fields in MIX]
        rng.shuffle(batch)
        threads.append(threading.Thread(
            target=drive, args=(f"mixed-{index}", batch, outcomes),
            daemon=True))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=90.0)
    # Each request is answered with a non-error result or shed; a
    # transport error, a 5xx or a "status": "error" result is neither.
    failed = [outcome for outcome in outcomes if outcome[1] != 429
              and (not isinstance(outcome[2], dict)
                   or outcome[2].get("status") == "error")]
    check(len(outcomes) == CLIENTS * len(MIX) and not failed,
          f"concurrent: {len(outcomes)} requests, failed: "
          f"{str(failed)[:300]}")
    check(all(result.get("degraded") for name, _, result in outcomes
              if name in ("tight", "poisoned") and isinstance(result, dict)),
          "concurrent: tight and poisoned answers degraded")


def main():
    started = time.monotonic()
    journal = os.path.join(tempfile.mkdtemp(prefix="repro-serve-"),
                           "jobs.jsonl")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(__file__), "..", "src")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", str(PORT), "--workers", "2",
         "--rate", "30", "--burst", "20",
         "--checkpoint", journal, "--drain-grace", "60"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    try:
        client = SmokeClient(port=PORT, timeout=30.0)
        client.wait_healthy(15.0)
        check(True, "daemon healthy")

        # 2. Sync tier correctness.
        _, unsafe = client.submit_and_wait(
            {"spec": "corpus:v1", "tier": "taint", "client": "smoke"})
        _, fenced = client.submit_and_wait(
            {"spec": "corpus:v1:fenced", "tier": "taint",
             "client": "smoke"})
        check(unsafe and unsafe["status"] == "ok"
              and unsafe["taint"]["findings"], "v1 gadget flagged")
        check(fenced and fenced["status"] == "ok"
              and not fenced["taint"]["findings"],
              "fenced v1 clean")

        # 3 + 4. Background certification and the duplicate pair.
        body = {"spec": "corpus:v1", "tier": "symx", "client": "smoke"}
        first = client.submit(body)
        job_id = first.payload["job_id"]
        view = client.wait(job_id, timeout=60.0)
        result = view["result"]
        check(result["symx"]["verdict"] == "LEAKY"
              and not result["degraded"], "symx verdict LEAKY")
        dup = client.submit(body)
        check(dup.payload.get("cached") is True
              and dup.payload.get("state") == "done",
              "duplicate submission cache-served")

        # 5. Impossible budget -> tagged degradation, instantly.
        _, tight = client.submit_and_wait(
            {"spec": "corpus:v2", "tier": "symx",
             "budgets": {"wall_clock": 0.0005}, "client": "smoke"},
            timeout=60.0)
        check(tight and tight["degraded"]
              and tight["tier_answered"] == "valueset"
              and tight["symx"]["verdict"] == "UNKNOWN",
              "tight budget degrades to valueset")

        # 6. Poisoned program: degraded deadlock, pool survives.
        _, poisoned = client.submit_and_wait(
            dict(POISON, spec="corpus:v1", client="smoke"), timeout=60.0)
        check(poisoned and poisoned["degraded"]
              and poisoned["warnings"][0]["kind"] == "deadlock",
              "poisoned job degrades to deadlock report")
        check(client.health().ok, "pool healthy after poison")
        _, after = client.submit_and_wait(
            {"spec": "corpus:v2", "tier": "taint", "client": "smoke"})
        check(after is not None and after["status"] == "ok",
              "work still served after poison")

        # 7. Hot client shed with explicit 429s.
        for _ in range(60):
            if client.submit({"spec": "corpus:v1", "tier": "taint",
                              "client": "hot"}).shed:
                break
        check("rate_limited" in SHED, "hot client rate-limited")

        # 8. Every traffic class from concurrent clients.
        concurrent_phase()

        # 9. The journal holds the background jobs durably, and the
        # daemon's counters match what the clients saw.
        _, jobs = JobStore(journal).snapshot()
        check(any(j.submission.tier.value == "symx"
                  for j in jobs.values()),
              "journal records background jobs")

        stats = client.stats()
        check(stats["server"]["errors"] == 0, "zero unhandled errors")
        check(set(SHED) <= {"rate_limited", "queue_full"},
              f"every 429 names its reason {sorted(map(str, set(SHED)))}")
        check(stats["admission"]["shed"] == len(SHED),
              f"shed accounting: the daemon counts "
              f"{stats['admission']['shed']}, clients saw {len(SHED)}")

        # 10. Clean SIGTERM drain.
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=90)
        except subprocess.TimeoutExpired:
            check(False, "drained within grace")
        else:
            check(daemon.returncode == 0, "drain exit code 0")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        output = daemon.stdout.read() if daemon.stdout else ""
        if output:
            print("--- daemon output ---")
            print(output.rstrip())

    elapsed = time.monotonic() - started
    print(f"serve smoke: {elapsed:.1f}s, "
          f"{len(FAILURES)} failure(s)")
    check(elapsed < 120, "finished under two minutes")
    if FAILURES:
        for failure in FAILURES:
            print(f"FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
