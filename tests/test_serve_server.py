"""End-to-end daemon behaviour: sync/background flow, single-flight
dedup, explicit shed, cancellation, graceful drain and — the big one —
kill-resume on the crash-safe job journal."""
import asyncio
import threading
import time

import pytest

from repro.serve import ReproServer, ServeClient, ServeConfig
from repro.serve.engine import strip_timing
from repro.serve.jobs import JobStore

#: A long-running simulate body the tests can cancel/coalesce against.
SLOW_SIM = {
    "asm": "loop:\naddi r1, r1, 1\njmp loop",
    "kind": "simulate",
    "budgets": {"max_cycles": 400_000_000,
                "watchdog_cycles": 300_000_000},
}


class ServerHarness:
    """Run a ReproServer on a private event loop in a daemon thread,
    exposing a blocking client to the test body."""

    def __init__(self, **config):
        config.setdefault("port", 0)
        config.setdefault("workers", 2)
        self.config = ServeConfig(**config)
        self.loop = asyncio.new_event_loop()
        self.server = None
        self._started = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        if not self._started.wait(10):
            raise RuntimeError("server failed to start")

    def _run(self):
        asyncio.set_event_loop(self.loop)

        async def main():
            self.server = ReproServer(self.config)
            await self.server.start()
            self._started.set()
            await self.server.serve_forever()

        self.loop.run_until_complete(main())
        self.loop.close()

    def client(self):
        return ServeClient(port=self.server.port, timeout=30.0)

    def _finish(self, coroutine, timeout=60):
        future = asyncio.run_coroutine_threadsafe(coroutine, self.loop)
        future.result(timeout=timeout)
        self.thread.join(timeout=10)

    def shutdown(self, timeout=60):
        self._finish(self.server.shutdown(), timeout)

    def abort(self, timeout=60):
        self._finish(self.server.abort(), timeout)


@pytest.fixture
def harness(request):
    started = []

    def factory(**config):
        instance = ServerHarness(**config)
        started.append(instance)
        return instance

    yield factory
    for instance in started:
        if not instance.server._stopped.is_set():
            try:
                instance.abort()
            except Exception:
                pass


class TestSyncFlow:
    def test_sync_answer_and_cache(self, harness):
        server = harness()
        client = server.client()
        first = client.submit({"spec": "corpus:v1", "tier": "taint"})
        assert first.status == 200
        assert first.payload["cached"] is False
        assert first.payload["result"]["taint"]["findings"]
        second = client.submit({"spec": "corpus:v1", "tier": "taint"})
        assert second.payload["cached"] is True
        server.shutdown()

    def test_malformed_submission_is_400(self, harness):
        server = harness()
        response = server.client().submit({"asm": "frobnicate"})
        assert response.status == 400
        assert "error" in response.payload
        server.shutdown()

    def test_unknown_paths_and_jobs_are_404(self, harness):
        server = harness()
        client = server.client()
        assert client.request("GET", "/nope").status == 404
        assert client.job("job-999999-cafebabe").status == 404
        server.shutdown()


class TestBackgroundJobs:
    def test_job_lifecycle(self, harness):
        server = harness()
        client = server.client()
        response = client.submit({"spec": "corpus:v1", "tier": "symx"})
        assert response.status == 202
        view = client.wait(response.payload["job_id"], timeout=60)
        assert view["result"]["symx"]["verdict"] == "LEAKY"
        server.shutdown()

    def test_duplicate_of_finished_job_is_cache_served(self, harness):
        server = harness()
        client = server.client()
        body = {"spec": "corpus:v1", "tier": "symx"}
        first = client.submit(body)
        client.wait(first.payload["job_id"], timeout=60)
        dup = client.submit(body)
        assert dup.payload["cached"] is True
        assert dup.payload["state"] == "done"
        view = client.job(dup.payload["job_id"])
        assert view.payload["state"] == "done"
        server.shutdown()

    def test_stats_reports_region_cache(self, harness):
        server = harness()
        client = server.client()
        response = client.submit({"spec": "corpus:v1", "tier": "symx"})
        client.wait(response.payload["job_id"], timeout=60)
        stats = client.request("GET", "/v1/stats")
        assert stats.status == 200
        region = stats.payload["region_cache"]
        assert region["stores"] >= 1
        server.shutdown()

    def test_concurrent_duplicates_coalesce(self, harness):
        server = harness(workers=1)
        client = server.client()
        first = client.submit(SLOW_SIM)
        second = client.submit(SLOW_SIM)
        assert second.payload.get("coalesced") is True
        assert second.payload["job_id"] == first.payload["job_id"]
        assert server.server.stats.coalesced == 1
        client.cancel(first.payload["job_id"])
        client.wait(first.payload["job_id"], timeout=30)
        server.shutdown()

    def test_cancel_running_job(self, harness):
        server = harness(workers=1)
        client = server.client()
        job_id = client.submit(SLOW_SIM).payload["job_id"]
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if client.job(job_id).payload["state"] == "running":
                break
            time.sleep(0.02)
        response = client.cancel(job_id)
        assert response.ok
        view = client.wait(job_id, timeout=30)
        assert view["result"]["cancelled"] is True
        # A cancelled result must not satisfy future submissions.
        retry = client.submit(SLOW_SIM)
        assert retry.payload.get("cached") is not True
        client.cancel(retry.payload["job_id"])
        client.wait(retry.payload["job_id"], timeout=30)
        server.shutdown()

    def test_cancel_queued_job(self, harness):
        server = harness(workers=1)
        client = server.client()
        running = client.submit(SLOW_SIM).payload["job_id"]
        queued_body = dict(SLOW_SIM,
                           budgets={"max_cycles": 400_000_001,
                                    "watchdog_cycles": 300_000_000})
        queued = client.submit(queued_body).payload["job_id"]
        response = client.cancel(queued)
        assert response.ok
        assert client.job(queued).payload["state"] == "done"
        assert client.job(queued).payload["result"]["cancelled"] is True
        client.cancel(running)
        client.wait(running, timeout=30)
        server.shutdown()


class TestShedding:
    def test_rate_limit_shed_is_explicit(self, harness):
        server = harness(rate=5.0, burst=3.0)
        client = server.client()
        responses = [
            client.submit({"spec": "corpus:v1", "tier": "taint",
                           "client": "hot"})
            for _ in range(10)
        ]
        shed = [r for r in responses if r.shed]
        assert shed
        assert all(r.payload["reason"] == "rate_limited" for r in shed)
        server.shutdown()

    def test_queue_bound_shed(self, harness):
        server = harness(workers=1, queue_depth=1)
        client = server.client()
        first = client.submit(SLOW_SIM)  # occupies the worker
        bodies = [
            dict(SLOW_SIM, budgets={"max_cycles": 400_000_000 + i,
                                    "watchdog_cycles": 300_000_000})
            for i in range(1, 6)
        ]
        responses = [client.submit(dict(body, client=f"c{i}"))
                     for i, body in enumerate(bodies)]
        shed = [r for r in responses if r.shed]
        assert shed
        assert all(r.payload["reason"] == "queue_full" for r in shed)
        for job in [first] + [r for r in responses if r.ok]:
            job_id = job.payload["job_id"]
            client.cancel(job_id)
            client.wait(job_id, timeout=30)
        server.shutdown()


class TestDrain:
    def test_drain_finishes_queued_work(self, harness, tmp_path):
        server = harness(
            checkpoint=str(tmp_path / "jobs.jsonl"), workers=1)
        client = server.client()
        job_id = client.submit(
            {"spec": "corpus:v1", "tier": "symx"}).payload["job_id"]
        server.shutdown()
        # The job finished (durably) before the server stopped.
        _, jobs = JobStore(str(tmp_path / "jobs.jsonl")).snapshot()
        assert jobs[job_id].done
        assert jobs[job_id].result["symx"]["verdict"] == "LEAKY"

    def test_draining_rejects_new_submissions(self, harness):
        server = harness(workers=1, drain_grace=30.0)
        client = server.client()
        slow = client.submit(SLOW_SIM).payload["job_id"]
        drain = asyncio.run_coroutine_threadsafe(
            server.server.shutdown(), server.loop)
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline \
                and not server.server.draining:
            time.sleep(0.01)
        # The listener is closed during drain: either the submit is
        # refused with 503 (raced the close) or the connection fails.
        try:
            response = client.submit(
                {"spec": "corpus:v1", "tier": "taint"})
            assert response.status == 503
        except Exception:
            pass
        try:
            client.cancel(slow)
        except Exception:
            pass
        # Grace period may outlast the cancel; force it through the
        # server object (the drain path sets cancel events itself
        # after grace, but the test should not wait 30s).
        for event in server.server._cancels.values():
            event.set()
        drain.result(timeout=60)


class TestKillResume:
    def test_killed_server_resumes_and_converges(self, harness,
                                                 tmp_path):
        journal = str(tmp_path / "jobs.jsonl")
        server = harness(checkpoint=journal, workers=1)
        client = server.client()

        done_body = {"spec": "corpus:v1", "tier": "symx"}
        done_id = client.submit(done_body).payload["job_id"]
        done_view = client.wait(done_id, timeout=60)

        pending = [
            client.submit({"spec": spec, "tier": "symx"}
                          ).payload["job_id"]
            for spec in ("corpus:v2", "corpus:v4", "corpus:rsb")
        ]
        server.abort()  # kill -9, as close as a live object gets

        # Restart on the same journal.
        revived = harness(checkpoint=journal, workers=2)
        client2 = revived.client()
        assert revived.server.stats.jobs_recovered >= 4

        # Finished work survived byte-for-byte (modulo timing).
        recovered = client2.wait(done_id, timeout=60)
        assert strip_timing(recovered["result"]) == \
            strip_timing(done_view["result"])

        # Interrupted work re-ran to completion...
        views = {job_id: client2.wait(job_id, timeout=120)
                 for job_id in pending}
        assert all(v["state"] == "done" for v in views.values())

        # ...and converged on the same answers a never-killed server
        # gives for the same submissions.
        reference = harness(workers=2)
        ref_client = reference.client()
        for job_id, spec in zip(pending,
                                ("corpus:v2", "corpus:v4",
                                 "corpus:rsb")):
            ref_id = ref_client.submit(
                {"spec": spec, "tier": "symx"}).payload["job_id"]
            ref_view = ref_client.wait(ref_id, timeout=120)
            assert strip_timing(views[job_id]["result"]) == \
                strip_timing(ref_view["result"]), spec
        reference.shutdown()
        revived.shutdown()

    def test_journal_lock_is_exclusive(self, harness, tmp_path):
        journal = str(tmp_path / "jobs.jsonl")
        server = harness(checkpoint=journal)
        from repro.robustness.checkpoint import CheckpointWriterConflict
        with pytest.raises(CheckpointWriterConflict):
            JobStore(journal).open()
        server.shutdown()

    def test_foreign_checkpoint_is_left_alone(self, tmp_path):
        from repro.robustness.checkpoint import (CheckpointError,
                                                 CheckpointStore)
        path = tmp_path / "sweep.jsonl"
        with CheckpointStore(str(path)) as store:
            store.reset({"benchmarks": ["hmmer"], "scale": 0.02})
            store.append("hmmer/origin", {"status": "ok"})
        before = path.read_bytes()
        with pytest.raises(CheckpointError, match="not a job journal"):
            JobStore(str(path)).open()
        assert path.read_bytes() == before
        with CheckpointStore(str(path)):
            pass  # the writer lock was released
