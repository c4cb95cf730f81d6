"""Unit tests for the serve job model: hashing, coalescing, bounds.

Everything here drives :class:`JobManager` with fake runners — no
graphs, no replay — so the scheduling invariants are tested in
milliseconds.
"""

import threading
import time

import pytest

from repro.errors import SimulationError
from repro.serve.jobs import JobManager, JobSpec, QueueFullError, job_key


#: Field values a client can send that no run could use.
JUNK_FIELDS = [
    {"scale": "abc"}, {"scale": "inf"}, {"scale": float("nan")},
    {"scale": 0}, {"scale": -1.0}, {"scale": None}, {"scale": True},
    {"num_cores": 0}, {"num_cores": "abc"}, {"num_cores": 2.5},
    {"num_cores": True}, {"chunk_size": -4}, {"chunk_size": "32"},
    {"algorithm": "nosuch"}, {"backend": "nosuch"},
]


class TestJobSpec:
    def test_from_dict_defaults(self):
        spec = JobSpec.from_dict({"dataset": "lj", "algorithm": "pagerank"})
        assert spec.backend == "omega"
        assert spec.scale == 1.0
        assert spec.num_cores == 16
        assert spec.chunk_size == 32
        assert dict(spec.alg_kwargs) == {}

    def test_from_dict_rejects_junk(self):
        with pytest.raises(SimulationError):
            JobSpec.from_dict({"algorithm": "pagerank"})  # no dataset
        with pytest.raises(SimulationError):
            JobSpec.from_dict({"dataset": "lj", "algorithm": "bfs",
                               "bogus": 1})
        with pytest.raises(SimulationError):
            JobSpec.from_dict([1, 2])
        for junk in JUNK_FIELDS:
            with pytest.raises(SimulationError):
                JobSpec.from_dict({"dataset": "lj", "algorithm": "pagerank",
                                   **junk})

    def test_from_dict_accepts_numeric_scale_strings(self):
        spec = JobSpec.from_dict({"dataset": "lj", "algorithm": "pagerank",
                                  "scale": "0.5"})
        assert spec.scale == 0.5

    def test_wait_is_transport_not_spec(self):
        a = JobSpec.from_dict({"dataset": "lj", "algorithm": "bfs"})
        b = JobSpec.from_dict({"dataset": "lj", "algorithm": "bfs",
                               "wait": True})
        assert a == b


class TestJobKey:
    def test_identical_specs_collide(self):
        a = JobSpec("lj", "pagerank", alg_kwargs={"x": 1, "y": 2})
        b = JobSpec("lj", "pagerank", alg_kwargs={"y": 2, "x": 1})
        assert job_key(a) == job_key(b)

    def test_any_field_perturbs_the_key(self):
        base = JobSpec("lj", "pagerank")
        for other in (
            JobSpec("sd", "pagerank"),
            JobSpec("lj", "bfs"),
            JobSpec("lj", "pagerank", backend="baseline"),
            JobSpec("lj", "pagerank", scale=0.5),
            JobSpec("lj", "pagerank", num_cores=8),
            JobSpec("lj", "pagerank", chunk_size=64),
            JobSpec("lj", "pagerank", alg_kwargs={"source": 1}),
        ):
            assert job_key(base) != job_key(other)

    def test_uncacheable_kwargs_rejected(self):
        spec = JobSpec("lj", "pagerank", alg_kwargs={"bad": [1, 2]})
        with pytest.raises(SimulationError):
            job_key(spec)


def _instant_runner(spec, progress):
    progress("compute")
    return {"dataset": spec.dataset, "algorithm": spec.algorithm}


class TestJobManager:
    def test_cold_then_warm(self):
        mgr = JobManager(_instant_runner, workers=1)
        spec = JobSpec("lj", "pagerank")
        state, job, manifest = mgr.submit(spec)
        assert state == "cold" and manifest is None
        assert mgr.wait(job, timeout=10)
        assert job.status == "done"
        assert job.manifest == {"dataset": "lj", "algorithm": "pagerank"}
        assert job.progress == ["compute"]

        state, job2, manifest = mgr.submit(spec)
        assert state == "warm" and job2 is None
        assert manifest == job.manifest
        stats = mgr.stats()
        assert stats["computed"] == 1 and stats["warm"] == 1
        mgr.shutdown()

    def test_concurrent_identical_requests_coalesce(self):
        release = threading.Event()
        calls = []

        def gated_runner(spec, progress):
            calls.append(spec)
            assert release.wait(timeout=10)
            return {"ok": True}

        mgr = JobManager(gated_runner, workers=2)
        spec = JobSpec("lj", "pagerank")
        state1, job1, _ = mgr.submit(spec)
        state2, job2, _ = mgr.submit(spec)
        state3, job3, _ = mgr.submit(spec)
        assert state1 == "cold"
        assert state2 == state3 == "coalesced"
        assert job2 is job1 and job3 is job1
        assert job1.clients == 3
        release.set()
        assert mgr.wait(job1, timeout=10)
        assert len(calls) == 1  # one computation served three requests
        assert mgr.stats()["coalesced"] == 2
        mgr.shutdown()

    def test_queue_bound_rejects_with_queue_full(self):
        release = threading.Event()

        def gated_runner(spec, progress):
            assert release.wait(timeout=10)
            return {}

        mgr = JobManager(gated_runner, workers=1, queue_depth=2)
        mgr.submit(JobSpec("a", "pagerank"))
        _, second, _ = mgr.submit(JobSpec("b", "pagerank"))
        with pytest.raises(QueueFullError):
            mgr.submit(JobSpec("c", "pagerank"))
        assert mgr.stats()["rejected"] == 1
        # A duplicate of a live job still coalesces while the queue is
        # full — coalescing creates no new job.
        state, _, _ = mgr.submit(JobSpec("a", "pagerank"))
        assert state == "coalesced"
        release.set()
        assert mgr.wait(second, timeout=10)
        # Draining the queue re-opens admission.
        for _ in range(100):
            if mgr.stats()["live_jobs"] == 0:
                break
            time.sleep(0.05)
        state, job, _ = mgr.submit(JobSpec("c", "pagerank"))
        assert state == "cold"
        assert mgr.wait(job, timeout=10)
        mgr.shutdown()

    def test_failed_job_reports_error_and_frees_the_key(self):
        attempts = []

        def flaky_runner(spec, progress):
            attempts.append(1)
            if len(attempts) == 1:
                raise ValueError("boom")
            return {"ok": True}

        mgr = JobManager(flaky_runner, workers=1)
        spec = JobSpec("lj", "pagerank")
        _, job, _ = mgr.submit(spec)
        assert mgr.wait(job, timeout=10)
        assert job.status == "failed"
        assert "boom" in job.error
        assert mgr.stats()["failed"] == 1
        # Failures are not cached: the next request recomputes.
        state, job2, _ = mgr.submit(spec)
        assert state == "cold"
        assert mgr.wait(job2, timeout=10)
        assert job2.status == "done"
        mgr.shutdown()

    def test_warm_cache_is_bounded_lru(self):
        mgr = JobManager(_instant_runner, workers=1, warm_capacity=2)
        specs = [JobSpec(f"d{i}", "pagerank") for i in range(3)]
        for spec in specs:
            _, job, _ = mgr.submit(spec)
            assert mgr.wait(job, timeout=10)
        assert mgr.stats()["warm_entries"] == 2
        # The oldest key was evicted; resubmitting it computes again.
        state, job, _ = mgr.submit(specs[0])
        assert state == "cold"
        assert mgr.wait(job, timeout=10)
        mgr.shutdown()

    def test_snapshot_shapes(self):
        mgr = JobManager(_instant_runner, workers=1)
        _, job, _ = mgr.submit(JobSpec("lj", "pagerank"))
        assert mgr.wait(job, timeout=10)
        snap = job.snapshot()
        assert snap["status"] == "done"
        assert snap["spec"]["dataset"] == "lj"
        assert snap["manifest"] == job.manifest
        assert mgr.get(job.id) is job
        assert mgr.get("nope") is None
        mgr.shutdown()
