"""End-to-end `repro serve` tests over a real ephemeral-port server.

One workload (the sd stand-in at half scale) is submitted three ways —
cold, coalesced while the cold run is in flight, and warm after it
finishes — and the served manifest is checked bit-identical (in all
simulated fields) to a direct ``run_system`` call on the same spec.
"""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.context import RunContext, RunRequest
from repro.serve import JobManager, make_server, make_system_runner
from repro.serve.server import MAX_BODY_BYTES, _Handler
from repro.store import TraceStore

from tests.serve.test_jobs import JUNK_FIELDS

DATASET = "sd"
SCALE = 0.5


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = TraceStore(tmp_path_factory.mktemp("serve-store"))
    context = RunContext(store=store)
    manager = JobManager(
        make_system_runner(context), workers=2, queue_depth=4
    )
    srv = make_server(port=0, manager=manager)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)


def _url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _get(server, path):
    try:
        with urllib.request.urlopen(_url(server, path), timeout=60) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _post(server, body, timeout=300):
    req = urllib.request.Request(
        _url(server, "/v1/jobs"),
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _strip_host_fields(manifest):
    doc = {
        k: v for k, v in manifest.items()
        if k not in ("telemetry", "trace_cache")
    }
    replay = dict(doc.get("replay") or {})
    for key in ("seconds", "events_per_second", "peak_rss_bytes"):
        replay.pop(key, None)
    doc["replay"] = replay
    return doc


def test_health_and_unknown_routes(server):
    assert _get(server, "/healthz") == (200, {"ok": True})
    status, _ = _get(server, "/nope")
    assert status == 404
    status, _ = _get(server, "/v1/jobs/doesnotexist")
    assert status == 404


def test_bad_specs_get_400(server):
    assert _post(server, {"dataset": DATASET})[0] == 400  # no algorithm
    assert _post(server, {"dataset": DATASET, "algorithm": "pagerank",
                          "bogus": 1})[0] == 400
    assert _post(server, {"dataset": DATASET, "algorithm": "pagerank",
                          "alg_kwargs": {"bad": [1]}})[0] == 400
    submitted = _get(server, "/v1/stats")[1]["submitted"]
    for junk in JUNK_FIELDS:
        status, doc = _post(server, {"dataset": DATASET,
                                     "algorithm": "pagerank", **junk})
        assert (status, "error" in doc) == (400, True), junk
    assert _get(server, "/v1/stats")[1]["submitted"] == submitted  # none queued


def _raw_post_status(server, content_length, body=b""):
    """Status code answering a POST that states ``content_length`` and
    sends ``body`` (0 when the server drops the connection instead)."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(
            "POST /v1/jobs HTTP/1.1\r\nHost: repro\r\n"
            f"Content-Length: {content_length}\r\n\r\n".encode() + body
        )
        line = sock.makefile("rb").readline().split()
    return int(line[1]) if len(line) > 1 else 0


@pytest.mark.parametrize("length, status", [
    ("abc", 400), ("1.5", 400),
    (MAX_BODY_BYTES + 1, 413), (2**62, 413), (2**70, 413),
], ids=["letters", "decimal", "cap+1", "2**62", "2**70"])
def test_bad_content_length_gets_4xx(server, length, status):
    submitted = _get(server, "/v1/stats")[1]["submitted"]
    assert _raw_post_status(server, length) == status
    assert _get(server, "/v1/stats")[1]["submitted"] == submitted


def test_short_body_gets_408(server, monkeypatch):
    # A body shorter than its Content-Length must not park the handler
    # thread until the client gives up.
    monkeypatch.setattr(_Handler, "timeout", 0.2)
    submitted = _get(server, "/v1/stats")[1]["submitted"]
    assert _raw_post_status(server, 100, body=b"{}") == 408
    assert _get(server, "/v1/stats")[1]["submitted"] == submitted


def test_cold_coalesced_warm_lifecycle(server):
    spec = {"dataset": DATASET, "algorithm": "pagerank", "scale": SCALE,
            "num_cores": 4}

    # Cold: accepted asynchronously.
    status, doc = _post(server, spec)
    assert status == 202
    assert doc["state"] == "cold"
    job_id = doc["job_id"]

    # Identical request while the first is in flight: coalesced, and
    # waiting on it yields the manifest of the one shared computation.
    status, joined = _post(server, {**spec, "wait": True})
    assert status == 200
    assert joined["state"] == "coalesced"
    assert joined["status"] == "done"
    assert joined["job_id"] == job_id
    assert joined["clients"] == 2
    manifest = joined["manifest"]
    assert manifest["algorithm"] == "pagerank"
    # Progress streamed from the run's tracer spans.
    assert "load_dataset" in joined["progress"]
    assert any("replay" in p for p in joined["progress"])

    # Third request after completion: warm, no new job.
    status, warm = _post(server, spec)
    assert status == 200
    assert warm["state"] == "warm"
    assert warm["manifest"] == manifest

    # Status poll agrees.
    status, polled = _get(server, f"/v1/jobs/{job_id}")
    assert status == 200
    assert polled["status"] == "done"
    assert polled["manifest"] == manifest

    # Counters: exactly one computation for three requests.
    status, stats = _get(server, "/v1/stats")
    assert status == 200
    assert stats["computed"] == 1
    assert stats["coalesced"] == 1
    assert stats["warm"] == 1

    # The served manifest is bit-identical (simulated fields) to a
    # direct run_system call on the same spec.
    from repro.algorithms.registry import ALGORITHMS
    from repro.core.system import run_system
    from repro.graph.datasets import load_dataset

    info = ALGORITHMS["pagerank"]
    graph, _ = load_dataset(
        DATASET, scale=SCALE, weighted=info.requires_weights
    )
    direct = run_system(
        graph,
        request=RunRequest(
            algorithm="pagerank", dataset=DATASET, num_cores=4
        ),
        context=RunContext(),
    ).manifest()
    assert _strip_host_fields(manifest) == _strip_host_fields(direct)
