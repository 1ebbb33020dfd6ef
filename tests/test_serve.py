"""The sweep service (:mod:`repro.serve`).

Contract under test: request/response schemas round-trip and served
results are **byte-identical** (under canonical serialization) to the
serial path for the same spec, including under concurrent clients; the
bounded queue rejects overload with 429 and a draining server with 503;
a worker crash mid-request is absorbed by the pool's retry and the
response still matches serial; graceful shutdown finishes admitted
requests before the server exits.

Everything timing-dependent goes through event-based waits
(:mod:`tests.waiting`) or explicit gate events — no sleep races.
"""

import json
import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import sweep as sweep_module
from repro.engine.sweep import ExperimentEngine
from repro.golden.serialize import canonical_dumps
from repro.obs import validate_manifest
from repro.serve import (
    ProtocolError,
    ReproServer,
    identity_payload,
    parse_request,
    request_json,
    serial_reference,
)
from repro.serve import server as server_module
from tests.waiting import wait_until

#: Small sizes so a full request is ~0.1s; two apps also means two
#: trace groups, which is what routes a jobs=2 engine onto the pool.
SWEEP_BODY = {"points": ["Base", "M3D-Het"], "uops": 300, "apps": 2}

#: The unpatched worker entry point (same capture pattern as test_pool).
_REAL_TIMED_EXECUTE_UNIT = sweep_module._timed_execute_unit

#: REPRO_-prefixed so setting it respawns the pool: the workers that
#: fork afterwards see both the variable and the monkeypatched module.
_SENTINEL_ENV = "REPRO_TEST_SERVE_CRASH_SENTINEL"


def _crash_once_unit(unit):
    """Worker-side stand-in for ``sweep._timed_execute_unit``: one hard
    worker death mid-request, then the real implementation."""
    sentinel = os.environ[_SENTINEL_ENV]
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_TIMED_EXECUTE_UNIT(unit)


def _engine():
    return ExperimentEngine(jobs=1, cache_dir=None)


def _server(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("engine", _engine())
    kwargs.setdefault("warm_workers", False)
    return ReproServer(**kwargs)


class TestProtocol:
    def test_sweep_request_normalises_and_round_trips(self):
        request = parse_request("/sweep", dict(SWEEP_BODY))
        assert request["points"] == ["Base", "M3D-Het"]
        assert request["uops"] == 300 and request["apps"] == 2
        assert request["seed"] == 1234 and request["grid"] == 8
        assert request["multicore_uops"] is None
        # Parsing is idempotent: a normalised request re-parses to itself.
        assert parse_request("/sweep", request) == request

    def test_points_request_round_trips_design_points(self):
        from repro.design.registry import get_point

        spec = get_point("Base").to_dict()
        request = parse_request("/points", {"points": [spec], "uops": 300})
        assert request["points"] == [spec]
        assert parse_request("/points", request) == request

    def test_validate_request_defaults(self):
        request = parse_request("/validate", {"only": ["table11"]})
        assert request == {"only": ["table11"], "deep": False, "uops": None}

    @pytest.mark.parametrize("endpoint,body,match", [
        ("/sweep", {}, "points"),
        ("/sweep", {"points": ["NoSuchPoint"]}, "NoSuchPoint"),
        ("/sweep", {"points": [{"name": "x"}]}, "registered names"),
        ("/sweep", {"points": ["Base"], "uops": "many"}, "integer"),
        ("/sweep", {"points": ["Base"], "grid": 1}, "grid"),
        ("/sweep", {"points": ["Base"], "bogus": 1}, "unknown field"),
        ("/points", {"points": ["Base"]}, "DesignPoint"),
        ("/points", {"points": [{"nme": "x"}]}, "invalid DesignPoint"),
        ("/validate", {"only": ["nope"]}, "unknown golden artifact"),
        ("/validate", {"deep": "yes"}, "boolean"),
    ])
    def test_bad_requests_are_400(self, endpoint, body, match):
        with pytest.raises(ProtocolError, match=match) as excinfo:
            parse_request(endpoint, body)
        assert excinfo.value.status == 400

    def test_unknown_endpoint_is_404(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request("/nope", {})
        assert excinfo.value.status == 404


class TestServerBasics:
    def test_healthz_stats_and_errors(self):
        with _server() as server:
            status, body = request_json(server.port, "GET", "/healthz")
            assert status == 200 and body["status"] == "ok"
            assert body["queue_depth"] == 0

            status, body = request_json(server.port, "GET", "/stats")
            assert status == 200
            assert body["serve"]["requests"] == 0
            assert "cache" in body and "pool" in body
            assert set(body["process"]) == {"rss_kb", "open_fds", "threads",
                                            "shm_segments"}
            assert body["process"]["rss_kb"] > 0
            assert body["process"]["threads"] >= 2  # loop + caller

            status, body = request_json(server.port, "GET", "/nope")
            assert status == 404 and body["status"] == "error"
            status, body = request_json(server.port, "DELETE", "/sweep")
            assert status == 405
            status, body = request_json(
                server.port, "POST", "/sweep", {"points": ["NoSuchPoint"]})
            assert status == 400
            assert "NoSuchPoint" in body["error"]["message"]

    def test_response_schema_round_trip(self):
        with _server() as server:
            status, body = request_json(
                server.port, "POST", "/sweep", SWEEP_BODY)
            assert status == 200
            assert body["status"] == "ok" and body["endpoint"] == "/sweep"
            assert body["request"] == parse_request("/sweep", SWEEP_BODY)
            names = [ev["name"] for ev in body["results"]["evaluations"]]
            assert names == ["Base", "M3D-Het"]
            for ev in body["results"]["evaluations"]:
                assert set(ev) == {"name", "point", "ghz", "apps", "cpi",
                                   "speedup", "energy", "peak_c", "summary"}
            manifest = body["manifest"]
            assert validate_manifest(manifest) == []
            serve = manifest["serve"]
            assert serve["requests"] == 1 and serve["rejected"] == 0
            assert serve["service_seconds"] > 0
            assert 0.0 <= serve["cache_hit_ratio"] <= 1.0

    def test_manifests_are_per_request_deltas(self):
        """Response N must carry only its own telemetry, not the
        accumulated history of requests 1..N-1 (O(n^2) regression)."""
        with _server() as server:
            _, first = request_json(server.port, "POST", "/sweep", SWEEP_BODY)
            _, second = request_json(server.port, "POST", "/sweep",
                                     SWEEP_BODY)
            assert len(second["manifest"]["specs"]) \
                <= len(first["manifest"]["specs"])
            assert len(second["manifest"]["batches"]) \
                <= len(first["manifest"]["batches"])
            # The warm rerun was all cache hits: no new kernel work, and
            # the serve section says so.
            assert second["manifest"]["serve"]["cache_hit_ratio"] == 1.0
            assert second["manifest"]["kernel"]["batches"] == []
            assert validate_manifest(second["manifest"]) == []

    def test_warm_repeat_manifest_describes_only_itself(self):
        """The cache and kernel sections are the request's own, not the
        server's lifetime totals."""
        with _server() as server:
            request_json(server.port, "POST", "/sweep", SWEEP_BODY)
            _, warm = request_json(server.port, "POST", "/sweep", SWEEP_BODY)
        manifest = warm["manifest"]
        assert manifest["cache"]["misses"] == 0
        assert manifest["cache"]["stores"] == 0
        assert manifest["cache"]["memory_hits"] == 4
        assert manifest["kernel"]["summary"]["groups"] == 0

    def test_validation_section_stays_with_its_request(self):
        with _server() as server:
            status, validated = request_json(
                server.port, "POST", "/validate", {"only": ["table1"]})
            assert status == 200
            assert validated["manifest"]["validation"]["status"] == "pass"
            _, swept = request_json(server.port, "POST", "/sweep",
                                    SWEEP_BODY)
        assert "validation" not in swept["manifest"]

    def test_served_sweep_identical_to_serial(self):
        reference = serial_reference("/sweep", SWEEP_BODY, engine=_engine())
        with _server() as server:
            _, body = request_json(server.port, "POST", "/sweep", SWEEP_BODY)
        assert canonical_dumps(identity_payload(body)) \
            == canonical_dumps(reference)

    def test_served_points_identical_to_serial(self):
        from repro.design.registry import get_point

        spec = dict(get_point("M3D-Het").to_dict(), name="custom-het")
        body = {"points": [spec], "uops": 300, "apps": 2}
        reference = serial_reference("/points", body, engine=_engine())
        with _server() as server:
            status, served = request_json(
                server.port, "POST", "/points", body)
            assert status == 200
        assert canonical_dumps(identity_payload(served)) \
            == canonical_dumps(reference)


class TestConcurrentClients:
    def test_eight_clients_all_byte_identical_to_serial(self):
        bodies = [
            dict(SWEEP_BODY, seed=1234 + (i % 2)) for i in range(8)
        ]
        references = {
            seed: canonical_dumps(serial_reference(
                "/sweep", dict(SWEEP_BODY, seed=seed), engine=_engine()))
            for seed in (1234, 1235)
        }
        with _server(queue_size=16) as server:
            with ThreadPoolExecutor(max_workers=8) as clients:
                responses = list(clients.map(
                    lambda body: request_json(
                        server.port, "POST", "/sweep", body),
                    bodies))
            snapshot = server.stats.snapshot()
        assert [status for status, _ in responses] == [200] * 8
        for body, (_, served) in zip(bodies, responses):
            assert canonical_dumps(identity_payload(served)) \
                == references[body["seed"]]
        assert snapshot["requests"] == 8 and snapshot["errors"] == 0
        # Responses also agree with each other bit-for-bit per spec.
        by_seed = {}
        for body, (_, served) in zip(bodies, responses):
            results = canonical_dumps(served["results"])
            assert by_seed.setdefault(body["seed"], results) == results


class TestBackpressure:
    def test_queue_full_is_429_and_draining_is_503(self, monkeypatch):
        gate = threading.Event()
        started = threading.Event()

        def slow_execute(endpoint, request, engine=None):
            started.set()
            assert gate.wait(timeout=30)
            return {"evaluations": []}

        monkeypatch.setattr(server_module, "execute_request", slow_execute)
        with _server(queue_size=1) as server:
            with ThreadPoolExecutor(max_workers=2) as clients:
                # First request occupies the single service thread...
                first = clients.submit(request_json, server.port, "POST",
                                       "/sweep", SWEEP_BODY)
                assert started.wait(timeout=30)
                # ...second fills the queue's one slot...
                second = clients.submit(request_json, server.port, "POST",
                                        "/sweep", SWEEP_BODY)
                wait_until(lambda: server.stats.in_flight == 2)
                # ...so the third is rejected immediately, not parked.
                status, body = request_json(
                    server.port, "POST", "/sweep", SWEEP_BODY)
                assert status == 429
                assert "queue full" in body["error"]["message"]
                assert server.stats.snapshot()["rejected"] == 1
                gate.set()
                assert first.result()[0] == 200
                assert second.result()[0] == 200
            # Draining: admitted work finishes, new work is refused.
            status, _ = request_json(server.port, "POST", "/shutdown")
            assert status == 200
            server.wait(timeout=30)


class TestWorkerCrash:
    def test_worker_crash_mid_request_recovers_and_matches_serial(
            self, tmp_path, monkeypatch):
        reference = serial_reference("/sweep", SWEEP_BODY, engine=_engine())
        # Workers fork at pool (re)spawn; the REPRO_-prefixed sentinel
        # forces that respawn, so the forked workers carry the patched
        # _timed_execute_unit below (same discipline as test_pool).
        monkeypatch.delenv("REPRO_PERSISTENT_POOL", raising=False)
        sentinel = str(tmp_path / "crashed")
        monkeypatch.setenv(_SENTINEL_ENV, sentinel)
        monkeypatch.setattr(sweep_module, "_timed_execute_unit",
                            _crash_once_unit)
        engine = ExperimentEngine(jobs=2, cache_dir=None)
        with _server(engine=engine) as server:
            status, served = request_json(
                server.port, "POST", "/sweep", SWEEP_BODY)
        assert status == 200
        assert os.path.exists(sentinel)  # a worker really died mid-request
        assert canonical_dumps(identity_payload(served)) \
            == canonical_dumps(reference)


class TestGracefulShutdown:
    def test_drain_finishes_inflight_requests(self, monkeypatch):
        gate = threading.Event()
        started = threading.Event()

        def slow_execute(endpoint, request, engine=None):
            started.set()
            assert gate.wait(timeout=30)
            return {"evaluations": [{"name": "slow"}]}

        monkeypatch.setattr(server_module, "execute_request", slow_execute)
        server = _server(queue_size=4).start()
        try:
            with ThreadPoolExecutor(max_workers=1) as clients:
                inflight = clients.submit(request_json, server.port, "POST",
                                          "/sweep", SWEEP_BODY)
                assert started.wait(timeout=30)
                stopper = threading.Thread(
                    target=server.stop, kwargs={"drain": True})
                stopper.start()
                # The server is draining, not dead: the admitted request
                # is still running and must complete.
                wait_until(lambda: server._draining)
                assert not inflight.done()
                gate.set()
                status, body = inflight.result(timeout=30)
                stopper.join(timeout=30)
            assert status == 200
            assert body["results"]["evaluations"] == [{"name": "slow"}]
            assert server.wait(timeout=30)
            assert server.stats.snapshot()["requests"] == 1
        finally:
            gate.set()
            server.stop(drain=False)

    def test_shutdown_endpoint_stops_the_server(self):
        server = _server().start()
        status, body = request_json(server.port, "POST", "/shutdown")
        assert status == 200 and body["status"] == "draining"
        assert server.wait(timeout=30)

    def test_serve_section_aggregates(self):
        with _server() as server:
            request_json(server.port, "POST", "/sweep", SWEEP_BODY)
            section = server.serve_section()
        assert section["requests"] == 1 and section["rejected"] == 0
        assert section["service_seconds"] > 0
        # Round-trips through the manifest layer as schema v8.
        from repro.obs import attach_section, build_manifest, run_record

        with run_record() as record:
            attach_section("serve", section)
        manifest = build_manifest("test serve", record, engine=server.engine)
        assert manifest["serve"] == section
        assert validate_manifest(manifest) == []


class TestBoundedResources:
    """A long warm stream must not grow the server: no record list grows
    with the request count, RSS stays flat, and fds, threads and
    shared-memory segments come back to where they started."""

    REQUESTS = 2000
    BODY = {"points": ["Base"], "uops": 300, "apps": 1}
    #: 0.5 kB per request: half of what keeping every request's
    #: telemetry costs on this stream (about 1 kB per request).
    RSS_GROWTH_BOUND_KB = 1024

    def test_warm_stream_holds_bounded_resources(self):
        with _server() as server:
            def process():
                status, body = request_json(server.port, "GET", "/stats")
                assert status == 200
                return body["process"]

            def list_sizes():
                record = server.record
                return [len(record.batches), len(record.kernel_batches),
                        len(record.spec_timings), len(record.timers),
                        len(record.sections)]

            for _ in range(50):  # the cold request, then warm-up
                request_json(server.port, "POST", "/sweep", self.BODY)
            start = process()
            sizes = list_sizes()
            hits = server.record.cache["memory_hits"]
            for _ in range(self.REQUESTS):
                status, _ = request_json(server.port, "POST", "/sweep",
                                         self.BODY)
                assert status == 200
            assert list_sizes() == sizes == [0, 0, 0, 0, 0]
            # The requests did fold into the lifetime record.
            assert server.record.cache["memory_hits"] \
                == hits + self.REQUESTS

            def settled():
                # Connection teardown is asynchronous: poll, don't race.
                now = process()
                return now if all(
                    now[key] == start[key]
                    for key in ("open_fds", "threads", "shm_segments")
                ) else None

            end = wait_until(settled)
        assert end["rss_kb"] - start["rss_kb"] < self.RSS_GROWTH_BOUND_KB, \
            (start, end)


class TestHttpPlumbing:
    def test_invalid_json_body_is_400(self):
        import http.client

        with _server() as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=30)
            try:
                conn.request("POST", "/sweep", body=b"{not json",
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = json.loads(response.read().decode())
            finally:
                conn.close()
            assert response.status == 400
            assert "invalid JSON" in payload["error"]["message"]

    def test_oversized_body_is_413(self):
        with _server() as server:
            server.max_body_bytes = 64
            status, body = request_json(
                server.port, "POST", "/sweep",
                {"points": ["Base"], "junk_padding": "x" * 256})
            assert status == 413
