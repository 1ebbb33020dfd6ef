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

import collections
import dataclasses
import importlib
import json
import os
import select
import signal
import socket
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import cache as cache_module
from repro.engine import sweep as sweep_module
from repro.engine.sweep import ExperimentEngine
from repro.golden.serialize import canonical_dumps
from repro.lru import LruMemo
from repro.obs import ModelDisagreementWarning, validate_manifest
from repro.power.core_power import CorePowerModel
from repro.serve import (
    ProtocolError,
    ReproServer,
    execute_request,
    identity_payload,
    parse_request,
    request_json,
    serial_reference,
)
from repro.serve import protocol
from repro.serve import server as server_module
from repro.thermal import hotspot
from tests.references import spec_reference_key, workloads
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
    return ReproServer(**kwargs)


def _fresh_memos(monkeypatch, cap=None):
    """Empty content-key and request-plan memos for one test (the module
    memos outlive tests within a worker process)."""
    monkeypatch.setattr(cache_module, "_PART_JSON",
                        LruMemo(cap or cache_module._PART_JSON.cap))
    monkeypatch.setattr(protocol, "_PLANS",
                        LruMemo(cap or protocol._PLANS.cap))


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
            assert set(body["process"]) == {"rss_kb", "open_fds", "threads"}
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

    #: Two points per endpoint that resolve to one config name.
    CLASHES = [
        ("/sweep", ["M3D-Het", "M3D-Het-4C"], "'M3D-Het' and 'M3D-Het-4C' "
                                             "both resolve to config name "
                                             "'M3D-Het'"),
        ("/points", [{"name": "clash-a", "config_name": "clash",
                      "stack": "M3D"},
                     {"name": "clash-b", "config_name": "clash",
                      "stack": "M3D", "top_layer_slowdown": 0.1}],
         "'clash-a' and 'clash-b' both resolve to config name 'clash'"),
    ]

    @pytest.mark.parametrize("endpoint,points,names", CLASHES)
    def test_config_name_clash_is_400(self, endpoint, points, names):
        body = {"points": points, "uops": 300, "apps": 1}
        with _server() as server:
            status, reply = request_json(server.port, "POST", endpoint, body)
        assert status == 400
        assert reply["error"]["message"] \
            == f"points {names}; rename one"


#: The benchmark's ``serve_warm`` bodies, parsed.
WARM_REQUESTS = [(endpoint, parse_request(endpoint, body))
                 for endpoint, body in workloads.serve_bodies(1234)]


@pytest.fixture(scope="module")
def warm_engine():
    """An engine whose result cache already holds every simulation of the
    ``serve_warm`` bodies."""
    engine = _engine()
    for endpoint, request in WARM_REQUESTS:
        execute_request(endpoint, request, engine)
    return engine


class TestWarmRequests:
    """A warm request simulates nothing, and a repeat is answered from its
    request plan, so it rebuilds nothing either: it pays for lookups."""

    def test_warm_repeat_canonicalises_and_solves_nothing(
            self, warm_engine, monkeypatch):
        _fresh_memos(monkeypatch)
        canonicalised = []
        solves = []
        real_canonical = cache_module._canonical
        real_solve = hotspot.solve_floorplans

        def counting_canonical(value):
            if dataclasses.is_dataclass(value):
                canonicalised.append(type(value).__name__)
            return real_canonical(value)

        def counting_solve(*args, **kwargs):
            solves.append(args)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(cache_module, "_canonical", counting_canonical)
        monkeypatch.setattr(hotspot, "solve_floorplans", counting_solve)
        with _server(engine=warm_engine) as server:
            first = [request_json(server.port, "POST", endpoint, request)
                     for endpoint, request in WARM_REQUESTS]
            assert canonicalised and len(solves) == 24
            del canonicalised[:], solves[:]
            repeat = [request_json(server.port, "POST", endpoint, request)
                      for endpoint, request in WARM_REQUESTS]
        assert canonicalised == [] and solves == []
        for (status, body), (_, again) in zip(first, repeat):
            assert status == 200
            assert body["manifest"]["serve"]["cache_hit_ratio"] == 1.0
            assert identity_payload(again) == identity_payload(body)

    def test_body_spec_keys_match_reference(self, warm_engine, monkeypatch):
        _fresh_memos(monkeypatch)
        specs = []
        real_submit = warm_engine.submit_specs

        def capturing(batch, **kwargs):
            specs.extend(batch)
            return real_submit(batch, **kwargs)

        monkeypatch.setattr(warm_engine, "submit_specs", capturing)
        for endpoint, request in WARM_REQUESTS:
            execute_request(endpoint, request, warm_engine)
        assert len(specs) == 40
        for _ in range(2):  # built, then served from the memo
            for spec in specs:
                assert spec.cache_key() == spec_reference_key(spec)

    def test_plan_hit_asks_the_engine_and_rebuilds_nothing(
            self, warm_engine, monkeypatch):
        """A repeat submits each group once, so its manifest is the
        previous warm response's, yet it canonicalises, solves and
        prices nothing."""
        _fresh_memos(monkeypatch)
        calls = collections.Counter()

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for owner, attribute in ((cache_module, "_canonical"),
                                 (hotspot, "solve_floorplans"),
                                 (CorePowerModel, "evaluate"),
                                 (warm_engine, "submit_specs")):
            monkeypatch.setattr(owner, attribute, counting(
                attribute, getattr(owner, attribute)))
        with _server(engine=warm_engine) as server:
            for endpoint, request in WARM_REQUESTS:
                calls.clear()
                _, warm = request_json(server.port, "POST", endpoint, request)
                built = dict(calls)
                calls.clear()
                _, repeat = request_json(server.port, "POST", endpoint,
                                         request)
                assert built["evaluate"] and built["solve_floorplans"] \
                    and built["_canonical"]
                assert calls == {"submit_specs": built["submit_specs"]}
                for section in ("cache", "specs", "counters"):
                    assert repeat["manifest"][section] \
                        == warm["manifest"][section]
                assert identity_payload(repeat) == identity_payload(warm)


class TestDisagreementWarnings:
    """Each disagreement names its point, so a stream of distinct points
    must not leave one warnings-registry entry per message behind."""

    #: Point #2 of the benchmark's explore space: the cycle and interval
    #: models disagree on Calculix for it.
    POINT = {"stack": "M3D", "top_layer_slowdown": 0.17, "vdd": 0.9,
             "issue_width": 4, "dispatch_width": 4, "commit_width": 4,
             "frequency_policy": "derived"}
    REQUESTS = 60

    def _body(self, index):
        return {"points": [dict(self.POINT, name=f"disagree-{index}")],
                "uops": 1000, "apps": 3, "seed": 1234}

    def test_distinct_points_leave_the_registry_flat(self):
        design_sweep = importlib.import_module("repro.design.sweep")

        def registry_size():
            return len(getattr(design_sweep, "__warningregistry__", {}))

        with _server() as server, \
                warnings.catch_warnings(record=True) as caught:
            # The interpreter's default action, which keeps a registry.
            warnings.filterwarnings("default",
                                    category=ModelDisagreementWarning)
            status, _ = request_json(server.port, "POST", "/points",
                                     self._body(0))
            assert status == 200
            before = registry_size()
            for index in range(1, self.REQUESTS + 1):
                status, _ = request_json(server.port, "POST", "/points",
                                         self._body(index))
                assert status == 200
            after = registry_size()
        assert after == before
        messages = " ".join(
            str(w.message) for w in caught
            if issubclass(w.category, ModelDisagreementWarning))
        for index in range(self.REQUESTS + 1):
            assert f"disagree-{index}/Calculix" in messages


class TestPlanMemo:
    """A repeat is answered from its request's plan only while the
    registry and the engine's results are what the plan was built from."""

    def test_reregistered_name_misses_its_plan(self, monkeypatch):
        from repro.design.registry import get_point, register, unregister

        _fresh_memos(monkeypatch)
        name = "plan-reregistered"
        body = {"points": ["Base", name], "uops": 300, "apps": 2}
        register(dataclasses.replace(get_point("M3D-Het"), name=name))
        try:
            with _server() as server:
                _, first = request_json(server.port, "POST", "/sweep", body)
                register(dataclasses.replace(get_point("TSV3D"), name=name),
                         replace=True)
                status, served = request_json(server.port, "POST", "/sweep",
                                              body)
            assert status == 200
            reference = serial_reference("/sweep", body, engine=_engine())
            assert canonical_dumps(identity_payload(served)) \
                == canonical_dumps(reference)
            assert served["results"] != first["results"]
            unregister(name)
            with pytest.raises(KeyError, match=name):
                execute_request("/sweep", served["request"], _engine())
        finally:
            unregister(name)

    def test_emptied_result_cache_finishes_from_fresh_results(
            self, monkeypatch):
        _fresh_memos(monkeypatch)
        engine = _engine()
        with _server(engine=engine) as server:
            request_json(server.port, "POST", "/sweep", SWEEP_BODY)
            engine.cache.clear_memory()
            status, served = request_json(server.port, "POST", "/sweep",
                                          SWEEP_BODY)
        assert status == 200
        reference = serial_reference("/sweep", SWEEP_BODY, engine=_engine())
        assert canonical_dumps(identity_payload(served)) \
            == canonical_dumps(reference)
        # Finished from the results the one submission fetched, not
        # submitted a second time.
        manifest = served["manifest"]
        assert len(manifest["batches"]) == 1
        assert manifest["cache"]["misses"] == len(manifest["specs"]) == 4

    def test_payload_follows_the_results_the_engine_returns(
            self, monkeypatch):
        from repro.design.resolve import resolve
        from repro.engine.sweep import SimSpec
        from repro.workloads.spec import spec_profiles

        _fresh_memos(monkeypatch)
        engine = _engine()
        request = parse_request("/sweep", SWEEP_BODY)
        first = execute_request("/sweep", request, engine)
        # Swap M3D-Het's first cached run for one of twice the cycles.
        key = SimSpec("single", resolve("M3D-Het").config, spec_profiles()[0],
                      request["uops"], request["seed"]).cache_key()
        hit, run = engine.cache.get(key)
        assert hit
        engine.cache.put_many(
            [(key, dataclasses.replace(run, cycles=2 * run.cycles))])
        second = execute_request("/sweep", request, engine)
        [_, het] = second["evaluations"]
        assert het["cpi"][0] == 2 * first["evaluations"][1]["cpi"][0]
        assert het["cpi"][1] == first["evaluations"][1]["cpi"][1]

    def test_memo_holds_at_most_its_cap(self, monkeypatch):
        _fresh_memos(monkeypatch)
        cap = protocol._PLANS.cap
        engine = _engine()
        for index in range(2 * cap):
            point = {"name": "bounded", "stack": "M3D",
                     "description": f"request {index}"}
            execute_request("/points", parse_request(
                "/points", {"points": [point], "uops": 300, "apps": 1}),
                engine)
        assert len(protocol._PLANS) == cap

    def test_threads_share_the_memo_safely(self, monkeypatch):
        """More threads than cores race repeats against evictions in a
        small memo: every answer stays the serial one and the memo stays
        within its cap."""

        class Yielding(collections.OrderedDict):
            def move_to_end(self, key, last=True):
                # Hand the interpreter to another thread between the
                # memo's membership check and its reorder: without the
                # lock, an eviction lands in between.
                time.sleep(0)
                super().move_to_end(key, last)

        _fresh_memos(monkeypatch)
        cap = 4
        memo = LruMemo(cap)
        memo._data = Yielding()
        monkeypatch.setattr(protocol, "_PLANS", memo)
        engine = _engine()
        requests = [parse_request("/points", {
            "points": [{"name": "shared", "stack": "M3D",
                        "description": f"request {index}"}],
            "uops": 300, "apps": 1}) for index in range(2 * cap)]
        expected = [canonical_dumps(execute_request("/points", request,
                                                    engine))
                    for request in requests]

        def repeat(offset):
            for step in range(100):
                index = (offset + step) % len(requests)
                answer = execute_request("/points", requests[index], engine)
                assert canonical_dumps(answer) == expected[index]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=cap) as threads:
                futures = [threads.submit(repeat, offset)
                           for offset in range(cap)]
                for future in futures:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert len(protocol._PLANS) <= cap

    def test_identical_requests_warn_once_per_point_and_app(
            self, monkeypatch):
        _fresh_memos(monkeypatch)
        body = {"points": [dict(TestDisagreementWarnings.POINT,
                                name="disagree-repeat")],
                "uops": 1000, "apps": 3, "seed": 1234}
        with _server() as server, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", category=ModelDisagreementWarning)
            for _ in range(2):
                status, _ = request_json(server.port, "POST", "/points", body)
                assert status == 200
        labels = [str(w.message).split(":", 1)[0] for w in caught
                  if issubclass(w.category, ModelDisagreementWarning)]
        assert "disagree-repeat/Calculix" in labels
        assert sorted(labels) == sorted(set(labels))


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

    def test_admission_counts_settle_under_many_clients(self, monkeypatch):
        """The event loop admits and the service thread starts requests,
        and both update one waiting count.  With more clients than cores
        and a short switch interval, every request is served or refused
        and the counts come back to zero."""
        def instant_execute(endpoint, request, engine=None):
            return {"evaluations": []}

        monkeypatch.setattr(server_module, "execute_request",
                            instant_execute)
        total, queue_size = 80, 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _server(queue_size=queue_size) as server:
                with ThreadPoolExecutor(max_workers=16) as clients:
                    statuses = list(clients.map(
                        lambda _: request_json(server.port, "POST",
                                               "/sweep", SWEEP_BODY)[0],
                        range(total)))
                snapshot = server.stats.snapshot()
                queue_depth = server.stats.queue_depth
        finally:
            sys.setswitchinterval(interval)
        assert set(statuses) <= {200, 429}
        assert snapshot["requests"] == statuses.count(200) > 0
        assert snapshot["rejected"] == statuses.count(429)
        assert snapshot["in_flight"] == 0 and queue_depth == 0
        assert snapshot["max_queue_depth"] <= queue_size


class TestServiceErrors:
    def test_exception_in_service_is_500_and_the_server_recovers(
            self, monkeypatch):
        calls = []

        def failing_once(endpoint, request, engine=None):
            calls.append(endpoint)
            if len(calls) == 1:
                raise RuntimeError("kaboom")
            return execute_request(endpoint, request, engine)

        monkeypatch.setattr(server_module, "execute_request", failing_once)
        with _server() as server:
            status, body = request_json(
                server.port, "POST", "/sweep", SWEEP_BODY)
            assert status == 500
            assert body["error"]["message"] == "RuntimeError: kaboom"
            status, stats = request_json(server.port, "GET", "/stats")
            assert status == 200
            assert stats["serve"]["errors"] == 1
            assert stats["serve"]["in_flight"] == 0
            assert stats["queue_depth"] == 0
            status, _ = request_json(
                server.port, "POST", "/sweep", SWEEP_BODY)
            assert status == 200


class TestWorkerCrash:
    def test_worker_crash_mid_request_recovers_and_matches_serial(
            self, tmp_path, monkeypatch):
        reference = serial_reference("/sweep", SWEEP_BODY, engine=_engine())
        # Workers fork at pool (re)spawn; the REPRO_-prefixed sentinel
        # forces that respawn, so the forked workers carry the patched
        # _timed_execute_unit below (same discipline as test_pool).
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

    def test_drain_finishes_a_request_still_waiting(self, monkeypatch):
        """A request admitted behind the running one waits in the
        executor's FIFO; the drain must serve it too."""
        gate = threading.Event()
        started = threading.Event()

        def slow_execute(endpoint, request, engine=None):
            started.set()
            assert gate.wait(timeout=30)
            return {"evaluations": []}

        monkeypatch.setattr(server_module, "execute_request", slow_execute)
        server = _server(queue_size=4).start()
        try:
            with ThreadPoolExecutor(max_workers=2) as clients:
                running = clients.submit(request_json, server.port, "POST",
                                         "/sweep", SWEEP_BODY)
                assert started.wait(timeout=30)
                waiting = clients.submit(request_json, server.port, "POST",
                                         "/sweep", SWEEP_BODY)
                wait_until(lambda: server.stats.in_flight == 2)
                stopper = threading.Thread(
                    target=server.stop, kwargs={"drain": True})
                stopper.start()
                wait_until(lambda: server._draining)
                gate.set()
                assert running.result(timeout=30)[0] == 200
                assert waiting.result(timeout=30)[0] == 200
                stopper.join(timeout=30)
            assert server.wait(timeout=30)
            snapshot = server.stats.snapshot()
            assert snapshot["requests"] == 2 and snapshot["in_flight"] == 0
            assert server.stats.queue_depth == 0
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
    with the request count, RSS stays flat, and fds and threads come
    back to where they started."""

    REQUESTS = 2000
    BODY = {"points": ["Base"], "uops": 300, "apps": 1}
    #: 0.5 kB per request: half of what keeping every request's
    #: telemetry costs on this stream (about 1 kB per request).
    RSS_GROWTH_BOUND_KB = 1024

    @staticmethod
    def _process(server):
        status, body = request_json(server.port, "GET", "/stats")
        assert status == 200
        return body["process"]

    def _settled(self, server, start):
        """The end gauges, once fds and threads match ``start``."""
        def settled():
            # Connection teardown is asynchronous: poll, don't race.
            now = self._process(server)
            return now if all(
                now[key] == start[key]
                for key in ("open_fds", "threads")
            ) else None

        return wait_until(settled)

    def test_warm_stream_holds_bounded_resources(self):
        with _server() as server:
            def list_sizes():
                record = server.record
                return [len(record.batches), len(record.kernel_batches),
                        len(record.spec_timings), len(record.timers),
                        len(record.sections)]

            for _ in range(50):  # the cold request, then warm-up
                request_json(server.port, "POST", "/sweep", self.BODY)
            start = self._process(server)
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
            end = self._settled(server, start)
        assert end["rss_kb"] - start["rss_kb"] < self.RSS_GROWTH_BOUND_KB, \
            (start, end)

    #: Point names the distinct-body stream cycles through, and the memo
    #: cap it runs under: more names than entries, so every request
    #: evicts a content-key fragment and rebuilds its own.
    NAMES = 64
    MEMO_CAP = 16

    def test_distinct_points_stream_holds_bounded_resources(
            self, monkeypatch):
        _fresh_memos(monkeypatch, cap=self.MEMO_CAP)

        def body(index):
            # Every body is distinct; only NAMES of them need simulating.
            point = {"name": f"soak-{index % self.NAMES}", "stack": "M3D",
                     "description": f"request {index}"}
            return {"points": [point], "uops": 300, "apps": 1}

        with _server() as server:
            for index in range(2 * self.NAMES):  # cold names, then warm-up
                request_json(server.port, "POST", "/points", body(index))
            start = self._process(server)
            for index in range(self.REQUESTS):
                status, _ = request_json(server.port, "POST", "/points",
                                         body(2 * self.NAMES + index))
                assert status == 200
            assert len(cache_module._PART_JSON) == self.MEMO_CAP
            end = self._settled(server, start)
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

    def test_negative_content_length_is_400(self):
        import http.client

        with _server() as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=30)
            try:
                conn.putrequest("POST", "/sweep")
                conn.putheader("Content-Length", "-1")
                conn.endheaders()
                response = conn.getresponse()
                payload = json.loads(response.read().decode())
            finally:
                conn.close()
            assert response.status == 400
            assert payload["error"]["message"] == "bad Content-Length"

    def test_oversized_body_is_413(self):
        with _server() as server:
            server.max_body_bytes = 64
            status, body = request_json(
                server.port, "POST", "/sweep",
                {"points": ["Base"], "junk_padding": "x" * 256})
            assert status == 413

    @pytest.mark.parametrize("where", ["header", "path"])
    def test_line_past_the_stream_limit_is_400(self, where):
        """asyncio's stream reader refuses a line over 64 KiB; the client
        still gets an answer, and the server keeps serving."""
        import http.client

        with _server() as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=30)
            try:
                if where == "path":
                    conn.putrequest("GET", "/" + "a" * 70_000)
                else:
                    conn.putrequest("GET", "/healthz")
                    conn.putheader("X-Padding", "x" * 70_000)
                conn.endheaders()
                response = conn.getresponse()
                payload = json.loads(response.read().decode())
            finally:
                conn.close()
            assert response.status == 400
            assert payload["error"]["message"] \
                == "request line or header too long"
            status, _ = request_json(server.port, "GET", "/healthz")
            assert status == 200

    def test_one_deadline_covers_the_whole_request(self, monkeypatch):
        """A client that trickles one header line every 0.1 s gets a 408
        once the request's deadline passes, not a fresh wait per line."""
        monkeypatch.setattr(server_module, "_READ_TIMEOUT", 0.5)
        with _server() as server, socket.create_connection(
                ("127.0.0.1", server.port), timeout=30) as sock:
            start = time.monotonic()
            sock.sendall(b"POST /sweep HTTP/1.1\r\n")
            readable = []
            index = 0
            while not readable and time.monotonic() - start < 4:
                readable, _, _ = select.select([sock], [], [], 0.1)
                if not readable:
                    sock.sendall(b"X-Trickle-%d: 1\r\n" % index)
                    index += 1
            elapsed = time.monotonic() - start
            reply = sock.recv(65536) if readable else b""
        assert reply.startswith(b"HTTP/1.1 408 "), reply
        assert elapsed < 2
