"""Tests for the observability layer: timers, telemetry, manifests."""

import dataclasses
import json

import pytest

from repro import cli
from repro.design.resolve import paper_single_core_configs, resolve
from repro.engine import ExperimentEngine, SimSpec
from repro.engine.sweep import suite_specs
from repro.obs import (
    MANIFEST_SCHEMA_VERSION,
    KernelBatchRecord,
    ManifestError,
    RunRecord,
    build_manifest,
    check_manifest,
    current_record,
    metrics_path,
    run_record,
    timer,
    validate_manifest,
    write_manifest,
)
from repro.uarch.multicore import run_parallel_tiles
from repro.uarch.ooo import STALL_CAUSES, run_trace
from repro.workloads.generator import generate_trace, memoized_trace
from repro.workloads.parallel import parallel_by_name
from repro.workloads.spec import spec_profiles

UOPS = 600


def _small_sweep(engine: ExperimentEngine) -> None:
    engine.run_specs(suite_specs(
        "single", UOPS, 1234,
        paper_single_core_configs()[:2],
        spec_profiles()[:2],
    ))


def _small_run(jobs: int = 1):
    """An engine and the closed record of one small sweep on it."""
    engine = ExperimentEngine(jobs=jobs)
    with run_record() as record:
        _small_sweep(engine)
    return engine, record


class TestTimer:
    def test_span_records_duration(self):
        with run_record() as record:
            with timer("unit.test") as span:
                pass
        assert span.seconds >= 0.0
        assert [s.name for s in record.timers] == ["unit.test"]

    def test_span_survives_exceptions(self):
        with run_record() as record:
            with pytest.raises(RuntimeError):
                with timer("unit.raises"):
                    raise RuntimeError("boom")
        assert [s.name for s in record.timers] == ["unit.raises"]


class TestStallAttribution:
    def test_counters_present_and_nonzero(self):
        profile = spec_profiles()[0]
        trace = generate_trace(profile, 2000, seed=1234)
        result = run_trace(resolve("Base").config, trace)
        stalls = result.stats.stall_cycles
        assert set(stalls) == set(STALL_CAUSES)
        assert all(v >= 0 for v in stalls.values())
        assert sum(stalls.values()) > 0  # something always stalls

    def test_hit_rate_counters(self):
        profile = spec_profiles()[0]
        trace = generate_trace(profile, 2000, seed=1234)
        result = run_trace(resolve("Base").config, trace)
        stats = result.stats
        assert 0 <= stats.mispredictions <= stats.branches
        assert sum(stats.mem_level_counts.values()) > 0  # loads happened

    def test_multicore_aggregates_stalls(self):
        water = parallel_by_name()["Water-Spatial"]
        result = run_parallel_tiles([resolve("Base-4C").config] * 4, water,
                                    8000)
        totals = result.stall_cycles
        assert set(totals) == set(STALL_CAUSES)
        for cause in STALL_CAUSES:
            assert totals[cause] == sum(
                core.stats.stall_cycles[cause] for core in result.per_core
            )


class TestEngineTelemetry:
    def test_batches_and_specs_recorded(self):
        _, record = _small_run()
        assert len(record.batches) == 1
        batch = record.batches[0]
        assert batch.specs == 4 and batch.misses == 4 and batch.hits == 0
        assert len(record.spec_timings) == 4
        assert all(s.seconds is not None for s in record.spec_timings)
        assert record.counters["uops"] > 0
        assert sum(record.stall_cycles.values()) > 0

    def test_cache_hits_marked(self):
        engine = ExperimentEngine(jobs=1)
        with run_record() as record:
            _small_sweep(engine)
            _small_sweep(engine)
        second_batch = record.spec_timings[4:]
        assert all(s.cached and s.seconds is None for s in second_batch)
        assert record.batches[1].hits == 4


class TestRunRecord:
    def test_no_active_record_keeps_nothing(self):
        assert current_record() is None
        engine = ExperimentEngine(jobs=1)
        _small_sweep(engine)  # telemetry has nowhere to go: no error
        assert engine.cache.stats.stores == 4

    def test_records_are_independent(self):
        engine = ExperimentEngine(jobs=1)
        with run_record() as cold:
            _small_sweep(engine)
        with run_record() as warm:
            _small_sweep(engine)
        assert cold.cache["misses"] == 4 and cold.cache["stores"] == 4
        assert warm.cache == {"memory_hits": 4, "disk_hits": 0,
                              "misses": 0, "stores": 0,
                              "disk_put_failures": 0}
        assert cold.kernel_totals["groups"] == 2
        assert warm.kernel_totals["groups"] == 0
        assert len(warm.spec_timings) == 4 and not warm.kernel_batches

    def test_child_folds_fixed_size_totals_only(self):
        engine = ExperimentEngine(jobs=1)
        with run_record() as parent:
            with run_record() as child:
                _small_sweep(engine)
                with timer("unit.child"):
                    pass
                child.sections["serve"] = {"requests": 1}
            assert current_record() is parent
        assert parent.counters == child.counters
        assert parent.stall_cycles == child.stall_cycles
        assert parent.mem_level_counts == child.mem_level_counts
        assert parent.cache == child.cache
        assert parent.kernel_totals == child.kernel_totals
        assert parent.batches == parent.spec_timings == []
        assert parent.kernel_batches == parent.timers == []
        assert parent.sections == {}

    def test_explicit_parent_and_max_width_fold(self):
        lifetime = RunRecord()
        for width in (3, 5, 2):
            with run_record(parent=lifetime) as child:
                child.add_kernel_batch(
                    KernelBatchRecord("single", width, 0.5, True))
        summary = lifetime.kernel_totals
        assert summary["groups"] == 3 and summary["batched_specs"] == 10
        assert summary["max_width"] == 5 and summary["seconds"] == 1.5
        assert current_record() is None

    def test_concurrent_folds_lose_no_update(self):
        import sys
        import threading

        lifetime = RunRecord()
        workers, folds, causes = 8, 400, [f"cause{i}" for i in range(32)]

        def work():
            for _ in range(folds):
                with run_record(parent=lifetime) as child:
                    child.cache["memory_hits"] += 1
                    child.stall_cycles.update(dict.fromkeys(causes, 1))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert lifetime.cache["memory_hits"] == workers * folds
        assert lifetime.stall_cycles == dict.fromkeys(causes, workers * folds)

    def test_record_does_not_follow_into_a_thread(self):
        import threading

        seen = []
        with run_record():
            thread = threading.Thread(
                target=lambda: seen.append(current_record()))
            thread.start()
            thread.join()
        assert seen == [None]


class TestManifest:
    def test_build_and_validate(self):
        engine, record = _small_run()
        manifest = build_manifest("unit-test", record, engine=engine)
        assert validate_manifest(manifest) == []
        assert manifest["schema"] == MANIFEST_SCHEMA_VERSION
        assert manifest["cache"]["stores"] == 4
        assert len(manifest["specs"]) == 4
        assert sum(manifest["stalls"].values()) > 0
        assert manifest["counters"]["cycles"] > 0

    def test_manifest_is_json_serialisable(self, tmp_path):
        engine, record = _small_run()
        manifest = build_manifest("unit-test", record, engine=engine)
        out = write_manifest(manifest, tmp_path / "m.json")
        assert validate_manifest(json.loads(out.read_text())) == []

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda m: m.update(schema="repro-manifest-v999"),
            lambda m: m.pop("cache"),
            lambda m: m["cache"].pop("disk_put_failures"),
            lambda m: m["counters"].update(uops="lots"),
            lambda m: m["specs"].append({"key": "x"}),
            lambda m: m["stalls"].update(rob=-1),
            lambda m: m.update(code_fingerprint="nothex"),
            lambda m: m["timers"].append({"name": 3, "seconds": "fast"}),
        ],
    )
    def test_validation_rejects_corruption(self, corrupt):
        engine, record = _small_run()
        manifest = build_manifest("unit-test", record, engine=engine)
        corrupt(manifest)
        assert validate_manifest(manifest) != []
        with pytest.raises(ManifestError):
            check_manifest(manifest)

    def test_write_refuses_invalid(self, tmp_path):
        with pytest.raises(ManifestError):
            write_manifest({"schema": "nope"}, tmp_path / "bad.json")

    def test_validator_cli(self, tmp_path, capsys):
        from repro.obs.__main__ import main as validate_main

        engine, record = _small_run()
        good = write_manifest(
            build_manifest("unit-test", record, engine=engine),
            tmp_path / "good.json",
        )
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        assert validate_main([str(good)]) == 0
        assert validate_main([str(bad)]) == 1
        assert validate_main([str(tmp_path / "missing.json")]) == 1

    def test_metrics_path_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        assert metrics_path(None) is None
        assert metrics_path("cli.json") == "cli.json"
        monkeypatch.setenv("REPRO_METRICS", "env.json")
        assert metrics_path(None) == "env.json"
        assert metrics_path("cli.json") == "cli.json"  # CLI wins


def _declared_slots(manifest):
    """``(where, container, slot)`` of every declared object in a
    manifest: the fixed sections and maps, then each list entry."""
    for key in ("platform", "engine", "cache", "counters", "explore",
                "serve", "manycore"):
        yield key, manifest, key
    yield "kernel.summary", manifest["kernel"], "summary"
    for key, entries in (("batches", manifest["batches"]),
                         ("specs", manifest["specs"]),
                         ("kernel.batches", manifest["kernel"]["batches"]),
                         ("timers", manifest["timers"])):
        for index in range(len(entries)):
            yield f"{key}[{index}]", entries, index


def _wrong_values(value):
    """Values whose type no key holding ``value`` accepts."""
    if isinstance(value, bool):
        return [1, "true"]
    if isinstance(value, int):
        return ["1", True, 0.5]
    if isinstance(value, float):
        return ["0.5", True]
    if isinstance(value, str):
        return [1, True]
    return [[]]


class TestEveryManifestKey:
    """One manifest carrying every section, each written by its real
    producer: every key of every declared part is validated, and each
    part lists its keys in the order the validator declares them."""

    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        from repro.design.space import SpaceSpec
        from repro.explore import explore
        from repro.obs import attach_section
        from repro.serve import ReproServer, request_json

        tmp = tmp_path_factory.mktemp("every-key")
        engine = ExperimentEngine(jobs=1, cache_dir=tmp / "cache")
        space = SpaceSpec(name="grid", kind="cartesian",
                          base={"stack": "M3D"}, axes={"vdd": [0.9, 1.0]})
        with run_record() as record:
            with timer("unit.every_key"):
                _small_sweep(engine)
                _small_sweep(engine)  # cache hits: specs without seconds
            explore(space, store_path=tmp / "explore.jsonl", engine=engine,
                    uops=UOPS, apps=1)
            out = tmp / "manycore.json"
            cli.main(["--uops", "300", "manycore", "mixed-2x2", "--apps",
                      "1", "--metrics-out", str(out)])
            attach_section("manycore", json.loads(out.read_text())["manycore"])
            with ReproServer(port=0, engine=ExperimentEngine(jobs=1)) as server:
                status, _ = request_json(server.port, "POST", "/sweep", {
                    "points": ["Base"], "uops": UOPS, "apps": 1})
                assert status == 200
                attach_section("serve", server.serve_section())
        return build_manifest("every key", record, engine=engine)

    def test_every_key_is_validated_in_declaration_order(self, manifest):
        import re

        assert validate_manifest(manifest) == []
        seen = set()
        for where, container, slot in _declared_slots(manifest):
            entry = container[slot]
            seen.add(where.split("[")[0])
            try:
                container[slot] = {}
                declared = [
                    match.group(1) for match in (
                        re.fullmatch(re.escape(where)
                                     + r": missing field '(\w+)'", problem)
                        for problem in validate_manifest(manifest))
                    if match
                ]
                assert list(entry) == declared, where
                for key, value in entry.items():
                    container[slot] = {k: v for k, v in entry.items()
                                       if k != key}
                    assert validate_manifest(manifest), f"{where}.{key} dropped"
                    for wrong in _wrong_values(value):
                        container[slot] = {**entry, key: wrong}
                        assert validate_manifest(manifest), \
                            f"{where}.{key} = {wrong!r} accepted"
            finally:
                container[slot] = entry
        assert validate_manifest(manifest) == []
        assert seen == {"platform", "engine", "cache", "counters", "explore",
                        "serve", "manycore", "kernel.summary", "batches",
                        "specs", "kernel.batches", "timers"}


class TestCliManifests:
    def _read_valid(self, path):
        manifest = json.loads(path.read_text())
        assert validate_manifest(manifest) == []
        return manifest

    def test_figure6_metrics_out(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        cli.main(["--uops", str(UOPS), "figure6", "--metrics-out", str(out)])
        capsys.readouterr()
        manifest = self._read_valid(out)
        assert sum(manifest["stalls"].values()) > 0
        assert manifest["cache"]["stores"] > 0
        assert any(s["seconds"] is not None for s in manifest["specs"])

    def test_flag_before_subcommand(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        cli.main(["--uops", str(UOPS), "--metrics-out", str(out),
                  "figure", "6"])
        capsys.readouterr()
        self._read_valid(out)

    def test_env_var_equivalent(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "env.json"
        monkeypatch.setenv("REPRO_METRICS", str(out))
        cli.main(["--uops", str(UOPS), "figure", "6"])
        capsys.readouterr()
        self._read_valid(out)

    def test_no_flag_no_manifest(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        cli.main(["table", "11"])
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []


class TestTraceMemoRegression:
    """The trace memo must key on profile *content*, not profile name:
    an ablation profile built with dataclasses.replace() keeps the name
    but must not reuse the original's trace (the pre-fix memo did)."""

    def test_replaced_profile_gets_fresh_trace(self):
        from repro.workloads.generator import _STREAMS, _TRACES

        _TRACES.clear()
        _STREAMS.clear()
        profile = spec_profiles()[0]
        # The original's stream is longer than the variant's request, so
        # a name-keyed memo would serve the variant a prefix of it.
        memoized_trace(profile, 800, 1234)
        original = memoized_trace(profile, 400, 1234)
        variant = dataclasses.replace(
            profile, load_frac=profile.load_frac + 0.05
        )
        assert variant.name == profile.name
        fresh = memoized_trace(variant, 400, 1234)
        assert fresh is not original
        assert fresh == generate_trace(variant, 400, seed=1234)
        # And the traces genuinely differ (different instruction mix).
        def loads(trace):
            return sum(1 for op in trace.ops if op.address is not None)

        assert loads(fresh) != loads(original)

    def test_engine_result_matches_unmemoized_run(self):
        from repro.workloads.generator import _STREAMS, _TRACES

        _TRACES.clear()
        _STREAMS.clear()
        profile = spec_profiles()[0]
        variant = dataclasses.replace(
            profile, hot_frac=max(0.0, profile.hot_frac - 0.3)
        )
        engine = ExperimentEngine(jobs=1)
        base = resolve("Base").config
        # The first run populates the memo.
        engine.run_specs([SimSpec("single", base, profile, UOPS)])
        [via_engine] = engine.run_specs(
            [SimSpec("single", base, variant, UOPS)])
        expected = run_trace(base, generate_trace(variant, UOPS, seed=1234))
        assert via_engine.cycles == expected.cycles
        assert via_engine.stats == expected.stats
