"""Design-space exploration: SpaceSpec, the JSONL store, the runner,
resume semantics, the Pareto frontier, the manifest section and the CLI.
"""

import json

import pytest

from repro.design.space import (
    MAX_REJECTIONS_PER_SAMPLE,
    SpaceError,
    SpaceSpec,
    load_space,
)
from repro.explore import (
    GOLDEN_SPACE,
    ResultStore,
    dominates,
    explore,
    pareto_frontier,
    point_key,
)

#: Fast evaluation sizes shared by every simulated test here.
FAST = dict(uops=300, apps=2)


def small_cartesian(**overrides):
    spec = dict(
        name="grid",
        kind="cartesian",
        base={"stack": "M3D"},
        axes={
            "frequency_policy": ["base", "derived"],
            "vdd": [0.9, 1.0],
        },
    )
    spec.update(overrides)
    return SpaceSpec(**spec)


def small_random(**overrides):
    spec = dict(
        name="rand",
        kind="random",
        samples=12,
        seed=42,
        axes={
            "stack": ["M3D", "TSV3D"],
            "frequency_policy": ["base", "derived"],
            "vdd": [0.9, 1.0],
        },
    )
    spec.update(overrides)
    return SpaceSpec(**spec)


class TestSpaceSpec:
    def test_cartesian_expansion_is_deterministic(self):
        space = small_cartesian()
        assert space.cartesian_size() == 4
        first = [p.to_dict() for p in space.points()]
        second = [p.to_dict() for p in space.points()]
        assert first == second
        assert len(first) == 4
        names = [p["name"] for p in first]
        assert names == ["grid-0", "grid-1", "grid-2", "grid-3"]
        assert all(p["group"] == "explore" for p in first)
        assert all(p["stack"] == "M3D" for p in first)

    def test_random_expansion_is_seeded(self):
        space = small_random()
        first = [p.to_dict() for p in space.points()]
        assert len(first) == 12
        assert first == [p.to_dict() for p in space.points()]
        reseeded = small_random(seed=43)
        assert first != [p.to_dict() for p in reseeded.points()]

    def test_limit_is_a_prefix(self):
        space = small_random()
        full = [p.to_dict() for p in space.points()]
        head = [p.to_dict() for p in space.points(limit=5)]
        assert head == full[:5]

    def test_lazy_expansion(self):
        # A space far too large to materialize still yields instantly.
        space = SpaceSpec(
            name="huge",
            base={"stack": "M3D"},
            axes={
                "vdd": [0.80 + 0.001 * i for i in range(200)],
                "issue_width": list(range(2, 102)),
                "dispatch_width": list(range(2, 102)),
            },
        )
        assert space.cartesian_size() == 200 * 100 * 100
        iterator = space.points()
        assert next(iterator).name == "huge-0"

    def test_constraints_filter(self):
        space = small_cartesian(
            constraints=["vdd >= 1.0 or frequency_policy == 'base'"],
        )
        points = list(space.points())
        assert len(points) == 3
        for point in points:
            assert point.vdd >= 1.0 or point.frequency_policy == "base"

    def test_constraint_eliminates_everything_cartesian(self):
        space = small_cartesian(constraints=["vdd > 99.0"])
        assert list(space.points()) == []

    def test_constraint_eliminates_everything_random(self):
        space = small_random(constraints=["vdd > 99.0"])
        with pytest.raises(SpaceError, match="rejected"):
            list(space.points())
        assert MAX_REJECTIONS_PER_SAMPLE >= 100

    def test_invalid_combinations_skipped_by_default(self):
        # 2D cannot take a derived frequency: half the cross product is
        # invalid and silently skipped.
        space = SpaceSpec(
            name="mixed",
            axes={
                "stack": ["2D", "M3D"],
                "frequency_policy": ["base", "derived"],
            },
        )
        points = list(space.points())
        assert len(points) == 3
        assert not any(
            p.stack == "2D" and p.frequency_policy == "derived"
            for p in points
        )

    def test_invalid_combinations_error_when_asked(self):
        space = SpaceSpec(
            name="mixed",
            on_invalid="error",
            axes={
                "stack": ["2D", "M3D"],
                "frequency_policy": ["derived"],
            },
        )
        with pytest.raises(SpaceError, match="invalid combination"):
            list(space.points())

    def test_point_names_index_accepted_points_densely(self):
        space = SpaceSpec(
            name="mixed",
            axes={
                "stack": ["2D", "M3D"],
                "frequency_policy": ["base", "derived"],
            },
        )
        names = [p.name for p in space.points()]
        assert names == ["mixed-0", "mixed-1", "mixed-2"]


class TestSpaceSpecValidation:
    def test_unknown_field_rejected(self):
        with pytest.raises(SpaceError, match="not a sweepable"):
            SpaceSpec(name="bad", axes={"warp_drive": [1, 2]})

    def test_base_axes_overlap_rejected(self):
        with pytest.raises(SpaceError, match="both base and axes"):
            SpaceSpec(name="bad", base={"vdd": 1.0}, axes={"vdd": [0.9]})

    def test_bad_kind_rejected(self):
        with pytest.raises(SpaceError, match="kind"):
            SpaceSpec(name="bad", kind="exhaustive")

    def test_random_needs_samples(self):
        with pytest.raises(SpaceError, match="samples"):
            SpaceSpec(name="bad", kind="random", axes={"vdd": [0.9, 1.0]})

    def test_cartesian_rejects_samples(self):
        with pytest.raises(SpaceError, match="samples"):
            SpaceSpec(name="bad", samples=5, axes={"vdd": [0.9, 1.0]})

    def test_empty_axis_rejected(self):
        with pytest.raises(SpaceError, match="empty"):
            SpaceSpec(name="bad", axes={"vdd": []})

    def test_scalar_axis_rejected(self):
        with pytest.raises(SpaceError, match="candidate"):
            SpaceSpec(name="bad", axes={"stack": "M3D"})

    def test_unparseable_constraint_rejected(self):
        with pytest.raises(SpaceError, match="does not parse"):
            SpaceSpec(name="bad", axes={"vdd": [1.0]},
                      constraints=["vdd >="])

    def test_constraint_runtime_error_is_a_space_error(self):
        space = SpaceSpec(name="bad", axes={"vdd": [1.0]},
                          constraints=["vdd / 0 > 1"])
        with pytest.raises(SpaceError, match="failed"):
            list(space.points())

    def test_from_dict_unknown_key_rejected(self):
        with pytest.raises(SpaceError, match="unknown space field"):
            SpaceSpec.from_dict({"name": "bad", "axess": {}})

    def test_from_dict_non_mapping_rejected(self):
        with pytest.raises(SpaceError, match="must be an object"):
            SpaceSpec.from_dict([1, 2, 3])

    def test_round_trip(self):
        space = small_random(constraints=("vdd >= 0.9",))
        clone = SpaceSpec.from_dict(json.loads(json.dumps(space.to_dict())))
        assert clone == space
        assert [p.to_dict() for p in clone.points()] \
            == [p.to_dict() for p in space.points()]

    def test_load_space(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"space": small_cartesian().to_dict()}))
        assert load_space(path) == small_cartesian()
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(small_cartesian().to_dict()))
        assert load_space(bare) == small_cartesian()

    def test_load_space_bad_json(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text("{not json")
        with pytest.raises(SpaceError, match="not valid JSON"):
            load_space(path)


class TestResultStore:
    def _record(self, key, name="p0"):
        return {"key": key, "name": name, "schema": "repro-explore-v1",
                "fingerprint": __import__(
                    "repro.engine.cache", fromlist=["code_fingerprint"]
                ).code_fingerprint(),
                "summary": {"ghz": 1.0, "energy": 1.0, "peak_c": 50.0}}

    def test_in_memory_mode(self):
        store = ResultStore()
        assert store.path is None and len(store) == 0
        store.append(self._record("k1"))
        assert "k1" in store and len(store) == 1

    def test_disk_replay(self, tmp_path):
        path = tmp_path / "store.jsonl"
        first = ResultStore(path)
        first.append(self._record("k1"))
        first.append(self._record("k2", name="p1"))
        second = ResultStore(path)
        assert len(second) == 2
        assert second.get("k2")["name"] == "p1"
        assert second.line_count() == 2

    def test_torn_tail_is_ignored(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append(self._record("k1"))
        with path.open("a") as handle:
            handle.write('{"key": "k2", "trunc')  # the crashed write
        reopened = ResultStore(path)
        assert "k1" in reopened and "k2" not in reopened

    def test_garbage_lines_are_ignored(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('\n[1, 2]\n{"no": "key"}\n{"key": 5}\n')
        store = ResultStore(path)
        assert len(store) == 0

    def test_stale_fingerprint_is_skipped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        record = self._record("k1")
        record["fingerprint"] = "0" * 64  # from some other source tree
        path.write_text(json.dumps(record) + "\n")
        store = ResultStore(path)
        assert "k1" not in store

    def test_append_many_bytes_match_append(self, tmp_path):
        # Group commit changes the fsync schedule, never the bytes.
        one = ResultStore(tmp_path / "one.jsonl")
        many = ResultStore(tmp_path / "many.jsonl")
        records = [self._record(f"k{i}", name=f"p{i}") for i in range(4)]
        for record in records:
            one.append(record)
        many.append_many(records[:3])
        many.append_many([])  # an empty group commit is a no-op
        many.append_many(records[3:])
        one.close()
        many.close()
        assert (tmp_path / "one.jsonl").read_bytes() \
            == (tmp_path / "many.jsonl").read_bytes()
        assert many.line_count() == 4
        assert len(ResultStore(tmp_path / "many.jsonl")) == 4

    def test_append_many_in_memory(self):
        store = ResultStore()
        store.append_many(self._record(f"k{i}") for i in range(3))
        assert len(store) == 3 and store.line_count() == 0

    def test_close_is_idempotent_and_reopens(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with ResultStore(path) as store:
            store.append(self._record("k1"))
            store.close()
            store.close()  # idempotent
            store.append(self._record("k2"))  # reopens transparently
        assert ResultStore(path).line_count() == 2

    def test_point_key_ignores_identity_fields(self):
        space = small_cartesian()
        a, b = list(space.points(limit=2))[:2]
        import dataclasses

        renamed = dataclasses.replace(a, name="other", description="x")
        params = dict(uops=100, seed=1, grid=8, apps=None)
        assert point_key(a, **params) == point_key(renamed, **params)
        assert point_key(a, **params) != point_key(b, **params)
        assert point_key(a, **params) != point_key(a, uops=200, seed=1,
                                                   grid=8, apps=None)


class TestFrontier:
    def _rec(self, name, ghz, energy, peak):
        return {"name": name, "key": f"k-{name}", "point": {"name": name},
                "summary": {"ghz": ghz, "cpi": 1.0, "speedup": 1.0,
                            "energy": energy, "peak_c": peak}}

    def test_dominates(self):
        better = self._rec("a", 4.0, 0.9, 70.0)
        worse = self._rec("b", 3.5, 1.0, 80.0)
        assert dominates(better, worse)
        assert not dominates(worse, better)
        assert not dominates(better, better)  # never self-dominating

    def test_frontier_drops_dominated(self):
        records = [
            self._rec("fast-hot", 4.0, 1.0, 90.0),
            self._rec("slow-cool", 3.0, 0.8, 70.0),
            self._rec("dominated", 3.0, 1.0, 90.0),
        ]
        frontier = pareto_frontier(records)
        assert [e["name"] for e in frontier] == ["fast-hot", "slow-cool"]

    def test_frontier_order_is_input_order_independent(self):
        records = [self._rec(f"p{i}", 3.0 + 0.1 * i, 1.0 - 0.01 * i,
                             70.0 + i) for i in range(6)]
        forward = pareto_frontier(records)
        backward = pareto_frontier(records[::-1])
        assert forward == backward

    def test_empty(self):
        assert pareto_frontier([]) == []


@pytest.fixture()
def fresh_engine():
    from repro.engine.sweep import ExperimentEngine

    return ExperimentEngine(jobs=1, cache_dir=None)


class TestExploreRunner:
    def test_full_run_counts(self, tmp_path, fresh_engine):
        path = tmp_path / "store.jsonl"
        report = explore(small_cartesian(), store_path=path, chunk_size=3,
                         engine=fresh_engine, **FAST)
        assert report.total_points == 4
        assert report.unique_points == 4
        assert report.evaluated == 4
        assert report.skipped == 0 and report.duplicates == 0
        assert report.chunks == 2  # ceil(4 / 3)
        assert len(report.frontier) >= 1
        assert ResultStore(path).line_count() == 4

    def test_random_duplicates_collapse(self, fresh_engine):
        # 12 draws over an 8-combination space must repeat; repeats cost
        # nothing and are counted.
        report = explore(small_random(), engine=fresh_engine, **FAST)
        assert report.total_points == 12
        assert report.duplicates > 0
        assert report.evaluated == report.unique_points

    def test_resume_skips_completed_keys(self, tmp_path, fresh_engine):
        from repro.engine.sweep import ExperimentEngine
        from repro.golden.serialize import canonical_dumps

        path = tmp_path / "store.jsonl"
        space = small_cartesian()
        # Pre-seed the store with the first half of the space.
        half = explore(space, store_path=path, limit=2,
                       engine=fresh_engine, **FAST)
        assert half.evaluated == 2

        resumed_engine = ExperimentEngine(jobs=1, cache_dir=None)
        report = explore(space, store_path=path, engine=resumed_engine,
                         **FAST)
        assert report.total_points == 4
        assert report.skipped == 2  # the pre-seeded half
        assert report.evaluated == 2  # only the other half simulated

        # A third run with yet another fresh engine is pure store
        # replay: zero evaluations, zero cache misses — and the frontier
        # is byte-identical.
        replay_engine = ExperimentEngine(jobs=1, cache_dir=None)
        replay = explore(space, store_path=path, engine=replay_engine,
                         **FAST)
        assert replay.evaluated == 0
        assert replay.skipped == 4
        assert replay_engine.cache.stats.misses == 0
        assert canonical_dumps(replay.frontier) \
            == canonical_dumps(report.frontier)

    def test_changed_params_do_not_resume(self, tmp_path, fresh_engine):
        path = tmp_path / "store.jsonl"
        space = small_cartesian()
        explore(space, store_path=path, engine=fresh_engine, **FAST)
        report = explore(space, store_path=path, engine=fresh_engine,
                         uops=FAST["uops"] + 100, apps=FAST["apps"])
        assert report.skipped == 0  # different uops -> different keys
        assert report.evaluated == 4

    def test_empty_space(self, fresh_engine):
        space = small_cartesian(constraints=["vdd > 99.0"])
        report = explore(space, engine=fresh_engine, **FAST)
        assert report.total_points == 0
        assert report.evaluated == 0
        assert report.frontier == []

    def test_progress_callback(self, fresh_engine):
        updates = []
        explore(small_cartesian(), chunk_size=2, engine=fresh_engine,
                progress=updates.append, **FAST)
        assert [u["chunk"] for u in updates] == [1, 2]
        assert updates[-1]["evaluated"] == 4

    def test_store_and_store_path_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            explore(small_cartesian(), ResultStore(),
                    store_path=tmp_path / "s.jsonl")

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            explore(small_cartesian(), chunk_size=0)

    def test_manifest_explore_section(self, fresh_engine):
        from repro.obs import build_manifest, run_record, validate_manifest

        with run_record() as record:
            explore(small_cartesian(), engine=fresh_engine, **FAST)
        summary = record.sections["explore"]
        assert summary["space"] == "grid"
        manifest = build_manifest("test explore", record, engine=fresh_engine)
        assert manifest["explore"] == summary
        assert validate_manifest(manifest) == []
        # A corrupted section must be reported.
        manifest["explore"] = {"space": "grid"}
        assert any("explore" in problem
                   for problem in validate_manifest(manifest))


class TestPipelinedExplore:
    """Cross-chunk pipelining (``in_flight`` > 1): byte-identical store
    and frontier versus the serial loop, chunk-atomic crash commits, and
    resume with zero re-evaluation of committed work."""

    def test_bad_in_flight(self):
        with pytest.raises(ValueError, match="in_flight"):
            explore(small_cartesian(), in_flight=0)

    def test_pipelined_store_is_byte_identical_to_serial(self, tmp_path):
        from repro.engine.sweep import ExperimentEngine
        from repro.golden.serialize import canonical_dumps

        kwargs = dict(limit=9, chunk_size=3, **FAST)
        serial_path = tmp_path / "serial.jsonl"
        piped_path = tmp_path / "piped.jsonl"
        serial = explore(GOLDEN_SPACE, store_path=serial_path, in_flight=1,
                         engine=ExperimentEngine(jobs=1, cache_dir=None),
                         **kwargs)
        piped = explore(GOLDEN_SPACE, store_path=piped_path, in_flight=3,
                        engine=ExperimentEngine(jobs=2, cache_dir=None),
                        **kwargs)
        assert serial.chunks == piped.chunks == 3
        assert serial.in_flight == 1 and piped.in_flight == 3
        assert piped_path.read_bytes() == serial_path.read_bytes()
        assert canonical_dumps(piped.frontier) \
            == canonical_dumps(serial.frontier)
        # Throughput is a derived identity, not a raced clock bound: the
        # report must be self-consistent whatever the machine's speed.
        assert piped.seconds > 0
        assert piped.points_per_second \
            == pytest.approx(piped.evaluated / piped.seconds)

    def test_kill_between_chunks_resumes_without_reevaluation(
            self, tmp_path):
        from repro.engine.sweep import ExperimentEngine
        from repro.obs import run_record

        path = tmp_path / "store.jsonl"
        kwargs = dict(limit=9, chunk_size=3, **FAST)

        class Boom(RuntimeError):
            pass

        def die_after_first_chunk(update):
            if update["chunk"] == 1:
                raise Boom("killed between chunks")

        with run_record() as record:
            with pytest.raises(Boom):
                explore(GOLDEN_SPACE, store_path=path, in_flight=2,
                        engine=ExperimentEngine(jobs=2, cache_dir=None),
                        progress=die_after_first_chunk, **kwargs)
        # The aborted run still left a validating manifest section, with
        # the failure recorded.
        aborted = record.sections["explore"]
        assert aborted["error"] == "Boom: killed between chunks"
        assert aborted["chunks"] == 1

        # Group commit is chunk-atomic: the committed chunk survived the
        # crash in full, the abandoned in-flight chunk left no lines.
        assert ResultStore(path).line_count() == 3

        resumed = explore(GOLDEN_SPACE, store_path=path, in_flight=2,
                          engine=ExperimentEngine(jobs=2, cache_dir=None),
                          **kwargs)
        assert resumed.skipped == 3  # nothing committed was re-run
        assert resumed.evaluated == 6
        assert resumed.error is None
        assert ResultStore(path).line_count() == 9

    def test_in_flight_one_is_the_serial_loop(self, tmp_path,
                                              fresh_engine):
        report = explore(small_cartesian(), chunk_size=3, in_flight=1,
                         store_path=tmp_path / "s.jsonl",
                         engine=fresh_engine, **FAST)
        assert report.evaluated == 4 and report.chunks == 2


class TestGoldenSpace:
    def test_golden_space_shape(self):
        assert GOLDEN_SPACE.kind == "random"
        assert GOLDEN_SPACE.samples == 500
        points = list(GOLDEN_SPACE.points())
        assert len(points) == 500

    def test_golden_artifact_registered(self):
        from repro.golden import get_artifact

        artifact = get_artifact("explore")
        assert not artifact.static  # replays at the blessed params

    def test_committed_golden_frontier_is_canonical(self):
        # The committed golden must carry a non-trivial frontier and no
        # cache keys (keys embed the code fingerprint, which changes on
        # every source edit).
        from pathlib import Path

        golden_path = Path(__file__).resolve().parent.parent \
            / "goldens" / "explore.json"
        envelope = json.loads(golden_path.read_text())
        payload = envelope["payload"]
        assert payload["spec"] == GOLDEN_SPACE.to_dict()
        assert payload["points"]["total"] == 500
        assert len(payload["frontier"]) >= 3
        for entry in payload["frontier"]:
            assert "key" not in entry


class TestExploreCli:
    def run_cli(self, argv, capsys):
        from repro.cli import main

        main(argv)
        return capsys.readouterr().out

    def test_explore_command(self, tmp_path, capsys):
        spec = tmp_path / "space.json"
        spec.write_text(json.dumps(small_cartesian().to_dict()))
        store = tmp_path / "store.jsonl"
        out = self.run_cli(
            ["--uops", "300", "explore", str(spec), "--apps", "2",
             "--store", str(store), "--pareto"], capsys)
        assert "4 unique of 4 points" in out
        assert "Pareto frontier" in out
        assert store.exists()
        # Resume: the second invocation evaluates nothing.
        out = self.run_cli(
            ["--uops", "300", "explore", str(spec), "--apps", "2",
             "--store", str(store)], capsys)
        assert "0 evaluated, 4 resumed from store" in out

    def test_explore_missing_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="cannot load space"):
            self.run_cli(["explore", str(tmp_path / "nope.json")], capsys)

    def test_explore_malformed_spec(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"name": "bad", "kind": "exhaustive"}))
        with pytest.raises(SystemExit, match="cannot load space"):
            self.run_cli(["explore", str(spec)], capsys)
