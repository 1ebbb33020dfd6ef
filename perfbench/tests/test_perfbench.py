"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The traced and untraced runs here use reduced sizes (``small``): a 1000/3000
micro-op report checked against the static goldens, a 24-point explore,
and a 50-request serve stream.  The whole file takes about four minutes.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import job  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

#: Targets each workload must reach (the layer map in design.json).
EXPECTED_LAYERS = {
    "report_cold": (
        "workloads.generate_trace", "uarch.kernel.decode",
        "uarch.kernel.branch_outcomes", "uarch.kernel.replay_memory",
        "uarch.kernel.simulate_core", "uarch.kernel.run_trace_batch",
        "uarch.multicore.run_parallel_batch", "design.derive_frequency",
        "power.power_model_for", "power.evaluate",
        "thermal.solve_floorplans", "thermal.peak_temperature_for",
        "engine.submit_specs", "engine.cache.get", "engine.cache.put_many",
    ),
    "explore_cold": (
        "workloads.generate_trace", "uarch.kernel.run_trace_batch",
        "uarch.kernel.replay_memory", "design.derive_frequency",
        "power.power_model_for", "power.evaluate",
        "thermal.solve_floorplans", "thermal.peak_temperature_for",
        "engine.submit_specs", "engine.cache.get", "engine.cache.put_many",
        "explore.store.append_many", "explore.pareto_frontier",
    ),
    "serve_warm": (
        "obs.build_manifest", "serve.execute_request", "engine.submit_specs",
        "engine.cache.get", "power.power_model_for", "power.evaluate",
        "thermal.solve_floorplans", "thermal.peak_temperature_for",
        "design.derive_frequency",
    ),
}


def _metrics(line):
    return {name: entry["value"] for name, entry in line["metrics"].items()}


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced small runs per workload, with different seeds."""
    return {
        workload: [run.run(workload, seed, 1, trace=True, small=True)
                   for seed in (1, 2)]
        for workload in wl.WORKLOADS
    }


@pytest.fixture(scope="module")
def untraced_runs():
    return {workload: run.run(workload, 3, 1, trace=False, small=True)
            for workload in wl.WORKLOADS}


# -- traced runs ---------------------------------------------------------------

@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_expected_wrapper_fires(traced_runs, workload):
    for _, line in traced_runs[workload]:
        metrics = _metrics(line)
        silent = [name for name in EXPECTED_LAYERS[workload]
                  if metrics[f"{name}.calls"] < 1]
        assert not silent, f"{workload}: no calls through {silent}"


def test_every_wrapper_fires_somewhere():
    reached = {name for names in EXPECTED_LAYERS.values() for name in names}
    assert reached == {name for name, _, _ in tracing.TARGETS}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_calls_repeat_exactly_across_traced_runs(traced_runs, workload):
    first, second = (_metrics(line) for _, line in traced_runs[workload])
    calls = [name for name in first if name.endswith(".calls")]
    assert {name: first[name] for name in calls} == \
        {name: second[name] for name in calls}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_runs_report_every_layer(traced_runs, workload):
    declared = [m["name"] for m in run.declared_metrics(ROOT, trace=True)]
    for record, line in traced_runs[workload]:
        assert list(line["metrics"]) == declared
        assert record["missing_targets"] == []
        metrics = _metrics(line)
        assert metrics["trace_overhead"] > 0
        assert metrics["unattributed_s"] < record["traced_wall_s"]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_and_untraced_runs_pass_their_checks(
        traced_runs, untraced_runs, workload):
    for record, line in traced_runs[workload] + [untraced_runs[workload]]:
        assert line["correct"], record["problems"]
        assert line["failed"] == 0 and line["attempted"] >= 1


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_untraced_run_reports_positive_end_to_end_metrics(
        untraced_runs, workload):
    _, line = untraced_runs[workload]
    declared = [m["name"] for m in run.declared_metrics(ROOT, trace=False)]
    assert list(line["metrics"]) == declared
    assert all(value > 0 for value in _metrics(line).values())


# -- the checks can fail -------------------------------------------------------

def test_corrupted_golden_fails_the_report_check(tmp_path):
    goldens = tmp_path / "goldens"
    shutil.copytree(ROOT / "goldens", goldens)
    assert job.report_check(["table1", "table11"], goldens_dir=goldens) == []
    envelope = json.loads((goldens / "table11.json").read_text())

    def bump(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if isinstance(value, float):
                    node[key] = value * 1.5
                    return True
                if bump(value):
                    return True
        if isinstance(node, list):
            return any(bump(item) for item in node)
        return False

    assert bump(envelope["payload"])
    (goldens / "table11.json").write_text(json.dumps(envelope))
    assert job.report_check(["table1", "table11"], goldens_dir=goldens)


def test_explore_pin_survives_a_source_edit(tmp_path):
    """An edit that changes no result changes every cache key (they embed
    a hash of the sources) but must not break the pinned frontier."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    edited = tmp_path / "src" / "repro" / "explore" / "frontier.py"
    edited.write_text(edited.read_text() + "\n# A comment changes no result.\n")
    record, line = run.run("explore_cold", wl.EXPLORE_DEFAULT_SEED, 1,
                           trace=False, root=tmp_path)
    assert line["correct"], record["problems"]


@pytest.fixture(scope="module")
def served_references():
    """Well-formed 200 payloads for every serve body, via the serial path."""
    from repro.engine.sweep import ExperimentEngine
    from repro.serve import serial_reference

    engine = ExperimentEngine(jobs=1)
    payloads = []
    for endpoint, body in wl.serve_bodies(5):
        reference = serial_reference(endpoint, dict(body), engine)
        payloads.append({"schema": "repro-serve-v1", "status": "ok",
                         "manifest": {"serve": {"wait_seconds": 0.002}},
                         **reference})
    return payloads


def _responses(payloads):
    return [(index, 200, json.dumps(payload))
            for index, payload in enumerate(payloads)]


def test_verify_serve_accepts_faithful_responses(served_references):
    verdict = job.verify_serve(5, _responses(served_references))
    assert verdict["problems"] == []
    assert verdict["queue_wait_ms"] == pytest.approx(2.0)


def test_mutated_response_fails_the_serve_check(served_references):
    mutated = copy.deepcopy(served_references)
    mutated[1]["results"]["evaluations"][0]["cpi"][0] += 1e-9
    assert job.verify_serve(5, _responses(mutated))["problems"]
    failed = _responses(served_references)
    failed[2] = (2, 500, failed[2][2])
    assert job.verify_serve(5, failed)["problems"]


# -- tracer --------------------------------------------------------------------

def test_tracer_patches_every_alias_and_restores_them():
    tracing.import_all_repro()
    import repro.engine.sweep as sweep
    import repro.experiments.figures as figures

    originals = (sweep.generate_trace, figures.power_model_for)
    tracer = tracing.Tracer().install()
    try:
        assert tracer.missing == []
        assert tracer.unpatched_aliases() == []
        assert sweep.generate_trace is not originals[0]
        assert figures.power_model_for is not originals[1]
    finally:
        tracer.uninstall()
    assert (sweep.generate_trace, figures.power_model_for) == originals


def test_targets_a_refactor_removed_report_zeros(monkeypatch):
    tracing.import_all_repro()
    gone = (("gone.module", "repro.no_such_module", "f"),
            ("gone.method", "repro.engine.sweep", "NoSuchClass.f"),
            ("gone.function", "repro.engine.sweep", "no_such_function"))
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + gone)
    tracer = tracing.Tracer().install()
    tracer.uninstall()
    totals = tracer.snapshot()
    assert totals["missing"] == [name for name, _, _ in gone]
    metrics = tracing.layer_metrics(totals)
    assert all(metrics[f"{name}.calls"] == 0 for name, _, _ in gone)


def test_self_times_partition_the_outer_span():
    tracing.import_all_repro()
    from repro.core.configs import single_core_configs
    from repro.workloads.generator import generate_trace
    from repro.workloads.spec import spec_profiles

    trace = generate_trace(spec_profiles()[0], 400, seed=3)
    configs = single_core_configs()[:2]
    tracer = tracing.Tracer().install()
    try:
        from repro.uarch.kernel import run_trace_batch

        start = time.perf_counter()
        run_trace_batch(configs, trace)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    totals = tracer.snapshot()
    nested = ("uarch.kernel.run_trace_batch", "uarch.kernel.decode",
              "uarch.kernel.branch_outcomes", "uarch.kernel.replay_memory")
    assert [totals["calls"][name] for name in nested] == [1, 1, 1, 1]
    covered = sum(totals["self_s"][name] for name in nested)
    assert 0.5 * wall < covered <= wall
    assert 0 < totals["self_s"][nested[0]] < covered


# -- workload definitions ------------------------------------------------------

def test_report_micro_ops_match_the_suites():
    from repro.design.resolve import (
        paper_multicore_configs,
        paper_single_core_configs,
    )
    from repro.workloads.parallel import parallel_profiles
    from repro.workloads.spec import spec_profiles

    expected = (len(spec_profiles()) * len(paper_single_core_configs()) * 8000
                + len(parallel_profiles()) * len(paper_multicore_configs())
                * 24000)
    assert wl.report_micro_ops(8000, 24000) == expected == 2_808_000


def test_explore_space_has_the_documented_size():
    from repro.design.space import SpaceSpec

    space = SpaceSpec.from_dict(wl.EXPLORE_SPACE)
    assert sum(1 for _ in space.points()) == wl.EXPLORE_POINTS


def test_serve_stream_is_balanced_and_seeded():
    first, second = wl.serve_stream(1, 400), wl.serve_stream(2, 400)
    kinds = len(wl.serve_bodies(1))
    assert sorted(first) == sorted(second)
    assert all(first.count(kind) == 400 // kinds for kind in range(kinds))
    assert all(sorted(first[start:start + kinds]) == list(range(kinds))
               for start in range(0, 400, kinds))
    assert first != second and first == wl.serve_stream(1, 400)


# -- the contract --------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) \
        and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert {f"{name}.{kind}" for name, _, _ in tracing.TARGETS
            for kind in ("calls", "self_s")} <= per_layer


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report_cold",
         "--seed", "1", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
