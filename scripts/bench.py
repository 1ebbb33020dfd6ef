"""Performance benchmark for the experiment engine.

Times the full report, design-space exploration, the sweep server and
the manycore pipeline, and writes a ``BENCH_<timestamp>.json`` record so
the performance trajectory is tracked from commit to commit.
Correctness lives elsewhere: ``repro validate --deep`` holds the kernel
oracle and the golden comparison, and the test suite holds explore's
resume and the manycore oracle.

Usage::

    PYTHONPATH=src python scripts/bench.py            # full record
    PYTHONPATH=src python scripts/bench.py --quick    # CI smoke run

Sections
--------

``runner``
    Wall-clock of every table and figure through the engine: a cold pass
    (empty caches), a warm in-memory pass (same process), and a warm
    on-disk pass (fresh engine, populated cache directory — must not
    simulate anything).
``explore_pipeline``
    Serial-chunk (``in_flight=1``, one pool spawn per chunk) vs
    pipelined (``in_flight=2`` on the warm persistent worker pool)
    explore throughput at ``--jobs 2`` — points/sec and pool spawns for
    both modes, byte-identity of the two stores, and a
    zero-re-evaluation resume check.  CI asserts the pipelined mode is
    at least as fast as the serial one, and that only the serial mode
    spawns (once per chunk).
``serve``
    ``repro serve`` under load: one cold CLI sweep (interpreter start +
    imports + evaluation — the per-request price before the server
    existed) vs N concurrent HTTP clients hammering the same request at
    a warm in-process server.  Reports both request rates, the
    throughput ratio, and a byte-identity audit: every served response
    must match the serial in-process reference (modulo the per-request
    manifest's timing/telemetry).  CI asserts warm throughput is at
    least 5x the cold-CLI rate with zero divergent responses.
``manycore``
    One heterogeneous tile-grid scenario (``repro manycore``) through
    the batched kernel, with the chip thermal solve included.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs import (  # noqa: E402  (path set up above)
    RunRecord,
    build_manifest,
    metrics_path,
    run_record,
    timer,
    write_manifest,
)

#: Seed-commit wall-clock of the full report (every table and figure) at
#: default sizes on the reference container (measured before the engine
#: existed).  Only the *fallback* baseline: a fresh run compares itself
#: against the most recent full ``BENCH_*.json`` in the repo when one
#: exists (see :func:`latest_bench_baseline`), so the trajectory is
#: commit-over-commit rather than forever-vs-seed.
SEED_RUNNER_SECONDS = 175.3

#: Performance gate on the cold full-size runner pass.  Ten full runs on
#: a 2-vCPU x86_64 host read 0.921-1.313 s (median 0.954 s); the
#: committed median-run record, BENCH_20261021_012412, reads 0.957 s, and
#: the gate sits just under 1.5x that, the most
#: ``tests/test_bench_gate.py`` allows.  A full-mode cold pass slower
#: than this fails CI (``gate_ok`` in the runner record) — raise the
#: gate deliberately, with a committed BENCH record, not by accident.
#: The gate is only 9% above the slowest of those runs, so a slow spell
#: of the host can cross it: re-run a failing pass before reading it as
#: a regression.
RUNNER_GATE_SECONDS = 1.43


def latest_bench_baseline(exclude: Path = None) -> tuple:
    """Cold-runner baseline from the most recent full ``BENCH_*.json``.

    Returns ``(cold_seconds, source)`` where ``source`` is the record's
    file name, or ``(SEED_RUNNER_SECONDS, "seed")`` when no prior full
    record exists.  ``--quick`` records are skipped (tiny sizes), as is
    ``exclude`` (the file this run is about to write).
    """
    candidates = []
    for path in REPO_ROOT.glob("BENCH_*.json"):
        if exclude is not None and path.resolve() == Path(exclude).resolve():
            continue
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if record.get("quick"):
            continue
        cold = record.get("runner", {}).get("cold_seconds")
        if isinstance(cold, (int, float)) and cold > 0:
            candidates.append((record.get("timestamp", ""), path.name,
                               float(cold)))
    if not candidates:
        return SEED_RUNNER_SECONDS, "seed"
    candidates.sort()
    _, name, cold = candidates[-1]
    return cold, name


def _silent(name, fn, *args, **kwargs):
    """Run fn with stdout swallowed under a named :func:`repro.obs.timer`
    span; return (seconds, result)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        with timer(name) as span:
            result = fn(*args, **kwargs)
    return span.seconds, result


def bench_runner(uops: int, multicore_uops: int, quick: bool,
                 baseline: tuple = None) -> dict:
    """Cold, warm-memory and warm-disk wall-clock of the full report."""
    from repro import engine
    from repro.experiments.runner import run_figures, run_tables

    def full_report():
        run_tables()
        run_figures(uops, multicore_uops)

    # Cold: fresh engine, nothing cached anywhere.
    engine.configure(jobs=1, cache_dir=None)
    cold_seconds, _ = _silent("runner.cold", full_report)

    # Warm memory: same engine, same process.
    warm_memory_seconds, _ = _silent("runner.warm_memory", full_report)

    # Warm disk: populate a cache directory, then start a fresh engine
    # (empty memory) pointed at it — every result must come from disk.
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        engine.configure(jobs=1, cache_dir=tmp)
        _silent("runner.populate_disk", full_report)
        engine.configure(jobs=1, cache_dir=tmp)
        warm_disk_seconds, _ = _silent("runner.warm_disk", full_report)
        warm_disk_misses = engine.get_engine().cache.stats.misses
    engine.configure(jobs=1, cache_dir=None)

    record = {
        "uops": uops,
        "multicore_uops": multicore_uops,
        "cold_seconds": round(cold_seconds, 3),
        "warm_memory_seconds": round(warm_memory_seconds, 3),
        "warm_disk_seconds": round(warm_disk_seconds, 3),
        "warm_disk_misses": warm_disk_misses,
    }
    if not quick:
        # Baselines were measured at default sizes; comparing a --quick
        # run against them would be meaningless.
        baseline_seconds, baseline_source = (
            baseline if baseline is not None else latest_bench_baseline()
        )
        record["baseline_seconds"] = baseline_seconds
        record["baseline_source"] = baseline_source
        record["speedup_vs_baseline"] = round(
            baseline_seconds / cold_seconds, 2
        )
        record["speedup_vs_seed"] = round(SEED_RUNNER_SECONDS / cold_seconds, 2)
        record["gate_seconds"] = RUNNER_GATE_SECONDS
        record["gate_ok"] = cold_seconds <= RUNNER_GATE_SECONDS
    return record


def bench_explore_pipeline(samples: int, uops: int, apps: int,
                           chunk_size: int, repeats: int = 2) -> dict:
    """Serial-chunk vs pipelined explore throughput at ``--jobs 2``.

    The same seeded random space runs twice per repeat through a
    2-worker engine.  The **serial-chunk** pass reproduces the pre-pool
    regime: ``in_flight=1`` (strict expand→evaluate→commit), with the
    shared pool shut down before the pass and again after every
    committed chunk, so each chunk spawns, warms and tears down its own
    workers — per-chunk pool spawn and cold worker-side trace memos,
    exactly what a chunked explore paid before the persistent pool.  The
    **pipelined** pass is the shipped default: ``in_flight=2`` over the
    shared pool (chunk N+1 simulating while chunk N's power/thermal
    post-processing and group commit run on the parent — on multi-core
    hosts the two genuinely overlap; everywhere the spawn/re-warm tax is
    gone).  An untimed warmup pass runs first, warming the parent's
    per-point memos for both modes, and again before each pipelined
    pass, so that pass starts on a spawned, warm pool; each mode's best
    of ``repeats`` is reported, with the pool spawns of its last pass
    (one per chunk for serial, none for pipelined).  The two
    stores must be byte-identical (pipelining must not reorder or alter
    records), and a resume over the pipelined store with a fresh engine
    must re-evaluate nothing.
    """
    from repro.design.space import SpaceSpec
    from repro.engine.pool import pool_stats, shutdown_pool
    from repro.engine.sweep import ExperimentEngine
    from repro.explore import explore
    from repro.golden.serialize import canonical_dumps

    space = SpaceSpec(
        name="bench-pipeline",
        kind="random",
        samples=samples,
        seed=20260808,
        axes={
            "stack": ("M3D", "TSV3D"),
            "top_layer_slowdown": (0.0, 0.17, 0.3, 0.5),
            "partition": ("symmetric", "asymmetric"),
            "frequency_policy": ("base", "derived"),
            "vdd": (0.9, 1.0),
        },
    )

    def run_pass(tmp: Path, tag: str, in_flight: int, progress=None):
        store_path = tmp / f"{tag}.jsonl"
        store_path.unlink(missing_ok=True)
        spawns = pool_stats()["spawns"]
        with timer(f"explore.pipeline_{tag}") as span:
            report = explore(
                space, store_path=store_path, uops=uops, apps=apps,
                chunk_size=chunk_size, in_flight=in_flight,
                engine=ExperimentEngine(jobs=2), progress=progress,
            )
        spawns = pool_stats()["spawns"] - spawns
        return span.seconds, report, store_path.read_bytes(), spawns

    with tempfile.TemporaryDirectory(prefix="repro-bench-pipeline-") as tmp:
        tmp = Path(tmp)
        run_pass(tmp, "warmup", 2)
        serial_seconds = pipelined_seconds = None
        for _ in range(repeats):
            shutdown_pool()
            seconds, serial_report, serial_bytes, serial_spawns = run_pass(
                tmp, "serial", 1, progress=lambda _: shutdown_pool()
            )
            serial_seconds = (seconds if serial_seconds is None
                              else min(serial_seconds, seconds))
            run_pass(tmp, "warmup", 2)
            (seconds, pipelined_report, pipelined_bytes,
             pipelined_spawns) = run_pass(tmp, "pipelined", 2)
            pipelined_seconds = (seconds if pipelined_seconds is None
                                 else min(pipelined_seconds, seconds))
        store_identical = serial_bytes == pipelined_bytes
        resume_engine = ExperimentEngine(jobs=2)
        with timer("explore.pipeline_resume") as resume_span:
            resumed = explore(
                space, store_path=tmp / "pipelined.jsonl", uops=uops,
                apps=apps, chunk_size=chunk_size, in_flight=2,
                engine=resume_engine,
            )
        frontier_identical = (
            canonical_dumps(pipelined_report.frontier)
            == canonical_dumps(resumed.frontier)
        )
    evaluated = pipelined_report.evaluated
    return {
        "samples": samples,
        "uops": uops,
        "apps": apps,
        "chunk_size": chunk_size,
        "jobs": 2,
        "repeats": repeats,
        "chunks": pipelined_report.chunks,
        "evaluated": evaluated,
        "serial_seconds": round(serial_seconds, 3),
        "pipelined_seconds": round(pipelined_seconds, 3),
        "serial_points_per_second": round(
            evaluated / max(serial_seconds, 1e-9), 1
        ),
        "pipelined_points_per_second": round(
            evaluated / max(pipelined_seconds, 1e-9), 1
        ),
        "pipelined_speedup": round(
            serial_seconds / max(pipelined_seconds, 1e-9), 2
        ),
        "serial_spawns": serial_spawns,
        "pipelined_spawns": pipelined_spawns,
        "store_identical": store_identical,
        "resume_seconds": round(resume_span.seconds, 4),
        "resume_evaluated": resumed.evaluated,
        "resume_cache_misses": resume_engine.cache.stats.misses,
        "frontier_identical": frontier_identical,
        "pool": pool_stats(),
    }


def bench_serve(uops: int, clients: int, requests_per_client: int) -> dict:
    """Warm served request rate vs the cold-CLI price, plus identity.

    The cold baseline is one real ``python -m repro sweep`` subprocess —
    interpreter start, imports, cold caches — because that is what every
    request cost before the server existed.  The server then takes
    ``clients`` concurrent threads, ``requests_per_client`` requests
    each, against a warm cache; every response's identity payload
    (endpoint + normalised request + results, i.e. everything except the
    per-request timing/telemetry manifest) must be byte-identical to the
    serial in-process reference.
    """
    import subprocess
    import threading

    from repro.engine.sweep import ExperimentEngine
    from repro.golden.serialize import canonical_dumps
    from repro.serve import (
        ReproServer,
        identity_payload,
        request_json,
        serial_reference,
    )

    body = {"points": ["Base", "M3D-Het"], "uops": uops}

    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    with timer("serve.cold_cli") as cold_span:
        subprocess.run(
            [sys.executable, "-m", "repro", "--uops", str(uops),
             "sweep", "Base,M3D-Het"],
            check=True, capture_output=True, env=env, cwd=REPO_ROOT,
        )
    cold_seconds = cold_span.seconds

    reference = canonical_dumps(serial_reference("/sweep", dict(body)))

    total = clients * requests_per_client
    responses = [None] * total
    errors = []
    server = ReproServer(
        port=0,
        engine=ExperimentEngine(jobs=1, cache_dir=None),
        queue_size=total + 8,
    )
    with server:
        request_json(server.port, "POST", "/sweep", dict(body))  # warm pass

        def client(index: int) -> None:
            try:
                for j in range(requests_per_client):
                    status, payload = request_json(
                        server.port, "POST", "/sweep", dict(body)
                    )
                    if status != 200:
                        raise RuntimeError(f"status {status}: {payload}")
                    responses[index * requests_per_client + j] = payload
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=client, args=(i,), daemon=True)
            for i in range(clients)
        ]
        with timer("serve.warm_load") as load_span:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        section = server.serve_section()

    assert not errors, f"serve load generator failed: {errors[:3]}"
    divergent = sum(
        1 for payload in responses
        if canonical_dumps(identity_payload(payload)) != reference
    )
    load_seconds = load_span.seconds
    cold_rate = 1.0 / max(cold_seconds, 1e-9)
    warm_rate = total / max(load_seconds, 1e-9)
    return {
        "uops": uops,
        "clients": clients,
        "requests_per_client": requests_per_client,
        "requests": total,
        "cold_cli_seconds": round(cold_seconds, 3),
        "cold_requests_per_second": round(cold_rate, 2),
        "warm_load_seconds": round(load_seconds, 3),
        "warm_requests_per_second": round(warm_rate, 2),
        "throughput_vs_cold": round(warm_rate / cold_rate, 1),
        "divergent_responses": divergent,
        "served": section["requests"],
        "rejected": section["rejected"],
        "cache_hit_ratio": round(section["cache_hit_ratio"], 4),
        "mean_wait_seconds": round(
            section["wait_seconds"] / max(section["requests"], 1), 4
        ),
        "mean_service_seconds": round(
            section["service_seconds"] / max(section["requests"], 1), 4
        ),
    }


def bench_manycore(scenario: str, uops: int, apps: int,
                   base_grid: int) -> dict:
    """Tile-grid scenario wall-clock through the batched kernel.

    A smaller untimed run first pays the set-up (design resolution,
    power models, thermal factorization, warm-cache snapshots), so the
    timed pass measures simulation and the chip thermal solve.
    """
    from repro.experiments.manycore import evaluate_manycore, get_scenario
    from repro.uarch.kernel import kernel_enabled

    grid = get_scenario(scenario)
    with timer("manycore.setup") as setup_span:
        evaluate_manycore(
            grid, total_uops=max(grid.num_tiles, uops // 8),
            base_grid=base_grid, apps=apps,
        )
    with timer("manycore.kernel") as kernel_span:
        report = evaluate_manycore(
            grid, total_uops=uops, base_grid=base_grid, apps=apps,
        )
    noc = report.resolved.noc
    return {
        "scenario": scenario,
        "tiles": grid.num_tiles,
        "apps": len(report.apps),
        "uops": uops,
        "thermal_grid": report.thermal_grid,
        "kernel_enabled": kernel_enabled(),
        "setup_seconds": round(setup_span.seconds, 3),
        "kernel_seconds": round(kernel_span.seconds, 3),
        "noc_latency": noc.average_latency,
        "max_peak_c": round(max(report.peak_c.values()), 2),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--output", default=None,
                        help="output path (default: BENCH_<timestamp>.json)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write a schema-versioned run manifest (JSON) "
                             "here; $REPRO_METRICS sets the default")
    args = parser.parse_args()
    with run_record() as run:
        bench(args, run)


def bench(args: argparse.Namespace, run: RunRecord) -> None:
    """Every benchmark section; ``run`` collects the invocation's
    telemetry and timer spans for the manifest."""
    if args.quick:
        sizes = dict(uops=1000, multicore_uops=3000,
                     explore_samples=24, explore_uops=400, explore_apps=2,
                     pipeline_chunk=6,
                     serve_uops=300, serve_clients=8, serve_requests=2,
                     manycore_scenario="mixed-2x2", manycore_uops=3000,
                     manycore_apps=2, manycore_grid=8)
    else:
        sizes = dict(uops=8000, multicore_uops=24000,
                     explore_samples=200, explore_uops=2000, explore_apps=3,
                     pipeline_chunk=16,
                     serve_uops=1000, serve_clients=8, serve_requests=4,
                     manycore_scenario="mixed-4x4", manycore_uops=24000,
                     manycore_apps=3, manycore_grid=12)

    if args.output:
        out = Path(args.output)
    else:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%d_%H%M%S")
        out = REPO_ROOT / f"BENCH_{stamp}.json"
    baseline = latest_bench_baseline(exclude=out)

    record = {
        "schema": "repro-bench-v1",
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "quick": args.quick,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
    }
    print(f"benchmarking runner (uops={sizes['uops']}, "
          f"multicore_uops={sizes['multicore_uops']}) ...")
    record["runner"] = bench_runner(
        sizes["uops"], sizes["multicore_uops"], args.quick, baseline=baseline
    )
    print(f"  cold {record['runner']['cold_seconds']}s, "
          f"warm-memory {record['runner']['warm_memory_seconds']}s, "
          f"warm-disk {record['runner']['warm_disk_seconds']}s "
          f"({record['runner']['warm_disk_misses']} misses)")
    if not args.quick:
        print(f"  {record['runner']['speedup_vs_baseline']}x vs baseline "
              f"{record['runner']['baseline_seconds']}s "
              f"({record['runner']['baseline_source']})")
        gate = "ok" if record["runner"]["gate_ok"] else "FAIL"
        print(f"  perf gate {record['runner']['gate_seconds']}s: {gate}")

    print(f"benchmarking explore pipeline (samples="
          f"{sizes['explore_samples']}, chunk={sizes['pipeline_chunk']}, "
          f"jobs=2) ...")
    record["explore_pipeline"] = bench_explore_pipeline(
        sizes["explore_samples"], sizes["explore_uops"],
        sizes["explore_apps"], sizes["pipeline_chunk"]
    )
    print(f"  serial {record['explore_pipeline']['serial_seconds']}s "
          f"({record['explore_pipeline']['serial_points_per_second']}/s) vs "
          f"pipelined {record['explore_pipeline']['pipelined_seconds']}s "
          f"({record['explore_pipeline']['pipelined_points_per_second']}/s, "
          f"{record['explore_pipeline']['pipelined_speedup']}x) over "
          f"{record['explore_pipeline']['chunks']} chunks "
          f"({record['explore_pipeline']['serial_spawns']} vs "
          f"{record['explore_pipeline']['pipelined_spawns']} pool spawns); "
          f"store identical: "
          f"{record['explore_pipeline']['store_identical']}, resume "
          f"re-evaluated {record['explore_pipeline']['resume_evaluated']}, "
          f"frontier identical: "
          f"{record['explore_pipeline']['frontier_identical']}")

    print(f"benchmarking serve (clients={sizes['serve_clients']}, "
          f"uops={sizes['serve_uops']}) ...")
    record["serve"] = bench_serve(
        sizes["serve_uops"], sizes["serve_clients"], sizes["serve_requests"]
    )
    print(f"  cold CLI {record['serve']['cold_cli_seconds']}s/request "
          f"({record['serve']['cold_requests_per_second']}/s) vs warm "
          f"server {record['serve']['warm_requests_per_second']}/s over "
          f"{record['serve']['requests']} requests "
          f"({record['serve']['throughput_vs_cold']}x), divergent "
          f"responses: {record['serve']['divergent_responses']}, "
          f"cache hit ratio {record['serve']['cache_hit_ratio']}")

    print(f"benchmarking manycore scenario "
          f"({sizes['manycore_scenario']}, "
          f"uops={sizes['manycore_uops']}) ...")
    record["manycore"] = bench_manycore(
        sizes["manycore_scenario"], sizes["manycore_uops"],
        sizes["manycore_apps"], sizes["manycore_grid"]
    )
    print(f"  kernel {record['manycore']['kernel_seconds']}s over "
          f"{record['manycore']['tiles']} tiles / "
          f"{record['manycore']['apps']} apps, peak "
          f"{record['manycore']['max_peak_c']}C")

    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")

    destination = metrics_path(args.metrics_out)
    if destination:
        mode = "--quick" if args.quick else "full"
        manifest = build_manifest(f"scripts/bench.py {mode}", run)
        write_manifest(manifest, destination)
        print(f"wrote manifest {destination}")


if __name__ == "__main__":
    main()
