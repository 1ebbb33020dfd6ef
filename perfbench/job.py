"""One benchmark job in a fresh process (launched by ``run.py``).

Usage::

    python perfbench/job.py report_cold  --seed N --result OUT.json [--trace]
    python perfbench/job.py explore_cold --seed N --result OUT.json [--trace]
    python perfbench/job.py verify_serve --seed N --responses IN.jsonl \
        --result OUT.json

A job process imports every ``repro`` module, notes the moment it is
ready (``setup_s`` runs from the parent's launch to this moment), runs one
timed job, and only then runs the job's output check.  With ``--trace``
the layer wrappers of :mod:`tracer` are installed after the ready mark
and their totals are read right after the timed phase.  ``verify_serve``
checks the responses a serve stream collected.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import tracer as tracing
import workloads as wl


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def frontier_digest(frontier: Sequence[Dict[str, object]]) -> str:
    """sha256 of the frontier's physics.

    Each entry's ``key`` embeds the code fingerprint, a hash of every
    ``repro`` source file, so it is left out: the pin must survive any
    edit that keeps the results (``repro.golden`` strips it likewise).
    """
    from repro.golden.serialize import canonical_dumps

    physics = [{k: v for k, v in entry.items() if k != "key"}
               for entry in frontier]
    return hashlib.sha256(canonical_dumps(physics).encode()).hexdigest()


# -- report_cold ---------------------------------------------------------------

def report_check(artifacts: Sequence[str],
                 goldens_dir: Optional[Path] = None) -> List[str]:
    """Problems found by validating ``artifacts`` against the goldens."""
    from repro.golden import run_validation

    with contextlib.redirect_stdout(io.StringIO()):
        report = run_validation(only=list(artifacts), goldens_dir=goldens_dir)
    if report["status"] == "pass":
        return []
    summary = report["summary"]
    return [f"goldens {report['status']}: drifted "
            f"{summary['drifted_artifacts']}, errors {summary['errors']}"]


def report_job(small: bool = False,
               tracer: Optional[tracing.Tracer] = None) -> Dict[str, object]:
    """The full paper report on an empty in-memory cache."""
    from repro import engine
    from repro.experiments.runner import run_figures, run_tables

    uops, multicore_uops = ((1000, 3000) if small else
                            (wl.REPORT_UOPS, wl.REPORT_MULTICORE_UOPS))
    engine.configure(jobs=1, cache_dir=None)
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        run_tables()
        run_figures(uops, multicore_uops)
        wall = time.perf_counter() - start
    result = {
        "wall_s": wall,
        "ops": wl.report_micro_ops(uops, multicore_uops),
        "rss_mb": _peak_rss_mb(),
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    # The run's own engine cache answers the figure goldens; a reduced
    # report can only be held to the simulation-free ones.
    result["problems"] = report_check(
        wl.REPORT_STATIC_ARTIFACTS if small else wl.REPORT_ARTIFACTS)
    return result


# -- explore_cold --------------------------------------------------------------

def explore_job(seed: int, workdir: Path, small: bool = False,
                tracer: Optional[tracing.Tracer] = None) -> Dict[str, object]:
    """A cold explore into a fresh store, then a resume check."""
    from repro.design.space import SpaceSpec
    from repro.engine.sweep import ExperimentEngine
    from repro.explore import explore

    space = SpaceSpec.from_dict(wl.EXPLORE_SPACE)
    expected = 24 if small else wl.EXPLORE_POINTS
    options = dict(
        uops=1000 if small else wl.EXPLORE_UOPS,
        apps=2 if small else wl.EXPLORE_APPS,
        chunk_size=8 if small else wl.EXPLORE_CHUNK,
        seed=seed,
        limit=expected,
    )
    store = Path(workdir) / "explore.jsonl"
    store.unlink(missing_ok=True)
    start = time.perf_counter()
    report = explore(space, store_path=store,
                     engine=ExperimentEngine(jobs=1), **options)
    wall = time.perf_counter() - start
    result = {
        "wall_s": wall,
        "ops": report.evaluated,
        "rss_mb": _peak_rss_mb(),
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    result["problems"] = explore_check(space, store, options, report,
                                       expected, pin=not small)
    return result


def explore_check(space, store: Path, options: Dict[str, object], report,
                  expected: int, pin: bool) -> List[str]:
    """A fresh engine resuming the store must evaluate nothing and
    reproduce the frontier byte for byte; at the default seed
    :func:`frontier_digest` must match the pinned digest."""
    from repro.engine.sweep import ExperimentEngine
    from repro.explore import explore
    from repro.golden.serialize import canonical_dumps

    problems = []
    if report.error is not None or report.evaluated != expected:
        problems.append(f"explore evaluated {report.evaluated} of "
                        f"{expected} points (error: {report.error})")
    resumed = explore(space, store_path=store,
                      engine=ExperimentEngine(jobs=1), **options)
    if resumed.evaluated:
        problems.append(f"resume re-evaluated {resumed.evaluated} points")
    frontier = canonical_dumps(report.frontier)
    if canonical_dumps(resumed.frontier) != frontier:
        problems.append("resumed frontier differs from the cold frontier")
    if pin and options["seed"] == wl.EXPLORE_DEFAULT_SEED:
        digest = frontier_digest(report.frontier)
        if digest != wl.EXPLORE_FRONTIER_SHA256:
            problems.append(f"frontier digest {digest} differs from the "
                            f"pinned {wl.EXPLORE_FRONTIER_SHA256}")
    return problems


# -- serve_warm ----------------------------------------------------------------

def verify_serve(seed: int,
                 responses: Sequence[Tuple[int, int, str]]) -> Dict[str, object]:
    """Check served ``(body index, status, payload)`` triples.

    Every response must be a 200 whose identity payload equals the serial
    reference for its body.  Also returns the median queue wait the
    responses' manifests report.
    """
    from repro.engine.sweep import ExperimentEngine
    from repro.golden.serialize import canonical_dumps
    from repro.serve import identity_payload, serial_reference

    engine = ExperimentEngine(jobs=1)
    references = [
        canonical_dumps(serial_reference(endpoint, dict(body), engine))
        for endpoint, body in wl.serve_bodies(seed)
    ]
    bad: List[int] = []
    waits: List[float] = []
    for index, (body, status, text) in enumerate(responses):
        try:
            payload = json.loads(text)
            same = (status == 200 and canonical_dumps(
                identity_payload(payload)) == references[body])
        except (ValueError, KeyError, TypeError):
            same = False
        if not same:
            bad.append(index)
            continue
        wait = payload.get("manifest", {}).get("serve", {}).get("wait_seconds")
        if isinstance(wait, (int, float)):
            waits.append(float(wait))
    problems = []
    if bad:
        problems.append(f"{len(bad)} of {len(responses)} responses differ "
                        f"from the serial reference (first: #{bad[0]})")
    waits.sort()
    return {
        "problems": problems,
        "queue_wait_ms": 1000.0 * waits[len(waits) // 2] if waits else 0.0,
    }


def read_responses(path: Path) -> List[Tuple[int, int, str]]:
    with open(path, "r", encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle]


# -- entry point ---------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("report_cold", "explore_cold",
                                         "verify_serve"))
    parser.add_argument("--seed", type=int, default=wl.EXPLORE_DEFAULT_SEED)
    parser.add_argument("--result", type=Path, required=True,
                        help="result file; its directory holds scratch files")
    parser.add_argument("--responses", type=Path, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes (the benchmark's own tests)")
    args = parser.parse_args(argv)

    # Every repro module, and through them every library the job would
    # otherwise import lazily inside its timed phase.
    tracing.import_all_repro()
    ready = time.monotonic()

    if args.mode == "verify_serve":
        result = verify_serve(args.seed, read_responses(args.responses))
    else:
        tracer = tracing.Tracer().install() if args.trace else None
        if args.mode == "report_cold":
            result = report_job(small=args.small, tracer=tracer)
        else:
            result = explore_job(args.seed, args.result.parent,
                                 small=args.small, tracer=tracer)
    result["ready"] = ready
    scratch = args.result.with_suffix(".tmp")
    scratch.write_text(json.dumps(result))
    scratch.replace(args.result)


if __name__ == "__main__":
    sys.exit(main())
