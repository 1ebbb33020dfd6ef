"""The ``repro validate`` orchestrator.

Rebuilds every requested artifact from the live models (through the
shared experiment engine, so caching and ``--jobs`` apply), compares the
rebuild against the committed golden under the tolerance policy, and
assembles one structured drift report.  ``--update`` re-blesses the
requested goldens instead of comparing; ``--deep`` adds the
differential oracles of :mod:`repro.golden.oracles`, whose hard
failures fail the run in either mode (an update then leaves the oracle
baseline as it was).

The report is JSON-ready: it is embedded into the run manifest as the
``validation`` section (:mod:`repro.obs.manifest`, schema v3), written
to ``--report PATH`` when asked, and summarised on stdout.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.golden.artifacts import (
    Artifact,
    BuildParams,
    artifact_names,
    artifacts,
)
from repro.golden.compare import compare_payloads
from repro.golden.oracles import run_deep_oracles
from repro.golden.store import (
    GoldenError,
    golden_path,
    load_golden,
    write_golden,
)

#: Drift-report schema; bump when the report shape changes.
DRIFT_SCHEMA_VERSION = "repro-drift-v1"

#: The pseudo-artifact holding the deep-oracle baseline: not in the
#: registry, selected by ``--deep`` or by name.
ORACLES_ARTIFACT = "oracles"

#: Drifted cells :func:`print_report` lists before summarising the rest.
MAX_PRINTED_DRIFTS = 20


class UnknownArtifactError(KeyError):
    """A ``--only`` entry names no registered artifact."""


def select_artifacts(only: Optional[Sequence[str]] = None,
                     deep: bool = False) -> List[str]:
    """Resolve a ``--only`` selection to concrete artifact names."""
    known = artifact_names() + [ORACLES_ARTIFACT]
    names = list(only) if only else artifact_names()
    for name in names:
        if name not in known:
            raise UnknownArtifactError(
                f"unknown golden artifact {name!r}; "
                f"known artifacts: {', '.join(known)}"
            )
    if deep and ORACLES_ARTIFACT not in names:
        names.append(ORACLES_ARTIFACT)
    return names


def _artifact_entry(name: str, status: str, cells: int = 0,
                    drifts: Optional[List[dict]] = None,
                    path: Optional[str] = None,
                    error: Optional[str] = None) -> dict:
    return {
        "artifact": name,
        "status": status,  # "pass" | "drift" | "error" | "updated"
        "cells": cells,
        "drifts": drifts or [],
        "path": path,
        "error": error,
    }


def run_validation(only: Optional[Sequence[str]] = None,
                   update: bool = False,
                   deep: bool = False,
                   goldens_dir=None,
                   params: Optional[BuildParams] = None,
                   report_path=None) -> Dict[str, Any]:
    """Run one validate/update pass and return the drift report."""
    params = params if params is not None else BuildParams()
    names = select_artifacts(only, deep=deep)
    registry: Dict[str, Artifact] = dict(artifacts())
    oracle_failures: List[str] = []
    if ORACLES_ARTIFACT in names:
        # The oracles run first, so their hard failures are reported
        # even when their baseline cannot be loaded.
        payloads, oracle_failures = run_deep_oracles()
        registry[ORACLES_ARTIFACT] = Artifact(ORACLES_ARTIFACT,
                                              lambda _: payloads)

    entries: List[dict] = []
    for name in names:
        artifact = registry[name]
        failed = name == ORACLES_ARTIFACT and bool(oracle_failures)
        path = golden_path(name, goldens_dir)
        if update and failed:
            # A failing oracle must never become the baseline.
            entries.append(_artifact_entry(
                name, "error", path=str(path),
                error=f"{len(oracle_failures)} hard oracle failure(s); "
                      f"baseline not re-blessed",
            ))
            continue
        if update:
            write_golden(name, artifact.build(params),
                         params=params.as_dict(), goldens_dir=goldens_dir)
            entries.append(_artifact_entry(name, "updated", path=str(path)))
            continue
        try:
            envelope = load_golden(name, goldens_dir)
        except GoldenError as exc:
            entries.append(_artifact_entry(
                name, "error", path=str(path), error=str(exc)
            ))
            continue
        build_params = params if artifact.static \
            else BuildParams.from_dict(envelope["params"])
        comparison = compare_payloads(
            name, envelope["payload"], artifact.build(build_params)
        )
        entries.append(_artifact_entry(
            name,
            "pass" if comparison.clean and not failed else "drift",
            cells=comparison.cells,
            drifts=[drift.as_record() for drift in comparison.drifts],
            path=str(path),
        ))

    drifted = [e["artifact"] for e in entries if e["status"] == "drift"]
    errors = [e["artifact"] for e in entries if e["status"] == "error"]
    if drifted or errors or oracle_failures:
        status = "fail"
    else:
        status = "updated" if update else "pass"
    report: Dict[str, Any] = {
        "schema": DRIFT_SCHEMA_VERSION,
        "mode": "update" if update else "validate",
        "deep": ORACLES_ARTIFACT in names,
        "status": status,
        "params": params.as_dict(),
        "artifacts": entries,
        "oracle_failures": oracle_failures,
        "summary": {
            "artifacts": len(entries),
            "cells": sum(e["cells"] for e in entries),
            "drifted_cells": sum(len(e["drifts"]) for e in entries),
            "drifted_artifacts": drifted,
            "errors": errors,
        },
    }

    from repro.obs import attach_section

    attach_section("validation", report)
    if report_path is not None:
        import json
        from pathlib import Path

        Path(report_path).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
    return report


def print_report(report: Dict[str, Any]) -> None:
    """Human-readable drift-report summary (the CLI's output)."""
    mode = report["mode"]
    print(f"\n=== repro validate ({mode}"
          + (", deep" if report["deep"] else "") + ") ===")
    for entry in report["artifacts"]:
        name = entry["artifact"]
        status = entry["status"]
        if status == "updated":
            print(f"  {name:<12} updated -> {entry['path']}")
        elif status == "pass":
            print(f"  {name:<12} ok ({entry['cells']} cells)")
        elif status == "error":
            print(f"  {name:<12} ERROR: {entry['error']}")
        else:
            print(f"  {name:<12} DRIFT: {len(entry['drifts'])} of "
                  f"{entry['cells']} cells")
    shown = 0
    for entry in report["artifacts"]:
        for drift in entry["drifts"]:
            if shown >= MAX_PRINTED_DRIFTS:
                remaining = report["summary"]["drifted_cells"] - shown
                print(f"  ... and {remaining} more drifted cells")
                break
            print(f"    {entry['artifact']}:{drift['path']} "
                  f"[{drift['kind']}] {drift['message']}")
            shown += 1
        else:
            continue
        break
    for failure in report["oracle_failures"]:
        print(f"  ORACLE FAILURE: {failure}")
    print(f"status: {report['status'].upper()}")
