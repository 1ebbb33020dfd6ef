"""The registry of golden artifacts: everything the paper publishes.

Every paper table and figure (:data:`repro.experiments.runner.ARTIFACTS`,
in report order), the full design-point registry, the pinned
workload-trace digests, the golden exploration and the golden manycore
scenario are registered here as :class:`Artifact` entries.  Each knows
how to rebuild its payload from the live models; ``repro validate``
compares that rebuild against the committed golden, ``repro validate
--update`` re-blesses it.

Static artifacts (tables, Figure 2, the design space, trace digests)
are independent of the sweep sizes; simulated artifacts (figures 6-10,
explore, manycore) record the :class:`BuildParams` they were blessed at
inside the golden envelope, and validation replays them at exactly
those sizes.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Callable, List, Optional, Tuple

from repro.experiments.runner import ARTIFACTS, STATIC, BuildParams
from repro.golden.serialize import trace_digest

#: The pinned trace-generation cases: (suite, profile index, uops, seed,
#: thread).  The kernel's replay-sharing memos assume traces are pure
#: functions of these inputs; the ``traces`` artifact (and the kernel
#: test suite, which imports this constant) pins their digests.
TRACE_CASES: Tuple[Tuple[str, int, int, int, Optional[int]], ...] = (
    ("spec", 0, 2000, 1234, None),
    ("spec", 5, 1500, 7, None),
    ("parallel", 0, 1200, 1234, 0),
    ("parallel", 3, 900, 99, 2),
)


@dataclasses.dataclass(frozen=True)
class Artifact:
    """One golden-tracked artifact."""

    name: str
    build: Callable[[BuildParams], dict]
    #: Static artifacts do not depend on the sweep sizes; their golden
    #: params are recorded but irrelevant to the rebuild.
    static: bool = True


def _build_traces(params: BuildParams) -> dict:
    from repro.workloads.generator import generate_trace
    from repro.workloads.parallel import parallel_profiles
    from repro.workloads.spec import spec_profiles

    cases = []
    for suite, index, uops, seed, thread in TRACE_CASES:
        profiles = spec_profiles() if suite == "spec" else parallel_profiles()
        profile = profiles[index]
        kwargs = {} if thread is None else {"thread": thread}
        trace = generate_trace(profile, uops, seed=seed, **kwargs)
        cases.append({
            "suite": suite,
            "index": index,
            "profile": profile.name,
            "uops": uops,
            "seed": seed,
            "thread": thread,
            "digest": trace_digest(trace),
        })
    return {"cases": cases}


def _build_points(params: BuildParams) -> dict:
    from repro.design.resolve import design_space_snapshot

    return {"points": design_space_snapshot()}


def _build_explore(params: BuildParams) -> dict:
    from repro.explore import GOLDEN_SPACE, GOLDEN_SPACE_APPS, explore

    report = explore(
        GOLDEN_SPACE,
        uops=params.uops,
        multicore_uops=params.multicore_uops,
        seed=params.seed,
        grid=params.grid,
        apps=GOLDEN_SPACE_APPS,
    )
    # The store content keys embed the live code fingerprint, so they
    # change on every source edit; the golden pins the frontier's
    # physics, not its cache identity.
    frontier = [
        {k: v for k, v in entry.items() if k != "key"}
        for entry in report.frontier
    ]
    return {
        "spec": GOLDEN_SPACE.to_dict(),
        "apps": GOLDEN_SPACE_APPS,
        "points": {
            "total": report.total_points,
            "unique": report.unique_points,
            "duplicates": report.duplicates,
        },
        "frontier": frontier,
    }


def _build_manycore(params: BuildParams) -> dict:
    from repro.experiments.manycore import (
        GOLDEN_SCENARIO,
        GOLDEN_SCENARIO_APPS,
        evaluate_manycore,
        get_scenario,
    )

    report = evaluate_manycore(
        get_scenario(GOLDEN_SCENARIO),
        total_uops=params.multicore_uops,
        seed=params.seed,
        base_grid=params.grid,
        apps=GOLDEN_SCENARIO_APPS,
    )
    return report.as_dict()


#: The paper's tables and figures in report order, then the design
#: points, the trace digests, the golden exploration and the golden
#: manycore scenario.
_REGISTRY: "OrderedDict[str, Artifact]" = OrderedDict(
    (artifact.name, artifact) for artifact in [
        *(Artifact(name,
                   lambda params, build=build: build(params).as_dict(),
                   static=name in STATIC)
          for name, build in ARTIFACTS.items()),
        Artifact("points", _build_points),
        Artifact("traces", _build_traces),
        Artifact("explore", _build_explore, static=False),
        Artifact("manycore", _build_manycore, static=False),
    ]
)


def artifacts() -> "OrderedDict[str, Artifact]":
    """The artifact registry."""
    return _REGISTRY


def artifact_names() -> List[str]:
    return list(_REGISTRY)


def get_artifact(name: str) -> Artifact:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown golden artifact {name!r}; "
            f"known artifacts: {', '.join(_REGISTRY)}"
        ) from None
