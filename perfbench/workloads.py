"""The benchmark's three workloads, as plain data.

Both the coordinator (``run.py``, which never imports ``repro``) and the
job processes (``job.py``) read this module, so every size, seed rule and
request body is defined once.  The rationale for each workload lives in
``design.json`` next to this file.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

WORKLOADS = ("report_cold", "explore_cold", "serve_warm")

# -- report_cold ---------------------------------------------------------------

#: The goldens' sizes and seed: the report's inputs are pinned by the
#: committed goldens, so the workload seed does not change them.
REPORT_UOPS = 8000
REPORT_MULTICORE_UOPS = 24000


def report_micro_ops(uops: int, multicore_uops: int) -> int:
    """Micro-ops the report simulates: 21 SPEC apps x 6 single-core
    designs x ``uops``, plus 15 parallel apps x 5 multicore designs x
    ``multicore_uops`` (2.808 M at the goldens' sizes)."""
    return 21 * 6 * uops + 15 * 5 * multicore_uops


#: Golden artifacts the report is checked against after its timed phase.
REPORT_ARTIFACTS = (
    "table1", "table2", "table3", "table4", "table5", "table6", "table8",
    "table11", "figure2", "figure6", "figure7", "figure8", "figure9",
    "figure10",
)

#: Static (simulation-free) subset, the only goldens a reduced-size
#: report can be checked against.
REPORT_STATIC_ARTIFACTS = REPORT_ARTIFACTS[:9]

# -- explore_cold --------------------------------------------------------------

#: 2 stacks x 3 slowdowns x 6 (issue >= dispatch) pairs x 3 commit widths x
#: 2 voltages = 216 single-core points with a derived clock.
EXPLORE_SPACE = {
    "name": "perfbench-explore",
    "kind": "cartesian",
    "base": {"frequency_policy": "derived"},
    "axes": {
        "stack": ["M3D", "TSV3D"],
        "top_layer_slowdown": [0.0, 0.17, 0.3],
        "issue_width": [4, 6, 8],
        "dispatch_width": [4, 6, 8],
        "commit_width": [4, 6, 8],
        "vdd": [0.9, 1.0],
    },
    "constraints": ["issue_width >= dispatch_width"],
}
EXPLORE_POINTS = 216
EXPLORE_UOPS = 4000
EXPLORE_APPS = 4
EXPLORE_CHUNK = 64

#: The workload seed is explore's trace seed.  At this seed the frontier,
#: without its fingerprinted cache keys, must hash to
#: :data:`EXPLORE_FRONTIER_SHA256` (``job.frontier_digest``).
EXPLORE_DEFAULT_SEED = 1234
EXPLORE_FRONTIER_SHA256 = (
    "b8e25578d7153773e1f79fcceadd581fc028af5c769d71673c6ac71e2a727657"
)

# -- serve_warm ----------------------------------------------------------------

#: ``python -m repro`` arguments of the served process.
SERVE_ARGS = ("--jobs", "1", "serve", "--port", "0")

#: Closed-loop client connections (the reference host has 2 vCPUs).
SERVE_CLIENTS = 2

#: Stream length per ``--seconds`` of run length: 50/s gives 1000
#: requests at 20 s, so the recorded p99 has 10 samples beyond it.
SERVE_REQUESTS_PER_SECOND = 50

SERVE_UOPS = 1000
SERVE_APPS = 4


def serve_bodies(seed: int) -> List[Tuple[str, Dict[str, object]]]:
    """The distinct ``(endpoint, body)`` pairs a serve stream draws from.

    Single-core and multicore points through both compute endpoints.  The
    workload seed becomes the bodies' trace seed.
    """
    sizes = {"uops": SERVE_UOPS, "apps": SERVE_APPS, "seed": seed % 2**31}
    return [
        ("/sweep", {"points": ["M3D-Het", "TSV3D"], **sizes}),
        ("/sweep", {"points": ["M3D-Het-4C", "TSV3D-4C"], **sizes}),
        ("/points", {"points": [{"name": "perfbench-m3d", "stack": "M3D",
                                 "top_layer_slowdown": 0.1}], **sizes}),
        ("/points", {"points": [{"name": "perfbench-4c", "stack": "M3D",
                                 "num_cores": 4, "shared_l2": "multicore",
                                 "top_layer_slowdown": 0.17}], **sizes}),
    ]


def serve_stream(seed: int, requests: int) -> List[int]:
    """Body indices in send order: every run of ``len(bodies)`` requests
    holds each body once, in an order drawn from the seed.

    The balance keeps the per-layer call counts identical for every seed.
    Balancing each block, not just the whole stream, fixes the body mix
    of every stretch of it: the server's latency grows with its history,
    so the tail percentiles come from the end of the stream, and a seed
    that happened to end on the heaviest bodies would read slower.
    """
    kinds = len(serve_bodies(seed))
    rng = random.Random(seed)
    stream: List[int] = []
    while len(stream) < requests:
        block = list(range(kinds))
        rng.shuffle(block)
        stream.extend(block)
    return stream[:requests]


# -- run length ----------------------------------------------------------------

#: Run length per cold job: a batch run times ``round(seconds / this)``
#: jobs, at least one, so the job count is fixed by the run length rather
#: than by how fast the host happens to be.  At 20 s that is one report
#: (25-45 s) and two explores (6.5-12 s each); the run reports the median
#: job.  More jobs would not fit the benchmark's time budget for all runs
#: when the host is slow.
SECONDS_PER_JOB = {"report_cold": 28.0, "explore_cold": 10.0}


def job_count(workload: str, seconds: int) -> int:
    return max(1, round(seconds / SECONDS_PER_JOB[workload]))
