"""repro.golden — paper-fidelity golden artifacts and differential oracles.

The subsystem behind ``repro validate``: canonical JSON snapshots of
every table/figure/design-point artifact (:mod:`repro.golden.store`),
a tolerance-policy comparison engine producing structured drift reports
(:mod:`repro.golden.compare`, :mod:`repro.golden.policy`), differential
oracles cross-checking the repo's redundant implementations
(:mod:`repro.golden.oracles`), and the orchestrator wiring it into the
CLI and run manifests (:mod:`repro.golden.validate`).
"""

from repro.golden.artifacts import (
    TRACE_CASES,
    Artifact,
    BuildParams,
    artifact_names,
    artifacts,
    get_artifact,
)
from repro.golden.compare import (
    DRIFT_KINDS,
    Comparison,
    Drift,
    compare_payloads,
)
from repro.golden.policy import (
    EXACT,
    MODEL_FLOAT,
    TABLE11_MODEL_RTOL,
    TABLE11_PAPER_PINNED_RTOL,
    THERMAL_FLOAT,
    Tolerance,
    policy_for,
)
from repro.golden.serialize import (
    canonical,
    canonical_dumps,
    trace_digest,
)
from repro.golden.store import (
    GOLDEN_SCHEMA_VERSION,
    GoldenError,
    default_goldens_dir,
    golden_path,
    load_golden,
    write_golden,
)
from repro.golden.validate import (
    DRIFT_SCHEMA_VERSION,
    ORACLES_ARTIFACT,
    UnknownArtifactError,
    print_report,
    run_validation,
    select_artifacts,
)

__all__ = [
    "TRACE_CASES",
    "Artifact",
    "BuildParams",
    "artifact_names",
    "artifacts",
    "get_artifact",
    "DRIFT_KINDS",
    "Comparison",
    "Drift",
    "compare_payloads",
    "EXACT",
    "MODEL_FLOAT",
    "TABLE11_MODEL_RTOL",
    "TABLE11_PAPER_PINNED_RTOL",
    "THERMAL_FLOAT",
    "Tolerance",
    "policy_for",
    "canonical",
    "canonical_dumps",
    "trace_digest",
    "GOLDEN_SCHEMA_VERSION",
    "GoldenError",
    "default_goldens_dir",
    "golden_path",
    "load_golden",
    "write_golden",
    "DRIFT_SCHEMA_VERSION",
    "ORACLES_ARTIFACT",
    "UnknownArtifactError",
    "print_report",
    "run_validation",
    "select_artifacts",
]
