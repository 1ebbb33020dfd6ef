"""Synthetic workloads: SPEC2006 and SPLASH2/PARSEC application profiles
plus the deterministic trace generator."""

from repro.workloads.generator import TraceGenerator, generate_trace
from repro.workloads.parallel import parallel_by_name, parallel_profiles
from repro.workloads.profiles import AppProfile
from repro.workloads.spec import spec_by_name, spec_profiles

__all__ = [
    "TraceGenerator",
    "generate_trace",
    "parallel_by_name",
    "parallel_profiles",
    "AppProfile",
    "spec_by_name",
    "spec_profiles",
]
