"""References shared by several test modules.

* ``workloads``: the benchmark's inputs.  ``perfbench/workloads.py`` is
  plain data (it never imports ``repro``) outside any package, so it is
  loaded by path; the served bodies and the explore space stay defined
  once, by the benchmark.
* :func:`reference_key`: ``make_key`` as one ``json.dumps`` of the whole
  canonical payload, the form every stored key was built with.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from repro.engine.cache import _canonical, code_fingerprint

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def reference_key(kind, **parts):
    payload = json.dumps(
        {"kind": kind, "code": code_fingerprint(), "parts": _canonical(parts)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def spec_reference_key(spec):
    """:func:`reference_key` of a ``SimSpec``'s ``cache_key`` parts."""
    return reference_key(f"sim:{spec.mode}", config=spec.config,
                         profile=spec.profile, uops=spec.uops, seed=spec.seed)
