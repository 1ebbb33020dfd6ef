"""The golden comparison engine: structured drift, never a crash.

``compare_payloads`` walks a golden payload and a freshly recomputed one
in parallel and emits one :class:`Drift` record per disagreement — a
value outside its tolerance, a missing or extra key, a changed type, a
length mismatch.  It never raises on malformed or mismatched inputs:
a validator that crashes on the drift it was built to catch is useless,
so every anomaly becomes a record instead.

Numeric leaves are judged by the tolerance policy
(:func:`repro.golden.policy.policy_for`); everything else is exact.
Payloads are compared in canonical form (tagged non-finites decoded back
to floats first), so a golden loaded from disk and a payload built in
memory meet on equal terms.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, List, Tuple

from repro.golden.policy import EXACT, Tolerance, policy_for
from repro.golden.serialize import decode_nonfinite

#: Drift kinds, in roughly increasing order of structural severity.
DRIFT_KINDS = ("value", "type", "missing", "extra", "length", "schema")


@dataclasses.dataclass(frozen=True)
class Drift:
    """One disagreement between a golden cell and its recomputed value."""

    artifact: str
    path: str
    kind: str  # one of DRIFT_KINDS
    expected: Any
    actual: Any
    policy: str
    message: str

    def as_record(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class Comparison:
    """The outcome of comparing one artifact's payload against golden."""

    artifact: str
    cells: int  # leaf cells compared
    drifts: List[Drift]

    @property
    def clean(self) -> bool:
        return not self.drifts


def compare_payloads(artifact: str, golden: Any, actual: Any) -> Comparison:
    """Compare a recomputed payload against its golden counterpart."""
    drifts: List[Drift] = []
    cells = _walk(artifact, (), golden, actual, drifts)
    return Comparison(artifact=artifact, cells=cells, drifts=drifts)


def _fmt_path(path: Tuple[str, ...]) -> str:
    return "/".join(str(p) for p in path) or "(root)"


def _drift(drifts: List[Drift], artifact: str, path: Tuple[str, ...],
           kind: str, expected: Any, actual: Any, policy: Tolerance,
           message: str) -> None:
    drifts.append(Drift(
        artifact=artifact,
        path=_fmt_path(path),
        kind=kind,
        expected=_portable(expected),
        actual=_portable(actual),
        policy=policy.describe(),
        message=message,
    ))


def _portable(value: Any) -> Any:
    """Clamp a drift record field to something JSON can always carry."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        if isinstance(value, float) and not math.isfinite(value):
            return repr(value)
        return value
    text = repr(value)
    return text if len(text) <= 200 else text[:197] + "..."


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _walk(artifact: str, path: Tuple[str, ...], golden: Any, actual: Any,
          drifts: List[Drift]) -> int:
    """Recursive comparison; returns the number of leaf cells visited."""
    golden = decode_nonfinite(golden)
    actual = decode_nonfinite(actual)

    if isinstance(golden, dict) and isinstance(actual, dict):
        # A tagged non-finite that failed to decode (corrupt tag) still
        # looks like a dict; compare it structurally like any other.
        cells = 0
        for key in sorted(set(golden) | set(actual), key=str):
            key = str(key)
            if key not in actual:
                _drift(drifts, artifact, path + (key,), "missing",
                       golden[key], None, EXACT,
                       f"golden cell {_fmt_path(path + (key,))} is missing "
                       f"from the recomputed payload")
                cells += 1
            elif key not in golden:
                _drift(drifts, artifact, path + (key,), "extra",
                       None, actual[key], EXACT,
                       f"recomputed payload has cell "
                       f"{_fmt_path(path + (key,))} with no golden "
                       f"counterpart")
                cells += 1
            else:
                cells += _walk(artifact, path + (key,), golden[key],
                               actual[key], drifts)
        return cells

    if isinstance(golden, list) and isinstance(actual, list):
        cells = 0
        if len(golden) != len(actual):
            _drift(drifts, artifact, path, "length",
                   len(golden), len(actual), EXACT,
                   f"{_fmt_path(path)}: golden has {len(golden)} entries, "
                   f"recomputed has {len(actual)}")
        for index, (g, a) in enumerate(zip(golden, actual)):
            cells += _walk(artifact, path + (str(index),), g, a, drifts)
        return cells

    # Leaves from here on.
    if _is_number(golden) and _is_number(actual):
        tolerance = policy_for(artifact, path)
        if not tolerance.matches(float(golden), float(actual)):
            _drift(drifts, artifact, path, "value", golden, actual,
                   tolerance,
                   f"{_fmt_path(path)}: expected {golden!r}, got "
                   f"{actual!r} ({tolerance.describe()})")
        return 1

    if type(golden) is not type(actual):
        _drift(drifts, artifact, path, "type", golden, actual, EXACT,
               f"{_fmt_path(path)}: golden is "
               f"{type(golden).__name__}, recomputed is "
               f"{type(actual).__name__}")
        return 1

    if golden != actual:
        _drift(drifts, artifact, path, "value", golden, actual, EXACT,
               f"{_fmt_path(path)}: expected {golden!r}, got {actual!r}")
    return 1
