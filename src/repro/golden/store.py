"""Reading and writing versioned golden files under ``goldens/``.

One JSON file per artifact, in canonical serialization (sorted keys,
round-trip floats, tagged non-finites — see
:mod:`repro.golden.serialize`), wrapped in a schema-tagged envelope::

    {
      "schema": "repro-golden-v1",
      "artifact": "table11",
      "params": {...},      # the build parameters the snapshot used
      "payload": {...}      # the artifact content
    }

``params`` travel with the golden so ``repro validate`` recomputes each
artifact at exactly the sizes it was blessed at, regardless of the
current CLI defaults.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.golden.serialize import canonical_dumps

#: Golden envelope schema; bump when the envelope shape changes.
GOLDEN_SCHEMA_VERSION = "repro-golden-v1"

PathLike = Union[str, os.PathLike]


class GoldenError(ValueError):
    """A golden file is missing, unreadable, or structurally invalid."""


def default_goldens_dir() -> Path:
    """The committed ``goldens/`` directory.

    ``$REPRO_GOLDENS`` overrides; otherwise the directory sits at the
    repository root (three levels above this file in the src layout).
    """
    override = os.environ.get("REPRO_GOLDENS")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "goldens"


def resolve_dir(goldens_dir: Optional[PathLike] = None) -> Path:
    return Path(goldens_dir) if goldens_dir is not None \
        else default_goldens_dir()


def golden_path(name: str, goldens_dir: Optional[PathLike] = None) -> Path:
    return resolve_dir(goldens_dir) / f"{name}.json"


def write_golden(name: str, payload: Any,
                 params: Optional[Dict[str, Any]] = None,
                 goldens_dir: Optional[PathLike] = None) -> Path:
    """Serialise one artifact's golden envelope; returns the path."""
    target = golden_path(name, goldens_dir)
    target.parent.mkdir(parents=True, exist_ok=True)
    envelope = {
        "schema": GOLDEN_SCHEMA_VERSION,
        "artifact": name,
        "params": params or {},
        "payload": payload,
    }
    target.write_text(canonical_dumps(envelope), encoding="utf-8")
    return target


def load_golden(name: str,
                goldens_dir: Optional[PathLike] = None) -> Dict[str, Any]:
    """Load and structurally check one golden envelope.

    Raises :class:`GoldenError` — never a bare ``json`` or ``OSError`` —
    so callers can turn any failure mode into a drift record.
    """
    path = golden_path(name, goldens_dir)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise GoldenError(
            f"no golden for artifact {name!r} at {path} "
            f"(run `repro validate --update --only {name}` to bless it)"
        ) from None
    except OSError as exc:
        raise GoldenError(f"cannot read golden {path}: {exc}") from exc
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GoldenError(f"corrupt golden {path}: {exc}") from exc
    if not isinstance(envelope, dict):
        raise GoldenError(
            f"corrupt golden {path}: expected an object, got "
            f"{type(envelope).__name__}"
        )
    if envelope.get("schema") != GOLDEN_SCHEMA_VERSION:
        raise GoldenError(
            f"golden {path} has schema {envelope.get('schema')!r}; "
            f"this build reads {GOLDEN_SCHEMA_VERSION!r} "
            f"(re-bless with `repro validate --update`)"
        )
    if envelope.get("artifact") != name:
        raise GoldenError(
            f"golden {path} is tagged for artifact "
            f"{envelope.get('artifact')!r}, not {name!r}"
        )
    if "payload" not in envelope:
        raise GoldenError(f"golden {path} has no payload")
    if not isinstance(envelope.get("params"), dict):
        raise GoldenError(f"golden {path}: params must be an object")
    return envelope
