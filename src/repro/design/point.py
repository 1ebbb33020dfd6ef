"""The declarative design-point specification.

A :class:`DesignPoint` names everything that distinguishes one evaluated
processor design: the stack technology (2D, sequential M3D, die-stacked
TSV3D), the top-layer process (slowdown fraction and flavour), how the
storage structures are partitioned across layers, how the core frequency
is obtained from the partition plans, and the core organisation (cores,
voltage, pipeline widths).  It is pure data — every field is a JSON
scalar — so arbitrary points can be declared in a JSON file and swept
without touching the source (:func:`load_points`).

:mod:`repro.design.resolve` turns a point into the concrete objects the
rest of the repository consumes (a :class:`~repro.tech.process.StackSpec`,
a :class:`~repro.core.frequency.FrequencyDerivation`, a
:class:`~repro.core.configs.CoreConfig`, power/thermal models);
:mod:`repro.design.registry` holds the named points, including every
configuration the paper evaluates.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

#: Valid values per constrained field (shared with the CLI help text).
STACKS: Tuple[str, ...] = ("2D", "M3D", "TSV3D")
PARTITIONS: Tuple[str, ...] = ("symmetric", "asymmetric")
FREQUENCY_POLICIES: Tuple[str, ...] = ("base", "derived", "derived-naive", "fixed")
LAYER_FLAVORS: Tuple[str, ...] = ("HP", "LP")
PAPER_REFERENCES: Tuple[str, ...] = ("table6", "table8")


@dataclasses.dataclass(frozen=True)
class DesignPoint:
    """One point of the (tech x stack x partition x core) design space.

    Attributes
    ----------
    name:
        Registry key (unique).
    config_name:
        Display name stamped on the derived ``CoreConfig`` and reports;
        defaults to ``name``.  Lets e.g. a registered 4-core variant keep
        the paper's "Base" label.
    stack:
        ``"2D"``, ``"M3D"`` (sequential, MIV-connected) or ``"TSV3D"``
        (die-stacked).
    top_layer_slowdown:
        Fractional drive loss of top-layer devices (0.17 for the paper's
        low-temperature-processed layer; 0 for iso-performance layers).
    top_layer_flavor:
        ``"HP"`` or ``"LP"`` — the top layer's process flavour.
    partition:
        ``"symmetric"`` (the Figure-3 BP/WP/PP strategies) or
        ``"asymmetric"`` (the Section-4 hetero-layer searches; only takes
        effect when the stack's layers actually differ in speed).
    frequency_policy:
        How the clock is obtained:

        * ``"derived"`` — from the per-structure partition plans
          (Section 6.1's ``f = f_base / (1 - min_reduction)``);
        * ``"derived-naive"`` — derive the *iso* design's frequency, then
          pay ``naive_loss`` for ignoring the slow layer (M3D-HetNaive);
        * ``"base"`` — stay at the 2D base frequency;
        * ``"fixed"`` — pin to ``fixed_frequency`` Hz.
    critical_only:
        Restrict the derivation to the traditionally frequency-critical
        structures (the aggressive Agg variants).
    use_paper_values:
        Derive from the paper's published reduction tables
        (``paper_reference``) instead of the model's partition plans.
    num_cores, vdd, issue_width, dispatch_width, commit_width:
        Core organisation; ``None`` keeps the Table 9 defaults.
    shared_l2:
        ``True``, ``False`` or ``"multicore"`` (share L2s+router only
        when ``num_cores > 1`` — the Figure 4 organisation).
    power_stack:
        Override the energy-factor table
        (:func:`repro.power.energy.factors_for_stack` key), e.g.
        ``"M3D-LPtop"`` for an LP top layer.
    """

    name: str
    description: str = ""
    group: str = "custom"
    config_name: Optional[str] = None

    # -- technology / stack ---------------------------------------------------
    stack: str = "2D"
    top_layer_slowdown: float = 0.0
    top_layer_flavor: str = "HP"

    # -- partitioning ---------------------------------------------------------
    partition: str = "symmetric"

    # -- frequency policy -----------------------------------------------------
    frequency_policy: str = "derived"
    critical_only: bool = False
    naive_loss: Optional[float] = None
    fixed_frequency: Optional[float] = None
    frequency_note: Optional[str] = None
    use_paper_values: bool = False
    paper_reference: Optional[str] = None

    # -- core organisation ----------------------------------------------------
    num_cores: int = 1
    vdd: Optional[float] = None
    issue_width: Optional[int] = None
    dispatch_width: Optional[int] = None
    commit_width: Optional[int] = None
    shared_l2: Union[bool, str] = False

    # -- power / thermal overrides --------------------------------------------
    power_stack: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("a design point needs a non-empty name")
        _require(self.stack, STACKS, "stack")
        _require(self.partition, PARTITIONS, "partition")
        _require(self.frequency_policy, FREQUENCY_POLICIES, "frequency_policy")
        _require(self.top_layer_flavor, LAYER_FLAVORS, "top_layer_flavor")
        if self.paper_reference is not None:
            _require(self.paper_reference, PAPER_REFERENCES, "paper_reference")
        if not 0.0 <= self.top_layer_slowdown < 1.0:
            raise ValueError(
                f"{self.name}: top_layer_slowdown {self.top_layer_slowdown} "
                f"out of [0, 1)"
            )
        if self.naive_loss is not None and not 0.0 <= self.naive_loss < 1.0:
            raise ValueError(
                f"{self.name}: naive_loss {self.naive_loss} out of [0, 1)"
            )
        if self.frequency_policy == "fixed":
            if self.fixed_frequency is None or self.fixed_frequency <= 0:
                raise ValueError(
                    f"{self.name}: frequency_policy 'fixed' needs a positive "
                    f"fixed_frequency"
                )
        if self.frequency_policy in ("derived", "derived-naive") \
                and self.stack == "2D":
            raise ValueError(
                f"{self.name}: cannot derive a 3D frequency on a 2D stack"
            )
        if self.num_cores < 1:
            raise ValueError(f"{self.name}: need at least one core")
        if self.vdd is not None and self.vdd <= 0:
            raise ValueError(f"{self.name}: vdd must be positive")
        if self.shared_l2 not in (True, False, "multicore"):
            raise ValueError(
                f"{self.name}: shared_l2 must be true, false or 'multicore', "
                f"got {self.shared_l2!r}"
            )

    # -- derived views --------------------------------------------------------

    @property
    def display_name(self) -> str:
        """The name stamped on configs and reports."""
        return self.config_name or self.name

    @property
    def is_3d(self) -> bool:
        return self.stack != "2D"

    @property
    def hetero(self) -> bool:
        """True when the layers differ in speed (hetero-layer design)."""
        return self.is_3d and (
            self.top_layer_slowdown > 0.0 or self.top_layer_flavor != "HP"
        )

    def resolved_shared_l2(self) -> bool:
        """The concrete shared-L2 flag for this point's core count."""
        if self.shared_l2 == "multicore":
            return self.num_cores > 1
        return bool(self.shared_l2)

    # -- (de)serialisation ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping (round-trips through :meth:`from_dict`).

        Every field is a JSON scalar, so the flat mapping in field order
        is what ``dataclasses.asdict`` builds, without its deep copy.
        """
        return {field.name: getattr(self, field.name)
                for field in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DesignPoint":
        """Build a point from a JSON-style mapping; unknown keys error."""
        if not isinstance(data, Mapping):
            raise ValueError(
                f"design point must be an object, got {type(data).__name__}"
            )
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown design-point field(s) {unknown}; "
                f"known fields: {sorted(known)}"
            )
        return cls(**dict(data))


def _require(value: Any, allowed: Tuple[str, ...], field: str) -> None:
    if value not in allowed:
        raise ValueError(f"{field} must be one of {allowed}, got {value!r}")


def load_points(path: Union[str, os.PathLike]) -> List[DesignPoint]:
    """Load design points from a JSON file.

    Accepts a single point object, a list of point objects, or
    ``{"points": [...]}``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, Mapping) and "points" in data:
        data = data["points"]
    if isinstance(data, Mapping):
        data = [data]
    if not isinstance(data, list):
        raise ValueError(
            f"{path}: expected a point object, a list, or {{'points': [...]}}"
        )
    return [DesignPoint.from_dict(entry) for entry in data]
