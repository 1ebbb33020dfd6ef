"""The named design-point registry.

Every configuration the paper evaluates — the six single-core designs of
Figures 6-8 and the five multicore designs of Figures 9-10 — is registered
here as a declarative :class:`~repro.design.point.DesignPoint`, alongside
a set of non-paper extension points (top-layer slowdown sensitivity
ladder, hetero-partitioned TSV3D, LP-top M3D).  ``repro list`` prints
this registry; ``repro sweep`` resolves and evaluates any subset of it.

User code registers additional points with :func:`register` (or declares
them in JSON and passes the file to ``repro sweep``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.design.point import DesignPoint
from repro.tech import constants

#: The six single-core designs of Figures 6-8, in figure order.
PAPER_SINGLE_CORE: Tuple[str, ...] = (
    "Base", "TSV3D", "M3D-Iso", "M3D-HetNaive", "M3D-Het", "M3D-HetAgg",
)

#: The five multicore designs of Figures 9-10, in figure order.
PAPER_MULTICORE: Tuple[str, ...] = (
    "Base-4C", "TSV3D-4C", "M3D-Het-4C", "M3D-Het-W", "M3D-Het-2X",
)

#: Table 11 row order (differs from the figure order).
TABLE11_ORDER: Tuple[str, ...] = (
    "Base", "M3D-Iso", "M3D-HetNaive", "M3D-Het", "M3D-HetAgg", "TSV3D",
)

_REGISTRY: "OrderedDict[str, DesignPoint]" = OrderedDict()


def register(point: DesignPoint, *, replace: bool = False) -> DesignPoint:
    """Add a point to the registry (``replace=True`` to overwrite)."""
    if not replace and point.name in _REGISTRY:
        raise ValueError(f"design point {point.name!r} is already registered")
    _REGISTRY[point.name] = point
    return point


def unregister(name: str) -> None:
    """Remove a registered point (mainly for tests)."""
    _REGISTRY.pop(name, None)


def get_point(name: str) -> DesignPoint:
    """Look a registered point up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no registered design point {name!r}; "
            f"known points: {', '.join(_REGISTRY)}"
        ) from None


def point_names(group: Optional[str] = None) -> List[str]:
    """Registered point names, optionally filtered by group."""
    return [p.name for p in registered_points(group)]


def registered_points(group: Optional[str] = None) -> List[DesignPoint]:
    """Registered points in registration order, optionally by group."""
    points = list(_REGISTRY.values())
    if group is not None:
        points = [p for p in points if p.group == group]
    return points


def registry_groups() -> Dict[str, List[DesignPoint]]:
    """Points keyed by group, preserving registration order."""
    groups: "OrderedDict[str, List[DesignPoint]]" = OrderedDict()
    for point in _REGISTRY.values():
        groups.setdefault(point.group, []).append(point)
    return groups


# -- built-in points ----------------------------------------------------------

_HET = constants.TOP_LAYER_DELAY_PENALTY


def _register_paper_points() -> None:
    register(DesignPoint(
        name="Base", group="paper",
        description="2D baseline: RF-limited at 3.3 GHz (Table 9)",
        stack="2D", frequency_policy="base",
        frequency_note="(2D baseline: RF access limits the cycle)",
    ))
    register(DesignPoint(
        name="TSV3D", group="paper",
        description="die-stacked TSV3D: 3D path savings, base clock",
        stack="TSV3D", partition="symmetric", frequency_policy="base",
        frequency_note="(kept at base: negative TSV reductions)",
        shared_l2="multicore",
    ))
    register(DesignPoint(
        name="M3D-Iso", group="paper",
        description="M3D with (hypothetical) iso-performance layers",
        stack="M3D", partition="symmetric", frequency_policy="derived",
        paper_reference="table6",
    ))
    register(DesignPoint(
        name="M3D-IsoAgg", group="paper",
        description="M3D-Iso limited only by the critical structures",
        stack="M3D", partition="symmetric", frequency_policy="derived",
        critical_only=True, paper_reference="table6",
    ))
    register(DesignPoint(
        name="M3D-HetNaive", group="paper",
        description="hetero M3D partitioned as if iso; pays Shi et al.'s "
                    "frequency loss",
        stack="M3D", top_layer_slowdown=_HET, partition="symmetric",
        frequency_policy="derived-naive", paper_reference="table6",
    ))
    register(DesignPoint(
        name="M3D-Het", group="paper",
        description="hetero M3D with the asymmetric Section-4 partitions",
        stack="M3D", top_layer_slowdown=_HET, partition="asymmetric",
        frequency_policy="derived", paper_reference="table8",
        shared_l2="multicore",
    ))
    register(DesignPoint(
        name="M3D-HetAgg", group="paper",
        description="M3D-Het limited only by the critical structures",
        stack="M3D", top_layer_slowdown=_HET, partition="asymmetric",
        frequency_policy="derived", critical_only=True,
        paper_reference="table8",
    ))


def _register_paper_multicore_points() -> None:
    register(DesignPoint(
        name="Base-4C", config_name="Base", group="paper-multicore",
        description="4-core 2D baseline (Figure 9 reference)",
        stack="2D", frequency_policy="base", num_cores=4,
        frequency_note="(2D baseline: RF access limits the cycle)",
    ))
    register(DesignPoint(
        name="TSV3D-4C", config_name="TSV3D", group="paper-multicore",
        description="4-core TSV3D with shared L2s",
        stack="TSV3D", partition="symmetric", frequency_policy="base",
        frequency_note="(kept at base: negative TSV reductions)",
        num_cores=4, shared_l2="multicore",
    ))
    register(DesignPoint(
        name="M3D-Het-4C", config_name="M3D-Het", group="paper-multicore",
        description="4-core M3D-Het: the wire-delay win spent on frequency",
        stack="M3D", top_layer_slowdown=_HET, partition="asymmetric",
        frequency_policy="derived", paper_reference="table8",
        num_cores=4, shared_l2="multicore",
    ))
    register(DesignPoint(
        name="M3D-Het-W", group="paper-multicore",
        description="the win spent on issue width (8-wide, base clock)",
        stack="M3D", top_layer_slowdown=_HET, partition="asymmetric",
        frequency_policy="base",
        frequency_note="(kept at base: cycle spent on width)",
        num_cores=4, issue_width=8, dispatch_width=5, commit_width=5,
        shared_l2=True,
    ))
    register(DesignPoint(
        name="M3D-Het-2X", group="paper-multicore",
        description="the win spent on cores: 8 cores at 0.75 V, base clock",
        stack="M3D", top_layer_slowdown=_HET, partition="asymmetric",
        frequency_policy="base",
        frequency_note="(kept at base: cycle spent on cores)",
        num_cores=8, vdd=constants.VDD_HET2X, shared_l2=True,
    ))


def _register_extension_points() -> None:
    """Non-paper points: the design space the paper did not publish."""
    for slowdown in (30, 50, 70):
        register(DesignPoint(
            name=f"M3D-Het{slowdown}", group="extension",
            description=f"hetero M3D sensitivity: {slowdown}% top-layer "
                        f"slowdown, asymmetric partitions",
            stack="M3D", top_layer_slowdown=slowdown / 100.0,
            partition="asymmetric", frequency_policy="derived",
            shared_l2="multicore",
        ))
    register(DesignPoint(
        name="TSV3D-Het", group="extension",
        description="hetero-layer dies joined by TSVs with asymmetric "
                    "partitioning (can TSVs ever raise the clock?)",
        stack="TSV3D", top_layer_slowdown=_HET, partition="asymmetric",
        frequency_policy="derived",
    ))
    register(DesignPoint(
        name="M3D-LPtop", group="extension",
        description="M3D-Het clocked design with an LP/FDSOI top layer's "
                    "energy factors (Section 7.1.2)",
        stack="M3D", top_layer_slowdown=_HET, partition="asymmetric",
        frequency_policy="derived", power_stack="M3D-LPtop",
        shared_l2="multicore",
    ))


_register_paper_points()
_register_paper_multicore_points()
_register_extension_points()
