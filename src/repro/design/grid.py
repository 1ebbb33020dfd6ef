"""Tile-grid scenario specs: a heterogeneous manycore as declarative JSON.

A :class:`TileGrid` names a ``rows x cols`` mesh of *tiles*, each tile a
registered (or inline) :class:`~repro.design.point.DesignPoint` — the
registry's M3D-Het30/50/70 extension points are ready-made tile types.
:func:`resolve_manycore` resolves every tile to a single-core
:class:`~repro.design.resolve.ResolvedDesign` and builds the matching
:class:`~repro.uarch.noc.MeshNoc`, producing everything the multicore
simulator (:func:`repro.uarch.multicore.evaluate_tiles`), the power
model and the manycore thermal solver need.

Like :class:`~repro.design.space.SpaceSpec`, grids are plain JSON
(:func:`load_grid`) or Python and round-trip through :meth:`to_dict` /
:meth:`from_dict`.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.design.point import DesignPoint
from repro.design.resolve import ResolvedDesign, resolve


class GridError(ValueError):
    """A malformed :class:`TileGrid`, or one naming unknown tiles."""


@dataclasses.dataclass(frozen=True)
class TileGrid:
    """One declarative manycore scenario.

    Attributes
    ----------
    name:
        Stamped on results and used as the default scenario label.
    rows, cols:
        Mesh dimensions; the grid carries ``rows * cols`` tiles.
    tiles:
        Row-major tile names, one per mesh position.  Each must name a
        registered design point or a key of ``points``.
    points:
        Optional inline DesignPoint specs (``name -> to_dict() mapping``)
        for tiles not in the registry.
    folded_tiles:
        Whether NoC links are shortened by folded (3D) tiles.  ``None``
        (default) derives it: folded iff *every* tile is 3D.
    injection_rate:
        Flits per core per cycle offered to the mesh — drives the
        M/D/1 contention term of :class:`~repro.uarch.noc.MeshNoc`.
    """

    name: str
    rows: int
    cols: int
    tiles: Tuple[str, ...]
    points: Mapping[str, Mapping[str, Any]] = dataclasses.field(
        default_factory=dict)
    folded_tiles: Optional[bool] = None
    injection_rate: float = 0.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise GridError("a tile grid needs a non-empty name")
        for dim, value in (("rows", self.rows), ("cols", self.cols)):
            if not isinstance(value, int) or value < 1:
                raise GridError(
                    f"{self.name}: {dim} must be a positive int, "
                    f"got {value!r}"
                )
        tiles = tuple(self.tiles)
        object.__setattr__(self, "tiles", tiles)
        expected = self.rows * self.cols
        if len(tiles) != expected:
            raise GridError(
                f"{self.name}: a {self.rows}x{self.cols} grid needs "
                f"{expected} tiles, got {len(tiles)}"
            )
        for tile in tiles:
            if not tile or not isinstance(tile, str):
                raise GridError(
                    f"{self.name}: tile names must be non-empty strings, "
                    f"got {tile!r}"
                )
        points: Dict[str, Dict[str, Any]] = {}
        for key, spec in dict(self.points).items():
            if isinstance(spec, DesignPoint):
                spec = spec.to_dict()
            if not isinstance(spec, Mapping):
                raise GridError(
                    f"{self.name}: inline point {key!r} must be a "
                    f"DesignPoint mapping, got {type(spec).__name__}"
                )
            points[key] = dict(spec)
        object.__setattr__(self, "points", points)
        if self.folded_tiles is not None \
                and not isinstance(self.folded_tiles, bool):
            raise GridError(
                f"{self.name}: folded_tiles must be true, false or null"
            )
        if not isinstance(self.injection_rate, (int, float)) \
                or not 0.0 <= self.injection_rate <= 1.0:
            raise GridError(
                f"{self.name}: injection_rate must be in [0, 1], "
                f"got {self.injection_rate!r}"
            )

    @property
    def num_tiles(self) -> int:
        return self.rows * self.cols

    def tile_names(self) -> List[str]:
        """Unique tile names, in first-appearance order."""
        seen: List[str] = []
        for tile in self.tiles:
            if tile not in seen:
                seen.append(tile)
        return seen

    def tile_point(self, tile: str) -> DesignPoint:
        """The DesignPoint behind one tile name (inline beats registry)."""
        if tile in self.points:
            spec = dict(self.points[tile])
            spec.setdefault("name", tile)
            try:
                return DesignPoint.from_dict(spec)
            except ValueError as exc:
                raise GridError(
                    f"{self.name}: inline point {tile!r} is invalid: {exc}"
                ) from exc
        from repro.design.registry import get_point

        try:
            return get_point(tile)
        except KeyError as exc:
            raise GridError(
                f"{self.name}: tile {tile!r} is neither registered nor "
                f"declared inline"
            ) from exc

    # -- (de)serialisation ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping (round-trips through :meth:`from_dict`)."""
        data = dataclasses.asdict(self)
        data["tiles"] = list(self.tiles)
        data["points"] = {k: dict(v) for k, v in self.points.items()}
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TileGrid":
        """Build a grid from a JSON-style mapping; unknown keys error."""
        if not isinstance(data, Mapping):
            raise GridError(
                f"a tile grid must be an object, got {type(data).__name__}"
            )
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise GridError(
                f"unknown tile-grid field(s) {unknown}; "
                f"known fields: {sorted(known)}"
            )
        return cls(**dict(data))


def load_grid(path: Union[str, os.PathLike]) -> TileGrid:
    """Load a tile grid from a JSON file.

    Accepts the grid object itself or ``{"grid": {...}}``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise GridError(f"{path}: not valid JSON: {exc}") from exc
    if isinstance(data, Mapping) and "grid" in data:
        data = data["grid"]
    return TileGrid.from_dict(data)


@dataclasses.dataclass(frozen=True)
class ResolvedManycore:
    """A tile grid resolved end-to-end: per-tile designs plus the mesh."""

    grid: TileGrid
    designs: Tuple[ResolvedDesign, ...]
    noc: "MeshNoc"  # noqa: F821 - imported lazily below

    @property
    def tiles(self) -> List:
        """Per-tile :class:`~repro.core.configs.CoreConfig`s, row-major."""
        return [design.config for design in self.designs]


def resolve_manycore(grid: TileGrid) -> ResolvedManycore:
    """Resolve every tile of a grid to a single-core design + the mesh NoC.

    Each tile is one core, so every point resolves at ``num_cores=1``
    regardless of its own core count (that is how the paper's multicore
    points can serve as tile types too).  Identical tile names share one
    resolution.
    """
    from repro.uarch.noc import MeshNoc

    designs_by_name: Dict[str, ResolvedDesign] = {}
    for tile in grid.tile_names():
        point = grid.tile_point(tile)
        designs_by_name[tile] = resolve(point, num_cores=1)
    designs = tuple(designs_by_name[tile] for tile in grid.tiles)
    folded = grid.folded_tiles
    if folded is None:
        folded = all(design.point.is_3d for design in designs)
    noc = MeshNoc(
        grid.rows, grid.cols,
        folded_tiles=folded,
        injection_rate=grid.injection_rate,
    )
    return ResolvedManycore(grid=grid, designs=designs, noc=noc)


__all__ = [
    "GridError",
    "ResolvedManycore",
    "TileGrid",
    "load_grid",
    "resolve_manycore",
]
