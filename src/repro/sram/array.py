"""Analytical SRAM/CAM array model (the repo's CACTI replacement).

The model follows CACTI's structure without its full generality:

* an array of ``words x bits`` cells is organised as an ``Ndwl x Ndbl`` grid
  of subarrays (wordline and bitline division), chosen by exhaustive search
  to minimise access delay;
* the access path is predecode/decode -> wordline -> bitline -> sense ->
  column mux/output, plus a repeated-wire H-tree for large arrays;
* delay uses Elmore RC with layer-aware drivers; energy charges the wires
  and gates actually switched by an access; area is cells plus peripheral
  strips per subarray.

Everything the partitioning engine needs is exposed as *plane analysis*:
:func:`analyze_plane` evaluates one layer's slab of cells, and the strategy
classes in :mod:`repro.partition` compose planes into 2D, M3D and TSV3D
organisations.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Optional, Tuple

from repro.lru import LruMemo
from repro.sram.bitcell import Bitcell
from repro.tech import constants
from repro.tech.transistor import Transistor, VtClass
from repro.tech.wire import LOCAL_WIRE, SEMI_GLOBAL_WIRE, WireTechnology

# ---------------------------------------------------------------------------
# Model coefficients (calibration surface — see tests/test_calibration.py)
# ---------------------------------------------------------------------------

#: Wordline driver width (unit-transistor multiples).
WORDLINE_DRIVER_WIDTH: float = 12.0

#: Search/bitline write driver width.
BITLINE_DRIVER_WIDTH: float = 32.0

#: Fraction of Vdd a bitline must swing before the sense amp fires.
BITLINE_SWING: float = 0.20

#: Fixed sense-amplifier delay (s).
SENSE_AMP_DELAY: float = 6e-12

#: Fixed column-mux plus output-driver delay (s).
OUTPUT_DELAY: float = 5e-12

#: Per-address-bit decode delay (s) and fixed predecode overhead (s).
DECODE_DELAY_PER_BIT: float = 1.5e-12
DECODE_BASE_DELAY: float = 6e-12

#: Subarray-select mux overhead per doubling of the subarray count (s).
SUBARRAY_SELECT_DELAY: float = 4e-12

#: Width of the driver pushing the request across the array to the
#: addressed subarray (H-tree trunk).
ROUTE_DRIVER_WIDTH: float = 12.0

#: Smallest subarray the organisation search may fold down to.
MIN_SUBARRAY_ROWS: int = 32
MIN_SUBARRAY_COLS: int = 16

#: Decode energy per address bit (J) and wordline driver energy (J).
DECODE_ENERGY_PER_BIT: float = 12e-15
SENSE_ENERGY_PER_BIT: float = 3.2e-15
OUTPUT_ENERGY_PER_BIT: float = 2.4e-15

#: Peripheral strip sizes: decoder strip width grows with address bits,
#: sense/mux strip height is per-subarray fixed (m).
DECODER_STRIP_BASE: float = 4e-6
DECODER_STRIP_PER_BIT: float = 0.4e-6
SENSE_STRIP_HEIGHT: float = 6e-6

#: H-tree area overhead fraction for multi-subarray organisations.
HTREE_AREA_FRACTION: float = 0.08

#: Candidate wordline/bitline division degrees for the organisation search.
DIVISION_DEGREES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)

#: Candidate words-per-row packing degrees (CACTI's Nspd): tall, narrow
#: logical arrays are laid out with several words per physical row and a
#: column mux, keeping subarrays close to square.
SPD_DEGREES: Tuple[int, ...] = (1, 2, 4, 8, 16)


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DelayBreakdown:
    """Per-component access delay (s)."""

    decode: float = 0.0
    wordline: float = 0.0
    bitline: float = 0.0
    matchline: float = 0.0
    sense: float = 0.0
    route: float = 0.0
    output: float = 0.0
    via: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.decode
            + self.wordline
            + self.bitline
            + self.matchline
            + self.sense
            + self.route
            + self.output
            + self.via
        )


@dataclasses.dataclass(frozen=True)
class EnergyBreakdown:
    """Per-component access energy (J)."""

    decode: float = 0.0
    wordline: float = 0.0
    bitline: float = 0.0
    matchline: float = 0.0
    sense: float = 0.0
    route: float = 0.0
    output: float = 0.0
    via: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.decode
            + self.wordline
            + self.bitline
            + self.matchline
            + self.sense
            + self.route
            + self.output
            + self.via
        )


@dataclasses.dataclass(frozen=True)
class PlaneResult:
    """Analysis of one slab (layer) of a subarray."""

    delay: DelayBreakdown
    read_energy: EnergyBreakdown
    write_energy: EnergyBreakdown
    width: float
    height: float
    leakage_current: float

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclasses.dataclass(frozen=True)
class ArrayMetrics:
    """Top-level metrics of a (possibly banked, possibly 3D) structure."""

    access_time: float
    read_energy: float
    write_energy: float
    leakage_power: float
    area: float
    ndwl: int = 1
    ndbl: int = 1
    nspd: int = 1
    detail: Optional[DelayBreakdown] = None

    def __post_init__(self) -> None:
        if self.access_time <= 0:
            raise ValueError("access time must be positive")
        if min(self.read_energy, self.write_energy, self.area) < 0:
            raise ValueError("energy and area must be non-negative")


# ---------------------------------------------------------------------------
# Plane analysis
# ---------------------------------------------------------------------------


def _wordline_driver(layer_penalty: float) -> Transistor:
    return Transistor(
        width=WORDLINE_DRIVER_WIDTH, vt=VtClass.LOW, layer_penalty=layer_penalty
    )


def analyze_plane(
    rows: int,
    cols: float,
    cell: Bitcell,
    *,
    vdd: float = constants.VDD_NOMINAL_22NM,
    wire: WireTechnology = LOCAL_WIRE,
    include_decoder: bool = True,
    driver_penalty: Optional[float] = None,
    cam_search: bool = False,
    pitch_override: Optional[Tuple[float, float]] = None,
    wordline_extension: float = 0.0,
    bitline_extension: float = 0.0,
) -> PlaneResult:
    """Analyse one slab of ``rows x cols`` cells of the given bitcell.

    Parameters
    ----------
    rows, cols:
        Cells in this plane.  ``cols`` may be fractional when modelling
        asymmetric bit partitions.
    cell:
        The bitcell populating the plane (carries layer penalty, sizing,
        via pass-throughs and CAM-ness).
    include_decoder:
        Whether this plane carries the row decoder strip (shared decoders
        live in the bottom plane only).
    driver_penalty:
        Layer penalty applied to the plane's wordline driver; defaults to
        the cell's own layer penalty.
    cam_search:
        When True, adds the CAM search path (search line + match line).
    pitch_override:
        Optional ``(cell_width, cell_height)`` pitch used for wire lengths
        and area.  Port-partitioned layers must align cell-for-cell, so both
        layers are laid out at the max of the two half-cell pitches.
    wordline_extension, bitline_extension:
        Extra wire length (m) inserted into every wordline / bitline by
        inter-layer via strips.  Negligible for MIVs; for per-word TSVs the
        strip can exceed the array itself, which is how the model reproduces
        TSV3D's poor Table 3/4 results on small-celled arrays.

    Returns
    -------
    PlaneResult
        Delay/energy breakdowns, physical dimensions and leakage.
    """
    if rows < 1 or cols <= 0:
        raise ValueError(f"plane must have at least one cell ({rows}x{cols})")
    penalty = cell.layer_penalty if driver_penalty is None else driver_penalty
    driver = _wordline_driver(penalty)

    # --- geometry ---------------------------------------------------------
    cell_w, cell_h = (
        pitch_override if pitch_override is not None else (cell.width, cell.height)
    )
    array_w = cols * cell_w + wordline_extension
    array_h = rows * cell_h + bitline_extension
    addr_bits = max(1.0, math.log2(rows))
    plane_w = array_w + (
        DECODER_STRIP_BASE + DECODER_STRIP_PER_BIT * addr_bits if include_decoder else 0.0
    )
    plane_h = array_h + SENSE_STRIP_HEIGHT

    # --- wordline ---------------------------------------------------------
    c_wordline = wire.capacitance(array_w) + cols * cell.wordline_cap_per_cell
    r_wordline = wire.resistance(array_w)
    t_wordline = 0.69 * driver.drive_resistance * c_wordline + 0.38 * r_wordline * c_wordline
    e_wordline = c_wordline * vdd**2

    # --- bitline (read: small swing; write: full swing) --------------------
    c_bitline = wire.capacitance(array_h) + rows * cell.bitline_cap_per_cell
    r_bitline = wire.resistance(array_h)
    r_cell = cell.read_path_resistance
    t_bitline = (0.69 * r_cell * c_bitline + 0.38 * r_bitline * c_bitline) * BITLINE_SWING
    # Differential pair: two bitlines per column, swing-limited on reads.
    e_bitline_read = 2.0 * cols * c_bitline * vdd * (vdd * BITLINE_SWING)
    e_bitline_write = 2.0 * cols * c_bitline * vdd**2 * 0.5

    # --- CAM search path ----------------------------------------------------
    t_matchline = 0.0
    e_matchline = 0.0
    if cam_search:
        search_driver = Transistor(
            width=BITLINE_DRIVER_WIDTH, vt=VtClass.LOW, layer_penalty=penalty
        )
        c_search = wire.capacitance(array_h) + rows * cell.wordline_cap_per_cell
        r_search = wire.resistance(array_h)
        t_search = (
            0.69 * search_driver.drive_resistance * c_search
            + 0.38 * r_search * c_search
        )
        c_match = wire.capacitance(array_w) + cols * cell.bitline_cap_per_cell
        r_match = wire.resistance(array_w)
        r_pulldown = cell.match_path_resistance
        t_match = 0.69 * r_pulldown * c_match + 0.38 * r_match * c_match
        t_matchline = t_search + t_match
        # Every search line swings and every match line precharges.
        e_matchline = (cols * c_search + rows * c_match) * vdd**2 * 0.5

    # --- decode -------------------------------------------------------------
    t_decode = DECODE_BASE_DELAY + DECODE_DELAY_PER_BIT * addr_bits if include_decoder else 0.0
    e_decode = DECODE_ENERGY_PER_BIT * addr_bits if include_decoder else 0.0

    # --- sense + output ------------------------------------------------------
    t_sense = SENSE_AMP_DELAY
    e_sense = SENSE_ENERGY_PER_BIT * cols
    t_output = OUTPUT_DELAY
    e_output = OUTPUT_ENERGY_PER_BIT * cols

    delay = DelayBreakdown(
        decode=t_decode,
        wordline=t_wordline,
        bitline=t_bitline,
        matchline=t_matchline,
        sense=t_sense,
        output=t_output,
    )
    read = EnergyBreakdown(
        decode=e_decode,
        wordline=e_wordline,
        bitline=e_bitline_read,
        matchline=e_matchline,
        sense=e_sense,
        output=e_output,
    )
    write = EnergyBreakdown(
        decode=e_decode,
        wordline=e_wordline,
        bitline=e_bitline_write,
        matchline=e_matchline,
        output=e_output,
    )
    leakage = rows * cols * cell.leakage
    return PlaneResult(
        delay=delay,
        read_energy=read,
        write_energy=write,
        width=plane_w,
        height=plane_h,
        leakage_current=leakage,
    )


# ---------------------------------------------------------------------------
# 2D array with organisation search
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ArrayGeometry:
    """Logical geometry of a storage structure (one bank).

    Matches the ``[Words; Bits per Word] x Banks`` notation of Table 6.
    """

    name: str
    words: int
    bits: int
    read_ports: int = 1
    write_ports: int = 0
    banks: int = 1
    cam: bool = False

    def __post_init__(self) -> None:
        if self.words < 2 or self.bits < 1:
            raise ValueError(f"{self.name}: degenerate geometry")
        if self.read_ports < 1 or self.write_ports < 0 or self.banks < 1:
            raise ValueError(f"{self.name}: invalid port/bank counts")

    @property
    def ports(self) -> int:
        """Total port count (read + write)."""
        return self.read_ports + self.write_ports

    def cell(self, **overrides) -> Bitcell:
        """The 2D bitcell implied by this geometry."""
        return Bitcell(ports=self.ports, cam=self.cam, **overrides)


def _route_delay(width: float, height: float, wire: WireTechnology) -> float:
    """Address/data routing delay across half the array extent.

    This is the H-tree trunk: its length tracks the structure's physical
    footprint, so folding a structure into two layers shortens it — this
    term is a large part of why 3D partitioning speeds up *every* array.
    """
    length = width + height
    driver = Transistor(width=ROUTE_DRIVER_WIDTH, vt=VtClass.LOW)
    return wire.elmore_delay(length, driver)


def _route_energy(width: float, height: float, bits: float, vdd: float,
                  wire: WireTechnology) -> float:
    """Energy of moving ``bits`` across half the array extent."""
    length = (width + height) / 2.0
    return bits * wire.capacitance(length) * vdd**2 * 0.5


#: Solved organisations, keyed on every argument of :func:`solve_2d`
#: (all frozen).  The partition strategies and the power model's energy
#: factors re-solve the same dozen structures for every design point;
#: capped because a long-lived server may meet new geometries or supply
#: voltages.
_SOLVE_2D_MEMO = LruMemo(cap=128)


def solve_2d(
    geometry: ArrayGeometry,
    *,
    cell: Optional[Bitcell] = None,
    vdd: float = constants.VDD_NOMINAL_22NM,
    degrees: Iterable[int] = DIVISION_DEGREES,
    words: Optional[int] = None,
    bits: Optional[float] = None,
    **plane_kwargs,
) -> ArrayMetrics:
    """Find the delay-optimal 2D organisation of one bank of a structure.

    Searches wordline/bitline division degrees (Ndwl, Ndbl) exhaustively,
    exactly as CACTI does, and returns the best organisation's metrics.
    Multi-ported core structures almost always settle at 1x1 or 1x2; large
    caches fold into many subarrays — which is why 3D partitioning helps the
    small wire-dominated structures relatively more (Section 3.2.1).

    The search is a pure function of its arguments, so each distinct
    argument set is solved once per process (:data:`_SOLVE_2D_MEMO`).
    """
    degrees = tuple(degrees)
    key = (geometry, cell, vdd, degrees, words, bits,
           tuple(sorted(plane_kwargs.items())))
    return _SOLVE_2D_MEMO.get(key, lambda: _search_2d(
        geometry, cell=cell, vdd=vdd, degrees=degrees, words=words,
        bits=bits, **plane_kwargs,
    ))


def _search_2d(
    geometry: ArrayGeometry,
    *,
    cell: Optional[Bitcell] = None,
    vdd: float = constants.VDD_NOMINAL_22NM,
    degrees: Tuple[int, ...] = DIVISION_DEGREES,
    words: Optional[int] = None,
    bits: Optional[float] = None,
    **plane_kwargs,
) -> ArrayMetrics:
    """The unmemoized organisation search behind :func:`solve_2d`."""
    the_cell = cell if cell is not None else geometry.cell()
    n_words = geometry.words if words is None else words
    n_bits = float(geometry.bits) if bits is None else float(bits)
    best: Optional[ArrayMetrics] = None
    for ndwl in degrees:
        for ndbl in degrees:
            for nspd in SPD_DEGREES:
                eff_words = n_words // nspd
                if eff_words % ndbl and ndbl > 1:
                    continue
                rows = eff_words // ndbl
                cols = n_bits * nspd / ndwl
                if rows < 1 or cols < 1:
                    continue
                if rows < min(eff_words, MIN_SUBARRAY_ROWS) or cols < min(
                    n_bits, MIN_SUBARRAY_COLS
                ):
                    continue
                # Keep subarrays within a sane aspect ratio, as CACTI does.
                aspect = (rows * the_cell.height) / (cols * the_cell.width)
                if not 1.0 / 8.0 <= aspect <= 8.0:
                    continue
                metrics = _organized_metrics(
                    geometry,
                    the_cell,
                    rows,
                    cols,
                    ndwl,
                    ndbl,
                    vdd,
                    nspd=nspd,
                    **plane_kwargs,
                )
                if best is None or (metrics.access_time, metrics.read_energy) < (
                    best.access_time,
                    best.read_energy,
                ):
                    best = metrics
    if best is None:
        # Degenerate geometries (very small planes) may fail every aspect
        # filter; fall back to the unfolded organisation.
        best = _organized_metrics(
            geometry, the_cell, n_words, n_bits, 1, 1, vdd, **plane_kwargs
        )
    return best


def solve_with_org(
    geometry: ArrayGeometry,
    org: ArrayMetrics,
    *,
    cell: Optional[Bitcell] = None,
    vdd: float = constants.VDD_NOMINAL_22NM,
    words: Optional[int] = None,
    bits: Optional[float] = None,
    **plane_kwargs,
) -> ArrayMetrics:
    """Re-evaluate a structure *keeping the 2D organisation* of ``org``.

    3D partitioning splits an existing layout across layers; it does not
    re-architect the array.  The partition strategies therefore solve the
    2D baseline once and re-evaluate each layer's slab under the same
    (Ndwl, Ndbl, Nspd), with the layer's word/bit share and cell.
    The division degrees are clamped so every subarray keeps at least one
    row and one column.
    """
    the_cell = cell if cell is not None else geometry.cell()
    n_words = geometry.words if words is None else words
    n_bits = float(geometry.bits) if bits is None else float(bits)

    nspd = max(1, min(org.nspd, n_words))
    ndbl = org.ndbl
    while ndbl > 1 and (n_words // nspd) // ndbl < 1:
        ndbl //= 2
    rows = max(1, (n_words // nspd) // ndbl)
    ndwl = org.ndwl
    while ndwl > 1 and n_bits * nspd / ndwl < 1:
        ndwl //= 2
    cols = n_bits * nspd / ndwl
    return _organized_metrics(
        geometry, the_cell, rows, cols, ndwl, ndbl, vdd, nspd=nspd, **plane_kwargs
    )


def _organized_metrics(
    geometry: ArrayGeometry,
    cell: Bitcell,
    rows: int,
    cols: float,
    ndwl: int,
    ndbl: int,
    vdd: float,
    nspd: int = 1,
    **plane_kwargs,
) -> ArrayMetrics:
    """Metrics of one specific (Ndwl, Ndbl, Nspd) organisation of one bank."""
    plane = analyze_plane(
        rows, cols, cell, vdd=vdd, cam_search=geometry.cam, **plane_kwargs
    )
    n_sub = ndwl * ndbl
    total_w = ndwl * plane.width
    total_h = ndbl * plane.height
    area = total_w * total_h * (1.0 + (HTREE_AREA_FRACTION if n_sub > 1 else 0.0))

    route_t = _route_delay(total_w, total_h, SEMI_GLOBAL_WIRE)
    route_e = _route_energy(total_w, total_h, cols * ndwl, vdd, SEMI_GLOBAL_WIRE)
    select_t = SUBARRAY_SELECT_DELAY * math.log2(n_sub) if n_sub > 1 else 0.0

    # Wordline-divided arrays need a *global wordline* distributing the
    # decoded row select across every subarray column — its wire spans the
    # full structure width, so bit partitioning (which halves that width)
    # pays off most on wide arrays.
    gwl_t = 0.0
    gwl_e = 0.0
    if ndwl > 1:
        gwl_driver = Transistor(width=24.0, vt=VtClass.LOW)
        gwl_t = SEMI_GLOBAL_WIRE.elmore_delay(total_w, gwl_driver)
        gwl_e = SEMI_GLOBAL_WIRE.capacitance(total_w) * vdd**2

    delay = dataclasses.replace(
        plane.delay,
        route=route_t,
        wordline=plane.delay.wordline + gwl_t,
        decode=plane.delay.decode + select_t,
    )
    read_e = plane.read_energy.total + route_e + gwl_e
    write_e = plane.write_energy.total + route_e + gwl_e
    leak = plane.leakage_current * n_sub * 1.1 * vdd  # +10% periphery
    return ArrayMetrics(
        access_time=delay.total,
        read_energy=read_e,
        write_energy=write_e,
        leakage_power=leak,
        area=area,
        ndwl=ndwl,
        ndbl=ndbl,
        nspd=nspd,
        detail=delay,
    )


def banked_metrics(geometry: ArrayGeometry, bank: ArrayMetrics) -> ArrayMetrics:
    """Lift one bank's metrics to the whole ``x Banks`` structure.

    Banks are accessed one at a time; the bank-select routing adds a small
    constant delay and energy, and areas/leakage add across banks.
    """
    if geometry.banks == 1:
        return bank
    select_delay = 3e-12 * math.log2(geometry.banks)
    select_energy = 8e-15 * math.log2(geometry.banks)
    return ArrayMetrics(
        access_time=bank.access_time + select_delay,
        read_energy=bank.read_energy + select_energy,
        write_energy=bank.write_energy + select_energy,
        leakage_power=bank.leakage_power * geometry.banks,
        area=bank.area * geometry.banks,
        ndwl=bank.ndwl,
        ndbl=bank.ndbl,
        detail=bank.detail,
    )
