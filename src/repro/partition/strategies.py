"""3D partitioning strategies for storage structures (Sections 3.2 and 4.2).

Three iso-layer strategies (Figure 3):

* **Bit Partitioning (BP)** — half of each word per layer; the wordline is
  split, one driver per layer, one via per word.
* **Word Partitioning (WP)** — half of the words per layer; the bitline is
  split, one via per bit column.
* **Port Partitioning (PP)** — the cell's inverters stay in the bottom
  layer, the ports are divided between layers; two vias per cell.

Each strategy also has a *hetero-layer* (asymmetric) variant for stacks whose
top layer is slower (Table 7):

* asymmetric BP/WP gives the bottom layer the larger array section and
  up-sizes the top-layer bitcells,
* asymmetric PP gives the bottom layer more ports and doubles the width of
  the top-layer port transistors.

All strategies return a :class:`PartitionResult`, and
:func:`reduction_report` expresses a result against the 2D baseline as the
percentage reductions tabulated in Tables 3-6 and 8.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Tuple

from repro.sram.array import (
    VDD,
    ArrayGeometry,
    ArrayMetrics,
    banked_metrics,
    solve_2d,
    solve_with_org,
)
from repro.sram.bitcell import Bitcell
from repro.tech.process import StackSpec, stack_2d
from repro.tech.transistor import Transistor, VtClass

#: Candidate bottom-layer array fractions for asymmetric BP/WP.  Section
#: 4.2.2: "a partition that gives 2/3 of the array to the bottom layer ...
#: works well".
ASYM_ARRAY_FRACTIONS: Tuple[float, ...] = (0.5, 0.5833, 0.625, 0.6667, 0.75)

#: Candidate top-layer transistor width multiples for hetero partitions.
#: The paper doubles widths; we let the optimiser confirm that choice.
ASYM_WIDTH_MULTS: Tuple[float, ...] = (1.0, 1.5, 2.0)


@dataclasses.dataclass(frozen=True)
class PartitionResult:
    """Outcome of applying one partitioning strategy to one structure."""

    structure: str
    strategy: str
    stack: str
    metrics: ArrayMetrics
    via_count: int = 0
    bottom_fraction: float = 1.0
    top_width_mult: float = 1.0
    bottom_ports: int = 0
    top_ports: int = 0


@dataclasses.dataclass(frozen=True)
class ReductionReport:
    """Percentage reductions vs the 2D baseline (positive = better)."""

    structure: str
    strategy: str
    stack: str
    latency_pct: float
    energy_pct: float
    footprint_pct: float

    def as_row(self) -> str:
        """Format like a row of Table 6/8."""
        return (
            f"{self.structure:<6} {self.strategy:<7} {self.stack:<8} "
            f"lat {self.latency_pct:6.1f}%  energy {self.energy_pct:6.1f}%  "
            f"area {self.footprint_pct:6.1f}%"
        )


def _pct(base: float, new: float) -> float:
    """Percentage reduction of ``new`` relative to ``base``."""
    return 100.0 * (1.0 - new / base)


def reduction_report(base: PartitionResult, part: PartitionResult) -> ReductionReport:
    """Express a partitioned design against its 2D baseline (Tables 3-8)."""
    energy_base = 0.5 * (base.metrics.read_energy + base.metrics.write_energy)
    energy_new = 0.5 * (part.metrics.read_energy + part.metrics.write_energy)
    return ReductionReport(
        structure=part.structure,
        strategy=part.strategy,
        stack=part.stack,
        latency_pct=_pct(base.metrics.access_time, part.metrics.access_time),
        energy_pct=_pct(energy_base, energy_new),
        footprint_pct=_pct(base.metrics.area, part.metrics.area),
    )


# ---------------------------------------------------------------------------
# 2D baseline
# ---------------------------------------------------------------------------


def evaluate_2d(geometry: ArrayGeometry) -> PartitionResult:
    """The planar baseline every table normalises against."""
    bank = solve_2d(geometry)
    return PartitionResult(
        structure=geometry.name,
        strategy="2D",
        stack=stack_2d().name,
        metrics=banked_metrics(geometry, bank),
    )


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _via_delay(stack: StackSpec, driver_resistance: float) -> float:
    """Delay of charging one inter-layer via from the given source (s).

    The driver matters: a wordline buffer (BP) barely notices even a TSV's
    2.5fF, but a bitline sensed *through the cell's weak read path* (WP) or
    a port access transistor (PP) pays dearly for TSV capacitance — one of
    the reasons Table 4's TSV BPT latency goes negative.
    """
    via = stack.via
    if via is None:
        return 0.0
    return via.drive_delay(driver_resistance)


def _via_energy(stack: StackSpec) -> float:
    """Energy of one full swing of one via (J)."""
    return stack.via.capacitance * VDD**2 if stack.via is not None else 0.0


def _via_area(stack: StackSpec, count: int) -> float:
    """Layout area claimed by ``count`` vias (m^2, per layer)."""
    return count * stack.via_footprint()


def _combine_layers(
    geometry: ArrayGeometry,
    stack: StackSpec,
    strategy: str,
    bottom: ArrayMetrics,
    top: ArrayMetrics,
    *,
    via_count: int,
    vias_on_access_path: int,
    via_driver_resistance: float,
    active_energy: str,
    bottom_fraction: float = 0.5,
    top_width_mult: float = 1.0,
    bottom_ports: int = 0,
    top_ports: int = 0,
    extra_path_delay: float = 0.0,
    via_area_charge: float = 0.0,
) -> PartitionResult:
    """Merge two per-layer solutions into one 3D structure result.

    The top layer has no decoder of its own, so its access path is the
    *bottom* layer's decode plus the via crossing plus the top plane's
    wordline/bitline/sense path.

    ``active_energy`` selects how per-access energy composes:

    * ``"both"`` — both layers switch on every access (BP: each layer drives
      its half-word);
    * ``"either"`` — only the addressed layer switches (WP: the word lives in
      exactly one layer; energy is the word-count-weighted mean);
    * ``"worst"`` — port-weighted mean biased to the slower path (PP).
    """
    t_via = _via_delay(stack, via_driver_resistance) * vias_on_access_path
    shared_decode = bottom.detail.decode if bottom.detail is not None else 0.0
    # The top plane is reached through the bottom layer's (shared) decoder;
    # strip whatever residual decode/select the top plane carried.
    top_own_decode = top.detail.decode if top.detail is not None else 0.0
    top_path = top.access_time - top_own_decode + shared_decode + t_via
    access = max(bottom.access_time, top_path) + extra_path_delay

    e_via = _via_energy(stack)
    if active_energy == "both":
        read = bottom.read_energy + top.read_energy + e_via * min(1, via_count)
        write = bottom.write_energy + top.write_energy + e_via * min(1, via_count)
    elif active_energy == "either":
        w_b = bottom_fraction
        read = w_b * bottom.read_energy + (1 - w_b) * (top.read_energy + e_via * geometry.bits)
        write = w_b * bottom.write_energy + (1 - w_b) * (top.write_energy + e_via * geometry.bits)
    elif active_energy == "worst":
        total_ports = max(1, bottom_ports + top_ports)
        w_b = bottom_ports / total_ports
        read = w_b * bottom.read_energy + (1 - w_b) * (top.read_energy + 2 * e_via)
        write = w_b * bottom.write_energy + (1 - w_b) * (top.write_energy + 2 * e_via)
    else:  # pragma: no cover - guarded by callers
        raise ValueError(f"unknown energy composition {active_energy!r}")

    # PP's via area lives inside the bottom cells' footprint; BP/WP via
    # fields are charged explicitly (after a layout-optimisation discount,
    # mirroring the paper's "different via placement schemes").
    area = max(bottom.area, top.area) + via_area_charge
    leakage = bottom.leakage_power + top.leakage_power

    bank = ArrayMetrics(
        access_time=access,
        read_energy=read,
        write_energy=write,
        leakage_power=leakage,
        area=area,
        ndwl=bottom.ndwl,
        ndbl=bottom.ndbl,
        detail=bottom.detail,
    )
    return PartitionResult(
        structure=geometry.name,
        strategy=strategy,
        stack=stack.name,
        metrics=banked_metrics(geometry, bank),
        via_count=via_count * geometry.banks,
        bottom_fraction=bottom_fraction,
        top_width_mult=top_width_mult,
        bottom_ports=bottom_ports,
        top_ports=top_ports,
    )


def _top_cell(geometry: ArrayGeometry, stack: StackSpec, width_mult: float) -> Bitcell:
    """The bitcell used in the top layer of a BP/WP partition."""
    return geometry.cell().on_layer(stack.top.delay_penalty).scaled(width_mult)


#: Fraction of the raw via field area that survives layout optimisation
#: (Section 6: "we also perform further layout optimizations by considering
#: different via placement schemes to minimize the overhead").
VIA_LAYOUT_EFFICIENCY: float = 0.6

#: Delay of the AND gate that combines the two layers' half-match results
#: when a CAM is bit-partitioned (s).
CAM_MATCH_COMBINE_DELAY: float = 12e-12


def _via_strip(stack: StackSpec) -> float:
    """Extra wire length a via field inserts into each crossing line (m).

    The vias are grouped into a strip at the partition boundary; each line
    crossing layers detours by roughly one via side (plus KOZ).
    """
    via = stack.via
    if via is None:
        return 0.0
    return via.footprint**0.5


def _via_field_area(stack: StackSpec, count: int) -> float:
    """Footprint charge of a ``count``-via field after layout optimisation."""
    return _via_area(stack, count) * VIA_LAYOUT_EFFICIENCY


# ---------------------------------------------------------------------------
# Bit partitioning
# ---------------------------------------------------------------------------


def bit_partition(
    geometry: ArrayGeometry,
    stack: StackSpec,
    *,
    bottom_fraction: float = 0.5,
    top_width_mult: float = 1.0,
) -> PartitionResult:
    """Bit partitioning (Figure 3(a)): half of each word per layer.

    The wordline splits into a bottom segment of ``bottom_fraction * bits``
    and a top segment with the remainder; each segment has its own driver
    (the top one reached through a per-word via).  Bitlines are untouched.
    """
    _check_stack(stack)
    _check_fraction(bottom_fraction)
    bits_bottom = geometry.bits * bottom_fraction
    bits_top = geometry.bits - bits_bottom
    if bits_top < 1:
        raise ValueError("bit partition leaves no bits in the top layer")

    # One via per word: the split wordline crosses layers through a strip
    # of vias along the array edge, lengthening every wordline.
    strip = _via_strip(stack)
    org = solve_2d(geometry)
    bottom = solve_with_org(
        geometry,
        org,
        cell=geometry.cell(),
        bits=bits_bottom,
        wordline_extension=strip,
    )
    top = solve_with_org(
        geometry,
        org,
        cell=_top_cell(geometry, stack, top_width_mult),
        bits=bits_top,
        include_decoder=False,
        wordline_extension=strip,
    )
    via_count = geometry.words + int(math.ceil(bits_top))
    # The split wordline's via is charged by the strong wordline driver.
    wordline_driver = Transistor(width=16.0, vt=VtClass.LOW)
    # A bit-partitioned CAM must AND the two layers' half-match results,
    # through a via driven by the weak match pull-down path.
    cam_penalty = 0.0
    if geometry.cam:
        cam_penalty = CAM_MATCH_COMBINE_DELAY + _via_delay(
            stack, geometry.cell().match_path_resistance
        )
    return _combine_layers(
        geometry,
        stack,
        strategy="BP" if bottom_fraction == 0.5 and top_width_mult == 1.0 else "AsymBP",
        bottom=bottom,
        top=top,
        via_count=via_count,
        vias_on_access_path=1,
        via_driver_resistance=wordline_driver.drive_resistance,
        active_energy="both",
        extra_path_delay=cam_penalty,
        via_area_charge=_via_field_area(stack, via_count),
        bottom_fraction=bottom_fraction,
        top_width_mult=top_width_mult,
    )


# ---------------------------------------------------------------------------
# Word partitioning
# ---------------------------------------------------------------------------


def word_partition(
    geometry: ArrayGeometry,
    stack: StackSpec,
    *,
    bottom_fraction: float = 0.5,
    top_width_mult: float = 1.0,
) -> PartitionResult:
    """Word partitioning (Figure 3(b)): half of the words per layer.

    Each layer keeps full-width words; bitlines are split, and the top
    layer's bitlines reach the shared sense amps through one via per column.
    Only the addressed layer switches, which is why WP is the most
    energy-effective of the symmetric-array strategies (Table 4).
    """
    _check_stack(stack)
    _check_fraction(bottom_fraction)
    words_bottom = _even_words(int(round(geometry.words * bottom_fraction)))
    words_top = geometry.words - words_bottom
    if words_top < 4:
        raise ValueError("word partition leaves too few words in the top layer")

    # One via per bit column: the split bitlines join the shared sense amps
    # through a strip of vias along the sense boundary, lengthening every
    # bitline.
    strip = _via_strip(stack)
    org = solve_2d(geometry)
    bottom = solve_with_org(
        geometry,
        org,
        cell=geometry.cell(),
        words=words_bottom,
        bitline_extension=strip,
    )
    top = solve_with_org(
        geometry,
        org,
        cell=_top_cell(geometry, stack, top_width_mult),
        words=words_top,
        include_decoder=False,
        bitline_extension=strip,
    )
    via_count = geometry.bits
    # The top layer's bitline is sensed *through* the via by the cell's
    # weak read path — TSV capacitance is painful here.
    top_cell = _top_cell(geometry, stack, top_width_mult)
    return _combine_layers(
        geometry,
        stack,
        strategy="WP" if bottom_fraction == 0.5 and top_width_mult == 1.0 else "AsymWP",
        bottom=bottom,
        top=top,
        via_count=via_count,
        vias_on_access_path=1,
        via_driver_resistance=top_cell.read_path_resistance,
        # A CAM search must probe *both* layers (any word may match); plain
        # SRAM reads touch only the layer holding the addressed word.
        active_energy="both" if geometry.cam else "either",
        via_area_charge=_via_field_area(stack, via_count),
        bottom_fraction=words_bottom / geometry.words,
        top_width_mult=top_width_mult,
    )


# ---------------------------------------------------------------------------
# Port partitioning
# ---------------------------------------------------------------------------


def port_partition(
    geometry: ArrayGeometry,
    stack: StackSpec,
    *,
    bottom_ports: Optional[int] = None,
    top_width_mult: float = 1.0,
) -> PartitionResult:
    """Port partitioning (Figure 3(c)): storage below, split ports.

    The cross-coupled inverters stay in the bottom layer; ``bottom_ports``
    ports remain with them, the rest move to the top layer (with transistors
    up-sized by ``top_width_mult`` in the hetero variant).  Both layers must
    align cell-for-cell, so the layout pitch is the max of the two
    half-cells — balancing the split minimises footprint (Section 4.2.1's
    10-below/8-above register file).  Two vias thread every cell.
    """
    _check_stack(stack)
    total_ports = geometry.ports
    if total_ports < 2:
        raise ValueError(f"{geometry.name}: port partitioning needs >= 2 ports")
    if bottom_ports is None:
        bottom_ports = (total_ports + 1) // 2
    top_ports = total_ports - bottom_ports
    if not 0 < top_ports < total_ports:
        raise ValueError("port split must leave ports in both layers")

    penalty = stack.top.delay_penalty
    # For CAMs, the comparison transistors migrate to the top layer with
    # their ports; the bottom keeps only storage plus its port share.  This
    # balances the two half-cells and is what lets PP nearly halve a CAM's
    # footprint (Table 6's 44-50% for IQ/SQ/LQ).
    cell_bottom = Bitcell(
        ports=bottom_ports, has_storage=True, cam=False
    ).with_vias(2, stack.via)
    cell_top = Bitcell(
        ports=top_ports,
        has_storage=False,
        cam=geometry.cam,
        port_width_mult=top_width_mult,
        layer_penalty=penalty,
    )
    pitch = (
        max(cell_bottom.width, cell_top.width),
        max(cell_bottom.height, cell_top.height),
    )

    org = solve_2d(geometry)
    bottom = solve_with_org(
        geometry, org, cell=cell_bottom, pitch_override=pitch
    )
    # A top-layer access reads the bottom-layer storage node through a via:
    # the read path resistance is the (possibly up-sized, layer-penalised)
    # top access device in series with the via.
    top = solve_with_org(
        geometry,
        org,
        cell=cell_top,
        include_decoder=False,
        pitch_override=pitch,
    )
    via_count = 2 * geometry.words * geometry.bits
    # A top-layer port reads the bottom storage node through two vias,
    # driven by the (possibly up-sized) top access transistor.
    return _combine_layers(
        geometry,
        stack,
        strategy="PP" if top_ports == total_ports - (total_ports + 1) // 2
        and top_width_mult == 1.0
        else "AsymPP",
        bottom=bottom,
        top=top,
        via_count=via_count,
        vias_on_access_path=2,
        via_driver_resistance=cell_top.access_transistor().drive_resistance,
        active_energy="worst",
        top_width_mult=top_width_mult,
        bottom_ports=bottom_ports,
        top_ports=top_ports,
    )


# ---------------------------------------------------------------------------
# Asymmetric (hetero-layer) searches
# ---------------------------------------------------------------------------


def best_asymmetric_bp(geometry: ArrayGeometry,
                       stack: StackSpec) -> PartitionResult:
    """Search asymmetric bit partitions for a hetero-layer stack."""
    return _best_over(bit_partition, geometry, stack)


def best_asymmetric_wp(geometry: ArrayGeometry,
                       stack: StackSpec) -> PartitionResult:
    """Search asymmetric word partitions for a hetero-layer stack."""
    return _best_over(word_partition, geometry, stack)


def best_asymmetric_pp(geometry: ArrayGeometry,
                       stack: StackSpec) -> PartitionResult:
    """Search asymmetric port splits for a hetero-layer stack.

    Sweeps the number of bottom-layer ports and the top-layer width multiple,
    minimising access latency and breaking ties by footprint — recovering the
    paper's 10-bottom/8-above (doubled width) register file split.
    """
    total = geometry.ports
    best: Optional[PartitionResult] = None
    for bottom_ports in range(max(1, total // 2), total):
        for mult in ASYM_WIDTH_MULTS:
            try:
                candidate = port_partition(
                    geometry,
                    stack,
                    bottom_ports=bottom_ports,
                    top_width_mult=mult,
                )
            except ValueError:
                continue
            if best is None or _better(candidate, best):
                best = candidate
    if best is None:
        raise ValueError(f"{geometry.name}: no feasible asymmetric port split")
    return best


def _best_over(strategy, geometry, stack):
    best: Optional[PartitionResult] = None
    for fraction in ASYM_ARRAY_FRACTIONS:
        for mult in ASYM_WIDTH_MULTS:
            try:
                candidate = strategy(
                    geometry,
                    stack,
                    bottom_fraction=fraction,
                    top_width_mult=mult,
                )
            except ValueError:
                continue
            if best is None or _better(candidate, best):
                best = candidate
    if best is None:
        raise ValueError(f"{geometry.name}: no feasible asymmetric partition")
    return best


def _better(a: PartitionResult, b: PartitionResult) -> bool:
    """Latency-first comparison with a footprint tie-break (Section 3.2.3:
    "Our preferred choice are designs that reduce the access latency")."""
    key_a = (round(a.metrics.access_time * 1e15), a.metrics.area)
    key_b = (round(b.metrics.access_time * 1e15), b.metrics.area)
    return key_a < key_b


def _check_stack(stack: StackSpec) -> None:
    if not stack.is_3d:
        raise ValueError(f"{stack.name}: partitioning needs a multi-layer stack")


def _check_fraction(fraction: float) -> None:
    if not 0.25 <= fraction <= 0.9:
        raise ValueError(f"bottom fraction {fraction} out of the supported range")


def _even_words(words: int) -> int:
    """Round a word count to the nearest multiple of four (decoder-friendly)."""
    return max(4, int(round(words / 4.0)) * 4)
