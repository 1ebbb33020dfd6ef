"""64-bit carry-skip adder netlist (Figure 5's running example).

The adder is organised in 4-bit groups.  Each group has a carry-propagate
block and a sum block; a skip mux chain carries the group carries from LSB
to MSB.  The critical path is: propagate(group 0) -> sum(group 0) -> the
chain of 15 skip muxes -> final sum block (shaded in Figure 5).  Everything
else — the other 15 propagate blocks and 14 sum blocks — has slack that
grows with distance from the LSB, which is exactly why the hetero-layer
partition can push the {32:63} propagate and {28:59} sum blocks to the slow
top layer with no cycle-time impact (Section 4.1.1).
"""

from __future__ import annotations

from repro.logic.gates import Gate, GateType
from repro.logic.netlist import Netlist
from repro.tech.transistor import VtClass
from repro.tech.wire import LOCAL_WIRE

#: Adder width (the paper's example).
ADDER_BITS: int = 64
#: Bits per carry-skip group (Figure 5).
GROUP_BITS: int = 4

#: Wire length between adjacent 4-bit groups in a 2D layout (m).  The skip
#: chain snakes across the whole adder, so each hop carries a substantial
#: semi-global detour — this is the wire the M3D fold shortens.
GROUP_WIRE_LENGTH_2D: float = 18e-6


def build_carry_skip_adder() -> Netlist:
    """Build the 2D netlist of the :data:`ADDER_BITS`-bit carry-skip adder.

    Returns
    -------
    Netlist
        The timing graph.  Node naming: ``p{i}`` (propagate), ``s{i}``
        (sum), ``skip{i}`` (skip mux), ``final`` (final sum).  A folded
        layout shortens its inter-group wires through
        :func:`repro.logic.placement.fold_stage`.
    """
    netlist = Netlist(f"csa{ADDER_BITS}")
    groups = ADDER_BITS // GROUP_BITS
    wire_cap = LOCAL_WIRE.capacitance(GROUP_WIRE_LENGTH_2D)

    prev_skip = None
    for g in range(groups):
        vt = VtClass.LOW if g == 0 else VtClass.HIGH
        # Carry-propagate block: every group computes its propagate signals
        # in parallel, straight from the operand bits — only group 0 feeds
        # the head of the skip chain without slack.
        for b in range(GROUP_BITS):
            netlist.add_gate(
                f"p{g}_{b}",
                Gate(GateType.AOI, size=4.0, vt=vt),
                fanin=[] if b == 0 else [f"p{g}_{b - 1}"],
            )
        # Skip mux: selects between the group ripple carry and the incoming
        # skip carry; the serial chain of these muxes, with their
        # inter-group wires, is the critical spine of Figure 5.
        skip_fanin = [f"p{g}_{GROUP_BITS - 1}"]
        if prev_skip is not None:
            skip_fanin.append(prev_skip)
        netlist.add_gate(
            f"skip{g}",
            Gate(GateType.MUX2, size=8.0, vt=VtClass.LOW),
            fanin=skip_fanin,
            wire_load=wire_cap,
        )
        # Sum block: needs the *incoming* carry, so group g's sums wait for
        # skip{g-1}; their slack shrinks toward the MSB end.
        for b in range(GROUP_BITS):
            sum_fanin = [f"p{g}_{b}"]
            if prev_skip is not None:
                sum_fanin.append(prev_skip)
            netlist.add_gate(
                f"s{g}_{b}",
                Gate(GateType.XOR2, size=4.0, vt=vt),
                fanin=sum_fanin,
            )
        prev_skip = f"skip{g}"

    # Final (MSB) sum block closes the critical path.
    netlist.add_gate(
        "final",
        Gate(GateType.XOR2, size=4.0, vt=VtClass.LOW),
        fanin=[prev_skip],
    )
    return netlist

