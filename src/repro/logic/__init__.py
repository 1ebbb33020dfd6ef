"""Logic-stage modelling: gates, netlists, the Figure-5 adder, bypass
networks and slack-based two-layer placement."""

from repro.logic.adder import build_carry_skip_adder, noncritical_block_names
from repro.logic.bypass import (
    BypassResult,
    bypass_delay,
    bypass_energy,
    bypass_wire_length,
    evaluate_execute_stage,
)
from repro.logic.gates import Gate, GateType, fo4_delay
from repro.logic.netlist import Netlist, Node
from repro.logic.placement import PlacementResult, fold_stage, partition_netlist

__all__ = [
    "build_carry_skip_adder",
    "noncritical_block_names",
    "BypassResult",
    "bypass_delay",
    "bypass_energy",
    "bypass_wire_length",
    "evaluate_execute_stage",
    "Gate",
    "GateType",
    "fo4_delay",
    "Netlist",
    "Node",
    "PlacementResult",
    "fold_stage",
    "partition_netlist",
]
