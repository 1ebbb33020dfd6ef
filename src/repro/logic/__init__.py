"""Logic-stage modelling: gates, netlists, the Figure-5 adder, bypass
networks and slack-based two-layer placement."""

from repro.logic.adder import build_carry_skip_adder
from repro.logic.bypass import (
    BypassResult,
    bypass_delay,
    bypass_energy,
    bypass_wire_length,
    evaluate_execute_stage,
)
from repro.logic.gates import Gate, GateType
from repro.logic.netlist import Netlist, Node
from repro.logic.placement import PlacementResult, fold_stage, partition_netlist

__all__ = [
    "build_carry_skip_adder",
    "BypassResult",
    "bypass_delay",
    "bypass_energy",
    "bypass_wire_length",
    "evaluate_execute_stage",
    "Gate",
    "GateType",
    "Netlist",
    "Node",
    "PlacementResult",
    "fold_stage",
    "partition_netlist",
]
