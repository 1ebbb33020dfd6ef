"""Gate netlists: timing graphs with slack analysis.

A :class:`Netlist` is a DAG of sized gates plus wire loads.  It supports the
two queries the hetero-layer partitioner needs (Section 4.1):

* the *critical path* (longest register-to-register delay), and
* per-node *slack* — how much a node may slow down before it joins the
  critical path.  Nodes with slack above the top-layer penalty can move to
  the slow layer for free, which is why "only 1.5% of the gates in the
  64-bit adder are in the critical path" translates into a clean partition.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Tuple

from repro.logic.gates import Gate
from repro.tech import constants

#: Fraction of a stage's gates that switch per cycle.
ACTIVITY: float = 0.15


@dataclasses.dataclass
class Node:
    """One gate instance in a netlist."""

    name: str
    gate: Gate
    wire_load: float = 0.0  # extra wire capacitance on the output (F)
    layer: int = 0  # 0 = bottom, 1 = top


class Netlist:
    """A combinational timing graph between register boundaries."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._fanin: Dict[str, List[str]] = {}
        self._fanout: Dict[str, List[str]] = {}

    # -- construction -------------------------------------------------------

    def add_gate(
        self, name: str, gate: Gate, fanin: Iterable[str] = (), wire_load: float = 0.0
    ) -> None:
        """Add a gate fed by the named predecessor gates.

        Every fanin must already be in the netlist, so a gate cannot feed
        itself and insertion order is a topological order.  A repeated
        fanin is one edge; a rejected gate leaves the netlist unchanged.
        """
        if name in self._nodes:
            raise ValueError(f"duplicate node {name!r}")
        preds = list(dict.fromkeys(fanin))
        for src in preds:
            if src not in self._nodes:
                raise ValueError(f"unknown fanin {src!r} for {name!r}")
        self._nodes[name] = Node(name=name, gate=gate, wire_load=wire_load)
        self._fanin[name] = preds
        self._fanout[name] = []
        for src in preds:
            self._fanout[src].append(name)

    def node(self, name: str) -> Node:
        return self._nodes[name]

    @property
    def names(self) -> List[str]:
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    # -- timing -------------------------------------------------------------

    def _load(self, name: str) -> float:
        """Capacitance a node drives: its wire load plus its fanout's inputs."""
        load = self._nodes[name].wire_load
        for succ in self._fanout[name]:
            load += self._nodes[succ].gate.input_capacitance
        return load

    def _node_delay(self, name: str) -> float:
        """Delay through one node: gate delay into its fanout + wire load."""
        return self._nodes[name].gate.delay(self._load(name))

    def _forward(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Each node's delay and latest output arrival, one delay per node."""
        delays: Dict[str, float] = {}
        arrivals: Dict[str, float] = {}
        for name in self._nodes:  # insertion order is topological
            delays[name] = self._node_delay(name)
            latest_in = max(
                (arrivals[p] for p in self._fanin[name]), default=0.0
            )
            arrivals[name] = latest_in + delays[name]
        return delays, arrivals

    def arrival_times(self) -> Dict[str, float]:
        """Latest arrival time at each node's output (s)."""
        return self._forward()[1]

    def critical_path(self) -> Tuple[List[str], float]:
        """The longest path (node names) and its delay (s)."""
        arrivals = self.arrival_times()
        if not arrivals:
            return [], 0.0
        end = max(arrivals, key=arrivals.get)
        path = [end]
        while self._fanin[path[-1]]:
            path.append(max(self._fanin[path[-1]], key=arrivals.get))
        path.reverse()
        return path, arrivals[end]

    def timing(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Arrival time and slack per node (s), from one timing pass.

        Slack is the critical delay minus the node's worst path.
        """
        delays, arrivals = self._forward()
        critical = max(arrivals.values(), default=0.0)
        # Required times in reverse insertion (topological) order.
        required: Dict[str, float] = {}
        for name in reversed(self._nodes):
            required[name] = min(
                (required[s] - delays[s] for s in self._fanout[name]),
                default=critical,
            )
        slacks = {name: required[name] - arrivals[name] for name in self._nodes}
        return arrivals, slacks

    def critical_fraction(self, slack_threshold: float = 0.0) -> float:
        """Fraction of gates whose slack is at or below a threshold.

        With ``slack_threshold = penalty * critical_delay`` this answers the
        paper's question: how many gates *cannot* tolerate the top layer's
        slowdown?  (Section 4.1.1: 1.5% at zero slack; 38% even at a 20%
        slack requirement.)
        """
        if not self._nodes:
            return 0.0
        arrivals, slacks = self.timing()
        critical = max(arrivals.values())
        cutoff = slack_threshold * critical
        tight = sum(1 for s in slacks.values() if s <= cutoff + 1e-18)
        return tight / len(self._nodes)

    # -- energy / area ------------------------------------------------------

    def switching_energy(self) -> float:
        """Expected switching energy per cycle (J) at :data:`ACTIVITY`."""
        vdd = constants.VDD_NOMINAL_22NM
        total = 0.0
        for name, node in self._nodes.items():
            total += ACTIVITY * (
                self._load(name) * vdd**2 + node.gate.switching_energy()
            )
        return total

    def leakage_current(self) -> float:
        """Total leakage (A)."""
        return sum(node.gate.leakage_current for node in self._nodes.values())

    def scale_wires(self, factor: float) -> None:
        """Scale every explicit wire load (folding shortens all wires)."""
        if factor < 0:
            raise ValueError("wire scale factor must be non-negative")
        for node in self._nodes.values():
            node.wire_load *= factor

    def assign_layers(self, layer_by_name: Dict[str, int]) -> None:
        """Move gates onto layers (0 = bottom, 1 = top) with penalties.

        Gates placed on layer 1 acquire the hosting layer's delay penalty;
        callers provide the penalty through :func:`apply_layer_penalties`.
        """
        for name, layer in layer_by_name.items():
            self._nodes[name].layer = layer

    def apply_layer_penalties(self, top_penalty: float) -> None:
        """Apply the top layer's drive penalty to all layer-1 gates."""
        for node in self._nodes.values():
            if node.layer == 1:
                node.gate = node.gate.on_layer(top_penalty)
            else:
                node.gate = node.gate.on_layer(0.0)

    def layer_counts(self) -> Tuple[int, int]:
        """(bottom, top) gate counts."""
        bottom = sum(1 for n in self._nodes.values() if n.layer == 0)
        return bottom, len(self._nodes) - bottom
