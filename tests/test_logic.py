"""Tests for gates, netlists, the adder, bypass and placement."""

import pytest

from repro.logic.adder import build_carry_skip_adder
from repro.logic.bypass import (
    bypass_delay,
    bypass_energy,
    bypass_wire_length,
    evaluate_execute_stage,
)
from repro.logic.gates import Gate, GateType
from repro.logic.netlist import Netlist
from repro.logic.placement import fold_stage, partition_netlist


class TestGates:
    def test_bigger_gate_drives_faster(self):
        small = Gate(GateType.INV, size=1.0)
        big = Gate(GateType.INV, size=8.0)
        load = 10e-15
        assert big.delay(load) < small.delay(load)

    def test_bigger_gate_presents_more_load(self):
        assert Gate(size=4.0).input_capacitance > Gate(size=1.0).input_capacitance

    def test_complex_gates_slower(self):
        load = 2e-15
        assert Gate(GateType.XOR2).delay(load) > Gate(GateType.INV).delay(load)

    def test_top_layer_gate_slower(self):
        gate = Gate(GateType.NAND2, size=2.0)
        assert gate.on_layer(0.17).delay(1e-15) > gate.delay(1e-15)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Gate(size=0.0)


class TestNetlist:
    def _chain(self, length=5):
        netlist = Netlist("chain")
        prev = []
        for i in range(length):
            netlist.add_gate(f"g{i}", Gate(GateType.INV, size=2.0), fanin=prev)
            prev = [f"g{i}"]
        return netlist

    def test_critical_path_is_whole_chain(self):
        netlist = self._chain(5)
        path, delay = netlist.critical_path()
        assert path == [f"g{i}" for i in range(5)]
        assert delay > 0

    def test_chain_slack_zero_everywhere(self):
        netlist = self._chain(4)
        slacks = netlist.slacks()
        assert all(abs(s) < 1e-15 for s in slacks.values())

    def test_side_branch_has_slack(self):
        netlist = self._chain(5)
        netlist.add_gate("side", Gate(GateType.INV), fanin=["g0"])
        slacks = netlist.slacks()
        assert slacks["side"] > 0

    def test_duplicate_node_rejected(self):
        netlist = self._chain(2)
        with pytest.raises(ValueError):
            netlist.add_gate("g0", Gate())

    def test_unknown_fanin_rejected(self):
        netlist = Netlist("x")
        with pytest.raises(ValueError):
            netlist.add_gate("a", Gate(), fanin=["missing"])

    def test_rejected_gate_leaves_netlist_unchanged(self):
        # An unknown fanin, and a gate fed by itself, store nothing, so a
        # retry with valid fanins succeeds.
        netlist = self._chain(1)
        for fanin in (["g0", "zz"], ["b"]):
            with pytest.raises(ValueError):
                netlist.add_gate("b", Gate(), fanin=fanin)
            assert len(netlist) == 1
            assert netlist.names == ["g0"]
        netlist.add_gate("b", Gate(), fanin=["g0"])
        assert netlist.critical_path()[0] == ["g0", "b"]

    def test_wire_scaling_shortens_critical_path(self):
        netlist = self._chain(4)
        netlist.node("g2").wire_load = 20e-15
        _, before = netlist.critical_path()
        netlist.scale_wires(0.5)
        _, after = netlist.critical_path()
        assert after < before

    def test_energy_positive_and_activity_linear(self):
        netlist = self._chain(6)
        assert netlist.switching_energy(0.2) == pytest.approx(
            2 * netlist.switching_energy(0.1)
        )

    def test_layer_penalty_slows_assigned_gates(self):
        netlist = self._chain(4)
        _, before = netlist.critical_path()
        netlist.assign_layers({name: 1 for name in netlist.names})
        netlist.apply_layer_penalties(0.17)
        _, after = netlist.critical_path()
        assert after > before


class TestAdder:
    def test_structure_counts(self):
        adder = build_carry_skip_adder()
        # 16 groups x (4 propagate + 4 sum + 1 skip) + final = 145 gates.
        assert len(adder) == 145

    def test_critical_path_runs_through_skip_chain(self):
        adder = build_carry_skip_adder()
        path, _ = adder.critical_path()
        skips = [n for n in path if n.startswith("skip")]
        assert len(skips) == 16

    def test_minority_of_gates_critical(self):
        # Section 4.1.1: only a small fraction of gates lies on the
        # critical path, so half the gates can always move up.
        adder = build_carry_skip_adder()
        assert adder.critical_fraction() < 0.25

    def test_under_20pct_slack_still_minority(self):
        # "even if ... we needed a 20% slack — we would only have 38% of
        # the gates in the critical path."
        adder = build_carry_skip_adder()
        assert adder.critical_fraction(0.2) < 0.5

    def test_noncritical_blocks_have_slack(self):
        # The {32:39} propagate blocks, the first the paper moves up.
        adder = build_carry_skip_adder()
        slacks = adder.slacks()
        for name in [f"p{g}_{b}" for g in (8, 9) for b in range(4)]:
            assert slacks[name] > 0, name

    def test_width_must_divide(self):
        with pytest.raises(ValueError):
            build_carry_skip_adder(bits=62, group=4)


class TestPlacement:
    def test_fold_places_about_half_on_top(self):
        result = fold_stage(build_carry_skip_adder(), top_penalty=0.0)
        assert 0.3 < result.top_fraction <= 0.55

    def test_iso_fold_gains_frequency(self):
        # Section 3.1: a two-layer 64-bit adder gains ~15%.
        result = fold_stage(build_carry_skip_adder(), top_penalty=0.0)
        assert 0.08 < result.frequency_gain < 0.25

    def test_hetero_fold_recovers_iso_gain(self):
        # Section 4.1: critical paths below, so the slow top layer costs
        # almost nothing.
        iso = fold_stage(build_carry_skip_adder(), top_penalty=0.0)
        het = fold_stage(build_carry_skip_adder())
        assert het.frequency_gain > iso.frequency_gain - 0.05

    def test_placement_respects_slack(self):
        adder = build_carry_skip_adder()
        placement = partition_netlist(adder)
        path, _ = adder.critical_path()
        # The zero-slack spine must stay in the bottom layer.
        for name in path:
            assert placement[name] == 0, name

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            partition_netlist(build_carry_skip_adder(), target_top_fraction=1.5)


class TestBypass:
    def test_wire_length_superlinear(self):
        assert bypass_wire_length(4) > 2 * bypass_wire_length(2)

    def test_four_alus_gain_more_than_one(self):
        # Section 3.1: 15% for one ALU vs 28% for four ALUs with bypass.
        one = evaluate_execute_stage(1)
        four = evaluate_execute_stage(4)
        assert four.frequency_gain > one.frequency_gain

    def test_four_alu_gain_in_paper_band(self):
        four = evaluate_execute_stage(4)
        assert 0.20 < four.frequency_gain < 0.40

    def test_stage_energy_reduction_near_10pct(self):
        four = evaluate_execute_stage(4)
        assert 0.05 < four.energy_reduction < 0.20

    def test_delay_and_energy_grow_with_loads(self):
        assert bypass_delay(200e-6, 8) > bypass_delay(200e-6, 2)
        assert bypass_energy(200e-6, 8) > bypass_energy(200e-6, 2)

    def test_zero_alus_rejected(self):
        with pytest.raises(ValueError):
            bypass_wire_length(0)
