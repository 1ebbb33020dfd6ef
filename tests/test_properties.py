"""Property-based tests (hypothesis) on core data structures and invariants."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.gates import Gate, GateType
from repro.logic.netlist import Netlist
from repro.sram.array import ArrayGeometry, analyze_plane, solve_2d
from repro.sram.bitcell import Bitcell
from repro.tech.transistor import Transistor
from repro.tech.wire import LOCAL_WIRE
from repro.uarch.cache import SetAssociativeCache
from repro.uarch.noc import RingNoc
from repro.uarch.ooo import _FuPool, _PerCycleBandwidth, _WidthLimiter
from tests.references import reference_timing


# ---------------------------------------------------------------------------
# Technology invariants
# ---------------------------------------------------------------------------


@given(width=st.floats(min_value=0.25, max_value=64.0))
def test_transistor_rc_product_width_invariant(width):
    """R*C of a device is width-invariant (R ~ 1/w, C ~ w)."""
    unit = Transistor(width=1.0)
    sized = Transistor(width=width)
    assert math.isclose(
        sized.drive_resistance * sized.gate_capacitance,
        unit.drive_resistance * unit.gate_capacitance,
        rel_tol=1e-9,
    )


@given(
    width=st.floats(min_value=0.5, max_value=32.0),
    penalty=st.floats(min_value=0.0, max_value=0.5),
)
def test_layer_penalty_never_speeds_up(width, penalty):
    base = Transistor(width=width)
    slowed = Transistor(width=width, layer_penalty=penalty)
    assert slowed.drive_resistance >= base.drive_resistance


@given(
    l1=st.floats(min_value=1e-6, max_value=1e-3),
    l2=st.floats(min_value=1e-6, max_value=1e-3),
)
def test_wire_delay_monotonic_in_length(l1, l2):
    driver = Transistor(width=8.0)
    short, long = sorted((l1, l2))
    assert LOCAL_WIRE.elmore_delay(short, driver) <= LOCAL_WIRE.elmore_delay(
        long, driver
    )


# ---------------------------------------------------------------------------
# Bitcell / array invariants
# ---------------------------------------------------------------------------


@given(ports=st.integers(min_value=1, max_value=24))
def test_bitcell_dimensions_monotonic_in_ports(ports):
    smaller = Bitcell(ports=ports)
    bigger = Bitcell(ports=ports + 1)
    assert bigger.width >= smaller.width
    assert bigger.height >= smaller.height
    assert bigger.leakage > smaller.leakage


@given(mult=st.floats(min_value=1.0, max_value=4.0))
def test_upsizing_trades_speed_for_wordline_load(mult):
    base = Bitcell(ports=4)
    sized_up = base.scaled(mult)
    assert sized_up.read_path_resistance <= base.read_path_resistance
    assert sized_up.wordline_cap_per_cell >= base.wordline_cap_per_cell


@settings(deadline=None, max_examples=25)
@given(
    words=st.sampled_from([32, 64, 128, 256, 1024]),
    bits=st.sampled_from([8, 16, 64, 128]),
    ports=st.integers(min_value=1, max_value=8),
)
def test_array_metrics_always_physical(words, bits, ports):
    geometry = ArrayGeometry("prop", words=words, bits=bits, read_ports=ports)
    metrics = solve_2d(geometry)
    assert metrics.access_time > 0
    assert metrics.read_energy > 0
    assert metrics.write_energy > 0
    assert metrics.area > 0
    assert metrics.leakage_power > 0
    assert metrics.detail.total > 0


@settings(deadline=None, max_examples=20)
@given(
    rows=st.integers(min_value=8, max_value=512),
    cols=st.integers(min_value=8, max_value=256),
)
def test_plane_delay_monotonic_in_both_dimensions(rows, cols):
    cell = Bitcell(ports=1)
    base = analyze_plane(rows, cols, cell)
    taller = analyze_plane(rows * 2, cols, cell)
    wider = analyze_plane(rows, cols * 2, cell)
    assert taller.delay.bitline >= base.delay.bitline
    assert wider.delay.wordline >= base.delay.wordline


# ---------------------------------------------------------------------------
# Simulator scheduling invariants
# ---------------------------------------------------------------------------


@given(earliests=st.lists(st.integers(min_value=0, max_value=200),
                          min_size=1, max_size=60))
def test_width_limiter_never_early(earliests):
    limiter = _WidthLimiter(4)
    previous = -1
    for earliest in earliests:
        cycle = limiter.allocate(earliest)
        assert cycle >= earliest
        assert cycle >= previous  # in-order stages never go backwards
        previous = cycle


@given(earliests=st.lists(st.integers(min_value=0, max_value=100),
                          min_size=1, max_size=80))
def test_per_cycle_bandwidth_respects_cap(earliests):
    width = 3
    limiter = _PerCycleBandwidth(width)
    allocated = [limiter.allocate(e) for e in earliests]
    for earliest, cycle in zip(earliests, allocated):
        assert cycle >= earliest
    for cycle in set(allocated):
        assert allocated.count(cycle) <= width


@given(
    requests=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=60),
            st.integers(min_value=1, max_value=8),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_fu_pool_never_oversubscribed(requests):
    count = 2
    pool = _FuPool(count)
    occupancy = {}
    for earliest, busy in requests:
        start = pool.reserve(earliest, busy)
        assert start >= earliest
        for k in range(busy):
            occupancy[start + k] = occupancy.get(start + k, 0) + 1
    assert all(users <= count for users in occupancy.values())


# ---------------------------------------------------------------------------
# Batched kernel: cycle-exact against the scalar oracle
# ---------------------------------------------------------------------------


_CONFIG_STRATEGY = st.builds(
    dict,
    dispatch_width=st.integers(min_value=1, max_value=4),
    extra_issue=st.integers(min_value=0, max_value=3),
    rob_entries=st.integers(min_value=8, max_value=192),
    iq_entries=st.integers(min_value=4, max_value=84),
    lq_entries=st.integers(min_value=2, max_value=72),
    sq_entries=st.integers(min_value=2, max_value=56),
    load_to_use_cycles=st.integers(min_value=3, max_value=5),
    branch_mispredict_cycles=st.integers(min_value=10, max_value=16),
    hetero=st.booleans(),
    shared_l2=st.booleans(),
    frequency=st.sampled_from([2.2e9, 3.3e9, 4.4e9]),
)


def _random_config(index, fields):
    from repro.design.resolve import resolve

    fields = dict(fields)
    dispatch = fields.pop("dispatch_width")
    issue = dispatch + fields.pop("extra_issue")
    return dataclasses.replace(
        resolve("Base").config, name=f"prop{index}", dispatch_width=dispatch,
        issue_width=issue, commit_width=dispatch, **fields,
    )


@settings(deadline=None, max_examples=25)
@given(
    config_fields=st.lists(_CONFIG_STRATEGY, min_size=2, max_size=3),
    uops=st.integers(min_value=20, max_value=120),
    seed=st.integers(min_value=0, max_value=2**16),
    profile_index=st.integers(min_value=0, max_value=20),
)
def test_run_trace_batch_matches_oracle(config_fields, uops, seed,
                                        profile_index):
    """The batched kernel is cycle-exact (full result equality) against
    per-config scalar simulation."""
    from repro.uarch.kernel import run_trace_batch
    from repro.uarch.ooo import run_trace
    from repro.workloads.generator import generate_trace
    from repro.workloads.spec import spec_profiles

    profiles = spec_profiles()
    profile = profiles[profile_index % len(profiles)]
    configs = [_random_config(i, fields)
               for i, fields in enumerate(config_fields)]
    trace = generate_trace(profile, uops, seed=seed)
    oracle = [run_trace(config, trace) for config in configs]
    assert run_trace_batch(configs, trace) == oracle


# ---------------------------------------------------------------------------
# Compiled replay: exact against the cache, coherence and predictor models
# ---------------------------------------------------------------------------

#: Data addresses that alias: every ``k << 17`` maps to set 0 of DL1, L2
#: (both geometries) and L3, more lines than any level has ways; ``+ 32``
#: is a second DL1 line inside the same L2 line, ``+ 256`` the last line
#: an L2 miss prefetches, ``+ 4096`` a second DL1 line of set 0 in other
#: L2/L3 sets.
_DATA_POOL = tuple((k << 17) + offset
                   for k in range(1, 21) for offset in (0, 32, 256, 4096))
#: Fetch addresses: ``k << 16`` share IL1 set 0 and the data pool's L2
#: and L3 sets (an even ``k`` is a data line too), so the order in which
#: warm state takes data and code lines matters; pc 0 fetches at
#: ``position * 4`` instead.
_CODE_POOL = (0,) + tuple((k << 16) + offset
                          for k in range(1, 13) for offset in (0, 32))
#: Branch sites that share predictor-table entries (``pc & 4095``).
_BRANCH_PCS = (4104, 8200, 12296, 16396, 20480)


@st.composite
def _replay_traces(draw):
    from repro.uarch.isa import OP_CODE, OpClass, Trace

    alu, load, store, branch = (
        OP_CODE[op] for op in (OpClass.ALU, OpClass.LOAD, OpClass.STORE,
                               OpClass.BRANCH)
    )
    ops = draw(st.lists(
        st.tuples(st.sampled_from([alu, load, load, store, branch]),
                  st.sampled_from(_DATA_POOL), st.sampled_from(_CODE_POOL),
                  st.sampled_from(_BRANCH_PCS), st.booleans()),
        min_size=16, max_size=300,
    ))
    codes = [op[0] for op in ops]
    n = len(ops)
    columns = [
        codes, [0] * n, [0] * n,
        [data if code in (load, store) else 0
         for code, data, _, _, _ in ops],
        [site if code == branch else fetch
         for code, _, fetch, site, _ in ops],
        [taken and code == branch for code, _, _, _, taken in ops],
        [-1] * n,
    ]
    return Trace(
        "replay-prop", warmup_ops=draw(st.integers(0, n)),
        resident_data=draw(st.lists(st.sampled_from(_DATA_POOL),
                                    max_size=80)),
        resident_code=draw(st.lists(st.sampled_from(_CODE_POOL[1:]),
                                    max_size=40)),
        columns=columns,
    )


def _reference_replay(traces, shared_l2):
    """Per-core ``(fetch levels, load levels, remote flags, level
    counts)`` from :class:`CacheHierarchy` run core after core through one
    :class:`CoherenceDirectory`, and its transfer count."""
    from repro.design.resolve import resolve
    from repro.uarch.cache import CacheHierarchy, CoherenceDirectory
    from repro.uarch.isa import OP_CODE, OpClass
    from repro.uarch.ooo import FETCH_BLOCK_UOPS

    load, store = OP_CODE[OpClass.LOAD], OP_CODE[OpClass.STORE]
    levels = ("L1", "L2", "L3", "DRAM")
    config = dataclasses.replace(resolve("Base").config, shared_l2=shared_l2)
    directory = CoherenceDirectory() if len(traces) > 1 else None
    replays = []
    for core_id, trace in enumerate(traces):
        caches = CacheHierarchy(config, core_id, directory)
        if len(trace.resident_data) or len(trace.resident_code):
            caches.preload(trace.resident_data, trace.resident_code)
        fetches, loads, remote, counts = [], [], [], {}
        for i, (code, address, pc) in enumerate(zip(
                trace.codes.tolist(), trace.address.tolist(),
                trace.pc.tolist())):
            measured = i - trace.warmup_ops
            position = i if measured < 0 else measured
            if position % FETCH_BLOCK_UOPS == 0:
                level = caches.fetch(pc if pc else position * 4).level
                if measured >= 0:
                    fetches.append(levels.index(level))
            if code in (load, store):
                before = directory.transfers if directory else 0
                level = caches.data_access(address, code == store).level
                if code == load and measured >= 0:
                    loads.append(levels.index(level))
                    remote.append(int(directory is not None
                                      and directory.transfers > before))
                    counts[level] = counts.get(level, 0) + 1
        replays.append((fetches, loads, remote, counts))
    return replays, directory.transfers if directory else 0


def _reference_outcomes(trace):
    """Measured branches' outcomes (1 = predicted correctly) from a
    :class:`TournamentPredictor` trained from the trace's start."""
    from repro.uarch.bpred import TournamentPredictor
    from repro.uarch.isa import OP_CODE, OpClass

    predictor = TournamentPredictor()
    branch = OP_CODE[OpClass.BRANCH]
    outcomes = []
    for i, (code, pc, taken) in enumerate(zip(
            trace.codes.tolist(), trace.pc.tolist(), trace.taken.tolist())):
        if code == branch:
            correct = predictor.predict_and_train(pc, taken)
            if i >= trace.warmup_ops:
                outcomes.append(int(correct))
    return outcomes


@st.composite
def _branch_traces(draw):
    """Branch-only traces whose sites repeat short taken patterns, with
    a little noise, so the local and global tables disagree, the
    selector moves and the global history fills all its bits."""
    import random

    from repro.uarch.isa import OP_CODE, OpClass, Trace

    sites = draw(st.lists(
        st.tuples(st.sampled_from(_BRANCH_PCS),
                  st.lists(st.booleans(), min_size=1, max_size=6)),
        min_size=1, max_size=5,
    ))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 3000))
    noise = draw(st.sampled_from([0.0, 0.02, 0.2]))
    visits = [0] * len(sites)
    pcs, taken = [], []
    for _ in range(n):
        site = rng.randrange(len(sites))
        pc, pattern = sites[site]
        pcs.append(pc)
        taken.append(pattern[visits[site] % len(pattern)]
                     != (rng.random() < noise))
        visits[site] += 1
    branch = OP_CODE[OpClass.BRANCH]
    return Trace("branch-prop", warmup_ops=draw(st.integers(0, n)),
                 columns=[[branch] * n, [0] * n, [0] * n, [0] * n, pcs,
                          taken, [-1] * n])


@settings(deadline=None, max_examples=30)
@given(trace=_branch_traces())
def test_compiled_predictor_matches_the_model(trace):
    from repro.uarch import kernel

    outcomes, mispredictions = kernel.branch_outcomes(trace)
    expected = _reference_outcomes(trace)
    assert outcomes.tolist() == expected
    assert mispredictions == expected.count(0)


def _image_tuple(image):
    return (image.fetch_levels.tolist(), image.load_levels.tolist(),
            image.load_remote.tolist(), image.mem_level_counts)


@settings(deadline=None, max_examples=30)
@given(trace=_replay_traces())
def test_compiled_replay_matches_the_models(trace):
    """``replay_memory`` under both L2 geometries and ``branch_outcomes``
    equal a replay through ``CacheHierarchy`` and
    ``TournamentPredictor``."""
    from repro.design.resolve import resolve
    from repro.uarch import kernel

    for shared_l2 in (False, True):
        config = dataclasses.replace(resolve("Base").config, shared_l2=shared_l2)
        (expected,), _ = _reference_replay([trace], shared_l2)
        assert _image_tuple(kernel.replay_memory(trace, config)) == expected
    outcomes, mispredictions = kernel.branch_outcomes(trace)
    expected = _reference_outcomes(trace)
    assert outcomes.tolist() == expected
    assert mispredictions == expected.count(0)


@settings(deadline=None, max_examples=20)
@given(traces=st.lists(_replay_traces(), min_size=2, max_size=4),
       shared_l2=st.booleans())
def test_compiled_coherence_matches_the_directory(traces, shared_l2):
    """A 2-4 core group replayed core by core through one ``OwnerTable``
    gives the directory's levels, remote flags and transfer count."""
    from repro.design.resolve import resolve
    from repro.uarch import kernel

    config = dataclasses.replace(resolve("Base").config, shared_l2=shared_l2)
    expected, transfers = _reference_replay(traces, shared_l2)
    table = kernel.OwnerTable(traces)
    images = [
        kernel.replay_memory(trace, config, core_id=core_id, coherence=table)
        for core_id, trace in enumerate(traces)
    ]
    assert [_image_tuple(image) for image in images] == expected
    assert table.transfers == transfers


# ---------------------------------------------------------------------------
# Cache invariants
# ---------------------------------------------------------------------------


@given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20),
                          min_size=1, max_size=300))
def test_cache_repeat_access_hits(addresses):
    cache = SetAssociativeCache(64 * 1024, 8, 64)
    for address in addresses:
        cache.access(address)
    # Immediately repeating the last address always hits (it is MRU).
    assert cache.access(addresses[-1])


@given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 30),
                          min_size=1, max_size=200))
def test_cache_miss_count_bounded_by_unique_lines(addresses):
    cache = SetAssociativeCache(1 << 20, 16, 64)
    for address in addresses:
        cache.access(address)
    unique_lines = len({a // 64 for a in addresses})
    assert cache.misses <= unique_lines  # big cache: only compulsory misses


@given(cores=st.integers(min_value=1, max_value=32))
def test_noc_shared_stops_never_slower(cores):
    assert RingNoc(cores, shared_stops=True).average_latency <= RingNoc(
        cores
    ).average_latency


# ---------------------------------------------------------------------------
# Netlist timing invariants
# ---------------------------------------------------------------------------


@given(
    lengths=st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                     max_size=5)
)
def test_netlist_slack_nonnegative_and_critical_zero(lengths):
    """In any fan-out tree, slacks are >= 0 and the critical path has 0."""
    netlist = Netlist("prop")
    netlist.add_gate("root", Gate(GateType.INV, size=2.0))
    for b, chain_len in enumerate(lengths):
        prev = "root"
        for i in range(chain_len):
            name = f"b{b}_g{i}"
            netlist.add_gate(name, Gate(GateType.NAND2, size=2.0), fanin=[prev])
            prev = name
    slacks = netlist.slacks()
    assert all(s >= -1e-18 for s in slacks.values())
    path, _ = netlist.critical_path()
    for name in path:
        assert abs(slacks[name]) < 1e-15


@st.composite
def _gate_dags(draw):
    """``{name: (gate, wire_load)}`` in insertion order, plus each node's
    fanin names: a fanin list may repeat a name, and any node may end up
    without fanout."""
    gates, fanins = {}, {}
    for index in range(draw(st.integers(min_value=1, max_value=24))):
        name = f"n{index}"
        fanins[name] = [f"n{i}" for i in draw(st.lists(
            st.integers(min_value=0, max_value=index - 1), max_size=4,
        ))] if index else []
        gate = Gate(draw(st.sampled_from(list(GateType))),
                    size=draw(st.floats(min_value=0.5, max_value=8.0)),
                    layer_penalty=draw(st.sampled_from([0.0, 0.17])))
        gates[name] = (gate, draw(st.floats(min_value=0.0, max_value=20e-15)))
    return gates, fanins


@settings(deadline=None, max_examples=60)
@given(dag=_gate_dags())
def test_netlist_timing_matches_kahn_reference(dag):
    """Insertion-order timing equals a Kahn's-algorithm longest path."""
    gates, fanins = dag
    netlist = Netlist("random")
    for name, (gate, wire_load) in gates.items():
        netlist.add_gate(name, gate, fanin=fanins[name], wire_load=wire_load)
    edges = [(src, dst) for dst, srcs in fanins.items() for src in srcs]
    arrivals, slacks = reference_timing(gates, edges)
    critical = max(arrivals.values())
    # Zero slacks are compared on the critical delay's scale.
    tolerance = dict(rel=1e-12, abs=1e-12 * critical)
    assert netlist.arrival_times() == pytest.approx(arrivals, **tolerance)
    assert netlist.slacks() == pytest.approx(slacks, **tolerance)
    assert netlist.critical_path()[1] == pytest.approx(critical, rel=1e-12)


@given(scale=st.floats(min_value=0.1, max_value=1.0))
def test_netlist_wire_scaling_monotonic(scale):
    from repro.logic.adder import build_carry_skip_adder

    full = build_carry_skip_adder()
    _, before = full.critical_path()
    full.scale_wires(scale)
    _, after = full.critical_path()
    assert after <= before + 1e-18


# ---------------------------------------------------------------------------
# Thermal solver invariants
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=10)
@given(power=st.floats(min_value=0.5, max_value=12.0))
def test_thermal_maximum_principle(power):
    """No cell may be cooler than ambient, and peak grows with power."""
    from repro.thermal.floorplan import floorplan_2d
    from repro.thermal.grid import solve_floorplans
    from repro.thermal.stack import stack_2d_thermal

    stack = stack_2d_thermal()
    solution = solve_floorplans(stack, [floorplan_2d(power)], grid=6)
    assert (solution.temperatures >= stack.ambient_c - 1e-6).all()
    hotter = solve_floorplans(stack, [floorplan_2d(power * 1.5)], grid=6)
    assert hotter.peak_c >= solution.peak_c


@settings(deadline=None, max_examples=10)
@given(power=st.floats(min_value=1.0, max_value=10.0))
def test_thermal_tsv_always_hotter_than_m3d(power):
    from repro.thermal.hotspot import peak_temperature_for

    m3d = peak_temperature_for("M3D-Het", power, grid=6)
    tsv = peak_temperature_for("TSV3D", power, grid=6)
    assert tsv.peak_c > m3d.peak_c


# ---------------------------------------------------------------------------
# Golden comparator invariants
# ---------------------------------------------------------------------------


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(width=64),  # NaN and infinities included on purpose
    st.text(max_size=12),
)
_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(min_size=1, max_size=8), children,
                        max_size=4),
    ),
    max_leaves=25,
)


@given(payload=_JSON_PAYLOADS)
def test_golden_compare_reflexive(payload):
    """compare(x, x) is clean for every JSON-shaped payload, non-finite
    floats included."""
    from repro.golden import canonical, compare_payloads

    value = canonical(payload)
    result = compare_payloads("prop", value, value)
    assert result.clean


@given(payload=_JSON_PAYLOADS)
def test_golden_serialization_byte_stable(payload):
    """dumps(loads(dumps(x))) == dumps(x): the canonical form is a
    fixed point of its own round trip."""
    import json

    from repro.golden import canonical_dumps

    text = canonical_dumps(payload)
    assert canonical_dumps(json.loads(text)) == text


@given(
    base=st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False),
    scale=st.floats(min_value=2.0, max_value=1e6),
    negative=st.booleans(),
)
def test_golden_beyond_tolerance_perturbation_always_drifts(base, scale,
                                                            negative):
    """Any perturbation beyond the rtol/atol envelope yields exactly one
    value drift at the perturbed cell."""
    from repro.golden import MODEL_FLOAT, compare_payloads

    margin = MODEL_FLOAT.atol + MODEL_FLOAT.rtol * abs(base)
    perturbed = base + margin * scale * (-1 if negative else 1)
    result = compare_payloads(
        "prop", {"m": {"x": base}}, {"m": {"x": perturbed}}
    )
    assert [d.kind for d in result.drifts] == ["value"]
    assert result.drifts[0].path == "m/x"


@given(
    base=st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False),
    fraction=st.floats(min_value=0.0, max_value=0.9),
)
def test_golden_within_tolerance_perturbation_never_drifts(base, fraction):
    from repro.golden import MODEL_FLOAT, compare_payloads

    margin = MODEL_FLOAT.atol + MODEL_FLOAT.rtol * abs(base)
    perturbed = base + margin * fraction
    assert compare_payloads(
        "prop", {"m": {"x": base}}, {"m": {"x": perturbed}}
    ).clean


# ---------------------------------------------------------------------------
# DesignPoint serialization round trip
# ---------------------------------------------------------------------------


_POINT_STRATEGY = st.builds(
    dict,
    name=st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1,
        max_size=12,
    ),
    stack=st.sampled_from(["2D", "M3D", "TSV3D"]),
    partition=st.sampled_from(["symmetric", "asymmetric"]),
    frequency_policy=st.sampled_from(["base", "fixed", "derived"]),
    top_layer_slowdown=st.sampled_from([0.0, 0.1, 0.25]),
    top_layer_flavor=st.sampled_from(["HP", "LP"]),
    num_cores=st.sampled_from([1, 4]),
    fixed_frequency=st.sampled_from([2.2e9, 3.3e9]),
    use_paper_values=st.booleans(),
)


@given(fields=_POINT_STRATEGY)
def test_design_point_json_round_trip(fields):
    """to_dict -> JSON text -> from_dict reproduces the point exactly."""
    import json

    from repro.design import DesignPoint

    if fields["stack"] == "2D" and fields["frequency_policy"] == "derived":
        # A 2D stack has no 3D frequency to derive; the constructor
        # rejects the combination by design.
        fields["frequency_policy"] = "base"
    point = DesignPoint(**fields)
    rebuilt = DesignPoint.from_dict(json.loads(json.dumps(point.to_dict())))
    assert rebuilt == point
    assert rebuilt.to_dict() == point.to_dict()
