"""References shared by several test modules.

* ``workloads``: the benchmark's inputs.  ``perfbench/workloads.py`` is
  plain data (it never imports ``repro``) outside any package, so it is
  loaded by path; the served bodies and the explore space stay defined
  once, by the benchmark.
* :func:`reference_key`: ``make_key`` as one ``json.dumps`` of the whole
  canonical payload, the form every stored key was built with.
* :func:`reference_generate`: the trace generator's Python row loop.
* :func:`solve_stack_reference`: the thermal grid solve as scalar
  ``lil_matrix`` assembly and one ``spsolve``.
* :func:`reference_timing`: a netlist's arrival times and slacks by
  Kahn's algorithm over its own edge set.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
from scipy.sparse import lil_matrix
from scipy.sparse.linalg import spsolve

from repro.engine.cache import _canonical, code_fingerprint
from repro.thermal.grid import ThermalSolution
from repro.uarch.isa import OP_CODE, WARMUP_FRAC, OpClass, Trace
from repro.workloads.generator import SHARED_REGION_BASE

_ALU = OP_CODE[OpClass.ALU]
_LOAD = OP_CODE[OpClass.LOAD]
_STORE = OP_CODE[OpClass.STORE]
_BRANCH = OP_CODE[OpClass.BRANCH]
_SYNC = OP_CODE[OpClass.SYNC]
_FP_ADD = OP_CODE[OpClass.FP_ADD]
_FP_MUL = OP_CODE[OpClass.FP_MUL]
_FP_DIV = OP_CODE[OpClass.FP_DIV]

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def reference_key(kind, **parts):
    payload = json.dumps(
        {"kind": kind, "code": code_fingerprint(), "parts": _canonical(parts)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def spec_reference_key(spec):
    """:func:`reference_key` of a ``SimSpec``'s ``cache_key`` parts."""
    return reference_key(f"sim:{spec.mode}", config=spec.config,
                         profile=spec.profile, uops=spec.uops, seed=spec.seed)


def reference_generate(generator, num_uops, warmup_frac=WARMUP_FRAC):
    """``generator.generate(num_uops, warmup_frac)`` as the Python row
    loop the compiled one replaced, kept verbatim (``self`` is
    ``generator``): the one check of the compiled loop's draw order
    independent of it, on profiles, seeds and lengths no golden pins.
    Like ``generate``, it advances the generator's RNG and its code and
    stream pointers."""
    if num_uops < 1:
        raise ValueError("trace length must be positive")
    warmup_ops = int(num_uops * warmup_frac)
    total = num_uops + warmup_ops
    profile = generator.profile
    rng = generator._rng
    random = rng.random
    randrange = rng.randrange
    expovariate = rng.expovariate
    parallel = profile.is_parallel
    barrier_period = profile.barrier_period
    barrier_id = 0
    next_barrier = barrier_period or 0
    # Imbalance: threads do slightly different amounts of work between
    # barriers; thread 0 is the reference.
    skew = 1.0 + profile.imbalance * (
        random() - 0.5
    ) * 2.0 if parallel and generator._thread else 1.0

    # Op-class thresholds, accumulated in draw order; FP (code -1) is
    # refined into add/mul/div by a second draw.
    cuts = []
    acc = 0.0
    for frac, code in (
        (profile.load_frac, _LOAD),
        (profile.store_frac, _STORE),
        (profile.branch_frac, _BRANCH),
        (profile.fp_frac, -1),
        (profile.mul_frac, OP_CODE[OpClass.MUL]),
        (profile.div_frac, OP_CODE[OpClass.DIV]),
        (profile.complex_frac, OP_CODE[OpClass.COMPLEX]),
    ):
        acc += frac
        cuts.append((acc, code))
    code_bytes = profile.code_bytes
    code_end = 4096 + code_bytes
    code_ptr = generator._code_ptr
    serial_frac = profile.serial_frac
    dep_lambda = 1.0 / profile.dep_distance_mean
    sharing_frac = profile.sharing_frac
    hot_cut = sharing_frac + profile.hot_frac * (1 - sharing_frac)
    shared_span = max(64, profile.working_set_bytes // 8)
    hot_set_bytes = profile.hot_set_bytes
    stream_frac = profile.stream_frac
    stride = profile.stride_bytes
    private_base = generator._private_base
    stream_end = private_base + profile.working_set_bytes
    stream_ptr = generator._stream_ptr
    pool_lines = generator._pool_lines
    pool_stride = generator._pool_stride
    branch_pcs = generator._branch_pcs
    branch_bias = generator._branch_bias
    sites = len(branch_pcs)

    # Preallocated columns hold each field's default (ALU, ready
    # operands, no address, pc 0, not taken, no barrier); the loop
    # stores only what differs.
    codes = [_ALU] * total
    src1 = [0] * total
    src2 = [0] * total
    address = [0] * total
    pc = [0] * total
    taken = [False] * total
    barrier = [-1] * total
    index = 0
    while index < total:
        if parallel and next_barrier and index >= next_barrier:
            codes[index] = _SYNC
            barrier[index] = barrier_id
            barrier_id += 1
            next_barrier = index + max(100, int(barrier_period * skew))
            index += 1
            continue
        roll = random()
        for cut, code in cuts:
            if roll < cut:
                break
        else:
            code = _ALU
        if code < 0:
            fp_roll = random()
            code = (_FP_ADD if fp_roll < 0.55
                    else _FP_MUL if fp_roll < 0.93 else _FP_DIV)
        codes[index] = code
        if random() < 0.1:
            code_ptr = 4096 + (randrange(code_bytes) & ~31)
        else:
            code_ptr += 32
            if code_ptr >= code_end:
                code_ptr = 4096
        if code == _BRANCH:
            site = randrange(sites)
            taken[index] = random() < branch_bias[site]
            pc[index] = branch_pcs[site]
        else:
            pc[index] = code_ptr
        # Producer distances: none for the first op or with
        # probability 0.45; otherwise exponential, mostly short for
        # serial code, clamped to the trace start.
        if index and random() <= 0.55:
            if random() < serial_frac:
                dist = 1 + int(expovariate(0.5))
            else:
                dist = 1 + int(expovariate(dep_lambda))
            src1[index] = dist if dist < index else index
        if code == _LOAD or code == _STORE:
            roll = random()
            if parallel and roll < sharing_frac:
                # Shared region: all threads touch the same lines.
                address[index] = SHARED_REGION_BASE + randrange(shared_span)
            elif roll < hot_cut:
                address[index] = private_base + randrange(hot_set_bytes)
            elif random() < stream_frac:
                stream_ptr += stride
                if stream_ptr >= stream_end:
                    stream_ptr = private_base
                address[index] = stream_ptr
            else:
                address[index] = (private_base
                                  + randrange(pool_lines) * pool_stride)
        elif code != _BRANCH and index and random() <= 0.55:
            if random() < serial_frac:
                dist = 1 + int(expovariate(0.5))
            else:
                dist = 1 + int(expovariate(dep_lambda))
            src2[index] = dist if dist < index else index
        index += 1
    generator._code_ptr = code_ptr
    generator._stream_ptr = stream_ptr
    return Trace(
        name=profile.name,
        warmup_ops=warmup_ops,
        resident_data=generator._resident_data(),
        resident_code=generator._resident_code(),
        columns=[codes, src1, src2, address, pc, taken, barrier],
    )


def solve_stack_reference(stack, power_maps, chip_area, grid=16):
    """``repro.thermal.grid.solve_stack`` as scalar ``lil_matrix``
    assembly and one ``spsolve``: the oracle its vectorized assembly and
    reused ``splu`` factorization are checked against."""
    if len(power_maps) != len(stack.layers):
        raise ValueError("need one power map (or None) per stack layer")
    layers = stack.layers
    nl = len(layers)
    cells = grid * grid
    n = nl * cells
    side = chip_area**0.5
    cell_w = side / grid
    cell_area = cell_w * cell_w

    def node(layer: int, row: int, col: int) -> int:
        return layer * cells + row * grid + col

    matrix = lil_matrix((n, n))
    rhs = np.zeros(n)

    for li in range(nl - 1):
        r_half = (
            layers[li].vertical_resistance_per_area / 2.0
            + layers[li + 1].vertical_resistance_per_area / 2.0
        )
        g = cell_area / r_half
        for r in range(grid):
            for c in range(grid):
                a, b = node(li, r, c), node(li + 1, r, c)
                matrix[a, a] += g
                matrix[b, b] += g
                matrix[a, b] -= g
                matrix[b, a] -= g

    for li, layer in enumerate(layers):
        g_lat = layer.conductivity * layer.thickness
        if g_lat <= 0:
            continue
        for r in range(grid):
            for c in range(grid):
                a = node(li, r, c)
                if c + 1 < grid:
                    b = node(li, r, c + 1)
                    matrix[a, a] += g_lat
                    matrix[b, b] += g_lat
                    matrix[a, b] -= g_lat
                    matrix[b, a] -= g_lat
                if r + 1 < grid:
                    b = node(li, r + 1, c)
                    matrix[a, a] += g_lat
                    matrix[b, b] += g_lat
                    matrix[a, b] -= g_lat
                    matrix[b, a] -= g_lat

    r_cell = (
        stack.sink_resistance * cells
        + stack.spreading_resistance_area / cell_area
    )
    g_sink = 1.0 / r_cell
    top = nl - 1
    for r in range(grid):
        for c in range(grid):
            a = node(top, r, c)
            matrix[a, a] += g_sink
            rhs[a] += g_sink * stack.ambient_c

    for li, power_map in enumerate(power_maps):
        if power_map is None:
            continue
        for r in range(grid):
            for c in range(grid):
                rhs[node(li, r, c)] += power_map[r][c] * cell_area

    temperatures = spsolve(matrix.tocsr(), rhs)
    return ThermalSolution(
        stack_name=stack.name,
        grid=grid,
        temperatures=temperatures.reshape(nl, grid, grid),
        ambient_c=stack.ambient_c,
    )


def reference_timing(gates, edges):
    """Arrival times and slacks of a gate DAG, as ``(arrivals, slacks)``.

    ``gates`` maps a node name to ``(gate, wire_load)``; ``edges`` holds
    ``(src, dst)`` pairs, a repeated pair being one edge.  Nodes are
    ordered by Kahn's algorithm over this edge set, never by the order a
    ``Netlist`` was built in, and a node drives its wire load plus the
    input capacitance of each distinct fanout gate."""
    edges = set(edges)
    fanin = {name: [] for name in gates}
    fanout = {name: [] for name in gates}
    for src, dst in sorted(edges):
        fanin[dst].append(src)
        fanout[src].append(dst)
    delay = {}
    for name, (gate, wire_load) in gates.items():
        load = wire_load + sum(gates[succ][0].input_capacitance
                               for succ in fanout[name])
        delay[name] = gate.delay(load)
    pending = {name: len(fanin[name]) for name in gates}
    ready = sorted(name for name, count in pending.items() if not count)
    order = []
    while ready:
        name = ready.pop()
        order.append(name)
        for succ in fanout[name]:
            pending[succ] -= 1
            if not pending[succ]:
                ready.append(succ)
    if len(order) != len(gates):
        raise ValueError("the edge set has a cycle")
    arrivals = {}
    for name in order:
        arrivals[name] = delay[name] + max(
            (arrivals[src] for src in fanin[name]), default=0.0)
    critical = max(arrivals.values(), default=0.0)
    required = {}
    for name in reversed(order):
        required[name] = min(
            (required[succ] - delay[succ] for succ in fanout[name]),
            default=critical)
    return arrivals, {name: required[name] - arrivals[name] for name in gates}
