"""Multicore simulation: per-tile configs, shared L3, NoC, barrier alignment.

The paper's multicore experiments (Figures 9 and 10) run 15 SPLASH2/PARSEC
applications on four- and eight-core systems.  The model here:

* splits the application's total work across tiles in proportion to each
  tile's expected throughput (equal shares when the tiles are identical —
  so an 8-core M3D-Het-2X runs half the per-core work of a 4-core Base,
  the source of its near-2x speedup),
* runs each tile's trace through the full out-of-order model, with a
  shared coherence directory and a NoC penalty on L3/remote accesses,
* aligns tiles at the barriers their traces carry: the time of each
  barrier-to-barrier phase is the *maximum* across tiles (stragglers set
  the pace; the profile's ``imbalance`` creates them).  Heterogeneous
  tile frequencies are aligned on a common reference clock (the fastest
  tile's).

Every run is a tile list, where each tile carries its own
:class:`CoreConfig`; the paper's four- and eight-core systems are
``config.num_cores`` copies of one config.  :func:`run_parallel_tiles`
runs the scalar out-of-order model per tile (the oracle) and
:func:`evaluate_tiles` is its cycle-exact batched-kernel equivalent;
:func:`run_parallel_batch` evaluates many multicore configs through
:func:`evaluate_tiles`.

Figure 4's shared router stops (pairs of folded cores sharing L2s and a
stop) enter through the NoC model: fewer stops, shorter links, lower
average latency.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.configs import CoreConfig
from repro.lru import LruMemo
from repro.uarch.cache import CoherenceDirectory
from repro.uarch.noc import Noc, RingNoc
from repro.uarch.ooo import OutOfOrderCore, SimResult
from repro.workloads.profiles import AppProfile

#: Cycles to run the barrier protocol itself (flag propagation on the ring).
BARRIER_OVERHEAD_CYCLES: int = 40


@dataclasses.dataclass(frozen=True)
class MulticoreResult:
    """Outcome of one parallel application on one multicore config."""

    config_name: str
    trace_name: str
    cycles: int
    frequency: float
    per_core: List[SimResult]
    barrier_wait_cycles: int
    coherence_transfers: int
    noc_latency: int
    #: The ``total_uops`` the caller asked for.  :attr:`total_uops` is
    #: what the cores measured; the two differ only when the request is
    #: smaller than the core count (each core runs at least one uop).
    requested_uops: int = 0
    #: Tail barrier phases silently dropped by alignment when cores
    #: disagree on barrier count (alignment truncates to the shortest
    #: core's phase list; a nonzero value also raises a
    #: :class:`repro.obs.ModelDisagreementWarning`).
    dropped_phases: int = 0

    @property
    def seconds(self) -> float:
        return self.cycles / self.frequency

    @property
    def total_uops(self) -> int:
        return sum(result.stats.uops for result in self.per_core)

    @property
    def stall_cycles(self) -> Dict[str, int]:
        """Per-stage stall attribution summed across the cores."""
        totals: Dict[str, int] = {}
        for result in self.per_core:
            for cause, cycles in result.stats.stall_cycles.items():
                totals[cause] = totals.get(cause, 0) + cycles
        return totals

    def speedup_over(self, other: "MulticoreResult") -> float:
        """Wall-clock speedup at equal total work."""
        scale = other.total_uops / max(1, self.total_uops)
        return other.seconds / (self.seconds * scale)


def _phase_durations(result: SimResult) -> List[int]:
    """Cycle length of each barrier-to-barrier phase of one core's run."""
    markers = result.stats.sync_commit_cycles
    phases: List[int] = []
    previous = 0
    for marker in markers:
        phases.append(marker - previous)
        previous = marker
    phases.append(result.cycles - previous)  # tail after the last barrier
    return phases


def _align_barriers(
    results: List[SimResult],
    frequencies: Optional[Sequence[float]] = None,
) -> Tuple[int, int, int]:
    """Barrier alignment across cores:
    ``(total_cycles, wait_cycles, dropped_phases)``.

    Phase k completes when the slowest core does; stragglers set the
    pace and the others accumulate wait cycles.  Alignment truncates to
    the shortest core's phase count; ``dropped_phases`` counts the tail
    phases that truncation discarded (the caller records it on the
    result and warns).

    With heterogeneous ``frequencies`` the phases are first rescaled to
    the fastest tile's clock (``round(cycles * f_ref / f)``), so the
    returned totals are reference-clock cycles.  Homogeneous inputs take
    the exact integer path — bit-identical to the pre-tile model.
    """
    phase_lists = [_phase_durations(result) for result in results]
    num_phases = min(len(phases) for phases in phase_lists)
    dropped = sum(len(phases) - num_phases for phases in phase_lists)
    if frequencies is not None and len(set(frequencies)) > 1:
        f_ref = max(frequencies)
        phase_lists = [
            [int(round(cycles * f_ref / freq)) for cycles in phases]
            for phases, freq in zip(phase_lists, frequencies)
        ]
    total_cycles = 0
    wait_cycles = 0
    for k in range(num_phases):
        durations = [phases[k] for phases in phase_lists]
        longest = max(durations)
        total_cycles += longest + BARRIER_OVERHEAD_CYCLES
        wait_cycles += sum(longest - d for d in durations)
    return total_cycles, wait_cycles, dropped


def _tile_weights(tiles: Sequence[CoreConfig]) -> List[float]:
    """Relative expected throughput of each tile: peak uop bandwidth
    (``frequency * issue_width``) — the capability proxy the weighted
    work split keys on."""
    return [tile.frequency * tile.issue_width for tile in tiles]


def _work_shares(
    total_uops: int,
    tiles: Sequence[CoreConfig],
) -> List[int]:
    """Per-tile measured-uop shares summing to ``total_uops``.

    Tiles of equal weight get an even split: the base share, with the
    remainder spread over the first tiles.  Otherwise shares are
    proportional to :func:`_tile_weights` via largest-remainder
    apportionment (ties broken by tile index).  Every tile runs at
    least one uop, so requests smaller than the tile count round up.
    """
    if not tiles:
        raise ValueError("need at least one tile")
    weights = _tile_weights(tiles)
    cores = len(tiles)
    if len(set(weights)) == 1:
        base_share, remainder = divmod(total_uops, cores)
        return [
            max(1, base_share + (1 if core_id < remainder else 0))
            for core_id in range(cores)
        ]
    scale = sum(weights)
    quotas = [total_uops * weight / scale for weight in weights]
    shares = [int(quota) for quota in quotas]
    leftover = total_uops - sum(shares)
    order = sorted(
        range(cores),
        key=lambda i: (-(quotas[i] - shares[i]), i),
    )
    for i in order[:leftover]:
        shares[i] += 1
    return [max(1, share) for share in shares]


def _plan_tiles(
    tiles: Sequence[CoreConfig],
    profile: AppProfile,
    total_uops: int,
    noc: Optional[Noc],
) -> Tuple[List[CoreConfig], int, List[int]]:
    """What both tile-list paths start from: ``(tiles, noc_penalty,
    shares)``.

    Rejects sequential profiles and empty tile lists.  ``noc=None`` is
    the paper's ring, with shared stops when every tile folds its L2
    pair (Figure 4).  The shares conserve total work: they sum to
    exactly ``total_uops`` unless the request is smaller than the tile
    count (``requested_uops`` vs ``total_uops`` records it).
    """
    if not profile.is_parallel:
        raise ValueError(f"{profile.name} is not a parallel profile")
    tiles = list(tiles)
    shares = _work_shares(total_uops, tiles)
    if noc is None:
        noc = RingNoc(len(tiles),
                      shared_stops=all(tile.shared_l2 for tile in tiles))
    return tiles, noc.average_latency, shares


def _tiles_name(tiles: Sequence[CoreConfig]) -> str:
    names = {tile.name for tile in tiles}
    if len(names) == 1:
        return tiles[0].name
    return f"{len(tiles)}-tile-mix"


def _tile_result(
    tiles: Sequence[CoreConfig],
    profile: AppProfile,
    total_uops: int,
    per_core: List[SimResult],
    transfers: int,
    penalty: int,
    name: Optional[str],
) -> MulticoreResult:
    """Barrier-align per-tile runs and assemble the result record."""
    frequencies = [tile.frequency for tile in tiles]
    total_cycles, wait_cycles, dropped = _align_barriers(per_core, frequencies)
    if dropped:
        from repro.obs import warn_model_disagreement

        warn_model_disagreement(
            f"barrier alignment on {profile.name} dropped {dropped} tail "
            f"phase(s): tiles disagree on barrier count"
        )
    return MulticoreResult(
        config_name=name if name is not None else _tiles_name(tiles),
        trace_name=profile.name,
        cycles=total_cycles,
        frequency=max(frequencies),
        per_core=per_core,
        barrier_wait_cycles=wait_cycles,
        coherence_transfers=transfers,
        noc_latency=penalty,
        requested_uops=total_uops,
        dropped_phases=dropped,
    )


def run_parallel_tiles(
    tiles: Sequence[CoreConfig],
    profile: AppProfile,
    total_uops: int,
    seed: int = 1234,
    noc: Optional[Noc] = None,
    name: Optional[str] = None,
) -> MulticoreResult:
    """Run one parallel application across a heterogeneous tile list.

    Each tile is one core with its own :class:`CoreConfig`;
    ``total_uops`` is the application's total (measured) work, split
    across tiles by :func:`_work_shares`.  A multicore config runs as
    ``[config] * config.num_cores``.  This is the oracle path (the full
    out-of-order model per tile); :func:`evaluate_tiles` is the
    cycle-exact batched-kernel equivalent.
    """
    # Imported here to keep repro.uarch importable without repro.workloads
    # (the two packages reference each other at the edges).
    from repro.workloads.generator import generate_trace

    tiles, penalty, shares = _plan_tiles(tiles, profile, total_uops, noc)
    coherence = CoherenceDirectory()
    results: List[SimResult] = []
    for core_id, (tile, share) in enumerate(zip(tiles, shares)):
        trace = generate_trace(profile, share, seed=seed, thread=core_id)
        core = OutOfOrderCore(
            tile,
            core_id=core_id,
            coherence=coherence,
            noc_penalty=penalty,
        )
        results.append(core.run(trace))

    return _tile_result(
        tiles, profile, total_uops, results, coherence.transfers, penalty,
        name,
    )


# -- batched evaluation through the SoA kernel --------------------------------

#: Per-process multicore trace memo: every tile list with the same work
#: split shares one trace set per (profile, share, seed, thread) —
#: regenerating them per config is the single biggest cost of a cold
#: multicore sweep.  Each trace carries its own kernel decode/replay memos.
_MC_TRACE_MEMO = LruMemo(cap=64)

#: The longest trace generated so far per (profile, seed, thread).  The
#: generator's draws do not depend on the requested length, so a shorter
#: share is a prefix of it (:meth:`Trace.prefix`): an 8-core split's
#: threads 0-3 come from the 4-core split's traces.  Entries are never
#: handed to the kernel, so they hold columns only.
_MC_STREAM_MEMO = LruMemo(cap=32)

#: Per-process memo of coherence-sequenced memory images, keyed by the
#: (profile, work split, per-tile geometry) that determines them.
#: Values are ``(images, coherence_transfers)``.
_MC_IMAGE_MEMO = LruMemo(cap=32)


def _mc_trace(profile: AppProfile, share: int, seed: int, thread: int):
    """Thread ``thread``'s ``share``-uop trace, generated only when no
    longer trace of the same stream is memoized."""
    from repro.engine.cache import make_key
    from repro.workloads.generator import generate_trace

    def build():
        stream_key = make_key("mc-stream", profile=profile, seed=seed,
                              thread=thread)
        stream = _MC_STREAM_MEMO.peek(stream_key)
        if stream is None or len(stream) - stream.warmup_ops < share:
            stream = generate_trace(profile, share, seed=seed, thread=thread)
            _MC_STREAM_MEMO.put(stream_key, stream)
        return stream.prefix(share)

    key = make_key("mc-trace", profile=profile, uops=share, seed=seed,
                   thread=thread)
    return _MC_TRACE_MEMO.get(key, build)


def _prepare_tile_replay(
    profile: AppProfile,
    seed: int,
    traces: List,
    shares: Sequence[int],
    tiles: Sequence[CoreConfig],
) -> tuple:
    """Memoized coherence-sequenced replay for one tile list:
    ``(images, coherence_transfers)``.

    The per-tile ``shared_l2`` tuple is the only :class:`CoreConfig`
    input the cache hierarchy's shape depends on, so every tile list
    with the same geometry and work split shares one replay regardless
    of timing parameters and NoC.
    """
    from repro.engine.cache import make_key
    from repro.uarch import kernel

    def build_images():
        # Replay cores sequentially through one shared directory
        # — the same access interleaving as run_parallel_tiles'
        # core-by-core loop, so ownership transitions (and the
        # transfer count) are identical.
        directory = kernel.OwnerTable(traces)
        images = [
            kernel.replay_memory(trace, tile, core_id=core_id,
                                 coherence=directory)
            for core_id, (trace, tile) in enumerate(zip(traces, tiles))
        ]
        return images, directory.transfers

    image_key = make_key(
        "mc-images", profile=profile, seed=seed, shares=tuple(shares),
        shared_l2=tuple(tile.shared_l2 for tile in tiles),
    )
    return _MC_IMAGE_MEMO.get(image_key, build_images)


def evaluate_tiles(
    tiles: Sequence[CoreConfig],
    profile: AppProfile,
    total_uops: int,
    seed: int = 1234,
    noc: Optional[Noc] = None,
    name: Optional[str] = None,
) -> MulticoreResult:
    """Kernel-path equivalent of :func:`run_parallel_tiles`.

    Traces are memoized per (profile, share, seed, thread) and the
    coherence replay per per-tile geometry, so repeated tile lists over
    the same workload amortise everything but the per-tile timing
    recurrences (:func:`repro.uarch.kernel.simulate_core`).  Cycle-exact
    against the oracle path.
    """
    from repro.uarch import kernel

    tiles, penalty, shares = _plan_tiles(tiles, profile, total_uops, noc)
    traces = [
        _mc_trace(profile, share, seed, core_id)
        for core_id, share in enumerate(shares)
    ]
    images, transfers = _prepare_tile_replay(
        profile, seed, traces, shares, tiles,
    )
    per_core = [
        kernel.simulate_core(trace, tile, image, noc_penalty=penalty)
        for tile, trace, image in zip(tiles, traces, images)
    ]
    return _tile_result(
        tiles, profile, total_uops, per_core, transfers, penalty, name,
    )


def run_parallel_batch(
    configs: List[CoreConfig],
    profile: AppProfile,
    total_uops: int,
    seed: int = 1234,
) -> List[MulticoreResult]:
    """Run one parallel application under many multicore configs.

    Each config runs as ``config.num_cores`` identical tiles through
    :func:`evaluate_tiles`, whose memos make configs with the same core
    count share one trace set, and configs with the same (core count,
    L2 geometry) share one coherence-sequenced cache replay.  Results
    come back in ``configs`` order.
    """
    results: List[Optional[MulticoreResult]] = [None] * len(configs)
    # Fewest cores first: their per-core shares are the longest, so the
    # larger core counts' shares are prefixes of already-generated traces.
    for index in sorted(range(len(configs)),
                        key=lambda i: configs[i].num_cores):
        config = configs[index]
        results[index] = evaluate_tiles(
            [config] * config.num_cores, profile, total_uops, seed=seed,
        )
    return results
