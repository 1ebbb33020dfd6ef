"""Application profiles for synthetic trace generation.

The paper evaluates 21 SPEC2006 applications (single core) and 15
SPLASH2/PARSEC applications (multicore).  We cannot execute those binaries,
so each application is described by a :class:`AppProfile` — the statistical
fingerprint that drives performance on an out-of-order core:

* instruction mix (loads, stores, branches, FP, multiplies, complex ops),
* instruction-level parallelism (dependence-distance distribution),
* memory behaviour (working-set size, streaming vs pointer-chasing mix,
  hot-set fraction) — fed through the *real* cache hierarchy,
* branch behaviour (static branch count, bias distribution) — fed through
  the *real* tournament predictor,
* code footprint (instruction-cache behaviour),
* for parallel apps: barrier frequency, sharing intensity and imbalance.

Profiles deliberately encode only coarse per-application knowledge (mcf
chases pointers through a huge working set; povray is compute-bound and
predictable); the microarchitectural consequences — MPKI, IPC, memory
stalls — *emerge* from simulation rather than being dialled in.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class AppProfile:
    """Statistical fingerprint of one application."""

    name: str
    suite: str  # "spec2006int", "spec2006fp", "splash2", "parsec"

    # Instruction mix (fractions of all micro-ops; the remainder is ALU).
    load_frac: float = 0.25
    store_frac: float = 0.10
    branch_frac: float = 0.12
    fp_frac: float = 0.0
    mul_frac: float = 0.02
    div_frac: float = 0.005
    complex_frac: float = 0.01

    # ILP: probability that an operand depends on a *recent* producer, and
    # the geometric decay of producer distances.  serial_frac ~ 1 means
    # pointer-chasing chains; ~0 means wide independent dataflow.
    serial_frac: float = 0.35
    dep_distance_mean: float = 8.0

    # Memory behaviour.
    working_set_bytes: int = 1 << 20
    hot_set_bytes: int = 16 << 10
    hot_frac: float = 0.6  # accesses hitting the hot set
    stream_frac: float = 0.2  # accesses that walk sequentially
    stride_bytes: int = 8

    # Branch behaviour.
    static_branches: int = 256
    easy_branch_frac: float = 0.8  # branches with ~0.97 bias
    hard_branch_bias: float = 0.65  # bias of the remaining hard branches

    # Code footprint (instruction side).
    code_bytes: int = 32 << 10

    # Parallel-application knobs (ignored for single-threaded traces).
    barrier_period: int = 0  # uops between barriers; 0 = none
    sharing_frac: float = 0.0  # accesses into the shared region
    imbalance: float = 0.0  # fractional work variance across threads

    def __post_init__(self) -> None:
        mix = (
            self.load_frac
            + self.store_frac
            + self.branch_frac
            + self.fp_frac
            + self.mul_frac
            + self.div_frac
            + self.complex_frac
        )
        if mix >= 1.0:
            raise ValueError(f"{self.name}: instruction mix exceeds 1 ({mix:.2f})")
        for field in ("serial_frac", "hot_frac", "stream_frac",
                      "easy_branch_frac", "sharing_frac"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{self.name}: {field}={value} out of [0,1]")

    @property
    def is_parallel(self) -> bool:
        return self.barrier_period > 0

    @property
    def alu_frac(self) -> float:
        """Remainder of the mix: plain integer ALU operations."""
        return 1.0 - (
            self.load_frac
            + self.store_frac
            + self.branch_frac
            + self.fp_frac
            + self.mul_frac
            + self.div_frac
            + self.complex_frac
        )
