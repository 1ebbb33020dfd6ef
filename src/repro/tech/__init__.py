"""Technology substrate: transistors, vias, wires and process stacks.

This package is the foundation everything else sits on.  It answers the
question "what does the silicon give us?" — device speed per layer, via
geometry and electrical cost, wire RC — using the numbers the paper takes
from ITRS, Intel platform papers and the CEA-LETI M3D programme.
"""

from repro.tech import constants
from repro.tech.process import (
    LayerSpec,
    StackSpec,
    stack_2d,
    stack_m3d_hetero,
    stack_m3d_iso,
    stack_m3d_lp_top,
    stack_tsv3d,
)
from repro.tech.transistor import (
    ProcessFlavor,
    Transistor,
    VtClass,
)
from repro.tech.via import (
    Via,
    figure2_relative_areas,
    make_miv,
    make_tsv_aggressive,
    make_tsv_research,
    table1_area_overheads,
)
from repro.tech.wire import (
    LOCAL_WIRE,
    SEMI_GLOBAL_WIRE,
    WireTechnology,
)

__all__ = [
    "constants",
    "LayerSpec",
    "StackSpec",
    "stack_2d",
    "stack_m3d_hetero",
    "stack_m3d_iso",
    "stack_m3d_lp_top",
    "stack_tsv3d",
    "ProcessFlavor",
    "Transistor",
    "VtClass",
    "Via",
    "figure2_relative_areas",
    "make_miv",
    "make_tsv_aggressive",
    "make_tsv_research",
    "table1_area_overheads",
    "LOCAL_WIRE",
    "SEMI_GLOBAL_WIRE",
    "WireTechnology",
]
