"""Core assembly: structure inventory, whole-core partitioning, frequency
derivation and the named Table 11 configurations."""

from repro.core.configs import (
    CoreConfig,
    base_config,
    configs_by_name,
    m3d_het_2x_config,
    m3d_het_agg_config,
    m3d_het_config,
    m3d_het_naive_config,
    m3d_het_wide_config,
    m3d_iso_config,
    multicore_configs,
    single_core_configs,
    tsv3d_config,
)
from repro.core.frequency import (
    BASE_FREQUENCY,
    FrequencyDerivation,
    derive_from_plans,
    derive_m3d_het,
    derive_m3d_het_agg,
    derive_m3d_het_naive,
    derive_m3d_iso,
    derive_tsv3d,
    frequency_from_reduction,
)
from repro.core.partitioner import CorePartition, StageReport, partition_core
from repro.core.structures import core_structures, structures_by_name

__all__ = [
    "CoreConfig",
    "base_config",
    "configs_by_name",
    "m3d_het_2x_config",
    "m3d_het_agg_config",
    "m3d_het_config",
    "m3d_het_naive_config",
    "m3d_het_wide_config",
    "m3d_iso_config",
    "multicore_configs",
    "single_core_configs",
    "tsv3d_config",
    "BASE_FREQUENCY",
    "FrequencyDerivation",
    "derive_from_plans",
    "derive_m3d_het",
    "derive_m3d_het_agg",
    "derive_m3d_het_naive",
    "derive_m3d_iso",
    "derive_tsv3d",
    "frequency_from_reduction",
    "core_structures",
    "structures_by_name",
    "CorePartition",
    "StageReport",
    "partition_core",
]
