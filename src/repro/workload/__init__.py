"""Workload substrate: app profiles, series generators, dataset factories."""

from .apps import (
    AZURE_PROFILES,
    AppProfile,
    CpuLevelMixture,
    NEP_PROFILES,
    profiles_by_category,
    sample_profile,
)
from .azure import generate_azure_workload
from .bandwidth import (
    derive_private_series_batch,
    generate_bw_series_batch,
    peak_to_mean_ratio,
)
from .cpu import generate_cpu_series_batch
from .generator import GeneratedWorkload, generate_nep_workload
from .series import (
    AZURE_RECIPE,
    NEP_RECIPE,
    SERIES_CHUNK_VMS,
    SeasonCache,
    SeriesJob,
    SeriesRecipe,
    render_series_job,
)
from .patterns import (
    PATTERNS,
    ar1_noise_batch,
    pattern,
    regime_switching_levels,
    time_axis_minutes,
)
from .subscription import (
    AZURE_SIZE_OPTIONS,
    NEP_SIZE_OPTIONS,
    SizeOption,
    sample_azure_spec,
    sample_nep_spec,
)

__all__ = [
    "AZURE_PROFILES",
    "AZURE_RECIPE",
    "AZURE_SIZE_OPTIONS",
    "AppProfile",
    "CpuLevelMixture",
    "GeneratedWorkload",
    "NEP_PROFILES",
    "NEP_RECIPE",
    "NEP_SIZE_OPTIONS",
    "PATTERNS",
    "SERIES_CHUNK_VMS",
    "SizeOption",
    "SeasonCache",
    "SeriesJob",
    "SeriesRecipe",
    "render_series_job",
    "ar1_noise_batch",
    "derive_private_series_batch",
    "generate_azure_workload",
    "generate_bw_series_batch",
    "generate_cpu_series_batch",
    "generate_nep_workload",
    "pattern",
    "peak_to_mean_ratio",
    "profiles_by_category",
    "regime_switching_levels",
    "sample_azure_spec",
    "sample_nep_spec",
    "sample_profile",
    "time_axis_minutes",
]
