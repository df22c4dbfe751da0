"""Continuous-time simulator and closed-form analytics for age-of-information
minimization at an energy-harvesting status-update source."""

__version__ = "0.1.0"

from .analytics import (
    AOI_LOWER_BOUND,
    adaptive_gap_bound,
    idle_interval_pmf,
    inter_update_moments,
    optimal_threshold,
    threshold_average_aoi,
)
from .aoi_metrics import UpdateLog, accumulate_reward
from .arrivals import derive_seed, sample_path
from .policies import (
    AdaptiveUnitBattery,
    BestEffortUniform,
    ConfigError,
    EnergyAwareAdaptive,
    ThresholdUnitBattery,
    adaptive_beta,
)
from .runner import (
    compare_unit_battery,
    optimize_scalar,
    run_ensemble,
    sweep_battery,
)
from .simkernel import SimConfig, run_path

__all__ = [
    "AOI_LOWER_BOUND",
    "AdaptiveUnitBattery",
    "BestEffortUniform",
    "ConfigError",
    "EnergyAwareAdaptive",
    "SimConfig",
    "ThresholdUnitBattery",
    "UpdateLog",
    "accumulate_reward",
    "adaptive_beta",
    "adaptive_gap_bound",
    "compare_unit_battery",
    "derive_seed",
    "idle_interval_pmf",
    "inter_update_moments",
    "optimal_threshold",
    "optimize_scalar",
    "run_ensemble",
    "run_path",
    "sample_path",
    "sweep_battery",
    "threshold_average_aoi",
]
