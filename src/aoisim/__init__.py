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
from .aoi_metrics import AoiTally, UpdateLog, accumulate_reward
from .arrivals import derive_seed, sample_path
from .policies import (
    AdaptiveUnitBattery,
    BestEffortUniform,
    ConfigError,
    EnergyAwareAdaptive,
    Policy,
    ThresholdUnitBattery,
    adaptive_beta,
)
from .runner import (
    EnsembleResult,
    ScalarOptimum,
    compare_unit_battery,
    optimize_scalar,
    run_ensemble,
    sweep_battery,
    uniform_idle_runs,
)
from .simkernel import SimConfig, SimSummary, run_path, simulate_path

__all__ = [
    "AOI_LOWER_BOUND",
    "AoiTally",
    "AdaptiveUnitBattery",
    "BestEffortUniform",
    "ConfigError",
    "EnergyAwareAdaptive",
    "EnsembleResult",
    "Policy",
    "ScalarOptimum",
    "SimConfig",
    "SimSummary",
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
    "simulate_path",
    "sweep_battery",
    "threshold_average_aoi",
    "uniform_idle_runs",
]
