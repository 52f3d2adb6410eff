"""The paper's analyses: every figure of the evaluation, as code.

Each module maps to a slice of the paper:

* :mod:`repro.core.correlation` — Pearson/Spearman coefficients,
* :mod:`repro.core.trends` — Figs 2-5 (yearly, monthly, daily),
* :mod:`repro.core.spatial` — Figs 6-7 (rack-level power/utilization
  and coolant telemetry),
* :mod:`repro.core.environment` — Figs 8-9 (ambient temperature and
  humidity, temporal and spatial),
* :mod:`repro.core.failure_analysis` — Figs 10-11 (CMF dedup
  methodology, counts, per-rack distribution, correlations),
* :mod:`repro.core.leadup` — Fig 12 (pre-CMF telemetry signatures),
* :mod:`repro.core.prediction` — Fig 13 (the NN CMF predictor),
* :mod:`repro.core.aftermath` — Figs 14-15 (post-CMF failure rates,
  types, and spatial spread),
* :mod:`repro.core.report` — printable paper-vs-measured tables.
"""

from repro.core.correlation import pearson, spearman
from repro.core.trends import (
    CoolantTrends,
    MonthlyProfile,
    WeekdayProfile,
    YearlyTrends,
    coolant_trends,
    monthly_profile,
    weekday_profile,
    yearly_trends,
)
from repro.core.spatial import RackCoolantProfile, RackPowerProfile, rack_coolant_profile, rack_power_profile
from repro.core.environment import AmbientSpatial, AmbientTrends, ambient_spatial, ambient_trends
from repro.core.failure_analysis import (
    CmfAnalysis,
    DeduplicatedFailures,
    analyze_cmfs,
    deduplicate_cmf_events,
    deduplicate_noncmf_events,
)
from repro.core.leadup import LeadupAggregate, aggregate_leadup
from repro.core.prediction import (
    PredictorDataset,
    PredictorEvaluation,
    batch_change_features,
    batch_level_features,
    build_dataset,
    build_datasets,
    sweep_leads,
    tune_architecture,
)
from repro.core.aftermath import AftermathAnalysis, StormSpreadExample, analyze_aftermath
from repro.core.drops import DropAnalysis, UtilizationDrop, analyze_drops, detect_drops
from repro.core.floormap import render_counts, render_floor
from repro.core.hazard import BathtubVerdict, WeibullFit, bathtub_verdict, fit_weibull
from repro.core.validation import ValidationScorecard, validate_result

__all__ = [
    "pearson",
    "spearman",
    "CoolantTrends",
    "MonthlyProfile",
    "WeekdayProfile",
    "YearlyTrends",
    "coolant_trends",
    "monthly_profile",
    "weekday_profile",
    "yearly_trends",
    "RackCoolantProfile",
    "RackPowerProfile",
    "rack_coolant_profile",
    "rack_power_profile",
    "AmbientSpatial",
    "AmbientTrends",
    "ambient_spatial",
    "ambient_trends",
    "CmfAnalysis",
    "DeduplicatedFailures",
    "analyze_cmfs",
    "deduplicate_cmf_events",
    "deduplicate_noncmf_events",
    "LeadupAggregate",
    "aggregate_leadup",
    "PredictorDataset",
    "batch_change_features",
    "batch_level_features",
    "build_datasets",
    "sweep_leads",
    "PredictorEvaluation",
    "build_dataset",
    "tune_architecture",
    "AftermathAnalysis",
    "StormSpreadExample",
    "analyze_aftermath",
    "DropAnalysis",
    "UtilizationDrop",
    "analyze_drops",
    "detect_drops",
    "render_counts",
    "render_floor",
    "BathtubVerdict",
    "WeibullFit",
    "bathtub_verdict",
    "fit_weibull",
    "ValidationScorecard",
    "validate_result",
]
