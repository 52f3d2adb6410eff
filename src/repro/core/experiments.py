"""The full experiment index: every figure's paper-vs-measured record.

:func:`full_report` runs every analysis in the package against a
simulation result and returns the complete list of
:class:`~repro.core.report.ReportRow` comparisons, grouped by figure.
Each row carries the band its measurement is accepted in, next to the
paper's value; the few rows without one are reported, not gated.
``EXPERIMENTS.md`` is generated from this module (see
:func:`render_markdown`), ``repro experiments`` fails on any row
outside its band, and tier-1 checks every band on the canonical study
(``tests/test_calibration.py``) — one table of what "reproduced" means.
"""

from __future__ import annotations

from math import inf
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import constants
from repro.analytics.incremental.memo import (
    CONFIG_ONLY_ROOT,
    config_digest,
    default_store,
)
from repro.analytics.incremental.sections import (
    SECTION_STATES,
    SERIES_COLUMNS,
    TELEMETRY_INDEPENDENT_SECTIONS,
    advance_state,
    fold_state,
    rack_means,
    system_series,
)
from repro.core.aftermath import NO_AFTERMATH, analyze_aftermath
from repro.core.environment import AmbientSpatial, ambient_trends_from_series
from repro.core.failure_analysis import analyze_cmfs
from repro.core.leadup import aggregate_leadup
from repro.core.prediction import sweep_leads
from repro.core.report import Band, ReportRow, format_band, format_value
from repro.core.spatial import RackCoolantProfile, RackPowerProfile
from repro.core.trends import (
    coolant_trends_from_series,
    monthly_profiles_from_matrix,
    weekday_profiles_from_matrix,
    yearly_trends_from_series,
)
from repro.parallel import resolve_workers
from repro.simulation.engine import SimulationResult
from repro.simulation.windows import LeadupWindow, WindowSynthesizer
from repro.telemetry.records import Channel

#: A fold-state payload (see :mod:`repro.analytics.incremental.sections`).
FoldState = Dict[str, np.ndarray]

#: The bands of the yes/no rows (1.0 = yes, 0.0 = no).
YES: Band = (1.0, 1.0)
NO: Band = (0.0, 0.0)


def _exactly(value: float) -> Band:
    return (float(value), float(value))


def fig2_rows(state: FoldState) -> List[ReportRow]:
    trends = yearly_trends_from_series(
        system_series(state, "system_power_mw"),
        system_series(state, "system_utilization"),
    )
    return [
        ReportRow("Fig 2a", "system power at start of 2014",
                  constants.POWER_2014_MW, trends.power_start_mw, "MW",
                  band=(2.35, 2.65)),
        ReportRow("Fig 2a", "system power at end of 2019",
                  constants.POWER_2019_MW, trends.power_end_mw, "MW",
                  band=(2.75, 3.05)),
        ReportRow("Fig 2b", "utilization at start of 2014",
                  constants.UTILIZATION_2014, trends.utilization_start,
                  band=(0.76, 0.84)),
        ReportRow("Fig 2b", "utilization at end of 2019",
                  constants.UTILIZATION_2019, trends.utilization_end,
                  band=(0.89, 0.97)),
    ]


def fig3_rows(state: FoldState) -> List[ReportRow]:
    trends = coolant_trends_from_series(
        system_series(state, "total_flow_gpm"),
        system_series(state, Channel.INLET_TEMPERATURE.column),
        system_series(state, Channel.OUTLET_TEMPERATURE.column),
    )
    return [
        ReportRow("Fig 3a", "total flow before Theta",
                  constants.FLOW_PRE_THETA_GPM, trends.flow_pre_theta_gpm, "GPM",
                  band=(1225.0, 1275.0)),
        ReportRow("Fig 3a", "total flow after Theta",
                  constants.FLOW_POST_THETA_GPM, trends.flow_post_theta_gpm, "GPM",
                  band=(1274.0, 1326.0)),
        ReportRow("Fig 3a", "flow overall std",
                  constants.FLOW_STD_GPM, trends.flow_std_gpm, "GPM",
                  band=(25.0, 60.0)),
        ReportRow("Fig 3b", "inlet coolant mean",
                  constants.INLET_TEMP_F, trends.inlet_mean_f, "F",
                  band=(62.5, 65.5)),
        ReportRow("Fig 3b", "inlet overall std",
                  constants.INLET_TEMP_STD_F, trends.inlet_std_f, "F",
                  band=(0.3, 1.3)),
        ReportRow("Fig 3c", "outlet coolant mean",
                  constants.OUTLET_TEMP_F, trends.outlet_mean_f, "F",
                  band=(77.0, 81.0)),
        ReportRow("Fig 3c", "outlet overall std",
                  constants.OUTLET_TEMP_STD_F, trends.outlet_std_f, "F",
                  band=(0.3, 2.2)),
    ]


def _calendar_columns(state: FoldState):
    """The five Fig 4/5 columns: system power, utilization, total flow,
    inlet and outlet (the first five :data:`SERIES_COLUMNS`)."""
    return state["epoch_s"], SERIES_COLUMNS[:5], state["series"][:, :5]


def fig4_rows(state: FoldState) -> List[ReportRow]:
    power, util, flow, inlet, outlet = monthly_profiles_from_matrix(
        *_calendar_columns(state)
    )
    return [
        ReportRow("Fig 4a", "power H2/H1 median ratio", 1.04,
                  power.second_half_ratio, band=(1.005, inf)),
        ReportRow("Fig 4b", "utilization H2/H1 median ratio", 1.02,
                  util.second_half_ratio, band=(1.002, inf)),
        ReportRow("Fig 4c", "flow max monthly change vs January",
                  constants.MONTHLY_COOLANT_MAX_CHANGE,
                  flow.max_change_from_january, band=(-inf, 0.04)),
        ReportRow("Fig 4d", "inlet max monthly change vs January",
                  constants.MONTHLY_COOLANT_MAX_CHANGE,
                  inlet.max_change_from_january, band=(-inf, 0.04)),
        ReportRow("Fig 4e", "outlet max monthly change vs January",
                  constants.MONTHLY_COOLANT_MAX_CHANGE,
                  outlet.max_change_from_january, band=(-inf, 0.04)),
    ]


def fig5_rows(state: FoldState) -> List[ReportRow]:
    power, util, flow, inlet, outlet = weekday_profiles_from_matrix(
        *_calendar_columns(state)
    )
    return [
        ReportRow("Fig 5a", "non-Monday power increase",
                  constants.NON_MONDAY_POWER_INCREASE,
                  power.non_monday_increase, band=(0.025, 0.095)),
        ReportRow("Fig 5b", "non-Monday utilization increase",
                  constants.NON_MONDAY_UTILIZATION_INCREASE,
                  util.non_monday_increase, band=(0.0, 0.035)),
        ReportRow("Fig 5c", "non-Monday flow change", 0.0,
                  flow.non_monday_increase, band=(-0.01, 0.01)),
        ReportRow("Fig 5d", "non-Monday inlet change", 0.0,
                  inlet.non_monday_increase, band=(-0.01, 0.01)),
        ReportRow("Fig 5e", "non-Monday outlet increase",
                  constants.NON_MONDAY_OUTLET_INCREASE,
                  outlet.non_monday_increase, band=(0.002, 0.05)),
    ]


def fig6_rows(state: FoldState) -> List[ReportRow]:
    profile = RackPowerProfile(
        power_kw=rack_means(state, Channel.POWER),
        utilization=rack_means(state, Channel.UTILIZATION),
    )
    return [
        ReportRow("Fig 6a", "rack power spread",
                  constants.RACK_POWER_SPREAD, profile.power_spread,
                  band=(0.08, 0.27)),
        ReportRow("Fig 6a", "highest-power rack is (0, D)", 1.0,
                  float(profile.highest_power_rack
                        == _rack(constants.HIGHEST_POWER_RACK)), band=YES),
        ReportRow("Fig 6b", "highest-utilization rack is (0, A)", 1.0,
                  float(profile.highest_utilization_rack
                        == _rack(constants.HIGHEST_UTILIZATION_RACK)), band=YES),
        ReportRow("Fig 6b", "lowest-utilization rack is (2, D)", 1.0,
                  float(profile.lowest_utilization_rack == _rack((2, 0xD))),
                  band=YES),
        ReportRow("Fig 6", "corr(rack power, rack utilization)",
                  constants.POWER_UTILIZATION_CORRELATION,
                  profile.power_utilization_correlation, band=(0.2, 0.7)),
    ]


def fig7_rows(state: FoldState) -> List[ReportRow]:
    profile = RackCoolantProfile(
        flow_gpm=rack_means(state, Channel.FLOW),
        inlet_f=rack_means(state, Channel.INLET_TEMPERATURE),
        outlet_f=rack_means(state, Channel.OUTLET_TEMPERATURE),
    )
    return [
        ReportRow("Fig 7a", "rack flow spread",
                  constants.RACK_FLOW_SPREAD, profile.flow_spread,
                  band=(0.05, 0.17)),
        ReportRow("Fig 7b", "rack inlet spread",
                  constants.RACK_INLET_SPREAD, profile.inlet_spread,
                  band=(-inf, 0.02)),
        ReportRow("Fig 7c", "rack outlet spread",
                  constants.RACK_OUTLET_SPREAD, profile.outlet_spread,
                  band=(0.01, 0.06)),
        ReportRow("Fig 7a", "mean per-rack flow", 26.0,
                  profile.mean_flow_per_rack_gpm, "GPM", band=(24.0, 29.0)),
    ]


def fig8_rows(state: FoldState) -> List[ReportRow]:
    trends = ambient_trends_from_series(
        system_series(state, Channel.DC_TEMPERATURE.column),
        system_series(state, Channel.DC_HUMIDITY.column),
    )
    return [
        ReportRow("Fig 8a", "DC temperature min", constants.DC_TEMP_MIN_F,
                  trends.temperature_min_f, "F", band=(72.0, 80.0)),
        ReportRow("Fig 8a", "DC temperature max", constants.DC_TEMP_MAX_F,
                  trends.temperature_max_f, "F", band=(85.0, 95.0)),
        ReportRow("Fig 8a", "DC temperature std", constants.DC_TEMP_STD_F,
                  trends.temperature_std_f, "F", band=(1.2, 3.78)),
        ReportRow("Fig 8b", "DC humidity min", constants.DC_HUMIDITY_MIN_RH,
                  trends.humidity_min_rh, "%RH", band=(22.0, 30.0)),
        ReportRow("Fig 8b", "DC humidity max", constants.DC_HUMIDITY_MAX_RH,
                  trends.humidity_max_rh, "%RH", band=(33.0, 42.0)),
        ReportRow("Fig 8b", "DC humidity std", constants.DC_HUMIDITY_STD_RH,
                  trends.humidity_std_rh, "%RH", band=(2.16, 5.16)),
        ReportRow("Fig 8b", "summer humidity exceeds winter", 1.0,
                  float(trends.humidity_is_summer_seasonal), band=YES),
    ]


def fig9_rows(state: FoldState) -> List[ReportRow]:
    spatial = AmbientSpatial(
        temperature_f=rack_means(state, Channel.DC_TEMPERATURE),
        humidity_rh=rack_means(state, Channel.DC_HUMIDITY),
    )
    temp_delta, humidity_delta = spatial.row_end_effect()
    return [
        ReportRow("Fig 9a", "rack DC-temperature spread",
                  constants.RACK_DC_TEMP_SPREAD, spatial.temperature_spread,
                  band=(0.05, 0.17)),
        ReportRow("Fig 9b", "rack DC-humidity spread",
                  constants.RACK_DC_HUMIDITY_SPREAD, spatial.humidity_spread,
                  band=(0.24, 0.48)),
        ReportRow("Fig 9", "hotspot (1, 8) detected", 1.0,
                  float(_rack(constants.HUMIDITY_HOTSPOT_RACK) in spatial.hotspots()),
                  band=YES),
        ReportRow("Sec V", "row-end temperature excess", 2.0, temp_delta, "F",
                  band=(0.5, inf)),
        ReportRow("Sec V", "row-end humidity deficit", -3.0, humidity_delta, "%RH",
                  band=(-inf, -0.5)),
    ]


def fig10_11_rows(result: SimulationResult) -> List[ReportRow]:
    analysis = analyze_cmfs(result.ras_log, result.database)
    return [
        ReportRow("Fig 10", "total CMFs", constants.TOTAL_CMFS, analysis.total,
                  band=_exactly(constants.TOTAL_CMFS)),
        ReportRow("Fig 10", "fraction of CMFs in 2016",
                  constants.CMF_2016_FRACTION, analysis.fraction_2016,
                  band=(0.32, 0.48)),
        ReportRow("Fig 10", "longest quiet gap (paper: > 2 years)", 730.0,
                  analysis.longest_quiet_gap_days, "days", band=(365.0, inf)),
        ReportRow("Fig 10", "bathtub-shaped (paper: no)", 0.0,
                  float(analysis.is_bathtub()), band=NO),
        ReportRow("Fig 11", "max CMFs on one rack",
                  constants.MOST_CMF_COUNT, analysis.max_rack_count,
                  band=_exactly(constants.MOST_CMF_COUNT)),
        ReportRow("Fig 11", "min CMFs on one rack",
                  constants.FEWEST_CMF_COUNT, analysis.min_rack_count,
                  band=_exactly(constants.FEWEST_CMF_COUNT)),
        ReportRow("Fig 11", "most-failing rack is (1, 8)", 1.0,
                  float(analysis.most_failing_rack == _rack(constants.MOST_CMF_RACK)),
                  band=YES),
        ReportRow("Fig 11", "least-failing rack is (2, 7)", 1.0,
                  float(analysis.least_failing_rack == _rack(constants.FEWEST_CMF_RACK)),
                  band=YES),
        ReportRow("Sec VI-A", "corr(CMFs, utilization)",
                  constants.CMF_UTILIZATION_CORRELATION,
                  analysis.utilization_correlation, band=(-0.4, 0.4)),
        ReportRow("Sec VI-A", "corr(CMFs, outlet temperature)",
                  constants.CMF_OUTLET_TEMP_CORRELATION,
                  analysis.outlet_correlation, band=(-0.4, 0.4)),
        ReportRow("Sec VI-A", "corr(CMFs, humidity)",
                  constants.CMF_HUMIDITY_CORRELATION,
                  analysis.humidity_correlation, band=(-0.4, 0.4)),
    ]


def fig12_rows(positive_windows: Sequence[LeadupWindow]) -> List[ReportRow]:
    aggregate = aggregate_leadup(positive_windows)
    return [
        ReportRow("Fig 12b", "deepest inlet sag",
                  -constants.LEADUP_INLET_DROP, aggregate.inlet_min_change,
                  band=(-0.09, -0.02)),
        ReportRow("Fig 12b", "inlet change at the failure",
                  constants.LEADUP_INLET_RISE, aggregate.inlet_final_change,
                  band=(0.02, 0.12)),
        ReportRow("Fig 12c", "deepest outlet sag",
                  -constants.LEADUP_OUTLET_DROP, aggregate.outlet_min_change,
                  band=(-0.09, -0.02)),
        ReportRow("Fig 12a", "flow stable until (h before CMF)",
                  constants.LEADUP_FLOW_COLLAPSE_HOURS,
                  aggregate.flow_stable_until_h, "h", band=(-inf, 0.5)),
    ]


def fig13_rows(
    positive_windows: Sequence[LeadupWindow],
    negative_windows: Sequence[LeadupWindow],
    workers: Optional[int] = None,
) -> List[ReportRow]:
    evaluations = sweep_leads(
        positive_windows, negative_windows, leads_h=(6.0, 3.0, 0.5),
        workers=workers,
    )
    by_lead = {e.lead_h: e.report for e in evaluations}
    return [
        ReportRow("Fig 13", "accuracy at 6 h lead",
                  constants.PREDICTOR_ACCURACY_6H, by_lead[6.0].accuracy,
                  band=(0.78, 0.98)),
        ReportRow("Fig 13", "accuracy at 3 h lead", 0.93, by_lead[3.0].accuracy),
        ReportRow("Fig 13", "accuracy at 30 min lead",
                  constants.PREDICTOR_ACCURACY_30MIN, by_lead[0.5].accuracy,
                  band=(0.9, inf)),
        ReportRow("Sec VI-B", "FPR at 6 h lead",
                  constants.PREDICTOR_FPR_6H, by_lead[6.0].false_positive_rate),
        ReportRow("Sec VI-B", "FPR at 30 min lead",
                  constants.PREDICTOR_FPR_30MIN, by_lead[0.5].false_positive_rate,
                  band=(-inf, 0.08)),
    ]


def fig14_15_rows(result: SimulationResult) -> List[ReportRow]:
    log = result.ras_log
    # Lags run from a CMF; a log without one has nothing to measure.
    has_cmf = any(event.is_cmf and event.is_fatal for event in log)
    analysis = analyze_aftermath(log) if has_cmf else NO_AFTERMATH
    return [
        ReportRow("Fig 14a", "rate at 6 h / rate at 3 h (paper: < 0.75)",
                  constants.AFTERMATH_RATE_6H, analysis.rate_6h, band=(-inf, 0.9)),
        ReportRow("Fig 14a", "rate at 48 h / rate at 3 h",
                  constants.AFTERMATH_RATE_48H, analysis.rate_48h, band=(-inf, 0.3)),
        ReportRow("Fig 14b", "AC-to-DC power share",
                  constants.AFTERMATH_TYPE_DISTRIBUTION["ac_dc_power"],
                  analysis.category_mix.get("ac_dc_power", 0.0), band=(0.38, 0.62)),
        ReportRow("Fig 14b", "BQC share",
                  constants.AFTERMATH_TYPE_DISTRIBUTION["bqc"],
                  analysis.category_mix.get("bqc", 0.0)),
        ReportRow("Fig 14b", "BQL share",
                  constants.AFTERMATH_TYPE_DISTRIBUTION["bql"],
                  analysis.category_mix.get("bql", 0.0)),
        ReportRow("Fig 14b", "process share (paper: < 2 %)",
                  constants.AFTERMATH_TYPE_DISTRIBUTION["process"],
                  analysis.category_mix.get("process", 0.0), band=(-inf, 0.06)),
        ReportRow("Fig 15", "example storms extracted", 3.0,
                  float(len(analysis.examples)), band=_exactly(3.0)),
        ReportRow("Fig 15", "storms with non-local followers", 1.0,
                  analysis.nonlocal_fraction(), band=(0.5, inf)),
    ]


def _rack(pair: Tuple[int, int]):
    from repro.facility.topology import RackId

    return RackId(*pair)


# -- assembly ----------------------------------------------------------------

#: Canonical section order: (title, per-section builder).  The assembled
#: report always iterates in this order, with Figs 12/13 last when the
#: windows are synthesized.  Figs 2-9 build from their fold state (see
#: :data:`~repro.analytics.incremental.sections.SECTION_STATES`), the
#: others from the simulation result.
SECTION_BUILDERS: Tuple[Tuple[str, Callable[..., List[ReportRow]]], ...] = (
    ("Fig 2 — year-over-year power and utilization", fig2_rows),
    ("Fig 3 — coolant flow and temperatures", fig3_rows),
    ("Fig 4 — monthly medians (allocation years)", fig4_rows),
    ("Fig 5 — weekday profiles (Monday maintenance)", fig5_rows),
    ("Fig 6 — rack-level power and utilization", fig6_rows),
    ("Fig 7 — rack-level coolant telemetry", fig7_rows),
    ("Fig 8 — ambient trends", fig8_rows),
    ("Fig 9 — ambient spatial variation", fig9_rows),
    ("Figs 10-11 — CMF timeline and per-rack distribution", fig10_11_rows),
    ("Figs 14-15 — the aftermath of a CMF", fig14_15_rows),
)

FIG12_TITLE = "Fig 12 — the lead-up to a CMF"
FIG13_TITLE = "Fig 13 — the CMF predictor"

#: The builder :func:`full_report` calls for each section of
#: :data:`SECTION_BUILDERS`, by name.
_BUILDERS_BY_NAME = {fn.__name__: fn for _, fn in SECTION_BUILDERS}


def _resolve_section_store(section_cache):
    """Map the ``section_cache`` argument to an enabled store or None."""
    if section_cache is False:
        return None
    if section_cache is None:
        section_cache = default_store()
    return section_cache if section_cache.enabled else None


def _memo_state(
    result: SimulationResult, state_id: str, store, digest_info, cfg_digest: str
) -> FoldState:
    """Load, advance, re-publish and count one memoized fold state.

    The cached state is revalidated against the store's chunk prefix
    and advanced by folding only the rows appended since (or rebuilt
    when the prefix no longer holds).  The folds are vectorized slices
    over (possibly memory-mapped) columns.
    """
    prior = store.load_state(state_id, cfg_digest)
    state, outcome = advance_state(result.database, state_id, prior, digest_info)
    if outcome == "hit":
        store.counters.add(state_hits=1)
    elif outcome == "append":
        store.counters.add(state_appends=1)
    elif outcome == "invalidated":
        store.counters.add(invalidations=1)
    else:
        store.counters.add(state_misses=1)
    if outcome != "hit":
        store.store_state(state_id, cfg_digest, state)
    return state.payload


def full_report(
    result: SimulationResult,
    workers: Optional[int] = None,
    synthesize_windows: bool = False,
    section_cache: Union[None, bool, object] = None,
) -> Dict[str, List[ReportRow]]:
    """All figures' comparisons, keyed by a section title.

    Every section is built in this process, in the canonical order of
    :data:`SECTION_BUILDERS`.  The one process pool is Fig 13's: its
    folds train in lockstep groups, one pool task per group of folds
    that share a batch schedule (see
    :func:`repro.core.prediction.sweep_leads`), on ``workers``
    processes.  The report is bit-identical at any worker count.

    With ``synthesize_windows`` the report builds the 300 s lead-up
    windows once and adds the Fig 12/13 sections, provided some CMF
    lies far enough into the run to carry a full window.  Reports on
    windows built elsewhere call :func:`fig12_rows` and
    :func:`fig13_rows` directly.

    Figs 2-9 are built from their fold state and nothing else (see
    :mod:`repro.analytics.incremental.sections`), whether or not the
    section memo is on.  With the memo store enabled (the default),
    each section is looked up by the dataset's content address before
    it is built: memoized sections are served from disk, a fold state
    folds only rows appended since its cached watermark, and every
    section built is stored.  With the memo off, each state is folded
    over the whole store once, in memory.  Cached and fresh builds are
    pinned equal (exact discrete values, <= 1e-12 floats) by
    ``tests/test_incremental_report.py``, and the fold against the
    whole-store analyses by ``tests/test_fold_reference.py``.

    Args:
        result: The simulation to report on.
        workers: Fig 13's fold-pool size (see
            :func:`repro.parallel.resolve_workers`).
        synthesize_windows: Build the lead-up windows and report Figs
            12/13.
        section_cache: ``None`` (default) uses the process-wide memo
            store unless ``REPRO_SECTION_CACHE=0``; ``False`` disables
            memoization for this call; a
            :class:`~repro.analytics.incremental.SectionMemoStore`
            instance is used as-is.
    """
    titles = {fn.__name__: title for title, fn in SECTION_BUILDERS}
    synthesizer = WindowSynthesizer(result) if synthesize_windows else None
    if synthesizer is not None and synthesizer.eligible_events():
        titles.update(fig12_rows=FIG12_TITLE, fig13_rows=FIG13_TITLE)
    store = _resolve_section_store(section_cache)
    if store is not None:
        digest_info = result.database.digest_info()
        cfg_digest = config_digest(result.config)
    windows: List[List[LeadupWindow]] = []
    states: Dict[str, FoldState] = {}

    def state(state_id: str) -> FoldState:
        if state_id not in states:
            states[state_id] = (
                fold_state(result.database, state_id)
                if store is None
                else _memo_state(result, state_id, store, digest_info, cfg_digest)
            )
        return states[state_id]

    def build(name: str) -> List[ReportRow]:
        if name in ("fig12_rows", "fig13_rows"):
            if not windows:
                positives = synthesizer.positive_windows()
                windows.extend((positives, synthesizer.negative_windows(len(positives))))
            if name == "fig12_rows":
                return fig12_rows(windows[0])
            return fig13_rows(*windows, workers=resolve_workers(workers))
        if name in SECTION_STATES:
            return _BUILDERS_BY_NAME[name](state(SECTION_STATES[name]))
        return _BUILDERS_BY_NAME[name](result)

    sections: Dict[str, List[ReportRow]] = {}
    for name, title in titles.items():
        key = rows = None
        if store is not None:
            root = (
                CONFIG_ONLY_ROOT
                if name in TELEMETRY_INDEPENDENT_SECTIONS
                else digest_info.root
            )
            key = store.key(root, name, cfg_digest)
            rows = store.load_rows(key)
        if rows is None:
            rows = build(name)
            if key is not None:
                store.store_rows(key, rows)
        sections[title] = rows
    return sections


def render_markdown(sections: Dict[str, List[ReportRow]]) -> str:
    """Render a full-report dict as the EXPERIMENTS.md body."""
    lines: List[str] = []
    for title, rows in sections.items():
        lines.append(f"### {title}")
        lines.append("")
        lines.append("| source | metric | paper | measured | unit | band | ok |")
        lines.append("|---|---|---:|---:|---|---|---|")
        for row in rows:
            lines.append(
                f"| {row.figure} | {row.metric} | {format_value(row.paper_value)} "
                f"| {format_value(row.measured_value)} | {row.unit} "
                f"| {format_band(row.band)} | {row.ok_mark} |"
            )
        lines.append("")
    return "\n".join(lines)
