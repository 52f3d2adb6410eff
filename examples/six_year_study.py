"""The six-year monitoring study: Figs 2-9 end to end.

Builds the canonical six-year dataset (the substitution for Mira's
proprietary environmental database), prints the paper report's
sections for the paper's temporal, spatial, and ambient analyses —
each row with the paper's value, the measurement and its accepted
band — and draws the traces and the floor map behind them.

Run with::

    python examples/six_year_study.py

The first run simulates six years of telemetry (~1 minute); the
dataset is cached on disk for later runs.
"""

from repro.core.environment import ambient_trends
from repro.core.experiments import SECTION_BUILDERS, full_report
from repro.core.floormap import render_floor
from repro.core.report import format_table, sparkline
from repro.core.spatial import rack_power_profile
from repro.core.trends import coolant_trends, yearly_trends
from repro.simulation.datasets import canonical_dataset


def main() -> None:
    print("Building the canonical six-year dataset (2014-2019)...")
    result = canonical_dataset()
    db = result.database
    sections = full_report(result)

    trends = yearly_trends(db)
    coolant = coolant_trends(db)
    # What each figure's table is followed by, keyed by its section builder.
    pictures = {
        "fig2_rows": [
            "power   " + sparkline(trends.power_mw.values),
            "util    " + sparkline(trends.utilization.values),
        ],
        "fig3_rows": [
            "flow    " + sparkline(coolant.total_flow.values),
            "inlet   " + sparkline(coolant.inlet.values),
        ],
        "fig6_rows": [
            "",
            render_floor(
                rack_power_profile(db).power_kw,
                title="Mean rack power (the Fig 6a floor map):",
            ),
        ],
        "fig8_rows": [
            "humidity trace  " + sparkline(ambient_trends(db).humidity.values)
        ],
    }
    for title, builder in SECTION_BUILDERS[:8]:  # Figs 2-9
        print("\n" + format_table(sections[title], title))
        for line in pictures.get(builder.__name__, ()):
            print(line)


if __name__ == "__main__":
    main()
