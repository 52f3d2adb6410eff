"""Analytics infrastructure layered on top of the core analyses.

:mod:`repro.analytics.incremental` is the first member: a
content-addressed section memo store plus the fold states that
:func:`repro.core.experiments.full_report` builds Figs 2-9 from, so a
report skips or folds work when the underlying telemetry has not
changed (or has only grown).
"""
