"""Content-addressed section memoization and append-only folds.

Two cooperating pieces:

* :mod:`~repro.analytics.incremental.memo` — the on-disk section memo
  store, keyed by ``(root_digest, section_id, config_digest,
  code_epoch)`` with atomic writes, verified loads, and
  quarantine-on-corruption;
* :mod:`~repro.analytics.incremental.sections` — the fold states
  Figs 2-9 are built from, advanced block by block over appended
  rows.

:func:`repro.core.experiments.full_report` wires both into its section
loop: finished rows are served from the memo, Figs 2-9 are built from
their fold state (advanced past its cached watermark, or folded over
the whole store in memory when the memo is off), and every other
section falls back to whole-section memoization.  Disable the memo
with ``REPRO_SECTION_CACHE=0`` or ``full_report(...,
section_cache=False)``; the rows are the same either way.
"""

from repro.analytics.incremental.memo import (
    CONFIG_ONLY_ROOT,
    SECTION_CACHE_ENV,
    SectionCacheCounters,
    SectionCacheEntry,
    SectionKey,
    SectionMemoStore,
    config_digest,
    default_store,
    reset_default_store,
)
from repro.analytics.incremental.sections import (
    RACK_PROFILE_STATE,
    SECTION_STATES,
    SERIES_COLUMNS,
    STATE_BUILDERS,
    SYSTEM_SERIES_STATE,
    TELEMETRY_INDEPENDENT_SECTIONS,
    SectionState,
    advance_state,
    fold_state,
)

__all__ = [
    "CONFIG_ONLY_ROOT",
    "SECTION_CACHE_ENV",
    "SectionCacheCounters",
    "SectionCacheEntry",
    "SectionKey",
    "SectionMemoStore",
    "config_digest",
    "default_store",
    "reset_default_store",
    "RACK_PROFILE_STATE",
    "SECTION_STATES",
    "SERIES_COLUMNS",
    "STATE_BUILDERS",
    "SYSTEM_SERIES_STATE",
    "TELEMETRY_INDEPENDENT_SECTIONS",
    "SectionState",
    "advance_state",
    "fold_state",
]
