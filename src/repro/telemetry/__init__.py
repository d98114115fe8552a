"""Scheduler telemetry: schedstats, PSI pressure, metrics export,
profiles, and the ``repro top`` view (docs/telemetry.md).

Layered strictly *on top of* the kernel/obs stack: the kernel maintains
cheap always-on counters (``kernel/kernel.py``); this package
snapshots, derives, and exports them.  Nothing here draws RNG
values or schedules engine events, so results are identical with
telemetry collection on or off (``tests/test_determinism.py``).
"""

from .collect import (
    load_spec_summary,
    session_telemetry,
    summarize,
    write_spec_telemetry,
)
from .exporters import (
    to_openmetrics,
    validate_openmetrics,
    write_openmetrics,
    write_series_jsonl,
)
from .pressure import WINDOWS_NS, pressure_dict, series_rows, window_averages
from .profile import folded_stacks, render_folded, write_folded
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry_from_schedstats,
)
from .schedstats import snapshot
from .top import render_top

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "WINDOWS_NS",
    "folded_stacks",
    "load_spec_summary",
    "pressure_dict",
    "registry_from_schedstats",
    "render_folded",
    "render_top",
    "series_rows",
    "session_telemetry",
    "snapshot",
    "summarize",
    "to_openmetrics",
    "validate_openmetrics",
    "window_averages",
    "write_folded",
    "write_openmetrics",
    "write_series_jsonl",
    "write_spec_telemetry",
]
