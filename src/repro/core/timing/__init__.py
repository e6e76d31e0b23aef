"""Crystal-style static timing analysis over stage decompositions."""

from .paths import (
    PathElement,
    SensitizedPath,
    Trigger,
    build_request,
    build_tree,
    effective_node_cap,
    enumerate_paths,
)
from .stage_graph import StageGraph
from .analyzer import (
    Arrival,
    Event,
    InputSpec,
    TimingAnalyzer,
    TimingResult,
    analyze,
    normalize_inputs,
)
from .report import (
    arrival_table,
    format_critical_path,
    format_worst_paths,
    worst_events,
)
from .clocking import (
    ClockPhase,
    ClockSchedule,
    ClockedTimingResult,
    SetupCheck,
    analyze_clocked,
    format_setup_report,
    minimum_period,
    setup_checks,
)
from .hazards import (
    ChargeSharingHazard,
    find_charge_sharing_hazards,
    format_hazard_report,
)

__all__ = [
    "ClockPhase",
    "ClockSchedule",
    "ClockedTimingResult",
    "SetupCheck",
    "analyze_clocked",
    "format_setup_report",
    "minimum_period",
    "setup_checks",
    "ChargeSharingHazard",
    "find_charge_sharing_hazards",
    "format_hazard_report",
    "PathElement",
    "SensitizedPath",
    "Trigger",
    "build_request",
    "build_tree",
    "effective_node_cap",
    "enumerate_paths",
    "StageGraph",
    "Arrival",
    "Event",
    "InputSpec",
    "TimingAnalyzer",
    "TimingResult",
    "analyze",
    "normalize_inputs",
    "arrival_table",
    "format_critical_path",
    "format_worst_paths",
    "worst_events",
]
