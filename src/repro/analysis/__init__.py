"""Profile-limited data-flow analysis over timestamped WPPs (Section 4).

The analyses here consume the TWPP representation: a timestamp-annotated
dynamic CFG per path trace, queried demand-driven.  Applications:

* :mod:`~repro.analysis.redundancy` -- dynamic load-redundancy degree
  for profile-guided optimizers (Figure 9);
* :mod:`~repro.analysis.slicing` -- the three Agrawal-Horgan dynamic
  slicing algorithms on one representation (Figures 10-11);
* :mod:`~repro.analysis.currency` -- dynamic currency determination
  when debugging optimized code (Figure 12).
"""

from ..compact.series import TimestampSet
from .coverage import CoverageReport, FunctionCoverage, coverage_report
from .currency import (
    CodeMotion,
    CurrencyResult,
    DefPlacement,
    determine_currency,
    last_definition_before,
    placements_from_motion,
)
from .dyncfg import FlowGraphStats, TimestampedCfg, flowgraph_stats
from .engine import DemandDrivenEngine, QueryResult, uniform_effects
from .facts import (
    GEN,
    KILL,
    TRANSPARENT,
    ExpressionAvailable,
    Fact,
    LoadAvailable,
    VarHasDefinition,
    classify_statements,
    parse_fact,
)
from .frequency import (
    FactFrequency,
    FrequencyReport,
    fact_frequencies,
    fact_frequencies_many,
)
from .hotpaths import (
    HotPath,
    PathProfile,
    acyclic_paths,
    path_profile,
    path_profile_compacted,
)
from .interproc import ActivationAnalysis, ActivationTree, CallEffects
from .parallel import analyze_tasks_parallel
from .redundancy import (
    RedundancyReport,
    find_load,
    load_redundancy,
    redundancy_by_block,
)
from .slicing import DynamicSlicer, SliceResult

__all__ = [
    "ActivationAnalysis",
    "ActivationTree",
    "CallEffects",
    "CodeMotion",
    "CoverageReport",
    "CurrencyResult",
    "DefPlacement",
    "DemandDrivenEngine",
    "DynamicSlicer",
    "ExpressionAvailable",
    "Fact",
    "FactFrequency",
    "FrequencyReport",
    "FlowGraphStats",
    "FunctionCoverage",
    "GEN",
    "HotPath",
    "KILL",
    "LoadAvailable",
    "PathProfile",
    "QueryResult",
    "RedundancyReport",
    "SliceResult",
    "TRANSPARENT",
    "TimestampSet",
    "TimestampedCfg",
    "VarHasDefinition",
    "acyclic_paths",
    "analyze_tasks_parallel",
    "classify_statements",
    "coverage_report",
    "determine_currency",
    "fact_frequencies",
    "fact_frequencies_many",
    "find_load",
    "flowgraph_stats",
    "last_definition_before",
    "load_redundancy",
    "parse_fact",
    "path_profile",
    "path_profile_compacted",
    "placements_from_motion",
    "redundancy_by_block",
    "uniform_effects",
]
