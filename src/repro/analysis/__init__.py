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
    has_calls,
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
from .interproc import (
    ActivationAnalysis,
    ActivationTree,
    CallEffects,
    activation_effects,
    analyze_activation,
)
from .parallel import analyze_tasks_parallel
from .interproc_paths import (
    InterproceduralEngine,
    InterproceduralResult,
    interprocedural_query,
)
from .redundancy import (
    RedundancyReport,
    find_load,
    load_redundancy,
    redundancy_by_block,
)
from .slicing import DynamicSlicer, SliceResult
from .slicing_interproc import InterSliceResult, InterproceduralSlicer

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
    "InterSliceResult",
    "InterproceduralEngine",
    "InterproceduralResult",
    "InterproceduralSlicer",
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
    "activation_effects",
    "acyclic_paths",
    "analyze_activation",
    "analyze_tasks_parallel",
    "classify_statements",
    "coverage_report",
    "determine_currency",
    "fact_frequencies",
    "fact_frequencies_many",
    "find_load",
    "flowgraph_stats",
    "has_calls",
    "interprocedural_query",
    "last_definition_before",
    "load_redundancy",
    "parse_fact",
    "path_profile",
    "path_profile_compacted",
    "placements_from_motion",
    "redundancy_by_block",
    "uniform_effects",
]
