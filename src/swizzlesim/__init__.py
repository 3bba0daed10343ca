"""swizzlesim: a desk-scale lab for chiplet-GPU L2 locality.

Models a disaggregated GPU with per-XCD L2 caches, remaps workgroup PIDs
through validated swizzle patterns, measures the locality effect with a
trace-driven cache simulator, and drives a bottleneck-guided optimization
loop with pluggable proposers.
"""

from .arch import (
    ArchSpec,
    MI300X_LIKE,
    PRESETS,
    concurrent_slots_per_xcd,
    load_arch_spec,
    resolve_arch,
)
from .cachesim import (
    BottleneckReport,
    ExecParams,
    compare_reports,
    hit_rate_delta,
    report_from_dict,
    report_to_dict,
    report_to_json,
    simulate,
    simulate_pair,
)
from .dsl import EvalEnv, SwizzleExpr, eval_expr, format_expr, parse_expr
from .kernels import (
    DEFAULT_SPECS,
    KERNEL_KINDS,
    KernelSpec,
    default_spec,
    generate_trace,
    launch_grid,
    spec_with_size,
)
from .loop import (
    HistoryEntry,
    JsonlHistorySink,
    LlmProposer,
    OptimizationResult,
    SearchProposer,
    optimize,
    rank_history,
    write_progression_csv,
)
from .patterns import (
    BUILTIN_PATTERN_NAMES,
    GridSpec,
    SwizzlePattern,
    ValidationResult,
    builtin_pattern,
    check_bijectivity,
    pattern_from_expr,
    remap,
)
from .promptio import (
    PromptContext,
    ProposalRecord,
    build_prompt,
    parse_profiler_log,
    parse_proposal,
)
from .traces import AccessTrace, LocalitySummary, locality_summary

__version__ = "0.1.0"
