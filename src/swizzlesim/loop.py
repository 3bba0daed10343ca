"""Bottleneck-driven optimization loop: propose, validate, simulate, rank.

Iteration 0 always simulates the identity pattern so every run has the
unswizzled baseline on record. Each subsequent iteration asks the proposer
for a candidate, validates bijectivity/coverage by enumeration, simulates
only valid candidates, and appends everything (including failures and
duplicates) to a persistent history. Ranking considers validated entries
only, so a broken remapping can never be returned as best.

Proposers are pluggable: a deterministic parametric search, or a
completion-service call that reads the rendered hardware context and
returns a structured proposal (with replayable fixtures for offline runs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Protocol, Sequence

from . import dsl
from .arch import ArchSpec
from .cachesim import (
    BottleneckReport,
    ExecParams,
    compare_reports,
    report_from_dict,
    report_to_dict,
    simulate,
)
from .client import CompletionClient, ClientError, ReplayExhaustedError
from .kernels import KernelSpec, generate_trace
from .patterns import (
    GridSpec,
    NonBijectiveError,
    PatternError,
    SwizzlePattern,
    ValidationResult,
    builtin_pattern,
    pattern_from_expr,
    pattern_to_dict,
)
from .promptio import (
    DEFAULT_GOAL,
    ProposalParseError,
    build_prompt,
    parse_proposal,
)
from .traces import AccessTrace, LocalitySummary, locality_summary

DEFAULT_MAX_ITERS = 5


class LoopError(RuntimeError):
    pass


class ProposerError(LoopError):
    """The proposer failed to produce a candidate for this iteration."""


class NoMoreCandidates(LoopError):
    """The proposer has nothing left to suggest; the loop ends early."""


@dataclass(frozen=True)
class HistoryEntry:
    iteration: int
    pattern: dict | None  # serialized pattern; None when the proposer failed
    diff_summary: str
    validation: ValidationResult
    report: BottleneckReport | None
    critique: str | None = None

    @property
    def valid(self) -> bool:
        return self.report is not None


@dataclass(frozen=True)
class OptimizationResult:
    best: HistoryEntry
    progression: tuple[tuple[float | None, float], ...]
    iterations_run: int


@dataclass(frozen=True)
class Proposal:
    pattern: SwizzlePattern
    critique: str | None = None


@dataclass(frozen=True)
class ProposeContext:
    kernel_summary: str
    spec: KernelSpec
    grid: GridSpec
    arch: ArchSpec
    locality: LocalitySummary
    history: Sequence[HistoryEntry]
    goal: str


class Proposer(Protocol):
    def propose(self, ctx: ProposeContext) -> Proposal: ...


# ---------------------------------------------------------------------------
# History persistence
# ---------------------------------------------------------------------------


def validation_to_dict(result: ValidationResult) -> dict:
    return {
        "bijective": result.bijective,
        "out_of_range": list(result.out_of_range),
        "collisions": [list(c) for c in result.collisions],
        "coverage_ok": result.coverage_ok,
    }


def validation_from_dict(data: dict) -> ValidationResult:
    return ValidationResult(
        bijective=data["bijective"],
        out_of_range=tuple(data["out_of_range"]),
        collisions=tuple(tuple(c) for c in data["collisions"]),
        coverage_ok=data["coverage_ok"],
    )


def entry_to_dict(entry: HistoryEntry) -> dict:
    return {
        "iteration": entry.iteration,
        "pattern": entry.pattern,
        "diff_summary": entry.diff_summary,
        "validation": validation_to_dict(entry.validation),
        "report": report_to_dict(entry.report) if entry.report is not None else None,
        "critique": entry.critique,
    }


def entry_from_dict(data: dict) -> HistoryEntry:
    return HistoryEntry(
        iteration=data["iteration"],
        pattern=data["pattern"],
        diff_summary=data["diff_summary"],
        validation=validation_from_dict(data["validation"]),
        report=report_from_dict(data["report"]) if data["report"] is not None else None,
        critique=data["critique"],
    )


class JsonlHistorySink:
    """JSON Lines history of one run, flushed per iteration; refuses an existing file."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = open(self.path, "x", encoding="utf-8")

    def append(self, entry: HistoryEntry) -> None:
        self._fh.write(json.dumps(entry_to_dict(entry), sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "JsonlHistorySink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullHistorySink:
    def append(self, entry: HistoryEntry) -> None:
        pass

    def close(self) -> None:
        pass


def load_history(path: str | Path) -> list[HistoryEntry]:
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                entries.append(entry_from_dict(json.loads(line)))
    return entries


def write_progression_csv(result: OptimizationResult, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,current_hit_rate,best_so_far\n")
        for iteration, (current, best) in enumerate(result.progression):
            cur = "" if current is None else f"{current:.6f}"
            fh.write(f"{iteration},{cur},{best:.6f}\n")


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------


def rank_history(entries: Sequence[HistoryEntry]) -> HistoryEntry:
    """Best validated entry by hit rate; invalid entries never win."""
    validated = [e for e in entries if e.report is not None]
    if not validated:
        raise LoopError("no validated entries to rank")
    # compare_reports sorts stably, so ties resolve to the earliest entry
    best_report = compare_reports([e.report for e in validated])[0]
    for entry in validated:
        if entry.report is best_report:
            return entry
    raise AssertionError("ranked report missing from entries")


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------


def summarize_kernel(spec: KernelSpec, grid: GridSpec) -> str:
    dims = ", ".join(f"{k}={v}" for k, v in sorted(spec.problem_dims.items()))
    tiles = ", ".join(f"{k}={v}" for k, v in sorted(spec.block_dims.items()))
    return (
        f"{spec.kind} (problem {dims}; tile {tiles}; launch grid "
        f"{grid.num_blocks_m}x{grid.num_blocks_n} = {grid.total_blocks} workgroups)"
    )


def optimize(
    spec: KernelSpec,
    arch: ArchSpec,
    proposer: Proposer,
    max_iters: int = DEFAULT_MAX_ITERS,
    history_sink=None,
    exec_params: ExecParams = ExecParams(),
    goal: str = DEFAULT_GOAL,
) -> OptimizationResult:
    """Run the full loop; returns the best validated entry and progression."""
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    sink = history_sink if history_sink is not None else NullHistorySink()
    trace = generate_trace(spec)
    grid = trace.grid
    locality = locality_summary(trace)
    summary = summarize_kernel(spec, grid)

    entries: list[HistoryEntry] = []
    reports_by_expr: dict[str, tuple[ValidationResult, BottleneckReport | None]] = {}

    identity = builtin_pattern("identity", grid, arch)
    baseline_validation = ValidationResult.success()
    baseline_report = simulate(trace, identity, arch, exec_params)
    baseline = HistoryEntry(
        iteration=0,
        pattern=pattern_to_dict(identity),
        diff_summary="baseline round-robin dispatch (identity remap)",
        validation=baseline_validation,
        report=baseline_report,
    )
    entries.append(baseline)
    sink.append(baseline)
    reports_by_expr[identity.expr_text] = (baseline_validation, baseline_report)

    best = baseline
    progression: list[tuple[float | None, float]] = [
        (baseline_report.l2_hit_rate, baseline_report.l2_hit_rate)
    ]
    attempts = 0

    for iteration in range(1, max_iters + 1):
        ctx = ProposeContext(
            kernel_summary=summary,
            spec=spec,
            grid=grid,
            arch=arch,
            locality=locality,
            history=tuple(entries),
            goal=goal,
        )
        try:
            proposal = proposer.propose(ctx)
        except NoMoreCandidates:
            break
        except ProposerError as exc:
            attempts += 1
            entry = HistoryEntry(
                iteration=iteration,
                pattern=None,
                diff_summary="",
                validation=ValidationResult.failure(),
                report=None,
                critique=f"proposer failed: {exc}",
            )
            entries.append(entry)
            sink.append(entry)
            progression.append((None, best.report.l2_hit_rate))
            continue

        attempts += 1
        pattern = proposal.pattern
        expr_text = pattern.expr_text
        best_expr = best.pattern["expr"] if best.pattern else ""

        if expr_text in reports_by_expr:
            validation, report = reports_by_expr[expr_text]
            diff = f"duplicate of an earlier attempt; expression unchanged: {expr_text}"
        else:
            # simulate validates the pattern on the same table it runs
            try:
                report = simulate(trace, pattern, arch, exec_params)
                validation = ValidationResult.success()
            except NonBijectiveError as exc:
                report, validation = None, exc.result
            except (dsl.EvalError, PatternError):
                report, validation = None, ValidationResult.failure()
            reports_by_expr[expr_text] = (validation, report)
            diff = f"expression: {best_expr} -> {expr_text}"

        entry = HistoryEntry(
            iteration=iteration,
            pattern=pattern_to_dict(pattern),
            diff_summary=diff,
            validation=validation,
            report=report,
            critique=proposal.critique,
        )
        entries.append(entry)
        sink.append(entry)

        if report is not None:
            best = rank_history(entries)
        progression.append(
            (report.l2_hit_rate if report is not None else None, best.report.l2_hit_rate)
        )

    return OptimizationResult(
        best=best, progression=tuple(progression), iterations_run=attempts
    )


# ---------------------------------------------------------------------------
# Proposers
# ---------------------------------------------------------------------------


class SearchProposer:
    """Deterministic parametric family, enumerated in a fixed order.

    Members group tiles along an axis traversal (linear, row, or column)
    into chunks that are dealt to XCDs either round-robin (stride 1) or in
    runs of num_xcds chunks (stride X). Members that do not divide evenly
    on the current grid are proposed anyway and rejected by the loop's
    validation, mirroring how broken remappings show up in practice.
    """

    def propose(self, ctx: ProposeContext) -> Proposal:
        seen = {
            entry.pattern["expr"]
            for entry in ctx.history
            if entry.pattern is not None
        }
        for axis, chunk, stride in self._members(ctx.grid, ctx.arch):
            expr_text = self._member_expr(axis, chunk, stride, ctx.arch)
            pattern = pattern_from_expr(
                f"search_{axis}_c{chunk}_s{stride}",
                expr_text,
                params={"axis": axis, "chunk": chunk, "stride": stride},
            )
            if pattern.expr_text not in seen:
                return Proposal(
                    pattern=pattern,
                    critique=f"search family member: axis={axis} chunk={chunk} stride={stride}",
                )
        raise NoMoreCandidates("search family exhausted")

    @staticmethod
    def _members(grid: GridSpec, arch: ArchSpec) -> Iterable[tuple[str, int, int]]:
        total = grid.total_blocks
        top = max(total // arch.num_xcds, 1)
        chunks = [top]
        power = 1 << (top.bit_length() - 1)
        while power >= 1:
            if power != top:
                chunks.append(power)
            power //= 2
        for axis in ("linear", "row", "column"):
            for chunk in chunks:
                for stride in (1, arch.num_xcds):
                    yield axis, chunk, stride

    @staticmethod
    def _member_expr(axis: str, chunk: int, stride: int, arch: ArchSpec) -> str:
        x = arch.num_xcds
        k = "(pid // num_xcds)"
        j = f"({k} // {chunk})"
        w = f"({k} % {chunk})"
        if stride == 1:
            q = f"((pid % num_xcds) + {j} * num_xcds)"
        else:
            q = f"((pid % num_xcds) * {x} + ({j} % {x}) + ({j} // {x}) * {x * x})"
        p = f"({q} * {chunk} + {w})"
        if axis == "linear":
            return p
        if axis == "column":
            return f"(({p} % num_blocks_m) * num_blocks_n) + ({p} // num_blocks_m)"
        rows_per = "(num_blocks_m // num_xcds)"
        i = f"({p} // num_blocks_n)"
        row = f"((({i} % {rows_per}) * num_xcds) + ({i} // {rows_per}))"
        return f"({row} * num_blocks_n) + ({p} % num_blocks_n)"


class LlmProposer:
    """Prompt a completion service and parse the structured proposal.

    Parse failures are retried with the parser message appended to the
    prompt; fixture exhaustion in replay mode ends the loop cleanly.
    """

    def __init__(self, client: CompletionClient, max_parse_retries: int = 2):
        self.client = client
        self.max_parse_retries = max_parse_retries

    def propose(self, ctx: ProposeContext) -> Proposal:
        iteration = len(ctx.history)
        prompt = build_prompt(
            ctx.kernel_summary, ctx.locality, ctx.history, ctx.arch, goal=ctx.goal
        ).render()
        last_error: Exception | None = None
        for attempt in range(self.max_parse_retries + 1):
            try:
                response = self.client.complete(prompt)
            except ReplayExhaustedError as exc:
                raise NoMoreCandidates(str(exc)) from exc
            except ClientError as exc:
                raise ProposerError(f"completion client failed: {exc}") from exc
            try:
                record = parse_proposal(response)
            except ProposalParseError as exc:
                last_error = exc
                prompt = (
                    f"{prompt}\n"
                    f"The previous response could not be used: {exc}\n"
                    "Respond again, following the required output format exactly.\n"
                )
                continue
            try:
                pattern = pattern_from_expr(
                    f"proposal_{iteration:02d}", record.final_expression
                )
            except dsl.ExprError as exc:  # defensive; parse_proposal pre-checks
                last_error = exc
                continue
            critique = record.improvement_rationale or record.new_approach or None
            return Proposal(pattern=pattern, critique=critique)
        raise ProposerError(
            f"no parseable proposal after {self.max_parse_retries + 1} attempts: {last_error}"
        )
