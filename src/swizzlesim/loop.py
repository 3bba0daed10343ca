"""Bottleneck-driven optimization loop: propose, validate, simulate, rank.

Iteration 0 always simulates the identity pattern so every run has the
unswizzled baseline on record. Each subsequent iteration asks the proposer
for a candidate, validates bijectivity/coverage by enumeration, simulates
only valid candidates, and appends everything (including failures and
duplicates) to a persistent history. Ranking considers validated entries
only, so a broken remapping can never be returned as best.

The kernel's trace is generated once per run and each of its waves read
once and kept (``traces.materialize``, under its byte budget
``RECORD_TABLE_BYTES``): the locality summary and every candidate's
simulation read the kept batches instead of calling the kernel's batch
function again. A trace too large for the budget stays lazy, with identical
results. The locality summary is computed when a proposer first reads
``ProposeContext.locality`` and kept for the run; ``SearchProposer`` never does.

Each candidate is validated once, and each distinct remap table simulated
once: a new expression with an earlier table reuses that report under its
own pattern name, exactly the report a simulation would return.

Proposers are pluggable: a deterministic parametric search, or a
completion-service call that reads the rendered hardware context and
returns a structured proposal (with replayable fixtures for offline runs).
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Protocol, Sequence

from . import dsl
from .arch import ArchSpec
from .cachesim import BottleneckReport, compare_reports, simulate
from .client import CompletionClient, ClientError, ReplayExhaustedError
from .kernels import KernelSpec, generate_trace, launch_grid
from .patterns import (
    GridSpec,
    NonBijectiveError,
    PatternError,
    SwizzlePattern,
    ValidationResult,
    builtin_pattern,
    pattern_from_expr,
    pattern_to_dict,
    validated_remap_table,
)
from .promptio import ProposalParseError, build_prompt, parse_proposal
from .records import from_dict, to_dict
from .traces import LocalitySummary, locality_summary, materialize

DEFAULT_MAX_ITERS = 5
MAX_PARSE_RETRIES = 2  # LlmProposer's re-prompts after an unparseable response


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
    summarize: Callable[[], LocalitySummary]  # the run's summary, computed on its first call
    history: Sequence[HistoryEntry]

    @property
    def locality(self) -> LocalitySummary:
        return self.summarize()


class Proposer(Protocol):
    def propose(self, ctx: ProposeContext) -> Proposal: ...


# ---------------------------------------------------------------------------
# History persistence
# ---------------------------------------------------------------------------


def entry_to_dict(entry: HistoryEntry) -> dict:
    return to_dict(entry)


def entry_from_dict(data: dict) -> HistoryEntry:
    return from_dict(HistoryEntry, data)


class JsonlHistorySink:
    """JSON Lines history of one run, flushed per iteration; refuses an existing
    file, and leaves none if the run raises before its first entry."""

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

    def __exit__(self, exc_type, *exc) -> None:
        empty = self._fh.tell() == 0
        self.close()
        if exc_type is not None and empty:  # so that the same run can start again
            self.path.unlink()


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
) -> OptimizationResult:
    """Run the full loop; returns the best validated entry and progression."""
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    sink = history_sink if history_sink is not None else NullHistorySink()
    grid = launch_grid(spec)
    identity = builtin_pattern("identity", grid, arch)
    # on a grid past the enumeration cap this raises, before the trace is built
    identity_table = validated_remap_table(identity, grid, arch)
    trace = materialize(generate_trace(spec))
    summarize = functools.cache(lambda: locality_summary(trace))
    summary = summarize_kernel(spec, grid)

    entries: list[HistoryEntry] = []
    reports_by_expr: dict[str, tuple[ValidationResult, BottleneckReport | None]] = {}
    reports_by_table: dict[bytes, BottleneckReport] = {}  # by SHA-256 of the table

    def evaluate(
        pattern: SwizzlePattern, table=None
    ) -> tuple[ValidationResult, BottleneckReport | None]:
        try:
            table = validated_remap_table(pattern, grid, arch) if table is None else table
        except NonBijectiveError as exc:
            return exc.result, None
        except (dsl.EvalError, PatternError):
            return ValidationResult.failure(), None
        key = hashlib.sha256(table.tobytes()).digest()
        if key not in reports_by_table:
            reports_by_table[key] = simulate(trace, pattern, arch, table=table)
        return ValidationResult.success(), replace(reports_by_table[key], pattern=pattern.name)

    baseline_validation, baseline_report = evaluate(identity, identity_table)
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

    for iteration in range(1, max_iters + 1):
        ctx = ProposeContext(
            kernel_summary=summary,
            spec=spec,
            grid=grid,
            arch=arch,
            summarize=summarize,
            history=tuple(entries),
        )
        try:
            proposal = proposer.propose(ctx)
        except NoMoreCandidates:
            break
        except ProposerError as exc:
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

        pattern = proposal.pattern
        expr_text = pattern.expr_text
        best_expr = best.pattern["expr"] if best.pattern else ""

        if expr_text in reports_by_expr:
            validation, report = reports_by_expr[expr_text]
            diff = f"duplicate of an earlier attempt; expression unchanged: {expr_text}"
        else:
            validation, report = reports_by_expr[expr_text] = evaluate(pattern)
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
        best=best, progression=tuple(progression), iterations_run=len(entries) - 1
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

    def __init__(self) -> None:
        # each member's pattern and its formatted expression, built once
        self._built: dict[tuple[str, int, int, int], tuple[SwizzlePattern, str]] = {}

    def propose(self, ctx: ProposeContext) -> Proposal:
        seen = {
            entry.pattern["expr"]
            for entry in ctx.history
            if entry.pattern is not None
        }
        for axis, chunk, stride in self._members(ctx.grid, ctx.arch):
            key = (axis, chunk, stride, ctx.arch.num_xcds)
            if key not in self._built:
                pattern = pattern_from_expr(
                    f"search_{axis}_c{chunk}_s{stride}",
                    self._member_expr(axis, chunk, stride, ctx.arch),
                    params={"axis": axis, "chunk": chunk, "stride": stride},
                )
                self._built[key] = pattern, pattern.expr_text
            pattern, expr_text = self._built[key]
            if expr_text not in seen:
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

    def __init__(self, client: CompletionClient):
        self.client = client

    def propose(self, ctx: ProposeContext) -> Proposal:
        iteration = len(ctx.history)
        prompt = build_prompt(ctx.kernel_summary, ctx.locality, ctx.history, ctx.arch).render()
        last_error: Exception | None = None
        for attempt in range(MAX_PARSE_RETRIES + 1):
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
            f"no parseable proposal after {MAX_PARSE_RETRIES + 1} attempts: {last_error}"
        )
