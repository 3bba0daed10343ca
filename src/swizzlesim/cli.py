"""Operator entry point.

Subcommands:

* ``simulate`` - baseline-vs-swizzled pair on one kernel, JSON reports plus
  a one-line delta summary.
* ``sweep`` - the same comparison across problem sizes, CSV output.
* ``optimize`` - run the full loop with a search / llm / replay proposer;
  writes history JSONL, progression CSV, and the best pattern.
* ``validate`` - bijectivity/coverage check for a pattern on a grid.

Exit codes: 0 success, 1 domain failure (validation or simulation), 2
usage error. All outputs are deterministic for identical arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dsl
from .arch import ArchSpec, resolve_arch
from .cachesim import ExecParams, hit_rate_delta, report_to_dict, simulate_pair
from .client import ClientConfig, CompletionClient
from .kernels import (
    KERNEL_KINDS,
    default_spec,
    generate_trace,
    launch_grid,
    spec_with_size,
)
from .loop import (
    DEFAULT_MAX_ITERS,
    JsonlHistorySink,
    LlmProposer,
    SearchProposer,
    optimize,
    write_progression_csv,
)
from .patterns import (
    BUILTIN_PATTERN_NAMES,
    GridSpec,
    PatternError,
    builtin_pattern,
    check_bijectivity,
    pattern_from_expr,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Domain failure: report and exit 1."""


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (PatternError, dsl.ExprError, dsl.EvalError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swizzlesim",
        description="Per-XCD L2 locality lab: swizzle patterns, cache simulation, "
        "and the bottleneck-driven optimization loop.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="baseline vs swizzled simulation")
    _add_kernel_args(sim)
    _add_pattern_args(sim)
    sim.add_argument("--out-dir", default=None, help="directory for the JSON reports")
    sim.set_defaults(func=cmd_simulate)

    swp = sub.add_parser("sweep", help="baseline vs swizzled across problem sizes")
    _add_kernel_args(swp, with_size=False)
    _add_pattern_args(swp)
    swp.add_argument("--sizes", required=True, help="comma-separated problem sizes")
    swp.add_argument("--out", default=None, help="CSV output path (default stdout)")
    swp.set_defaults(func=cmd_sweep)

    opt = sub.add_parser("optimize", help="run the optimization loop")
    _add_kernel_args(opt)
    opt.add_argument(
        "--proposer", choices=("search", "llm", "replay"), default="search"
    )
    opt.add_argument("--fixture", default=None, help="fixture path for replay proposer")
    opt.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)
    opt.add_argument("--out-dir", default=".", help="output directory")
    opt.add_argument(
        "--history", default=None, help="history JSONL path (default <out-dir>/history.jsonl)"
    )
    opt.set_defaults(func=cmd_optimize)

    val = sub.add_parser("validate", help="check a pattern for bijectivity")
    _add_pattern_args(val)
    val.add_argument("--kernel", choices=KERNEL_KINDS, default=None)
    val.add_argument("--size", type=_positive_int, default=None, help="problem size override")
    val.add_argument(
        "--grid",
        default=None,
        help="grid as TOTAL or MxN block counts (alternative to --kernel)",
    )
    val.add_argument("--arch", default="mi300x-like")
    val.set_defaults(func=cmd_validate)

    return parser


def _add_kernel_args(cmd: argparse.ArgumentParser, with_size: bool = True) -> None:
    cmd.add_argument("--kernel", choices=KERNEL_KINDS, required=True)
    if with_size:
        cmd.add_argument("--size", type=_positive_int, default=None, help="problem size override")
    cmd.add_argument("--arch", default="mi300x-like", help="preset name or JSON path")


def _positive_int(text: str) -> int:
    """A size or block count from the command line; anything else is a usage error."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _add_pattern_args(cmd: argparse.ArgumentParser) -> None:
    group = cmd.add_mutually_exclusive_group()
    group.add_argument(
        "--pattern", default=None, help=f"builtin name: {', '.join(BUILTIN_PATTERN_NAMES)}"
    )
    group.add_argument("--expr", default=None, help="swizzle expression text")


def _resolve_spec(args):
    size = getattr(args, "size", None)
    if size is not None:
        return spec_with_size(args.kernel, size)
    return default_spec(args.kernel)


def _resolve_pattern(
    args,
    grid: GridSpec,
    arch: ArchSpec,
    default_name: str | None = None,
    check_grid: bool = True,
):
    if args.expr is not None:
        return pattern_from_expr("custom_expr", args.expr)
    name = args.pattern or default_name
    if name is None:
        raise CliError("one of --pattern or --expr is required")
    return builtin_pattern(name, grid, arch, check_grid=check_grid)


# Kernels ship with a natural builtin so `simulate --kernel X` needs no flags.
_DEFAULT_PATTERN = {
    "gemm": "gemm_contiguous",
    "layernorm": "layernorm_rowgroup",
    "softmax": "softmax_rowgroup",
    "fdtd2d": "fdtd_stripe",
    "stencil2d": "stencil_group",
    "transpose": "transpose_band",
    "smith_waterman": "gemm_contiguous",
    "spmv_naive": "gemm_contiguous",
    "black_scholes": "gemm_contiguous",
    "fused_elementwise": "gemm_contiguous",
}


def cmd_simulate(args) -> int:
    arch = resolve_arch(args.arch)
    spec = _resolve_spec(args)
    trace = generate_trace(spec)
    pattern = _resolve_pattern(args, trace.grid, arch, _DEFAULT_PATTERN[spec.kind])
    try:
        baseline, swizzled = simulate_pair(trace, arch, ExecParams(), pattern)
    except PatternError as exc:
        raise CliError(str(exc)) from exc
    if args.out_dir is not None:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "baseline.json").write_text(
            json.dumps(report_to_dict(baseline), indent=2, sort_keys=True) + "\n"
        )
        (out / "swizzled.json").write_text(
            json.dumps(report_to_dict(swizzled), indent=2, sort_keys=True) + "\n"
        )
    delta = hit_rate_delta(baseline, swizzled)
    print(
        f"kernel={spec.kind} pattern={pattern.name} "
        f"baseline_l2_hit_rate={baseline.l2_hit_rate:.4f} "
        f"swizzled_l2_hit_rate={swizzled.l2_hit_rate:.4f} delta={delta:+.4f}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    arch = resolve_arch(args.arch)
    try:
        sizes = [_positive_int(s) for s in args.sizes.split(",") if s.strip()]
    except argparse.ArgumentTypeError as exc:
        print(f"error: bad --sizes value: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not sizes:
        print("error: --sizes must list at least one size", file=sys.stderr)
        return EXIT_USAGE

    pattern_label = args.pattern or (
        "custom_expr" if args.expr is not None else _DEFAULT_PATTERN[args.kernel]
    )
    rows = []
    failures = []
    for size in sizes:
        spec = spec_with_size(args.kernel, size)
        trace = generate_trace(spec)
        try:
            pattern = _resolve_pattern(args, trace.grid, arch, _DEFAULT_PATTERN[spec.kind])
            baseline, swizzled = simulate_pair(trace, arch, ExecParams(), pattern)
        except (PatternError, dsl.EvalError) as exc:
            failures.append((size, str(exc)))
            rows.append((args.kernel, pattern_label, size, "", "", ""))
            continue
        rows.append(
            (
                args.kernel,
                pattern.name,
                size,
                f"{baseline.l2_hit_rate:.6f}",
                f"{swizzled.l2_hit_rate:.6f}",
                f"{hit_rate_delta(baseline, swizzled):.6f}",
            )
        )

    lines = ["kernel,pattern,size,baseline_rate,swizzled_rate,delta"]
    lines += [",".join(str(c) for c in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    for size, message in failures:
        print(f"size {size} failed: {message}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} of {len(sizes)} sizes failed", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_optimize(args) -> int:
    if args.max_iters < 0:
        print("error: --max-iters must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    arch = resolve_arch(args.arch)
    spec = _resolve_spec(args)
    if args.proposer == "search":
        proposer = SearchProposer()
    else:
        if args.proposer == "replay":
            if args.fixture is None:
                print("error: --fixture is required with the replay proposer", file=sys.stderr)
                return EXIT_USAGE
            config = ClientConfig.replay(args.fixture)
        else:
            config = ClientConfig.live_from_env()
        proposer = LlmProposer(CompletionClient(config))

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    history_path = Path(args.history) if args.history else out / "history.jsonl"
    try:
        sink = JsonlHistorySink(history_path)
    except FileExistsError:
        print(f"error: history file {history_path} already exists", file=sys.stderr)
        return EXIT_USAGE
    with sink:
        result = optimize(spec, arch, proposer, max_iters=args.max_iters, history_sink=sink)

    write_progression_csv(result, out / "progression.csv")
    best = result.best
    best_doc = {
        "kernel": spec.kind,
        "pattern": best.pattern,
        "iteration": best.iteration,
        "l2_hit_rate": best.report.l2_hit_rate,
        "report": report_to_dict(best.report),
    }
    (out / "best.json").write_text(json.dumps(best_doc, indent=2, sort_keys=True) + "\n")
    if result.iterations_run < args.max_iters:
        print(
            f"proposer exhausted after {result.iterations_run} of "
            f"{args.max_iters} iterations"
        )
    print(
        f"best: iteration={best.iteration} pattern={best.pattern['name']} "
        f"l2_hit_rate={best.report.l2_hit_rate:.4f} "
        f"(history: {history_path}, progression: {out / 'progression.csv'})"
    )
    return EXIT_OK


def cmd_validate(args) -> int:
    arch = resolve_arch(args.arch)
    if args.grid is not None:
        parts = args.grid.lower().split("x")
        try:
            counts = [_positive_int(p) for p in parts]
        except argparse.ArgumentTypeError as exc:
            print(f"error: bad --grid value: {exc}", file=sys.stderr)
            return EXIT_USAGE
        grid = GridSpec.from_block_counts(*counts[:2])
    elif args.kernel is not None:
        grid = launch_grid(_resolve_spec(args))
    else:
        print("error: one of --grid or --kernel is required", file=sys.stderr)
        return EXIT_USAGE

    try:
        # build the raw mapping even on grids the constructor would reject,
        # so the failure is demonstrated by enumeration rather than asserted
        pattern = _resolve_pattern(args, grid, arch, check_grid=False)
        result = check_bijectivity(pattern, grid, arch)
    except PatternError as exc:
        raise CliError(str(exc)) from exc

    print(
        f"pattern={pattern.name} grid={grid.num_blocks_m}x{grid.num_blocks_n} "
        f"bijective={result.bijective} coverage_ok={result.coverage_ok}"
    )
    if result.out_of_range:
        shown = ", ".join(str(p) for p in result.out_of_range[:16])
        print(f"out-of-range launch pids ({len(result.out_of_range)}): {shown}")
    if result.collisions:
        shown = "; ".join(f"{a} and {b} -> {img}" for a, b, img in result.collisions[:8])
        print(f"collisions ({len(result.collisions)}): {shown}")
    return EXIT_OK if result.bijective else EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
