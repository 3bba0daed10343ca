import json
from pathlib import Path

import pytest

from swizzlesim import cachesim, patterns
from swizzlesim.arch import MI300X_LIKE
from swizzlesim.cli import main
from swizzlesim.kernels import KERNEL_KINDS, default_pattern, spec_with_size
from swizzlesim.loop import SearchProposer, load_history, optimize
from swizzlesim.patterns import EnumerationLimitError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_writes_reports_and_delta(tmp_path, capsys):
    code, out, _ = run(
        capsys, "simulate", "--kernel", "stencil2d", "--size", "512",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    assert "delta=+" in out
    baseline = json.loads((tmp_path / "baseline.json").read_text())
    swizzled = json.loads((tmp_path / "swizzled.json").read_text())
    assert baseline["pattern"] == "identity"
    assert swizzled["pattern"] == "stencil_group"
    assert swizzled["l2_hit_rate"] > baseline["l2_hit_rate"]


def test_default_pattern_per_kernel():
    # the builtin `simulate --kernel K` runs without --pattern or --expr
    assert {kind: default_pattern(kind) for kind in KERNEL_KINDS} == {
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


def test_simulate_identity_delta_zero(tmp_path, capsys):
    code, out, _ = run(
        capsys, "simulate", "--kernel", "fused_elementwise", "--size", "16384",
        "--pattern", "identity",
    )
    assert code == 0
    assert "delta=+0.0000" in out


def test_simulate_bitwise_on_bad_grid_fails(capsys):
    # 512^2 / 64 -> 64 tiles... use a size giving a non-power-of-four grid
    code, out, err = run(
        capsys, "simulate", "--kernel", "stencil2d", "--size", "320",
        "--pattern", "bitwise_lowbit",
    )
    assert code == 1
    assert "not a permutation" in err


def test_validate_identity_ok(capsys):
    code, out, _ = run(capsys, "validate", "--pattern", "identity", "--grid", "64")
    assert code == 0
    assert "bijective=True" in out


def test_validate_bitwise_lists_offender(capsys):
    code, out, _ = run(capsys, "validate", "--pattern", "bitwise_lowbit", "--grid", "10")
    assert code == 1
    assert "bijective=False" in out
    assert "5" in out.split("out-of-range launch pids")[1]


def test_validate_prints_the_counts_and_the_first_pids_and_collisions(capsys):
    # images (pid // 2) * 3: pids 44..63 land past 63, and each image below is
    # shared by pids 2k and 2k + 1, for 22 collisions
    code, out, _ = run(capsys, "validate", "--expr", "(pid // 2) * 3", "--grid", "64")
    assert code == 1
    # the first 16 pids and the first 8 collisions are shown
    shown_pids = ", ".join(map(str, range(44, 60)))
    shown_pairs = "; ".join(f"{2 * k} and {2 * k + 1} -> {3 * k}" for k in range(8))
    assert out.splitlines()[1:] == [
        f"out-of-range launch pids (20): {shown_pids}",
        f"collisions (22): {shown_pairs}",
    ]


def test_validate_gemm_contiguous_304(capsys):
    code, out, _ = run(capsys, "validate", "--pattern", "gemm_contiguous", "--grid", "304")
    assert code == 0


def test_validate_expr_and_2d_grid(capsys):
    code, out, _ = run(
        capsys, "validate", "--expr", "(pid_n * num_blocks_m) + pid_m", "--grid", "6x5"
    )
    assert code == 0


def test_validate_with_kernel_grid(capsys):
    code, out, _ = run(
        capsys, "validate", "--pattern", "softmax_rowgroup", "--kernel", "softmax",
        "--size", "64",
    )
    assert code == 0


def test_sweep_csv_columns_and_rows(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys, "sweep", "--kernel", "stencil2d", "--sizes", "256,512",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "kernel,pattern,size,baseline_rate,swizzled_rate,delta"
    assert len(lines) == 3
    assert lines[1].startswith("stencil2d,stencil_group,256,")


def test_sweep_single_size_stdout(capsys):
    code, out, _ = run(capsys, "sweep", "--kernel", "fused_elementwise", "--sizes", "8192")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_sweep_empty_sizes_usage_error(capsys):
    code, _, err = run(capsys, "sweep", "--kernel", "stencil2d", "--sizes", "")
    assert code == 2


def test_sweep_records_per_row_failures(tmp_path, capsys):
    # bitwise rejects the 25-tile grid at size 320 but works at 512 (64 tiles)
    out_path = tmp_path / "sweep.csv"
    code, out, err = run(
        capsys, "sweep", "--kernel", "stencil2d", "--sizes", "320,512",
        "--pattern", "bitwise_lowbit", "--out", str(out_path),
    )
    assert code == 1
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].endswith(",,,")  # failed row carries empty metrics
    assert "1 of 2 sizes failed" in err


def test_missing_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_unknown_kernel_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--kernel", "nope"])
    assert excinfo.value.code == 2


def test_optimize_search_writes_artifacts(tmp_path, capsys):
    code, out, _ = run(
        capsys, "optimize", "--kernel", "gemm", "--size", "512",
        "--proposer", "search", "--max-iters", "3", "--out-dir", str(tmp_path),
    )
    assert code == 0
    history = load_history(tmp_path / "history.jsonl")
    assert len(history) == 4
    prog = (tmp_path / "progression.csv").read_text().strip().splitlines()
    assert len(prog) == 5
    best = json.loads((tmp_path / "best.json").read_text())
    assert best["l2_hit_rate"] >= history[0].report.l2_hit_rate
    assert "best:" in out


def test_optimize_zero_iters_returns_identity(tmp_path, capsys):
    code, out, _ = run(
        capsys, "optimize", "--kernel", "fused_elementwise", "--size", "16384",
        "--max-iters", "0", "--out-dir", str(tmp_path),
    )
    assert code == 0
    best = json.loads((tmp_path / "best.json").read_text())
    assert best["pattern"]["name"] == "identity"


def test_failed_best_json_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    real_write_text = Path.write_text

    def disk_full(path, text, *args, **kwargs):
        if "best.json" in path.name:  # half the document lands, then the write fails
            real_write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError(28, "No space left on device")
        return real_write_text(path, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", disk_full)
    code, _, err = run(
        capsys, "optimize", "--kernel", "fused_elementwise", "--size", "16384",
        "--max-iters", "0", "--out-dir", str(tmp_path),
    )
    assert code == 1 and "No space left on device" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["history.jsonl", "progression.csv"]


def test_optimize_replay_requires_fixture(tmp_path, capsys):
    code, _, err = run(
        capsys, "optimize", "--kernel", "gemm", "--proposer", "replay",
        "--out-dir", str(tmp_path),
    )
    assert code == 2
    assert "--fixture" in err


def test_optimize_replay_exhaustion_noted(tmp_path, capsys):
    # fixture with zero entries: proposer exhausts immediately
    fixture = tmp_path / "empty.jsonl"
    fixture.write_text("")
    code, out, _ = run(
        capsys, "optimize", "--kernel", "fused_elementwise", "--size", "16384",
        "--proposer", "replay", "--fixture", str(fixture),
        "--max-iters", "5", "--out-dir", str(tmp_path),
    )
    assert code == 0
    assert "exhausted after 0 of 5 iterations" in out


@pytest.mark.parametrize("proposer", ["replay-missing", "replay-malformed", "llm-unset"])
def test_optimize_client_errors_exit_1(tmp_path, capsys, monkeypatch, proposer):
    monkeypatch.delenv("COMPLETION_ENDPOINT", raising=False)
    monkeypatch.delenv("COMPLETION_API_KEY", raising=False)
    fixture = tmp_path / "fixture.jsonl"
    if proposer == "replay-malformed":
        fixture.write_text("not json\n")
    extra = ("--proposer", "llm") if proposer == "llm-unset" else (
        "--proposer", "replay", "--fixture", str(fixture))
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "optimize", "--kernel", "gemm", "--size", "256", *extra,
                       "--out-dir", str(out_dir))
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (out_dir / "history.jsonl").exists()


@pytest.mark.parametrize("argv", [
    ("simulate", "--kernel", "gemm", "--size", "0"),
    ("validate", "--pattern", "identity", "--grid", "0"),
    ("sweep", "--kernel", "gemm", "--sizes", "0,256"),
])
def test_non_positive_sizes_and_counts_usage_error(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "positive integer" in capsys.readouterr().err


def test_validate_literal_past_the_value_limit_is_an_error(capsys):
    code, out, err = run(capsys, "validate", "--expr", "pid + 0 * 99999999999999999999",
                         "--grid", "64")
    assert code == 1
    assert err.startswith("error: ") and "2**62" in err and "Traceback" not in err


def test_grid_with_more_than_two_counts_usage_error(capsys):
    code, out, err = run(capsys, "validate", "--pattern", "identity", "--grid", "3x4x5")
    assert code == 2
    assert "3x4x5" in err and out == ""


def test_optimize_refuses_existing_history(tmp_path, capsys):
    argv = ("optimize", "--kernel", "gemm", "--size", "256", "--max-iters", "2",
            "--out-dir", str(tmp_path))
    assert run(capsys, *argv)[0] == 0
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert str(tmp_path / "history.jsonl") in err
    assert [e.iteration for e in load_history(tmp_path / "history.jsonl")] == [0, 1, 2]


def test_optimize_negative_max_iters_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "optimize", "--kernel", "gemm", "--max-iters", "-1",
                       "--out-dir", str(tmp_path))
    assert code == 2
    assert "--max-iters" in err
    assert not (tmp_path / "history.jsonl").exists()  # a later run is not blocked


def test_optimize_past_the_enumeration_cap_is_an_error(tmp_path, capsys, monkeypatch):
    # gemm at 256 has 4 x 4 tiles: the identity's enumeration fails before
    # the trace is built, where it used to be swallowed as a failed validation
    monkeypatch.setattr(patterns, "ENUMERATION_CAP", 4)
    with pytest.raises(EnumerationLimitError):
        optimize(spec_with_size("gemm", 256), MI300X_LIKE, SearchProposer(), max_iters=2)
    code, _, err = run(capsys, "optimize", "--kernel", "gemm", "--size", "256",
                       "--max-iters", "2", "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ") and "enumeration cap" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.fixture
def no_compiler(tmp_path, monkeypatch):
    """The kernel's build directory, empty, with no compiler to build into it."""
    build_root = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(build_root))
    monkeypatch.setattr(cachesim, "_CC", str(tmp_path / "missing-cc"))
    cachesim._load_kernel.cache_clear()
    yield build_root
    cachesim._load_kernel.cache_clear()


@pytest.mark.parametrize("argv", [
    ("simulate", "--kernel", "gemm", "--size", "256"),
    ("sweep", "--kernel", "gemm", "--sizes", "256,512"),
    ("optimize", "--kernel", "gemm", "--size", "256", "--max-iters", "2"),
])
def test_simulating_commands_without_a_compiler_exit_1(tmp_path, capsys, monkeypatch,
                                                      no_compiler, argv):
    out_dir = tmp_path / "out"
    argv = (*argv, "--out-dir", str(out_dir)) if argv[0] == "optimize" else argv
    code, _, err = run(capsys, *argv)
    assert code == 1
    [line] = err.splitlines()  # no traceback
    assert line.startswith("error: native LRU kernel unavailable: ") and "missing-cc" in line
    assert [p for p in no_compiler.rglob("*") if p.is_file()] == []
    if argv[0] == "optimize":
        assert list(out_dir.iterdir()) == []  # no empty history blocks the next run
        monkeypatch.undo()  # the real compiler and build directory
        cachesim._load_kernel.cache_clear()
        assert run(capsys, *argv)[0] == 0
        assert [e.iteration for e in load_history(out_dir / "history.jsonl")] == [0, 1, 2]


def test_validate_without_a_compiler_exits_0(capsys, no_compiler):
    code, out, _ = run(capsys, "validate", "--pattern", "gemm_contiguous", "--kernel", "gemm")
    assert code == 0 and "bijective=True" in out
    assert not no_compiler.exists()
