import json

import pytest

from swizzlesim.cli import main
from swizzlesim.client import prompt_digest
from swizzlesim.loop import load_history


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
