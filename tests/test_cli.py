"""Command-line interface: files, formats, determinism, exit codes."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from qrgflow import cli
from qrgflow.cli import main
from qrgflow.errors import DomainError, QrgError
from qrgflow.flow import MAX_SWEEP_CELLS

SCI = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")  # 12 significant digits


def run(args):
    return main(list(args))


def test_fixed_points_output(capsys):
    assert run(["fixed-points"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "xxz delta=0.00000000000e+00 stable",
        "xxz delta=1.00000000000e+00 unstable",
        "xy gamma=-1.00000000000e+00 stable",
        "xy gamma=0.00000000000e+00 unstable",
        "xy gamma=1.00000000000e+00 stable",
    ]


def test_fixed_points_single_model(capsys):
    assert run(["fixed-points", "--model", "xxz"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_sweep_csv_layout(tmp_path):
    assert run([
        "sweep", "--model", "xxz", "--points", "6", "--iterations", "0..2",
        "--out", str(tmp_path),
    ]) == 0
    csv_path = tmp_path / "sweep_xxz.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["delta", "iteration", "N"]
    assert header[3:] == [
        "concurrence", "qd_optimal", "qd_sigma_x", "qd_sigma_y", "qd_sigma_z",
        "mid", "gd", "min", "chsh_max",
    ]
    assert len(lines) == 1 + 6 * 3
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        assert SCI.match(row[0])
        assert all(SCI.match(cell) for cell in row[3:])
    # axis-major ordering with iteration minor; N = 3^(n+1)
    assert [r[1] for r in rows[:3]] == ["0", "1", "2"]
    assert [r[2] for r in rows[:3]] == ["3", "9", "27"]
    axis_values = [float(r[0]) for r in rows]
    assert axis_values == sorted(axis_values)
    assert (tmp_path / "sweep_xxz.gp").exists()


def test_sweep_deterministic_bytes(tmp_path):
    for directory in ("one", "two"):
        assert run([
            "sweep", "--model", "xy", "--points", "9", "--iterations", "0,3",
            "--measures", "chsh_max,gd", "--out", str(tmp_path / directory),
        ]) == 0
    first = (tmp_path / "one" / "sweep_xy.csv").read_bytes()
    second = (tmp_path / "two" / "sweep_xy.csv").read_bytes()
    assert first == second


def test_sweep_measure_subset_header(tmp_path):
    assert run([
        "sweep", "--model", "xy", "--points", "4", "--iterations", "1",
        "--measures", "chsh_max,gd", "--out", str(tmp_path), "--no-plot",
    ]) == 0
    header = (tmp_path / "sweep_xy.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "g,iteration,N,chsh_max,gd"
    assert not (tmp_path / "sweep_xy.gp").exists()


def test_flow_csv(tmp_path):
    assert run([
        "flow", "--model", "xxz", "--start", "0.5", "--steps", "4",
        "--out", str(tmp_path),
    ]) == 0
    lines = (tmp_path / "flow_xxz.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("n,N,delta,J,concurrence")
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "3"
    assert first[2] == "5.00000000000e-01"
    assert first[3] == "1.00000000000e+00"


def test_xy_flow_near_max_float_j_stays_finite(tmp_path):
    # J' = J * factor with factor < 1 near gamma = 1, so J = 1e308 must not overflow
    assert run([
        "flow", "--model", "xy", "--start", "0.9", "--j", "1e308", "--steps", "2",
        "--out", str(tmp_path), "--no-plot",
    ]) == 0
    rows = (tmp_path / "flow_xy.csv").read_text(encoding="utf-8").splitlines()[1:]
    j_column = [float(row.split(",")[3]) for row in rows]
    assert len(j_column) == 3 and all(0.0 < j < float("inf") for j in j_column)


def test_flow_newlines_are_unix(tmp_path):
    assert run([
        "flow", "--model", "xy", "--start", "0.25", "--steps", "2",
        "--out", str(tmp_path), "--no-plot",
    ]) == 0
    raw = (tmp_path / "flow_xy.csv").read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")


def test_scaling_outputs_and_fit_lines(tmp_path, capsys):
    assert run([
        "scaling", "--model", "xy", "--points", "201", "--iterations", "2..4",
        "--out", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "magnitude_fit exponent=" in out
    assert "position_fit exponent=" in out
    csv_lines = (tmp_path / "scaling_xy_chsh_max.csv").read_text(
        encoding="utf-8"
    ).splitlines()
    assert csv_lines[0] == "n,N,g_m,deriv_extremum_abs"
    assert len(csv_lines) == 4
    fits = (tmp_path / "scaling_xy_chsh_max_fits.txt").read_text(encoding="utf-8")
    assert fits.splitlines()[0].startswith("magnitude_fit exponent=")
    assert (tmp_path / "scaling_xy_chsh_max.gp").exists()


def test_scaling_self_test(capsys):
    assert run(["scaling", "--self-test"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS scaling-self-test")
    assert "2.00000000000e+00" in out


def test_verify_small_battery(capsys):
    rc = run([
        "verify", "--oracle-states", "4", "--random-states", "200",
        "--params-per-model", "2", "--sweep-points", "40",
        "--jacobi-matrices", "3",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 9
    assert "9/9 checks passed" in out


def test_verify_fault_injection_exit_code(capsys):
    rc = run([
        "verify", "--oracle-states", "4", "--random-states", "200",
        "--params-per-model", "2", "--sweep-points", "40",
        "--jacobi-matrices", "3", "--inject-fault",
    ])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL fault-injection" in out
    assert "9/10 checks passed" in out


def test_config_error_exit_codes(tmp_path, capsys):
    assert run(["sweep", "--model", "xxz", "--range", "2:1", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--model", "xxz", "--measures", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--model", "heisenberg"])
    assert exc.value.code == 2


@pytest.mark.parametrize("counts", [
    ["--oracle-states", "0", "--random-states", "0", "--jacobi-matrices", "0",
     "--params-per-model", "0"],
    ["--oracle-states", "-3"],
])
def test_verify_rejects_empty_samples(counts, capsys):
    assert run(["verify"] + counts) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "oracle_states" in captured.err
    assert "checks passed" not in captured.out


def test_verify_rejects_negative_seed(capsys):
    assert run(["verify", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "seed" in captured.err
    assert "checks passed" not in captured.out


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    # a regular file, since permission bits do not stop a root user
    target = tmp_path / "taken"
    target.write_text("", encoding="utf-8")
    for argv in (
        ["sweep", "--model", "xy", "--points", "4", "--iterations", "0"],
        ["flow", "--model", "xxz", "--start", "0.5", "--steps", "1"],
    ):
        assert run(argv + ["--out", str(target)]) == 2
        assert "error:" in capsys.readouterr().err
    assert run(["flow", "--model", "xy", "--start", "0.1", "--out", str(target / "sub")]) == 2
    assert "error:" in capsys.readouterr().err


def test_scaling_rejects_negative_refine_passes(tmp_path, capsys):
    rc = run([
        "scaling", "--model", "xy", "--points", "101", "--iterations", "2..4",
        "--refine-passes", "-1", "--out", str(tmp_path),
    ])
    assert rc == 2
    assert "refine_passes" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("critical", ["nan", "inf"])
def test_scaling_rejects_non_finite_critical(critical, tmp_path, capsys):
    rc = run([
        "scaling", "--model", "xy", "--points", "101", "--iterations", "2..4",
        "--critical", critical, "--out", str(tmp_path),
    ])
    assert rc == 2
    assert "critical point must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_oversized_grid_exits_2_before_allocating(tmp_path, capsys):
    # one depth and one measure per sweep, so the table holds exactly --points cells
    points = MAX_SWEEP_CELLS + 1
    tracemalloc.start()
    try:
        rc = run(["scaling", "--model", "xy", "--points", str(points), "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "exceeds the limit" in capsys.readouterr().err
    assert peak < 1 << 20  # the grid alone would take 8 bytes per point
    assert not list(tmp_path.iterdir())


def test_numeric_failure_exit_code(tmp_path, capsys):
    # search window far from the critical point: extremum lands on the edge
    rc = run([
        "scaling", "--model", "xy", "--range", "2.0:3.0", "--iterations", "2..4",
        "--points", "101", "--out", str(tmp_path), "--no-plot",
    ])
    assert rc == 3
    assert "numeric failure:" in capsys.readouterr().err


@pytest.mark.parametrize("error", QrgError.__subclasses__(), ids=lambda cls: cls.__name__)
def test_error_class_sets_exit_code(error, monkeypatch, capsys):
    def failing(args):
        raise error("stubbed")

    monkeypatch.setattr(cli, "_cmd_fixed_points", failing)
    assert run(["fixed-points"]) == (2 if error is DomainError else 3)
    assert "stubbed" in capsys.readouterr().err


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "qrgflow.cli", "fixed-points", "--model", "xy"],
        capture_output=True, text=True, check=False,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "xy gamma=-1.00000000000e+00 stable"
