import csv

import numpy as np
import pytest

from epicube.cli import main
from epicube.degeneracy import UNIT_CUBE_VERTICES
from conftest import X_IMAGE, Y_IMAGE


def write_correspondences(path, X, Y):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "x2", "x3", "y1", "y2", "y3"])
        for x, y in zip(X, Y):
            w.writerow(list(x) + list(y))


def write_world_points(path, P):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["p1", "p2", "p3", "p4"])
        for p in P:
            w.writerow(list(p))


@pytest.fixture
def corr_csv(tmp_path):
    path = tmp_path / "corr.csv"
    write_correspondences(path, X_IMAGE, Y_IMAGE)
    return str(path)


class TestEstimate:
    def test_cube8_succeeds(self, corr_csv, capsys):
        assert main(["estimate", "--input", corr_csv, "--algo", "cube8"]) == 0
        out = capsys.readouterr().out
        assert "residual:" in out
        rows = [line.split() for line in out.splitlines()[:3]]
        F = np.array([[float(v) for v in row] for row in rows])
        expected = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.allclose(np.abs(F), expected / np.sqrt(2.0), atol=1e-9)

    def test_8pt_reports_degeneracy(self, corr_csv, capsys):
        assert main(["estimate", "--input", corr_csv, "--algo", "8pt"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_7pt_runs(self, corr_csv):
        assert main(["estimate", "--input", corr_csv, "--algo", "7pt"]) == 0

    def test_missing_file(self, tmp_path):
        assert main(["estimate", "--input", str(tmp_path / "nope.csv")]) == 2

    def test_bad_header(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        assert main(["estimate", "--input", str(path)]) == 2

    def test_nan_input_rejected(self, tmp_path, capsys):
        X = X_IMAGE.copy()
        X[3, 0] = np.nan
        path = tmp_path / "nan.csv"
        write_correspondences(path, X, Y_IMAGE)
        assert main(["estimate", "--input", str(path)]) == 2
        assert "finite" in capsys.readouterr().err


class TestVerifyDegeneracy:
    def test_cube_audit(self, tmp_path, capsys):
        path = tmp_path / "cube.csv"
        write_world_points(path, UNIT_CUBE_VERTICES)
        assert main(["verify-degeneracy", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "n_points: 8" in out
        assert "veronese_rank: 7" in out
        assert "z_rank_bound: 7" in out
        assert "combinatorial_cube: True" in out

    def test_generic_points(self, tmp_path, capsys, rng):
        path = tmp_path / "pts.csv"
        write_world_points(path, rng.standard_normal((10, 4)))
        assert main(["verify-degeneracy", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "veronese_rank: 10" in out
        assert "combinatorial_cube: n/a" in out


class TestSimulate:
    def test_deterministic_output(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["simulate", "--trials", "3", "--levels", "2", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_header(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(
            ["simulate", "--trials", "2", "--levels", "2", "--seed", "1", "--out", str(out)]
        ) == 0
        with open(out, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == [
            "trial", "noise", "algo", "angle_rad", "residual", "failed",
            "cube_seed", "cam_seed",
        ]


class TestRegion:
    def test_grid_csv(self, tmp_path, capsys):
        out = tmp_path / "region.csv"
        assert main(["region", "--resolution", "8", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "cells: 64" in printed
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["u", "v", "class", "n_plus", "n_minus", "n_zero"]
        assert len(rows) == 65
        tags = {r[2] for r in rows[1:]}
        assert "RULED_NONDEGENERATE" in tags


class TestExactCheck:
    def test_pass_exit_zero(self, capsys):
        code = main(["exact-check", "--trials", "4", "--controls", "2", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out


class TestDataErrors:
    @pytest.mark.parametrize(
        "command, header",
        [("estimate", "x1,x2,x3,y1,y2,y3"), ("verify-degeneracy", "p1,p2,p3,p4")],
    )
    def test_short_row(self, tmp_path, capsys, command, header):
        path = tmp_path / "short.csv"
        fields = header.count(",")  # one fewer than the header names
        path.write_text(header + "\n" + ",".join(["1"] * fields) + "\n")
        assert main([command, "--input", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as info:
            main(["estimate"])
        assert info.value.code == 1
