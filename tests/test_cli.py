import csv

import numpy as np
import pytest

from epicube.cli import main
from epicube.degeneracy import UNIT_CUBE_VERTICES, random_combinatorial_cube
from epicube.estimators import ALGOS, cube_eight_point, eight_point, seven_point
from epicube.projective import canonical_fmatrix, epipolar_residual, grassmann_angle, project_all
from epicube.simulate import add_noise, sample_camera_pair
from conftest import A1, A2, X_IMAGE, Y_IMAGE

# The standard instance's eight correspondences and a ninth of a world point
# off the cube, which gives Z rank 8.
NINTH = np.array([0.3, -0.7, 0.5, 1.0])
X9 = np.vstack([X_IMAGE, A1 @ NINTH])
Y9 = np.vstack([Y_IMAGE, A2 @ NINTH])
# Exit code of `epicube estimate` by number of rows and algorithm.
EXIT_CODES = {
    6: {"8pt": 2, "7pt": 2, "cube8": 2},
    7: {"8pt": 2, "7pt": 0, "cube8": 2},
    8: {"8pt": 2, "7pt": 0, "cube8": 0},
    9: {"8pt": 0, "7pt": 0, "cube8": 2},
}


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

    def test_7pt_runs(self, corr_csv, capsys):
        # The CSV holds the fixture's floats exactly (repr round trip), so
        # the printed F and residual are those of the library call.
        assert main(["estimate", "--input", corr_csv, "--algo", "7pt"]) == 0
        F, residual = seven_point(X_IMAGE[:7], Y_IMAGE[:7]).best(X_IMAGE, Y_IMAGE)
        expected = [" ".join(repr(float(v)) for v in row) for row in F]
        assert capsys.readouterr().out.splitlines() == expected + [f"residual: {residual!r}"]

    @pytest.mark.parametrize("algo", ALGOS)
    @pytest.mark.parametrize("rows", sorted(EXIT_CODES))
    def test_row_counts(self, rows, algo, tmp_path, capsys):
        # On success stdout is the library's F and residual, bit for bit.
        X, Y = X9[:rows], Y9[:rows]
        path = tmp_path / "corr.csv"
        write_correspondences(path, X, Y)
        code = main(["estimate", "--input", str(path), "--algo", algo])
        out, err = capsys.readouterr()
        assert code == EXIT_CODES[rows][algo]
        if code != 0:
            assert out == "" and err.startswith("error: ")
            if algo == "7pt":
                assert "the 7-point algorithm needs at least 7 correspondences" in err
            return
        if algo == "7pt":
            F, residual = seven_point(X[:7], Y[:7]).best(X, Y)
        else:
            F = (eight_point if algo == "8pt" else cube_eight_point)(X, Y)
            residual = epipolar_residual(F, X, Y)
        expected = [" ".join(repr(float(v)) for v in row) for row in F]
        assert out.splitlines() == expected + [f"residual: {residual!r}"]
        assert err == ""

    @pytest.mark.parametrize("algo", ["7pt", "cube8"])
    def test_prints_the_library_f(self, algo, tmp_path, capsys):
        # A noisy cube image whose F canonical_fmatrix moves in the last bit:
        # stdout is F as the library returns it, not canonicalized again.
        rng = np.random.default_rng(2)
        cube = random_combinatorial_cube(rng)
        A1, A2 = sample_camera_pair(rng, 6.0)
        X = add_noise(project_all(A1, cube.vertices), 0.02, rng)
        Y = add_noise(project_all(A2, cube.vertices), 0.02, rng)
        if algo == "7pt":
            F, residual = seven_point(X[:7], Y[:7]).best(X, Y)
        else:
            F = cube_eight_point(X, Y)
            residual = epipolar_residual(F, X, Y)
        assert not np.array_equal(canonical_fmatrix(F), F)
        path = tmp_path / "corr.csv"
        write_correspondences(path, X, Y)
        assert main(["estimate", "--input", str(path), "--algo", algo]) == 0
        expected = [" ".join(repr(float(v)) for v in row) for row in F]
        assert capsys.readouterr().out.splitlines() == expected + [f"residual: {residual!r}"]

    @pytest.mark.parametrize("algo", ["8pt", "7pt"])
    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_extreme_scales(self, algo, scale, tmp_path, capsys):
        # Eight random points seen by look-at cameras, every coordinate of
        # the CSV at 1e+-170: the estimate is the one at scale 1.  (cube8
        # conditions these affine images, which undoes any scale.)
        rng = np.random.default_rng(0)
        P = np.hstack([rng.uniform(-1.0, 1.0, size=(8, 3)), np.ones((8, 1))])
        cam1, cam2 = sample_camera_pair(rng, 6.0)
        X, Y = project_all(cam1, P), project_all(cam2, P)
        path = tmp_path / "corr.csv"
        write_correspondences(path, X * scale, Y * scale)
        assert main(["estimate", "--input", str(path), "--algo", algo]) == 0
        F = np.array([[float(v) for v in row.split()] for row in capsys.readouterr().out.splitlines()[:3]])
        expected = eight_point(X, Y) if algo == "8pt" else seven_point(X[:7], Y[:7]).best(X, Y)[0]
        assert grassmann_angle(F, expected) < 1e-9

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

    @pytest.mark.parametrize(
        "counts", [["--trials", "0", "--controls", "0"], ["--trials", "-3"], ["--controls", "0"]]
    )
    def test_empty_counts_rejected(self, tmp_path, capsys, counts):
        # The same usage error as simulate's "--trials must be >= 1".
        with pytest.raises(SystemExit) as sim:
            main(["simulate", "--trials", "0", "--out", str(tmp_path / "s.csv")])
        capsys.readouterr()
        with pytest.raises(SystemExit) as check:
            main(["exact-check", *counts])
        assert check.value.code == sim.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be >= 1" in captured.err


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
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--levels", "0"], "must be >= 1"),
            (["region", "--resolution", "1"], "must be >= 2"),
            (["simulate", "--noise-max", "nan"], "finite"),
            (["simulate", "--noise-max", "-0.1"], "must be >= 0"),
            (["region", "--f1", "a,b,c"], "finite"),
            (["region", "--f1", "1,2"], "three numbers"),
            (["region", "--extent", "nan"], "finite"),
            (["region", "--extent", "0"], "must be > 0"),
            (["region", "--plane-z", "inf"], "finite"),
        ],
    )
    def test_count_below_minimum(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as info:
            main([*argv, "--out", str(out)])
        assert info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not out.exists()

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as info:
            main(["estimate"])
        assert info.value.code == 1
