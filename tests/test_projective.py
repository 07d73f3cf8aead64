import numpy as np
import pytest

from epicube.exceptions import (
    FocalPointProjection,
    LengthMismatch,
    RankDeficientCamera,
    ZeroMatrix,
)
from epicube.projective import (
    as_point,
    as_points,
    canon,
    canonical_fmatrix,
    dehomogenize,
    epipolar_residual,
    focal_point,
    grassmann_angle,
    homogenize,
    proj_equal,
    project,
    project_all,
)


class TestValidation:
    def test_as_point_shape(self):
        with pytest.raises(ValueError):
            as_point([1.0, 2.0], 3)

    def test_as_point_zero(self):
        with pytest.raises(ValueError):
            as_point([0.0, 0.0, 0.0], 3)

    def test_as_points_rejects_zero_row(self):
        with pytest.raises(ValueError):
            as_points([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            as_point([1.0, bad, 1.0], 3)
        with pytest.raises(ValueError, match="finite"):
            as_points([[1.0, 0.0, 1.0], [bad, 0.0, 1.0]], 3)


class TestCanon:
    def test_unit_norm_positive_lead(self):
        v = canon([-2.0, 0.0, 4.0])
        assert np.isclose(np.linalg.norm(v), 1.0)
        assert v[0] > 0

    def test_zero_raises(self):
        with pytest.raises(ZeroMatrix):
            canon(np.zeros(3))

    def test_proj_equal_up_to_scale(self):
        assert proj_equal([1.0, 2.0, 3.0], [-2.0, -4.0, -6.0])
        assert not proj_equal([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])


class TestHomogenize:
    def test_round_trip(self):
        aff = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(dehomogenize(homogenize(aff)), aff)

    def test_point_at_infinity(self):
        with pytest.raises(ValueError):
            dehomogenize([[1.0, 2.0, 0.0]])


class TestCamera:
    def test_project_matches_matrix_action(self, standard_instance):
        A1 = standard_instance["A1"]
        for v, x in zip(standard_instance["cube"], standard_instance["X"]):
            assert np.allclose(project(A1, v), x)

    def test_project_all(self, standard_instance):
        X = project_all(standard_instance["A1"], standard_instance["cube"])
        assert np.allclose(X, standard_instance["X"])

    def test_project_focal_point_raises(self, standard_instance):
        c = focal_point(standard_instance["A1"])
        with pytest.raises(FocalPointProjection):
            project(standard_instance["A1"], c)

    @pytest.mark.parametrize("row", range(8))
    def test_project_all_focal_point_raises(self, standard_instance, row):
        P = np.array(standard_instance["cube"], dtype=float)
        P[row] = focal_point(standard_instance["A1"])
        with pytest.raises(FocalPointProjection):
            project_all(standard_instance["A1"], P)

    def test_focal_point_in_kernel(self, standard_instance):
        for A in (standard_instance["A1"], standard_instance["A2"]):
            c = focal_point(A)
            assert np.allclose(A @ c, 0.0, atol=1e-12)

    def test_rank_deficient_camera(self):
        A = np.zeros((3, 4))
        A[0, 0] = 1.0
        with pytest.raises(RankDeficientCamera):
            focal_point(A)


class TestFmatrix:
    def test_canonical_is_projective_representative(self):
        F = np.diag([0.0, -3.0, 1.0])
        Fc = canonical_fmatrix(F)
        assert np.isclose(np.linalg.norm(Fc), 1.0)
        assert proj_equal(F, Fc)


class TestResidual:
    def test_zero_on_noise_free(self, standard_instance):
        r = epipolar_residual(
            standard_instance["F"], standard_instance["X"], standard_instance["Y"]
        )
        assert r < 1e-28

    def test_scale_invariance(self, standard_instance):
        X, Y = standard_instance["X"], standard_instance["Y"]
        r1 = epipolar_residual(np.eye(3), X, Y)
        r2 = epipolar_residual(-7.0 * np.eye(3), X, Y)
        assert np.isclose(r1, r2)

    def test_length_mismatch(self, standard_instance):
        with pytest.raises(LengthMismatch):
            epipolar_residual(
                standard_instance["F"],
                standard_instance["X"][:4],
                standard_instance["Y"],
            )


class TestGrassmannAngle:
    def test_same_subspace_is_zero(self):
        F = np.arange(9.0).reshape(3, 3) + 1.0
        assert grassmann_angle(F, -2.5 * F) < 1e-15

    def test_orthogonal_is_right_angle(self):
        F1 = np.zeros((3, 3))
        F1[0, 0] = 1.0
        F2 = np.zeros((3, 3))
        F2[1, 1] = 1.0
        assert np.isclose(grassmann_angle(F1, F2), np.pi / 2)

    def test_small_angle_accuracy(self):
        # A perturbation of 1e-12 orthogonal to F must register as an angle
        # of about 1e-12, well below the arccos quantization floor.
        F = np.zeros((3, 3))
        F[0, 0] = 1.0
        G = F.copy()
        G[1, 1] = 1e-12
        a = grassmann_angle(F, G)
        assert 0.5e-12 < a < 2e-12

    def test_zero_matrix_raises(self):
        with pytest.raises(ZeroMatrix):
            grassmann_angle(np.zeros((3, 3)), np.eye(3))

    def test_range(self, rng):
        for _ in range(50):
            a = grassmann_angle(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
            assert 0.0 <= a <= np.pi / 2 + 1e-15
