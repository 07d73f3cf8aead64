import warnings

import numpy as np
import pytest

from epicube.exceptions import (
    FocalPointProjection,
    LengthMismatch,
    RankDeficientCamera,
    ZeroMatrix,
)
from epicube.projective import (
    _focal_points,
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
    project_all,
)
from epicube.simulate import sample_camera_pair


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

    @pytest.mark.parametrize("shape", [(5, 2), (5, 4), (2, 5, 3)])
    def test_as_points_shape(self, shape):
        with pytest.raises(ValueError, match="points, got shape"):
            as_points(np.ones(shape), 3)


class TestCanon:
    def test_unit_norm_positive_lead(self):
        v = canon([-2.0, 0.0, 4.0])
        assert np.isclose(np.linalg.norm(v), 1.0)
        assert v[0] > 0

    def test_zero_raises(self):
        with pytest.raises(ZeroMatrix):
            canon(np.zeros(3))

    def test_power_of_two_scales_keep_bits(self):
        # Scalings beyond about 2**+-500 take the rescaled branch; it must
        # give the very bits of the unscaled input.
        M = np.array([[0.3, -1.7, 2.2], [1e-3, 0.9, -0.4], [5.0, -2.5, 0.11]])
        expected = canon(M)
        for k in range(-1000, 1001):
            assert np.array_equal(canon(np.ldexp(M, k)), expected), k

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            canon([1.0, bad, 0.0])

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

    def test_stack_equals_per_cloud(self, rng):
        P = rng.standard_normal((3, 5, 3))
        assert dehomogenize(np.ones((2, 4, 3))).shape == (2, 4, 2)
        assert np.array_equal(dehomogenize(P), np.array([dehomogenize(cloud) for cloud in P]))

    @pytest.mark.parametrize("cloud", range(3))
    def test_point_at_infinity_in_a_stack(self, cloud, rng):
        P = rng.standard_normal((3, 4, 3))
        P[cloud, 2, 2] = 0.0
        with pytest.raises(ValueError, match="infinity"):
            dehomogenize(P)


class TestCamera:
    def test_project_matches_matrix_action(self, standard_instance):
        A1 = standard_instance["A1"]
        for v, x in zip(standard_instance["cube"], standard_instance["X"]):
            assert np.allclose(project_all(A1, [v])[0], x)

    def test_project_all(self, standard_instance):
        X = project_all(standard_instance["A1"], standard_instance["cube"])
        assert np.allclose(X, standard_instance["X"])

    def test_project_focal_point_raises(self, standard_instance):
        c = focal_point(standard_instance["A1"])
        with pytest.raises(FocalPointProjection):
            project_all(standard_instance["A1"], [c])

    @pytest.mark.parametrize("row", range(8))
    def test_project_all_focal_point_raises(self, standard_instance, row):
        P = np.array(standard_instance["cube"], dtype=float)
        P[row] = focal_point(standard_instance["A1"])
        with pytest.raises(FocalPointProjection):
            project_all(standard_instance["A1"], P)

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170, 1e300])
    def test_project_all_at_extreme_scales(self, standard_instance, scale):
        # Scaling the points or the camera scales the image and leaves the
        # camera centre the one point that projects to zero.
        A = np.array(standard_instance["A1"], dtype=float)
        P = np.array(standard_instance["cube"], dtype=float)
        X = project_all(A, P)
        assert proj_equal(project_all(A, P * scale), X)
        assert proj_equal(project_all(A * scale, P), X)
        assert np.array_equal(project_all(A, [P[0] * scale])[0], A @ (P[0] * scale))
        for cam, c in ((A, focal_point(A) * scale), (A * scale, focal_point(A))):
            with pytest.raises(FocalPointProjection):
                project_all(cam, [c])
            with pytest.raises(FocalPointProjection):
                project_all(cam, np.vstack([P, c]))

    @pytest.mark.parametrize("camera_scale, point_scale", [(1e300, 1e10), (1e-300, 1e-30), (2.0**-1000, 2.0**-60)])
    def test_project_all_rescales_where_the_product_leaves_the_range(
        self, standard_instance, camera_scale, point_scale
    ):
        # Raw products would be inf and NaN, zero, or subnormal: the image
        # points come back finite, normal and right up to scale, and a row
        # whose product stays in range keeps its bits.
        A = np.array(standard_instance["A1"], dtype=float)
        P = np.array(standard_instance["cube"], dtype=float)
        X = project_all(A, P)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Xs = project_all(A * camera_scale, P * point_scale)
            mixed = project_all(A * camera_scale, np.vstack([P[:1] * point_scale, P[1:] / camera_scale]))
        assert np.all(np.abs(Xs).max(axis=1) >= np.finfo(float).tiny) and np.isfinite(Xs).all()
        assert all(proj_equal(x, y) for x, y in zip(Xs, X))
        assert np.array_equal(mixed[1:], np.einsum("ij,nj->ni", A * camera_scale, P[1:] / camera_scale))
        assert proj_equal(mixed[0], X[0])
        as_points(Xs, 3)

    @pytest.mark.parametrize("scale", [1.0, 1e-170, 1e170])
    @pytest.mark.parametrize("offset, raises", [(1e-14, True), (1e-9, False)])
    def test_centre_tolerance_at_every_scale(self, standard_instance, scale, offset, raises):
        # |A p| <= 1e-12 |A| |p| decides, whether the product is tested as it
        # is (scale 1) or on rescaled rows (the extreme scales).
        A = np.array(standard_instance["A1"], dtype=float)
        p = (focal_point(A) + offset * np.array([1.0, 0.0, 0.0, 0.0])) * scale
        P = np.vstack([standard_instance["cube"], p])
        if raises:
            with pytest.raises(FocalPointProjection):
                project_all(A, P)
        else:
            assert np.array_equal(project_all(A, P), np.einsum("ij,nj->ni", A, P))

    def test_focal_point_in_kernel(self, standard_instance):
        for A in (standard_instance["A1"], standard_instance["A2"]):
            c = focal_point(A)
            assert np.allclose(A @ c, 0.0, atol=1e-12)

    def test_rank_deficient_camera(self):
        A = np.zeros((3, 4))
        A[0, 0] = 1.0
        with pytest.raises(RankDeficientCamera):
            focal_point(A)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 4), (2, 3, 4), (12,)])
    def test_focal_point_needs_a_3x4_camera(self, shape):
        with pytest.raises(ValueError, match="3x4"):
            focal_point(np.ones(shape))

    @pytest.mark.parametrize("shape", [(3, 3), (4, 4), (2, 3, 4), (12,)])
    def test_project_all_needs_a_3x4_camera(self, standard_instance, shape):
        with pytest.raises(ValueError, match="3x4"):
            project_all(np.ones(shape), standard_instance["cube"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_camera_is_rejected(self, standard_instance, bad):
        # Unchecked, NaN gave NaN images and inf gave inf images; the centre's
        # SVD raised LinAlgError, or for some cameras never returned.
        A = np.array(standard_instance["A1"], dtype=float)
        A[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            project_all(A, standard_instance["cube"])
        with pytest.raises(ValueError, match="finite"):
            focal_point(A)

    def test_stack_is_focal_point_bit_for_bit(self, rng, standard_instance):
        # One SVD of a stack gives each camera's centre as focal_point does,
        # for a pair of look-at cameras as the sweep's gate stacks them too.
        A = rng.standard_normal((300, 3, 4)) * rng.uniform(1e-3, 1e3, (300, 1, 1))
        A[:2] = standard_instance["A1"], standard_instance["A2"]
        for stack in (A, A[:2], A[2:3]):
            assert all(np.array_equal(c, focal_point(a)) for a, c in zip(stack, _focal_points(stack)))
        pair = np.array(sample_camera_pair(rng, 6.0))
        assert all(np.array_equal(c, focal_point(a)) for a, c in zip(pair, _focal_points(pair)))

    def test_rank_deficient_camera_in_a_stack(self, rng):
        A = rng.standard_normal((5, 3, 4))
        A[3, 2] = A[3, 0] - 2.0 * A[3, 1]
        _focal_points(np.delete(A, 3, axis=0))
        with pytest.raises(RankDeficientCamera):
            _focal_points(A)


class TestFmatrix:
    def test_canonical_is_projective_representative(self):
        F = np.diag([0.0, -3.0, 1.0])
        Fc = canonical_fmatrix(F)
        assert np.isclose(np.linalg.norm(Fc), 1.0)
        assert proj_equal(F, Fc)

    @pytest.mark.parametrize("shape", [(9,), (3, 4), (1, 3, 3)])
    def test_canonical_needs_a_3x3_matrix(self, shape):
        with pytest.raises(ValueError, match="3x3"):
            canonical_fmatrix(np.ones(shape))


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

    def test_no_correspondences(self, standard_instance):
        with pytest.raises(ValueError, match="at least one correspondence"):
            epipolar_residual(standard_instance["F"], np.zeros((0, 3)), np.zeros((0, 3)))

    @pytest.mark.parametrize("shape", [(9,), (4, 4), (2, 3, 3)])
    def test_needs_one_3x3_matrix(self, standard_instance, shape):
        # A stack of matrices is not a fundamental matrix either; stacks
        # are scored by the private core that _select runs.
        with pytest.raises(ValueError, match="3x3"):
            epipolar_residual(np.ones(shape), standard_instance["X"], standard_instance["Y"])


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

    def test_extreme_scales(self, rng):
        A, B = rng.standard_normal((2, 3, 3))
        expected = grassmann_angle(A, B)
        for e in range(-300, 301):
            assert np.isclose(grassmann_angle(10.0**e * A, B), expected, rtol=0.0, atol=1e-12), e
        assert grassmann_angle(1e300 * np.eye(3), np.eye(3)) < 1e-15

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        F = np.eye(3)
        F[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            grassmann_angle(F, np.eye(3))
        with pytest.raises(ValueError, match="finite"):
            grassmann_angle(np.eye(3), F)

    def test_range(self, rng):
        for _ in range(50):
            a = grassmann_angle(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
            assert 0.0 <= a <= np.pi / 2 + 1e-15
