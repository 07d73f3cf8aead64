import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epicube.degeneracy import random_combinatorial_cube
from epicube.estimators import (
    cube_eight_point,
    eckart_young_rank7,
    eight_point,
    fundamental_from_cameras,
    hartley_normalize,
    pencil_solve,
    seven_point,
)
from epicube.exceptions import (
    CoincidentCenters,
    DegenerateCloud,
    DegenerateInput,
    DependentInputs,
    IdenticallyZeroPencil,
)
from epicube.projective import (
    epipolar_residual,
    focal_point,
    grassmann_angle,
    homogenize,
    proj_equal,
    project_all,
)
from epicube.quadrics import NONRULED_NONDEGENERATE, classify, quadric_through_points
from epicube.simulate import add_noise, sample_camera_pair


def generic_scene(rng, n=8):
    """n generic world points viewed by two fixed cameras."""
    P = homogenize(rng.uniform(-1.0, 1.0, size=(n, 3)))
    A1 = np.hstack([np.eye(3), np.array([[4.0], [0.0], [8.0]])])
    A2 = np.hstack([np.eye(3), np.array([[-3.0], [2.0], [9.0]])])
    return project_all(A1, P), project_all(A2, P), fundamental_from_cameras(A1, A2)


@pytest.fixture(scope="module")
def nonruled_pool():
    """Noise-free images of a few well-posed cube geometries, with true F."""
    rng = np.random.default_rng(2024)
    pool = []
    while len(pool) < 4:
        cube = random_combinatorial_cube(rng)
        A1, A2 = sample_camera_pair(rng, 6.0)
        P = np.vstack([cube.vertices, focal_point(A1), focal_point(A2)])
        if classify(quadric_through_points(P)).tag == NONRULED_NONDEGENERATE:
            X = project_all(A1, cube.vertices)
            Y = project_all(A2, cube.vertices)
            pool.append((X, Y, fundamental_from_cameras(A1, A2)))
    return pool


class TestHartleyNormalize:
    def test_centroid_and_scale(self, rng):
        pts = homogenize(rng.uniform(-5.0, 3.0, size=(20, 2)))
        T, out = hartley_normalize(pts)
        aff = out[:, :2] / out[:, 2][:, None]
        assert np.allclose(aff.mean(axis=0), 0.0, atol=1e-12)
        assert np.isclose(np.mean(np.linalg.norm(aff, axis=1)), np.sqrt(2.0))

    def test_transform_consistency(self, rng):
        pts = homogenize(rng.uniform(-2.0, 2.0, size=(10, 2)))
        T, out = hartley_normalize(pts)
        assert np.allclose(pts @ T.T, out)

    def test_coincident_points_raise(self):
        pts = np.tile([1.0, 2.0, 1.0], (5, 1))
        with pytest.raises(DegenerateCloud):
            hartley_normalize(pts)


class TestEightPoint:
    def test_recovers_f_for_generic_points(self, rng):
        X, Y, F_true = generic_scene(rng)
        F = eight_point(X, Y)
        assert grassmann_angle(F, F_true) < 1e-9

    def test_cube_input_raises_degenerate(self, standard_instance):
        with pytest.raises(DegenerateInput) as info:
            eight_point(standard_instance["X"], standard_instance["Y"])
        assert info.value.kernel_dim == 2

    def test_too_few_points(self, rng):
        X, Y, _ = generic_scene(rng, n=6)
        with pytest.raises(ValueError):
            eight_point(X, Y)


class TestFundamentalFromCameras:
    def test_epipolar_constraint_holds(self, rng):
        X, Y, F = generic_scene(rng, n=12)
        assert epipolar_residual(F, X, Y) < 1e-24

    def test_rank_two(self, standard_instance):
        F = fundamental_from_cameras(standard_instance["A1"], standard_instance["A2"])
        assert np.linalg.matrix_rank(F) == 2
        assert proj_equal(F, standard_instance["F"])

    def test_coincident_centers(self, standard_instance):
        A = standard_instance["A1"]
        with pytest.raises(CoincidentCenters):
            fundamental_from_cameras(A, 3.0 * A)


class TestPencilSolve:
    def test_roots_are_rank_two(self, rng):
        F1 = rng.standard_normal((3, 3))
        F2 = rng.standard_normal((3, 3))
        sol = pencil_solve(F1, F2)
        for a, F in zip(sol.roots, sol.candidates):
            M = a * F1 + (1.0 - a) * F2
            s = np.linalg.svd(M, compute_uv=False)
            assert s[2] <= 1e-8 * s[0]
            assert proj_equal(F, M, tol=1e-6)

    def test_dependent_inputs(self, rng):
        F1 = rng.standard_normal((3, 3))
        with pytest.raises(DependentInputs):
            pencil_solve(F1, 2.0 * F1)

    def test_identically_zero_pencil(self):
        F1 = np.zeros((3, 3))
        F1[0, 0] = 1.0
        F2 = np.zeros((3, 3))
        F2[0, 1] = 1.0
        with pytest.raises(IdenticallyZeroPencil):
            pencil_solve(F1, F2)

    def test_triple_root_accuracy(self, standard_instance):
        # The standard instance's pencil determinant has a triple root;
        # cluster-mean extraction must still localize it to O(eps).
        from epicube.degeneracy import build_Z, kernel_basis

        basis = kernel_basis(build_Z(standard_instance["X"], standard_instance["Y"]))
        sol = pencil_solve(basis[0].reshape(3, 3), basis[1].reshape(3, 3))
        best = min(
            grassmann_angle(F, standard_instance["F"]) for F in sol.candidates
        )
        assert best < 1e-10


class TestSevenPoint:
    def test_true_f_among_candidates(self, rng):
        X, Y, F_true = generic_scene(rng, n=7)
        sol = seven_point(X, Y)
        assert min(grassmann_angle(F, F_true) for F in sol.candidates) < 1e-9

    def test_needs_exactly_seven(self, rng):
        X, Y, _ = generic_scene(rng, n=8)
        with pytest.raises(ValueError):
            seven_point(X, Y)

    def test_best_selects_minimal_residual(self, rng):
        X, Y, F_true = generic_scene(rng, n=8)
        sol = seven_point(X[:7], Y[:7])
        F, resid = sol.best(X, Y)
        assert resid == min(epipolar_residual(G, X, Y) for G in sol.candidates)
        assert grassmann_angle(F, F_true) < 1e-9


class TestEckartYoung:
    def test_rank_and_distance(self, rng):
        Z = rng.standard_normal((8, 9))
        Zp = eckart_young_rank7(Z)
        s = np.linalg.svd(Z, compute_uv=False)
        assert np.linalg.matrix_rank(Zp, tol=1e-10 * s[0]) <= 7
        assert np.isclose(np.linalg.norm(Z - Zp), s[7], rtol=1e-12)


class TestCubeEightPoint:
    def test_standard_instance(self, standard_instance):
        F = cube_eight_point(standard_instance["X"], standard_instance["Y"])
        assert grassmann_angle(F, standard_instance["F"]) < 1e-10

    def test_normalization_equivariance(self, rng):
        # On noise-free affine data the normalized and unnormalized paths
        # agree projectively.
        cube = random_combinatorial_cube(rng)
        A1, A2 = sample_camera_pair(rng, 6.0)
        X = project_all(A1, cube.vertices)
        Y = project_all(A2, cube.vertices)
        Fa = cube_eight_point(X, Y, normalize=True)
        Fb = cube_eight_point(X, Y, normalize=False)
        assert grassmann_angle(Fa, Fb) < 1e-6

    def test_noisy_selection_is_minimal_residual(self, standard_instance, rng):
        Xn = add_noise(standard_instance["X"], 0.01, rng)
        # The second image of the fixture contains points at infinity which
        # cannot carry affine noise; perturb the affine image only.
        Y = standard_instance["Y"]
        F = cube_eight_point(Xn, Y)
        assert epipolar_residual(F, Xn, Y) < 1e-2

    def test_needs_exactly_eight(self, standard_instance):
        with pytest.raises(ValueError):
            cube_eight_point(standard_instance["X"][:7], standard_instance["Y"][:7])

    @given(
        which=st.integers(0, 3),
        perm=st.permutations(range(8)),
        exponents=st.lists(st.integers(-300, 300), min_size=16, max_size=16),
    )
    @example(which=0, perm=list(range(8)), exponents=[200] * 16)
    @example(which=0, perm=list(range(8)), exponents=[-200] * 16)
    @settings(max_examples=40, deadline=None)
    def test_permutation_and_extreme_scale_invariance(self, nonruled_pool, which, perm, exponents):
        # Each homogeneous image point is rescaled by its own 10^k.
        X, Y, F_true = nonruled_pool[which]
        scale = 10.0 ** np.array(exponents, dtype=float)[:, None]
        Xs, Ys = X[perm] * scale[:8], Y[perm] * scale[8:]
        assert grassmann_angle(cube_eight_point(Xs, Ys), F_true) < 1e-8
        G = np.arange(9.0).reshape(3, 3)
        assert epipolar_residual(G, Xs, Ys) == pytest.approx(epipolar_residual(G, X, Y), rel=1e-9)
