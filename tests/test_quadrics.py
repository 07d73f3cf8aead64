import numpy as np
import pytest

from epicube.degeneracy import (
    UNIT_CUBE_VERTICES,
    VERONESE_I,
    VERONESE_J,
    unit_cube,
    veronese_matrix,
)
from epicube.exceptions import AtInfinity, NoQuadric, PencilOfQuadrics
from epicube.projective import proj_equal
from epicube.quadrics import (
    DEGENERATE,
    EMPTY,
    NONRULED_NONDEGENERATE,
    RULED_NONDEGENERATE,
    PlaneChart,
    classify,
    coeffs_to_matrix,
    delta1_coordinates,
    inertia,
    quadric_through_points,
    region_grid,
    ruled_region_delta1,
    unit_cube_quadric,
)

# The standard instance's focal points (second camera one unit closer).
F1 = np.array([-2.0, -3.0, -2.0, 1.0])
F2 = np.array([-2.0, -3.0, -1.0, 1.0])


class TestCoefficients:
    def test_round_trip(self, rng):
        # Each coefficient lands on its monomial's entry, split in two off
        # the diagonal.
        c = rng.standard_normal(10)
        Q = coeffs_to_matrix(c)
        assert np.array_equal(Q, Q.T)
        split = np.where(VERONESE_I == VERONESE_J, 1.0, 0.5)
        assert np.array_equal(Q[VERONESE_I, VERONESE_J], split * c)

    def test_veronese_pairing(self, rng):
        # veronese(p) . coeffs must equal p^T Q p.
        c = rng.standard_normal(10)
        p = rng.standard_normal(4)
        Q = coeffs_to_matrix(c)
        assert np.isclose(veronese_matrix([p])[0] @ c, p @ Q @ p)


class TestQuadricThroughPoints:
    def test_recovers_sphere(self, rng):
        # Nine generic points of the unit sphere x^2+y^2+z^2 = w^2.
        pts = []
        while len(pts) < 9:
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            pts.append([v[0], v[1], v[2], 1.0])
        Q = quadric_through_points(np.array(pts))
        assert proj_equal(Q, np.diag([1.0, 1.0, 1.0, -1.0]), tol=1e-8)

    def test_pencil_raises(self):
        # Eight cube vertices alone leave a 3-dimensional space of quadrics.
        with pytest.raises(PencilOfQuadrics):
            quadric_through_points(UNIT_CUBE_VERTICES)

    def test_no_quadric_raises(self, rng):
        pts = rng.standard_normal((11, 4))
        with pytest.raises(NoQuadric):
            quadric_through_points(pts)


class TestInertiaClassify:
    def test_sphere_is_nonruled(self):
        assert classify(np.diag([1.0, 1.0, 1.0, -1.0])).tag == NONRULED_NONDEGENERATE

    def test_hyperboloid_is_ruled(self):
        qc = classify(np.diag([1.0, 1.0, -1.0, -1.0]))
        assert qc.tag == RULED_NONDEGENERATE
        assert qc.inertia == (2, 2, 0)

    def test_empty(self):
        assert classify(np.diag([1.0, 2.0, 3.0, 4.0])).tag == EMPTY

    def test_degenerate(self):
        assert classify(np.diag([1.0, -1.0, 1.0, 0.0])).tag == DEGENERATE

    def test_sign_canonicalization(self):
        (np_, nm, nz), _ = inertia(np.diag([-1.0, -1.0, -1.0, 1.0]))
        assert (np_, nm, nz) == (3, 1, 0)

    def test_congruence_invariance(self, rng):
        Q = np.diag([2.0, 1.0, -1.0, -3.0])
        T = rng.standard_normal((4, 4))
        while abs(np.linalg.det(T)) < 0.1:
            T = rng.standard_normal((4, 4))
        assert classify(T.T @ Q @ T).tag == classify(Q).tag

    def test_asymmetric_raises(self):
        M = np.eye(4)
        M[0, 1] = 1.0
        with pytest.raises(ValueError):
            inertia(M)


class TestUnitCubeQuadric:
    def test_standard_focal_pair_diagonal(self):
        Q = unit_cube_quadric(F1, F2)
        assert proj_equal(Q, np.diag([-24.0, 9.0, 0.0, 15.0]), tol=1e-10)

    def test_agrees_with_general_fit(self, rng):
        for _ in range(10):
            f1 = np.append(rng.uniform(-6, 6, 3), 1.0)
            f2 = np.append(rng.uniform(-6, 6, 3), 1.0)
            try:
                Qf = unit_cube_quadric(f1, f2)
                Qg = quadric_through_points(
                    np.vstack([UNIT_CUBE_VERTICES, f1, f2])
                )
            except Exception:
                continue
            assert proj_equal(Qf, Qg, tol=1e-7)

    def test_contains_inputs(self, rng):
        f1 = np.array([2.0, 3.0, 4.0, 1.0])
        f2 = np.array([-1.0, 5.0, 2.0, 1.0])
        Q = unit_cube_quadric(f1, f2)
        for p in list(UNIT_CUBE_VERTICES) + [f1, f2]:
            assert abs(p @ Q @ p) < 1e-9 * (np.linalg.norm(p) ** 2)


class TestDelta1:
    def test_standard_focal_pair_coordinates(self):
        alpha, beta = delta1_coordinates(F1, F2)
        assert np.isclose(alpha, -24.0 / 15.0)
        assert np.isclose(beta, 9.0 / 15.0)

    def test_closed_form_examples(self):
        assert ruled_region_delta1(-1.0, -1.0)
        assert ruled_region_delta1(2.0, -0.5)
        assert not ruled_region_delta1(1.0, 1.0)

    def test_agrees_with_inertia_on_grid(self):
        for a in np.linspace(-4.0, 4.0, 33):
            for b in np.linspace(-4.0, 4.0, 33):
                g = -a - b - 1.0
                if min(abs(a), abs(b), abs(g)) < 1e-9:
                    continue
                tag = classify(np.diag([a, b, g, 1.0])).tag
                assert ruled_region_delta1(a, b) == (tag == RULED_NONDEGENERATE)

    def test_focal_point_at_infinity(self):
        with pytest.raises(AtInfinity):
            delta1_coordinates([1.0, 0.0, 0.0, 0.0], F2)


class TestRegionGrid:
    def test_grid_shape_and_classes(self):
        chart = PlaneChart(
            origin=(0.0, 0.0, 5.0),
            u_dir=(1.0, 0.0, 0.0),
            v_dir=(0.0, 1.0, 0.0),
            u_range=(-6.0, 6.0),
            v_range=(-6.0, 6.0),
        )
        cells = region_grid(unit_cube(), [2.0, 3.0, 4.0, 1.0], chart, 12)
        assert len(cells) == 144
        tags = {qc.tag for _, _, qc in cells}
        assert RULED_NONDEGENERATE in tags
        assert NONRULED_NONDEGENERATE in tags

    def test_unit_fast_path_matches_general(self):
        chart = PlaneChart(
            origin=(0.0, 0.0, 5.0),
            u_dir=(1.0, 0.0, 0.0),
            v_dir=(0.0, 1.0, 0.0),
            u_range=(-4.0, 4.0),
            v_range=(-4.0, 4.0),
        )
        f1 = [2.0, 3.0, 4.0, 1.0]
        fast = region_grid(unit_cube(), f1, chart, 6, method="unit")
        gen = region_grid(unit_cube(), f1, chart, 6, method="general")
        for (u1, v1, qa), (u2, v2, qb) in zip(fast, gen):
            assert (u1, v1) == (u2, v2)
            if min(qa.margin, qb.margin) > 1e-6:
                assert qa.tag == qb.tag

    def test_resolution_validation(self):
        chart = PlaneChart((0, 0, 5), (1, 0, 0), (0, 1, 0))
        with pytest.raises(ValueError):
            region_grid(unit_cube(), [2.0, 3.0, 4.0, 1.0], chart, 1)
