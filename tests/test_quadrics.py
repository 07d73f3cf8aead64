import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicube.degeneracy import (
    UNIT_CUBE_VERTICES,
    VERONESE_I,
    VERONESE_J,
    random_combinatorial_cube,
    unit_cube,
    veronese_matrix,
)
from epicube.exceptions import AtInfinity, NoQuadric, PencilOfQuadrics
from epicube.projective import focal_point, proj_equal
from epicube.quadrics import (
    DEGENERATE,
    EMPTY,
    NONRULED_NONDEGENERATE,
    RULED_NONDEGENERATE,
    PlaneChart,
    classify,
    coeffs_to_matrix,
    cube_quadric,
    delta1_coordinates,
    quadric_through_points,
    region_grid,
    ruled_region_delta1,
    unit_cube_quadric,
)
from epicube.simulate import CAMERA_RADIUS, sample_camera_pair

# The standard instance's focal points (second camera one unit closer).
F1 = np.array([-2.0, -3.0, -2.0, 1.0])
F2 = np.array([-2.0, -3.0, -1.0, 1.0])
# Eight uniform points in [-1, 1]^3: not a cube, no facet is coplanar.
NON_CUBE = np.append(np.random.default_rng(0).uniform(-1, 1, (8, 3)), np.ones((8, 1)), axis=1)


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
        np_, nm, nz = classify(np.diag([-1.0, -1.0, -1.0, 1.0])).inertia
        assert (np_, nm, nz) == (3, 1, 0)

    def test_congruence_invariance(self, rng):
        Q = np.diag([2.0, 1.0, -1.0, -3.0])
        T = rng.standard_normal((4, 4))
        while abs(np.linalg.det(T)) < 0.1:
            T = rng.standard_normal((4, 4))
        assert classify(T.T @ Q @ T).tag == classify(Q).tag

    def test_zero_raises(self):
        with pytest.raises(ValueError, match="zero quadric"):
            classify(np.zeros((4, 4)))

    def test_asymmetric_raises(self):
        M = np.eye(4)
        M[0, 1] = 1.0
        with pytest.raises(ValueError):
            classify(M)


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


class TestCubeQuadric:
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(-48, 48), min_size=6, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_is_the_ten_point_quadric(self, seed, coords):
        # Focal points on a 1/8 grid in [-6, 6]^3: distinct ones stay well
        # apart, and coincident ones leave a pencil.
        cube = random_combinatorial_cube(np.random.default_rng(seed))
        f1, f2 = (np.append(np.array(c) / 8.0, 1.0) for c in (coords[:3], coords[3:]))
        P = np.vstack([cube.vertices, f1, f2])
        try:
            Q = cube_quadric(cube, f1, f2)
        except PencilOfQuadrics:
            with pytest.raises(PencilOfQuadrics):
                quadric_through_points(P)
            return
        for p in P:
            assert abs(p @ Q @ p) <= 1e-9 * np.abs(Q).max() * (p @ p)
        try:
            G = quadric_through_points(P)
        except PencilOfQuadrics:
            return
        assert proj_equal(Q, G, tol=1e-8)

    def test_stack_matches_single_calls(self, rng):
        cube = random_combinatorial_cube(rng)
        f1 = np.array([2.0, 3.0, 4.0, 1.0])
        f2s = np.append(rng.uniform(-6, 6, (5, 3)), np.ones((5, 1)), axis=1)
        f2s[2] = f1
        Qs = cube_quadric(cube, f1, f2s)
        assert Qs.shape == (5, 4, 4)
        # The member with f2 = f1 leaves a pencil: zero in a stack, an
        # error alone.
        assert not Qs[2].any()
        with pytest.raises(PencilOfQuadrics):
            cube_quadric(cube, f1, f1)
        for i in (0, 1, 3, 4):
            assert np.allclose(Qs[i], cube_quadric(cube, f1, f2s[i]), rtol=0, atol=1e-14)

    def test_stored_pencil_matches_the_facet_products(self, rng):
        # Reference: cube_quadric as it built the facet pencil from the
        # planes on every call.  The pencil kept on the cube gives the same
        # quadrics bit for bit, for a point and for a stack.
        def reference(cube, c1, c2):
            near, far = cube.planes[0::2], cube.planes[1::2]
            q = 0.5 * (near[:, :, None] * far[:, None, :] + far[:, :, None] * near[:, None, :])
            c = np.vstack([c1, c2])
            s = (c / np.abs(c).max(axis=1, keepdims=True)) @ cube.planes.T
            a, b = s[0, 0::2] * s[0, 1::2], s[1:, 0::2] * s[1:, 1::2]
            lam = a[[1, 2, 0]] * b[:, [2, 0, 1]] - a[[2, 0, 1]] * b[:, [1, 2, 0]]
            ok = np.linalg.norm(lam, axis=1) > 1e-12 * np.linalg.norm(a) * np.linalg.norm(b, axis=1)
            Q = ((lam * ok[:, None]) @ q.reshape(3, 16)).reshape(-1, 4, 4)
            return Q[0] if np.ndim(c2) == 1 else Q

        for cube in [unit_cube()] + [random_combinatorial_cube(rng) for _ in range(20)]:
            f1 = np.append(rng.uniform(-6, 6, 3), 1.0)
            f2s = np.append(rng.uniform(-6, 6, (50, 3)), np.ones((50, 1)), axis=1)
            # A pencil, and a point within rounding of one: both zero.
            f2s[7], f2s[8] = f1, f1 + [1e-14, 0.0, 0.0, 0.0]
            assert not cube_quadric(cube, f1, f2s)[[7, 8]].any()
            assert np.array_equal(cube_quadric(cube, f1, f2s), reference(cube, f1, f2s))
            assert np.array_equal(cube_quadric(cube, f1, f2s[0]), reference(cube, f1, f2s[0]))
            assert not cube.pencil.flags.writeable

    def test_homogeneous_scale_invariance_at_extreme_scales(self, rng):
        cube = random_combinatorial_cube(rng)
        f1 = np.array([2.0, 3.0, 4.0, 1.0])
        f2 = np.array([-3.0, 1.0, 5.0, 1.0])
        Q = cube_quadric(cube, f1, f2)
        for s in (1e-200, 1e200):
            assert proj_equal(cube_quadric(cube.vertices * s, f1 * s, f2 / s), Q, tol=1e-9)

    def test_non_cube_rejected(self):
        # The facet pencil spans the quadrics through a cube only.
        with pytest.raises(ValueError, match="not a combinatorial cube"):
            cube_quadric(NON_CUBE, [2.0, 3.0, 4.0, 1.0], [-3.0, 1.0, 5.0, 1.0])

    def test_near_coincident_focal_points_keep_a_unique_quadric(self):
        # f2 within 1e-6 of f1: ill-conditioned, but one quadric still fits.
        cube = random_combinatorial_cube(np.random.default_rng(3))
        f1 = np.array([2.0, 3.0, 4.0, 1.0])
        f2 = f1 + np.array([1e-6, -2e-6, 1e-6, 0.0])
        G = quadric_through_points(np.vstack([cube.vertices, f1, f2]))
        assert proj_equal(cube_quadric(cube, f1, f2), G, tol=1e-6)

    def test_sweep_gate_verdict_matches_veronese(self):
        # The noise sweep accepts a geometry on the facet-pencil verdict;
        # the Veronese fit must give the same one.
        rng = np.random.default_rng(2024)
        nonruled = 0
        for _ in range(300):
            cube = random_combinatorial_cube(rng)
            A1, A2 = sample_camera_pair(rng, CAMERA_RADIUS)
            c1, c2 = focal_point(A1), focal_point(A2)
            fast = classify(cube_quadric(cube, c1, c2)).tag
            slow = classify(quadric_through_points(np.vstack([cube.vertices, c1, c2]))).tag
            assert (fast == NONRULED_NONDEGENERATE) == (slow == NONRULED_NONDEGENERATE)
            nonruled += fast == NONRULED_NONDEGENERATE
        assert 0 < nonruled < 300


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

    def test_coincident_focal_points(self):
        # Equal rows leave the delta minor at zero.
        with pytest.raises(AtInfinity, match="delta minor"):
            delta1_coordinates(F1, F1)


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

    def test_random_cube_batched_matches_general(self):
        chart = PlaneChart((0.0, 0.0, 5.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        f1 = [2.0, 3.0, 4.0, 1.0]
        rng = np.random.default_rng(7)
        tags = set()
        for _ in range(2):
            cube = random_combinatorial_cube(rng)
            fast = region_grid(cube, f1, chart, 20)
            gen = region_grid(cube, f1, chart, 20, method="general")
            assert len(fast) == len(gen) == 400
            for (u1, v1, qa), (u2, v2, qb) in zip(fast, gen):
                assert (u1, v1) == (u2, v2)
                tags.add(qa.tag)
                if min(qa.margin, qb.margin) > 1e-6:
                    assert qa.tag == qb.tag
        assert {RULED_NONDEGENERATE, NONRULED_NONDEGENERATE} <= tags

    def test_cells_match_single_point_classify(self):
        # One inertia rule: each batched cell is what classify gives the
        # cell's own quadric.
        cube = random_combinatorial_cube(np.random.default_rng(11))
        chart = PlaneChart((0.0, 0.0, 5.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        f1 = np.array([2.0, 3.0, 4.0, 1.0])
        for u, v, qc in region_grid(cube, f1, chart, 12):
            one = classify(cube_quadric(cube, f1, chart.point(u, v)))
            assert (one.tag, one.inertia) == (qc.tag, qc.inertia)
            assert one.margin == pytest.approx(qc.margin, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("method", ["auto", "general"])
    def test_cell_at_f1_is_degenerate(self, method):
        # f2 = f1 at the chart's origin: a pencil of quadrics fits, which
        # the closed form gives as the zero matrix and the general fit skips.
        # Elsewhere on the axes u = 0 and v = 0 the quadric is singular but
        # not zero.
        f1 = [2.0, 3.0, 4.0, 1.0]
        chart = PlaneChart(tuple(f1[:3]), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0), (0.0, 1.0))
        cells = {(u, v): qc for u, v, qc in region_grid(unit_cube(), f1, chart, 3, method=method)}
        assert (cells[0.0, 0.0].tag, cells[0.0, 0.0].inertia) == (DEGENERATE, (0, 0, 4))
        assert [uv for uv, qc in cells.items() if qc.inertia == (0, 0, 4)] == [(0.0, 0.0)]

    @pytest.mark.parametrize("method", ["auto", "general"])
    def test_seven_vertices_rejected(self, method):
        # Both methods take a raw vertex array through the same cube check.
        chart = PlaneChart((0, 0, 5), (1, 0, 0), (0, 1, 0))
        with pytest.raises(ValueError, match="exactly 8 vertices"):
            region_grid(UNIT_CUBE_VERTICES[:7], [2.0, 3.0, 4.0, 1.0], chart, 3, method=method)

    @pytest.mark.parametrize("method", ["auto", "unit", "general"])
    def test_non_cube_rejected(self, method):
        chart = PlaneChart((0, 0, 5), (1, 0, 0), (0, 1, 0))
        with pytest.raises(ValueError, match="not a combinatorial cube"):
            region_grid(NON_CUBE, [2.0, 3.0, 4.0, 1.0], chart, 10, method=method)

    def test_unknown_method_raises(self):
        chart = PlaneChart((0, 0, 5), (1, 0, 0), (0, 1, 0))
        with pytest.raises(ValueError):
            region_grid(unit_cube(), [2.0, 3.0, 4.0, 1.0], chart, 4, method="veronese")

    def test_resolution_validation(self):
        chart = PlaneChart((0, 0, 5), (1, 0, 0), (0, 1, 0))
        with pytest.raises(ValueError):
            region_grid(unit_cube(), [2.0, 3.0, 4.0, 1.0], chart, 1)
