import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epicube.degeneracy import (
    CUBE_LABELS,
    CUBE_POS,
    FACET_IDX,
    FACETS,
    UNIT_CUBE_VERTICES,
    CubeConfig,
    _cross3,
    _gram_screen,
    _integer_cube,
    _surely_nonconvex,
    bracket,
    build_Z,
    invariant_terms,
    is_combinatorial_cube,
    kernel_basis,
    numerical_rank,
    random_combinatorial_cube,
    unit_cube,
    veronese_matrix,
)
from epicube import degeneracy
from epicube.exceptions import DegenerateIntersection, ExhaustedRetries, LengthMismatch
from epicube.projective import as_points, focal_point, project_all


class TestVeronese:
    def test_monomial_order(self):
        v = veronese_matrix([[2.0, 3.0, 5.0, 7.0]])[0]
        expected = [4, 6, 10, 14, 9, 15, 21, 25, 35, 49]
        assert np.allclose(v, expected)

    def test_matrix_shape(self, rng):
        P = rng.standard_normal((6, 4))
        assert veronese_matrix(P).shape == (6, 10)

    def test_generic_ten_points_full_rank(self, rng):
        P = rng.standard_normal((10, 4))
        assert numerical_rank(veronese_matrix(P)) == 10

    def test_cube_veronese_rank_drops_to_seven(self):
        assert numerical_rank(veronese_matrix(UNIT_CUBE_VERTICES)) == 7

    def test_needs_a_point(self):
        with pytest.raises(ValueError, match="at least one point"):
            veronese_matrix(np.zeros((0, 4)))


class TestCross3:
    @given(st.lists(st.floats(-1e150, 1e150), min_size=6, max_size=6), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_rounds_as_np_cross(self, xs, n):
        # Bit for bit, signed zeros included, on vectors and on the (3, n)
        # stacks that the quadric core passes.
        a, b = xs[:3], xs[3:]
        assert np.array(_cross3(a, b)).tobytes() == np.cross(a, b).tobytes()
        B = np.array([b] + [xs[i : i + 3] for i in range(n - 1)])
        assert np.stack(_cross3(np.array(a), B.T), axis=1).tobytes() == np.cross(a, B).tobytes()

    @given(st.lists(st.integers(-(10**30), 10**30), min_size=9, max_size=9), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_exact_on_ints_and_fractions(self, xs, fractions):
        if fractions:
            xs = [Fraction(x, i + 2) for i, x in enumerate(xs)]
        a, b, x = xs[0:3], xs[3:6], xs[6:9]
        c = _cross3(a, b)
        assert all(type(v) is type(xs[0]) for v in c)
        assert sum(u * v for u, v in zip(c, a)) == 0 and sum(u * v for u, v in zip(c, b)) == 0
        # x . (a x b) = det [x; a; b].
        assert sum(u * v for u, v in zip(c, x)) == bracket([*x, 0], [*a, 0], [*b, 0], [0, 0, 0, 1])


class TestBuildZ:
    def test_reproduces_printed_matrix(self, standard_instance):
        Z = build_Z(standard_instance["X"], standard_instance["Y"])
        assert np.array_equal(Z, standard_instance["Z"])

    def test_row_is_bilinear_form(self, rng):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        F = rng.standard_normal((3, 3))
        row = build_Z([x], [y])[0]
        assert np.isclose(row @ F.reshape(-1), y @ F @ x)

    def test_length_mismatch(self, rng):
        with pytest.raises(LengthMismatch):
            build_Z(rng.standard_normal((3, 3)), rng.standard_normal((4, 3)))

    @pytest.mark.parametrize("scale", [2.0**-560, 2.0**560])
    def test_extreme_scales(self, standard_instance, scale):
        # Each row is the printed one times a power of two: no zero or
        # infinite row, and the rank stays 7.
        Z = build_Z(standard_instance["X"] * scale, standard_instance["Y"] * scale)
        ratio = Z[:, 0] / standard_instance["Z"][:, 0]
        assert np.array_equal(Z, ratio[:, None] * standard_instance["Z"])
        assert np.array_equal(np.exp2(np.round(np.log2(ratio))), ratio)
        assert numerical_rank(Z) == 7


class TestRankAndKernel:
    def test_fixture_kernel_dimension(self, standard_instance):
        Z = standard_instance["Z"]
        assert numerical_rank(Z) == 7
        assert len(kernel_basis(Z)) == 2

    def test_kernel_vectors_annihilated(self, standard_instance):
        Z = standard_instance["Z"]
        for v in kernel_basis(Z):
            assert np.linalg.norm(Z @ v) < 1e-10 * np.linalg.norm(Z)

    def test_wide_matrix_kernel(self):
        M = np.eye(3, 5)
        assert len(kernel_basis(M)) == 2

    def test_rank_of_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_matrix(self, shape):
        # An empty matrix has no singular values, hence no sigma_max to index.
        M = np.zeros(shape)
        assert numerical_rank(M) == 0
        basis = kernel_basis(M)
        assert len(basis) == shape[1]
        assert np.array_equal(np.abs(np.array(basis).reshape(shape[1], shape[1])), np.eye(shape[1]))

    @pytest.mark.parametrize(
        "helper", ["degeneracy.kernel_basis", "degeneracy.numerical_rank", "estimators.eckart_young_rank7"]
    )
    def test_svd_helpers_reject_non_finite_input(self, helper):
        # Unchecked, the SVD of this matrix with an inf never returned (and
        # numerical_rank gave 0), so the calls run in a child process that a
        # timeout ends.
        module, name = helper.split(".")
        code = (
            f"import math\nfrom epicube.{module} import {name}\n"
            "for bad in (math.inf, math.nan):\n"
            "    try:\n"
            f"        {name}([[1, 0, 0, .3], [0, 1, 0, -.2], [bad, 0, 1, 6]])\n"
            "    except ValueError as e:\n"
            "        assert 'must be finite' in str(e), e\n"
            "    else:\n"
            "        raise SystemExit(f'no ValueError on {bad}')\n"
        )
        src = os.path.dirname(os.path.dirname(degeneracy.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20)
        assert done.returncode == 0, done.stderr


def labelled(cube_vertices, f1, f2):
    """The 10-point configuration as a list of float rows by label: the
    cube in its eight slots, the focal points in 4 and 5."""
    config = [None] * 10
    for lab, v in zip((*CUBE_LABELS, 4, 5), (*cube_vertices, f1, f2)):
        config[lab] = [float(x) for x in v]
    return config


class TestTurnbullYoung:
    def test_vanishes_on_unit_cube_any_focals(self, rng):
        for _ in range(10):
            f1 = rng.standard_normal(4)
            f2 = rng.standard_normal(4)
            terms = invariant_terms(labelled(UNIT_CUBE_VERTICES, f1, f2))
            scale = np.max(np.abs(terms)) + 1.0
            assert abs(sum(terms)) < 1e-9 * scale

    def test_nonzero_on_generic_points(self, rng):
        config = rng.standard_normal((10, 4)).tolist()
        assert abs(sum(invariant_terms(config))) > 1e-12

    def test_each_label_appears_twice_per_monomial(self):
        from epicube.degeneracy import TY_MONOMIALS

        for _, brackets in TY_MONOMIALS:
            counts = np.zeros(10, dtype=int)
            for idx in brackets:
                for i in idx:
                    counts[i] += 1
            assert np.all(counts == 2)


class TestCombinatorialCube:
    def test_unit_cube_passes(self):
        ok, diag = is_combinatorial_cube(UNIT_CUBE_VERTICES)
        assert ok
        assert all(diag["coplanar"]) and all(diag["strict_side"])

    def test_broken_facet_fails(self):
        V = UNIT_CUBE_VERTICES.copy()
        V[0, 0] += 0.25
        ok, diag = is_combinatorial_cube(V)
        assert not ok
        assert not all(diag["coplanar"])

    def test_facet_planes_contain_their_vertices(self):
        planes = CubeConfig(UNIT_CUBE_VERTICES).planes
        for facet, plane in zip(FACETS, planes):
            for lab in facet:
                assert abs(plane @ UNIT_CUBE_VERTICES[CUBE_POS[lab]]) < 1e-12

    def test_facet_planes_match_per_facet_svd(self, rng):
        # The stacked SVD runs the same LAPACK routine on each facet as a
        # loop of single SVDs, so the planes agree bit for bit.
        for _ in range(20):
            cube = random_combinatorial_cube(rng)
            assert np.array_equal(cube.planes, per_facet_planes(cube.vertices))
            assert np.array_equal(CubeConfig(cube.vertices).planes, cube.planes)

    def test_vertex_at_infinity_fails(self):
        V = UNIT_CUBE_VERTICES.copy()
        V[6] = [1.0, 1.0, 1.0, 0.0]
        assert is_combinatorial_cube(V) == (False, {"affine": False, "coplanar": [], "strict_side": []})

    def test_non_cube_rejected(self):
        # Eight uniform points: no facet is coplanar.
        V = np.append(np.random.default_rng(0).uniform(-1, 1, (8, 3)), np.ones((8, 1)), axis=1)
        assert not is_combinatorial_cube(V)[0]
        with pytest.raises(ValueError, match="not a combinatorial cube"):
            CubeConfig(V)

    def test_checked_cube_is_frozen(self):
        # Reassigning the vertices would bypass the check and leave the
        # planes stale.
        cube = unit_cube()
        with pytest.raises(FrozenInstanceError):
            cube.vertices = np.random.default_rng(0).uniform(-1, 1, (8, 4))

    def test_keeps_a_copy_of_the_vertices(self):
        # Editing the caller's array afterwards leaves the checked cube, and
        # its planes, as they were.
        V = UNIT_CUBE_VERTICES.copy()
        cube = CubeConfig(V)
        V[0, 0] = 0.3
        assert np.array_equal(cube.vertices, UNIT_CUBE_VERTICES)
        assert np.array_equal(cube.planes, unit_cube().planes)

    def test_arrays_are_read_only(self):
        cube = unit_cube()
        for arr in (cube.vertices, cube.planes):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0.3

    def test_value_semantics(self):
        # Cubes compare and hash by their vertices; planes and pencil derive
        # from them.
        a, b = unit_cube(), CubeConfig(UNIT_CUBE_VERTICES * 0.5)
        assert a == unit_cube() and not a != unit_cube()
        assert a != b and not a == b
        assert len({a, unit_cube(), b}) == 2
        assert unit_cube() in [b, a] and unit_cube() not in [b]
        assert hash(a) == hash(unit_cube())
        # A non-cube compares False: NotImplemented would hand an array to
        # numpy, whose elementwise answer has no truth value.
        assert a != UNIT_CUBE_VERTICES and a != "cube" and a != None  # noqa: E711
        assert [a] != [UNIT_CUBE_VERTICES]

    def test_signed_zeros_hash_alike(self):
        # -0.0 == 0.0, so cubes that differ only there are equal and must
        # hash alike.
        V = UNIT_CUBE_VERTICES + [1.0, 0.0, 0.0, 0.0]
        W = V.copy()
        W[V == 0.0] = -0.0
        assert np.signbit(W).any()
        assert CubeConfig(V) == CubeConfig(W) and hash(CubeConfig(V)) == hash(CubeConfig(W))

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1.0, 1e170, 1e300])
    def test_extreme_scales(self, scale):
        ok, diag = is_combinatorial_cube(UNIT_CUBE_VERTICES * scale)
        assert ok and diag["affine"]
        assert np.array_equal(CubeConfig(UNIT_CUBE_VERTICES * scale).planes, unit_cube().planes)

    def test_nonconvex_fails_strict_side_only(self):
        # A projective map that sends a plane through the cube to infinity
        # keeps every facet planar but makes the affine polytope nonconvex.
        T = np.eye(4)
        T[3, 0] = 2.0
        ok, diag = is_combinatorial_cube(UNIT_CUBE_VERTICES @ T.T)
        assert not ok
        assert all(diag["coplanar"]) and not all(diag["strict_side"])


def per_facet_planes(V):
    """Best-fit plane of each facet's 4 points, one SVD per facet."""
    return np.array([np.linalg.svd(V[[CUBE_POS[lab] for lab in f]])[2][3] for f in FACETS])


def reference_is_combinatorial_cube(vertices):
    """The convexity check with each facet's flatness from its bracket on
    Python floats and its plane from its own SVD: an independent oracle
    for the single stacked facet SVD."""
    V = as_points(vertices, 4)
    if V.shape != (8, 4):
        raise ValueError("a cube has exactly 8 vertices")
    tol = 1e-8
    if np.any(np.abs(V[:, 3]) <= tol * np.linalg.norm(V, axis=1)):
        return False, {"affine": False, "coplanar": [], "strict_side": []}
    V = V / V[:, 3][:, None]
    bound = tol * np.maximum(np.linalg.norm(V, axis=1)[FACET_IDX].max(axis=1) ** 4, 1.0)
    rows = V.tolist()
    dets = np.array([bracket(*(rows[i] for i in idx)) for idx in FACET_IDX.tolist()])
    coplanar = np.abs(dets) <= bound
    vals = np.einsum("kj,kij->ki", per_facet_planes(V), V[FACET_IDX[[1, 0, 3, 2, 5, 4]]])
    strict = np.all(vals > bound[:, None], axis=1) | np.all(vals < -bound[:, None], axis=1)
    diag = {"affine": True, "coplanar": coplanar.tolist(), "strict_side": strict.tolist()}
    return bool(coplanar.all() and strict.all()), diag


@st.composite
def sampler_candidates(draw):
    """Float vertices of one exact sampler draw: as drawn, with every vertex
    pushed off its facets by noise, or with one vertex reflected through the
    plane of a facet it is not on."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    try:
        nums, dens = _integer_cube(rng, True)
    except DegenerateIntersection:
        assume(False)
    V = np.array([[n / d for n, d in zip(row, dens)] + [1.0] for row in nums])
    kind = draw(st.sampled_from(["exact", "off_facets", "across"]))
    if kind == "off_facets":
        V[:, :3] += 10.0 ** draw(st.floats(-12, -2)) * rng.standard_normal((8, 3))
    elif kind == "across":
        k = draw(st.integers(0, 7))
        f = draw(st.sampled_from([f for f in range(6) if k not in FACET_IDX[f]]))
        plane = per_facet_planes(V)[f]
        n = plane[:3]
        V[k, :3] -= 2.0 * (plane @ V[k]) / (n @ n) * n
    return V


class TestReferenceConvexity:
    @given(sampler_candidates())
    @settings(max_examples=300, deadline=None)
    def test_matches_bracket_reference(self, V):
        assert is_combinatorial_cube(V) == reference_is_combinatorial_cube(V)


def reference_random_cube(rng):
    """random_combinatorial_cube without the integer screen: CubeConfig
    checks every candidate."""
    for _ in range(degeneracy.MAX_CUBE_CANDIDATES):
        try:
            nums, dens = _integer_cube(rng, True)
            return CubeConfig(np.array([[n / d for n, d in zip(row, dens)] + [1.0] for row in nums]))
        except (DegenerateIntersection, ValueError):
            continue
    raise ExhaustedRetries("no valid cube")


class TestConvexityScreen:
    def test_sampler_matches_the_unscreened_one(self):
        # The screen changes no cube and no generator state.
        for seed in range(500):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            assert random_combinatorial_cube(fast) == reference_random_cube(slow)
            assert fast.bit_generator.state == slow.bit_generator.state

    def test_rejects_only_what_the_check_rejects(self):
        # Every candidate the integer screen rejects fails CubeConfig, on
        # 5,000 candidates; the screen rejects most and passes some.
        rng = np.random.default_rng(17)
        verdicts = []
        while len(verdicts) < 5000:
            try:
                nums, dens = _integer_cube(rng, True)
            except DegenerateIntersection:
                continue
            screened = _surely_nonconvex(nums)
            if screened:
                with pytest.raises(ValueError, match="not a combinatorial cube"):
                    CubeConfig(np.array([[n / d for n, d in zip(row, dens)] + [1.0] for row in nums]))
            verdicts.append(screened)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_vertex_on_or_across_a_facet_plane(self):
        # Tilting the unit cube's top facet to z = 1 + a x + b y keeps every
        # facet planar.  a = -1, b = 1 puts vertex 6 on the bottom facet's
        # plane z = -1 (a zero value), and a = -2 below it (a sign change);
        # the screen and the check both reject either.
        bottom = [[-1, -1, -1], [1, 1, -1], [-1, 1, -1], [1, -1, -1]]
        top = [[1, -1], [-1, 1], [1, 1], [-1, -1]]
        for a, b, rejected in ((0, 0, False), (-1, 1, True), (-2, 1, True)):
            nums = bottom + [[x, y, 1 + a * x + b * y] for x, y in top]
            assert _surely_nonconvex(nums) == rejected
            assert is_combinatorial_cube(np.array([row + [1] for row in nums], dtype=float))[0] != rejected


class OneMap:
    """A generator stand-in whose every integer draw is the map m."""

    def __init__(self, m):
        self.m = np.array(m)

    def integers(self, low, high, size):
        return self.m.copy()


def svd_rule(m):
    sv = np.linalg.svd(np.array(m) / 1000, compute_uv=False)
    return bool(sv[-1] >= sv[0] / 4.0)


class TestMapScreen:
    """``_gram_screen`` decides the affine-map rule from the Gram matrix's
    eigenvalues and leaves the near-boundary maps to the SVD."""

    def test_matches_the_svd_rule(self):
        # 100,000 seeded maps: every verdict the screen gives is the SVD's,
        # and it leaves exactly one map, 1.3e-7 from the ratio, to the SVD.
        Ms = np.random.default_rng(20).integers(-1000, 1001, size=(100_000, 3, 3))
        sv = np.linalg.svd(Ms / 1000, compute_uv=False)
        rule = (sv[:, -1] >= sv[:, 0] / 4.0).tolist()
        verdicts = [_gram_screen(m) for m in Ms.tolist()]
        undecided = [k for k, v in enumerate(verdicts) if v is None]
        assert undecided == [71801]
        assert abs(16.0 * (sv[71801, -1] / sv[71801, 0]) ** 2 - 1.0) < 1e-6
        assert all(v == r for v, r in zip(verdicts, rule) if v is not None)
        assert 0.25 < sum(rule) / len(rule) < 0.35

    @pytest.mark.parametrize(
        "m, fallback, accepted",
        [
            ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], True, True),
            ([[1000, 0, 0], [0, 1000, 0], [0, 0, 250]], True, True),
            ([[1000, 0, 0], [0, 1000, 0], [0, 0, 249]], False, False),
            ([[0, 1000, 0], [0, 0, -1000], [1000, 0, 0]], True, True),
            ([[-753, 456, 511], [-447, -454, 983], [819, -416, 399]], True, True),
        ],
        ids=["zero", "ratio-1/16", "below-1/16", "scaled-permutation", "drawn-near-1/16"],
    )
    def test_boundary_maps_get_the_svd_verdict(self, m, fallback, accepted):
        # The zero map, a Gram matrix that is a multiple of the identity and
        # ratios within 1e-6 of 1/16 (the drawn map is 1.1e-7 from it) go to
        # the SVD; _affine_map accepts each map exactly where the SVD does.
        assert (_gram_screen(m) is None) == fallback
        assert svd_rule(m) == accepted
        try:
            assert degeneracy._affine_map(OneMap(m)) == m and accepted
        except ExhaustedRetries:
            assert not accepted


class TestRandomCube:
    def test_samples_are_cubes_in_box(self, rng):
        for _ in range(5):
            cube = random_combinatorial_cube(rng)
            ok, _ = is_combinatorial_cube(cube.vertices)
            assert ok
            aff = cube.vertices[:, :3] / cube.vertices[:, 3][:, None]
            assert np.all(np.abs(aff) <= 1.0 + 1e-12)

    def test_affine_map_budget_raises_exhausted_retries(self, rng, monkeypatch):
        monkeypatch.setattr(degeneracy, "MAX_AFFINE_MAP_DRAWS", 0)
        with pytest.raises(ExhaustedRetries):
            _integer_cube(rng, True)
        with pytest.raises(ExhaustedRetries):
            random_combinatorial_cube(rng)

    def test_candidate_budget_raises_exhausted_retries(self, rng, monkeypatch):
        # Every normal form puts vertex 6 on the bottom facet's plane, so the
        # integer screen rejects each candidate and the candidate budget runs
        # out.
        bottom = [[-1, -1, -1], [1, 1, -1], [-1, 1, -1], [1, -1, -1]]
        nums = bottom + [[x, y, 1 - x + y] for x, y in ((1, -1), (-1, 1), (1, 1), (-1, -1))]
        drawn = []
        monkeypatch.setattr(degeneracy, "_normal_form", lambda rng: drawn.append(1) or nums)
        with pytest.raises(ExhaustedRetries, match="no valid cube"):
            random_combinatorial_cube(rng)
        assert len(drawn) == degeneracy.MAX_CUBE_CANDIDATES

    def test_skips_a_candidate_whose_planes_meet_at_infinity(self, rng, monkeypatch):
        # The first normal form's facet planes meet at infinity (w = 0), so
        # _normal_form raises DegenerateIntersection; the next draw is used.
        closure, closed = degeneracy.cube_closure, []

        def at_infinity_first(p1, p6, p7):
            closed.append(closure(p1, p6, p7))
            return (*closed[-1][:3], 0) if len(closed) == 1 else closed[-1]

        monkeypatch.setattr(degeneracy, "cube_closure", at_infinity_first)
        cube = random_combinatorial_cube(rng)
        assert len(closed) >= 2 and is_combinatorial_cube(cube.vertices)[0]

    def test_skips_flat_and_rejected_candidates(self, monkeypatch):
        # With the convexity screen off every candidate reaches _fit: the
        # first is fitted by the zero map, which _fit finds flat, and the
        # nonconvex ones after it reach CubeConfig, which rejects them.
        fit, check, fitted, rejected = degeneracy._fit, degeneracy.CubeConfig, [], []

        def zero_map_first(M, pts):
            fitted.append(M)
            return fit([[0, 0, 0]] * 3 if len(fitted) == 1 else M, pts)

        def config(vertices):
            try:
                return check(vertices)
            except ValueError:
                rejected.append(vertices)
                raise

        monkeypatch.setattr(degeneracy, "_surely_nonconvex", lambda pts: False)
        monkeypatch.setattr(degeneracy, "_fit", zero_map_first)
        monkeypatch.setattr(degeneracy, "CubeConfig", config)
        cube = random_combinatorial_cube(np.random.default_rng(0))
        assert rejected and len(fitted) == len(rejected) + 2
        assert is_combinatorial_cube(cube.vertices)[0]

    def test_image_rank_drop(self, rng):
        # The central claim: Z of any cube image has rank at most 7.
        from epicube.simulate import sample_camera_pair

        for _ in range(5):
            cube = random_combinatorial_cube(rng)
            A1, A2 = sample_camera_pair(rng, 6.0)
            X = project_all(A1, cube.vertices)
            Y = project_all(A2, cube.vertices)
            assert numerical_rank(build_Z(X, Y)) <= 7
