import dataclasses
import pickle
import warnings
from collections import Counter

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicube import quadrics
from epicube.degeneracy import (
    FACET_IDX,
    UNIT_CUBE_VERTICES,
    VERONESE_I,
    VERONESE_J,
    kernel_basis,
    random_combinatorial_cube,
    unit_cube,
    veronese_matrix,
)
from epicube.exceptions import AtInfinity, NoQuadric, PencilOfQuadrics
from epicube.projective import DEFAULT_TOL, focal_point, proj_equal
from epicube.quadrics import (
    DEGENERATE,
    EMPTY,
    NONRULED_NONDEGENERATE,
    RULED_NONDEGENERATE,
    PlaneChart,
    QuadricClass,
    _classify_stack,
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

from fingerprint import grid_digests

# The standard instance's focal points (second camera one unit closer).
F1 = np.array([-2.0, -3.0, -2.0, 1.0])
F2 = np.array([-2.0, -3.0, -1.0, 1.0])
# Eight uniform points in [-1, 1]^3: not a cube, no facet is coplanar.
NON_CUBE = np.append(np.random.default_rng(0).uniform(-1, 1, (8, 3)), np.ones((8, 1)), axis=1)


def reference_classify_stack(Q):
    """_classify_stack as it built each cell in Python, one inertia tuple,
    tag lookup and keyword constructor per matrix: the reference the
    whole-array form must match bit for bit."""
    w = np.linalg.eigvalsh(0.5 * (Q + Q.transpose(0, 2, 1)))
    aw = np.abs(w)
    wmax = aw.max(axis=1)
    thresh = (DEFAULT_TOL * wmax)[:, None]
    n_plus, n_minus = (w > thresh).sum(axis=1), (w < -thresh).sum(axis=1)
    hi, lo = np.maximum(n_plus, n_minus), np.minimum(n_plus, n_minus)
    counts = zip(hi.tolist(), lo.tolist(), (4 - hi - lo).tolist())
    margin = aw.min(axis=1) / np.where(wmax > 0, wmax, 1.0)
    tags = {(2, 2, 0): RULED_NONDEGENERATE, (3, 1, 0): NONRULED_NONDEGENERATE}
    return [
        QuadricClass(tag=DEGENERATE if k[2] else tags.get(k, EMPTY), inertia=k, margin=m)
        for k, m in zip(counts, margin.tolist())
    ]


def pencil_basis(cube, f1):
    """A Frobenius-orthonormal basis (2, 4, 4) of the quadrics through the
    cube's vertices and f1, from the Veronese kernel of those nine points."""
    M = np.array([coeffs_to_matrix(b) for b in kernel_basis(veronese_matrix(np.vstack([cube.vertices, f1])))])
    return np.linalg.qr(M.reshape(2, 16).T)[0].T.reshape(2, 4, 4)


def assert_det_margins(cells, Q, eig_margins):
    """Each default-pass margin is |det Q| / ||Q||_F^4 of the cell's
    cube_quadric Q by np.linalg.det, 0 where Q is zero, and at most the
    eigenvalue margin min|eig| / max|eig|.  The absolute 1e-14 is the
    rounding of a det at unit norm, measured at most 1.4e-15."""
    margins = np.array([qc.margin for *_, qc in cells])
    norm2 = (Q * Q).sum(axis=(1, 2))
    ref = np.abs(np.linalg.det(Q)) / np.where(norm2 > 0, norm2 * norm2, 1.0)
    assert margins == pytest.approx(ref, rel=1e-12, abs=1e-14)
    assert (margins[norm2 == 0] == 0.0).all()
    assert (margins <= np.asarray(eig_margins) + 1e-15).all()


@st.composite
def symmetric_stacks(draw):
    """An (n, 4, 4) symmetric stack holding one matrix of every tag, each
    B diag(signs) B^T for an integer B whose column count sets the rank,
    plus the zero matrix and symmetric float matrices at mixed scales."""
    small = st.integers(-3, 3)
    signatures = [(1, 1, 1, -1), (1, 1, -1, -1), (1, 1, 1, 1), (1, -1, 1)]
    for _ in range(draw(st.integers(0, 6))):
        signatures.append(draw(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=4)))
    mats = [np.zeros((4, 4))]
    for signs in signatures:
        # Full column rank keeps the signature: 4 columns give the tag, fewer
        # a rank-deficient DEGENERATE matrix.
        k = len(signs)
        below = np.tril(np.reshape(draw(st.lists(small, min_size=4 * k, max_size=4 * k)), (4, k)), -1)
        B = np.eye(4)[:, :k] * draw(st.sampled_from([1, -1])) + below
        mats.append(B @ np.diag(signs) @ B.T * 10.0 ** draw(st.integers(-8, 8)))
    for _ in range(draw(st.integers(0, 4))):
        A = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=16, max_size=16))).reshape(4, 4)
        mats.append(A + A.T)
    return np.array(mats)[draw(st.permutations(range(len(mats))))]


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

    def test_non_finite_raises(self):
        # Checked before the symmetry test, whose subtraction inf - inf
        # would warn and then name the wrong fault.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (np.inf, -np.inf, np.nan):
                with pytest.raises(ValueError, match="must be finite"):
                    classify(np.diag([bad, 1.0, 1.0, 1.0]))


class TestClassifyStack:
    @given(symmetric_stacks())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_cell_reference(self, Q):
        got, ref = _classify_stack(Q), reference_classify_stack(Q)
        assert repr(got) == repr(ref)
        assert got == ref and [hash(c) for c in got] == [hash(c) for c in ref]
        assert {c.tag for c in got} == {RULED_NONDEGENERATE, NONRULED_NONDEGENERATE, EMPTY, DEGENERATE}
        assert (0, 0, 4) in {c.inertia for c in got}

    def test_quadric_class_stays_a_frozen_dataclass(self):
        qc = _classify_stack(np.diag([1.0, 1.0, -1.0, -1.0])[None])[0]
        assert type(qc) is QuadricClass
        assert [f.name for f in dataclasses.fields(qc)] == ["tag", "inertia", "margin"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            qc.tag = EMPTY
        # Dataclass equality: never equal to a tuple of the same fields.
        assert qc == QuadricClass(tag=RULED_NONDEGENERATE, inertia=(2, 2, 0), margin=1.0)
        assert qc != (RULED_NONDEGENERATE, (2, 2, 0), 1.0)
        assert pickle.loads(pickle.dumps(qc)) == qc

    def test_bulk_cells_are_indistinguishable_from_constructed_ones(self, rng):
        # The cells built slot by slot, from every path that builds them,
        # against QuadricClass(...) of the same fields.
        chart = PlaneChart((2.0, 3.0, 4.0), (1.0, 0.2, 0.0), (0.0, 1.0, -0.3))
        f1 = [2.0, 3.0, 4.0, 1.0]
        cube = random_combinatorial_cube(rng)
        cells = [qc for m in ("auto", "general") for *_, qc in region_grid(cube, f1, chart, 6, method=m)]
        cells += _classify_stack(np.array([np.diag(d) for d in ([1, 1, -1, -1], [1, 1, 1, -1], [1, 1, 1, 1], [1, 0, -1, 0])]))
        cells.append(classify(np.diag([2.0, -1.0, 3.0, 1.0])))
        assert {qc.tag for qc in cells} == {RULED_NONDEGENERATE, NONRULED_NONDEGENERATE, EMPTY, DEGENERATE}
        # Every field is a slot, and each slot is set on every cell.
        names = [f.name for f in dataclasses.fields(QuadricClass)]
        assert list(QuadricClass.__slots__) == names
        for qc in cells:
            ref = QuadricClass(tag=qc.tag, inertia=qc.inertia, margin=qc.margin)
            assert [getattr(qc, name) for name in names] == [getattr(ref, name) for name in names]
            assert type(qc) is QuadricClass and qc == ref and hash(qc) == hash(ref) and repr(qc) == repr(ref)
            assert pickle.dumps(qc) == pickle.dumps(ref) and pickle.loads(pickle.dumps(qc)) == ref
            for name in names:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(qc, name, getattr(ref, name))


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
            # The row maxima and norms where they are easiest to get wrong:
            # rows at 1e+-300, rows whose largest coordinate is negative or
            # is the 4th one, and pencil rows, all in one stack.
            g2s = f2s.copy()
            g2s[10:30, :3] = rng.uniform(-0.9, 0.9, (20, 3))
            g2s[30:35] = f1
            g2s *= 10.0 ** rng.choice([-300.0, 0.0, 300.0], (50, 1))
            g2s[:20] *= -np.sign(g2s[np.arange(20), np.abs(g2s[:20]).argmax(axis=1)])[:, None]
            top = g2s[np.arange(50), np.abs(g2s).argmax(axis=1)]
            assert (top[:20] < 0).all() and (np.abs(g2s[10:30]).argmax(axis=1) == 3).all()
            for g1 in (f1, -f1 * 1e300):
                Q = cube_quadric(cube, g1, g2s)
                assert not Q[30:35].any()
                assert np.array_equal(Q, reference(cube, g1, g2s))

    def test_row_norms_add_in_numpys_order(self, rng):
        # _cube_quadrics writes np.linalg.norm(x, axis=1) of its (n, 3)
        # stacks as column sums, (x0^2 + x1^2) + x2^2, the order in which
        # numpy's reduction adds; x0^2 + (x1^2 + x2^2) rounds differently.
        x = rng.standard_normal((3, 4000)) * 10.0 ** rng.uniform(-3, 3, (3, 4000))
        ref = np.linalg.norm(x.T, axis=1)
        assert np.array_equal(np.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2]), ref)
        assert not np.array_equal(np.sqrt(x[0] * x[0] + (x[1] * x[1] + x[2] * x[2])), ref)

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


def pencil_coordinates(cube, Q):
    """The lam with Q = sum_k lam_k q_k, by least squares on the facet pencil."""
    return np.linalg.lstsq(cube.pencil.T, Q.reshape(-1, 16).T, rcond=None)[0].T


def det_form(W, lam):
    """p^T W p for p = (lam1 lam2, lam0 lam2, lam0 lam1), row by row."""
    p = np.stack([lam[..., 1] * lam[..., 2], lam[..., 0] * lam[..., 2], lam[..., 0] * lam[..., 1]], axis=-1)
    return np.einsum("...i,ij,...j->...", p, W, p)


class TestDetForms:
    # CubeConfig.forms: W with det Q = p^T W p and G with ||Q||_F^2 = lam^T G
    # lam, for Q = sum_k lam_k q_k on the cube's facet pencil.
    @pytest.mark.parametrize("seed", range(8))
    def test_forms_give_det_and_norm_of_cube_quadric(self, seed):
        rng = np.random.default_rng(seed)
        for cube in [unit_cube()] + [random_combinatorial_cube(rng) for _ in range(10)]:
            W, G = cube.forms
            f1 = np.append(rng.uniform(-6, 6, 3), 1.0)
            f2s = np.append(rng.uniform(-6, 6, (40, 3)), np.ones((40, 1)), axis=1)
            Q = cube_quadric(cube, f1, f2s)
            lam = pencil_coordinates(cube, Q)
            norm2 = (Q * Q).sum(axis=(1, 2))
            assert (np.abs(det_form(W, lam) - np.linalg.det(Q)) <= 1e-12 * norm2 * norm2).all()
            assert np.einsum("ni,ij,nj->n", lam, G, lam) == pytest.approx(norm2, rel=1e-12)

    def test_diagonal_is_the_squared_pair_minor_over_16(self, rng):
        for cube in [unit_cube()] + [random_combinatorial_cube(rng) for _ in range(20)]:
            W = cube.forms[0]
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                minor = np.linalg.det(cube.planes[[2 * i, 2 * i + 1, 2 * j, 2 * j + 1]])
                assert W[k, k] == pytest.approx(minor**2 / 16, rel=1e-12)
                assert W[k, k] >= 0.0
            assert np.array_equal(W, W.T)
            assert np.array_equal(cube.forms[1], cube.pencil @ cube.pencil.T)


def real_quartic_roots(W, r):
    """The real roots, counted with multiplicity, of the binary quartic
    det(sum_k lam_k q_k) = p^T W p on the plane lam . r = 0: the pencil of
    quadrics through the cube and a point c with r_k = c^T q_k c."""
    u = np.linalg.svd(r[None])[2][1:]
    lam = [np.array([u[0, k], u[1, k]]) for k in range(3)]  # lam_k(t) = u0_k + t u1_k
    p = [P.polymul(lam[1], lam[2]), P.polymul(lam[0], lam[2]), P.polymul(lam[0], lam[1])]
    quartic = sum(W[i, j] * P.polymul(p[i], p[j]) for i in range(3) for j in range(3))
    roots = P.polyroots(quartic)
    # A leading coefficient of 0 would put a root at t = infinity.
    assert abs(quartic[4]) > 1e-9 * np.abs(quartic).max()
    return roots[np.abs(roots.imag) <= 1e-7 * (1 + np.abs(roots))].real


class TestPencilCones:
    def test_real_singular_members_are_cones_between_ruled_and_non_ruled_arcs(self):
        # The quadrics through a cube and f1 form a pencil; its real singular
        # members bound the ruled region of f2.  On 300 random cubes with f1
        # uniform in the charts' [-6, 6]^3 box: 232 pencils have 4 of them,
        # 66 have 2 and 2 have none (every member ruled).  All 1,060 are
        # cones, rank 3: s4 / s1 <= 3.2e-14 and s3 / s1 >= 1.1e-4 measured.
        # The arcs between them alternate ruled and non-ruled.
        #
        # Why 4, 2 or 0, and why the arcs alternate: on the pencil, lam runs
        # over the plane lam . r(f1) = 0, and det Q = p^T W p is a real
        # binary quartic in lam (CubeConfig.forms).  Its non-real roots come
        # in conjugate pairs, so it has 4, 2 or 0 real roots, counted with
        # multiplicity.  Every member passes through the cube's real
        # vertices, so no nonsingular member is definite: det Q > 0 is
        # (2, 2), ruled, and det Q < 0 is (3, 1).  det changes sign at each
        # simple root, so the arcs alternate; here every real root is simple.
        # That each singular member is a cone (rank 3), not a pair of planes,
        # is measured, not proved.
        rng = np.random.default_rng(0)
        counts = Counter()
        for _ in range(300):
            cube = random_combinatorial_cube(rng)
            f1 = np.append(rng.uniform(-6, 6, 3), 1.0)
            B = pencil_basis(cube, f1)
            mu = np.linalg.eigvals(np.linalg.solve(B[1], B[0]))
            mu = mu[mu.imag == 0].real
            counts[len(mu)] += 1
            assert len(real_quartic_roots(cube.forms[0], cube.pencil @ np.kron(f1, f1))) == len(mu)
            for m in mu:
                s = np.linalg.svd(B[0] - m * B[1], compute_uv=False)
                assert s[3] <= 1e-12 * s[0] and s[2] > 1e-6 * s[0]
            t = np.sort(np.arctan2(-mu, 1.0) % np.pi)
            mids = (t + np.append(t[1:], t[:1] + np.pi)) / 2 if len(t) else np.zeros(1)
            tags = [classify(np.cos(x) * B[0] + np.sin(x) * B[1]).tag for x in mids]
            if len(t):
                assert set(tags) == {RULED_NONDEGENERATE, NONRULED_NONDEGENERATE}
                assert all(a != b for a, b in zip(tags, tags[1:]))
            else:
                assert tags == [RULED_NONDEGENERATE]
        assert counts == {4: 232, 2: 66, 0: 2}


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

    @pytest.mark.parametrize("k1, k2", [(600, 0), (0, 600), (-600, 600), (600, -600), (1000, -1000), (-1000, 1000)])
    def test_power_of_two_scales_give_the_same_coordinates(self, k1, k2):
        # Scaling a homogeneous row by a power of two is exact, so (alpha,
        # beta) match bit for bit, with no overflow on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert delta1_coordinates(np.ldexp(F1, k1), np.ldexp(F2, k2)) == delta1_coordinates(F1, F2)

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
        cells = region_grid(cube, f1, chart, 12)
        Q = cube_quadric(cube, f1, chart.point(*np.array([uv for *uv, _ in cells]).T))
        ones = [classify(q) for q in Q]
        for (_, _, qc), one in zip(cells, ones):
            assert (one.tag, one.inertia) == (qc.tag, qc.inertia)
        assert_det_margins(cells, Q, [one.margin for one in ones])

    def test_pencil_pass_matches_the_exact_classifier(self, monkeypatch):
        # Each cell's tag and inertia are what _classify_stack gives its
        # cube_quadric, with f1 at a vertex, on a facet plane, inside the cube
        # or at an integer point, and charts through f1; the unit cube's f1
        # on an edge line leaves a pencil of singular members only.  Some
        # grids, not all, send cells to that exact path.  Each margin is the
        # det bound, 0 where a pencil of quadrics fits.
        calls, exact = [], 0
        core = quadrics._class_rows
        monkeypatch.setattr(quadrics, "_class_rows", lambda Q: calls.append(Q) or core(Q))
        rng = np.random.default_rng(4)
        for g in range(48):
            cube = unit_cube() if g % 4 == 0 else random_combinatorial_cube(rng)
            W = cube.vertices / cube.vertices[:, 3:]
            facet = W[FACET_IDX[g % 6]]
            w = rng.uniform(-1.0, 2.0, 2)
            f1 = [
                W[g % 8],
                facet[0] + w[0] * (facet[1] - facet[0]) + w[1] * (facet[3] - facet[0]),
                W.mean(axis=0) + np.append(rng.uniform(-0.2, 0.2, 3), 0.0),
                np.append(rng.integers(-4, 5, 3), 1.0),
                np.array([1.0, 1.0, 0.5, 1.0]),
            ][g % 5]
            d = rng.standard_normal((2, 3))
            if g % 2:
                chart = PlaneChart(tuple(f1[:3]), tuple(d[0]), tuple(d[1]), (-1.0, 1.0), (-2.0, 1.0))
            else:
                chart = PlaneChart((0.0, 0.0, float(rng.uniform(-6, 6))), tuple(d[0]), tuple(d[1]))
            resolution = int(rng.integers(3, 20)) | 1
            n = len(calls)
            cells = region_grid(cube, f1, chart, resolution)
            exact += len(calls) > n
            us, vs = (np.linspace(*r, resolution) for r in (chart.u_range, chart.v_range))
            Q = cube_quadric(cube, f1, chart.point(us[:, None], vs).reshape(-1, 4))
            expected = _classify_stack(Q)
            assert [(qc.tag, qc.inertia) for _, _, qc in cells] == [(qc.tag, qc.inertia) for qc in expected]
            assert_det_margins(cells, Q, [qc.margin for qc in expected])
        assert 0 < exact < 48

    @pytest.mark.parametrize("method", ["auto", "general"])
    def test_cell_at_f1_is_degenerate(self, method):
        # f2 = f1 at the chart's origin: a pencil of quadrics fits, which
        # the closed form gives as the zero matrix and the general fit skips.
        # Elsewhere on the axes u = 0 and v = 0 the quadric is singular but
        # not zero.
        f1 = [2.0, 3.0, 4.0, 1.0]
        chart = PlaneChart(tuple(f1[:3]), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0), (0.0, 1.0))
        cells = {(u, v): qc for u, v, qc in region_grid(unit_cube(), f1, chart, 3, method=method)}
        assert (cells[0.0, 0.0].tag, cells[0.0, 0.0].inertia, cells[0.0, 0.0].margin) == (DEGENERATE, (0, 0, 4), 0.0)
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

    @pytest.mark.parametrize(
        "resolution", [3.0, np.float64(3.0), True, "3", None], ids=["float", "numpy-float", "bool", "str", "none"]
    )
    def test_non_integer_resolution_rejected(self, resolution):
        chart = PlaneChart((0, 0, 5), (1, 0, 0), (0, 1, 0))
        with pytest.raises(ValueError, match="resolution must be an integer >= 2"):
            region_grid(unit_cube(), [2.0, 3.0, 4.0, 1.0], chart, resolution)

    def test_numpy_integer_resolution_accepted(self):
        chart = PlaneChart((0, 0, 5), (1, 0, 0), (0, 1, 0))
        cells = region_grid(unit_cube(), [2.0, 3.0, 4.0, 1.0], chart, np.int64(3))
        assert cells == region_grid(unit_cube(), [2.0, 3.0, 4.0, 1.0], chart, 3)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("u_range", (-np.inf, 6.0)),
            ("v_range", (-6.0, np.nan)),
            ("origin", (0.0, 0.0, np.inf)),
            ("u_dir", (np.inf, 0.0, 0.0)),
            ("v_dir", (0.0, np.nan, 0.0)),
        ],
    )
    def test_non_finite_chart_rejected(self, field, value):
        # A ValueError, before any arithmetic could warn: under warnings as
        # errors a numpy RuntimeWarning would reach the caller first.
        fields = {"origin": (0.0, 0.0, 5.0), "u_dir": (1.0, 0.0, 0.0), "v_dir": (0.0, 1.0, 0.0)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"chart {field} must be"):
                region_grid(unit_cube(), [2.0, 3.0, 4.0, 1.0], PlaneChart(**{**fields, field: value}), 4)


    @pytest.mark.parametrize("method", ["auto", "unit", "general"])
    @pytest.mark.parametrize(
        "chart",
        [
            PlaneChart((0.0, 0.0, 5.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1e308, 1e308), (-1e308, 1e308)),
            PlaneChart((0.0, 0.0, 5.0), (1e308, 0.0, 0.0), (0.0, 1.0, 0.0)),
        ],
    )
    def test_overflowing_chart_rejected(self, chart, method):
        # Finite fields whose grid points overflow: one ValueError on every
        # method, not NaN cells or a numpy RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="chart grid points must be finite"):
                region_grid(unit_cube(), [2.0, 3.0, 4.0, 1.0], chart, 4, method=method)

    def test_chart_point_rejects_overflow(self):
        # The chart maps its own (u, v) with the same check region_grid
        # relies on: a ValueError, not an inf or a RuntimeWarning.
        chart = PlaneChart((0.0, 0.0, 5.0), (1e308, 0.0, 0.0), (0.0, 1.0, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u, v in ((-6.0, 0.0), (np.array([0.5, 6.0]), np.array([1.0, 2.0])), (np.nan, 0.0)):
                with pytest.raises(ValueError, match="chart grid points must be finite"):
                    chart.point(u, v)
            assert chart.point(0.5, 2.0).tolist() == [0.5 * 1e308, 2.0, 5.0, 1.0]


# The two fingerprint.grid_digests of region_grid(cube, F1_ON_CHART,
# PINNED_CHART, 20, method).  PINNED_CLASSES holds the sha256 of each grid's
# (u, v, tag, inertia) rows, the same for both methods, and PINNED_GRIDS that
# of repr(cells), margins included.  The "general" cell pins were recorded
# before the classification moved to whole-array work; the "auto" ones when
# the det bound came to be read from CubeConfig.forms, which moved the
# margins' last bits.  The class pins were recorded before the margin became
# the det bound and are unchanged since.  The chart passes through f1, so
# each grid has a zero (pencil) cell besides ruled and non-ruled ones.
PINNED_CHART = PlaneChart((0.0, 0.0, 4.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-8.0, 11.0), (-8.0, 11.0))
F1_ON_CHART = [2.0, 3.0, 4.0, 1.0]
PINNED_GRIDS = {
    ("unit", "auto"): "22a6b564c30d6cb2f559d0bf27a4c88eec5e86d8bf51ef9b17aeee29384dbdca",
    ("unit", "general"): "a999467f211d5aff9094ad32147f252703f228ddc746cda0c6ab0e63c9fb3fc1",
    (1, "auto"): "c205ef73609c21f22ac6970c24440b75e0101225d79fa55cdf5123a96b9a1d33",
    (1, "general"): "fe70f55d9400388a3730cf0e9e0f8db5e547b0185a0298c58bc30ed584154516",
    (2, "auto"): "03604981e1285b203e6194a3e294e2588fb88d6682e8cd76eb9573123951ec78",
    (2, "general"): "4323ba82fc4bc31e2085d36eb384a344a054ce13dacad108cbba46bcbaf202af",
}
PINNED_CLASSES = {
    "unit": "d706e4f2e94a67750846d804eb9f4b399b1bcc2339b57555e458d60761b61356",
    1: "7b9a8a7098920436712c5ad83cb99396b9601c560b558c3db39d76a48702fca5",
    2: "1ccc800079319f5a5489da104ed3d129b20534b4a2c9931f967169fef617da10",
}


@pytest.mark.parametrize("cube_seed, method", list(PINNED_GRIDS))
def test_region_grid_pinned_output(cube_seed, method):
    # The unit cube, or a random cube seeded by cube_seed.
    cube = unit_cube() if cube_seed == "unit" else random_combinatorial_cube(np.random.default_rng(cube_seed))
    cells = region_grid(cube, F1_ON_CHART, PINNED_CHART, 20, method=method)
    assert (0, 0, 4) in {qc.inertia for _, _, qc in cells}
    assert grid_digests(cells) == (PINNED_CLASSES[cube_seed], PINNED_GRIDS[cube_seed, method])
