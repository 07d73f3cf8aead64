import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epicube import estimators
from epicube.degeneracy import build_Z, kernel_basis
from epicube.estimators import (
    ALGOS,
    RESIDUAL_TIE_TOL,
    PencilSolution,
    _estimate_all,
    _select,
    cube_eight_point,
    eckart_young_rank7,
    eight_point,
    fundamental_from_cameras,
    hartley_normalize,
    pencil_solve,
    seven_point,
)
from epicube.pencil import REAL_ROOT_IMAG_TOL, ROOT_DEDUP_TOL, distinct, real_roots, reject_dependent, solve
from epicube.exceptions import (
    CoincidentCenters,
    DegenerateCloud,
    DegenerateInput,
    DependentInputs,
    EpicubeError,
    IdenticallyZeroPencil,
    LengthMismatch,
    NoRealRoot,
)
from epicube.projective import (
    _residuals,
    _unit_rows,
    as_points,
    canonical_fmatrix,
    epipolar_residual,
    focal_point,
    grassmann_angle,
    homogenize,
    proj_equal,
    project_all,
)
from epicube.simulate import add_noise, sample_camera_pair

from estimate_pool import (
    bench_like_pool,
    estimate_hashes,
    generic_scene,
    mixed_stack,
    nonruled_geometries,
    pinned_pool,
    special_pencils,
)


@pytest.fixture(scope="module")
def nonruled_pool():
    return nonruled_geometries()


@pytest.fixture(scope="module")
def mixed_pool(nonruled_pool):
    return mixed_stack(nonruled_pool)


# The scalar pencil solver and candidate selection as they were before the
# stacked rewrite, kept verbatim as an oracle: the stacked code must give the
# same roots, candidates, choice and exceptions bit for bit.


def _root_clusters(roots):
    """Greedy partition of polynomial roots into near-multiple clusters."""
    remaining = list(roots)
    clusters = []
    while remaining:
        r = remaining.pop(0)
        group = [r]
        keep = []
        for q in remaining:
            if abs(q - r) <= 1e-2 * (1.0 + abs(q) + abs(r)):
                group.append(q)
            else:
                keep.append(q)
        remaining = keep
        clusters.append(group)
    return clusters


def reference_residual(F, X, Y):
    Fn = canonical_fmatrix(F)
    X = as_points(X, 3)
    Y = as_points(Y, 3)
    r = np.einsum("ij,jk,ik->i", _unit_rows(Y), Fn, _unit_rows(X))
    return float(np.sum(r**2))


def reference_best(candidates, X, Y):
    residuals = [reference_residual(F, X, Y) for F in candidates]
    best = int(np.argmin(residuals))
    for i in range(best):
        if residuals[i] - residuals[best] < RESIDUAL_TIE_TOL:
            best = i
            break
    return candidates[best], residuals[best]


def reference_cubic_coeffs(F1, F2):
    nodes = np.array([0.0, 1.0, 2.0, -1.0])
    vals = np.array([np.linalg.det(a * F1 + (1.0 - a) * F2) for a in nodes])
    V = np.vander(nodes, 4)
    return np.linalg.solve(V, vals), vals


def reference_polish(alpha, F1, F2):
    D = F1 - F2
    for _ in range(8):
        M = alpha * F1 + (1.0 - alpha) * F2
        U, s, Vt = np.linalg.svd(M)
        if s[2] <= 1e-15 * s[0]:
            break
        slope = U[:, 2] @ D @ Vt[2]
        if abs(slope) <= 1e-14 * max(1.0, s[0]):
            break
        step = s[2] / slope
        if abs(step) > 1.0 + abs(alpha):
            break
        alpha -= step
    return alpha


def reference_alphas(coeffs):
    cmax = np.max(np.abs(coeffs))
    trimmed = np.array(coeffs)
    while len(trimmed) > 1 and abs(trimmed[0]) <= 1e-12 * cmax:
        trimmed = trimmed[1:]
    roots = np.roots(trimmed) if len(trimmed) > 1 else np.array([])
    candidates_alpha = []
    for cluster in _root_clusters(roots):
        mean = complex(np.mean(cluster))
        if len(cluster) > 1:
            candidates_alpha.append(mean.real)
        elif abs(mean.imag) <= REAL_ROOT_IMAG_TOL * (1.0 + abs(mean.real)):
            candidates_alpha.append(mean.real)
    return candidates_alpha


def reference_dedup(alphas):
    merged = []
    for a in alphas:
        if not merged or abs(a - merged[-1]) > ROOT_DEDUP_TOL:
            merged.append(a)
    return merged


def reference_pencil_solve(F1, F2):
    F1 = np.asarray(F1, dtype=float).reshape(3, 3)
    F2 = np.asarray(F2, dtype=float).reshape(3, 3)
    stack = np.vstack([F1.reshape(-1), F2.reshape(-1)])
    s = np.linalg.svd(stack, compute_uv=False)
    if s[1] <= 1e-12 * s[0]:
        raise DependentInputs("pencil generators are linearly dependent")
    coeffs, vals = reference_cubic_coeffs(F1, F2)
    scale = (3.0 * max(np.linalg.norm(F1), np.linalg.norm(F2))) ** 3
    if np.max(np.abs(vals)) <= 1e-12 * scale:
        raise IdenticallyZeroPencil("every pencil member is singular")
    merged = []
    for a in sorted(reference_polish(a, F1, F2) for a in reference_alphas(coeffs)):
        M = a * F1 + (1.0 - a) * F2
        sv = np.linalg.svd(M, compute_uv=False)
        if sv[2] > 1e-8 * sv[0]:
            continue
        merged.append(a)
    merged = reference_dedup(merged)
    if not merged:
        raise NoRealRoot("pencil determinant has no real root")
    candidates = [canonical_fmatrix(a * F1 + (1.0 - a) * F2) for a in merged]
    return PencilSolution(roots=np.array(merged), candidates=candidates)


def assert_matches_reference(F1, F2, X, Y):
    """pencil_solve and best agree with the scalar oracle bit for bit, or
    both raise the same exception type; returns the solution (or None)."""
    try:
        ref = reference_pencil_solve(F1, F2)
    except EpicubeError as exc:
        with pytest.raises(EpicubeError) as info:
            pencil_solve(F1, F2)
        assert type(info.value) is type(exc)
        return None
    sol = pencil_solve(F1, F2)
    assert np.array_equal(sol.roots, ref.roots)
    assert sol.roots.dtype == ref.roots.dtype
    assert isinstance(sol.candidates, list)
    assert len(sol.candidates) == len(ref.candidates)
    for F, G in zip(sol.candidates, ref.candidates):
        assert np.array_equal(F, G)
    F, resid = sol.best(X, Y)
    G, ref_resid = reference_best(ref.candidates, X, Y)
    assert np.array_equal(F, G)
    assert type(resid) is float and resid == ref_resid
    return sol


class TestStackedPencilMatchesScalar:
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["generic", "rank2", "near_dependent", "dependent"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_gaussian_pencils(self, seed, kind):
        rng = np.random.default_rng(seed)
        F1, F2 = rng.standard_normal((2, 3, 3))
        if kind == "rank2":
            U, s, Vt = np.linalg.svd(F1)
            F1 = (U * [s[0], s[1], 0.0]) @ Vt
        elif kind == "near_dependent":
            F2 = F1 + 1e-7 * F2
        elif kind == "dependent":
            F2 = -3.0 * F1
        X, Y = rng.standard_normal((2, 9, 3))
        assert_matches_reference(F1, F2, X, Y)

    def test_standard_instance_triple_root(self, standard_instance):
        X, Y = standard_instance["X"], standard_instance["Y"]
        basis = kernel_basis(build_Z(X, Y))
        sol = assert_matches_reference(basis[0].reshape(3, 3), basis[1].reshape(3, 3), X, Y)
        assert sol is not None

    def test_dependent_generators(self, rng):
        F1 = rng.standard_normal((3, 3))
        assert assert_matches_reference(F1, 2.0 * F1, *rng.standard_normal((2, 8, 3))) is None

    def test_nonruled_pool_kernel_pairs(self, nonruled_pool):
        for X, Y, _ in nonruled_pool:
            basis = kernel_basis(build_Z(X, Y))
            sol = assert_matches_reference(basis[0].reshape(3, 3), basis[1].reshape(3, 3), X, Y)
            assert sol is not None

    def test_tie_goes_to_lower_index(self, rng):
        X, Y = rng.standard_normal((2, 8, 3))
        G, H = (canonical_fmatrix(M) for M in rng.standard_normal((2, 3, 3)))
        if epipolar_residual(H, X, Y) < epipolar_residual(G, X, Y):
            G, H = H, G
        sol = PencilSolution(roots=np.array([0.0, 1.0, 2.0]), candidates=[H, G, G.copy()])
        F, resid = sol.best(X, Y)
        assert F is sol.candidates[1]
        assert resid == epipolar_residual(G, X, Y)

    def test_residual_stack_equals_scalar_calls(self, rng):
        # The core that _select runs scores a (k, 3, 3) stack in one einsum,
        # on shared points or on one point stack per matrix, as
        # epipolar_residual scores each matrix.
        X, Y = rng.standard_normal((2, 8, 3))
        stack = rng.standard_normal((3, 3, 3))
        Xu, Yu = _unit_rows(X), _unit_rows(Y)
        residuals = _residuals(stack, Xu, Yu)
        assert residuals.shape == (3,)
        assert np.array_equal(residuals, [epipolar_residual(F, X, Y) for F in stack])
        assert np.array_equal(residuals, [reference_residual(F, X, Y) for F in stack])
        assert np.array_equal(residuals, _residuals(stack, np.tile(Xu, (3, 1, 1)), np.tile(Yu, (3, 1, 1))))
        assert type(epipolar_residual(stack[0], X, Y)) is float


def assert_pencil_stack_is_one_by_one(pairs):
    """One stacked solve of the generator pairs, dependent ones screened out
    as pencil_solve screens them, gives each pair's pencil_solve roots and
    candidates bit for bit, or its exception; returns the failures."""
    G = np.array([[F1.reshape(9), F2.reshape(9)] for F1, F2 in pairs])
    failures = {}
    reject_dependent(G, failures)
    roots, candidates = solve(G, failures)
    for i, (F1, F2) in enumerate(pairs):
        keep = ~np.isnan(roots[i])
        try:
            sol = pencil_solve(F1, F2)
        except EpicubeError as exc:
            assert type(failures[i]) is type(exc)
            assert str(failures[i]) == str(exc)
            assert not keep.any()
            continue
        assert i not in failures
        assert np.array_equal(roots[i, keep], sol.roots)
        assert np.array_equal(candidates[i, keep], np.array(sol.candidates))
    return failures


def assert_estimates_are_one_by_one(algo, X, Y, F, residual, failures):
    """Each instance's F and residual from a stacked estimator are those of
    the public estimator called on it alone, or it raised the same exception."""
    for i in range(len(X)):
        try:
            if algo == "7pt":
                G, r = seven_point(X[i, :7], Y[i, :7]).best(X[i], Y[i])
            else:
                G = (eight_point if algo == "8pt" else cube_eight_point)(X[i], Y[i])
                r = epipolar_residual(G, X[i], Y[i])
        except EpicubeError as exc:
            assert type(failures[i]) is type(exc)
            assert str(failures[i]) == str(exc)
            assert np.isnan(F[i]).all() and residual[i] == np.inf
        else:
            assert i not in failures
            assert np.array_equal(F[i], G)
            assert residual[i] == r


class TestStackedCore:
    def test_pencil_stack_equals_one_by_one(self, standard_instance):
        basis = kernel_basis(build_Z(standard_instance["X"], standard_instance["Y"]))
        pairs = special_pencils() + [(basis[0].reshape(3, 3), basis[1].reshape(3, 3))]
        coeffs = [reference_cubic_coeffs(F1, F2)[0] for F1, F2 in pairs]
        assert any(c[-1] == 0.0 for c in coeffs)
        assert any(abs(c[0]) <= 1e-12 * np.abs(c).max() for c in coeffs)
        failures = assert_pencil_stack_is_one_by_one(pairs)
        assert {type(e) for e in failures.values()} == {DependentInputs, IdenticallyZeroPencil, NoRealRoot}

    @given(order=st.lists(st.integers(0, 17), min_size=1, max_size=10))
    # special_pencils: 0-11 are live, random pencils with full cubics, so the
    # stack takes every all-clear shortcut; then a rank-2 and a near-dependent
    # pair, a zero constant term, no real root, dependent generators and an
    # identically singular pencil.
    @example(order=list(range(12)))
    @example(order=[16, 0, 17, 15, 14, 12, 13, 1])
    @settings(max_examples=60, deadline=None)
    def test_mixed_pencil_stacks_equal_one_by_one(self, order):
        # Live pencils among DependentInputs, IdenticallyZeroPencil and
        # NoRealRoot ones, in any order and with repeats.
        pairs = special_pencils()
        assert_pencil_stack_is_one_by_one([pairs[i] for i in order])

    def test_cluster_means_match_np_mean(self):
        # Cubics with near-multiple roots, real and complex, chained and
        # well-separated ones, a trimmed leading coefficient and a zero
        # constant term: the stacked clusters give the greedy clusters and
        # np.mean's cluster means bit for bit.
        rng = np.random.default_rng(5)
        rows = []
        for _ in range(400):
            c = rng.standard_normal() * 3
            eps = 10.0 ** rng.uniform(-9, -3)
            d = eps * (rng.standard_normal() + 1j * rng.standard_normal())
            # A chain: the middle root is near both ends, the ends are not.
            h = 0.008 * (1.0 + 2.0 * abs(c))
            for roots in (
                [c, c + d, c + np.conj(d)],
                [c, c + eps, c - 2 * eps],
                [c, c + eps, c + 1.0],
                [c, c + h, c + 2 * h],
                rng.standard_normal(3),
            ):
                rows.append(np.real(np.poly(roots)) * rng.uniform(0.5, 2.0))
        rows += [[1e-20, 1.0, 0.0, 1.0], [1.0, -3.0, 2.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
        coeffs = np.array(rows)
        alphas = real_roots(coeffs)
        for i, c in enumerate(coeffs):
            assert np.array_equal(alphas[i][~np.isnan(alphas[i])], reference_alphas(c))

    def test_distinct_keeps_roots_apart_from_the_last_kept(self):
        # A chain of roots each within the tolerance of the previous one
        # keeps every other one: the comparison is with the last kept root,
        # across the NaN holes the rank-2 filter leaves.
        rng = np.random.default_rng(6)
        roots = np.sort(1.0 + ROOT_DEDUP_TOL * rng.uniform(0.0, 2.5, (300, 3)), axis=1)
        roots[rng.uniform(size=roots.shape) < 0.2] = np.nan
        roots = np.vstack([roots, 1.0 + ROOT_DEDUP_TOL * np.array([0.0, 0.7, 1.4])])
        kept = distinct(roots)
        for row, out in zip(roots, kept):
            assert out[~np.isnan(out)].tolist() == reference_dedup(row[~np.isnan(row)].tolist())
        assert np.isnan(kept[-1]).tolist() == [False, True, False]

    def test_select_takes_the_first_near_tie(self, monkeypatch):
        # Within RESIDUAL_TIE_TOL of the least residual the lower index wins,
        # even over a strictly smaller residual.  A stub scores the
        # candidates, and NaN padding gives the third instance one.
        residuals = np.array([[3e-14, 2.5e-14, 1e-14], [5.0, 1.0 + 4e-15, 1.0], [2.0, np.inf, np.inf]])
        candidates = np.zeros((3, 3, 3, 3))
        candidates[2, 1:] = np.nan
        monkeypatch.setattr(estimators, "_residuals", lambda F, Xu, Yu: residuals[np.isfinite(residuals)])
        best, chosen = _select(candidates, np.ones((3, 8, 3)), np.ones((3, 8, 3)))
        assert best.tolist() == [2, 1, 0]
        assert chosen.tolist() == [1e-14, 1.0 + 4e-15, 2.0]

    def test_select_keeps_the_tie_rule(self, rng):
        # Each instance's near-tie between a candidate and its 1e-15
        # perturbation goes to the first, as the scalar oracle has it.
        X, Y = rng.standard_normal((2, 8, 3))
        G = np.array([canonical_fmatrix(M) for M in rng.standard_normal((40, 3, 3))])
        H = np.array([canonical_fmatrix(M) for M in G + 1e-15 * rng.standard_normal((40, 3, 3))])
        stack = np.stack([G, H, np.roll(G, 1, axis=0)], axis=1)
        Xs, Ys = np.tile(X, (40, 1, 1)), np.tile(Y, (40, 1, 1))
        best, residual = _select(stack, _unit_rows(Xs), _unit_rows(Ys))
        for row, i, r in zip(stack, best, residual):
            F, ref = reference_best(list(row), X, Y)
            assert np.array_equal(F, row[i]) and r == ref
        Xu, Yu = _unit_rows(X), _unit_rows(Y)
        assert (_residuals(H, Xu, Yu) < _residuals(G, Xu, Yu)).any()

    def test_select_without_candidates(self, rng):
        # An instance whose candidates are all NaN padding gets residual inf,
        # and the inf - inf of its tie test raises no warning.
        X, Y = rng.standard_normal((2, 8, 3))
        stack = np.full((2, 3, 3, 3), np.nan)
        stack[1, 1] = canonical_fmatrix(rng.standard_normal((3, 3)))
        Xu, Yu = np.tile(_unit_rows(X), (2, 1, 1)), np.tile(_unit_rows(Y), (2, 1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            best, residual = _select(stack, Xu, Yu)
        assert best[1] == 1
        assert residual.tolist() == [np.inf, epipolar_residual(stack[1, 1], X, Y)]

    @pytest.mark.parametrize("algo", ALGOS)
    def test_estimator_stack_equals_one_by_one(self, algo, mixed_pool):
        # Each instance's F and residual are those of the public estimator
        # called on it alone; one raising instance changes no other instance.
        X, Y = mixed_pool
        (F,), (residual,), (failures,) = _estimate_all((algo,), X, Y)
        assert_estimates_are_one_by_one(algo, X, Y, F, residual, failures)
        expected = {
            "8pt": {DegenerateInput},
            "7pt": {DegenerateInput},
            "cube8": {DegenerateCloud, IdenticallyZeroPencil},
        }
        assert {type(e) for e in failures.values()} == expected[algo]

    def test_all_estimators_in_one_call(self, mixed_pool):
        # One call over ALGOS, with one pencil solve for 7pt and cube8, gives
        # each algorithm what a call of it alone gives, bit for bit.
        X, Y = mixed_pool
        F, residual, failures = _estimate_all(ALGOS, X, Y)
        assert len(F) == len(residual) == len(failures) == len(ALGOS)
        for k, algo in enumerate(ALGOS):
            (G,), (r,), (expected,) = _estimate_all((algo,), X, Y)
            assert np.array_equal(F[k], G, equal_nan=True)
            assert np.array_equal(residual[k], r, equal_nan=True)
            assert list(failures[k]) == list(expected)
            assert [type(e) for e in failures[k].values()] == [type(e) for e in expected.values()]
            assert [str(e) for e in failures[k].values()] == [str(e) for e in expected.values()]
        seen = {type(e) for f in failures for e in f.values()}
        assert seen == {DegenerateInput, DegenerateCloud, IdenticallyZeroPencil}

    def test_unknown_estimator(self, mixed_pool):
        with pytest.raises(ValueError, match="unknown estimator"):
            _estimate_all(("9pt",), *mixed_pool)

    @given(order=st.lists(st.integers(0, 16), min_size=1, max_size=10))
    # mixed_pool: 0-12 are live for cube8 and conditioned, so a stack of them
    # takes every all-clear shortcut; 13 has a point at infinity, 14
    # coincident points (DegenerateCloud), 15 collinear ones
    # (IdenticallyZeroPencil) and 16 a repeated correspondence.
    @example(order=list(range(13)))
    @example(order=[14, 0, 13, 15, 16, 5, 14])
    @settings(max_examples=40, deadline=None)
    def test_mixed_stacks_equal_one_by_one(self, mixed_pool, order):
        # Live instances among failing and unconditioned ones, in any order
        # and with repeats, through one call over ALGOS.
        X, Y = mixed_pool[0][order], mixed_pool[1][order]
        for algo, F, residual, failures in zip(ALGOS, *_estimate_all(ALGOS, X, Y)):
            assert_estimates_are_one_by_one(algo, X, Y, F, residual, failures)

    def test_mixed_pool_reaches_the_unconditioned_path(self, mixed_pool):
        X, Y = mixed_pool
        w = _unit_rows(np.concatenate([X, Y], axis=1))[..., 2]
        assert (np.abs(w) <= 1e-12).any(axis=1).sum() == 1

    def test_pinned_estimates(self):
        # The bench-like pool, ruled geometries among non-ruled ones, and
        # mixed_pool's failure cases, stacked and one by one: every F,
        # residual, root, candidate and exception hashes as recorded in
        # PINNED_ESTIMATES.
        ruled = bench_like_pool()[2]
        assert 0 < ruled.sum() < len(ruled)
        assert estimate_hashes(*pinned_pool()) == PINNED_ESTIMATES


# sha256 digests of estimate_hashes on pinned_pool(), recorded before the
# stacked core's all-clear shortcuts: they must not move a bit.
PINNED_ESTIMATES = {
    "_estimate_all": "c74071f5f0930a16348ee46534bc843f59b62e974488b69868d4bd584bc2d3c5",
    "cube_eight_point": "f6f5b8050353dcb2a7d0546b8b2d71dd2b68b6ff52bc38193df8a34c8ed7603a",
    "seven_point": "0592438c19eb1127953511c7e24f7dc31600a6d3b625cc84f763f876c5e9de1d",
    "pencil_solve": "aa96e5605cd9d5bde9cf0dc0c78afb949f6ca6e632ebdfdd13b5a43381e166d9",
}


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

    def test_one_point_raises(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            hartley_normalize([[1.0, 2.0, 1.0]])


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

    def test_length_mismatch(self, rng):
        # Raised before any work, as build_Z raises it; a trimmed pair of
        # inputs would broadcast instead.
        X, Y, _ = generic_scene(rng, n=10)
        for nx, ny in ((8, 9), (9, 8), (10, 9)):
            with pytest.raises(LengthMismatch):
                eight_point(X[:nx], Y[:ny])

    def test_kernel_dimension_is_kernel_basis(self, rng, standard_instance):
        # DegenerateInput carries the dimension kernel_basis(build_Z(X, Y))
        # gives: cube images, repeated and coincident correspondences, and
        # more than nine rows.
        Xg, Yg, _ = generic_scene(rng, n=10)
        Xs, Ys = standard_instance["X"], standard_instance["Y"]
        cases = [
            (Xs, Ys),
            (np.vstack([Xs, Xs[:2]]), np.vstack([Ys, Ys[:2]])),
            (Xg[[0, 1, 2, 3, 4, 5, 6, 6]], Yg[[0, 1, 2, 3, 4, 5, 6, 6]]),
            (Xg[[0, 1, 2, 3, 4, 5, 5, 5, 5, 5]], Yg[[0, 1, 2, 3, 4, 5, 5, 5, 5, 5]]),
            (np.tile([1.0, 2.0, 1.0], (8, 1)), Yg[:8]),
        ]
        dims = []
        for X, Y in cases:
            with pytest.raises(DegenerateInput) as info:
                eight_point(X, Y)
            dims.append(info.value.kernel_dim)
            assert info.value.kernel_dim == len(kernel_basis(build_Z(X, Y)))
        assert dims == [2, 2, 2, 3, 6]


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

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_camera_is_rejected(self, standard_instance, which, bad):
        cameras = [np.array(standard_instance[k], dtype=float) for k in ("A1", "A2")]
        cameras[which][2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            fundamental_from_cameras(*cameras)

    def test_matches_the_checked_expression(self, rng):
        # Reference: the expression with proj_equal and project_all, which check
        # their inputs again.  The sweep's look-at pairs and generic cameras
        # over twelve orders of magnitude give the same F bit for bit.
        def reference(A1, A2):
            c1, c2 = focal_point(A1), focal_point(A2)
            if proj_equal(c1, c2, tol=1e-9):
                raise CoincidentCenters("camera centers coincide")
            e2 = project_all(A2, [c1])[0]
            ex = np.array([[0.0, -e2[2], e2[1]], [e2[2], 0.0, -e2[0]], [-e2[1], e2[0], 0.0]])
            return canonical_fmatrix(ex @ A2 @ np.linalg.pinv(A1))

        pairs = [sample_camera_pair(rng, 6.0) for _ in range(1000)]
        pairs += list(rng.standard_normal((500, 2, 3, 4)) * 10.0 ** rng.uniform(-6, 6, (500, 1, 1, 1)))
        for A1, A2 in pairs:
            assert np.array_equal(fundamental_from_cameras(A1, A2), reference(A1, A2))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_generators_are_rejected(self, rng, bad):
        # Unchecked, the generators' SVD raised LinAlgError.
        for which in (0, 1):
            F = rng.standard_normal((2, 3, 3))
            F[which, 1, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                pencil_solve(*F)

    @pytest.mark.xfail(strict=True, reason="real_roots merges a distinct real root into a 1e-2 cluster")
    def test_close_distinct_roots_all_come_back(self):
        # The member at alpha is diag(1 - alpha / r_i), of rank 2 at each
        # r_i.  Today 0.703508 joins the cluster of 0.707764, whose mean
        # polishes to 0.707764, and is lost.
        r = np.array([0.707764, 0.703508, 0.346299])
        sol = pencil_solve(np.diag(1.0 - 1.0 / r), np.eye(3))
        assert len(sol.roots) == 3
        assert sol.roots == pytest.approx(np.sort(r), rel=0.0, abs=1e-9)

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
        # The public form solves on exactly seven; the dispatcher selects on
        # all rows and needs at least seven.
        X, Y, _ = generic_scene(rng, n=8)
        for n in (6, 8):
            with pytest.raises(ValueError, match="needs exactly 7 correspondences"):
                seven_point(X[:n], Y[:n])
        with pytest.raises(ValueError, match="needs at least 7 correspondences"):
            _estimate_all(("7pt",), X[None, :6], Y[None, :6])

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

    @given(
        which=st.integers(0, 3),
        e1=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
        e2=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
    )
    @example(which=0, e1=[0.0] * 9, e2=[0.0] * 9)
    @settings(max_examples=40, deadline=None)
    def test_homography_equivariance(self, nonruled_pool, which, e1, e2):
        # H = I + 0.3 E with |E_ij| <= 1 has ||H - I||_2 <= 0.9, so
        # cond(H) <= 19.  The pool's affine image coordinates lie within 0.3
        # of the origin, so H keeps every last coordinate above half its size.
        X, Y, F = nonruled_pool[which]
        H1 = np.eye(3) + 0.3 * np.reshape(e1, (3, 3))
        H2 = np.eye(3) + 0.3 * np.reshape(e2, (3, 3))
        Xh, Yh = X @ H1.T, Y @ H2.T
        assert np.all(np.abs(Xh[:, 2]) > 0.5 * np.abs(X[:, 2]))
        assert np.all(np.abs(Yh[:, 2]) > 0.5 * np.abs(Y[:, 2]))
        expected = np.linalg.inv(H2).T @ F @ np.linalg.inv(H1)
        assert grassmann_angle(cube_eight_point(Xh, Yh), expected) < 1e-8


def look_at_scene():
    """Eight random points seen by two radius-6 look-at cameras, and F."""
    rng = np.random.default_rng(0)
    P = homogenize(rng.uniform(-1.0, 1.0, size=(8, 3)))
    A1, A2 = sample_camera_pair(rng, 6.0)
    return project_all(A1, P), project_all(A2, P), fundamental_from_cameras(A1, A2)


# Every image point scaled by 2^-560 or 2^560: a product of two coordinates,
# as Z holds, would under- or overflow, so Z is built from each point scaled
# back by a power of two.
EXTREME_SCALES = [2.0**-560, 2.0**560]


class TestExtremeScales:
    @pytest.mark.parametrize("scale", EXTREME_SCALES)
    def test_generic_scene(self, scale):
        X, Y, F_true = look_at_scene()
        Xs, Ys = X * scale, Y * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert grassmann_angle(eight_point(Xs, Ys), F_true) < 1e-9
            assert min(grassmann_angle(F, F_true) for F in seven_point(Xs[:7], Ys[:7]).candidates) < 1e-9
            assert grassmann_angle(cube_eight_point(Xs, Ys), F_true) < 1e-9

    @pytest.mark.parametrize("scale", EXTREME_SCALES)
    def test_cube_scene(self, standard_instance, scale):
        # The second image has points at infinity, so cube8 takes the images
        # unconditioned.
        X, Y, F = standard_instance["X"], standard_instance["Y"], standard_instance["F"]
        Xs, Ys = X * scale, Y * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInput) as info:
                eight_point(Xs, Ys)
            assert info.value.kernel_dim == 2
            candidates = zip(seven_point(Xs[:7], Ys[:7]).candidates, seven_point(X[:7], Y[:7]).candidates, strict=True)
            assert all(grassmann_angle(Fs, F7) < 1e-12 for Fs, F7 in candidates)
            assert proj_equal(cube_eight_point(Xs, Ys), F)

    @pytest.mark.parametrize("scale", [2.0**-100, 2.0**100])
    def test_ordinary_scales_keep_their_bits(self, scale):
        X, Y, _ = look_at_scene()
        assert np.array_equal(eight_point(X * scale, Y * scale), eight_point(X, Y))
        candidates = zip(seven_point(X[:7] * scale, Y[:7] * scale).candidates, seven_point(X[:7], Y[:7]).candidates)
        assert all(np.array_equal(Fs, F) for Fs, F in candidates)

    def test_an_extreme_instance_leaves_its_stack_alone(self, standard_instance):
        # Instances 1 and 3 are 0 and 2 at extreme scales: each gives nearly
        # the same estimate as its original, and 0 and 2 keep their bits.
        X, Y, _ = look_at_scene()
        Xc, Yc = standard_instance["X"], standard_instance["Y"]
        Xs = np.array([X, X * 2.0**560, Xc, Xc * 2.0**-560])
        Ys = np.array([Y, Y * 2.0**560, Yc, Yc * 2.0**-560])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F, _, failures = _estimate_all(ALGOS, Xs, Ys)
        F0, _, failures0 = _estimate_all(ALGOS, Xs[[0, 2]], Ys[[0, 2]])
        for k, algo in enumerate(ALGOS):
            assert np.array_equal(F[k][[0, 2]], F0[k], equal_nan=True)
            failed = {2 * n + 1 for n in failures0[k]}
            assert sorted(failures[k]) == sorted({2 * n for n in failures0[k]} | failed)
            for n in {1, 3} - failed:
                assert grassmann_angle(F[k][n], F[k][n - 1]) < 1e-9, algo
