from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicube.degeneracy import (
    CUBE_LABELS,
    MAX_CUBE_CANDIDATES,
    NORMAL_FORM_BASE,
    UNIT_CUBE_VERTICES,
    bracket,
    cross4,
    cube_closure,
    invariant_terms,
    is_combinatorial_cube,
    numerical_rank,
    random_combinatorial_cube,
    veronese_matrix,
)
from epicube.exact import (
    exact_config_ten,
    exact_det,
    exact_rank,
    exact_turnbull_young,
    exact_veronese_matrix,
    random_rational_cube,
    random_rational_point,
    vanishing_certificate,
)
from epicube.exceptions import DegenerateIntersection, ExhaustedRetries

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=20
)
# Rationals that are several times cheaper to draw, for the tests that need
# dozens per example.
ratios = st.builds(Fraction, st.integers(-100, 100), st.integers(1, 20))


def cofactor_det(M):
    """Independent Laplace-expansion determinant oracle."""
    n = len(M)
    if n == 1:
        return M[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        total += (-1) ** j * M[0][j] * cofactor_det(minor)
    return total


class TestExactDet:
    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_matches_cofactor_3x3(self, rows):
        assert exact_det(rows) == cofactor_det(rows)

    @given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=4, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_matches_cofactor_4x4(self, rows):
        assert exact_det(rows) == cofactor_det(rows)

    @pytest.mark.parametrize(
        "M, message",
        [([[1, 2], [3]], "equal length"), ([[1, 2, 3], [4, 5, 6]], "square matrix")],
        ids=["ragged", "non-square"],
    )
    def test_rejects_what_has_no_determinant(self, M, message):
        with pytest.raises(ValueError, match=message):
            exact_det(M)

    def test_identity(self):
        assert exact_det([[1, 0], [0, 1]]) == 1

    def test_row_swaps_and_zero_columns(self):
        assert exact_det([[0, 1], [1, 0]]) == -1
        assert exact_det([[0, 1, 2], [0, 3, 4], [5, 6, 7]]) == -10
        assert exact_det([[0, 1], [0, 2]]) == 0


def reference_eliminate(A):
    """Gaussian elimination on Fractions, in place: the pivots, one per
    rank, and the sign of the row permutation.  An independent oracle for
    the integer (Bareiss) elimination."""
    A = [[Fraction(x) for x in row] for row in A]
    n_rows, n_cols = len(A), len(A[0])
    sign = 1
    pivots = []
    for col in range(n_cols):
        row = len(pivots)
        if row == n_rows:
            break
        pivot = next((i for i in range(row, n_rows) if A[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != row:
            A[row], A[pivot] = A[pivot], A[row]
            sign = -sign
        pv = A[row][col]
        for i in range(row + 1, n_rows):
            if A[i][col] != 0:
                f = A[i][col] / pv
                for j in range(col + 1, n_cols):
                    A[i][j] -= f * A[row][j]
        pivots.append(pv)
    return pivots, sign


@st.composite
def degenerate_matrices(draw):
    """Rational matrices with zeroed rows and columns and inserted rational
    multiples of their own rows."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(ratios, min_size=n, max_size=n), min_size=m, max_size=m))
    for i in draw(st.sets(st.integers(0, m - 1), max_size=m)):
        rows[i] = [Fraction(0)] * n
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        for row in rows:
            row[j] = Fraction(0)
    for _ in range(draw(st.integers(0, 3))):
        s = draw(ratios)
        src = rows[draw(st.integers(0, len(rows) - 1))]
        rows.insert(draw(st.integers(0, len(rows))), [s * x for x in src])
    return rows


class TestExactRankKernel:
    def test_rank_matches_numpy_on_integers(self, rng):
        for _ in range(20):
            M = rng.integers(-3, 4, size=(4, 6)).tolist()
            assert exact_rank(M) == np.linalg.matrix_rank(np.array(M, dtype=float))

    @given(degenerate_matrices())
    @settings(max_examples=100, deadline=None)
    def test_rank_and_det_match_fraction_elimination(self, rows):
        pivots, sign = reference_eliminate(rows)
        assert exact_rank(rows) == len(pivots)
        if len(rows) == len(rows[0]):
            det = exact_det(rows)
            assert type(det) is Fraction
            assert det == (prod(pivots, start=Fraction(sign)) if len(pivots) == len(rows) else 0)


class TestCross4:
    @given(
        st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=3, max_size=3)
    )
    @settings(max_examples=30, deadline=None)
    def test_orthogonal_to_inputs(self, rows):
        n = cross4(*rows)
        for r in rows:
            assert sum(a * b for a, b in zip(n, r)) == 0

    @given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=4, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_bracket_is_determinant(self, rows):
        assert bracket(*rows) == cofactor_det(rows)

    def test_vanishes_iff_dependent(self):
        a = (1, 0, 0, 0)
        b = (0, 1, 0, 0)
        assert any(x != 0 for x in cross4(a, b, (0, 0, 1, 0)))
        assert all(x == 0 for x in cross4(a, b, (1, 1, 0, 0)))


class TestRationalCubes:
    def test_normal_form_exact_coplanarity(self, rng):
        # The construction guarantees exactly coplanar facets; convexity is
        # only enforced by the rejection loop one level up.
        from epicube.degeneracy import CUBE_POS, FACETS

        verts = random_rational_cube(rng, apply_map=False)
        for facet in FACETS:
            M = [list(verts[CUBE_POS[lab]]) for lab in facet]
            assert exact_det(M) == 0

    def test_random_cube_exact_facet_coplanarity(self, rng):
        from epicube.degeneracy import CUBE_POS, FACETS

        verts = random_rational_cube(rng)
        for facet in FACETS:
            M = [list(verts[CUBE_POS[lab]]) for lab in facet]
            assert exact_det(M) == 0

    def test_exact_veronese_rank_drop(self, rng):
        verts = random_rational_cube(rng)
        assert exact_rank(exact_veronese_matrix(verts)) <= 7
        V = np.array([[float(x) for x in v] for v in verts])
        assert numerical_rank(veronese_matrix(V)) <= 7


class TestTurnbullYoungExact:
    def test_zero_on_cube_nonzero_on_perturbation(self, rng):
        verts = random_rational_cube(rng)
        f1 = random_rational_point(rng)
        f2 = random_rational_point(rng)
        config = exact_config_ten(verts, f1, f2)
        assert exact_turnbull_young(config) == 0
        broken = [list(v) for v in verts]
        broken[6][0] += Fraction(1, 7)
        config2 = exact_config_ten([tuple(v) for v in broken], f1, f2)
        assert exact_turnbull_young(config2) != 0

    def test_certificate_small_run(self, rng):
        res = vanishing_certificate(rng, trials=5, controls=3)
        assert res["vanished"] == 5
        assert res["rank_ok"] == 5
        assert res["nonzero_controls"] == 3


# Rational points of P^3 with negative entries and points at infinity.
points = st.tuples(ratios, ratios, ratios, st.one_of(st.just(Fraction(0)), ratios))
configs = st.lists(points, min_size=10, max_size=10)


class TestTurnbullYoungIntegerPath:
    """The invariant on integer rows against the invariant on Fractions,
    and the two invariances the integer path relies on: a point scaled by s
    scales the invariant by s**2 (rows are scaled to integers), and a linear
    map G of all ten points scales it by det(G)**5 (the certificate maps its
    cubes to integer points)."""

    @given(configs)
    @settings(max_examples=60, deadline=None)
    def test_matches_fraction_sum(self, config):
        value = exact_turnbull_young(config)
        assert type(value) is Fraction
        fractions = [[Fraction(x) for x in p] for p in config]
        assert value == sum(invariant_terms(fractions), Fraction(0))

    @given(configs, st.integers(0, 9), ratios)
    @settings(max_examples=40, deadline=None)
    def test_point_scaling(self, config, i, s):
        scaled = list(config)
        scaled[i] = tuple(s * x for x in config[i])
        assert exact_turnbull_young(scaled) == s**2 * exact_turnbull_young(config)

    @given(configs, st.lists(st.lists(ratios, min_size=4, max_size=4), min_size=4, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_linear_map(self, config, G):
        mapped = [tuple(sum(g * x for g, x in zip(row, p)) for row in G) for p in config]
        assert exact_turnbull_young(mapped) == cofactor_det(G) ** 5 * exact_turnbull_young(config)


CUBE = UNIT_CUBE_VERTICES.astype(int).tolist()


class TestBoundary:
    """Like the float path's ``as_points(P, 4)``: points are 4-vectors and a
    cube has eight of them, or the call raises ValueError."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: exact_veronese_matrix([[1, 2, 3, 4, 5]] * 2),
            lambda: exact_veronese_matrix([[1, 2, 3]]),
            lambda: exact_turnbull_young([[1, 2, 3]] * 10),
            lambda: exact_turnbull_young([[1, 2, 3, 4, 5]] * 10),
            lambda: exact_turnbull_young([*CUBE[:7], [9, 0, 0, 1], [0, 9, 0, 1]]),
            lambda: exact_config_ten(CUBE + [[0, 0, 0, 1]], [9, 0, 0, 1], [0, 9, 0, 1]),
        ],
        ids=["veronese-5", "veronese-3", "invariant-3", "invariant-5", "seven-vertices", "nine-vertices"],
    )
    def test_rejects_with_value_error(self, call):
        with pytest.raises(ValueError):
            call()

    def test_invariant_needs_ten_points(self):
        with pytest.raises(ValueError, match="10-point"):
            exact_turnbull_young([[1, 2, 3, 4]] * 9)


class TestConfigTen:
    def test_label_placement(self, rng):
        cube = [tuple(Fraction(int(x)) for x in rng.integers(-5, 6, 4)) for _ in range(8)]
        f1 = (9, 0, 0, 1)
        f2 = (0, 9, 0, 1)
        C = exact_config_ten(cube, f1, f2)
        assert C[4] == f1
        assert C[5] == f2
        for lab, v in zip(CUBE_LABELS, cube):
            assert C[lab] == v


def reference_rational_cube(rng, apply_map=True):
    """The cube sampler written directly on Fractions: normal form, closure,
    a random affine map with a float conditioning check, box fit.  An
    independent oracle for the integer implementation."""

    def positive():
        return Fraction(int(rng.integers(200, 1001)), 1000)

    verts = dict(NORMAL_FORM_BASE)
    verts[1] = (positive(), positive(), 0, 1)
    verts[6] = (positive(), 0, positive(), 1)
    verts[7] = (0, positive(), positive(), 1)
    v8 = cube_closure(verts[1], verts[6], verts[7])
    if v8[3] == 0:
        raise DegenerateIntersection("no affine vertex 8")
    verts[8] = [x / v8[3] for x in v8]
    pts = [[Fraction(x) for x in verts[lab][:3]] for lab in CUBE_LABELS]
    if apply_map:
        for _ in range(200):
            A = [[Fraction(int(rng.integers(-1000, 1001)), 1000) for _ in range(3)] for _ in range(3)]
            sv = np.linalg.svd(np.array(A, dtype=float), compute_uv=False)
            if sv[-1] >= sv[0] / 4.0:
                break
        else:
            raise ExhaustedRetries("no well-conditioned map")
        pts = [[sum(A[i][j] * p[j] for j in range(3)) for i in range(3)] for p in pts]
    out = [[None] * 3 + [Fraction(1)] for _ in pts]
    for ax in range(3):
        lo, hi = min(p[ax] for p in pts), max(p[ax] for p in pts)
        if hi == lo:
            raise DegenerateIntersection("flat")
        for row, p in zip(out, pts):
            row[ax] = 2 * (p[ax] - lo) / (hi - lo) - 1
    return tuple(tuple(row) for row in out)


def draws(sampler, seed, n=6):
    """n successive samples from one seeded stream, errors by type name, and
    the generator state after them."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        try:
            out.append(sampler(rng, apply_map=bool(i % 2)))
        except (DegenerateIntersection, ExhaustedRetries) as exc:
            out.append(type(exc).__name__)
    return out + [rng.bit_generator.state]


class TestSamplerPinned:
    """The cube samplers against references kept in this file: the same
    rng stream must give the same rationals and the same floats."""

    def test_rational_cube_matches_fraction_reference(self):
        for seed in range(100):
            assert draws(random_rational_cube, seed) == draws(reference_rational_cube, seed)

    def test_combinatorial_cube_matches_rational_loop(self):
        for seed in range(120):
            rng = np.random.default_rng(seed)
            for _ in range(MAX_CUBE_CANDIDATES):
                try:
                    verts = random_rational_cube(rng)
                except DegenerateIntersection:
                    continue
                V = np.array([[float(x) for x in v] for v in verts])
                if is_combinatorial_cube(V)[0]:
                    break
            else:
                pytest.fail(f"seed {seed}: no cube in {MAX_CUBE_CANDIDATES} candidates")
            fast = np.random.default_rng(seed)
            cube = random_combinatorial_cube(fast)
            assert np.array_equal(cube.vertices, V)
            assert fast.bit_generator.state == rng.bit_generator.state

    def test_certificate_counts(self):
        full = {"trials": 10, "vanished": 10, "rank_ok": 10, "controls": 3, "nonzero_controls": 3}
        for seed in range(5):
            assert vanishing_certificate(np.random.default_rng(seed), 10, 3) == full

    def test_certificate_draws(self):
        # The draw after a certificate, recorded on the Fraction
        # implementation: the integer path makes the same draws in order.
        after = [
            400362932384988064,
            2764818630084845915,
            1185438783579163169,
            744757988486094916,
            4135301569685742707,
        ]
        for seed, expected in enumerate(after):
            rng = np.random.default_rng(seed)
            vanishing_certificate(rng, 10, 3)
            assert int(rng.integers(2**62)) == expected

    @pytest.mark.parametrize("trials, controls", [(0, 3), (3, 0), (-3, 2), (0, 0)])
    def test_certificate_rejects_empty_counts(self, trials, controls):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=">= 1"):
            vanishing_certificate(rng, trials, controls)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
