from fractions import Fraction
from itertools import combinations
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicube import exact
from epicube.degeneracy import (
    CUBE_LABELS,
    MAX_CUBE_CANDIDATES,
    NORMAL_FORM_BASE,
    UNIT_CUBE_VERTICES,
    _integer_cube,
    bracket,
    cross4,
    cube_closure,
    invariant_terms,
    is_combinatorial_cube,
    numerical_rank,
    random_combinatorial_cube,
    veronese_lift,
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


@st.composite
def lifted_point_sets(draw):
    """1 to 10 points of P^3, ints or Fractions, some at infinity, with
    repeated points and, at times, all of them on one plane: inputs whose
    Veronese lift is often rank deficient."""
    coord = draw(st.sampled_from([st.integers(-9, 9), ratios]))
    point = st.tuples(coord, coord, coord, st.one_of(st.just(0), coord)).map(list)
    n = draw(st.integers(1, 10))
    points = draw(st.lists(point, min_size=n, max_size=n))
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        points[i] = list(points[draw(st.integers(0, n - 1))])
    if draw(st.booleans()):
        a, b, c = draw(st.lists(coord, min_size=3, max_size=3))
        for p in points:
            p[2] = a * p[0] + b * p[1] + c * p[3]
    return points


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

    @given(lifted_point_sets(), st.permutations(range(4)))
    @settings(max_examples=60, deadline=None)
    def test_veronese_rank_ignores_coordinate_order(self, points, order):
        # The certificate ranks the lift of its cube with w moved first.
        rank = exact_rank(exact_veronese_matrix(points))
        assert rank == len(reference_eliminate(exact_veronese_matrix(points))[0])
        assert exact_rank(exact_veronese_matrix([[p[k] for k in order] for p in points])) == rank

    @pytest.mark.parametrize(
        "call, M",
        [
            (exact_rank, [[2, 4, 6, 1], [1, 3, 5, 7], [0, 2, 9, 4]]),
            (exact_det, [[2, 1, 3], [4, 5, 6], [7, 8, 10]]),
            (exact_turnbull_young, [[i, i * i, 3 - i, 1] for i in range(10)]),
        ],
        ids=["rank", "det", "invariant"],
    )
    def test_leaves_integer_rows_of_the_caller_unchanged(self, call, M):
        # The elimination works in place, on rows that must be copies of
        # the caller's, even where the rows are ints already.
        before = [list(row) for row in M]
        call(M)
        assert M == before


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

    def test_vanishes_on_convex_and_non_convex_draws(self):
        # The certificate's draws, the map on every other one: most are not
        # convex, and the invariant, which reads only the facet
        # coplanarities, vanishes on both kinds.
        rng = np.random.default_rng(0)
        convex = []
        for i in range(40):
            nums, dens = _integer_cube(rng, apply_map=bool(i % 2))
            verts = [tuple(Fraction(n, d) for n, d in zip(row, dens)) + (1,) for row in nums]
            convex.append(is_combinatorial_cube(np.array(verts, dtype=float))[0])
            config = exact_config_ten(verts, random_rational_point(rng), random_rational_point(rng))
            assert exact_turnbull_young(config) == 0, i
        assert 0 < sum(convex) < len(convex)

    def test_certificate_small_run(self, rng):
        res = vanishing_certificate(rng, trials=5, controls=3)
        assert res["vanished"] == 5
        assert res["rank_ok"] == 5
        assert res["nonzero_controls"] == 3


# Rational points of P^3 with negative entries and points at infinity.
points = st.tuples(ratios, ratios, ratios, st.one_of(st.just(Fraction(0)), ratios))
configs = st.lists(points, min_size=10, max_size=10)


# The invariant's table as first written, each bracket's labels in
# increasing order.
SORTED_TY_MONOMIALS = (
    (+1, ((0, 1, 3, 5), (0, 2, 4, 7), (1, 2, 6, 8), (3, 4, 6, 9), (5, 7, 8, 9))),
    (-1, ((0, 1, 3, 4), (0, 2, 5, 7), (1, 2, 6, 8), (3, 5, 6, 9), (4, 7, 8, 9))),
    (+1, ((0, 1, 2, 5), (0, 3, 4, 6), (1, 3, 7, 8), (2, 4, 7, 9), (5, 6, 8, 9))),
    (-1, ((0, 1, 2, 4), (0, 3, 5, 6), (1, 3, 7, 8), (2, 5, 7, 9), (4, 6, 8, 9))),
)


def reference_invariant_terms(config):
    """The four monomials bracket by bracket on the sorted table, one cross
    product per bracket.  An independent oracle for the shared-triple
    ``invariant_terms``."""
    terms = []
    for sign, brackets in SORTED_TY_MONOMIALS:
        prod = sign
        for idx in brackets:
            prod = prod * bracket(*(config[i] for i in idx))
        terms.append(prod)
    return terms


int_points = st.tuples(*[st.integers(-50, 50)] * 3, st.one_of(st.just(0), st.integers(-50, 50)))


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

    @given(st.one_of(configs, st.lists(int_points, min_size=10, max_size=10)))
    @settings(max_examples=60, deadline=None)
    def test_matches_bracket_by_bracket_reference(self, config):
        expected = reference_invariant_terms(config)
        assert invariant_terms(config) == expected
        assert exact_turnbull_young(config) == sum(expected)

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

    @pytest.mark.parametrize(
        "trials, controls",
        [(2.5, 3), (3, 1.0), (True, 2), (3, True), ("3", 2)],
        ids=["float-trials", "float-controls", "bool-trials", "bool-controls", "str-trials"],
    )
    def test_certificate_rejects_non_integer_counts(self, trials, controls):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="integers >= 1"):
            vanishing_certificate(rng, trials, controls)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_certificate_takes_numpy_integer_counts(self):
        res = vanishing_certificate(np.random.default_rng(0), np.int64(2), np.int64(1))
        assert res == {"trials": 2, "vanished": 2, "rank_ok": 2, "controls": 1, "nonzero_controls": 1}

    @pytest.mark.parametrize("trials, controls", [(0, 3), (3, 0), (-3, 2), (0, 0)])
    def test_certificate_rejects_empty_counts(self, trials, controls):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=">= 1"):
            vanishing_certificate(rng, trials, controls)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def reference_fraction(rng, lo, hi):
    """The rational draw as first written: a denominator, then a numerator."""
    den = int(rng.integers(1, 1001))
    return Fraction(int(rng.integers(int(lo * den), int(hi * den) + 1)), den)


def reference_certificate(rng, trials, controls):
    """The certificate's loop on Fractions: rational focal points and
    control vertex, then ``exact_turnbull_young`` and ``exact_rank`` of the
    x, y, z, w lift.  Returns the counts, the ten rows of every evaluated
    configuration and the eight rows of every ranked cube."""
    counts = {"trials": trials, "vanished": 0, "rank_ok": 0, "controls": controls, "nonzero_controls": 0}
    configs, ranked = [], []
    for i in range(trials + controls):
        control = i >= trials
        nums, dens = _integer_cube(rng, apply_map=control or bool(i % 2))
        cube = [row + [1] for row in nums]
        if control:
            cube[6] = [x + d * reference_fraction(rng, 1, 3) / 7 for x, d in zip(nums[6], dens)] + [1]
        f1 = [d * reference_fraction(rng, -10, 10) for d in dens] + [1]
        f2 = [d * reference_fraction(rng, -10, 10) for d in dens] + [1]
        configs.append(exact_config_ten(cube, f1, f2))
        invariant = exact_turnbull_young(configs[-1])
        if control:
            counts["nonzero_controls"] += invariant != 0
        else:
            counts["vanished"] += invariant == 0
            counts["rank_ok"] += exact_rank(exact_veronese_matrix(cube)) <= 7
            ranked.append(cube)
    return counts, configs, ranked


def positive_multiple(row, ref):
    """row = s * ref for some s > 0, by cross-multiplication."""
    pairs = list(zip(row, ref))
    proportional = all(a * y == b * x for (a, x), (b, y) in combinations(pairs, 2))
    return proportional and sum(a * x for a, x in pairs) > 0


class TestCertificateIntegerRows:
    """The certificate builds every row in integers from the same draws.
    Any focal point keeps the invariant at 0 on a cube, so the counts alone
    cannot show a mis-scaled row; here every row it evaluates must be a
    positive multiple of the Fraction row, which keeps each verdict."""

    def test_rows_are_positive_multiples_of_the_fraction_rows(self, monkeypatch):
        evaluated, lifted = [], []

        def record_terms(config):
            evaluated.append([list(config[lab]) for lab in range(10)])
            return invariant_terms(config)

        def record_lift(P):
            lifted.append(P.tolist())
            return veronese_lift(P)

        monkeypatch.setattr(exact, "invariant_terms", record_terms)
        monkeypatch.setattr(exact, "veronese_lift", record_lift)
        for seed in range(30):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            # The reference reaches both through the public functions.
            counts, configs, ranked = reference_certificate(ref_rng, 10, 3)
            evaluated.clear()
            lifted.clear()
            assert vanishing_certificate(rng, 10, 3) == counts
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert int(rng.integers(2**62)) == int(ref_rng.integers(2**62))
            assert len(evaluated) == len(configs) == 13
            for rows, ref in zip(evaluated, configs):
                assert all(positive_multiple(a, b) for a, b in zip(rows, ref)), seed
            # The certificate ranks the lift of the cube with w moved first.
            assert len(lifted) == len(ranked) == 10
            for rows, cube in zip(lifted, ranked):
                assert all(positive_multiple(a, b[3:] + b[:3]) for a, b in zip(rows, cube)), seed


class TestRandomRationalPoint:
    def test_matches_reference_draws(self):
        # Three (denominator, numerator) draws in [-10, 10], in order, and
        # the same generator state after each point.
        for seed in range(10):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(5):
                point = random_rational_point(rng)
                assert point == tuple(reference_fraction(ref_rng, -10, 10) for _ in range(3)) + (1,)
                assert all(type(x) is Fraction for x in point)
                assert rng.bit_generator.state == ref_rng.bit_generator.state
