from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicube.degeneracy import bracket, cross4, numerical_rank, veronese_matrix
from epicube.exact import (
    exact_config_ten,
    exact_det,
    exact_rank,
    exact_turnbull_young,
    exact_veronese_matrix,
    normal_form_cube,
    random_rational_cube,
    random_rational_point,
    vanishing_certificate,
)

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=20
)


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

    def test_identity(self):
        assert exact_det([[1, 0], [0, 1]]) == 1

    def test_row_swaps_and_zero_columns(self):
        assert exact_det([[0, 1], [1, 0]]) == -1
        assert exact_det([[0, 1, 2], [0, 3, 4], [5, 6, 7]]) == -10
        assert exact_det([[0, 1], [0, 2]]) == 0


class TestExactRankKernel:
    def test_rank_matches_numpy_on_integers(self, rng):
        for _ in range(20):
            M = rng.integers(-3, 4, size=(4, 6)).tolist()
            assert exact_rank(M) == np.linalg.matrix_rank(np.array(M, dtype=float))


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

        verts = normal_form_cube(rng)
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
