"""Symbolic proofs on the normal-form cube: the reduced Turnbull-Young
invariant vanishes on every combinatorial cube, whatever the two focal
points, and the 8x10 Veronese matrix of every cube has rank at most 7;
and for every camera pair, the constraint matrix Z of a cube's images is
that Veronese matrix times a fixed 10x9 matrix, so rank Z <= 7 as well.

The closure and invariant code that the float and rational paths run is
evaluated here on integer polynomials: the normal-form cube with free
parameters a..f and two fully symbolic homogeneous focal points.  Every
combinatorial cube is an affine image of a normal-form cube, and an
invertible linear map T of the homogeneous coordinates scales every
bracket by det T, hence every monomial of the invariant by (det T)^5; so
the invariant vanishes on all cubes once it vanishes identically here.
T also acts on the Veronese lift by an invertible 10x10 map, so the rank
bound carries over the same way.
"""

import numpy as np
import pytest

from epicube.degeneracy import (
    CUBE_LABELS,
    FACETS,
    NORMAL_FORM_BASE,
    VERONESE_I,
    VERONESE_J,
    _kron_rows,
    bracket,
    cross4,
    cube_closure,
    invariant_terms,
    veronese_lift,
)

sympy = pytest.importorskip("sympy")


def normal_form_config(gens):
    """The 10-slot configuration with the normal-form cube over ZZ[gens]
    (vertices 1, 6, 7 free in the first six generators) and empty focal
    slots 4, 5; also returns the point constructor."""
    a, b, c, d, e, f = gens[:6]

    def point(*coords):
        return [sympy.Poly(x, *gens, domain="ZZ") for x in coords]

    config = [None] * 10
    for lab, v in NORMAL_FORM_BASE.items():
        config[lab] = point(*v)
    config[1] = point(a, b, 0, 1)
    config[6] = point(c, 0, d, 1)
    config[7] = point(0, e, f, 1)
    config[8] = list(cube_closure(config[1], config[6], config[7]))
    return config, point


def test_invariant_vanishes_identically_on_normal_form_cube():
    focal = sympy.symbols("g:n")
    config, point = normal_form_config(sympy.symbols("a:f") + focal)
    config[4] = point(*focal[:4])
    config[5] = point(*focal[4:])

    # The closure really closes the cube: all six facets are coplanar.
    assert not config[8][3].is_zero
    for facet in FACETS:
        assert bracket(*(config[lab] for lab in facet)).is_zero

    terms = invariant_terms(config)
    assert not any(t.is_zero for t in terms)
    assert sum(terms[1:], terms[0]).is_zero


def test_veronese_rank_at_most_seven_on_normal_form_cube():
    config, _ = normal_form_config(sympy.symbols("a:f"))
    lift = veronese_lift(np.array([config[lab] for lab in CUBE_LABELS], dtype=object))
    # FACETS lists opposite facets in consecutive pairs; every vertex lies
    # on one facet of each pair, so each product of the two facet planes is
    # a quadric through all eight vertices.
    quadrics = []
    for near, far in zip(FACETS[0::2], FACETS[1::2]):
        p = cross4(*(config[lab] for lab in near[:3]))
        q = cross4(*(config[lab] for lab in far[:3]))
        coeffs = [
            p[i] * q[j] + p[j] * q[i] if i < j else p[i] * q[i]
            for i, j in zip(VERONESE_I, VERONESE_J)
        ]
        assert all(x.is_zero for x in lift @ np.array(coeffs, dtype=object))
        quadrics.append(coeffs)
    # The three are independent: their minor on the x1^2, x2^2, x3^2 rows
    # is a nonzero polynomial.  (Entry 0 of cross4 is the determinant of
    # columns 1..3 of its arguments.)
    rows = [[0] + [quad[k] for quad in quadrics] for k in (0, 4, 7)]
    assert not cross4(*rows)[0].is_zero
    # So the kernel of the 8x10 lift has dimension >= 3: rank <= 7.


def test_constraint_rows_factor_through_the_veronese_lift():
    # kron(A2 p, A1 p) is quadratic in p, so it is a fixed 10x9 linear map
    # M(A1, A2) of p's Veronese lift: for monomial k = p_a p_b, row k of M
    # holds the coefficients A2[i, a] A1[j, b] (+ A2[i, b] A1[j, a] if a != b)
    # of entry 3i + j.  Over the cube's eight points Z = V M, so rank Z <=
    # rank V <= 7 for every camera pair.
    cams = sympy.symbols("u:24")
    coords = sympy.symbols("p:4")
    gens = cams + coords

    def poly(x):
        return sympy.Poly(x, *gens, domain="ZZ")

    A1 = np.array([poly(x) for x in cams[:12]], dtype=object).reshape(3, 4)
    A2 = np.array([poly(x) for x in cams[12:]], dtype=object).reshape(3, 4)
    p = np.array([[poly(x) for x in coords]], dtype=object)
    a, b = VERONESE_I, VERONESE_J
    off_diagonal = np.array([[int(i != j)] for i, j in zip(a, b)], dtype=object)[:, :, None]
    M = A2[:, a].T[:, :, None] * A1[:, b].T[:, None, :]
    M = (M + off_diagonal * (A2[:, b].T[:, :, None] * A1[:, a].T[:, None, :])).reshape(10, 9)
    assert all(x.free_symbols <= set(cams) for x in M.ravel())
    Z = _kron_rows(p @ A1.T, p @ A2.T)
    assert all(x.is_zero for x in (veronese_lift(p) @ M - Z).ravel())
