"""Symbolic proof that the reduced Turnbull-Young invariant vanishes on
every combinatorial cube, whatever the two focal points.

The closure and invariant code that the float and rational paths run is
evaluated here on integer polynomials: the normal-form cube with free
parameters a..f and two fully symbolic homogeneous focal points.  Every
combinatorial cube is an affine image of a normal-form cube, and an
invertible linear map T of the homogeneous coordinates scales every
bracket by det T, hence every monomial of the invariant by (det T)^5; so
the invariant vanishes on all cubes once it vanishes identically here.
"""

import pytest

from epicube.degeneracy import (
    FACETS,
    NORMAL_FORM_BASE,
    bracket,
    cube_closure,
    invariant_terms,
)

sympy = pytest.importorskip("sympy")


def test_invariant_vanishes_identically_on_normal_form_cube():
    a, b, c, d, e, f = params = sympy.symbols("a:f")
    focal = sympy.symbols("g:n")
    gens = params + focal

    def point(*coords):
        return [sympy.Poly(x, *gens, domain="ZZ") for x in coords]

    config = [None] * 10
    for lab, v in NORMAL_FORM_BASE.items():
        config[lab] = point(*v)
    config[1] = point(a, b, 0, 1)
    config[6] = point(c, 0, d, 1)
    config[7] = point(0, e, f, 1)
    config[8] = list(cube_closure(config[1], config[6], config[7]))
    config[4] = point(*focal[:4])
    config[5] = point(*focal[4:])

    # The closure really closes the cube: all six facets are coplanar.
    assert not config[8][3].is_zero
    for facet in FACETS:
        assert bracket(*(config[lab] for lab in facet)).is_zero

    terms = invariant_terms(config)
    assert not any(t.is_zero for t in terms)
    assert sum(terms[1:], terms[0]).is_zero
