"""Degree-2 Veronese lift, constraint matrix Z, rank diagnostics, the
reduced Turnbull-Young bracket invariant, and combinatorial cubes.

A combinatorial cube is a convex 3-polytope with six quadrilateral facets
whose vertex-facet incidence matches the standard cube.  Its eight vertices
carry the labels 0,1,2,3,6,7,8,9; a full 10-point configuration adds the
two focal points in labels 4 and 5.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateIntersection, ExhaustedRetries, LengthMismatch
from .projective import DEFAULT_TOL, as_point, as_points

# Vertex labels of the cube inside the 10-point labeling; 4 and 5 are the
# focal-point slots.
CUBE_LABELS = (0, 1, 2, 3, 6, 7, 8, 9)
CUBE_POS = {lab: i for i, lab in enumerate(CUBE_LABELS)}

# The six facets, as label quadruples.
FACETS = (
    (0, 1, 2, 3),
    (6, 7, 8, 9),
    (0, 3, 6, 9),
    (1, 2, 7, 8),
    (0, 2, 7, 9),
    (1, 3, 6, 8),
)

# Reduced Turnbull-Young invariant: four signed products of five 4-point
# brackets over the 10-point labeling.
TY_MONOMIALS = (
    (+1, ((0, 1, 3, 5), (0, 2, 4, 7), (1, 2, 6, 8), (3, 4, 6, 9), (5, 7, 8, 9))),
    (-1, ((0, 1, 3, 4), (0, 2, 5, 7), (1, 2, 6, 8), (3, 5, 6, 9), (4, 7, 8, 9))),
    (+1, ((0, 1, 2, 5), (0, 3, 4, 6), (1, 3, 7, 8), (2, 4, 7, 9), (5, 6, 8, 9))),
    (-1, ((0, 1, 2, 4), (0, 3, 5, 6), (1, 3, 7, 8), (2, 5, 7, 9), (4, 6, 8, 9))),
)

# Degree-2 Veronese monomial table: monomial k is x[VERONESE_I[k]] *
# x[VERONESE_J[k]], in the order x1^2, x1x2, x1x3, x1x4, x2^2, x2x3, x2x4,
# x3^2, x3x4, x4^2.
VERONESE_I, VERONESE_J = np.triu_indices(4)

# Fixed vertices of the normal-form cube by label: 0 at the origin, 3, 2, 9
# the unit vectors (homogeneous, last coordinate 1).
NORMAL_FORM_BASE = {0: (0, 0, 0, 1), 3: (1, 0, 0, 1), 2: (0, 1, 0, 1), 9: (0, 0, 1, 1)}

# Unit cube with vertices (+-1, +-1, +-1, 1) in label order 0,1,2,3,6,7,8,9,
# following the normal-form labeling: 0 at the origin corner, 3/2/9 its
# axis neighbors, 8 the opposite corner.
UNIT_CUBE_VERTICES = np.array(
    [
        [-1.0, -1.0, -1.0, 1.0],  # 0
        [1.0, 1.0, -1.0, 1.0],  # 1
        [-1.0, 1.0, -1.0, 1.0],  # 2
        [1.0, -1.0, -1.0, 1.0],  # 3
        [1.0, -1.0, 1.0, 1.0],  # 6
        [-1.0, 1.0, 1.0, 1.0],  # 7
        [1.0, 1.0, 1.0, 1.0],  # 8
        [-1.0, -1.0, 1.0, 1.0],  # 9
    ]
)

# Exact candidates drawn per cube; about a quarter pass the convexity check.
MAX_CUBE_CANDIDATES = 200


@dataclass
class CubeConfig:
    """Eight labeled vertices of a combinatorial cube.

    ``vertices`` is an (8, 4) array in label order 0,1,2,3,6,7,8,9 with all
    points affine (nonzero last coordinate).
    """

    vertices: np.ndarray

    def __post_init__(self):
        self.vertices = as_points(self.vertices, 4)
        if self.vertices.shape != (8, 4):
            raise ValueError("a cube has exactly 8 vertices")


def unit_cube():
    return CubeConfig(UNIT_CUBE_VERTICES.copy())


def veronese_matrix(P):
    """Stack the Veronese lifts of a configuration into an (n, 10) matrix."""
    P = as_points(P, 4)
    if len(P) < 1:
        raise ValueError("need at least one point")
    return veronese_lift(P)


# The ring-generic algebra: these functions use only +, - and *, so the
# float, rational and symbolic paths all run the same code.


def veronese_lift(P):
    """Degree-2 Veronese lift of the rows of an (n, 4) array over any ring.

    Column k is the monomial P[:, VERONESE_I[k]] * P[:, VERONESE_J[k]].
    """
    return P[:, VERONESE_I] * P[:, VERONESE_J]


def cross4(a, b, c):
    """Generalized cross product in 4 coordinates, over any ring.

    Returns n with n . x = det([x; a; b; c]) for every x, i.e. the vector
    of signed 3x3 maximal minors of the stacked rows a, b, c.
    """
    m01 = b[0] * c[1] - b[1] * c[0]
    m02 = b[0] * c[2] - b[2] * c[0]
    m03 = b[0] * c[3] - b[3] * c[0]
    m12 = b[1] * c[2] - b[2] * c[1]
    m13 = b[1] * c[3] - b[3] * c[1]
    m23 = b[2] * c[3] - b[3] * c[2]
    return (
        a[1] * m23 - a[2] * m13 + a[3] * m12,
        a[2] * m03 - a[0] * m23 - a[3] * m02,
        a[0] * m13 - a[1] * m03 + a[3] * m01,
        a[1] * m02 - a[0] * m12 - a[2] * m01,
    )


def bracket(p, q, r, s):
    """The bracket [p q r s] = det([p; q; r; s]) over any ring, by
    cofactors along p."""
    n = cross4(q, r, s)
    return p[0] * n[0] + p[1] * n[1] + p[2] * n[2] + p[3] * n[3]


def invariant_terms(config):
    """The four signed bracket-product monomials of the reduced
    Turnbull-Young invariant over any ring; ``config`` is indexable by
    label 0..9."""
    terms = []
    for sign, brackets in TY_MONOMIALS:
        prod = sign
        for idx in brackets:
            prod = prod * bracket(*(config[i] for i in idx))
        terms.append(prod)
    return terms


def cube_closure(p1, p6, p7):
    """Vertex 8 of the normal-form cube over any ring, homogeneous and
    unscaled.

    p1 lies on the xy-plane, p6 on the xz-plane and p7 on the yz-plane (as
    homogeneous 4-vectors); vertex 8 is the intersection of the facet
    planes through {1,2,7}, {1,3,6} and {6,7,9}.
    """
    V = NORMAL_FORM_BASE
    return cross4(cross4(p1, V[2], p7), cross4(p1, V[3], p6), cross4(p6, p7, V[9]))


def build_Z(X, Y):
    """Constraint matrix of the bilinear relations Y_i^T F X_i = 0.

    Row i is kron(Y_i, X_i), paired with the row-major vectorization of F
    so that row . vec(F) = Y_i^T F X_i.
    """
    X = as_points(X, 3)
    Y = as_points(Y, 3)
    if len(X) != len(Y):
        raise LengthMismatch(f"|X|={len(X)} but |Y|={len(Y)}")
    return (Y[:, :, None] * X[:, None, :]).reshape(len(X), 9)


def numerical_rank(M, rank_tol=DEFAULT_TOL):
    """Number of singular values above rank_tol * sigma_max."""
    s = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > rank_tol * s[0]))


def kernel_basis(M):
    """Orthonormal basis of the numerical right null space of M.

    Singular directions with sigma <= DEFAULT_TOL * sigma_max count as null,
    as do the extra right singular vectors when M has more columns than
    rows.  Returns a list of vectors; empty for full column rank.
    """
    M = np.asarray(M, dtype=float)
    _, s, vt = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(s > DEFAULT_TOL * s[0])) if s[0] > 0.0 else 0
    return [vt[i] for i in range(rank, M.shape[1])]


def config_ten(cube, f1, f2):
    """Assemble the (10, 4) labeled configuration: cube + focal points 4, 5."""
    verts = cube.vertices if isinstance(cube, CubeConfig) else as_points(cube, 4)
    if verts.shape != (8, 4):
        raise ValueError("cube part must have 8 points")
    out = np.empty((10, 4))
    for lab, row in zip(CUBE_LABELS, verts):
        out[lab] = row
    out[4] = as_point(f1, 4)
    out[5] = as_point(f2, 4)
    return out


def turnbull_young_terms(config):
    """The four signed bracket-product monomials of the reduced invariant."""
    C = as_points(config, 4)
    if C.shape != (10, 4):
        raise ValueError("need the full 10-point labeled configuration")
    return np.array(invariant_terms(C.tolist()))


def turnbull_young_reduced(config):
    """Reduced Turnbull-Young invariant of a 10-point labeled configuration.

    Vanishes whenever the eight cube-slot points form a combinatorial cube,
    independent of the two focal-slot points.
    """
    return float(np.sum(turnbull_young_terms(config)))


def facet_planes(vertices):
    """Best-fit facet plane (4-vector) per facet, via SVD of its 4 points."""
    planes = []
    for facet in FACETS:
        pts = vertices[[CUBE_POS[lab] for lab in facet]]
        _, _, vt = np.linalg.svd(pts)
        planes.append(vt[3])
    return planes


def is_combinatorial_cube(vertices):
    """Check coplanar facets plus the cube's strict vertex-facet incidence.

    ``vertices`` is an (8, 4) array in label order 0,1,2,3,6,7,8,9.
    Returns (verdict, diagnostic dict).
    """
    V = as_points(vertices, 4)
    if V.shape != (8, 4):
        raise ValueError("a cube has exactly 8 vertices")
    diag = {"affine": True, "coplanar": [], "strict_side": []}
    tol = 1e-8
    if np.any(np.abs(V[:, 3]) <= tol * np.linalg.norm(V, axis=1)):
        diag["affine"] = False
        return False, diag
    # Work on last-coordinate-1 representatives so scales are comparable.
    V = V / V[:, 3][:, None]
    # The bracket runs on Python floats: numpy scalar arithmetic is slower.
    rows = V.tolist()
    planes = facet_planes(V)
    ok = True
    for facet, plane in zip(FACETS, planes):
        on_idx = [CUBE_POS[lab] for lab in facet]
        off_idx = [i for i in range(8) if i not in on_idx]
        scale = max(np.linalg.norm(V[i]) for i in on_idx) ** 4
        det = bracket(*(rows[i] for i in on_idx))
        coplanar = abs(det) <= tol * max(scale, 1.0)
        diag["coplanar"].append(coplanar)
        vals = np.array([plane @ V[i] for i in off_idx])
        strict = bool(
            np.all(vals > tol * max(scale, 1.0)) or np.all(vals < -tol * max(scale, 1.0))
        )
        diag["strict_side"].append(strict)
        ok = ok and coplanar and strict
    return ok, diag


def random_combinatorial_cube(rng):
    """Sample a random combinatorial cube inside [-1, 1]^3.

    Construction follows the normal-form parametrization: vertex 0 at the
    origin, 3 = e1, 2 = e2, 9 = e3, vertex 1 on the xy-plane, 6 on the
    xz-plane, 7 on the yz-plane, and vertex 8 the intersection of the three
    facet planes through {1,2,7}, {1,3,6} and {6,7,9}.  A random invertible
    affine map then fits the polytope into the box.  All arithmetic runs on
    exact rationals so the facet coplanarities hold to rounding error.
    Samples are rejected until the convexity check passes.
    """
    from . import exact

    for _ in range(MAX_CUBE_CANDIDATES):
        try:
            verts_exact = exact.random_rational_cube(rng)
        except DegenerateIntersection:
            continue
        verts = np.array([[float(x) for x in v] for v in verts_exact])
        ok, _ = is_combinatorial_cube(verts)
        if ok:
            return CubeConfig(verts)
    raise ExhaustedRetries(f"no valid cube after {MAX_CUBE_CANDIDATES} attempts")
