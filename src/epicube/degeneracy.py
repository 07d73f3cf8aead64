"""Degree-2 Veronese lift, constraint matrix Z, rank diagnostics, the
reduced Turnbull-Young bracket invariant, and combinatorial cubes.

A combinatorial cube is a convex 3-polytope with six quadrilateral facets
whose vertex-facet incidence matches the standard cube.  Its eight vertices
carry the labels 0,1,2,3,6,7,8,9; a full 10-point configuration adds the
two focal points in labels 4 and 5.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateIntersection, ExhaustedRetries, LengthMismatch
from .projective import DEFAULT_TOL, _as_array, _in_range, _unit_rows, as_points

# Vertex labels of the cube inside the 10-point labeling; 4 and 5 are the
# focal-point slots.
CUBE_LABELS = (0, 1, 2, 3, 6, 7, 8, 9)
CUBE_POS = {lab: i for i, lab in enumerate(CUBE_LABELS)}

# The six facets as label quadruples, opposite facets in consecutive pairs.
FACETS = (
    (0, 1, 2, 3),
    (6, 7, 8, 9),
    (0, 3, 6, 9),
    (1, 2, 7, 8),
    (0, 2, 7, 9),
    (1, 3, 6, 8),
)
# Row positions of each facet's vertices in an (8, 4) vertex array.
FACET_IDX = np.array([[CUBE_POS[lab] for lab in facet] for facet in FACETS])

# Reduced Turnbull-Young invariant: four signed products of five 4-point
# brackets over the 10-point labeling.  Focal labels 4 and 5 lead their
# brackets (an even permutation per monomial, so the signs stand), and the
# twenty brackets share the ten trailing triples of TY_TRIPLES.
TY_MONOMIALS = (
    (+1, ((5, 0, 1, 3), (4, 0, 2, 7), (1, 2, 6, 8), (4, 3, 6, 9), (5, 7, 8, 9))),
    (-1, ((4, 0, 1, 3), (5, 0, 2, 7), (1, 2, 6, 8), (5, 3, 6, 9), (4, 7, 8, 9))),
    (+1, ((5, 0, 1, 2), (4, 0, 3, 6), (1, 3, 7, 8), (4, 2, 7, 9), (5, 6, 8, 9))),
    (-1, ((4, 0, 1, 2), (5, 0, 3, 6), (1, 3, 7, 8), (5, 2, 7, 9), (4, 6, 8, 9))),
)
TY_TRIPLES = tuple(dict.fromkeys(idx[1:] for _, brackets in TY_MONOMIALS for idx in brackets))

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
# Affine maps drawn per candidate; 30% pass, so 0.7^200 ~ 1e-31 run out.
MAX_AFFINE_MAP_DRAWS = 200


@dataclass(frozen=True, eq=False)
class CubeConfig:
    """Eight labeled vertices of a combinatorial cube, checked and frozen.

    ``vertices`` is an (8, 4) array in label order 0,1,2,3,6,7,8,9.  The
    constructor raises ValueError where ``is_combinatorial_cube`` says False,
    and keeps in ``planes`` the facet planes (row k for FACETS[k]) from that
    check's SVD, and in ``pencil`` the facet pencil: row k is the flattened
    symmetric q_k with c^T q_k c = (planes[2k] . c)(planes[2k + 1] . c).  It
    keeps a copy of the vertices, and all three arrays are read-only.  Cubes
    compare and hash by their vertices, from which the other two derive.
    """

    vertices: np.ndarray
    planes: np.ndarray = field(init=False, repr=False)
    pencil: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ok, diag, vertices, planes = _facet_check(self.vertices)
        if not ok:
            raise ValueError(f"not a combinatorial cube: {diag}")
        near, far = planes[0::2], planes[1::2]
        q = 0.5 * (near[:, :, None] * far[:, None, :] + far[:, :, None] * near[:, None, :])
        pencil = q.reshape(3, 16)
        pencil.flags.writeable = False
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "planes", planes)
        object.__setattr__(self, "pencil", pencil)

    def __eq__(self, other):
        return isinstance(other, CubeConfig) and np.array_equal(self.vertices, other.vertices)

    def __hash__(self):
        return hash((self.vertices + 0.0).tobytes())  # -0.0 + 0.0 is 0.0


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


def _cross3(a, b):
    """a x b over any ring, rounded as np.cross rounds it; (3, n) stacks give n."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


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
    label 0..9.  Bracket [h a b c] is h . cross4(a, b, c), one cross4 per triple."""
    normals = {t: cross4(*(config[i] for i in t)) for t in TY_TRIPLES}
    terms = []
    for sign, brackets in TY_MONOMIALS:
        prod = sign
        for idx in brackets:
            p, n = config[idx[0]], normals[idx[1:]]
            prod = prod * (p[0] * n[0] + p[1] * n[1] + p[2] * n[2] + p[3] * n[3])
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


def _integer_cube(rng, apply_map):
    """The rational cube sampler on integers: the ``_normal_form``, mapped
    by an ``_affine_map`` if ``apply_map``, ``_fit`` into the box."""
    pts = _normal_form(rng)
    return _fit(_affine_map(rng) if apply_map else ((1, 0, 0), (0, 1, 0), (0, 0, 1)), pts)


def _normal_form(rng):
    """The normal-form cube closed by ``cube_closure``, as 8 integer points
    over one positive weight.  Every free coordinate is n/1000 with n in
    [200, 1000]: coordinates near zero flatten the cube toward a degenerate,
    noise-hypersensitive shape."""
    # One call of size n draws what n scalar calls would, in the same order.
    a, b, c, d, e, f = rng.integers(200, 1001, size=6).tolist()
    verts = {**NORMAL_FORM_BASE, 1: (a, b, 0, 1000), 6: (c, 0, d, 1000), 7: (0, e, f, 1000)}
    verts[8] = cube_closure(verts[1], verts[6], verts[7])
    if verts[8][3] == 0:
        raise DegenerateIntersection("facet planes do not meet in an affine point")
    weight = math.lcm(1000, verts[8][3])
    return [[u * (weight // verts[lab][3]) for u in verts[lab][:3]] for lab in CUBE_LABELS]


def _affine_map(rng):
    """The integers m (a 3x3 list) of a random map with entries m/1000 whose
    singular values pass ``sv[-1] >= sv[0] / 4``, which rejects the maps that
    squash the cube and every singular map but the zero one (``_fit`` finds
    its image flat).  Raises ExhaustedRetries after MAX_AFFINE_MAP_DRAWS."""
    for _ in range(MAX_AFFINE_MAP_DRAWS):
        M = rng.integers(-1000, 1001, size=(3, 3))
        m = M.tolist()
        verdict = _gram_screen(m)
        if verdict is None:
            sv = np.linalg.svd(M / 1000, compute_uv=False)
            verdict = sv[-1] >= sv[0] / 4.0
        if verdict:
            return m
    raise ExhaustedRetries(f"no well-conditioned affine map in {MAX_AFFINE_MAP_DRAWS} draws")


def _gram_screen(m):
    """The map rule on the integer 3x3 list m from the eigenvalues of G =
    m^T m: True or False, or None (ask the SVD) where G is a multiple of the
    identity or lambda_min / lambda_max is within a relative 1e-6 of 1/16.
    The closed form for a symmetric 3x3 runs on H = 3G - tr(G) I, in
    integers up to 3 phi = atan2(sqrt(P^3 - 54 det(H)^2), sqrt(54) det H),
    P = tr(H^2): 3 lambda = tr(G) + 2 sqrt(P/6) cos(phi + 2 pi k/3).  Its
    ratio is off by about 1e-14, far inside the band."""
    (a, b, c), (d, e, f), (g, h, i) = m
    g00, g11, g22 = a * a + d * d + g * g, b * b + e * e + h * h, c * c + f * f + i * i
    h01, h02, h12 = 3 * (a * b + d * e + g * h), 3 * (a * c + d * f + g * i), 3 * (b * c + e * f + h * i)
    t = g00 + g11 + g22
    h00, h11, h22 = 3 * g00 - t, 3 * g11 - t, 3 * g22 - t
    P = h00 * h00 + h11 * h11 + h22 * h22 + 2 * (h01 * h01 + h02 * h02 + h12 * h12)
    det = h00 * (h11 * h22 - h12 * h12) - h01 * (h01 * h22 - h12 * h02) + h02 * (h01 * h12 - h11 * h02)
    phi = math.atan2(math.sqrt(P * P * P - 54 * det * det), math.sqrt(54.0) * det) / 3.0
    s = 2.0 * math.sqrt(P / 6.0)
    top = t + s * math.cos(phi)
    gap = 16.0 * (t + s * math.cos(phi + 2.0 * math.pi / 3.0)) - top
    return None if P == 0 or abs(gap) <= 1e-6 * top else gap > 0.0


def _fit(M, pts):
    """The integer points pts mapped by the integer 3x3 M and fitted into
    [-1, 1]^3 per axis: ``(nums, dens)``, coordinate ``ax`` of vertex ``k``
    (labels 0,1,2,3,6,7,8,9) is ``nums[k][ax] / dens[ax]``, ``dens[ax] > 0``."""
    pts = [[r[0] * p[0] + r[1] * p[1] + r[2] * p[2] for r in M] for p in pts]
    lo = [min(col) for col in zip(*pts)]
    hi = [max(col) for col in zip(*pts)]
    if any(h == l for h, l in zip(hi, lo)):
        raise DegenerateIntersection("flat cube candidate")
    # 2 (p - lo) / (hi - lo) - 1 on each axis.
    nums = [[2 * u - l - h for u, l, h in zip(p, lo, hi)] for p in pts]
    return nums, [h - l for h, l in zip(hi, lo)]


def build_Z(X, Y):
    """Constraint matrix of the bilinear relations Y_i^T F X_i = 0.

    Row i is kron(Y_i, X_i), paired with the row-major vectorization of F
    so that row . vec(F) = Y_i^T F X_i.  A point whose largest |coordinate|
    is outside [1e-150, 1e150] is first scaled by a power of two into [1/2,
    1), so at such scales row i is kron(Y_i, X_i) times a positive power of
    two: Z keeps its rank and kernel, and no row under- or overflows.
    """
    X = as_points(X, 3)
    Y = as_points(Y, 3)
    if len(X) != len(Y):
        raise LengthMismatch(f"|X|={len(X)} but |Y|={len(Y)}")
    return _kron_rows(_in_range(X), _in_range(Y))


def _kron_rows(X, Y):
    """build_Z on (..., n, 3) stacks of checked points, without its scaling:
    the caller brings extreme points ``_in_range``."""
    return (Y[..., :, None] * X[..., None, :]).reshape(X.shape[:-1] + (9,))


def _ranks(s, rank_tol=DEFAULT_TOL):
    """Number of singular values above rank_tol * sigma_max, 0 for an empty
    or all-zero row, for each row of a (..., k) descending stack."""
    # np.sum without its per-call overhead.
    return np.add.reduce(s > rank_tol * s[..., :1], axis=-1)


def numerical_rank(M, rank_tol=DEFAULT_TOL):
    """Number of singular values above rank_tol * sigma_max."""
    return int(_ranks(np.linalg.svd(_as_array(M), compute_uv=False), rank_tol))


def kernel_basis(M):
    """Orthonormal basis of the numerical right null space of M.

    Singular directions with sigma <= DEFAULT_TOL * sigma_max count as null,
    as do the extra right singular vectors when M has more columns than
    rows.  Returns a list of vectors; empty for full column rank.
    """
    M = _as_array(M)
    _, s, vt = np.linalg.svd(M, full_matrices=True)
    return [vt[i] for i in range(int(_ranks(s)), M.shape[1])]


def _facet_check(vertices):
    """The convexity check: (verdict, diagnostics, vertices, planes or None),
    the vertices a read-only copy of the input and the planes read-only."""
    V = as_points(vertices, 4).copy()
    V.flags.writeable = False
    if V.shape != (8, 4):
        raise ValueError("a cube has exactly 8 vertices")
    tol = 1e-8
    # On unit rows, so that no norm under- or overflows at extreme scales.
    if np.any(np.abs(_unit_rows(V)[:, 3]) <= tol):
        return False, {"affine": False, "coplanar": [], "strict_side": []}, V, None
    # Work on last-coordinate-1 representatives so scales are comparable.
    W = V / V[:, 3][:, None]
    bound = tol * np.maximum(np.linalg.norm(W, axis=1)[FACET_IDX].max(axis=1) ** 4, 1.0)
    # One SVD per facet gives both tests: |det| is the product of the
    # singular values, and the last right singular vector is the plane.
    _, s, vt = np.linalg.svd(W[FACET_IDX])
    coplanar = s.prod(axis=1) <= bound
    # The vertices off a facet are those of the opposite facet.
    vals = np.einsum("kj,kij->ki", vt[:, 3], W[FACET_IDX[[1, 0, 3, 2, 5, 4]]])
    strict = np.all(vals > bound[:, None], axis=1) | np.all(vals < -bound[:, None], axis=1)
    diag = {"affine": True, "coplanar": coplanar.tolist(), "strict_side": strict.tolist()}
    planes = vt[:, 3]
    planes.flags.writeable = False
    return bool(coplanar.all() and strict.all()), diag, V, planes


def is_combinatorial_cube(vertices):
    """Check coplanar facets plus the cube's strict vertex-facet incidence.

    ``vertices`` is an (8, 4) array in label order 0,1,2,3,6,7,8,9.
    Returns (verdict, diagnostic dict).
    """
    return _facet_check(vertices)[:2]


def random_combinatorial_cube(rng):
    """Sample a random combinatorial cube inside [-1, 1]^3.

    Each candidate is an exact ``_integer_cube`` draw with its affine map,
    and each coordinate is rounded once, so the facet coplanarities hold to
    rounding error and each candidate's floats are those of the same draw of
    ``exact.random_rational_cube``, which rejects nothing: from one seed the
    two return the same cube only where the first candidate is accepted.
    Samples are rejected until ``CubeConfig`` accepts one, most first by
    ``_surely_nonconvex`` on the normal form: an accepted map is zero (flat)
    or invertible, and with the box fit scales every value the screen reads
    by one nonzero determinant.
    """
    for _ in range(MAX_CUBE_CANDIDATES):
        try:
            pts = _normal_form(rng)
            M = _affine_map(rng)
            if _surely_nonconvex(pts):
                continue
            nums, dens = _fit(M, pts)
            # int / int is correctly rounded, as float(Fraction) is.
            return CubeConfig(np.array([[n / d for n, d in zip(row, dens)] + [1.0] for row in nums]))
        except (DegenerateIntersection, ValueError):
            continue
    raise ExhaustedRetries(f"no valid cube after {MAX_CUBE_CANDIDATES} attempts")


def _surely_nonconvex(nums):
    """True where a vertex of the ``_integer_cube`` candidate (or normal
    form) ``nums`` lies, in integers, on or across the plane of a facet it
    is not on; False leaves the candidate to ``CubeConfig``.

    For p = (nums[k], 1), n = cross4 of three of a facet's p and D =
    diag(dens, 1), n . p = (D n) . (D^-1 p) is the exact plane at the exact
    vertex.  ``CubeConfig`` needs each value beyond a bound >= 1e-8 on one
    side; its values were within 2e-12 of these on 20,000 candidates.
    """
    P, facets = [row + [1] for row in nums], FACET_IDX.tolist()
    for k, (i, j, l, _) in enumerate(facets):
        n0, n1, n2, n3 = cross4(P[i], P[j], P[l])
        # Facet k ^ 1, opposite k, holds the vertices off it; n = 0 decides nothing.
        v = [n0 * x + n1 * y + n2 * z + n3 for x, y, z, _ in (P[o] for o in facets[k ^ 1])]
        if (n0 or n1 or n2 or n3) and not (min(v) > 0 or max(v) < 0):
            return True
    return False
