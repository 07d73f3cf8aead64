"""Quadric surfaces through point configurations and the classification of
focal-point regions where a unique reconstruction is impossible.

A quadric is a symmetric 4x4 matrix up to scale.  Non-degenerate quadrics
with inertia (2,2) are ruled; a configuration of cube vertices plus two
focal points on a ruled (or degenerate) quadric is the failure region.
"""

from collections import deque
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .degeneracy import (
    CubeConfig,
    VERONESE_I,
    VERONESE_J,
    _cross3,
    cross4,
    kernel_basis,
    unit_cube,
    veronese_matrix,
)
from .exceptions import AtInfinity, NoQuadric, PencilOfQuadrics
from .projective import DEFAULT_TOL, _as_array, _unit_rows, as_point, as_points, canon, homogenize

RULED_NONDEGENERATE = "RULED_NONDEGENERATE"
NONRULED_NONDEGENERATE = "NONRULED_NONDEGENERATE"
EMPTY = "EMPTY"
DEGENERATE = "DEGENERATE"


@dataclass(frozen=True, slots=True)
class QuadricClass:
    """Classification tag plus the canonicalized inertia (n+, n-, n0).

    ``margin`` measures the distance to a signature change: 0 for a
    singular quadric, at most 1.  ``classify`` and
    ``region_grid(method="general")`` give min|eigenvalue| / max|eigenvalue|
    exactly; region_grid's default pass gives |det Q| / ||Q||_F^4, a lower
    bound on it, 0 where a pencil of quadrics fits.
    """

    tag: str
    inertia: tuple
    margin: float = 0.0


def coeffs_to_matrix(c):
    """10-vector of quadric coefficients (Veronese monomial order) -> 4x4.

    Off-diagonal monomial coefficients split symmetrically: Q_ij = c/2.
    """
    Q = np.zeros((4, 4))
    Q[VERONESE_I, VERONESE_J] = np.asarray(c, dtype=float).reshape(10)
    return (Q + Q.T) / 2


def quadric_through_points(P):
    """The unique quadric through 9 or 10 points (up to scale).

    Requires the Veronese matrix of the configuration to have numerical
    rank exactly 9: lower rank means a whole pencil of quadrics fits,
    rank 10 means no quadric passes through all points.
    """
    P = as_points(P, 4)
    V = veronese_matrix(P)
    basis = kernel_basis(V)
    if len(basis) == 0:
        raise NoQuadric("no quadric passes through the configuration")
    if len(basis) > 1:
        raise PencilOfQuadrics(f"kernel dimension {len(basis)} > 1")
    return canon(coeffs_to_matrix(basis[0]))


def cube_quadric(C, c1, c2):
    """The quadric through a combinatorial cube and focal points c1, c2.

    The products q_k of the three pairs of opposite facet planes span the
    quadrics through a generic combinatorial cube, so the one through c1
    and c2 is sum_k lam_k q_k, lam = r(c1) x r(c2), r(c) = (c^T q_k c)_k.
    ``c2`` is a point, or an (n, 4) stack giving an (n, 4, 4) stack.  Where
    ||lam|| <= 1e-12 ||r(c1)|| ||r(c2)|| a pencil of quadrics fits: a point
    raises PencilOfQuadrics, a stack member is the zero matrix.  ``C`` is a
    CubeConfig or its vertices; anything but a combinatorial cube raises
    ValueError.
    """
    C = C if isinstance(C, CubeConfig) else CubeConfig(C)
    single = np.ndim(c2) == 1
    Q, ok = _cube_quadrics(C, np.vstack([as_point(c1, 4), as_points(c2, 4)]))
    if single and not ok[0]:
        raise PencilOfQuadrics("focal points leave a pencil of quadrics through the cube")
    return Q[0] if single else Q


def _cube_quadrics(C, c):
    """cube_quadric of the CubeConfig C through c[0] and each c[1:] of checked
    (n, 4) points: the (n - 1, 4, 4) stack, zero where a pencil fits, and ok."""
    lam, ok = _cube_lams(C, c)
    return ((np.stack(lam, axis=1) * ok[:, None]) @ C.pencil).reshape(-1, 4, 4), ok


def _cube_lams(C, c):
    """_cube_quadrics' facet-pencil coordinates lam, three (n - 1,) arrays, and ok."""
    # Rows at max |coordinate| 1, so r neither underflows nor overflows.  Over
    # 4 or 3 columns, element-wise ufuncs cost a tenth of an axis=1 reduction;
    # the row norms add as np.linalg.norm(axis=1) does, (x0^2 + x1^2) + x2^2.
    m = np.abs(c.T)
    s = (c / np.maximum(np.maximum(m[0], m[1]), np.maximum(m[2], m[3]))[:, None]) @ C.planes.T
    a, b = s[0, 0::2] * s[0, 1::2], (s[1:, 0::2] * s[1:, 1::2]).T
    # np.cross alone costs about 20 us per call.
    lam = _cross3(a, b)
    lam2, b2 = (x[0] * x[0] + x[1] * x[1] + x[2] * x[2] for x in (lam, b))
    return lam, np.sqrt(lam2) > 1e-12 * np.linalg.norm(a) * np.sqrt(b2)


def unit_cube_quadric(f1, f2):
    """cube_quadric on the unit cube, where the facet pencil is diagonal."""
    return cube_quadric(unit_cube(), f1, f2)


def _class_table():
    """Row 5 * n+ + n- holds the (tag, inertia) that every matrix of that
    inertia shares, n+ >= n-; a stack takes its rows by one fancy index."""
    tags = {(2, 2, 0): RULED_NONDEGENERATE, (3, 1, 0): NONRULED_NONDEGENERATE}
    table = np.empty((25, 2), dtype=object)
    for hi in range(5):
        for lo in range(min(hi, 4 - hi) + 1):
            k = (hi, lo, 4 - hi - lo)
            table[5 * hi + lo, 0] = DEGENERATE if k[2] else tags.get(k, EMPTY)
            table[5 * hi + lo, 1] = k
    return table


_CLASSES = _class_table()
# The rows of a nonsingular quadric through real points, which is never
# definite: det Q > 0 makes it (2, 2) and det Q < 0 (3, 1).
_RULED_ROW, _NONRULED_ROW = 5 * 2 + 2, 5 * 3 + 1


def _classify_stack(Q):
    """QuadricClass of each matrix of an (n, 4, 4) symmetric stack: eigenvalues
    within DEFAULT_TOL * max|eigenvalue| of 0 count as zero, signs flip so
    n+ >= n-, and a zero matrix is DEGENERATE (0, 0, 4) with margin 0."""
    return _classes(*_class_rows(Q))


def _class_rows(Q):
    """_classify_stack's _CLASSES row and margin for each matrix of Q."""
    w = np.linalg.eigvalsh(0.5 * (Q + Q.transpose(0, 2, 1)))
    aw = np.abs(w)
    wmax = aw.max(axis=1)
    thresh = (DEFAULT_TOL * wmax)[:, None]
    n_plus, n_minus = (w > thresh).sum(axis=1), (w < -thresh).sum(axis=1)
    rows = 5 * np.maximum(n_plus, n_minus) + np.minimum(n_plus, n_minus)
    return rows, aw.min(axis=1) / np.where(wmax > 0, wmax, 1.0)


def _classes(rows, margin):
    """QuadricClass for each _CLASSES row with its margin, built in bulk: the
    cells come from object.__new__ and each slot is filled by its member
    descriptor, one map per field, at half the frozen __init__'s cost."""
    tags, inertias = _CLASSES[rows].T.tolist()
    cells = list(map(object.__new__, repeat(QuadricClass, len(tags))))
    for field, values in zip(fields(QuadricClass), (tags, inertias, margin.tolist()), strict=True):
        deque(map(getattr(QuadricClass, field.name).__set__, cells, values), 0)
    return cells


def _nonruled(C, c1, c2):
    """Whether the quadric through the CubeConfig C and affine centres c1, c2
    is NONRULED_NONDEGENERATE by ``_classify_stack``.  Q through eight real
    points is never definite, so the sign of det Q decides (det < 0 is (3, 1))
    where ||Q||_F > 1e-4 S and |det Q| > 1e-8 ||Q||_F^4, both from C.forms in
    Python floats, S = |(c1, 1)|^2 |(c2, 1)|^2: there each |eigenvalue| exceeds
    1e-12 S and 1e-8 ||Q||_F, far above DEFAULT_TOL times the largest and the
    7e-15 S by which rounding, or the SVD centres, moved any on 30,000 pairs."""
    planes, ab, S = C.planes.tolist(), [], 1.0
    for x, y, z in (c1.tolist(), c2.tolist()):
        s = [p0 * x + p1 * y + p2 * z + p3 for p0, p1, p2, p3 in planes]
        ab.append((s[0] * s[1], s[2] * s[3], s[4] * s[5]))
        S *= x * x + y * y + z * z + 1.0
    l0, l1, l2 = lam = _cross3(*ab)
    (W, G), p = C.forms.tolist(), (l1 * l2, l0 * l2, l0 * l1)
    norm2 = sum(x * (g0 * l0 + g1 * l1 + g2 * l2) for x, (g0, g1, g2) in zip(lam, G))
    if norm2 > 1e-8 * S * S:
        det = sum(x * (w0 * p[0] + w1 * p[1] + w2 * p[2]) for x, (w0, w1, w2) in zip(p, W))
        if abs(det) > 1e-8 * norm2 * norm2:
            return det < 0
    # The core decides the rest; a pencil of quadrics leaves the zero matrix, which is DEGENERATE.
    Q, _ = _cube_quadrics(C, homogenize(np.array([c1, c2])))
    return _class_rows(Q)[0][0] == _NONRULED_ROW


def classify(Q):
    """QuadricClass from the inertia of the symmetric matrix."""
    Q = _as_array(Q, what="quadric matrix").reshape(4, 4)
    # np.allclose(Q, Q.T, atol=...)'s test, written out at a third of its cost.
    if not np.all(np.abs(Q - Q.T) <= 1e-12 * max(1.0, np.abs(Q).max()) + 1e-5 * np.abs(Q.T)):
        raise ValueError("quadric matrix must be symmetric")
    qc = _classify_stack(Q[None])[0]
    # Only an all-zero spectrum leaves no eigenvalue above the threshold.
    if qc.inertia[2] == 4:
        raise ValueError("zero quadric")
    return qc


def ruled_region_delta1(alpha, beta):
    """Ruledness of diag(alpha, beta, -alpha-beta-1, 1) in closed form.

    Ruled means exactly one of alpha, beta, -alpha-beta-1 is positive:
    either both alpha, beta <= 0 with alpha + beta <= -1, or alpha, beta of
    different signs with alpha + beta >= -1.
    """
    return (alpha <= 0 and beta <= 0 and alpha + beta <= -1) or (
        alpha * beta < 0 and alpha + beta >= -1
    )


def delta1_coordinates(f1, f2):
    """(alpha, beta) of the delta=1 normal form diag(alpha, beta, -a-b-1, 1).

    The diagonal of unit_cube_quadric on the affine focal points, scaled so
    its last entry (the delta minor) is 1.  Raises AtInfinity when a focal
    point is at infinity or the delta minor vanishes.
    """
    f1 = as_point(f1, 4)
    f2 = as_point(f2, 4)
    # On unit rows, so that no norm under- or overflows at extreme scales.
    if (np.abs(_unit_rows(np.array([f1, f2]))[:, 3]) <= 1e-14).any():
        raise AtInfinity("focal point at infinity")
    x = (f1[:3] / f1[3]) ** 2
    y = (f2[:3] / f2[3]) ** 2
    d = cross4((1.0, 1.0, 1.0, 1.0), x.tolist() + [1.0], y.tolist() + [1.0])
    scale = max(1.0, np.max(np.abs(x)) * np.max(np.abs(y)))
    if abs(d[3]) <= 1e-12 * scale:
        raise AtInfinity("delta minor vanishes; normalization impossible")
    return d[0] / d[3], d[1] / d[3]


@dataclass(frozen=True)
class PlaneChart:
    """Affine 2D chart in R^3: point(u, v) = origin + u*u_dir + v*v_dir.

    The origin and directions are 3 finite numbers each, the ranges 2;
    anything else raises ValueError on construction.
    """

    origin: tuple
    u_dir: tuple
    v_dir: tuple
    u_range: tuple = (-6.0, 6.0)
    v_range: tuple = (-6.0, 6.0)

    def __post_init__(self):
        for name, size in (("origin", 3), ("u_dir", 3), ("v_dir", 3), ("u_range", 2), ("v_range", 2)):
            _as_array(getattr(self, name), (size,), f"chart {name}")

    def point(self, u, v):
        """Homogeneous point at (u, v); arrays u, v broadcast to a stack.
        ValueError unless every point is finite."""
        o = np.asarray(self.origin, dtype=float)
        # Finite fields and (u, v) can still overflow to non-finite points.
        with np.errstate(over="ignore", invalid="ignore"):
            p = o + np.multiply.outer(u, self.u_dir) + np.multiply.outer(v, self.v_dir)
        if not np.isfinite(p).all():
            raise ValueError("chart grid points must be finite")
        return np.concatenate([p, np.ones(p.shape[:-1] + (1,))], axis=-1)


# region_grid's default pass classifies a cell by the sign of its det alone
# where |det| of its quadric at unit Frobenius norm exceeds DET_FLOOR.
DET_FLOOR = 10 * DEFAULT_TOL


def _det_classes(C, f1, f2s):
    """region_grid's default pass: the QuadricClass of cube_quadric(C, f1, f2)
    for each row f2 of f2s, with margin |det Q| / ||Q||_F^4 from C.forms."""
    lam, ok = _cube_lams(C, np.vstack([f1, f2s]))
    # At unit ||lam||, so that no det underflows; lam is zero where a pencil fits.
    L = np.array(lam) * (ok / np.where(ok, np.sqrt(lam[0] * lam[0] + lam[1] * lam[1] + lam[2] * lam[2]), 1.0))
    (W, G), P = C.forms, L[[1, 0, 0]] * L[[2, 2, 1]]
    det, norm2 = ((W @ P) * P).sum(axis=0), ((G @ L) * L).sum(axis=0)
    margin = np.abs(det) / np.where(ok, norm2 * norm2, 1.0)
    # The |eigenvalues| of Q are at most ||Q||_F and multiply to |det Q|, so
    # where margin > DET_FLOOR each exceeds DET_FLOOR ||Q||_F, ten times
    # _classify_stack's threshold, and the sign of det Q gives the row.
    rows = np.where(det > 0, _RULED_ROW, _NONRULED_ROW)
    exact = margin <= DET_FLOOR
    if exact.any():
        rows[exact] = _class_rows(_cube_quadrics(C, np.vstack([f1, f2s[exact]]))[0])[0]
    return _classes(rows, margin)


def region_grid(C, f1, chart, resolution, method="auto"):
    """Classify the quadric through the cube, f1 and f2 for f2 on a
    ``resolution`` x ``resolution`` grid (an integer >= 2) over the chart
    plane; (u, v, QuadricClass) cells, u outer.

    ``"auto"``, for any combinatorial cube, is the default pass: it takes
    every cell's facet-pencil coordinates in one stack, det Q and ||Q||_F
    from the cube's ``forms``, and the sign of det Q where |det Q| /
    ||Q||_F^4 exceeds DET_FLOOR, since a quadric through the cube's real
    vertices is never definite; only the other cells build their Q, for
    ``_classify_stack``.  Tags and inertia are those of
    ``_classify_stack(cube_quadric(...))``; the margin is the det bound that
    QuadricClass describes.  ``"unit"`` names the same pass for callers of
    the former unit-cube path.
    ``"general"`` fits each cell's 10-point quadric through the Veronese
    kernel, the independent check of the closed form, cell by cell: a
    stacked SVD raised the region benchmark's peak RSS, read after its check
    runs this path, from 45.1 to 52 MiB (3-s runs, 2-core Xeon).  Cells
    without a unique quadric are DEGENERATE with inertia (0, 0, 4).  ``C``
    goes through CubeConfig on every method, so a non-cube raises
    ValueError, as does a chart whose grid points overflow.
    """
    if isinstance(resolution, bool) or not isinstance(resolution, (int, np.integer)) or resolution < 2:
        raise ValueError("resolution must be an integer >= 2")
    if method not in ("auto", "unit", "general"):
        raise ValueError(f"unknown region_grid method {method!r}")
    C = C if isinstance(C, CubeConfig) else CubeConfig(C)
    f1 = as_point(f1, 4)
    # Finite ranges can still overflow here; chart.point rejects the
    # non-finite grid points that gives.
    with np.errstate(over="ignore", invalid="ignore"):
        us, vs = (np.linspace(*r, resolution) for r in (chart.u_range, chart.v_range))
    f2s = chart.point(us[:, None], vs).reshape(-1, 4)
    if method == "general":
        Q = np.zeros((len(f2s), 4, 4))
        for i, f2 in enumerate(f2s):
            try:
                Q[i] = quadric_through_points(np.vstack([C.vertices, f1, f2]))
            except (PencilOfQuadrics, NoQuadric):
                pass
        cells = _classify_stack(Q)
    else:
        cells = _det_classes(C, f1, f2s)
    return list(zip(np.repeat(us, resolution).tolist(), vs.tolist() * resolution, cells))
