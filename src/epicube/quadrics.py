"""Quadric surfaces through point configurations and the classification of
focal-point regions where a unique reconstruction is impossible.

A quadric is a symmetric 4x4 matrix up to scale.  Non-degenerate quadrics
with inertia (2,2) are ruled; a configuration of cube vertices plus two
focal points on a ruled (or degenerate) quadric is the failure region.
"""

from dataclasses import dataclass

import numpy as np

from .degeneracy import (
    CubeConfig,
    UNIT_CUBE_VERTICES,
    VERONESE_I,
    VERONESE_J,
    cross4,
    kernel_basis,
    veronese_matrix,
)
from .exceptions import AtInfinity, NoQuadric, PencilOfQuadrics, RankDeficient
from .projective import DEFAULT_TOL, as_point, as_points, canon

RULED_NONDEGENERATE = "RULED_NONDEGENERATE"
NONRULED_NONDEGENERATE = "NONRULED_NONDEGENERATE"
EMPTY = "EMPTY"
DEGENERATE = "DEGENERATE"


@dataclass(frozen=True)
class QuadricClass:
    """Classification tag plus the canonicalized inertia (n+, n-, n0).

    ``margin`` is min|eigenvalue| / max|eigenvalue|, the distance to a
    signature change; exactly singular quadrics have margin ~ 0.
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


def unit_cube_quadric(f1, f2):
    """Diagonal quadric through the unit-cube vertices and two focal points.

    The diagonal is the vector of four signed maximal minors of
    M = [(1,1,1,1); f1^2; f2^2] (coordinate-wise squares), equivalently the
    generalized cross product of the three rows.
    """
    f1 = as_point(f1, 4)
    f2 = as_point(f2, 4)
    a = f1**2 / np.max(f1**2)
    b = f2**2 / np.max(f2**2)
    # cross4 runs on Python floats: numpy scalar arithmetic is slower.
    d = np.array(cross4((1.0, 1.0, 1.0, 1.0), a.tolist(), b.tolist()))
    if np.linalg.norm(d) <= 1e-12 * max(
        1.0, np.linalg.norm(a) * np.linalg.norm(b)
    ):
        raise RankDeficient("minor system has rank < 3; pencil of diagonals")
    return canon(np.diag(d))


def inertia(Q):
    """Canonicalized eigenvalue sign counts (n+, n-, n0) and the margin.

    The global sign is flipped so n+ >= n-.
    """
    Q = np.asarray(Q, dtype=float).reshape(4, 4)
    if not np.allclose(Q, Q.T, atol=1e-12 * max(1.0, np.abs(Q).max())):
        raise ValueError("quadric matrix must be symmetric")
    w = np.linalg.eigvalsh(0.5 * (Q + Q.T))
    wmax = np.max(np.abs(w))
    if wmax == 0.0:
        raise ValueError("zero quadric")
    thresh = DEFAULT_TOL * wmax
    n_plus = int(np.sum(w > thresh))
    n_minus = int(np.sum(w < -thresh))
    n_zero = 4 - n_plus - n_minus
    if n_minus > n_plus:
        n_plus, n_minus = n_minus, n_plus
    margin = float(np.min(np.abs(w)) / wmax)
    return (n_plus, n_minus, n_zero), margin


def classify(Q):
    """QuadricClass from the inertia of the symmetric matrix."""
    (n_plus, n_minus, n_zero), margin = inertia(Q)
    if n_zero > 0:
        tag = DEGENERATE
    elif (n_plus, n_minus) == (2, 2):
        tag = RULED_NONDEGENERATE
    elif (n_plus, n_minus) == (3, 1):
        tag = NONRULED_NONDEGENERATE
    else:
        tag = EMPTY
    return QuadricClass(tag=tag, inertia=(n_plus, n_minus, n_zero), margin=margin)


def ruled_region_delta1(alpha, beta):
    """Ruledness of diag(alpha, beta, -alpha-beta-1, 1) in closed form.

    Ruled means exactly one of alpha, beta, -alpha-beta-1 is positive:
    either both alpha, beta <= 0 with alpha + beta <= -1, or alpha, beta of
    different signs with alpha + beta >= -1.
    """
    if alpha <= 0 and beta <= 0 and alpha + beta <= -1:
        return True
    if alpha * beta < 0 and alpha + beta >= -1:
        return True
    return False


def delta1_coordinates(f1, f2):
    """(alpha, beta) of the delta=1 normal form diag(alpha, beta, -a-b-1, 1).

    The diagonal of unit_cube_quadric on the affine focal points, scaled so
    its last entry (the delta minor) is 1.  Raises AtInfinity when a focal
    point is at infinity or the delta minor vanishes.
    """
    f1 = as_point(f1, 4)
    f2 = as_point(f2, 4)
    if abs(f1[3]) <= 1e-14 * np.linalg.norm(f1) or abs(f2[3]) <= 1e-14 * np.linalg.norm(f2):
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
    """Affine 2D chart in R^3: point(u, v) = origin + u*u_dir + v*v_dir."""

    origin: tuple
    u_dir: tuple
    v_dir: tuple
    u_range: tuple = (-6.0, 6.0)
    v_range: tuple = (-6.0, 6.0)

    def point(self, u, v):
        o = np.asarray(self.origin, dtype=float)
        du = np.asarray(self.u_dir, dtype=float)
        dv = np.asarray(self.v_dir, dtype=float)
        p = o + u * du + v * dv
        return np.array([p[0], p[1], p[2], 1.0])


def _is_unit_cube(verts):
    return np.allclose(verts, UNIT_CUBE_VERTICES, atol=1e-12)


def region_grid(C, f1, chart, resolution, method="auto"):
    """Classify the quadric for f2 on a grid over the chart plane.

    Returns a list of (u, v, QuadricClass) cells in row-major (u outer)
    order.  Cells where the 10-point system drops below rank 9 are marked
    DEGENERATE with inertia (0, 0, 4).
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    verts = C.vertices if isinstance(C, CubeConfig) else as_points(C, 4)
    f1 = as_point(f1, 4)
    if method == "auto":
        method = "unit" if _is_unit_cube(verts) else "general"
    us = np.linspace(chart.u_range[0], chart.u_range[1], resolution)
    vs = np.linspace(chart.v_range[0], chart.v_range[1], resolution)
    cells = []
    for u in us:
        for v in vs:
            f2 = chart.point(u, v)
            try:
                if method == "unit":
                    Q = unit_cube_quadric(f1, f2)
                else:
                    Q = quadric_through_points(np.vstack([verts, f1, f2]))
                qc = classify(Q)
            except (PencilOfQuadrics, RankDeficient, NoQuadric):
                qc = QuadricClass(tag=DEGENERATE, inertia=(0, 0, 4), margin=0.0)
            cells.append((float(u), float(v), qc))
    return cells
