"""Homogeneous coordinate primitives, cameras, and subspace-angle metric.

Points of the projective plane / space are plain numpy vectors of length 3
or 4, never all zero, considered equal up to a nonzero scale factor.
Cameras are 3x4 matrices of rank 3 with the left 3x3 block invertible so
the focal point is finite. Fundamental matrices are 3x3 matrices up to
scale, rank <= 2 when valid.
"""

import numpy as np

from .exceptions import (
    FocalPointProjection,
    LengthMismatch,
    RankDeficientCamera,
    ZeroMatrix,
)

# Default relative tolerance threaded through all numerical predicates.
DEFAULT_TOL = 1e-10


def as_point(p, dim):
    """Validate a homogeneous point and return it as a float vector."""
    v = np.asarray(p, dtype=float).reshape(-1)
    if v.shape != (dim,):
        raise ValueError(f"expected a {dim}-vector, got shape {v.shape}")
    return as_points(v, dim)[0]


def as_points(pts, dim):
    """Stack a sequence of homogeneous points into an (n, dim) array."""
    arr = np.atleast_2d(np.asarray(pts, dtype=float))
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected (n, {dim}) points, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("homogeneous points must have finite coordinates")
    # arr.all() is cheaper than the row-wise test and settles the usual case.
    if not (arr.all() or arr.any(axis=1).all()):
        raise ValueError("every homogeneous point needs a nonzero coordinate")
    return arr


def canon(v):
    """Canonical projective representative: unit norm, first nonzero entry > 0."""
    v = np.asarray(v, dtype=float)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ZeroMatrix("cannot canonicalize the zero vector")
    out = v / nrm
    flat = out.reshape(-1)
    lead = flat[np.abs(flat) > 1e-12][0]
    if lead < 0:
        out = -out
    return out


def proj_equal(a, b, tol=1e-9):
    """Equality of projective objects (vectors or matrices) up to scale."""
    return np.allclose(canon(a), canon(b), atol=tol, rtol=0.0)


def _unit_rows(P):
    """Rows of P at unit norm; each is divided by its largest |coordinate|
    first, so the norm can neither underflow nor overflow."""
    P = P / np.abs(P).max(axis=1)[:, None]
    return P / np.linalg.norm(P, axis=1)[:, None]


def dehomogenize(pts):
    """(n, d) homogeneous points -> (n, d-1) affine points."""
    arr = np.atleast_2d(np.asarray(pts, dtype=float))
    if np.any(np.abs(_unit_rows(arr)[:, -1]) < 1e-14):
        raise ValueError("point at infinity cannot be dehomogenized")
    return arr[:, :-1] / arr[:, -1:]


def homogenize(pts):
    """(n, d) affine points -> (n, d+1) homogeneous points with last coord 1."""
    arr = np.atleast_2d(np.asarray(pts, dtype=float))
    return np.hstack([arr, np.ones((arr.shape[0], 1))])


def project(camera, p):
    """Project a world point through a 3x4 camera.

    Raises FocalPointProjection when p is the camera center.
    """
    return project_all(camera, as_point(p, 4))[0]


def project_all(camera, P):
    """Project an (n, 4) world configuration; returns (n, 3) image points.

    Raises FocalPointProjection when any point is the camera center.
    """
    A = np.asarray(camera, dtype=float)
    P = as_points(P, 4)
    # einsum matches A @ p bit for bit; P @ A.T does not, and its last-bit
    # changes can flip residual ties between candidates.
    img = np.einsum("ij,nj->ni", A, P)
    tol = 1e-12 * np.linalg.norm(A) * np.linalg.norm(P, axis=1)
    if np.any(np.linalg.norm(img, axis=1) <= tol):
        raise FocalPointProjection("point projects to the zero vector")
    return img


def focal_point(camera):
    """Camera center: the unique point (up to scale) with camera @ p = 0."""
    A = np.asarray(camera, dtype=float)
    if A.shape != (3, 4):
        raise ValueError(f"camera must be 3x4, got {A.shape}")
    _, s, vt = np.linalg.svd(A)
    if s[2] <= DEFAULT_TOL * s[0]:
        raise RankDeficientCamera("camera matrix has rank < 3")
    return canon(vt[3])


def canonical_fmatrix(F):
    """Unit Frobenius norm, first nonzero entry positive."""
    F = np.asarray(F, dtype=float)
    if F.shape != (3, 3):
        raise ValueError(f"fundamental matrix must be 3x3, got {F.shape}")
    return canon(F)


def epipolar_residual(F, X, Y):
    """Scale-invariant algebraic residual sum((Y_i^T F X_i)^2).

    F is normalized to unit Frobenius norm and every point to unit
    Euclidean norm before evaluating the bilinear forms.
    """
    Fn = canonical_fmatrix(F)
    X = as_points(X, 3)
    Y = as_points(Y, 3)
    if len(X) != len(Y):
        raise LengthMismatch(f"|X|={len(X)} but |Y|={len(Y)}")
    if len(X) < 1:
        raise ValueError("need at least one correspondence")
    r = np.einsum("ij,jk,ik->i", _unit_rows(Y), Fn, _unit_rows(X))
    return float(np.sum(r**2))


def grassmann_angle(F1, F2):
    """Angle in [0, pi/2] between the vectorizations of two matrices."""
    a = np.asarray(F1, dtype=float).reshape(-1)
    b = np.asarray(F2, dtype=float).reshape(-1)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroMatrix("grassmann_angle needs two nonzero matrices")
    u, v = a / na, b / nb
    d = float(u @ v)
    # arctan2 formulation of arccos(|d|): exact near 0 where arccos
    # saturates at sqrt(eps).
    return float(np.arctan2(np.linalg.norm(v - d * u), abs(d)))
