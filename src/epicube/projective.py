"""Homogeneous coordinate primitives, cameras, and subspace-angle metric.

Points of the projective plane / space are plain numpy vectors of length 3
or 4, never all zero, considered equal up to a nonzero scale factor.
Cameras are 3x4 matrices of rank 3 with the left 3x3 block invertible so
the focal point is finite. Fundamental matrices are 3x3 matrices up to
scale, rank <= 2 when valid.
"""

import math

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


def _unit(V):
    """Rows of the (k, d) array V over their norms.  Where a norm would under-
    or overflow, the row is first scaled by a power of two, which is exact,
    so no ordinary input changes."""
    with np.errstate(over="ignore"):
        # sqrt(v . v) is what np.linalg.norm computes for one vector.
        nrm = np.sqrt(np.vecdot(V, V))
    if not (nrm.min(initial=1.0) > 1e-150 and nrm.max(initial=1.0) < 1e150):
        odd = ~((nrm > 1e-150) & (nrm < 1e150))
        if not np.isfinite(V[odd]).all():
            raise ValueError("entries must be finite")
        if not V[odd].any(axis=1).all():
            raise ZeroMatrix("the zero vector has no direction")
        V = V.copy()
        V[odd] = np.ldexp(V[odd], -np.frexp(np.abs(V[odd]).max(axis=1))[1][:, None])
        nrm[odd] = np.sqrt(np.vecdot(V[odd], V[odd]))
    return V / nrm[:, None]


def _canon_rows(V):
    """``canon`` of each V[i] of a stack."""
    out = _unit(V.reshape(len(V), math.prod(V.shape[1:])))
    lead = out[np.arange(len(out)), (np.abs(out) > 1e-12).argmax(axis=1)]
    return (out * np.sign(lead)[:, None]).reshape(V.shape)


def canon(v):
    """Canonical projective representative: unit norm, first nonzero entry > 0."""
    return _canon_rows(np.asarray(v, dtype=float)[None])[0]


def proj_equal(a, b, tol=1e-9):
    """Equality of projective objects (vectors or matrices) up to scale."""
    return np.allclose(canon(a), canon(b), atol=tol, rtol=0.0)


def _unit_rows(P):
    """Rows (last axis) of P at unit norm; each is divided by its largest
    |coordinate| first, so the norm can neither underflow nor overflow."""
    P = P / np.abs(P).max(axis=-1, keepdims=True)
    # np.linalg.norm(P, axis=-1) without its per-call overhead.
    return P / np.sqrt(np.add.reduce(P * P, axis=-1, keepdims=True))


def dehomogenize(pts):
    """(..., n, d) homogeneous points -> (..., n, d-1) affine points."""
    arr = np.atleast_2d(np.asarray(pts, dtype=float))
    if np.any(np.abs(_unit_rows(arr)[..., -1]) < 1e-14):
        raise ValueError("point at infinity cannot be dehomogenized")
    return arr[..., :-1] / arr[..., -1:]


def homogenize(pts):
    """(..., n, d) affine points -> (..., n, d+1) homogeneous points with last coord 1."""
    arr = np.atleast_2d(np.asarray(pts, dtype=float))
    return np.concatenate([arr, np.ones(arr.shape[:-1] + (1,))], axis=-1)


def _as_camera(camera):
    """A camera as a float array; ValueError unless it is finite and 3x4."""
    A = np.asarray(camera, dtype=float)
    if A.shape != (3, 4):
        raise ValueError(f"camera must be 3x4, got {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("camera entries must be finite")
    return A


def project_all(camera, P):
    """Project an (n, 4) world configuration; returns (n, 3) image points.

    Raises FocalPointProjection when any point is the camera center.
    """
    A = _as_camera(camera)
    P = as_points(P, 4)
    # einsum matches A @ p bit for bit; P @ A.T does not, and its last-bit
    # changes can flip residual ties between candidates.
    img = np.einsum("ij,nj->ni", A, P)
    # |A p| <= 1e-12 |A| |p|, tested on A at max |entry| 1 and unit rows of P
    # so that no norm can under- or overflow at any scale.
    A = A / (np.abs(A).max() or 1.0)
    centre = np.linalg.norm(np.einsum("ij,nj->ni", A, _unit_rows(P)), axis=1) <= 1e-12 * np.linalg.norm(A)
    if centre.any():
        raise FocalPointProjection("point projects to the zero vector")
    return img


def focal_point(camera):
    """Camera center: the unique point (up to scale) with camera @ p = 0."""
    return _focal_points(_as_camera(camera)[None])[0]


def _focal_points(A):
    """focal_point of each camera of a (k, 3, 4) stack, from one SVD."""
    _, s, vt = np.linalg.svd(A)
    if np.any(s[:, 2] <= DEFAULT_TOL * s[:, 0]):
        raise RankDeficientCamera("camera matrix has rank < 3")
    return _canon_rows(vt[:, 3])


def canonical_fmatrix(F):
    """Unit Frobenius norm, first nonzero entry positive."""
    F = np.asarray(F, dtype=float)
    if F.shape != (3, 3):
        raise ValueError(f"fundamental matrix must be 3x3, got {F.shape}")
    return canon(F)


def epipolar_residual(F, X, Y):
    """Scale-invariant algebraic residual sum((Y_i^T F X_i)^2) of a 3x3 F,
    with F at unit Frobenius norm and every point at unit Euclidean norm."""
    F = np.asarray(F, dtype=float)
    if F.shape != (3, 3):
        raise ValueError(f"fundamental matrix must be 3x3, got {F.shape}")
    return float(_residuals(F[None], *_unit_pairs(X, Y))[0])


def _unit_pairs(X, Y):
    """The unit rows of n >= 1 checked correspondences (X, Y)."""
    X = as_points(X, 3)
    Y = as_points(Y, 3)
    if len(X) != len(Y):
        raise LengthMismatch(f"|X|={len(X)} but |Y|={len(Y)}")
    if len(X) < 1:
        raise ValueError("need at least one correspondence")
    return _unit_rows(X), _unit_rows(Y)


def _residuals(F, Xu, Yu):
    """epipolar_residual of a (k, 3, 3) stack on the unit rows of (n, 3)
    points, or of (k, n, 3) stacks paired with the matrices."""
    r = np.einsum("...ij,...jl,...il->...i", Yu, _canon_rows(F), Xu)
    return np.add.reduce(r * r, axis=-1)


def _angles(U, V):
    """grassmann_angle between the rows of two (k, d) arrays."""
    u, v = _unit(U), _unit(V)
    d = np.vecdot(u, v)
    w = v - d[:, None] * u
    # arctan2 formulation of arccos(|d|): exact near 0 where arccos
    # saturates at sqrt(eps).
    return np.arctan2(np.sqrt(np.vecdot(w, w)), np.abs(d))


def grassmann_angle(F1, F2):
    """Angle in [0, pi/2] between the vectorizations of two matrices."""
    u = np.asarray(F1, dtype=float).reshape(1, -1)
    v = np.asarray(F2, dtype=float).reshape(1, -1)
    return float(_angles(u, v)[0])
