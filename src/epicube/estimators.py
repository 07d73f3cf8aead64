"""Fundamental-matrix estimators: classical 8-point, 7-point pencil
machinery, and the cube-aware 8-point variant that survives the rank drop
caused by combinatorial-cube inputs by reading the cube's facets.

The 7-point and cube-8-point estimators each have one core that runs a stack
of N instances on whole arrays.  ``_select`` is the one selection rule and
``_estimate_all`` the one dispatcher over ALGOS; the public forms and the CLI
are stacks of one.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import pencil
from .degeneracy import FACET_IDX, _kron_rows, _ranks
from .exceptions import CoincidentCenters, DegenerateCloud, DegenerateInput, EpicubeError, LengthMismatch
from .projective import (
    DEFAULT_TOL,
    _as_array,
    _canon_rows,
    _in_range,
    _residuals,
    _unit_pairs,
    _unit_rows,
    as_points,
    canonical_fmatrix,
    dehomogenize,
    focal_point,
)

# The estimators the noise sweep compares and the CLI offers, in record order.
ALGOS = ("8pt", "7pt", "cube8")
# Candidates within this of the least residual tie; the first of them wins.
RESIDUAL_TIE_TOL = 1e-14
_FLOAT_MAX = np.finfo(float).max


def hartley_normalize(pts):
    """Isotropic conditioning: zero centroid, mean distance sqrt(2).

    Returns (T, transformed points) with transformed = points @ T.T (i.e.
    T applied to each homogeneous point).
    """
    P = as_points(pts, 3)
    if len(P) < 2:
        raise ValueError("need at least 2 points")
    T, out, degenerate = _condition(dehomogenize(P)[None])
    if degenerate[0]:
        raise DegenerateCloud("all points coincide")
    return T[0], out[0]


def _condition(aff):
    """hartley_normalize on an (N, n, 2) stack of affine points: (T, the
    conditioned points, where all points coincide)."""
    # np.mean and np.linalg.norm written as the reductions they run, without
    # their per-call overhead.
    n = aff.shape[1]
    centroid = np.add.reduce(aff, axis=1) / n
    centered = aff - centroid[:, None]
    mean_dist = np.add.reduce(np.sqrt(np.add.reduce(centered * centered, axis=2)), axis=1) / n
    degenerate = mean_dist < 1e-12 * (1.0 + np.sqrt(np.vecdot(centroid, centroid)))
    s = math.sqrt(2.0) / np.where(degenerate, 1.0, mean_dist)
    T = np.zeros((len(aff), 3, 3))
    T[:, 0, 0] = T[:, 1, 1] = s
    T[:, :2, 2] = -s[:, None] * centroid
    T[:, 2, 2] = 1.0
    # homogenize(centered * s) without its copies.
    out = np.ones(aff.shape[:-1] + (3,))
    np.multiply(centered, s[:, None, None], out=out[..., :2])
    return T, out, degenerate


def eight_point(X, Y):
    """Noise-free 8-point algorithm: F from the kernel of Z.

    Raises DegenerateInput carrying the kernel dimension when the kernel of
    Z is not one-dimensional; on images of a combinatorial cube that is the
    expected outcome for every camera pair.
    """
    X, Y = as_points(X, 3), as_points(Y, 3)
    if len(X) < 8:
        raise ValueError(f"need at least 8 correspondences, got {len(X)}")
    if len(X) != len(Y):
        raise LengthMismatch(f"|X|={len(X)} but |Y|={len(Y)}")
    # kernel_basis(build_Z(X, Y)) on checked inputs, both images' points
    # brought in range by one call.
    XY = _in_range(np.concatenate((X, Y)))
    _, s, vt = np.linalg.svd(_kron_rows(XY[: len(X)], XY[len(X) :]), full_matrices=True)
    dim = 9 - int(_ranks(s))
    if dim != 1:
        raise DegenerateInput(dim)
    return _canon_rows(vt[8:]).reshape(3, 3)


def fundamental_from_cameras(A1, A2):
    """Ground-truth F for a camera pair, via the epipole of A1's center."""
    A1, A2 = np.asarray(A1, dtype=float), np.asarray(A2, dtype=float)
    return _fundamental(A1, A2, focal_point(A1), focal_point(A2))


def _fundamental(A1, A2, c1, c2):
    """fundamental_from_cameras with canonical centres c1, c2 (A2 @ c1 rounds as project_all)."""
    if np.all(np.abs(c1 - c2) <= 1e-9):
        raise CoincidentCenters("camera centers coincide")
    e2 = A2 @ c1
    ex = np.array([[0.0, -e2[2], e2[1]], [e2[2], 0.0, -e2[0]], [-e2[1], e2[0], 0.0]])
    return canonical_fmatrix(ex @ A2 @ np.linalg.pinv(A1))


@dataclass
class PencilSolution:
    """Real roots of det(alpha*F1 + (1-alpha)*F2) with the rank-2 members."""

    roots: np.ndarray
    candidates: list

    def best(self, X, Y):
        """Candidate with minimal epipolar residual on (X, Y), and that residual:
        ``_select`` on a stack of one, so the first candidate within
        RESIDUAL_TIE_TOL of the minimum wins."""
        Xu, Yu = _unit_pairs(X, Y)
        i, residual = _select(np.array(self.candidates)[None], Xu[None], Yu[None])
        return self.candidates[i[0]], float(residual[0])


def _select(candidates, Xu, Yu):
    """The selection rule: each instance of an (N, k, 3, 3) NaN-padded
    candidate stack keeps its first candidate within RESIDUAL_TIE_TOL of the
    least residual on the unit rows (Xu[i], Yu[i]).  Returns the chosen
    indices and their residuals, inf where an instance has no candidate."""
    n, k = (~np.isnan(candidates[:, :, 0, 0])).nonzero()
    residuals = np.full(candidates.shape[:2], np.inf)
    residuals[n, k] = _residuals(candidates[n, k], Xu[n], Yu[n])
    least = residuals.min(axis=1, keepdims=True)
    # A row of infs would give inf - inf; against the largest float it picks
    # its first entry all the same.
    best = (residuals - np.minimum(least, _FLOAT_MAX) < RESIDUAL_TIE_TOL).argmax(axis=1)
    return best, residuals[np.arange(len(residuals)), best]


def _one(core, *args):
    """A stacked ``core`` on one instance; raises that instance's exception."""
    failures = {}
    out = core(*(np.asarray(a, dtype=float)[None] for a in args), failures)
    if failures:
        raise failures[0]
    return out


def _solution(roots, candidates):
    """The PencilSolution of the first instance of a ``pencil.solve`` result."""
    keep = ~np.isnan(roots[0])
    return PencilSolution(roots[0][keep], list(candidates[0][keep]))


def pencil_solve(F1, F2):
    """Real roots of det(alpha*F1 + (1-alpha)*F2) = 0 plus their matrices;
    ValueError unless both generators are finite."""
    G = _as_array([np.reshape(F1, 9), np.reshape(F2, 9)], what="pencil generators")
    _one(pencil.reject_dependent, G)
    return _solution(*_one(pencil.solve, G))


def seven_point(X, Y):
    """7-point algorithm: pencil of the two kernel generators of Z."""
    X, Y = as_points(X, 3), as_points(Y, 3)
    if len(X) != 7 or len(Y) != 7:
        raise ValueError("the 7-point algorithm needs exactly 7 correspondences")
    return _solution(*_one(pencil.solve, _one(_seven_point, X, Y)[0]))


def _seven_point(X, Y, failures):
    """The (N, 2, 9) pencil generators of seven_point on (N, 7, 3) checked
    stacks, for ``pencil.solve``; instance n fails under key n."""
    _, s, Vt = np.linalg.svd(_kron_rows(_in_range(X), _in_range(Y)))
    dim = 9 - _ranks(s)
    for n in (dim != 2).nonzero()[0].tolist():
        failures[n] = DegenerateInput(int(dim[n]))
    return Vt[:, 7:]


def eckart_young_rank7(Z):
    """Nearest rank-7 matrix in Frobenius norm (trailing sigmas zeroed)."""
    U, s, Vt = np.linalg.svd(_as_array(Z), full_matrices=False)
    s[7:] = 0.0
    return (U * s) @ Vt


def cube_eight_point(X, Y):
    """Cube-aware 8-point algorithm on the images of a combinatorial cube's
    vertices in label order 0,1,2,3,6,7,8,9 (``CubeConfig.vertices``): the
    least squares on Z and on "H_k^T F is skew-symmetric" for each facet's
    homography H_k, projected to rank 2.  DegenerateInput where its kernel is
    not one-dimensional; images with a point at infinity are not conditioned."""
    return _estimate_one("cube8", X, Y)[0]


# H -> rows (a <= b) of H^T F + F^T H over F, both flattened: (H^T F)[a, b] = H[c, a] F[c, b].
_S, (_a, _b) = np.einsum("rc,sa,db->rsabcd", *[np.eye(3)] * 3), np.triu_indices(3)
COMPATIBILITY = (_S + _S.swapaxes(2, 3))[:, :, _a, _b].reshape(9, 54)
# Positions in an image's flattened (8, 3) points of a[c+1], b[c+2], a[c+2] and
# b[c+1], whose products give entry c of a x b for a, b = p[i+1], p[i+2] (mod 3),
# then p[3][c] and p[i][c], for row i of facet k with quadruple p.
_I1, _I2, _p = [1, 2, 0], [2, 0, 1], np.arange(24).reshape(8, 3)[FACET_IDX]
_pa, _pb = _p[:, _I1], _p[:, _I2]
FACET_GATHER = np.stack([_pa[..., _I1], _pb[..., _I2], _pa[..., _I2], _pb[..., _I1], _p[:, [3, 3, 3]], _p[:, :3]])


def _cube_eight_point(XYu, failures):
    """cube_eight_point on an (N, 16, 3) stack of the unit rows of checked
    points, each instance's eight X then its eight Y: each F, (N, 3, 3), NaN
    where instance n raises, its exception under key n of ``failures``."""
    N = len(XYu)
    # An instance with a point at infinity takes its unit rows unconditioned.
    affine = (np.abs(XYu[..., 2]) > 1e-12).all(axis=1)[:, None, None]
    T, Pn, degenerate = _condition((XYu[..., :2] / np.where(affine, XYu[..., 2:], 1.0)).reshape(-1, 8, 2))
    Pn /= np.sqrt(np.vecdot(Pn, Pn))[..., None]
    T = np.where(affine[..., None], T.reshape(N, 2, 3, 3), np.eye(3))
    Pn = np.where(affine[..., None], Pn.reshape(N, 2, 8, 3), XYu.reshape(N, 2, 8, 3))
    # Each facet's H from projective bases, no division: K the adjugate of
    # [p0 p1 p2] (row i p[i+1] x p[i+2]), lam = K p3, H ~ [y0 y1 y2] diag(lam_y[i]
    # lam_x[i+1] lam_x[i+2]) K_x.  lam and det[p0 p1 p2], the quadruple's four
    # triple brackets, are ~0 where three points are collinear: then H is 0.
    G = Pn.reshape(N, 2, 24)[:, :, FACET_GATHER]
    K = G[:, :, 0] * G[:, :, 1] - G[:, :, 2] * G[:, :, 3]
    brackets = np.vecdot(K[:, :, None], G[:, :, 4:])
    mu = brackets[:, 1, 0] * brackets[:, 0, 0][..., _I1] * brackets[:, 0, 0][..., _I2]
    H = ((G[:, 1, 5] * mu[..., None]).swapaxes(-1, -2) @ K[:, 0]).reshape(N, 6, 9)
    planar = (np.abs(brackets) > DEFAULT_TOL).all(axis=(1, 2, 4))
    H /= np.where(planar, np.sqrt(np.vecdot(H, H)), np.inf)[..., None]
    A = np.concatenate([_kron_rows(Pn[:, 0], Pn[:, 1]), (H @ COMPATIBILITY).reshape(N, 36, 9)], axis=1)
    _, s, Vt = np.linalg.svd(A, full_matrices=False)
    dim = 9 - _ranks(s)
    cloud = affine[:, 0, 0] & degenerate.reshape(N, 2).any(axis=1)
    for n in (cloud | (dim > 1)).nonzero()[0].tolist():
        failures[n] = DegenerateCloud("all points coincide") if cloud[n] else DegenerateInput(int(dim[n]))
    # The nearest rank-2 matrix, denormalized.
    U, s, V = np.linalg.svd(F := Vt[:, 8].reshape(N, 3, 3))
    F -= s[:, 2, None, None] * U[:, :, 2, None] * V[:, 2, None]
    F = _canon_rows(T[:, 1].swapaxes(1, 2) @ F @ T[:, 0])
    F[list(failures)] = np.nan
    return F


def _estimate_all(algos, X, Y):
    """The estimators ``algos`` (names in ALGOS) on (N, n, 3) stacks of
    checked points, as three lists with one entry per algorithm: each
    instance's chosen F, (N, 3, 3), its residual on all n correspondences,
    (N,) (NaN and inf where it raises), and the raising instances' exceptions.
    "8pt" runs the module-global (maybe traced) ``eight_point`` per instance,
    "7pt" the pencil of the first 7 rows, "cube8" ``_cube_eight_point``."""
    N = len(X)
    # Both images' points in one stack, and their unit rows from one call.
    XYu = _unit_rows(np.concatenate([X, Y], axis=1))
    Xu, Yu = XYu[:, : X.shape[1]], XYu[:, X.shape[1] :]
    failures, candidates = [{} for _ in algos], [None] * len(algos)
    for j, algo in enumerate(algos):
        if algo == "8pt":
            candidates[j] = np.full((N, 1, 3, 3), np.nan)
            for i in range(N):
                try:
                    candidates[j][i, 0] = eight_point(X[i], Y[i])
                except EpicubeError as exc:
                    failures[j][i] = exc
        elif algo == "7pt":
            if X.shape[1] < 7:
                raise ValueError("the 7-point algorithm needs at least 7 correspondences")
            candidates[j] = pencil.solve(_seven_point(X[:, :7], Y[:, :7], failures[j]), failures[j])[1]
        elif algo == "cube8":
            if X.shape[1] != 8 or Y.shape[1] != 8:
                raise ValueError("the cube-8-point algorithm needs exactly 8 correspondences")
            candidates[j] = _cube_eight_point(XYu, failures[j])[:, None]
        else:
            raise ValueError(f"unknown estimator {algo!r}")
    chosen = [_select(c, Xu, Yu) for c in candidates]
    F = [c[np.arange(N), best] for c, (best, _) in zip(candidates, chosen)]
    return F, [residual for _, residual in chosen], failures


def _estimate_one(algo, X, Y):
    """``_estimate_all`` of one estimator on one instance: (F, residual);
    raises the instance's exception."""
    (F,), (residual,), (failures,) = _estimate_all((algo,), as_points(X, 3)[None], as_points(Y, 3)[None])
    if failures:
        raise failures[0]
    return F[0], float(residual[0])
