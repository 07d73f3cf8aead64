"""Fundamental-matrix estimators: classical 8-point, 7-point pencil
machinery, and the cube-aware 8-point variant that survives the rank drop
caused by combinatorial-cube inputs.

The 7-point and cube-8-point estimators each have one core that gives the
candidates of a stack of N instances on whole arrays.  ``_select`` is the one
selection rule and ``_estimate_all`` the one dispatcher over ALGOS; the public
forms and the CLI are stacks of one.
"""

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import pencil
from .degeneracy import _kron_rows, _ranks
from .exceptions import CoincidentCenters, DegenerateCloud, DegenerateInput, EpicubeError, LengthMismatch
from .projective import (
    _as_array,
    _canon_rows,
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
    X = as_points(X, 3)
    Y = as_points(Y, 3)
    if len(X) < 8:
        raise ValueError(f"need at least 8 correspondences, got {len(X)}")
    if len(X) != len(Y):
        raise LengthMismatch(f"|X|={len(X)} but |Y|={len(Y)}")
    # kernel_basis(build_Z(X, Y)) on checked inputs.
    _, s, vt = np.linalg.svd(_kron_rows(X, Y), full_matrices=True)
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
    X = as_points(X, 3)
    Y = as_points(Y, 3)
    if len(X) != 7 or len(Y) != 7:
        raise ValueError("the 7-point algorithm needs exactly 7 correspondences")
    return _solution(*_one(pencil.solve, _one(_seven_point, X, Y)[0]))


def _seven_point(X, Y, failures, at=0):
    """The (N, 2, 9) pencil generators of seven_point on (N, 7, 3) checked
    stacks, for ``pencil.solve``; instance n fails under key at + n."""
    _, s, Vt = np.linalg.svd(_kron_rows(X, Y))
    dim = 9 - _ranks(s)
    for n in (dim != 2).nonzero()[0].tolist():
        failures[at + n] = DegenerateInput(int(dim[n]))
    return Vt[:, 7:]


def eckart_young_rank7(Z):
    """Nearest rank-7 matrix in Frobenius norm (trailing sigmas zeroed)."""
    U, s, Vt = np.linalg.svd(_as_array(Z), full_matrices=False)
    s = s.copy()
    s[7:] = 0.0
    return (U * s) @ Vt


def cube_eight_point(X, Y):
    """Cube-aware 8-point algorithm.

    Conditions the images, truncates Z to rank 7, solves the rank-2 pencil
    of the two kernel generators, and returns the denormalized candidate
    with minimal epipolar residual on the original points.  Images with a
    point at infinity cannot be conditioned and are used as given.
    """
    return _estimate_one("cube8", X, Y)[0]


def _cube_eight_point(XY, XYu, failures, at=0):
    """The conditioning transforms, (N, 2, 3, 3), and pencil generators of
    cube_eight_point on an (N, 16, 3) stack of checked points, each
    instance's eight X then its eight Y, with unit rows XYu, the generators
    as ``pencil.solve`` takes them; instance n fails under key at + n of
    ``failures``."""
    N = len(XY)
    P = XY.reshape(N, 2, 8, 3)
    affine = (np.abs(XYu[..., 2]) > 1e-12).all(axis=1)
    all_affine = affine.all()
    # Every instance is conditioned; one with a point at infinity, the only
    # kind that can divide by zero here, then takes its images as given.
    with contextlib.nullcontext() if all_affine else np.errstate(all="ignore"):
        T, Pn, degenerate = _condition((P[..., :2] / P[..., 2:]).reshape(-1, 8, 2))
    T, Pn = T.reshape(N, 2, 3, 3), Pn.reshape(P.shape)
    if not all_affine:
        T = np.where(affine[:, None, None, None], T, np.eye(3))
        Pn = np.where(affine[:, None, None, None], Pn, P)
    if degenerate.any():
        for n in (affine & degenerate.reshape(N, 2).any(axis=1)).nonzero()[0].tolist():
            failures[at + n] = DegenerateCloud("all points coincide")
    # The rank-7 truncation of Z keeps its right singular vectors, so its
    # kernel is spanned by the last two of them.
    _, _, Vt = np.linalg.svd(_kron_rows(Pn[:, 0], Pn[:, 1]))
    return T, Vt[:, 7:]


def _estimate_all(algos, X, Y):
    """The estimators ``algos`` (names in ALGOS) on (N, n, 3) stacks of
    checked points, as three lists with one entry per algorithm: each
    instance's chosen F, (N, 3, 3), its residual on all n correspondences,
    (N,) (NaN and inf where it raises), and the raising instances' exceptions.
    "8pt" runs the module-global (maybe traced) ``eight_point`` per instance;
    "7pt" and "cube8" share one ``pencil.solve``, 7pt on the first 7 rows."""
    N = len(X)
    # Both images' points in one stack, and their unit rows from one call.
    XY = np.concatenate([X, Y], axis=1)
    XYu = _unit_rows(XY)
    Xu, Yu = XYu[:, : X.shape[1]], XYu[:, X.shape[1] :]
    failures, candidates = [{} for _ in algos], [None] * len(algos)
    # (algorithm index, conditioning or None, generators) of each pencil
    # estimator, and their failures from the start under the joint index
    # k * N + n of instance n of the k-th pencil.
    pencils, joint = [], {}
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
            pencils.append((j, None, _seven_point(X[:, :7], Y[:, :7], joint, len(pencils) * N)))
        elif algo == "cube8":
            if X.shape[1] != 8 or Y.shape[1] != 8:
                raise ValueError("the cube-8-point algorithm needs exactly 8 correspondences")
            pencils.append((j, *_cube_eight_point(XY, XYu, joint, len(pencils) * N)))
        else:
            raise ValueError(f"unknown estimator {algo!r}")
    if pencils:
        roots, solved = pencil.solve(np.concatenate([G for *_, G in pencils]), joint)
        for n, exc in joint.items():
            failures[pencils[n // N][0]][n % N] = exc
        for k, (j, T, _) in enumerate(pencils):
            candidates[j] = c = solved[k * N : (k + 1) * N]
            if T is not None:
                n, m = (~np.isnan(roots[k * N : (k + 1) * N])).nonzero()
                c[n, m] = _canon_rows(T[n, 1].transpose(0, 2, 1) @ c[n, m] @ T[n, 0])
    chosen = [_select(candidates[j], Xu, Yu) for j in range(len(algos))]
    F = [candidates[j][np.arange(N), best] for j, (best, _) in enumerate(chosen)]
    return F, [residual for _, residual in chosen], failures


def _estimate_one(algo, X, Y):
    """``_estimate_all`` of one estimator on one instance: (F, residual);
    raises the instance's exception."""
    (F,), (residual,), (failures,) = _estimate_all((algo,), as_points(X, 3)[None], as_points(Y, 3)[None])
    if failures:
        raise failures[0]
    return F[0], float(residual[0])
