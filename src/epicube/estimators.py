"""Fundamental-matrix estimators: classical 8-point, 7-point pencil
machinery, and the cube-aware 8-point variant that survives the rank drop
caused by combinatorial-cube inputs.
"""

from dataclasses import dataclass

import numpy as np

from .degeneracy import build_Z, kernel_basis
from .exceptions import (
    CoincidentCenters,
    DegenerateCloud,
    DegenerateInput,
    DependentInputs,
    IdenticallyZeroPencil,
    NoRealRoot,
)
from .projective import (
    _unit_rows,
    as_points,
    canonical_fmatrix,
    dehomogenize,
    epipolar_residual,
    focal_point,
    homogenize,
    proj_equal,
    project,
)

# The estimators the noise sweep compares and the CLI offers, in record order.
ALGOS = ("8pt", "7pt", "cube8")
# Root handling thresholds for the pencil cubic.
REAL_ROOT_IMAG_TOL = 1e-8
ROOT_DEDUP_TOL = 1e-8
RESIDUAL_TIE_TOL = 1e-14


def hartley_normalize(pts):
    """Isotropic conditioning: zero centroid, mean distance sqrt(2).

    Returns (T, transformed points) with transformed = points @ T.T (i.e.
    T applied to each homogeneous point).
    """
    P = as_points(pts, 3)
    if len(P) < 2:
        raise ValueError("need at least 2 points")
    aff = dehomogenize(P)
    centroid = aff.mean(axis=0)
    centered = aff - centroid
    mean_dist = np.mean(np.linalg.norm(centered, axis=1))
    if mean_dist < 1e-12 * (1.0 + np.linalg.norm(centroid)):
        raise DegenerateCloud("all points coincide")
    s = np.sqrt(2.0) / mean_dist
    T = np.array(
        [
            [s, 0.0, -s * centroid[0]],
            [0.0, s, -s * centroid[1]],
            [0.0, 0.0, 1.0],
        ]
    )
    return T, homogenize(centered * s)


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
    basis = kernel_basis(build_Z(X, Y))
    if len(basis) != 1:
        raise DegenerateInput(len(basis))
    return canonical_fmatrix(basis[0].reshape(3, 3))


def fundamental_from_cameras(A1, A2):
    """Ground-truth F for a camera pair, via the epipole of A1's center."""
    A1 = np.asarray(A1, dtype=float)
    A2 = np.asarray(A2, dtype=float)
    c1 = focal_point(A1)
    c2 = focal_point(A2)
    if proj_equal(c1, c2, tol=1e-9):
        raise CoincidentCenters("camera centers coincide")
    e2 = project(A2, c1)
    ex = np.array(
        [
            [0.0, -e2[2], e2[1]],
            [e2[2], 0.0, -e2[0]],
            [-e2[1], e2[0], 0.0],
        ]
    )
    F = ex @ A2 @ np.linalg.pinv(A1)
    return canonical_fmatrix(F)


@dataclass
class PencilSolution:
    """Real roots of det(alpha*F1 + (1-alpha)*F2) with the rank-2 members."""

    roots: np.ndarray
    candidates: list

    def best(self, X, Y):
        """Candidate with minimal epipolar residual on (X, Y), and that residual.

        All candidates are scored by one stacked ``epipolar_residual`` call;
        the first candidate within RESIDUAL_TIE_TOL of the minimum wins.
        """
        residuals = epipolar_residual(np.array(self.candidates), X, Y)
        best = int(np.argmax(residuals - residuals.min() < RESIDUAL_TIE_TOL))
        return self.candidates[best], float(residuals[best])


def _members(alpha, F1, F2):
    """The pencil members alpha*F1 + (1-alpha)*F2 for a 1-D array of alpha."""
    a = alpha[:, None, None]
    return a * F1 + (1.0 - a) * F2


def pencil_solve(F1, F2):
    """Real roots of det(alpha*F1 + (1-alpha)*F2) = 0 plus their matrices.

    The cubic is interpolated from one stacked determinant at four nodes and
    solved through the companion-matrix eigenvalue route; near-multiple
    roots are merged to their cluster mean, near-real roots kept.  All roots
    are polished together, filtered to rank-2 members by one stacked SVD,
    and deduplicated.
    """
    F1 = np.asarray(F1, dtype=float).reshape(3, 3)
    F2 = np.asarray(F2, dtype=float).reshape(3, 3)
    s = np.linalg.svd(np.vstack([F1.reshape(-1), F2.reshape(-1)]), compute_uv=False)
    if s[1] <= 1e-12 * s[0]:
        raise DependentInputs("pencil generators are linearly dependent")
    nodes = np.array([0.0, 1.0, 2.0, -1.0])
    vals = np.linalg.det(_members(nodes, F1, F2))
    coeffs = np.linalg.solve(np.vander(nodes, 4), vals)
    scale = (3.0 * max(np.linalg.norm(F1), np.linalg.norm(F2))) ** 3
    if np.max(np.abs(vals)) <= 1e-12 * scale:
        raise IdenticallyZeroPencil("every pencil member is singular")
    # Drop numerically-zero leading coefficients, never the constant one.
    small = np.abs(coeffs) <= 1e-12 * np.max(np.abs(coeffs))
    small[-1] = False
    alphas = []
    for cluster in _root_clusters(np.roots(coeffs[np.argmin(small) :])):
        mean = complex(np.mean(cluster))
        # A near-multiple root's cluster mean is O(eps) accurate, while the
        # individual companion-matrix roots are only O(eps^(1/m)).
        if len(cluster) > 1 or abs(mean.imag) <= REAL_ROOT_IMAG_TOL * (1.0 + abs(mean.real)):
            alphas.append(mean.real)
    # Polish on sigma_min, then keep genuine rank-2 members only (a merged
    # conjugate pair may polish to nothing).
    alphas = np.sort(_polish_rank2_roots(alphas, F1, F2), kind="stable")
    sv = np.linalg.svd(_members(alphas, F1, F2), compute_uv=False)
    merged = []
    for a in alphas[sv[:, 2] <= 1e-8 * sv[:, 0]]:
        if not merged or abs(a - merged[-1]) > ROOT_DEDUP_TOL:
            merged.append(a)
    if not merged:
        raise NoRealRoot("pencil determinant has no real root")
    roots = np.array(merged)
    return PencilSolution(roots, [canonical_fmatrix(M) for M in _members(roots, F1, F2)])


def _root_clusters(roots):
    """Greedy partition of polynomial roots into near-multiple clusters."""
    remaining = list(roots)
    clusters = []
    while remaining:
        r = remaining.pop(0)
        group = [r]
        keep = []
        for q in remaining:
            if abs(q - r) <= 1e-2 * (1.0 + abs(q) + abs(r)):
                group.append(q)
            else:
                keep.append(q)
        remaining = keep
        clusters.append(group)
    return clusters


def _polish_rank2_roots(alphas, F1, F2):
    """Newton refinement of det(a*F1 + (1-a)*F2) = 0 on sigma_min, for all
    roots at once; each root stops at its first failed test.

    d sigma_min / d alpha = u3^T (F1 - F2) v3 for the smallest singular
    pair (u3, v3); one step is exact in the V-shaped multiple-root case.
    """
    D = F1 - F2
    alpha = np.array(alphas, dtype=float)
    live = np.arange(len(alpha))
    for _ in range(8):
        if not len(live):
            break
        a = alpha[live]
        U, s, Vt = np.linalg.svd(_members(a, F1, F2))
        slope = np.vecdot(U[:, :, 2] @ D, Vt[:, 2])
        ok = (s[:, 2] > 1e-15 * s[:, 0]) & (np.abs(slope) > 1e-14 * np.maximum(1.0, s[:, 0]))
        step = s[:, 2] / np.where(ok, slope, 1.0)
        ok &= np.abs(step) <= 1.0 + np.abs(a)
        alpha[live[ok]] = a[ok] - step[ok]
        live = live[ok]
    return alpha


def seven_point(X, Y):
    """7-point algorithm: pencil of the two kernel generators of Z."""
    X = as_points(X, 3)
    Y = as_points(Y, 3)
    if len(X) != 7 or len(Y) != 7:
        raise ValueError("the 7-point algorithm needs exactly 7 correspondences")
    basis = kernel_basis(build_Z(X, Y))
    if len(basis) != 2:
        raise DegenerateInput(len(basis))
    return pencil_solve(basis[0].reshape(3, 3), basis[1].reshape(3, 3))


def eckart_young_rank7(Z):
    """Nearest rank-7 matrix in Frobenius norm (trailing sigmas zeroed)."""
    U, s, Vt = np.linalg.svd(np.asarray(Z, dtype=float), full_matrices=False)
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
    X = as_points(X, 3)
    Y = as_points(Y, 3)
    if len(X) != 8 or len(Y) != 8:
        raise ValueError("the cube-8-point algorithm needs exactly 8 correspondences")
    if np.all(np.abs(_unit_rows(np.vstack([X, Y]))[:, 2]) > 1e-12):
        TX, Xn = hartley_normalize(X)
        TY, Yn = hartley_normalize(Y)
    else:
        TX = TY = np.eye(3)
        Xn, Yn = X, Y
    # The rank-7 truncation of Z keeps its right singular vectors, so its
    # kernel is spanned by the last two of them.
    _, _, Vt = np.linalg.svd(build_Z(Xn, Yn))
    sol = pencil_solve(Vt[7].reshape(3, 3), Vt[8].reshape(3, 3))
    sol.candidates = [canonical_fmatrix(F) for F in TY.T @ np.array(sol.candidates) @ TX]
    return sol.best(X, Y)[0]


def _estimate(algo, X, Y):
    """F by the estimator ``algo`` of ALGOS; "7pt" solves on the first seven
    correspondences and keeps the candidate of least residual on all of them.
    The estimators are called by their module-global names, so rebound
    (traced) ones are the ones that run."""
    if algo == "8pt":
        return eight_point(X, Y)
    if algo == "7pt":
        return seven_point(X[:7], Y[:7]).best(X, Y)[0]
    if algo == "cube8":
        return cube_eight_point(X, Y)
    raise ValueError(f"unknown estimator {algo!r}")
