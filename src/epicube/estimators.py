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
    as_points,
    canonical_fmatrix,
    dehomogenize,
    epipolar_residual,
    focal_point,
    homogenize,
    proj_equal,
    project,
)

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
        """Candidate with minimal epipolar residual on (X, Y).

        Ties below the tie tolerance go to the smaller root index.
        """
        residuals = [epipolar_residual(F, X, Y) for F in self.candidates]
        best = int(np.argmin(residuals))
        for i in range(best):
            if residuals[i] - residuals[best] < RESIDUAL_TIE_TOL:
                best = i
                break
        return self.candidates[best], residuals[best]


def _pencil_cubic_coeffs(F1, F2):
    """Coefficients (c3, c2, c1, c0) of det(a*F1 + (1-a)*F2) by sampling."""
    nodes = np.array([0.0, 1.0, 2.0, -1.0])
    vals = np.array([np.linalg.det(a * F1 + (1.0 - a) * F2) for a in nodes])
    V = np.vander(nodes, 4)
    return np.linalg.solve(V, vals), vals


def pencil_solve(F1, F2):
    """Real roots of det(alpha*F1 + (1-alpha)*F2) = 0 plus their matrices.

    The cubic is expanded by sampling/interpolation and solved through the
    companion-matrix eigenvalue route; near-real roots are kept, duplicates
    merged.
    """
    F1 = np.asarray(F1, dtype=float).reshape(3, 3)
    F2 = np.asarray(F2, dtype=float).reshape(3, 3)
    stack = np.vstack([F1.reshape(-1), F2.reshape(-1)])
    s = np.linalg.svd(stack, compute_uv=False)
    if s[1] <= 1e-12 * s[0]:
        raise DependentInputs("pencil generators are linearly dependent")
    coeffs, vals = _pencil_cubic_coeffs(F1, F2)
    scale = (3.0 * max(np.linalg.norm(F1), np.linalg.norm(F2))) ** 3
    if np.max(np.abs(vals)) <= 1e-12 * scale:
        raise IdenticallyZeroPencil("every pencil member is singular")
    # Strip numerically-zero leading coefficients before the companion solve.
    cmax = np.max(np.abs(coeffs))
    trimmed = np.array(coeffs)
    while len(trimmed) > 1 and abs(trimmed[0]) <= 1e-12 * cmax:
        trimmed = trimmed[1:]
    roots = np.roots(trimmed) if len(trimmed) > 1 else np.array([])
    candidates_alpha = []
    for cluster in _root_clusters(roots):
        mean = complex(np.mean(cluster))
        if len(cluster) > 1:
            # Near-multiple root: the cluster mean is O(eps) accurate while
            # the individual companion-matrix roots are only O(eps^(1/m)).
            candidates_alpha.append(mean.real)
        elif abs(mean.imag) <= REAL_ROOT_IMAG_TOL * (1.0 + abs(mean.real)):
            candidates_alpha.append(mean.real)
    # Polish on sigma_min of the pencil member, then keep genuine rank-2
    # members only (a merged conjugate pair may polish to nothing).
    merged = []
    for a in sorted(_polish_rank2_root(a, F1, F2) for a in candidates_alpha):
        M = a * F1 + (1.0 - a) * F2
        sv = np.linalg.svd(M, compute_uv=False)
        if sv[2] > 1e-8 * sv[0]:
            continue
        if not merged or abs(a - merged[-1]) > ROOT_DEDUP_TOL:
            merged.append(a)
    if not merged:
        raise NoRealRoot("pencil determinant has no real root")
    candidates = [canonical_fmatrix(a * F1 + (1.0 - a) * F2) for a in merged]
    return PencilSolution(roots=np.array(merged), candidates=candidates)


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


def _polish_rank2_root(alpha, F1, F2):
    """Newton refinement of det(a*F1 + (1-a)*F2) = 0 on sigma_min.

    d sigma_min / d alpha = u3^T (F1 - F2) v3 for the smallest singular
    pair (u3, v3); one step is exact in the V-shaped multiple-root case.
    """
    D = F1 - F2
    for _ in range(8):
        M = alpha * F1 + (1.0 - alpha) * F2
        U, s, Vt = np.linalg.svd(M)
        if s[2] <= 1e-15 * s[0]:
            break
        slope = U[:, 2] @ D @ Vt[2]
        if abs(slope) <= 1e-14 * max(1.0, s[0]):
            break
        step = s[2] / slope
        if abs(step) > 1.0 + abs(alpha):
            break
        alpha -= step
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


def _all_affine(P):
    P = P / np.abs(P).max(axis=1)[:, None]  # the norm must not overflow
    return bool(np.all(np.abs(P[:, 2]) > 1e-12 * np.linalg.norm(P, axis=1)))


def eckart_young_rank7(Z):
    """Nearest rank-7 matrix in Frobenius norm (trailing sigmas zeroed)."""
    U, s, Vt = np.linalg.svd(np.asarray(Z, dtype=float), full_matrices=False)
    s = s.copy()
    s[7:] = 0.0
    return (U * s) @ Vt


def cube_eight_point(X, Y, normalize=True):
    """Cube-aware 8-point algorithm.

    Conditions the images, truncates Z to rank 7, solves the rank-2 pencil
    of the two kernel generators, and returns the denormalized candidate
    with minimal epipolar residual on the original points.
    """
    X = as_points(X, 3)
    Y = as_points(Y, 3)
    if len(X) != 8 or len(Y) != 8:
        raise ValueError("the cube-8-point algorithm needs exactly 8 correspondences")
    # Conditioning needs affine points; clouds containing points at
    # infinity (legal homogeneous inputs) go through unnormalized.
    if normalize and not (_all_affine(X) and _all_affine(Y)):
        normalize = False
    if normalize:
        TX, Xn = hartley_normalize(X)
        TY, Yn = hartley_normalize(Y)
    else:
        TX = TY = np.eye(3)
        Xn, Yn = X, Y
    # The rank-7 truncation of Z keeps its right singular vectors, so its
    # kernel is spanned by the last two of them.
    _, _, Vt = np.linalg.svd(build_Z(Xn, Yn))
    sol = pencil_solve(Vt[7].reshape(3, 3), Vt[8].reshape(3, 3))
    denorm = [canonical_fmatrix(TY.T @ F @ TX) for F in sol.candidates]
    full = PencilSolution(roots=sol.roots, candidates=denorm)
    F, _ = full.best(X, Y)
    return F
