"""The rank-2 pencil solve on stacks of instances.

For each generator pair (F1, F2) of an (N, 2, 9) stack, ``solve`` finds the
real roots of det(alpha*F1 + (1-alpha)*F2) = 0 whose members have rank 2,
and those members; ``estimators`` builds its 7-point estimator and
``pencil_solve`` on it.
"""

import numpy as np

from .exceptions import DependentInputs, IdenticallyZeroPencil, NoRealRoot
from .projective import _canon_rows

# Root handling thresholds for the pencil cubic.
REAL_ROOT_IMAG_TOL = 1e-8
ROOT_DEDUP_TOL = 1e-8
# The pencil cubic is sampled at NODES; VANDER maps samples to coefficients.
NODES = np.array([0.0, 1.0, 2.0, -1.0])
VANDER = np.vander(NODES, 4)
# The pairs (i, j), i > j, of a row of three roots.
LATER, EARLIER = [1, 2, 2], [0, 0, 1]


def members(alpha, F1, F2):
    """The pencil members alpha*F1 + (1-alpha)*F2 for an array of alpha."""
    a = alpha[..., None, None]
    return a * F1 + (1.0 - a) * F2


def reject_dependent(G, failures):
    """Adds DependentInputs to ``failures`` for each generator pair of an
    (N, 2, 9) stack that is linearly dependent, as ``solve`` needs.  The
    estimators skip this SVD: their generators are orthonormal rows of an
    SVD's Vt, never dependent."""
    s = np.linalg.svd(G, compute_uv=False)
    for n in (s[:, 1] <= 1e-12 * s[:, 0]).nonzero()[0].tolist():
        failures.setdefault(n, DependentInputs("pencil generators are linearly dependent"))


def solve(G, failures):
    """The pencil solve on an (N, 2, 9) stack of linearly independent
    generator pairs, but for the instances already in ``failures``.

    The cubic is interpolated from one stacked determinant at four nodes;
    near-multiple roots are merged to their cluster mean, near-real roots
    kept, and all roots polished together, filtered to rank-2 members by
    one stacked SVD and deduplicated.  Adds each raising instance's
    exception to ``failures``, and returns each instance's roots, ascending,
    and canonical members as (N, 3) and (N, 3, 3, 3) stacks padded by NaN.
    """
    N = len(G)
    F1, F2 = G[:, 0].reshape(N, 3, 3), G[:, 1].reshape(N, 3, 3)
    vals = np.linalg.det(members(NODES, F1[:, None], F2[:, None]))
    coeffs = np.linalg.solve(VANDER, vals[..., None])[..., 0]
    # Cubed in Python floats (libm's pow), as for a single pencil; numpy's
    # array power rounds differently.
    scale = np.array([(3.0 * n) ** 3 for n in np.sqrt(np.vecdot(G, G).max(axis=1)).tolist()])
    for n in (np.abs(vals).max(axis=1) <= 1e-12 * scale).nonzero()[0].tolist():
        failures.setdefault(n, IdenticallyZeroPencil("every pencil member is singular"))
    if failures:
        live = np.ones(N, dtype=bool)
        live[list(failures)] = False
        roots = np.full((N, 3), np.nan)
        roots[live] = real_roots(coeffs[live])
    else:
        roots = real_roots(coeffs)
    n, k = (~np.isnan(roots)).nonzero()
    F1, F2 = F1[n], F2[n]
    # Polish on sigma_min, then keep genuine rank-2 members only (a merged
    # conjugate pair may polish to nothing).
    roots[n, k] = polish(roots[n, k], F1, F2)
    roots.sort(axis=1, kind="stable")
    k = (~np.isnan(roots)).nonzero()[1]
    M = members(roots[n, k], F1, F2)
    sv = np.linalg.svd(M, compute_uv=False)
    roots[n, k] = np.where(sv[:, 2] <= 1e-8 * sv[:, 0], roots[n, k], np.nan)
    roots = distinct(roots)
    # A failed instance's row is all NaN and keeps its first exception.
    for m in np.isnan(roots).all(axis=1).nonzero()[0].tolist():
        failures.setdefault(m, NoRealRoot("pencil determinant has no real root"))
    keep = ~np.isnan(roots[n, k])
    candidates = np.full((N, 3, 3, 3), np.nan)
    candidates[n[keep], k[keep]] = _canon_rows(M[keep])
    return roots, candidates


def distinct(roots):
    """An (N, 3) stack of ascending roots, NaN-padded, with each root within
    ROOT_DEDUP_TOL of the last one kept in its row set to NaN."""
    # No root goes unless some pair of a row is within the tolerance.
    if not (np.abs(roots[:, LATER] - roots[:, EARLIER]) <= ROOT_DEDUP_TOL).any():
        return roots
    roots = roots.copy()
    last = roots[:, 0]
    for column in roots.T[1:]:
        column[np.abs(column - last) <= ROOT_DEDUP_TOL] = np.nan
        last = np.where(np.isnan(column), last, column)
    return roots


def real_roots(coeffs):
    """The real pencil parameters of an (N, 4) stack of cubic coefficients,
    one per cluster head, as an (N, 3) stack padded by NaN.

    Numerically-zero leading coefficients are dropped, never the constant
    one.  A full cubic with a nonzero constant term takes the companion
    matrix eigenvalues that ``np.roots`` would, in one stacked call; any
    other goes through ``np.roots``.
    """
    N = len(coeffs)
    mag = np.abs(coeffs)
    small = mag <= 1e-12 * mag.max(axis=1, keepdims=True)
    small[:, -1] = False
    cubic = ~small[:, 0] & (coeffs[:, -1] != 0.0)
    full = cubic.all()
    p = coeffs if full else coeffs[cubic]
    companion = np.zeros((len(p), 3, 3))
    companion[:, 0] = -p[:, 1:] / p[:, :1]
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    if full:
        # Real where every eigenvalue is, which rounds as complex ones with
        # zero imaginary parts below.
        roots = np.linalg.eigvals(companion)
    else:
        roots = np.full((N, 3), np.nan, dtype=complex)
        roots[cubic] = np.linalg.eigvals(companion)
        for i in (~cubic).nonzero()[0].tolist():
            r = np.roots(coeffs[i, small[i].argmin() :])
            roots[i, : len(r)] = r
    # Each root is its own cluster, but in the rows where two roots are near.
    size = np.hypot(roots.real, roots.imag)
    d = roots[:, LATER] - roots[:, EARLIER]
    near = np.hypot(d.real, d.imag) <= 1e-2 * (1.0 + size[:, LATER] + size[:, EARLIER])
    rows = near.any(axis=1).nonzero()[0]
    mean = 0.0 + roots.real
    if len(rows):
        # np.roots gives a real array where all roots are real, and np.mean
        # then divides a sum by n where it multiplies a complex one by 1 / n.
        real = ~(roots[rows].imag != 0.0).any(axis=1)
        mean[rows], count = _cluster_means(roots[rows], near[rows], real)
    # A near-multiple root's cluster mean is O(eps) accurate, while the
    # individual companion-matrix roots are only O(eps^(1/m)).
    keep = np.abs(roots.imag) <= REAL_ROOT_IMAG_TOL * (1.0 + np.abs(mean))
    if len(rows):
        keep[rows] = (count > 1) | ((count == 1) & keep[rows])
    return np.where(keep, mean, np.nan)


def _cluster_means(roots, near, real):
    """Greedy clusters of an (N, 3) stack of roots, NaN-padded, each root
    joining the first earlier head near it (``near`` at the pairs (LATER,
    EARLIER)): the mean and size of the cluster each root heads (size 0
    where it heads none)."""
    label = np.zeros(roots.shape, dtype=int)
    label[:, 1] = ~near[:, 0]
    label[:, 2] = np.where(near[:, 1], 0, np.where(label[:, 1] & near[:, 2], 1, 2))
    member = (label[:, None] == np.arange(3)[:, None]) & ~np.isnan(roots.real)[:, None]
    # The mean as np.mean takes it: a sum from 0.0 in root order, / n or * (1 / n).
    part = np.where(member, roots.real[:, None], 0.0)
    total = 0.0 + part[..., 0] + part[..., 1] + part[..., 2]
    count = member.sum(axis=2)
    n = np.maximum(count, 1)
    return np.where(real[:, None], total / n, total * (1.0 / n)), count


def polish(alpha, F1, F2):
    """Newton refinement of det(a*F1 + (1-a)*F2) = 0 on sigma_min, for all
    roots at once, each with its own generators; each root stops at its
    first failed test.

    d sigma_min / d alpha = u3^T (F1 - F2) v3 for the smallest singular
    pair (u3, v3); one step is exact in the V-shaped multiple-root case.
    """
    D = F1 - F2
    # The roots still stepping, their alpha and generators.
    alpha, live, a = alpha.copy(), np.arange(len(alpha)), alpha
    for _ in range(8):
        U, s, Vt = np.linalg.svd(members(a, F1, F2))
        # A 1x3 by 3x3 product per root, as for a single pencil; a per-root
        # einsum rounds differently.
        slope = np.vecdot((U[:, None, :, 2] @ D)[:, 0], Vt[:, 2])
        ok = (s[:, 2] > 1e-15 * s[:, 0]) & (np.abs(slope) > 1e-14 * np.maximum(1.0, s[:, 0]))
        step = s[:, 2] / np.where(ok, slope, 1.0)
        ok &= np.abs(step) <= 1.0 + np.abs(a)
        if not ok.any():
            break
        live, a = live[ok], a[ok] - step[ok]
        alpha[live] = a
        F1, F2, D = F1[ok], F2[ok], D[ok]
    return alpha
